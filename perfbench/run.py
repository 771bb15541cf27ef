"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (all closed loops: one op at a time, the next issued when the
previous one returned):

- ``grid-serial``: the paper's long-cell grid in one process through
  the default serial path (op = one cell).  Exercises the kernel-side
  layers.
- ``sweep-pooled``: short-cell batches through one warm two-worker
  ``SweepEngine`` with cache, run-log, sweep telemetry and phase
  profile (op = one ``SweepEngine.run`` batch).  Exercises the sweep
  engine, the cache and the observers.
- ``cli-cold``: fresh ``python -m repro`` processes from a fixed command
  mix (op = one process, start to exit).  Exercises import, argument
  handling, output and per-invocation pool spin-up.

This launcher runs the closed loop (``loop.py``) as a child, so set-up
time includes interpreter start; for the in-process workloads it also
runs four set-up-only probes and reports the median of five set-ups.  It
samples the peak resident memory of the loop's process tree, and
prints every metric by name with its unit, the input shares, an
environment stamp and, last, one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run over the same inputs (it
also writes the spans as Chrome trace-event JSON under ``.perfbench/``).
Every file a run writes lives under ``.perfbench/`` in the checkout.
"""

import argparse
from importlib import metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-serial", "sweep-pooled", "cli-cold")
SETUP_PROBES = 4
#: A run must end within 180 s; the loop gets what is left of this.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_wall_s", "sim_s/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("table2_err_pct", "%"),
)


def child_env(tmp: Path) -> dict:
    """The environment of every process a run starts.

    Backend overrides and the old benchmarks' knobs are removed so
    nothing silently selects another kernel.  Host calibration and temp
    files are pinned inside the run's temp directory; git discovery
    stops at the checkout's root, so a fleet record's SHA is the
    checkout's (or none).
    """
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_FORCE_BACKEND" and not k.startswith("REPRO_BENCH_")
           and not k.startswith("PERFBENCH_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_HOST_CALIBRATION"] = str(tmp / "host.json")
    env["TMPDIR"] = str(tmp)
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


#: Processes younger than this are not counted: a child between fork
#: (or vfork) and exec still reports its parent's memory as its own.
MIN_AGE_S = 0.1
CLK_TCK = os.sysconf("SC_CLK_TCK")


def tree_hwm_kb(root_pid: int) -> int:
    """Sum of VmHWM (peak RSS) over ``root_pid`` and its live descendants."""
    total, todo = 0, [root_pid]
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    while todo:
        pid = todo.pop()
        try:
            status = Path(f"/proc/{pid}/status").read_text()
            children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        todo.extend(int(c) for c in children.split())
        started = int(stat.rsplit(")", 1)[1].split()[19]) / CLK_TCK
        if pid != root_pid and uptime - started < MIN_AGE_S:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


class RssSampler(threading.Thread):
    """Samples the loop tree's summed peak RSS every 50 ms until the
    loop marks its measured window done."""

    def __init__(self, pid: int, done: Path):
        super().__init__(daemon=True)
        self.pid, self.done = pid, done
        self.peak_kb = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set() and not self.done.exists():
            self.peak_kb = max(self.peak_kb, tree_hwm_kb(self.pid))
            self._halt.wait(0.05)

    def stop(self) -> None:
        self._halt.set()
        self.join()


def run_loop(args, tmp, env, extra, timeout):
    """Run ``loop.py``; returns its JSON report and the sampled peak."""
    out = tmp / f"loop-{len(list(tmp.glob('loop-*.json')))}.json"
    cmd = [sys.executable, str(HERE / "loop.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp), "--out", str(out)] + extra
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], env=env,
                            cwd=tmp, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    sampler = RssSampler(proc.pid, tmp / "measure_done")
    sampler.start()
    try:
        _, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        kill_tree(proc.pid)
        proc.kill()
        proc.communicate()
        raise RuntimeError("the loop ran out of time")
    finally:
        sampler.stop()
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"the loop failed ({proc.returncode}): "
                           f"{err.strip()[-2000:]}")
    return json.loads(out.read_text()), sampler.peak_kb


def kill_tree(pid: int) -> None:
    try:
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        children = []
    for child in children:
        kill_tree(int(child))
    try:
        os.kill(pid, 9)
    except OSError:
        pass


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    tmp = work / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        return measure(args, work, tmp, started)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, work: Path, tmp: Path, started: float) -> int:
    env = child_env(tmp)

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = []
    if args.trace == 0 and args.workload != "cli-cold":
        for _ in range(SETUP_PROBES):
            probe, _ = run_loop(args, tmp, env, ["--setup-only"], left())
            setups.append(probe["setup_s"])
    extra = []
    if args.trace:
        extra = ["--trace-out",
                 str(work / f"trace-{args.workload}-{args.seed}.json")]
    report, peak_kb = run_loop(args, tmp, env, extra, left())
    stamp = environment()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"inputs sha256 {report['input_hash']}  "
          f"digests {'committed' if report['digests_committed'] else 'recomputed'}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in stamp.items()))
    print("input shares " + "  ".join(
        f"{k} {v:.4g}" for k, v in report["shares"].items()))
    metrics = {}
    if args.trace == 0:
        if args.workload == "cli-cold":
            setup_s = report["setup_s"]
            wall_s = report["pass_wall_s"]
            setup_note = (f"median interpreter start + import over "
                          f"{report['setup_samples']} invocations")
        else:
            setups.append(report["setup_s"])
            setup_s = statistics.median(setups)
            wall_s = setup_s + report["pass_wall_s"]
            setup_note = f"median of {len(setups)} set-ups"
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "sim_s_per_wall_s": report["sim_s_per_wall_s"],
            "op_ms_p50": report["op_ms_p50"],
            "op_ms_tail": report["op_ms_tail"],
            "cpu_s": report["cpu_s"],
            "peak_rss_mb": peak_kb / 1024.0,
            "table2_err_pct": report["table2_err_pct"],
        }
        notes = {
            "setup_s": setup_note,
            "wall_s": (("whole pass" if args.workload == "cli-cold"
                        else "set-up + whole pass")
                       + f" ({report['rounds']} rounds, "
                       "each " + " ".join(f"{w:.3g}" for w in report["round_walls"])
                       + " s)"),
            "op_ms_tail": (f"p{report['tail_percentile']} of "
                           f"{report['ops']} ops"),
            "cpu_s": ("process tree, whole pass" if args.workload == "cli-cold"
                      else "process tree, set-up + whole pass"),
            "table2_err_pct": ("fit error: the power model was fitted to "
                               "these rows; otherwise unvalidated; from "
                               + report["table2_source"]),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:18s} {values[name]:14.6g} {unit:8s} "
                  f"{notes.get(name, '')}")
        attempted, failed = report["attempted"], report["failed"]
        print(f"  {'failed_ratio':18s} {failed / attempted:14.6g} ratio")
    else:
        for name, value in sorted(report["per_layer"].items()):
            unit = layer_unit(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:36s} {value:14.6g} {unit}")
        for note in report["notes"]:
            print(f"  note: {note}")
        print(f"  trace: {report['trace_file']}")
    for problem in report["problems"] + report["errors"]:
        print(f"  check: {problem}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_s",)):
        return "s"
    if name.endswith("us_per_quantum"):
        return "us"
    if name.startswith(("core.ns_per", "measure.daq.ns_per")):
        return "ns"
    if name.endswith(("_ratio", "_util")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
