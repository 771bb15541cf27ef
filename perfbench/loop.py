"""The closed loop: one process runs one workload and checks it.

Started by ``run.py`` (never by hand), which passes ``--t-spawn``, its
``perf_counter`` reading just before starting this process, so the
loop's set-up time includes interpreter start.  A run is a sequence
of identical *rounds* (see :mod:`gen`); each op is issued only after the
previous one returned.  How many rounds a pass runs depends only on
the workload and ``--seconds`` (see :func:`rounds_for`), never on how
fast the program is, so every commit is measured over the same ops.
The loop writes a JSON report to ``--out``.

``--trace 1`` runs the same rounds untraced, traced, traced and
untraced again (the traced-to-untraced wall ratio is the tracing
overhead), then a cProfile sample that splits ``kernel.run`` by
package.
"""

import argparse
import bisect
import cProfile
import hashlib
import json
import os
import pstats
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import spans
from repro.hw.machines import MachineSpec
from repro.measure import parallel
from repro.obs import fleet, profile, runlog, telemetry, trace

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("grid-serial", "sweep-pooled", "cli-cold")
#: Wall of one round at the seed state on a 2-vCPU x86-64 host (s).
#: A measured pass runs ``--seconds`` worth of these rounds.
NOMINAL_ROUND_S = {"grid-serial": 8.0, "sweep-pooled": 1.25, "cli-cold": 12.0}
#: Fewest rounds a measured pass runs.  cli-cold needs three so that
#: its tail (p58 of 24 ops) lies above its median.
MIN_ROUNDS = {"grid-serial": 2, "sweep-pooled": 2, "cli-cold": 3}
#: Cells recomputed serially for a seed without committed digests.
RECOMPUTE_SAMPLE = 8
#: CLI ops recomputed in-process for a seed without committed digests.
RECOMPUTE_CLI_SAMPLE = 2
#: Simulated seconds of cells the traced run profiles by package.
PROFILE_SIM_S = 600.0


# -- cells ---------------------------------------------------------------------


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds of a measured pass: fixed by the workload and the time
    asked for, so the op count (and the tail percentile) is too."""
    return max(MIN_ROUNDS[workload],
               round(seconds / NOMINAL_ROUND_S[workload]))


def clock_tables() -> dict:
    return {
        m: [s.mhz for s in MachineSpec.parse(m).clock_table()]
        for m in gen.MACHINES
    }


def to_cell(desc: dict):
    """The sweep cell a descriptor names."""
    config_type = parallel.WORKLOAD_BUILDERS[desc["app"]][1]
    if desc["fuzz"] is not None:
        config = config_type(**desc["fuzz"])
    elif desc["dur"] is not None:
        config = config_type(duration_s=desc["dur"])
    else:
        config = None
    return parallel.SweepCell(
        workload=parallel.WorkloadSpec(desc["app"], config),
        policy=parallel.PolicySpec(desc["policy"]),
        machine=MachineSpec.parse(desc["machine"]),
        seed=desc["seed"],
        use_daq=desc["daq"],
        recording=desc["rec"],
    )


def validate(desc: dict):
    """Resolve a descriptor on its machine before any timing starts.

    Builds the workload config and one governor, so a policy the
    machine cannot run (``const-132.7`` on ``sa2``) fails here.
    """
    cell = to_cell(desc)
    cell.workload.effective_config()
    cell.policy.build_factory(cell.machine.clock_table())()
    return cell


def digest(result) -> str:
    """SHA-256 of a ``CellResult.to_json()``."""
    blob = json.dumps(result.to_json(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {"cells": {}, "cli": {}, "inputs": {}}


def table2_err_pct(energies: dict) -> float:
    """Mean |simulated row mean - paper CI midpoint| / midpoint, in %.

    ``energies`` maps a Table 2 policy to its runs' energies (J).
    """
    errs = []
    for policy, low, high in gen.TABLE2_ROWS:
        mid = (low + high) / 2
        mean = statistics.fmean(energies[policy])
        errs.append(abs(mean - mid) / mid * 100.0)
    return statistics.fmean(errs)


def cpu_now() -> float:
    """User + system CPU of this process and its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- workloads -----------------------------------------------------------------


class Op:
    """One op's record: where it ran, how long, what it returned."""

    __slots__ = ("index", "t0", "t1", "sim_s", "answers", "cli", "error")

    def __init__(self, index):
        self.index = index
        self.t0 = self.t1 = self.sim_s = 0.0
        self.answers = []  # (descriptor key, CellResult)
        self.cli = None    # (template, stdout, returncode, stamps, t_spawn)
        self.error = None

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


class Workload:
    """A workload's generated round and how to issue its ops.

    ``batches`` lists each op's cell descriptors.  A pass calls
    :meth:`begin`, then per round :meth:`begin_round`, :meth:`run_op`
    for every op, :meth:`end_round` (timed with the round) and
    :meth:`after_round` (untimed housekeeping), and finally :meth:`end`.
    """

    name = ""
    round = batches = None

    def ops(self):
        return len(self.batches)

    def begin(self, pass_dir, tracer):
        pass

    def begin_round(self, k):
        pass

    def run_op(self, op):
        raise NotImplementedError

    def end_round(self, k):
        pass

    def after_round(self, k):
        pass

    def end(self):
        pass


class GridSerial(Workload):
    """Long cells, one per op, through the default serial path."""

    name = "grid-serial"

    def __init__(self, seed, tables):
        self.round = gen.grid_round(seed, tables)
        self.cells = [validate(d) for d in self.round]
        self.keys = [gen.key(d) for d in self.round]
        self.batches = [[d] for d in self.round]

    def run_op(self, op):
        i = op.index
        op.answers = [(self.keys[i], self.cells[i].run())]
        op.sim_s = gen.sim_seconds(self.round[i])


class SweepPooled(Workload):
    """Short-cell batches through one warm two-worker engine with the
    cache, run-log, sweep telemetry and phase profile attached."""

    name = "sweep-pooled"
    JOBS = 2

    def __init__(self, seed, tables):
        self.round = gen.sweep_round(seed, tables)
        self.batches = gen.sweep_batches(self.round)
        for batch in self.batches:
            for d in batch:
                validate(d)
        self.cells = [[to_cell(d) for d in b] for b in self.batches]
        self.keys = [[gen.key(d) for d in b] for b in self.batches]
        self.expected_hits = self._expected_hits()
        self.hits = []  # cache hits per op, over every pass
        self.engine = None

    def _expected_hits(self):
        """Unique cells per batch an earlier batch of the round answered."""
        seen, hits = set(), []
        for keys in ([gen.key(d) for d in b] for b in self.batches):
            unique = set(keys)
            hits.append(len(unique & seen))
            seen |= unique
        return hits

    def begin(self, pass_dir, tracer):
        self.dir = Path(pass_dir)
        if tracer is not None:
            self.cache_cls, log_cls = spans.timed_classes(tracer)
        else:
            self.cache_cls, log_cls = parallel.ResultCache, runlog.RunLogWriter
        self.engine = parallel.SweepEngine(
            jobs=self.JOBS,
            run_log=log_cls(self.dir / "runlog.jsonl"),
        )

    def begin_round(self, k):
        self.round_dir = self.dir / f"r{k}"
        self.engine.cache = self.cache_cls(self.round_dir / "cache")
        self.engine.telemetry = telemetry.SweepTelemetry()
        self.engine.profile = profile.PhaseProfile()

    def run_op(self, op):
        i = op.index
        before = self.engine.stats.cache_hits
        results = self.engine.run(self.cells[i])
        self.hits.append(self.engine.stats.cache_hits - before)
        op.answers = list(zip(self.keys[i], results))
        op.sim_s = sum(gen.sim_seconds(d) for d in self.batches[i])

    def end_round(self, k):
        """What the CLI does after a sweep: export the sweep trace and
        append a fleet record."""
        payload = self.engine.telemetry.chrome_trace()
        path = self.round_dir / "sweep-trace.json"
        trace.write_chrome_trace(payload, path)
        record = self.engine.fleet_record(command="perfbench sweep-pooled")
        with fleet.FleetLedger(self.dir / "fleet.jsonl") as ledger:
            ledger.append(record)

    def after_round(self, k):
        shutil.rmtree(self.round_dir / "cache", ignore_errors=True)

    def end(self):
        self.engine.close()
        self.engine.run_log.close()
        self.engine = None


class CliCold(Workload):
    """Fresh ``repro`` processes, one per op, from a fixed command mix."""

    name = "cli-cold"

    def __init__(self, seed, tables):
        self.round = gen.cli_round(seed, tables)
        for op in self.round:
            for d in op["cells"]:
                validate(d)
        self.batches = [op["cells"] for op in self.round]

    def begin(self, pass_dir, tracer):
        self.dir = Path(pass_dir)
        self.env = dict(os.environ)
        if tracer is not None:
            self.env["PERFBENCH_TRACE_DIR"] = str(tracer.out_dir)

    def begin_round(self, k):
        self.round_dir = self.dir / f"r{k}"

    def argv(self, template, op_dir):
        return [a.replace("{op}", str(op_dir)).replace("{run}", str(self.dir))
                for a in template]

    def run_op(self, op):
        spec = self.round[op.index]
        op_dir = self.round_dir / f"op{op.index}"
        op_dir.mkdir(parents=True)
        stamps = op_dir / "stamps.json"
        cmd = [sys.executable, str(HERE / "climain.py"), str(stamps)]
        cmd += self.argv(spec["args"], op_dir)
        t_spawn = perf_counter()
        proc = subprocess.run(cmd, cwd=op_dir, env=self.env, timeout=150,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stamp = json.loads(stamps.read_text()) if stamps.exists() else None
        op.cli = (" ".join(spec["args"]), proc.stdout, proc.returncode,
                  stamp, t_spawn)
        op.sim_s = sum(gen.sim_seconds(d) for d in spec["cells"])
        if stamp is None:
            raise RuntimeError(
                f"{spec['kind']} left no stamps: {proc.stderr[-300:]!r}")


WORKLOAD_CLASSES = {c.name: c for c in (GridSerial, SweepPooled, CliCold)}


# -- passes --------------------------------------------------------------------


class Pass:
    """What one pass over whole rounds measured."""

    def __init__(self):
        self.ops, self.walls = [], []
        self.t_first = self.cpu_first = self.cpu_end = 0.0


def run_pass(wl, pass_dir, n_rounds, tracer=None):
    """Run ``n_rounds`` whole rounds.

    The CPU reading at the end is taken after :meth:`Workload.end`, so
    pool workers have been reaped and are counted.
    """
    run = Pass()
    wl.begin(pass_dir, tracer)
    run.cpu_first = cpu_now()
    run.t_first = perf_counter()
    for k in range(n_rounds):
        t_round = perf_counter()
        wl.begin_round(k)
        for i in range(wl.ops()):
            op = Op(i)
            op.t0 = perf_counter()
            try:
                wl.run_op(op)
            except Exception as exc:  # an op that raises is a failed op
                op.error = f"{type(exc).__name__}: {exc}"
            op.t1 = perf_counter()
            if tracer is not None:
                tracer.add("op", op.t0, op.t1,
                           {"round": k, "index": i, "workload": wl.name})
            run.ops.append(op)
        wl.end_round(k)
        run.walls.append(perf_counter() - t_round)
        wl.after_round(k)
    wl.end()
    run.cpu_end = cpu_now()
    return run


# -- checks --------------------------------------------------------------------


def check_cells(ops, seed, committed, digests, problems):
    """Mark ops whose cell answers disagree with the committed digests,
    with each other, or (for an uncommitted seed) with a serial
    in-process recomputation of a seeded sample."""
    seen = {}
    for op in ops:
        for k, result in op.answers:
            d = digest(result)
            seen.setdefault(k, set()).add(d)
    bad_keys = {k for k, ds in seen.items() if len(ds) > 1}
    if bad_keys:
        problems.append(f"{len(bad_keys)} cells answered differently "
                        "across ops")
    if committed:
        table = digests["cells"]
        wrong = {k for k, ds in seen.items()
                 if table.get(k) is None or ds != {table[k]}}
        if wrong:
            problems.append(f"{len(wrong)} cells differ from digests.json")
        bad_keys |= wrong
    else:
        rng = random.Random(f"perfbench:recompute:{seed}")
        sample = rng.sample(sorted(seen), min(RECOMPUTE_SAMPLE, len(seen)))
        for k in sample:
            fresh = digest(to_cell(json.loads(k)).run())
            if seen[k] != {fresh}:
                problems.append(f"recomputed cell differs: {k}")
                bad_keys.add(k)
    for op in ops:
        if any(k in bad_keys for k, _ in op.answers) and op.error is None:
            op.error = "output check failed"


def cli_expected(template: str):
    """Run one CLI op in-process, serially, and capture its output.

    Pool, cache and observer flags are dropped (their outputs are
    bitwise identical to the serial path's by the program's contract)
    and stdout is captured.
    """
    import contextlib
    import io

    import repro.cli

    args, skip = [], False
    for a in template.split(" "):
        if skip:
            skip = False
            continue
        if a in ("--cache", "--run-log", "--sweep-trace", "--fleet", "--jobs"):
            skip = True
            continue
        args.append(a)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(args)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def cli_allowed_codes(template: str):
    """``run`` and ``diagnose`` exit 1 on deadline misses."""
    return {0, 1} if template.split(" ")[0] in ("run", "diagnose") else {0}


def check_cli(ops, seed, committed, digests, problems):
    answers = {}
    for op in ops:
        if op.cli is None:
            continue
        template, stdout, code, _, _ = op.cli
        answers.setdefault(template, set()).add(
            (hashlib.sha256(stdout).hexdigest(), code))
    bad = {t for t, a in answers.items() if len(a) > 1}
    bad |= {t for t, a in answers.items()
            if any(code not in cli_allowed_codes(t) for _, code in a)}
    if committed:
        table = digests["cli"]
        bad |= {t for t, a in answers.items()
                if t not in table
                or a != {(table[t]["stdout_sha256"], table[t]["exit"])}}
    else:
        rng = random.Random(f"perfbench:recompute:{seed}")
        for t in rng.sample(sorted(answers),
                            min(RECOMPUTE_CLI_SAMPLE, len(answers))):
            if answers[t] != {cli_expected(t)}:
                bad.add(t)
    if bad:
        problems.append(f"{len(bad)} CLI ops failed the output check")
    for op in ops:
        if op.cli is not None and op.cli[0] in bad and op.error is None:
            op.error = "output check failed"


# -- metrics -------------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest whole percentile that leaves at
    least ten samples above it (nearest rank); the median below 11."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return 50, statistics.median(xs)
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return p, xs[rank - 1]


def end_to_end(wl, run, t_spawn):
    """The end-to-end figures of one measured pass (see ``run.py``).

    Wall and CPU cover the whole pass, round 0 too, so one-off costs
    such as the pool's spin-up on the first pooled batch are counted.
    """
    ms = [op.ms for op in run.ops]
    p, tail_ms = tail(ms)
    pass_wall = sum(run.walls)
    report = {
        "rounds": len(run.walls),
        "round_walls": run.walls,
        "pass_wall_s": pass_wall,
        "sim_s_per_wall_s": sum(op.sim_s for op in run.ops) / pass_wall,
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "tail_percentile": p,
        "ops": len(ms),
    }
    if wl.name == "cli-cold":
        setups = [op.cli[3]["imported"] - op.cli[4]
                  for op in run.ops if op.cli and op.cli[3]]
        report["setup_s"] = statistics.median(setups)
        report["setup_samples"] = len(setups)
        report["cpu_s"] = run.cpu_end - run.cpu_first
    else:
        report["setup_s"] = run.t_first - t_spawn
        report["setup_samples"] = 1
        report["cpu_s"] = run.cpu_end
    return report


def table2_from_answers(ops):
    energies = {}
    for op in ops:
        for k, result in op.answers:
            d = json.loads(k)
            if d in TABLE2_DESCS:
                energies.setdefault(d["policy"], {})[d["seed"]] = result.energy_j
    return {p: list(v.values()) for p, v in energies.items()}


TABLE2_DESCS = gen.table2_cells()
_TABLE2_LINE = re.compile(r"^(.*?)\s+([\d.]+) - +([\d.]+)\s+\d+$")


def table2_from_cli(ops):
    """Row means from ``repro table2``'s printed CIs (symmetric about
    the mean, two decimals)."""
    for op in ops:
        if op.cli and op.cli[0].startswith("table2 "):
            rows = [_TABLE2_LINE.match(line)
                    for line in op.cli[1].decode().splitlines()[1:]]
            mids = [(float(m.group(2)) + float(m.group(3))) / 2
                    for m in rows if m]
            return {p: [mid] for (p, _, _), mid in zip(gen.TABLE2_ROWS, mids)}
    return None


def table2_serial():
    energies = {}
    answers = []
    for d in TABLE2_DESCS:
        result = to_cell(d).run()
        answers.append((gen.key(d), result))
        energies.setdefault(d["policy"], []).append(result.energy_j)
    return energies, answers


# -- traced run ----------------------------------------------------------------


def import_probes(k_plain=3, k_importtime=2):
    """Import wall of ``repro.cli`` in fresh interpreters, and the
    cumulative scipy / repro.obs shares from ``-X importtime``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    plain = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  capture_output=True, text=True,
                                  timeout=60).stdout)
             for _ in range(k_plain)]
    scipy_s, obs_s = [], []
    for _ in range(k_importtime):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            check=True, capture_output=True, text=True, timeout=60).stderr
        scipy_s.append(outermost_cumulative(err, "scipy"))
        obs_s.append(outermost_cumulative(err, "repro.obs"))
    return {
        "cli.import_s": statistics.median(plain),
        "cli.import_scipy_s": statistics.median(scipy_s),
        "cli.import_obs_s": statistics.median(obs_s),
    }


def outermost_cumulative(importtime: str, package: str) -> float:
    """Seconds of cumulative import time of ``package``'s outermost
    entries (those no other entry of the package encloses)."""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), cumulative))
    total, stack = 0, []
    # -X importtime prints children before parents; reversed, each
    # entry follows its parent, so a stack of open ancestors works.
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(inside for _, inside in stack):
            total += cumulative
        stack.append((depth, mine))
    return total / 1e6


def union_s(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def with_self_times(all_spans):
    """Each span's self time: its duration minus its children's."""
    by_pid = {}
    for i, s in enumerate(all_spans):
        by_pid.setdefault(s[3], []).append(i)
    self_s = [s[2] - s[1] for s in all_spans]
    for idx in by_pid.values():
        idx.sort(key=lambda i: (all_spans[i][1], -all_spans[i][2]))
        stack = []
        for i in idx:
            t0, t1 = all_spans[i][1], all_spans[i][2]
            while stack and all_spans[stack[-1]][2] <= t0:
                stack.pop()
            if stack:
                self_s[stack[-1]] -= t1 - t0
            stack.append(i)
    return self_s


def sweep_trace_metrics(paths):
    """Chunk submission, worker busy time and result-return latency
    from the program's own ``--sweep-trace`` exports.

    Result return is, per pooled batch, the gap between the last worker
    cell span's end and the start of the engine's "merge results" span.
    """
    submit = busy = ipc = 0.0
    for path in paths:
        events = [e for e in json.loads(Path(path).read_text())["traceEvents"]
                  if e["ph"] == "X"]
        cells = [e for e in events if e.get("tid") and "mode" in e["args"]]
        busy += sum(e["dur"] for e in cells)
        engine = sorted((e for e in events if e.get("tid") == 0 and e["name"]
                         in ("submit chunks", "merge results")),
                        key=lambda e: e["ts"])
        for a, b in zip(engine, engine[1:]):
            if a["name"] != "submit chunks" or b["name"] != "merge results":
                continue
            submit += a["dur"]
            ends = [c["ts"] + c["dur"] for c in cells
                    if a["ts"] <= c["ts"] <= b["ts"]]
            if ends:
                ipc += max(0.0, b["ts"] - max(ends))
    return submit / 1e6, busy / 1e6, ipc / 1e6


def profile_sample(wl, seed):
    """cProfile of ``kernel.run`` over a seeded sample of the workload's
    cells, folded by package into shares of ``kernel.run`` self time."""
    from repro.kernel import fastpath

    unique = {gen.key(d): d for b in wl.batches for d in b}
    rng = random.Random(f"perfbench:profile:{seed}")
    keys = sorted(unique)
    rng.shuffle(keys)
    picked, sim = [], 0.0
    for k in keys:
        if sim >= PROFILE_SIM_S:
            break
        picked.append(k)
        sim += gen.sim_seconds(unique[k])
    prof = cProfile.Profile()
    original = fastpath.FastKernel.run

    def profiled(kernel, duration_us):
        prof.enable()
        try:
            return original(kernel, duration_us)
        finally:
            prof.disable()

    fastpath.FastKernel.run = profiled
    try:
        for k in picked:
            to_cell(unique[k]).run()
    finally:
        fastpath.FastKernel.run = original
    folded = spans.fold_profile(pstats.Stats(prof))
    total = sum(folded.values()) or 1.0
    return {p: v / total for p, v in folded.items()}, len(picked)


def per_layer(wl, seed, ops, rounds, all_spans, trace_paths, untraced_s,
              traced_s, jobs, probes):
    """Every per-layer metric, per round of the traced pass."""
    n = rounds
    names = {}
    for s in all_spans:
        names.setdefault(s[0], []).append(s)

    def total(*span_names):
        return sum(s[2] - s[1] for name in span_names
                   for s in names.get(name, ()))

    def count_arg(name, arg):
        return sum((s[5] or {}).get(arg, 0) for s in names.get(name, ()))

    runs = [s for s in names.get("measure.parallel.run", ())
            if (s[5] or {}).get("top")]
    run_s = sum(s[2] - s[1] for s in runs)
    pooled_run_s = sum(s[2] - s[1] for s in runs if s[5]["jobs"] > 1)
    done = [s for s in runs if not s[5].get("error")]
    executed = sum(s[5]["executed"] for s in done)
    cached = sum(s[5]["cached"] for s in done)
    cells = sum(s[5]["cells"] for s in done)
    errors = len(runs) - len(done)
    gets = names.get("measure.parallel.cache_get", ())
    hits = sum(1 for s in gets if (s[5] or {}).get("hit"))
    submit_s, busy_s, ipc_s = sweep_trace_metrics(trace_paths)

    # Warm-up: the first op that ran a pooled batch minus the median op
    # of the same position in the round (the same inputs).
    warm = 0.0
    pooled = [s for s in runs if s[5]["jobs"] > 1]
    if pooled:
        first = min(pooled, key=lambda s: s[1])
        op0 = next(op for op in ops if op.t0 <= first[1] <= op.t1)
        same = [op.ms for op in ops if op.index == op0.index]
        warm = (op0.ms - statistics.median(same)) / 1e3

    kernel_run_s = total("kernel.run") / n
    quanta = count_arg("kernel.run", "quanta")
    ticks = count_arg("kernel.run", "ticks")
    samples = count_arg("measure.daq.capture", "samples")
    shares, sampled = profile_sample(wl, seed)

    op_spans = sorted(names.get("op", ()), key=lambda s: s[1])
    starts = [s[1] for s in op_spans]
    inside = [[] for _ in op_spans]
    for s in all_spans:
        if s[0] == "op":
            continue
        j = max(0, bisect.bisect_right(starts, s[1]) - 1)
        while j < len(op_spans) and op_spans[j][1] < s[2]:
            lo, hi = max(s[1], op_spans[j][1]), min(s[2], op_spans[j][2])
            if hi > lo:
                inside[j].append((lo, hi))
            j += 1
    covered = sum(union_s(parts) for parts in inside)
    op_wall = sum(s[2] - s[1] for s in op_spans)

    cli_command = 0.0
    for op in ops:
        if op.cli and op.cli[3]:
            cli_command += op.t1 - op.cli[3]["imported"]

    def per_round(x):
        return x / n

    metrics = dict(probes)
    metrics.update({
        "cli.command_s": per_round(cli_command),
        "measure.parallel.run_s": per_round(run_s),
        "measure.parallel.warmup_s": warm,
        "measure.parallel.submit_s": per_round(submit_s),
        "measure.parallel.ipc_s": per_round(ipc_s),
        "measure.parallel.worker_busy_s": per_round(busy_s),
        "measure.parallel.worker_util": (
            busy_s / (jobs * pooled_run_s) if pooled_run_s else 0.0),
        "measure.parallel.cells_executed": per_round(executed),
        "measure.parallel.cells_cached": per_round(cached),
        "measure.parallel.cells_deduped": per_round(cells - executed - cached),
        "measure.parallel.cell_errors": per_round(errors),
        "measure.parallel.cache_gets": per_round(len(gets)),
        "measure.parallel.cache_puts": per_round(
            len(names.get("measure.parallel.cache_put", ()))),
        "measure.parallel.cache_get_s": per_round(
            total("measure.parallel.cache_get")),
        "measure.parallel.cache_put_s": per_round(
            total("measure.parallel.cache_put")),
        "measure.parallel.cache_hit_ratio": hits / len(gets) if gets else 0.0,
        "obs.runlog.write_s": per_round(total("obs.runlog.write")),
        "obs.runlog.records": per_round(len(names.get("obs.runlog.write", ()))),
        "obs.telemetry.export_s": per_round(total("obs.telemetry.export")),
        "obs.fleet.record_s": per_round(total("obs.fleet.record")),
        "measure.runner.run_workload_s": per_round(
            total("measure.runner.run_workload")),
        "workloads.setup_s": per_round(
            total("workloads.build", "workloads.setup")),
        "kernel.build_s": per_round(total("kernel.build")),
        "kernel.run_s": kernel_run_s,
        "kernel.misses_s": per_round(total("kernel.misses")),
        "measure.daq.capture_s": per_round(total("measure.daq.capture")),
        "measure.runner.materialize_s": per_round(
            total("measure.runner.materialize")),
        "kernel.quanta": per_round(quanta),
        "kernel.us_per_quantum": (
            total("kernel.run") / quanta * 1e6 if quanta else 0.0),
        "kernel.dvfs.transitions": per_round(
            count_arg("kernel.run", "transitions")),
        "core.ticks": per_round(ticks),
        "measure.daq.samples": per_round(samples),
        "measure.daq.ns_per_sample": (
            total("measure.daq.capture") / samples * 1e9 if samples else 0.0),
        "bench.trace_overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "bench.layer_coverage_pct": (
            covered / op_wall * 100.0 if op_wall else 0.0),
    })
    for package in spans.FOLD_PACKAGES:
        metrics[f"{package}.self_s"] = shares.get(package, 0.0) * kernel_run_s
    metrics["core.ns_per_tick"] = (
        metrics["core.self_s"] * n / ticks * 1e9 if ticks else 0.0)
    notes = [
        f"per-layer sums are per round of the traced passes ({n} rounds)",
        f"*.self_s split kernel.run_s by a cProfile of {sampled} sampled "
        f"cells folded by package (other repro code: "
        f"{shares.get('other', 0.0):.1%})",
    ]
    return metrics, notes


def chrome_trace(all_spans, path):
    """Write the traced pass's spans as Chrome trace-event JSON."""
    base = min(s[1] for s in all_spans)
    self_s = with_self_times(all_spans)
    events = [{"name": "process_name", "ph": "M", "pid": pid,
               "args": {"name": f"pid {pid}"}}
              for pid in sorted({s[3] for s in all_spans})]
    for s, own in zip(all_spans, self_s):
        events.append({
            "name": s[0], "ph": "X", "pid": s[3], "tid": s[4],
            "ts": (s[1] - base) * 1e6, "dur": (s[2] - s[1]) * 1e6,
            "args": dict(s[5] or {}, self_us=own * 1e6),
        })
    trace.write_chrome_trace(
        {"traceEvents": events, "displayTimeUnit": "ms"}, path)


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)

    tables = clock_tables()
    wl = WORKLOAD_CLASSES[args.workload](args.seed, tables)
    if args.setup_only:
        # Set-up ends where the first op would begin: after begin().
        wl.begin(tmp / "setup", None)
        setup_s = perf_counter() - args.t_spawn
        wl.end()
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    problems = []
    digests = load_digests()
    ihash = gen.input_hash(wl.round)
    committed_hash = digests["inputs"].get(args.workload, {}).get(str(args.seed))
    committed = committed_hash is not None
    if committed and committed_hash != ihash:
        problems.append("generated inputs differ from the committed ones")
    if args.workload == "sweep-pooled":
        shares2 = gen.pass2_shares(wl.round)
        if not (0.4 <= shares2["cached"] <= 0.6 and shares2["duplicate"] > 0):
            problems.append(f"pass 2 shares off: {shares2}")

    report = {"workload": args.workload, "seed": args.seed,
              "input_hash": ihash, "digests_committed": committed}
    rounds = rounds_for(args.workload, args.seconds)
    if args.trace == 0:
        run = run_pass(wl, tmp / "p0", rounds)
        (tmp / "measure_done").touch()
        report.update(end_to_end(wl, run, args.t_spawn))
        all_ops = run.ops
    else:
        # Untraced, traced, traced, untraced: the same rounds in an ABBA
        # order, so a host that drifts steadily during the run biases
        # neither side of the tracing-overhead ratio.
        probes = import_probes()
        n = max(1, rounds // 4)
        a1 = run_pass(wl, tmp / "a1", n)
        tracer = spans.Tracer(tmp / "spans")
        uninstall = spans.install(tracer)
        try:
            b1 = run_pass(wl, tmp / "b1", n, tracer=tracer)
            b2 = run_pass(wl, tmp / "b2", n, tracer=tracer)
        finally:
            uninstall()
        a2 = run_pass(wl, tmp / "a2", n)
        all_spans = spans.load(tmp / "spans", tracer.spans)
        trace_paths = sorted(tmp.glob("b*/r*/**/sweep-trace.json"))
        metrics, notes = per_layer(
            wl, args.seed, b1.ops + b2.ops, 2 * n, all_spans, trace_paths,
            sum(a1.walls + a2.walls), sum(b1.walls + b2.walls),
            getattr(wl, "JOBS", 2), probes)
        report["per_layer"] = metrics
        report["notes"] = notes
        if args.trace_out:
            chrome_trace(all_spans, args.trace_out)
            report["trace_file"] = args.trace_out
        all_ops = a1.ops + b1.ops + b2.ops + a2.ops

    # Output checks (outside every timed region).
    if args.workload == "cli-cold":
        check_cli(all_ops, args.seed, committed, digests, problems)
        energies = table2_from_cli(all_ops)
        report["table2_source"] = "the table2 command's printed CIs"
    else:
        extra = []
        if args.workload == "grid-serial":
            energies = table2_from_answers(all_ops)
            report["table2_source"] = "the grid's Table 2 cells"
        else:
            energies, extra = table2_serial()
            report["table2_source"] = ("Table 2's 15 cells run serially "
                                       "after the measured window")
        check_cells(all_ops, args.seed, committed, digests, problems)
        if extra:
            table = digests["cells"]
            if any(table.get(k) != digest(r) for k, r in extra):
                problems.append("Table 2 cells differ from digests.json")
    if energies is None or len(energies) != len(gen.TABLE2_ROWS):
        problems.append("no Table 2 rows to score")
        report["table2_err_pct"] = float("nan")
    else:
        report["table2_err_pct"] = table2_err_pct(energies)

    cached_sim = 0.0
    if args.workload == "sweep-pooled":
        n = wl.ops()
        for start in range(0, len(wl.hits), n):
            if wl.hits[start:start + n] != wl.expected_hits:
                problems.append(f"cache hits {wl.hits[start:start + n]} != "
                                f"planned {wl.expected_hits}")
                break
        seen = set()
        for batch in wl.batches:
            keys = [gen.key(d) for d in batch]
            cached_sim += sum(gen.sim_seconds(d) for d, k in zip(batch, keys)
                              if k in seen)
            seen |= set(keys)
    report["shares"] = gen.input_shares(wl.batches, cached_sim)

    failed = sum(1 for op in all_ops if op.error is not None)
    errors = sorted({op.error for op in all_ops if op.error})[:5]
    report.update({
        "attempted": len(all_ops),
        "failed": failed,
        "errors": errors,
        "problems": problems,
        "correct": failed == 0 and not problems,
    })
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
