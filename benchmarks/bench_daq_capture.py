"""Memory and time of one DAQ capture: blocked stream vs whole window.

The virtual DAQ (:mod:`repro.measure.daq`) samples a run's exact power
signal at 5 kHz.  It streams the window in blocks of
``BLOCK_SAMPLES`` samples, so the only window-sized array a capture
allocates is its ``power_w`` output.  This benchmark captures the
paper's longest trace -- one recorded 218 s Chess timeline, 1.09 M
samples -- and checks the promises the blocked capture makes:

- its samples, timestamps, energy and mean power are bitwise equal to
  the whole-window capture it replaced (the test-side oracle in
  ``tests/measure/test_daq.py``), and
- its peak traced memory is at most ``power_w.nbytes`` plus a fixed
  per-block allowance, whatever the window length.

Timings are best-of-N over interleaved runs (see ``stable_best``).  Peak
memory is read with :mod:`tracemalloc`, which numpy reports its buffers
to.  As in the runner, the exact energy is computed first, so the
timeline's cached segment view exists before the capture is traced.

Besides the text report this writes ``BENCH_daq_capture.json`` at the
repo root.  ``REPRO_BENCH_QUICK=1`` records a 30 s Chess timeline
instead; the bars still hold, but the committed JSON record is left
alone (only full-length runs may re-emit it).
"""

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.catalog import resolve_policy
from repro.measure.daq import BLOCK_SAMPLES, DaqConfig, DaqSystem
from repro.measure.runner import run_workload
from repro.workloads.chess import ChessConfig, chess_workload
from tests.measure.test_daq import reference_capture, same_bits

from _util import Report, bench_machine, once, stable_best

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_daq_capture.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
DURATION_S = 30.0 if QUICK else 218.0
ROUNDS = 5
SEED = 0
#: Memory a capture may hold besides its output: twelve block-sized
#: float64 arrays, independent of the window length.  A block needs its
#: times, noise and exact signal; the slice-fill adds about eight arrays
#: per overlapping segment, and it only runs with fewer segments than
#: samples in the block.
BLOCK_ALLOWANCE_BYTES = 12 * BLOCK_SAMPLES * 8


def traced_peak(fn):
    """``(result, peak bytes allocated while fn ran)``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_daq_capture(benchmark):
    machine = bench_machine()
    cfg = DaqConfig()
    run = run_workload(
        chess_workload(ChessConfig(duration_s=DURATION_S)),
        resolve_policy("best", clock_table=machine.clock_table()),
        machine_factory=machine,
        seed=SEED,
        use_daq=False,
    ).run
    timeline = run.timeline
    exact_j = run.energy_joules()

    def blocked():
        return DaqSystem(cfg, seed=SEED).capture(timeline)

    def oracle():
        return reference_capture(cfg, np.random.default_rng(SEED), timeline)

    def measure():
        # Untraced warm-up: the first capture in a process also pays for
        # one-time allocations that are not the capture's.
        blocked()
        oracle()
        cap, peak = traced_peak(blocked)
        (times, power), oracle_peak = traced_peak(oracle)

        def measure_round():
            walls = {}
            for name, fn in (("blocked", blocked), ("oracle", oracle)):
                start = time.perf_counter()
                fn()
                walls[name] = time.perf_counter() - start
            return walls

        best = stable_best(measure_round, rounds=ROUNDS)
        return cap, peak, times, power, oracle_peak, best

    cap, peak, times, power, oracle_peak, best = once(benchmark, measure)
    period_s = cfg.sample_period_s
    bitwise_equal = (
        same_bits(cap.power_w, power)
        and same_bits(cap.times_us, times)
        and same_bits(cap.energy_joules(), float(np.sum(power) * period_s))
        and same_bits(cap.mean_power_w(), float(np.mean(power)))
    )
    overhead = peak - cap.power_w.nbytes

    report = Report("daq_capture")
    report.add(f"machine {machine.name}, {DURATION_S:g} s chess under best, "
               f"{len(cap)} samples, {len(timeline)} segments, "
               f"blocks of {BLOCK_SAMPLES}")
    report.table(
        ["capture", "peak MB", "wall ms"],
        [
            ["blocked", f"{peak / 1e6:.2f}", f"{best['blocked'] * 1e3:.1f}"],
            ["whole-window oracle", f"{oracle_peak / 1e6:.2f}",
             f"{best['oracle'] * 1e3:.1f}"],
        ],
    )
    report.add(f"power_w {cap.power_w.nbytes / 1e6:.2f} MB; blocked overhead "
               f"{overhead / 1e6:.2f} MB (bar: "
               f"{BLOCK_ALLOWANCE_BYTES / 1e6:.2f} MB)")
    report.add(f"DAQ energy {cap.energy_joules():.6f} J, exact {exact_j:.6f} J, "
               f"bitwise equal to oracle: {bitwise_equal}")
    report.emit()

    if not QUICK:
        BENCH_JSON.write_text(
            json.dumps(
                {
                    "benchmark": "daq_capture",
                    "machine": machine.name,
                    "workload": "chess",
                    "duration_s": DURATION_S,
                    "policy": "best",
                    "samples": len(cap),
                    "segments": len(timeline),
                    "block_samples": BLOCK_SAMPLES,
                    "power_w_bytes": cap.power_w.nbytes,
                    "peak_bytes": peak,
                    "oracle_peak_bytes": oracle_peak,
                    "block_allowance_bytes": BLOCK_ALLOWANCE_BYTES,
                    "capture_s": round(best["blocked"], 4),
                    "oracle_capture_s": round(best["oracle"], 4),
                    "energy_j": cap.energy_joules(),
                    "bitwise_equal": bitwise_equal,
                },
                indent=2,
            )
            + "\n"
        )

    # The committed record carries the memory bar; a capture past it
    # fails here whether the run is full-length or a CI quick check.
    allowance = BLOCK_ALLOWANCE_BYTES
    if BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())
        allowance = committed.get("block_allowance_bytes", allowance)
        if (committed.get("duration_s") == DURATION_S
                and committed.get("machine") == machine.name):
            assert cap.energy_joules() == committed["energy_j"], (
                f"DAQ energy drifted from the committed record "
                f"({cap.energy_joules()!r} != {committed['energy_j']!r})"
            )

    assert bitwise_equal
    assert peak <= cap.power_w.nbytes + allowance, (
        f"capture held {overhead / 1e6:.2f} MB besides its output "
        f"(bar: {allowance / 1e6:.2f} MB)"
    )
