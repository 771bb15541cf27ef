"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public calls into each layer (sweep engine,
runner, workload build/setup, kernel build/run, deadline misses, DAQ,
result materialization, cache, run-log, telemetry export, fleet record)
with timing wrappers that append ``(name, t0, t1, pid, depth, args)``
records to a :class:`Tracer`.  Nothing inside the program changes; the
wrappers call the originals with the same arguments and return their
results untouched, so traced results stay bitwise identical.

Pool workers are forked from a traced process and inherit the wrappers;
a worker notices the pid change, starts an empty buffer and appends its
spans to ``spans-<pid>.jsonl`` in the trace directory whenever one of
its top-level spans closes.  :func:`load` merges every process's spans.

:func:`fold_profile` attributes a cProfile run of ``kernel.run`` to
repro packages (self time; builtins and non-repro code are charged to
the package that called them).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pstats
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (name, t0, t1, pid, depth, args)
Span = Tuple[str, float, float, int, int, Optional[dict]]


class Tracer:
    """An in-memory span buffer for one process (reset on fork)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.owner = self.pid
        self.spans: List[Span] = []
        self.depth = 0

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.depth = 0

    def wrap(self, fn: Callable, name: str,
             args_of: Optional[Callable] = None,
             args_before: Optional[dict] = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``args_before`` are span args known before the call;
        ``args_of(result, *a, **kw)`` may add more (counts) after a
        successful call, and a call that raises adds ``error``.
        """

        def traced(*a, **kw):
            self._check_fork()
            depth = self.depth
            self.depth = depth + 1
            args = dict(args_before) if args_before else None
            t0 = perf_counter()
            try:
                result = fn(*a, **kw)
            except BaseException:
                self.depth = depth
                self._close(name, t0, depth, dict(args or {}, error=1))
                raise
            self.depth = depth
            if args_of is not None:
                args = dict(args or {}, **args_of(result, *a, **kw))
            self._close(name, t0, depth, args)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def add(self, name: str, t0: float, t1: float,
            args: Optional[dict] = None) -> None:
        """Record a span measured by the caller (e.g. a whole op)."""
        self._check_fork()
        self.spans.append((name, t0, t1, self.pid, self.depth, args))

    def _close(self, name, t0, depth, args) -> None:
        self.spans.append((name, t0, perf_counter(), self.pid, depth, args))
        if depth == 0 and self.pid != self.owner:
            self.flush()

    def flush(self) -> None:
        """Append buffered spans to this process's file and clear them."""
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def load(out_dir: Path, extra: List[Span] = ()) -> List[Span]:
    """Every span written under ``out_dir`` plus ``extra``."""
    spans: List[Span] = list(extra)
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            name, t0, t1, pid, depth, args = json.loads(line)
            spans.append((name, t0, t1, pid, depth, args))
    return spans


# -- wrappers ------------------------------------------------------------------


def _kernel_run_args(run, kernel, *_a, **_kw) -> dict:
    stats = run.quantum_stats
    return {
        "quanta": stats.count if stats is not None else len(run.quanta),
        "transitions": run.clock_changes + run.voltage_changes,
        "ticks": getattr(kernel, "_perfbench_ticks", [0])[0],
    }


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer entry points; returns a function that unwraps them."""
    import repro.measure.runner as runner
    from repro.kernel import backend, fastpath, scheduler
    from repro.measure import daq, parallel
    from repro.obs import fleet, telemetry, trace

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    w = tracer.wrap

    def engine_run(fn):
        def run(engine, cells):
            cells = list(cells)
            before = (engine.stats.executed, engine.stats.cache_hits)
            return w(fn, "measure.parallel.run", lambda _r, *_a: {
                "executed": engine.stats.executed - before[0],
                "cached": engine.stats.cache_hits - before[1],
            }, {
                "top": engine._run_depth == 0,
                "jobs": engine.jobs,
                "cells": len(cells),
            })(engine, cells)
        return run

    patch(parallel.SweepEngine, "run", engine_run(parallel.SweepEngine.run))

    build = parallel.WorkloadSpec.build

    def spec_build(spec):
        workload = w(build, "workloads.build")(spec)
        return dataclasses.replace(
            workload, setup=w(workload.setup, "workloads.setup"))

    patch(parallel.WorkloadSpec, "build", spec_build)

    traced_run_workload = w(runner.run_workload, "measure.runner.run_workload")
    patch(runner, "run_workload", traced_run_workload)
    cli = sys.modules.get("repro.cli")
    if cli is not None:
        patch(cli, "run_workload", traced_run_workload)

    for cls in (backend.FastpathBackend, backend.ReferenceBackend):
        patch(cls, "build_kernel", _counting_build(w, cls.build_kernel))
    for cls in (fastpath.FastKernel, scheduler.Kernel):
        patch(cls, "run", w(cls.run, "kernel.run", _kernel_run_args))
    patch(scheduler.KernelRun, "deadline_misses",
          w(scheduler.KernelRun.deadline_misses, "kernel.misses"))
    patch(daq.DaqSystem, "capture",
          w(daq.DaqSystem.capture, "measure.daq.capture",
            lambda cap, *_a, **_kw: {"samples": len(cap)}))
    from_experiment = parallel.CellResult.__dict__["from_experiment"].__func__
    patch(parallel.CellResult, "from_experiment",
          classmethod(w(from_experiment, "measure.runner.materialize")))

    patch(telemetry.SweepTelemetry, "chrome_trace",
          w(telemetry.SweepTelemetry.chrome_trace, "obs.telemetry.export"))
    patch(trace, "write_chrome_trace",
          w(trace.write_chrome_trace, "obs.telemetry.export"))
    patch(parallel.SweepEngine, "fleet_record",
          w(parallel.SweepEngine.fleet_record, "obs.fleet.record"))
    patch(fleet.FleetLedger, "append",
          w(fleet.FleetLedger.append, "obs.fleet.record"))

    timed_cache, timed_log = timed_classes(tracer)
    if cli is not None:
        patch(cli, "ResultCache", timed_cache)
        patch(cli, "RunLogWriter", timed_log)

    def uninstall() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall


def timed_classes(tracer: Tracer):
    """The benchmark-side ``ResultCache`` / ``RunLogWriter`` subclasses
    that time ``get``/``put`` and ``write``."""
    from repro.measure.parallel import ResultCache
    from repro.obs.runlog import RunLogWriter

    class TimedCache(ResultCache):
        get = tracer.wrap(
            ResultCache.get, "measure.parallel.cache_get",
            lambda hit, *_a: {"hit": hit is not None})
        put = tracer.wrap(ResultCache.put, "measure.parallel.cache_put")

    class TimedRunLogWriter(RunLogWriter):
        write = tracer.wrap(RunLogWriter.write, "obs.runlog.write")

    return TimedCache, TimedRunLogWriter


def _counting_build(w, build_kernel):
    """``build_kernel`` timed as ``kernel.build``; the governor's
    ``on_tick`` is shadowed on the instance by a call counter whose
    total the ``kernel.run`` span reports as ``ticks``."""

    def build(backend_self, machine, governor=None, *a, **kw):
        ticks = [0]
        if governor is not None:
            on_tick = governor.on_tick

            def counted(info):
                ticks[0] += 1
                return on_tick(info)

            governor.on_tick = counted
        kernel = w(build_kernel, "kernel.build")(
            backend_self, machine, governor, *a, **kw)
        kernel._perfbench_ticks = ticks
        return kernel

    return build


# -- profile folding -----------------------------------------------------------

#: Package of a repro source path, most specific first.
_PACKAGES = (
    ("/repro/kernel/dvfs.py", "kernel.dvfs"),
    ("/repro/kernel/", "kernel"),
    ("/repro/core/", "core"),
    ("/repro/workloads/", "workloads"),
    ("/repro/hw/", "hw"),
    ("/repro/traces/", "traces"),
    ("/repro/", "other"),
)
FOLD_PACKAGES = ("kernel", "kernel.dvfs", "core", "workloads", "hw", "traces")


def _package(filename: str) -> Optional[str]:
    path = filename.replace("\\", "/")
    for marker, package in _PACKAGES:
        if marker in path:
            return package
    return None


def fold_profile(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per repro package from a cProfile of ``kernel.run``.

    A function outside repro (a builtin, numpy, the standard library)
    has its self time split over its callers in proportion to the time
    each caller spent in it, and charged to the caller's package; a
    non-repro caller of a non-repro function charges ``other``.
    """
    out: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():  # type: ignore[attr-defined]
        package = _package(func[0])
        if package is not None:
            out[package] = out.get(package, 0.0) + tt
            continue
        total = sum(c[2] for c in callers.values()) or 0.0
        for caller, (_c1, _n1, ctt, _ct1) in callers.items():
            share = tt * (ctt / total) if total else tt / len(callers)
            owner = _package(caller[0]) or "other"
            out[owner] = out.get(owner, 0.0) + share
        if not callers:
            out["other"] = out.get("other", 0.0) + tt
    return out
