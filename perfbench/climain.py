"""``python climain.py STAMPS ARGS...``: ``python -m repro ARGS...`` with stamps.

Does what ``repro/__main__.py`` does (import :mod:`repro.cli`, exit
with ``main()``'s code) and writes to the JSON file ``STAMPS`` the
``perf_counter`` readings (a system-wide clock on Linux) at entry,
after the import and after ``main`` returned, so the caller can split
the invocation into interpreter start, import, command and exit.

With ``PERFBENCH_TRACE_DIR`` set, the layer wrappers of :mod:`spans`
are installed after the import (outside the import stamp) and the
spans are written to that directory.
"""

import time

T_ENTER = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    stamp_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    t_imported = time.perf_counter()
    tracer = None
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:
        import spans

        tracer = spans.Tracer(trace_dir)
        spans.install(tracer)
    sys.argv = ["repro"] + argv
    t_main = time.perf_counter()
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    t_done = time.perf_counter()
    if tracer is not None:
        tracer.add("cli.import", T_ENTER, t_imported)
        tracer.add("cli.command", t_main, t_done)
        tracer.flush()
    with open(stamp_path, "w") as handle:
        json.dump({"enter": T_ENTER, "imported": t_imported,
                   "main": t_main, "done": t_done}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
