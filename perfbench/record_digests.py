"""Regenerate ``digests.json``, the benchmark's output-check table.

    PYTHONPATH=src python3 perfbench/record_digests.py

For the default and the held-out seed of every workload it records the
input hash, the SHA-256 of ``CellResult.to_json()`` of every cell
(computed serially in-process), and every CLI op's stdout digest and
exit code (from a real ``repro`` process, cross-checked against an
in-process serial run).  Table 2's cells are recorded for every seed.
Only rerun it when a change is meant to alter the program's outputs or
the benchmark's inputs.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import gen
import loop

SRC = loop.HERE.parent / "src"


def main() -> int:
    tables = loop.clock_tables()
    out = {"cells": {}, "cli": {}, "inputs": {}}
    seeds = (gen.DEFAULT_SEED, gen.HELD_OUT_SEED)
    for name, cls in loop.WORKLOAD_CLASSES.items():
        for seed in seeds:
            wl = cls(seed, tables)
            out["inputs"].setdefault(name, {})[str(seed)] = gen.input_hash(
                wl.round)
            descs = [d for batch in wl.batches for d in batch]
            if name == "cli-cold":
                for op in wl.round:
                    record_cli(op, out["cli"])
                continue
            for d in descs + gen.table2_cells():
                k = gen.key(d)
                if k not in out["cells"]:
                    out["cells"][k] = loop.digest(loop.to_cell(d).run())
            print(f"{name} seed {seed}: {len(out['cells'])} cells so far",
                  file=sys.stderr)
    loop.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def record_cli(op: dict, table: dict) -> None:
    template = " ".join(op["args"])
    if template in table:
        return
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        args = [a.replace("{op}", tmp).replace("{run}", tmp)
                for a in op["args"]]
        cmd = [sys.executable, str(loop.HERE / "climain.py"),
               os.path.join(tmp, "stamps.json")] + args
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=str(SRC),
                                       REPRO_HOST_CALIBRATION=f"{tmp}/h.json"))
    sha = hashlib.sha256(proc.stdout).hexdigest()
    if (sha, proc.returncode) != loop.cli_expected(template):
        raise SystemExit(f"in-process and CLI outputs differ: {template}")
    if proc.returncode not in loop.cli_allowed_codes(template):
        raise SystemExit(f"unexpected exit {proc.returncode}: {template}")
    table[template] = {"stdout_sha256": sha, "exit": proc.returncode}
    print(f"cli {template}: exit {proc.returncode}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
