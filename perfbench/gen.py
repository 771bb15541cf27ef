"""Seeded input generators for the three benchmark workloads.

Everything here is plain data built from ``random.Random`` and the
standard library, so the generated inputs are a pure function of the
seed (and of the machines' clock tables, which the caller passes in).
The program under test only ever receives these descriptors, converted
to sweep cells or command lines by ``loop.py``.

A *cell descriptor* is a flat dict::

    {"app": "mpeg", "dur": 10.0, "fuzz": None, "policy": "avg3-peg",
     "machine": "sa2", "seed": 123, "daq": True, "rec": "full"}

``dur`` None means the workload's default length; ``fuzz`` holds the
``FuzzSpec`` keyword arguments when ``app`` is ``"fuzz"``.

Each workload is generated as one *round*: a fixed amount of work that
``loop.py`` repeats until its time is up.  Rounds are stratified so that
their composition (machines, policy classes, cell lengths) is the same
for every seed; the seed only decides which concrete cell lands in
which slot.  That keeps run-to-run spread down to host noise.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence

APPS = ("mpeg", "web", "chess", "editor")
DEFAULT_LENGTH_S = {"mpeg": 60.0, "web": 190.0, "chess": 218.0, "editor": 70.0}
MACHINES = ("itsy", "itsy-reconf", "sa2")
INTERVAL_POLICIES = tuple(
    f"{pred}-{setter}"
    for pred in ("past", "avg3", "avg9")
    for setter in ("one", "double", "peg")
)
ADAPTIVE_POLICIES = INTERVAL_POLICIES + ("best",)

#: Table 2 of the paper: (policy, 95 % CI low, high) in joules, 60 s MPEG.
TABLE2_ROWS = (
    ("const-206.4", 85.59, 86.49),
    ("const-132.7", 79.59, 80.94),
    ("const-132.7@1.23", 73.76, 74.41),
    ("best", 85.03, 85.47),
    ("best-voltage", 84.60, 85.45),
)
#: ``repro table2``'s seed schedule (runs=3): the rows are generated
#: with exactly the CLI's seeds so the fit error is the CLI's.
TABLE2_SEEDS = (0, 1000, 2000)

#: Seeds whose digests are committed in ``digests.json``.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7


def cell(app, policy, machine="itsy", seed=0, dur=None, fuzz=None,
         daq=True, rec="full") -> dict:
    """One cell descriptor (see the module docstring)."""
    return {
        "app": app, "dur": dur, "fuzz": fuzz, "policy": policy,
        "machine": machine, "seed": seed, "daq": daq, "rec": rec,
    }


def key(desc: dict) -> str:
    """The stable identity of a descriptor (digest-table key)."""
    return json.dumps(desc, sort_keys=True, separators=(",", ":"))


def sim_seconds(desc: dict) -> float:
    """Simulated length of one cell."""
    if desc["app"] == "fuzz":
        return float(desc["fuzz"]["duration_s"])
    if desc["dur"] is not None:
        return float(desc["dur"])
    return DEFAULT_LENGTH_S[desc["app"]]


def input_hash(round_: object) -> str:
    """SHA-256 over a generated round (printed by every run)."""
    blob = json.dumps(round_, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _run_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _fuzz_params(rng: random.Random, duration_s: float, index: int) -> dict:
    """FuzzSpec keyword arguments over the same knob ranges the
    program's own fuzz families sweep."""
    return {
        "seed": rng.randrange(1_000_000),
        "duration_s": duration_s,
        "phases": rng.randint(2, 6),
        "burstiness": round(rng.random(), 3),
        "periodicity_ms": round(10.0 + 90.0 * rng.random(), 3),
        "ramp": round(rng.random(), 3),
        "idle_storm": round(0.4 * rng.random(), 3),
        "deadline_tightness": round(0.15 + 0.7 * rng.random(), 3),
        "processes": 1 + index % 2,
    }


def _constant(rng: random.Random, steps: Sequence[float]) -> str:
    """A constant-speed policy valid on a machine with ``steps`` (MHz).

    Drawn from the upper half of the table so the cell is usually
    feasible, as the paper's "one valid constant" is.
    """
    upper = list(steps)[len(steps) // 2:]
    return f"const-{rng.choice(upper):.1f}"


# -- grid-serial ---------------------------------------------------------------


def table2_cells() -> List[dict]:
    """Table 2's five rows x ``repro table2``'s three runs."""
    return [
        cell("mpeg", policy, seed=seed)
        for policy, _, _ in TABLE2_ROWS
        for seed in TABLE2_SEEDS
    ]


def grid_round(seed: int, steps: Dict[str, Sequence[float]]) -> List[dict]:
    """The long-cell grid: Table 2, the policy grid and a fuzz family.

    The policy grid is the paper's interval sweep (past/avg3/avg9 x
    one/double/peg) plus ``best`` and one valid constant, on every app
    at its default length.  Each app's eleven policies are dealt over
    the three machines 4/4/3, the machine short of one fixed per app,
    so the app x machine counts are the same for every seed.  The fuzz
    family is six 10 s cells.
    """
    rng = _rng("grid-serial", seed)
    cells = table2_cells()
    for a, app in enumerate(APPS):
        policies = list(ADAPTIVE_POLICIES) + [None]
        rng.shuffle(policies)
        machines = [m for i, m in enumerate(MACHINES)
                    for _ in range(3 if i == a % 3 else 4)]
        for policy, machine in zip(policies, machines):
            if policy is None:
                policy = _constant(rng, steps[machine])
            cells.append(cell(app, policy, machine, seed=_run_seed(rng)))
    for i in range(6):
        machine = ("itsy", "sa2")[i % 2]
        policy = rng.choice(["best", "avg3-peg", "past-one", "avg9-double"])
        cells.append(
            cell("fuzz", policy, machine, seed=_run_seed(rng),
                 fuzz=_fuzz_params(rng, 10.0, i))
        )
    order = list(range(len(cells)))
    rng.shuffle(order)
    return [cells[i] for i in order]


# -- sweep-pooled --------------------------------------------------------------


def _repeat(app, policy, machine, dur, runs, base_seed) -> List[dict]:
    """``repeat_workload``'s cells: seeds ``base + 1000 * i``."""
    return [
        cell(app, policy, machine, seed=base_seed + 1000 * i, dur=dur)
        for i in range(runs)
    ]


def _const_sweep(app, dur, seed, steps) -> List[dict]:
    """``find_ideal_constant``'s batch: every step, no DAQ, minimal
    recording."""
    return [
        cell(app, f"const-{mhz:.1f}", "itsy", seed=seed, dur=dur,
             daq=False, rec="minimal")
        for mhz in steps
    ]


#: Independent copies of the two-pass pattern in one sweep round.  More
#: batches per round smooth the op-latency distribution over the mix.
SWEEP_GROUPS = 4


def sweep_round(seed: int, steps: Dict[str, Sequence[float]]) -> dict:
    """Two passes of short-cell batches through one warm engine.

    Each of :data:`SWEEP_GROUPS` groups adds to pass 1 (cold) four 5-run
    ``repeat_workload`` batches, two 11-step constant sweeps and two
    6-cell fuzz slices.  Its pass 2 overlaps them the way a user's
    follow-up calls do: each repeat batch is re-run with 10 runs (its
    first 5 are cached), one constant sweep is repeated (cached) next to
    a new one, and one batch submits two overlapping fuzz slices (3
    cells repeat within the batch, 6 are cached).  Cell lengths are
    1-10 s and include lengths under 2 s on purpose.
    """
    rng = _rng("sweep-pooled", seed)
    itsy = steps["itsy"]
    pass1, pass2 = [], []
    for _ in range(SWEEP_GROUPS):
        apps = list(APPS)
        rng.shuffle(apps)
        repeats = []
        for i, (app, dur) in enumerate(zip(apps, (1.0, 2.0, 5.0, 10.0))):
            policy = rng.choice(ADAPTIVE_POLICIES)
            repeats.append((app, policy, MACHINES[i % 3], dur,
                            _run_seed(rng)))
        sweeps = [
            (app, dur, _run_seed(rng))
            for app, dur in zip(rng.sample(APPS, 3), (1.5, 8.0, 3.0))
        ]
        family = [
            cell("fuzz", rng.choice(["best", "avg3-peg", "past-double"]),
                 "itsy", seed=_run_seed(rng),
                 fuzz=_fuzz_params(rng, 1.0, i))
            for i in range(15)
        ]
        pass1 += [_repeat(*r[:4], runs=5, base_seed=r[4]) for r in repeats]
        pass1 += [_const_sweep(app, dur, s, itsy)
                  for app, dur, s in sweeps[:2]]
        pass1 += [family[0:6], family[6:12]]
        pass2 += [_repeat(*r[:4], runs=10, base_seed=r[4]) for r in repeats]
        pass2.append(_const_sweep(*sweeps[0], itsy))
        pass2.append(_const_sweep(*sweeps[2], itsy))
        pass2.append(family[6:12] + family[9:15])
    rng.shuffle(pass1)
    rng.shuffle(pass2)
    return {"pass1": pass1, "pass2": pass2}


def sweep_batches(round_: dict) -> List[List[dict]]:
    """A sweep round's batches in submission order."""
    return round_["pass1"] + round_["pass2"]


def pass2_shares(round_: dict) -> Dict[str, float]:
    """Pass 2's cached and within-batch duplicate shares, by cell count.

    A pass-2 cell is *cached* when an earlier batch of the round already
    answered it, and a *duplicate* when its own batch asked for it
    before.
    """
    seen = {key(c) for batch in round_["pass1"] for c in batch}
    cached = dups = total = 0
    for batch in round_["pass2"]:
        in_batch = set()
        for c in batch:
            k = key(c)
            total += 1
            if k in in_batch:
                dups += 1
            elif k in seen:
                cached += 1
            in_batch.add(k)
        seen |= in_batch
    return {"cached": cached / total, "duplicate": dups / total}


# -- cli-cold ------------------------------------------------------------------


def cli_round(seed: int, steps: Dict[str, Sequence[float]]) -> List[dict]:
    """A fixed mix of eight commands, each one fresh ``repro`` process.

    ``args`` may hold the placeholders ``{op}`` (a fresh per-command temp
    directory) and ``{run}`` (the run's temp directory, for the fleet
    ledger); ``loop.py`` substitutes them.  ``cells`` lists the cell
    descriptors the command simulates, for the input shares and the
    traced run's profile sample.
    """
    rng = _rng("cli-cold", seed)
    # Only the two single-cell runs swap lengths, so every round
    # simulates the same total time whatever the seed.
    run_lengths = [5.0, 20.0]
    rng.shuffle(run_lengths)
    machines = list(MACHINES)
    rng.shuffle(machines)
    apps = list(APPS)
    rng.shuffle(apps)
    ops = []
    for i in range(2):
        app = apps[i]
        machine = machines[i]
        policy = rng.choice(ADAPTIVE_POLICIES)
        s = rng.randrange(100)
        dur = run_lengths[i]
        ops.append({
            "kind": "run",
            "args": ["run", app, "--policy", policy, "--machine", machine,
                     "--seed", str(s), "--duration", f"{dur:g}"],
            "cells": [cell(app, policy, machine, seed=s, dur=dur)],
        })
    app = apps[2]
    pa, pb = rng.sample(ADAPTIVE_POLICIES, 2)
    dur = 10.0
    ops.append({
        "kind": "compare",
        "args": ["compare", app, pa, pb, "--runs", "3",
                 "--duration", f"{dur:g}"],
        "cells": [cell(app, p, seed=1000 * i, dur=dur)
                  for p in (pa, pb) for i in range(3)],
    })
    app = apps[3]
    policy = rng.choice(ADAPTIVE_POLICIES)
    machine = machines[2]
    s = rng.randrange(100)
    dur = 15.0
    ops.append({
        "kind": "diagnose",
        "args": ["diagnose", policy, app, "--machine", machine,
                 "--seed", str(s), "--duration", f"{dur:g}"],
        "cells": [cell(app, policy, machine, seed=s, dur=dur, daq=False)]
        + [cell(app, f"const-{mhz:.1f}", machine, seed=s, dur=dur,
                daq=False) for mhz in steps[machine]],
    })
    s = rng.randrange(100)
    ops.append({
        "kind": "fig9",
        "args": ["fig9", "--duration", "10", "--seed", str(s)],
        "cells": [cell("mpeg", f"const-{mhz:.1f}", seed=s, dur=10.0,
                       daq=False) for mhz in steps["itsy"]],
    })
    ops.append({"kind": "list-policies", "args": ["list-policies"],
                "cells": []})
    sweep_flags = ["--cache", "{op}/cache", "--run-log", "{op}/runlog.jsonl",
                   "--sweep-trace", "{op}/sweep-trace.json",
                   "--fleet", "{run}/fleet.jsonl"]
    ops.append({
        "kind": "table2",
        "args": ["table2", "--runs", "3", "--jobs", "2"] + sweep_flags,
        "cells": table2_cells(),
    })
    s = rng.randrange(100)
    ops.append({
        "kind": "ideal",
        "args": ["ideal", "web", "--jobs", "2", "--seed", str(s)]
        + sweep_flags,
        "cells": [cell("web", f"const-{mhz:.1f}", seed=s, daq=False,
                       rec="minimal") for mhz in steps["itsy"]],
    })
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order]


# -- shares --------------------------------------------------------------------


def input_shares(batches: List[List[dict]],
                 cached_sim_s: float = 0.0) -> Dict[str, float]:
    """The input properties a later change may need to quote.

    Shares are by cell count, except the cached share, which is by
    simulated seconds (``cached_sim_s`` is what the run measured).
    Duplicates are cells their own batch already asked for.
    """
    cells = [c for batch in batches for c in batch]
    n = len(cells) or 1
    sim = sum(sim_seconds(c) for c in cells)
    dups = sum(len(b) - len({key(c) for c in b}) for b in batches)
    return {
        "cells": len(cells),
        "mean_cell_sim_s": sim / n,
        "constant_governor_share": sum(
            c["policy"].startswith("const-") for c in cells) / n,
        "reconf_or_sa2_share": sum(
            c["machine"] in ("itsy-reconf", "sa2") for c in cells) / n,
        "duplicate_share": dups / n,
        "cached_sim_s_share": cached_sim_s / sim if sim else 0.0,
    }
