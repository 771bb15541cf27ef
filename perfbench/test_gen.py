"""The benchmark's own checks of its input generators and metric helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json

import gen
import loop

TABLES = loop.clock_tables()
SEEDS = (gen.DEFAULT_SEED, gen.HELD_OUT_SEED, 1, 2, 3)


def rounds(seed):
    return {
        "grid-serial": gen.grid_round(seed, TABLES),
        "sweep-pooled": gen.sweep_round(seed, TABLES),
        "cli-cold": gen.cli_round(seed, TABLES),
    }


def all_cells(name, round_):
    if name == "grid-serial":
        return round_
    if name == "sweep-pooled":
        return [d for batch in gen.sweep_batches(round_) for d in batch]
    return [d for op in round_ for d in op["cells"]]


def test_same_seed_same_inputs():
    for seed in SEEDS:
        a, b = rounds(seed), rounds(seed)
        assert a == b
        for name in a:
            assert gen.input_hash(a[name]) == gen.input_hash(b[name])
    hashes = {gen.input_hash(rounds(seed)["grid-serial"]) for seed in SEEDS}
    assert len(hashes) == len(SEEDS)


def test_committed_inputs_match_the_generator():
    committed = json.loads(loop.DIGESTS.read_text())["inputs"]
    for name, by_seed in committed.items():
        for seed, digest in by_seed.items():
            assert gen.input_hash(rounds(int(seed))[name]) == digest, name


def test_every_cell_resolves_on_its_machine():
    for seed in SEEDS:
        for name, round_ in rounds(seed).items():
            for desc in all_cells(name, round_):
                loop.validate(desc)


def test_validation_rejects_a_constant_the_machine_lacks():
    bad = gen.cell("mpeg", "const-132.7", "sa2", dur=1.0)
    try:
        loop.validate(bad)
    except ValueError:
        return
    raise AssertionError("const-132.7 on sa2 was accepted")


def test_pass_two_has_its_stated_cached_and_duplicate_shares():
    for seed in SEEDS:
        round_ = gen.sweep_round(seed, TABLES)
        shares = gen.pass2_shares(round_)
        assert shares["cached"] == 0.5
        pass2 = sum(len(b) for b in round_["pass2"])
        assert shares["duplicate"] * pass2 == 3 * gen.SWEEP_GROUPS
        pass1 = [d for b in round_["pass1"] for d in b]
        assert len({gen.key(d) for d in pass1}) == len(pass1)


def test_round_composition_does_not_depend_on_the_seed():
    for name in ("grid-serial", "sweep-pooled", "cli-cold"):
        sims, shapes = set(), set()
        for seed in SEEDS:
            cells = all_cells(name, rounds(seed)[name])
            sims.add(sum(gen.sim_seconds(d) for d in cells))
            shapes.add(len(cells))
        assert len(sims) == 1 and len(shapes) == 1, name


def test_short_cells_stay_under_ten_seconds_and_include_sub_two():
    for seed in SEEDS:
        lengths = [gen.sim_seconds(d) for d in all_cells(
            "sweep-pooled", gen.sweep_round(seed, TABLES))]
        assert max(lengths) <= 10.0 and min(lengths) < 2.0


def test_tail_leaves_ten_samples_above():
    for n in (11, 16, 24, 130, 615):
        values = list(range(n))
        p, value = loop.tail(values)
        assert sum(v > value for v in values) >= 10
        assert n - -(-(p + 1) * n // 100) < 10  # p + 1 would leave fewer


def test_outermost_cumulative_counts_nested_entries_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     scipy.stats._x",
        "import time:        40 |         45 |   scipy.stats",
        "import time:       100 |        200 | repro.measure",
    ])
    assert loop.outermost_cumulative(text, "scipy") == 75 / 1e6
    assert loop.outermost_cumulative(text, "repro.obs") == 0.0


def test_cli_cold_tail_lies_above_its_median():
    ops_per_round = len(gen.cli_round(gen.DEFAULT_SEED, TABLES))
    for seconds in range(1, 61):
        n = loop.rounds_for("cli-cold", seconds) * ops_per_round
        p, _ = loop.tail(list(range(n)))
        assert p > 50, seconds
