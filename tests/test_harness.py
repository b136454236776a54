import random
from fractions import Fraction
from pathlib import Path

import pytest

from tlsynth import synthesis
from tlsynth.errors import ValidationError
from tlsynth.generators import GeneratorSpec, gen_adaptive, gen_blocks, gen_uniform
from tlsynth.measure import (
    emit_table2,
    measure_ratio,
    mixed_resetting_best_horizon,
    sliding_window_algorithm,
    policy_algorithm,
    coin_flip_algorithm,
)
from tlsynth.policies import (
    DeterministicPolicy,
    MixedResettingStrategy,
    SlidingWindowRule,
    run_coin_flip,
    run_policy,
)
from tlsynth.problems import Alphabet, bundled_problem

BIN = Alphabet(("0", "1"))


def follow():
    return DeterministicPolicy.from_entries(1, BIN, BIN, {"0": "0", "1": "1"})


# -- generators -----------------------------------------------------------------


def test_gen_blocks_examples():
    assert "".join(gen_blocks(1, 2)) == "1010"
    assert "".join(gen_blocks(3, 1)) == "111000"
    for T, L in [(2, 3), (5, 4)]:
        assert len(gen_blocks(T, L)) == 2 * T * L


def test_gen_blocks_validates():
    with pytest.raises(ValidationError):
        gen_blocks(0, 1)


def test_gen_adaptive_follow_alternates():
    seq, hit = gen_adaptive(follow(), 4)
    assert "".join(seq) == "10101010"
    assert not hit


def test_gen_adaptive_resisting_policy_hits_cutoff():
    always_zero = DeterministicPolicy(1, BIN, BIN, (0, 0))
    seq, hit = gen_adaptive(always_zero, 1, cutoff=25)
    assert hit
    assert len(seq) >= 25


def test_gen_adaptive_sliding_window_phase_length():
    rule = SlidingWindowRule(6, 1)
    seq, hit = gen_adaptive(rule, 5)
    assert not hit
    # a single request never forms a 1-window of weight 2*lam, so every
    # phase needs at least two requests
    runs, current = [], 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            current += 1
        else:
            runs.append(current)
            current = 1
    assert all(r >= 2 for r in runs)


@pytest.mark.parametrize(
    "name,phases,cutoff,expected,hit",
    [
        ("follow", 4, 7, "10101010", False),
        ("a1", 4, 7, "1100110011001100", False),
        ("sliding-window", 4, 7, "11100110011001100", False),
        ("mixed-resetting", 4, 7, "11000111000111000111000", False),
        ("follow", 3, 2, "101010", False),
        ("a1", 3, 2, "110011001100", False),
        ("sliding-window", 3, 2, "110011001100", True),
        ("mixed-resetting", 3, 2, "1100100100", True),
    ],
)
def test_gen_adaptive_sequences_are_pinned(name, phases, cutoff, expected, hit):
    policy = {
        "follow": follow(),
        "a1": DeterministicPolicy(4, BIN, BIN, tuple(int(c) for c in "0001001100110111")),
        "sliding-window": SlidingWindowRule(6, 1),
        "mixed-resetting": MixedResettingStrategy(2, 3),
    }[name]
    seq, cutoff_hit = gen_adaptive(policy, phases, cutoff)
    assert ("".join(seq), cutoff_hit) == (expected, hit)


def test_gen_uniform_seeded():
    a = gen_uniform(100, "1/2", seed=5)
    assert a == gen_uniform(100, "1/2", seed=5)
    assert a != gen_uniform(100, "1/2", seed=6)
    ones = sum(s == "1" for s in gen_uniform(10_000, "1/4", seed=1))
    assert abs(ones / 10_000 - 0.25) < 0.03


def test_uniform_input_is_drawn_apart_from_the_coins():
    """The trial seed draws both the input and the coin flip's coins. From
    one stream, at alpha=1 the coin moves exactly when the input is 1, so
    the file moves to the first 1 and never moves back; from separate
    streams it moves both ways on 100 flips."""
    spec = GeneratorSpec.parse("uniform:n=100")
    for seed in range(20):
        served = "".join(run_coin_flip(spec.realize(trial_seed=seed), 1, seed))
        assert "10" in served, seed


def test_generator_spec_parse_and_label():
    spec = GeneratorSpec.parse("blocks:T=6,L=50")
    assert spec.kind == "blocks" and spec.params == {"T": "6", "L": "50"}
    assert spec.label() == "blocks:L=50,T=6"
    with pytest.raises(ValidationError):
        GeneratorSpec.parse("bogus:x=1")
    with pytest.raises(ValidationError, match="repeated uniform generator parameter 'n'"):
        GeneratorSpec.parse("uniform:n=5,n=7")


# -- measure ---------------------------------------------------------------------


def test_measure_all_zero_input():
    problem = bundled_problem("file-migration")
    record = measure_ratio(
        problem,
        policy_algorithm(follow()),
        GeneratorSpec(kind="fixed", params={"seq": "0" * 40}),
    )
    assert record.algorithm_cost == 0
    assert record.opt_cost == 0
    assert record.ratio == Fraction(1)  # cost 0 on OPT 0 counts as ratio 1


def test_measure_infinite_ratio_when_opt_zero():
    problem = bundled_problem("file-migration")
    stay_wrong = DeterministicPolicy(1, BIN, BIN, (1, 1))  # sits at node 1
    record = measure_ratio(
        problem,
        policy_algorithm(stay_wrong),
        GeneratorSpec(kind="fixed", params={"seq": "0" * 10}),
    )
    assert record.ratio == "inf"


def test_measure_guarantee_check_and_trials():
    problem = bundled_problem("file-migration")
    record = measure_ratio(
        problem,
        sliding_window_algorithm(6, 1),
        GeneratorSpec.parse("blocks:T=6,L=20"),
        trials=3,
        base_seed=9,
        check=("6", "6"),
    )
    assert record.check == (Fraction(6), Fraction(6), True)
    assert record.trials == 3
    assert record.stderr == 0.0  # deterministic algorithm, fixed sequence


def test_measure_is_seed_deterministic():
    problem = bundled_problem("file-migration")
    spec = GeneratorSpec.parse("uniform:n=60,p=1/2")
    alg = coin_flip_algorithm(Fraction(1))
    r1 = measure_ratio(problem, alg, spec, trials=20, base_seed=3)
    r2 = measure_ratio(problem, alg, spec, trials=20, base_seed=3)
    assert r1 == r2


@pytest.mark.parametrize("horizon,alpha", [(6, 1), (6, 2), (12, 1), (12, 2)])
def test_measured_sliding_window_is_the_rule(horizon, alpha):
    # the tabulated fast path must not change a single output, including
    # the first T, whose windows hold placeholders
    algorithm = sliding_window_algorithm(horizon, alpha)
    rule = SlidingWindowRule(horizon, alpha)
    assert isinstance(algorithm.policy, SlidingWindowRule)  # what gen_adaptive plays
    inputs = [tuple(format(v, f"0{n}b")) if n else () for n in range(11) for v in range(2**n)]
    rng = random.Random(horizon * 10 + alpha)
    inputs += [tuple(rng.choice("01") for _ in range(500)) for _ in range(5)]
    for xs in inputs:
        assert algorithm.outputs(xs, 0) == run_policy(rule, xs), xs


def test_mixed_resetting_best_horizon_values():
    assert mixed_resetting_best_horizon(5) == 15
    assert mixed_resetting_best_horizon(1) >= 1


# -- table CSV --------------------------------------------------------------------


def test_emit_table2_deterministic_and_exact():
    problem = bundled_problem("file-migration")
    csv1 = emit_table2(problem, ["0.5", "1"], [1, 2])
    csv2 = emit_table2(problem, ["0.5", "1"], [1, 2])
    assert csv1 == csv2  # byte-identical
    lines = csv1.strip().splitlines()
    assert lines[0] == "alpha,T,kind,ratio_exact,ratio_decimal"
    assert "1/2,1,det,3,3.0000" in lines
    assert "1,2,det,4,4.0000" in lines


TABLE2_GRID = {
    "alphas": ("1/10", "1/5", "3/10", "1/2", "1"),
    "horizons": (1, 2),
    "randomized": True,
    "config_kwargs": {"grid_step": Fraction(1, 20)},
}


def test_emit_table2_reproduces_the_benchmark_reference():
    # the benchmark's table2 operation and gate; the reference is only read
    reference = Path(__file__).resolve().parents[1] / "bench" / "ref" / "table2.csv"
    csv_text = emit_table2(bundled_problem("file-migration"), **TABLE2_GRID)
    assert csv_text.encode() == reference.read_bytes()


def test_emit_table2_hands_each_rand_cell_its_det_result(monkeypatch):
    """Each `rand` cell starts from its `det` cell's result, so the only
    searches are the det cells' (one at T=1, two at T=2 with the lifted
    T=1 guide) and one grid search per rand cell: 15 + 10, where searching
    the deterministic tables again would make 40."""
    made = []
    init = synthesis._Search.__init__

    def tracked(search, *args, **kwargs):
        init(search, *args, **kwargs)
        made.append(search)

    monkeypatch.setattr(synthesis._Search, "__init__", tracked)
    emit_table2(bundled_problem("file-migration"), **TABLE2_GRID)
    assert len(made) == 25


def test_emit_table2_skips_guarded_cells():
    problem = bundled_problem("file-migration")
    csv_text = emit_table2(problem, ["1"], [5], randomized=True)
    # a det cell past the guard hands no start on; its rand cell runs alone
    assert "1,5,det,skipped,skipped" in csv_text
    assert "1,5,rand,skipped,skipped" in csv_text
