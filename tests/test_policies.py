import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsynth import policies
from tlsynth.errors import InvalidAlpha, InvalidHorizon, TableTooLarge, ValidationError
from tlsynth.measure import coin_flip_algorithm
from tlsynth.policies import (
    DeterministicPolicy,
    MixedResettingStrategy,
    RandomizedPolicy,
    ResetWrapper,
    SlidingWindowRule,
    ThresholdMigrator,
    compile_to_table,
    load_policy,
    policy_to_document,
    run_coin_flip,
    run_policy,
    sample_mixed_resetting,
)
from tlsynth.problems import Alphabet, bundled_problem

BIN = Alphabet(("0", "1"))

RAND_REFERENCE_ENTRIES = {
    "000": "0",
    "001": "3309/10000",
    "010": "2711/10000",
    "011": "1",
    "100": "0",
    "101": "7289/10000",
    "110": "6691/10000",
    "111": "1",
}


def follow_the_request():
    return DeterministicPolicy.from_entries(1, BIN, BIN, {"0": "0", "1": "1"})


# -- run_policy ---------------------------------------------------------------


def test_follow_the_request_convention():
    # y_1 comes from the placeholder window, filled with the first symbol
    assert run_policy(follow_the_request(), ("1", "1", "0")) == ("0", "1", "1")


def test_output_at_matches_the_rolling_run():
    # output_at reads placeholders as the first symbol, as run does
    rng = random.Random(4)
    cases = [(BIN, T, table) for T in (1, 2) for table in itertools.product((0, 1), repeat=2**T)]
    cases += [(BIN, 3, tuple(rng.randint(0, 1) for _ in range(8))) for _ in range(8)]
    abc = Alphabet(("a", "b", "c"))
    cases += [(abc, T, tuple(rng.randint(0, 1) for _ in range(3**T))) for T in (1, 2, 3)]
    for inputs, T, table in cases:
        policy = DeterministicPolicy(T, inputs, BIN, table)
        for n in range(2 * T + 1):
            for xs in itertools.product(inputs.symbols, repeat=n):
                outs = policy.run(xs)
                for i in range(1, n + 1):
                    window = (None,) * (T - i + 1) + xs[max(0, i - 1 - T) : i - 1]
                    assert policy.output_at(window, i) == outs[i - 1], (T, table, xs, i)


def test_empty_input_gives_empty_output():
    assert run_policy(follow_the_request(), ()) == ()
    assert run_policy(MixedResettingStrategy(1, 3), ()) == ()


def test_reset_wrapper_block_structure():
    # outputs inside block k depend only on inputs since position kT+1
    T = 4
    wrapper = ResetWrapper(ThresholdMigrator(1), T)
    rng = random.Random(11)
    suffix = tuple(rng.choice("01") for _ in range(2 * T))
    outs = []
    for _ in range(25):
        prefix = tuple(rng.choice("01") for _ in range(T))
        outs.append(run_policy(wrapper, prefix + suffix)[T:])
    assert len(set(outs)) == 1


def test_reset_wrapper_restarts_the_classic_algorithm():
    wrapper = ResetWrapper(ThresholdMigrator(1), 2)
    # classic with threshold 1 follows the last request; resets clear it
    assert run_policy(wrapper, ("1", "1", "1", "1")) == ("0", "1", "0", "1")


# -- randomized runs ----------------------------------------------------------


def reference_randomized_policy():
    return RandomizedPolicy.from_entries(3, BIN, BIN, RAND_REFERENCE_ENTRIES)


def test_all_zero_randomized_table():
    policy = RandomizedPolicy(1, BIN, BIN, (Fraction(0), Fraction(0)))
    for seed in range(5):
        assert policy.run(("1", "0", "1", "1"), seed) == ("0",) * 4


def test_reference_randomized_policy_pins_zero_window():
    policy = reference_randomized_policy()
    for seed in range(10):
        assert policy.run(("0",) * 8, seed) == ("0",) * 8


def test_randomized_frequency_half():
    policy = RandomizedPolicy(1, BIN, BIN, (Fraction(1, 2), Fraction(1, 2)))
    outs = policy.run(("0",) * 10_000, seed=42)
    freq = sum(o == "1" for o in outs) / len(outs)
    assert abs(freq - 0.5) < 0.03


def test_seeded_runs_are_reproducible():
    problem = bundled_problem("file-migration")
    policy = reference_randomized_policy()
    xs = tuple(random.Random(5).choice("01") for _ in range(200))
    t1 = run_policy(policy, xs, seed=7)
    assert t1 == run_policy(policy, xs, seed=7) == policy.run(xs, 7)
    assert problem.evaluate(xs, t1).total == problem.evaluate(xs, policy.run(xs, 7)).total


# -- sliding window -----------------------------------------------------------


def test_sliding_window_rule1_examples():
    rule = SlidingWindowRule(6, 1)
    assert rule.lam == 1
    assert rule.output(("0", "0", "0", "1", "1", "1")) == "1"
    assert rule.output(("1", "1", "0", "0", "0", "0")) == "0"


def test_sliding_window_default_on_empty_horizon():
    rule = SlidingWindowRule(6, 1)
    assert rule.output((None,) * 6) == "0"


def test_sliding_window_most_recent_window_wins():
    rule = SlidingWindowRule(6, 1)
    # older 1-window, fresher 0-window
    assert rule.output(("1", "1", "1", "0", "0", "0")) == "0"
    # a 1-window ending at the very last request beats older 0-windows
    assert rule.output(("0", "0", "0", "0", "1", "1")) == "1"


def test_sliding_window_guards():
    with pytest.raises(InvalidHorizon):
        SlidingWindowRule(5, 1)
    with pytest.raises(InvalidAlpha):
        SlidingWindowRule(6, Fraction(1, 2))


def test_sliding_window_lambda_capped_by_alpha():
    assert SlidingWindowRule(12, 2).lam == 2
    assert SlidingWindowRule(12, 1).lam == 1
    assert SlidingWindowRule(18, 10).lam == 3


# -- mixed resetting ----------------------------------------------------------


def test_mixed_resetting_hand_trace():
    # k=2, T=3 on x=(a,b,c,d,e): moves happen after serving steps 2 and 5,
    # so steps 3,4,5 are served at x_2 and step 6 would be served at x_5.
    strategy = MixedResettingStrategy(2, 3)
    xs = ("1", "0", "1", "1", "1")  # a,b,c,d,e with b=0, e=1
    assert run_policy(strategy, xs) == ("0", "0", "0", "0", "0")
    xs6 = xs + ("0",)
    assert run_policy(strategy, xs6)[5] == "1"  # x_5 serves step 6


def test_mixed_resetting_constant_zero():
    strategy = MixedResettingStrategy(3, 3)
    assert run_policy(strategy, ("0",) * 10) == ("0",) * 10


def test_mixed_resetting_output_window_form():
    # step 7 with k=2, T=3: last move before 7 is at time 5
    window = ("0", "1", "0")  # x_4, x_5, x_6
    assert MixedResettingStrategy(2, 3).output_at(window, 7) == "1"
    # a window that holds no input at the move time is rejected
    with pytest.raises(ValidationError):
        MixedResettingStrategy(1, 3).output_at((None, None, None), 5)


def test_sample_mixed_resetting_uniform():
    ks = [sample_mixed_resetting(10, seed).k for seed in range(500)]
    assert set(ks) == set(range(1, 11))


# -- coin flip ----------------------------------------------------------------


def test_coin_flip_step_probability_boundary(monkeypatch):
    def moves(alpha, variate):
        # one request from elsewhere, then one more that shows where the
        # file went; every coin of the run reads `variate`
        coins = SimpleNamespace(random=lambda: variate)
        monkeypatch.setattr(policies, "random", SimpleNamespace(Random=lambda seed: coins))
        return run_coin_flip(("1", "1"), alpha, seed=0) == ("0", "1")

    assert moves(Fraction(1, 2), 0.99)  # p = 1
    assert moves(1, 0.49)
    assert not moves(1, 0.5)
    with pytest.raises(InvalidAlpha):
        moves(Fraction(1, 4), 0.1)


def test_coin_flip_move_rate():
    # a request from elsewhere moves the file with probability 1/(2*alpha)
    rng = random.Random(3)
    xs = tuple(rng.choice("01") for _ in range(100_000))
    served = run_coin_flip(xs, 2, seed=5)
    chances = sum(x != loc for x, loc in zip(xs, served[:-1]))
    moves = sum(a != b for a, b in zip(served, served[1:]))
    assert abs(moves / chances - 0.25) < 0.01


def test_run_coin_flip_costs_match_replay():
    xs = tuple(random.Random(9).choice("01") for _ in range(300))
    served = run_coin_flip(xs, 2, seed=4)
    replay = sum(x != loc for x, loc in zip(xs, served))
    moves = sum(a != b for a, b in zip(served, served[1:]))
    problem = bundled_problem("file-migration", {"alpha": "2"})
    assert coin_flip_algorithm(2).cost_on(problem, xs, 4) == replay + 2 * moves


# -- compile_to_table ---------------------------------------------------------


def test_compile_sliding_window_table():
    rule = SlidingWindowRule(6, 1)
    policy = compile_to_table(rule, 6, BIN, BIN)
    assert len(policy.table) == 64
    assert policy.run(("1",) * 7)[-1] == "1"
    ones = policy.output_alphabet.index("1")
    assert policy.table[0b111111] == ones
    assert policy.table[0b000000] == 1 - ones


def test_compiled_table_agrees_with_rule():
    rule = SlidingWindowRule(6, 1)
    policy = compile_to_table(rule, 6, BIN, BIN)
    rng = random.Random(17)
    for _ in range(100):
        xs = tuple(rng.choice("01") for _ in range(rng.randint(8, 40)))
        from_rule = run_policy(rule, xs)
        from_table = run_policy(policy, xs)
        assert from_rule[6:] == from_table[6:]


def test_constant_rule_compiles_to_constant_table():
    class Zero:
        def output(self, window):
            return "0"

    policy = compile_to_table(Zero(), 4, BIN, BIN)
    assert set(policy.table) == {0}


def test_table_guard():
    class Zero:
        def output(self, window):
            return "0"

    with pytest.raises(TableTooLarge) as err:
        compile_to_table(Zero(), 25, BIN, BIN)
    assert str(err.value) == f"|X|^25 exceeds the table guard {2**24}"


# -- invariants ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_time_locality(data):
    T = 3
    table = data.draw(st.lists(st.integers(0, 1), min_size=8, max_size=8))
    policy = DeterministicPolicy(T, BIN, BIN, tuple(table))
    shared = tuple(data.draw(st.sampled_from("01")) for _ in range(T))
    pre1 = tuple(data.draw(st.sampled_from("01")) for _ in range(data.draw(st.integers(T, 6))))
    pre2 = tuple(data.draw(st.sampled_from("01")) for _ in range(data.draw(st.integers(T, 6))))
    out1 = run_policy(policy, pre1 + shared + ("0",))
    out2 = run_policy(policy, pre2 + shared + ("0",))
    assert out1[-1] == out2[-1]


def test_pure_output_for_clocked_policies():
    strategy = MixedResettingStrategy(2, 4)
    window = ("1", "0", "1", "0")
    assert strategy.output_at(window, 9) == strategy.output_at(window, 9)


# -- policy files -------------------------------------------------------------


def test_policy_round_trip_deterministic(tmp_path):
    policy = follow_the_request()
    doc = policy_to_document(policy)
    assert doc["entries"] == {"0": "0", "1": "1"}
    again = load_policy(__import__("json").dumps(doc))
    assert again == policy


def test_policy_round_trip_randomized():
    policy = reference_randomized_policy()
    doc = policy_to_document(policy)
    assert doc["entries"]["001"] == "3309/10000"
    again = load_policy(__import__("json").dumps(doc))
    assert again.table == policy.table


def test_policy_round_trip_multi_character_tokens():
    words = Alphabet(("lo", "hi"))
    policy = DeterministicPolicy(2, words, BIN, (0, 1, 1, 0))
    doc = policy_to_document(policy)
    assert doc["entries"] == {"lo,lo": "0", "lo,hi": "1", "hi,lo": "1", "hi,hi": "0"}
    assert load_policy(doc) == policy
    behavioural = RandomizedPolicy(1, words, BIN, (Fraction(1, 3), Fraction(1)))
    assert policy_to_document(behavioural)["entries"] == {"lo": "1/3", "hi": "1"}


def test_policy_entries_reject_gaps():
    with pytest.raises(ValidationError):
        DeterministicPolicy.from_entries(2, BIN, BIN, {"00": "0"})


@pytest.mark.parametrize("horizon", [0, -1])
def test_policies_reject_a_horizon_below_one(horizon):
    """A horizon below 1 is refused at construction by both policy kinds,
    before the table size |X|^T is read from it."""
    for policy, table in ((DeterministicPolicy, (0,)), (RandomizedPolicy, (Fraction(1, 2),))):
        with pytest.raises(ValidationError, match="policy horizon must be positive"):
            policy(horizon, BIN, BIN, table)
