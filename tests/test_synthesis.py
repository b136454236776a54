import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import held
from tlsynth import ratiocycle, synthesis
from tlsynth.debruijn import cached_skeleton
from tlsynth.errors import (
    EmptyGraph,
    SearchSpaceTooLarge,
    ValidationError,
    VerificationFailed,
)
from tlsynth.exact import POS_INF, Cost, over_common_denominator
from tlsynth.policies import DeterministicPolicy, RandomizedPolicy
from tlsynth.problems import Alphabet, bundled_problem, load_problem
from tlsynth.ratiocycle import ArcStack, core_max_ratio, evaluate_policy
from tlsynth.synthesis import (
    SynthesisConfig,
    assignment_order,
    infinite_pairs,
    self_loop_constraints,
    synthesize_det,
    synthesize_rand,
    verify_lower_bound,
)

BIN = Alphabet(("0", "1"))


def migration(alpha="1"):
    return bundled_problem("file-migration", {"alpha": alpha})


# -- self-loop constraints -------------------------------------------------------


def test_forced_entries_t3():
    forced = self_loop_constraints(migration(), 3)
    assert forced == {0b000: 0, 0b111: 1}
    assert 2 ** (8 - len(forced)) == 64


def test_forced_entries_t4_count():
    forced = self_loop_constraints(migration(), 4)
    assert len(forced) == 2
    assert 2 ** (16 - len(forced)) == 2**14


def test_no_zero_cost_self_loop_means_no_forcing():
    doc = {
        "name": "taxed",
        "inputs": ["0", "1"],
        "outputs": ["0", "1"],
        "r": 1,
        "aggregation": "sum",
        "objective": "min",
        "initial_outputs": ["0"],
        "rules": [{"x": ["*", "*"], "y": ["*", "*"], "cost": "1"}],
    }
    assert self_loop_constraints(load_problem(doc), 2) == {}


# -- search tree -------------------------------------------------------------------


def test_enumerate_t1_single_candidate():
    res = synthesize_det(migration(), SynthesisConfig(horizon=1, collect_all_optimal=True))
    assert res.candidates_examined == res.full_evaluations == 1
    # follow-the-request is the only option
    assert [p.table for p in res.policies] == [(0, 1)]


def test_enumerate_t2_four_candidates():
    forced = self_loop_constraints(migration(), 2)
    # the free windows 01 and 10, in de Bruijn order from window 00
    assert assignment_order(2, 2, forced) == [0b01, 0b10]
    res = synthesize_det(
        migration(), SynthesisConfig(horizon=2, collect_all_optimal=True, prune=False)
    )
    # without forcing every table is a candidate
    assert res.candidates_examined == res.full_evaluations == 16
    # the whole tree over four windows: 1 + 2 + 4 + 8 + 16 nodes
    assert res.nodes_visited == 31
    # the optimal tables still answer the constant windows as forcing would
    for t in (p.table for p in res.policies):
        assert t[0b00] == 0 and t[0b11] == 1


def test_assignment_order_follows_de_bruijn_successors():
    forced = self_loop_constraints(migration(), 4)
    order = assignment_order(2, 4, forced)
    assert sorted(order) == sorted(set(range(16)) - set(forced))
    fixed = set(forced)
    for w in order:
        # each window extends one fixed before it by one input
        assert any((prev % 8) * 2 + w % 2 == w for prev in fixed), w
        fixed.add(w)


def test_guard_triggers_at_t5():
    problem = migration()
    with pytest.raises(SearchSpaceTooLarge) as err:
        synthesize_det(problem, SynthesisConfig(horizon=5))
    assert (err.value.base, err.value.exponent) == (2, 30)
    assert err.value.count == 2**30


@pytest.mark.parametrize(
    "search,base",
    [
        (synthesize_det, 2),
        (lambda p, c: verify_lower_bound(p, c, Fraction(3)), 2),
        (synthesize_rand, 21),
    ],
    ids=["det", "lower-bound", "rand"],
)
def test_guard_codes_no_forced_window_before_it_passes(monkeypatch, search, base):
    """The guard counts the symbols whose constant window is forced, so a
    search at T=100000 codes no window (quadratic in T) before it refuses."""
    calls = []
    code = synthesis.window_index
    monkeypatch.setattr(synthesis, "window_index", lambda *a: calls.append(a) or code(*a))
    with pytest.raises(SearchSpaceTooLarge) as err:
        search(migration(), SynthesisConfig(horizon=100_000))
    assert calls == []
    assert str(err.value) == (
        f"search space has {base}^(at least 2^99999) candidates (guard {2**26})"
    )


# -- +inf 2-cycles -----------------------------------------------------------------


def test_infinite_pairs_drop_the_infinite_two_cycle():
    for alpha in ("1/10", "1", "5"):
        for horizon in (1, 2, 3, 4):
            assert infinite_pairs(cached_skeleton(migration(alpha), horizon)) == []
    mds = bundled_problem("min-dom-set")
    skel = cached_skeleton(mds, 3)
    pairs = infinite_pairs(skel)
    assert pairs
    # 11010001 and 10001011 pay +inf on both transitions of a pair, and
    # stage 0 of their verdicts does not see that cycle
    for table in ("11010001", "10001011"):
        q = skel.q_det(tuple(map(int, table)))
        assert any(q[a] is None and q[b] is None for a, b in pairs), table
    # the lifted start gives the search an incumbent from its first leaf
    # on, so the pair check drops both, and pruning returns the 9 tables
    # that rate 3 without them
    for collect in (True, False):
        config = SynthesisConfig(horizon=3, collect_all_optimal=collect)
        res = synthesize_det(mds, config)
        tables = ["".join(map(str, p.table)) for p in res.policies]
        assert "10001011" not in tables and "11010001" not in tables
        assert res.best_ratio == Cost(3)
        assert tables[0] == "10011101" and len(tables) == (9 if collect else 1)


@pytest.mark.parametrize("step", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
def test_infinite_pairs_dropped_before_the_first_incumbent(step):
    """The deterministic start of the randomized grid searches with no
    incumbent, and the pair check drops 10001011, which pays +inf on both
    transitions of a pair, from its first leaf on too; so at every grid
    step the result is 10011101, which rates 3."""
    mds = bundled_problem("min-dom-set")
    policy, ratio = synthesize_rand(mds, SynthesisConfig(horizon=3, grid_step=step))
    assert ratio == Cost(3)
    assert "".join(map(str, policy.table)) == "10011101"


# -- deterministic synthesis -----------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,horizon,expected",
    [
        ("1", 1, Fraction(4)),
        ("1", 2, Fraction(4)),
        ("1", 3, Fraction(4)),
        ("1/2", 1, Fraction(3)),
        ("1/2", 2, Fraction(3)),
        ("1/10", 1, Fraction(11)),
        ("1/5", 1, Fraction(6)),
        ("3/10", 1, Fraction(13, 3)),
    ],
)
def test_synthesize_matches_known_ratios(alpha, horizon, expected):
    res = synthesize_det(migration(alpha), SynthesisConfig(horizon=horizon))
    assert res.best_ratio == Cost(expected)


def test_t3_examines_exactly_64_candidates():
    res = synthesize_det(migration(), SynthesisConfig(horizon=3))
    assert res.candidates_examined == 64
    assert res.forced_entries == 2


@pytest.mark.parametrize("alpha", ["1/2", "1", "2"])
@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_pruning_soundness(alpha, horizon):
    problem = migration(alpha)
    pruned = synthesize_det(problem, SynthesisConfig(horizon=horizon))
    bare = synthesize_det(
        problem,
        SynthesisConfig(horizon=horizon, prune=False),
    )
    assert pruned.best_ratio == bare.best_ratio
    assert [p.table for p in pruned.policies] == [p.table for p in bare.policies]


LIFT_CASES = [
    *(("file-migration", alpha) for alpha in ("1/10", "1/2", "1", "2", "3")),
    ("min-dom-set", None),
]


@pytest.mark.parametrize(
    "name,alpha", LIFT_CASES, ids=[f"{n}-{a}" if a else n for n, a in LIFT_CASES]
)
def test_lifted_start_keeps_the_lower_optimum(monkeypatch, name, alpha):
    """A T-1 table that ignores its oldest input rates the same at T. The
    lifted guide is the T-1 optimum so read; it is the guided search's
    first leaf, and that search's first `ArcStack.max_ratio` call rates it
    at `evaluate_policy`'s ratio of the T-1 optimum and of the lifted
    table. On file migration the search it guides returns the tables of
    the plain scan, all optimal ones."""
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    ins, outs = problem.input_alphabet, problem.output_alphabet

    class FirstSolve(Exception):
        pass

    leaves = []  # the tables of the guided search's leaves, in order
    leaf, max_ratio = synthesis._Search.leaf, ArcStack.max_ratio

    def entered(search):
        if len(search.table) == n_windows:
            leaves.append(tuple(search.table))
        return leaf(search)

    def rated(stack):
        ratio = max_ratio(stack)
        if leaves:
            raise FirstSolve(ratio)
        return ratio

    monkeypatch.setattr(synthesis._Search, "leaf", entered)
    monkeypatch.setattr(ArcStack, "max_ratio", rated)
    for horizon in (2, 3, 4):
        n_windows, n_lower = len(ins) ** horizon, len(ins) ** (horizon - 1)
        config = SynthesisConfig(horizon=horizon, collect_all_optimal=True)
        leaves.clear()
        lower = synthesize_det(problem, SynthesisConfig(horizon=horizon - 1)).policies[0]
        table = synthesis._lifted_guide(problem, config)
        assert table == tuple(lower.table[w % n_lower] for w in range(n_windows))
        with pytest.raises(FirstSolve) as first:
            synthesize_det(problem, config)
        assert leaves == [table], horizon
        ratio = Cost(first.value.args[0])
        assert ratio == evaluate_policy(problem, lower).best.ratio, horizon
        lifted = DeterministicPolicy(horizon, ins, outs, table)
        assert ratio == evaluate_policy(problem, lifted).best.ratio, horizon
        if name == "file-migration" and horizon <= 3:
            with monkeypatch.context() as patch:
                patch.setattr(ArcStack, "max_ratio", max_ratio)
                seeded, bare = (
                    synthesize_det(problem, replace(config, prune=prune))
                    for prune in (True, False)
                )
                assert seeded.best_ratio == bare.best_ratio <= ratio, horizon
                assert [p.table for p in seeded.policies] == [p.table for p in bare.policies]


def test_monotone_in_horizon():
    for alpha in ["1/2", "1"]:
        ratios = [
            synthesize_det(migration(alpha), SynthesisConfig(horizon=T)).best_ratio
            for T in (1, 2, 3)
        ]
        assert ratios[0] >= ratios[1] >= ratios[2]


def test_optimal_policies_reevaluate_exactly():
    res = synthesize_det(
        migration(), SynthesisConfig(horizon=3, collect_all_optimal=True)
    )
    assert res.policies
    for policy in res.policies:
        verdict = evaluate_policy(migration(), policy)
        assert verdict.best.ratio == res.best_ratio


def test_deterministic_rerun():
    for horizon in (3, 4):
        for collect in (True, False):
            cfg = SynthesisConfig(horizon=horizon, collect_all_optimal=collect)
            first = synthesize_det(migration(), cfg)
            second = synthesize_det(migration(), cfg)
            assert first.best_ratio == second.best_ratio
            assert [p.table for p in first.policies] == [p.table for p in second.policies]
            assert first.candidates_examined == second.candidates_examined


OPTIMAL_T4_TABLES = ["0001001100110111", "0001001100010111", "0001011100110111"]


def test_t4_alpha1_optimum_is_exactly_a1_a2_a3():
    res = synthesize_det(migration(), SynthesisConfig(horizon=4, collect_all_optimal=True))
    assert res.classification == "finite"
    assert res.best_ratio == Cost(3)
    assert ["".join(map(str, p.table)) for p in res.policies] == sorted(OPTIMAL_T4_TABLES)
    assert res.pruned_short_cycle + res.full_evaluations == res.candidates_examined == 2**14
    assert res.nodes_visited < 2**14


# ratio, nodes visited, full evaluations and optimal tables of the T=4
# search under the relaxed node bound, guided by the lifted T=3 optimum;
# then its decision tests and parametric solves (the first leaf, the
# lifted table, and one per win over it)
T4_SEARCH_SHAPE = [
    ("1/2", True, 3, 71, 2, ["0101010101010101"], 71, 1),
    ("1", True, 3, 255, 20, sorted(OPTIMAL_T4_TABLES), 258, 3),
    (
        "2",
        True,
        4,
        253,
        26,
        [
            "0000001100011111",
            "0000001100111111",
            "0000011100111111",
            *sorted(OPTIMAL_T4_TABLES),
        ],
        259,
        3,
    ),
    ("1", False, 3, 221, 14, ["0001001100010111"], 218, 3),
]


@pytest.mark.parametrize(
    "alpha,collect,ratio,nodes,evaluations,tables,decisions,solves",
    T4_SEARCH_SHAPE,
    ids=["alpha=1/2", "alpha=1", "alpha=2", "alpha=1-first-table"],
)
def test_t4_search_shape(alpha, collect, ratio, nodes, evaluations, tables, decisions, solves):
    """The nodes the relaxed bound and the lifted guide leave, the leaves
    decided, the decision tests and the solves, of the lifted table and of
    each win over it, of the T=4 searches."""
    config = SynthesisConfig(horizon=4, collect_all_optimal=collect)
    res = synthesize_det(migration(alpha), config)
    assert res.best_ratio == Cost(ratio)
    assert (res.nodes_visited, res.full_evaluations) == (nodes, evaluations)
    assert res.candidates_examined == 2**14
    assert ["".join(map(str, p.table)) for p in res.policies] == tables
    assert (res.decision_tests, res.parametric_solves) == (decisions, solves)


def test_only_leaves_that_do_not_lose_are_solved():
    res = synthesize_det(migration(), SynthesisConfig(horizon=4, collect_all_optimal=True))
    # a node takes at most one decision test, and a leaf that does not lose
    # a second one, which tells a tie from a win; only wins are solved
    assert res.full_evaluations <= res.decision_tests
    assert res.decision_tests <= res.nodes_visited + res.full_evaluations
    assert res.parametric_solves < res.full_evaluations


def remembered_run(monkeypatch, run, memory):
    """(result, verdicts, settled) of `run()` with a search memory of
    `memory` cycles: every decision's (tie rule, verdict), in order, and the
    number settled by a remembered cycle. Each of those is decided again by
    `ArcStack.exceeds` on the same stack, with a refinement move's q, which
    a remembered cycle leaves unraised, raised, and must lose there too."""
    loses = synthesis._Search.loses
    verdicts, settled = [], []

    def checked(search, tie_loses, q=()):
        cuts = search.remembered_cuts
        verdict = loses(search, tie_loses, q)
        if search.remembered_cuts > cuts:
            assert verdict
            for t, c in enumerate(q):
                search.stack.raise_q(t, c)
            assert search.stack.exceeds(search.bound, tie_loses)[0]
            settled.append(tie_loses)
        verdicts.append((tie_loses, verdict))
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(synthesis, "REMEMBERED_CYCLES", memory)
        patch.setattr(synthesis._Search, "loses", checked)
        result = run()
    if isinstance(result, synthesis.SynthesisResult):
        # the lifted start's searches are settled too, but not counted
        assert result.remembered_cuts <= min(len(settled), result.decision_tests)
        result = replace(result, remembered_cuts=0, wall_seconds=0)
    return result, verdicts, len(settled)


def lower_bound_table(problem, horizon, bound):
    holds, counter, checked = verify_lower_bound(problem, SynthesisConfig(horizon), bound)
    return holds, None if counter is None else counter.table, checked


REMEMBERED_CASES = {
    "file-migration": [
        lambda a=alpha, h=horizon, c=collect: synthesize_det(
            migration(a), SynthesisConfig(horizon=h, collect_all_optimal=c)
        )
        for alpha in ("1/10", "1/2", "1", "2", "5")
        for horizon in (1, 2, 3, 4)
        for collect in (False, True)
    ],
    "grid": [
        lambda a=alpha: synthesize_rand(
            migration(a), SynthesisConfig(horizon=2, grid_step=Fraction(1, 20))
        )
        for alpha in ("1/10", "1/5", "3/10", "1/2", "1")
    ],
    "min-dom-set": [
        lambda h=horizon, c=collect: synthesize_det(
            bundled_problem("min-dom-set"), SynthesisConfig(horizon=h, collect_all_optimal=c)
        )
        for horizon in (1, 2, 3)
        for collect in (False, True)
    ],
    "lower-bound": [
        lambda a=alpha, b=bound: lower_bound_table(migration(a), 4, b)
        for alpha, optimum in (("1/2", 3), ("1", 3), ("2", 4))
        for bound in (Fraction(optimum), optimum + Fraction(1, 100))
    ],
}


@pytest.mark.parametrize("case", sorted(REMEMBERED_CASES))
def test_remembered_cycles_only_cut_losing_decisions(monkeypatch, case):
    """A decision settled by a remembered cycle loses when `ArcStack.exceeds`
    decides it again on the same stack, and the memory changes nothing
    else: with it and without it, every search makes the same decisions
    with the same verdicts and returns the same tables, ratios and
    counters. File migration at T <= 4 with and without all optimal tables,
    the T=2 grid cells of `table2`, min-dom-set at T <= 3, and lower bounds
    at and just above the T=4 optimum. The grid's value cut is patched off
    in both runs: it cuts by the cycle that settled a leaf, which the
    memory picks, so with it the two runs decide different leaves."""
    if case == "grid":
        patch_off_value_cut(monkeypatch)
    settled = 0
    for run in REMEMBERED_CASES[case]:
        remembered = remembered_run(monkeypatch, run, synthesis.REMEMBERED_CYCLES)
        forgotten = remembered_run(monkeypatch, run, 0)
        assert remembered[:2] == forgotten[:2]
        assert forgotten[2] == 0
        settled += remembered[2]
    assert settled > 0


def test_t5_alpha2_optimum(monkeypatch):
    """The first T=5 column entry, past the paper: at alpha=2 the best ratio
    falls from 4 at T=4 to 7/2, with exactly four optimal tables."""
    monkeypatch.setattr(synthesis, "DEFAULT_CANDIDATE_GUARD", 2**30)
    res = synthesize_det(migration("2"), SynthesisConfig(horizon=5, collect_all_optimal=True))
    assert res.best_ratio == Cost(Fraction(7, 2))
    assert (res.nodes_visited, res.full_evaluations) == (25_931, 482)
    assert ["".join(map(str, p.table)) for p in res.policies] == [
        "00000001000111110000001101111111",
        "00000001000111110000101101111111",
        "00000001001011110000011101111111",
        "00000001001111110000011101111111",
    ]


def test_t5_alpha1_first_table(monkeypatch):
    """A large-graph known answer past the paper: at alpha=1 the best ratio
    stays 3 at T=5, and the relaxed node bound and the lifted start leave
    7,765 of the search's nodes."""
    monkeypatch.setattr(synthesis, "DEFAULT_CANDIDATE_GUARD", 2**30)
    res = synthesize_det(migration("1"), SynthesisConfig(horizon=5))
    assert res.best_ratio == Cost(3)
    assert res.nodes_visited == 7_765
    assert ["".join(map(str, p.table)) for p in res.policies] == [
        "00010011000001110001001100110111"
    ]


@pytest.mark.parametrize(
    "alpha,ratio,nodes",
    [("1/10", 11, 61), ("1/5", 6, 61), ("3/10", Fraction(13, 3), 61), ("1/2", 3, 299)],
)
def test_t5_small_alpha_optimum(monkeypatch, alpha, ratio, nodes):
    """The T=5 column at the small `table2` alphas, each ratio the same as
    at T=4: the lifted T=4 optimum, the alternating table, is the one
    optimal table, and the search only refutes the rest."""
    monkeypatch.setattr(synthesis, "DEFAULT_CANDIDATE_GUARD", 2**30)
    res = synthesize_det(migration(alpha), SynthesisConfig(horizon=5, collect_all_optimal=True))
    assert res.best_ratio == Cost(ratio)
    assert res.nodes_visited == nodes
    assert ["".join(map(str, p.table)) for p in res.policies] == ["01" * 16]


def test_verify_lower_bound_modes():
    holds, counter, checked = verify_lower_bound(
        migration(), SynthesisConfig(horizon=2), Fraction(4)
    )
    assert holds and counter is None and checked == 4
    holds, counter, _ = verify_lower_bound(
        migration(), SynthesisConfig(horizon=2), Fraction(9, 2)
    )
    assert not holds
    assert evaluate_policy(migration(), counter).best.ratio == Cost(4)


def count_solves(monkeypatch):
    """The ratios of the solves made from here on, in order: the search's
    `ArcStack.max_ratio` solves and the `core_max_ratio` calls made
    through `synthesis` or `ratiocycle`, each counted once."""
    solved = []
    core, stack_solve = ratiocycle.core_max_ratio, ArcStack.max_ratio

    def counted_core(*args):
        verdict = core(*args)
        solved.append(verdict[1])
        return verdict

    def counted_stack(stack):
        ratio = stack_solve(stack)
        solved.append(ratio)
        return ratio

    monkeypatch.setattr(ratiocycle, "core_max_ratio", counted_core)
    monkeypatch.setattr(synthesis, "core_max_ratio", counted_core)
    monkeypatch.setattr(ArcStack, "max_ratio", counted_stack)
    return solved


@pytest.mark.parametrize("bound", [Fraction(1, 2), Fraction(1)])
def test_bounds_up_to_one_are_decided_without_a_solve(monkeypatch, bound):
    """A bound <= 1 is decided by `ArcStack.exceeds` itself, 0/0 cycles
    included: verifying it makes no solve."""
    solved = count_solves(monkeypatch)
    holds, counter, checked = verify_lower_bound(
        migration(), SynthesisConfig(horizon=2), bound
    )
    assert holds and counter is None and checked > 0
    assert solved == []


# r=0 matching problem: the output should equal the unseen current input,
# so every policy has a free adversary cycle it pays on
PREDICT_R0 = {
    "name": "predict",
    "inputs": ["0", "1"],
    "outputs": ["0", "1"],
    "r": 0,
    "aggregation": "sum",
    "objective": "min",
    "initial_outputs": [],
    "rules": [
        {"x": ["0"], "y": ["0"], "cost": "0"},
        {"x": ["1"], "y": ["1"], "cost": "0"},
        {"x": ["*"], "y": ["*"], "cost": "1"},
    ],
}

# the same with r=1: the step cost still only compares y_i with x_i
PREDICT_R1 = {
    "name": "predict-r1",
    "inputs": ["0", "1"],
    "outputs": ["0", "1"],
    "r": 1,
    "aggregation": "sum",
    "objective": "min",
    "initial_outputs": ["0"],
    "rules": [
        {"x": ["*", "0"], "y": ["*", "0"], "cost": "0"},
        {"x": ["*", "1"], "y": ["*", "1"], "cost": "0"},
        {"x": ["*", "*"], "y": ["*", "*"], "cost": "1"},
    ],
}


# the adversary never repeats an input, so the only input cycle is
# 0101...; the first fixed transitions of the search hold no cycle
ALTERNATING = {
    "name": "alternating",
    "inputs": ["0", "1"],
    "outputs": ["0", "1"],
    "r": 1,
    "aggregation": "sum",
    "objective": "min",
    "initial_outputs": ["0"],
    "rules": [
        {"x": ["0", "0"], "y": ["*", "*"], "cost": "+inf"},
        {"x": ["1", "1"], "y": ["*", "*"], "cost": "+inf"},
        {"x": ["*", "0"], "y": ["*", "0"], "cost": "0"},
        {"x": ["*", "1"], "y": ["*", "1"], "cost": "0"},
        {"x": ["*", "*"], "y": ["*", "*"], "cost": "1"},
    ],
}


def oracle_problem(name, alpha):
    if name == "alternating":
        return load_problem(ALTERNATING)
    if name == "predict":
        return load_problem(PREDICT_R0)
    if name == "predict-r1":
        return load_problem(PREDICT_R1)
    return bundled_problem(name, {"alpha": alpha} if alpha else None)


@pytest.mark.parametrize(
    "name,alpha,horizons",
    [
        *(
            ("file-migration", alpha, (1, 2, 3))
            for alpha in ("1/10", "1/5", "3/10", "1/2", "1", "3/2", "2", "5")
        ),
        ("min-dom-set", None, (1, 2)),
        ("predict", None, (1, 2, 3)),
        ("predict-r1", None, (1, 2, 3)),
        ("alternating", None, (1, 2, 3)),
    ],
)
def test_branch_and_bound_matches_exhaustive_scan(name, alpha, horizons):
    """Pruning on (forcing, node pruning, the +inf pair check) against the
    plain scan of every table, with and without collecting ties; and
    lower-bound verification at and just above the scan's optimum."""
    problem = oracle_problem(name, alpha)
    nx, ny = len(problem.input_alphabet), len(problem.output_alphabet)
    for horizon in horizons:
        results, totals = {}, {}
        for prune, collect in itertools.product((True, False), repeat=2):
            config = SynthesisConfig(horizon=horizon, collect_all_optimal=collect, prune=prune)
            res = synthesize_det(problem, config)
            forced = self_loop_constraints(problem, horizon) if prune else {}
            total = totals[prune] = ny ** (nx**horizon - len(forced))
            assert res.pruned_short_cycle + res.full_evaluations == res.candidates_examined
            assert res.candidates_examined == total
            assert prune or res.pruned_short_cycle == 0
            results[prune, collect] = (res.best_ratio, [p.table for p in res.policies])
        ratio, tables = results[False, True]
        assert results[True, True] == (ratio, tables), horizon
        # without ties collected: the lexicographically first optimal table
        assert results[True, False] == results[False, False] == (ratio, tables[:1]), horizon
        for prune in (True, False):
            config = SynthesisConfig(horizon=horizon, prune=prune)
            # the optimum holds; with every table infinite, any finite bound does
            holding = [ratio.as_fraction()] if ratio.is_finite else [Fraction(1), Fraction(10**6)]
            for bound in holding:
                assert verify_lower_bound(problem, config, bound) == (True, None, totals[prune])
            if ratio.is_finite:
                above = ratio.as_fraction() + Fraction(1, 1000)
                holds, counter, _ = verify_lower_bound(problem, config, above)
                assert not holds, horizon
                assert evaluate_policy(problem, counter).best.ratio < Cost(above), horizon


def test_generic_path_prediction_problem_is_hopeless():
    problem = load_problem(PREDICT_R0)
    res = synthesize_det(problem, SynthesisConfig(horizon=2))
    assert res.classification == "infinite"


def brute_force_optimum(problem, horizon):
    """Minimum ratio over every table by evaluate_policy, and its tables."""
    ratios = {}
    n_windows = len(problem.input_alphabet) ** horizon
    for table in itertools.product(range(len(problem.output_alphabet)), repeat=n_windows):
        policy = DeterministicPolicy(
            horizon, problem.input_alphabet, problem.output_alphabet, table
        )
        ratios[table] = evaluate_policy(problem, policy).best.ratio
    best = min(ratios.values())
    return best, sorted(t for t, ratio in ratios.items() if ratio == best)


@pytest.mark.parametrize(
    "problem,horizon,expected,tables",
    [
        ("min-dom-set", 1, Cost(5), [(1, 1)]),
        ("min-dom-set", 2, Cost(3), [(1, 0, 1, 1)]),
        pytest.param(
            "min-dom-set",
            3,
            Cost(3),
            None,
            marks=pytest.mark.xfail(
                strict=True,
                reason="core_max_ratio misses cycles made only of +inf-q edges, "
                "so evaluate_policy rates 10001011 and 11010001 at 3; the "
                "search's infinite_pairs check drops both, which pay +inf "
                "on a 2-cycle",
            ),
        ),
        ("predict", 2, POS_INF, None),
    ],
)
def test_general_synthesis_matches_brute_force(problem, horizon, expected, tables):
    problem = load_problem(PREDICT_R0) if problem == "predict" else bundled_problem(problem)
    best, best_tables = brute_force_optimum(problem, horizon)
    assert best == expected
    if tables is not None:
        assert best_tables == tables
    res = synthesize_det(
        problem, SynthesisConfig(horizon=horizon, collect_all_optimal=True)
    )
    assert res.best_ratio == best
    if best.is_finite:
        assert res.classification == "finite"
        assert [p.table for p in res.policies] == best_tables
    else:
        assert res.classification == "infinite" and res.policies == ()


def test_reevaluation_mismatch_raises(monkeypatch):
    # only the search solves on `ArcStack.max_ratio`: the closure decides
    # each returned table on a fresh stack, so a skewed solve is caught
    # whichever way it errs
    exact = ArcStack.max_ratio
    for skew in (Fraction(1, 7), Fraction(-1, 7)):
        monkeypatch.setattr(ArcStack, "max_ratio", lambda self, skew=skew: exact(self) + skew)
        with pytest.raises(VerificationFailed):
            synthesize_det(migration(), SynthesisConfig(horizon=2))


@pytest.mark.parametrize("skew", [Fraction(1, 7), Fraction(-1, 7)])
def test_randomized_grid_mismatch_raises(monkeypatch, skew):
    exact = ArcStack.max_ratio
    monkeypatch.setattr(ArcStack, "max_ratio", lambda self: exact(self) + skew)
    monkeypatch.setattr(synthesis, "REFINEMENT_ROUNDS", 0)
    with pytest.raises(VerificationFailed):
        synthesize_rand(migration(), SynthesisConfig(horizon=2))


@pytest.mark.parametrize("skew", [Fraction(1, 7), Fraction(-1, 7)])
def test_randomized_refinement_mismatch_raises(monkeypatch, skew):
    # the refinement wins of this cell (see test_randomized_t3_pin) are
    # solved by `core_max_ratio`
    exact = synthesis.core_max_ratio

    def skewed(stack):
        kind, lam, witness, iterations = exact(stack)
        return kind, lam + skew, witness, iterations

    monkeypatch.setattr(synthesis, "core_max_ratio", skewed)
    monkeypatch.setattr(synthesis, "REFINEMENT_ROUNDS", 2)
    config = SynthesisConfig(horizon=3, grid_step=Fraction(1, 4))
    with pytest.raises(VerificationFailed):
        synthesize_rand(migration(), config)


def test_lower_bound_counterexample_mismatch_raises(monkeypatch):
    # a search whose decisions never see a loss reports the first table,
    # which rates 4 or more, as a counterexample to the bound 3
    monkeypatch.setattr(synthesis._Search, "loses", lambda self, tie_loses: False)
    with pytest.raises(VerificationFailed):
        verify_lower_bound(migration(), SynthesisConfig(horizon=2), Fraction(3))


# -- randomized synthesis -----------------------------------------------------------


def test_randomized_beats_deterministic_t2():
    policy, ratio = synthesize_rand(migration(), SynthesisConfig(horizon=2))
    assert ratio.as_fraction() <= Fraction(351, 100)
    assert policy.table[0b00] == 0 and policy.table[0b11] == 1
    # the reported table really evaluates to the reported ratio
    check = evaluate_policy(migration(), policy)
    assert check.best.ratio == ratio


@pytest.mark.parametrize(
    "horizon,prune,exponent",
    [
        (2**20, True, "(at least 2^1048575)"),
        (2**20 + 1, True, "(2^1048577 - 2)"),
        (10**9, True, "(2^1000000000 - 2)"),
        (10**9, False, "(2^1000000000)"),
    ],
)
def test_guard_keeps_a_huge_window_count_unbuilt(horizon, prune, exponent):
    """The guard's exponent, |X|^T less the forced windows, is built only
    below 2^(2^20), and is kept and named as a power above it, so a search
    at T=10**9 refuses at once, as it does at T=2**20."""
    started = time.monotonic()
    with pytest.raises(SearchSpaceTooLarge) as err:
        synthesize_det(migration(), SynthesisConfig(horizon=horizon, prune=prune))
    assert time.monotonic() - started < 0.5
    assert str(err.value) == f"search space has 2^{exponent} candidates (guard {2**26})"
    if horizon == 10**9:
        assert err.value.exponent == (2, horizon, 2 if prune else 0)


def test_randomized_guard_counts_before_building_the_grid():
    config = SynthesisConfig(horizon=2, grid_step=Fraction(1, 10**6))
    started = time.monotonic()
    with pytest.raises(SearchSpaceTooLarge) as err:
        synthesize_rand(migration(), config)
    # (10**6 + 1) grid values on each of the two free windows
    assert err.value.count == 1_000_002_000_001
    assert time.monotonic() - started < 1


def test_randomized_degenerate_grid_recovers_deterministic(monkeypatch):
    monkeypatch.setattr(synthesis, "REFINEMENT_ROUNDS", 0)
    _, ratio = synthesize_rand(migration(), SynthesisConfig(horizon=2, grid_step=Fraction(1)))
    det = synthesize_det(migration(), SynthesisConfig(horizon=2))
    assert ratio == det.best_ratio


def test_fixed_randomized_table_known_ratio():
    entries = {
        "000": "0",
        "001": "3309/10000",
        "010": "2711/10000",
        "011": "1",
        "100": "0",
        "101": "7289/10000",
        "110": "6691/10000",
        "111": "1",
    }
    policy = RandomizedPolicy.from_entries(3, BIN, BIN, entries)
    verdict = evaluate_policy(migration(), policy)
    assert Fraction(2667, 1000) <= verdict.best.ratio.as_fraction() <= Fraction(2677, 1000)


def test_randomized_all_infinite_returns_first_grid_table():
    problem = load_problem(PREDICT_R1)
    config = SynthesisConfig(horizon=2, grid_step=Fraction(1, 2))
    assert synthesize_det(problem, config).best_ratio == POS_INF
    policy, ratio = synthesize_rand(problem, config)
    assert ratio == POS_INF
    # forced constant windows, free windows at the grid's first value
    assert policy.table == (0, 0, 0, 1)


def test_randomized_needs_binary_outputs():
    three = {
        "name": "three-outputs",
        "inputs": ["0", "1"],
        "outputs": ["0", "1", "2"],
        "r": 1,
        "aggregation": "sum",
        "objective": "min",
        "initial_outputs": ["0"],
        "rules": [
            {"x": ["*", "0"], "y": ["*", "0"], "cost": "0"},
            {"x": ["*", "*"], "y": ["*", "*"], "cost": "1"},
        ],
    }
    with pytest.raises(ValidationError, match="binary outputs"):
        synthesize_rand(load_problem(three), SynthesisConfig(horizon=1))


def test_randomized_t3_pin(monkeypatch):
    """Node pruning cuts the T=3 grid of 5^6 tables: a sweep that decides
    every grid table takes about 2 s for the same answer."""
    monkeypatch.setattr(synthesis, "REFINEMENT_ROUNDS", 2)
    config = SynthesisConfig(horizon=3, grid_step=Fraction(1, 4))
    started = time.monotonic()
    policy, ratio = synthesize_rand(migration("1"), config)
    assert time.monotonic() - started < 1
    assert ratio == Cost(Fraction(65, 24))
    assert policy.table == tuple(
        Fraction(p) for p in ("0", "1/16", "1/2", "1", "0", "1", "7/16", "1")
    )


def solved_sweep(problem, config, rounds=synthesis.REFINEMENT_ROUNDS):
    """The randomized sweep with every grid table and `rounds` rounds of
    refinement tables solved by `core_max_ratio`, keeping the first table
    and then each strict improvement: (probabilities, ratio or None,
    improvements)."""
    forced = self_loop_constraints(problem, config.horizon)
    n_windows = len(problem.input_alphabet) ** config.horizon
    free = [w for w in range(n_windows) if w not in forced]
    step = config.grid_step
    grid = [k * step for k in range(math.ceil(1 / step))] + [Fraction(1)]
    skel = cached_skeleton(problem, config.horizon)

    def ratio(probs):
        ones, den = over_common_denominator(probs)
        q, unit = skel.q_rand(ones, den), skel.rand_unit(den)
        arcs = [(k, s, d, w * unit, q[t]) for k, s, d, w, t in skel.arcs]
        kind, lam, _w, _i = core_max_ratio(ArcStack.holding(skel.n_vertices, arcs))
        return lam if kind == "finite" else None

    best = None  # [probabilities, ratio]
    improvements = 0

    def consider(probs):
        nonlocal best, improvements
        lam = ratio(probs)
        if best is None:
            best = [probs, lam]
        elif lam is not None and (best[1] is None or lam < best[1]):
            best = [probs, lam]
            improvements += 1

    for assignment in itertools.product(grid, repeat=len(free)):
        probs = [Fraction(forced.get(w, 0)) for w in range(n_windows)]
        for w, p in zip(free, assignment):
            probs[w] = p
        consider(probs)
    step = config.grid_step / 2
    for _ in range(rounds):
        for w in free:
            for candidate in (best[0][w] - step, best[0][w] + step):
                if 0 <= candidate <= 1:
                    probs = list(best[0])
                    probs[w] = candidate
                    consider(probs)
        step /= 2
    return tuple(best[0]), best[1], improvements


RAND_ORACLE_CASES = [
    *(
        (f"file-migration-{alpha}-T{horizon}", migration(alpha), horizon, Fraction(1, 4), 2)
        for alpha in ("1/10", "3/10", "1/2", "1", "2")
        for horizon in (1, 2)
    ),
    # the 64 deterministic tables, 16 of them tied at the optimum 4
    ("file-migration-1-T3-grid-1", migration("1"), 3, Fraction(1), 0),
    # 3^6 grid tables, where node pruning cuts subtrees
    ("file-migration-1-T3-grid-1/2", migration("1"), 3, Fraction(1, 2), 2),
    ("file-migration-1/2-T3-grid-1/2", migration("1/2"), 3, Fraction(1, 2), 2),
    ("min-dom-set-T2", bundled_problem("min-dom-set"), 2, Fraction(1, 2), 8),
    ("predict-r1-T2", load_problem(PREDICT_R1), 2, Fraction(1, 2), 8),
    # grid steps with a numerator above 1: the multiples below 1 end at 9/10
    # and 4/5, and refinement steps by that numerator over a doubling
    # denominator; it improves the first, the second's rows hold +inf costs
    ("file-migration-1-T2-grid-3/10", migration("1"), 2, Fraction(3, 10), 8),
    ("min-dom-set-T2-grid-2/5", bundled_problem("min-dom-set"), 2, Fraction(2, 5), 8),
]


@pytest.mark.parametrize(
    "problem,horizon,step,rounds,prune,handoff",
    [
        (*case[1:], prune, handoff)
        for case in RAND_ORACLE_CASES
        for prune in (True, False)
        for handoff in (False, True)
    ],
    ids=[
        case[0] + ("" if prune else "-exhaustive") + ("-start" if handoff else "")
        for case in RAND_ORACLE_CASES
        for prune in (True, False)
        for handoff in (False, True)
    ],
)
def test_decided_sweep_matches_the_solved_sweep(
    monkeypatch, problem, horizon, step, rounds, prune, handoff
):
    """The grid search, pruned or exhaustive, deciding each table against
    the incumbent, keeps the table and the ratio that solving every grid
    table in order finds: ties keep the first table, and min-dom-set's
    general skeleton and +inf-q arcs and an all-infinite problem are
    included. With `handoff` the grid search starts from the result of
    `synthesize_det` on the same config (`start`), pruned or exhaustive
    like the sweep, instead of a deterministic search of its own."""
    monkeypatch.setattr(synthesis, "REFINEMENT_ROUNDS", rounds)
    config = SynthesisConfig(horizon=horizon, grid_step=step, prune=prune)
    probs, lam, _improvements = solved_sweep(problem, config, rounds)
    start = synthesize_det(problem, config) if handoff else None
    policy, ratio = synthesize_rand(problem, config, start=start)
    assert policy.table == probs
    assert ratio == (POS_INF if lam is None else Cost(lam))


@pytest.mark.parametrize("other", [1, 3])
def test_randomized_start_at_another_horizon_is_refused(other):
    start = synthesize_det(migration(), SynthesisConfig(horizon=other))
    with pytest.raises(ValidationError, match="horizon"):
        synthesize_rand(migration(), SynthesisConfig(horizon=2), start=start)


def test_refinement_settles_moves_by_remembered_cycles(monkeypatch):
    """At alpha=1, T=2 (grid 1/20) the refinement tries 32 moves and none
    wins. Each is decided on the grid search's stack with its cycle memory,
    which settles all 32; with no memory each gets an `ArcStack.exceeds`
    test. Either way `synthesize_rand` builds two stacks: the grid
    search's, and the verification closure's, both `ArcStack.over` the
    skeleton, not `ArcStack.holding`. So it does at T=3 (grid 1/4), where
    the refinement wins below the grid's 11/4: each win is solved on the
    grid search's own stack."""
    config = SynthesisConfig(horizon=2, grid_step=Fraction(1, 20))
    start = synthesize_det(migration(), config)
    wins = SynthesisConfig(horizon=3, grid_step=Fraction(1, 4))
    wins_start = synthesize_det(migration(), wins)
    init, exceeds, holding = ArcStack.__init__, ArcStack.exceeds, ArcStack.holding.__func__
    calls = {"init": 0, "exceeds": 0, "holding": 0}

    def counted_init(stack, *args):
        calls["init"] += 1
        init(stack, *args)

    def counted_exceeds(stack, *args, **kwargs):
        calls["exceeds"] += 1
        return exceeds(stack, *args, **kwargs)

    def counted_holding(cls, *args):
        calls["holding"] += 1
        return holding(cls, *args)

    monkeypatch.setattr(ArcStack, "__init__", counted_init)
    monkeypatch.setattr(ArcStack, "exceeds", counted_exceeds)
    monkeypatch.setattr(ArcStack, "holding", classmethod(counted_holding))
    _policy, ratio = synthesize_rand(migration(), wins, start=wins_start)
    assert ratio == Cost(Fraction(5469, 2048))
    assert (calls["init"], calls["holding"]) == (2, 0)
    for memory, tested in ((synthesis.REMEMBERED_CYCLES, 0), (0, 32)):
        monkeypatch.setattr(synthesis, "REMEMBERED_CYCLES", memory)
        decisions = []
        for rounds in (0, synthesis.REFINEMENT_ROUNDS):
            monkeypatch.setattr(synthesis, "REFINEMENT_ROUNDS", rounds)
            calls.update(init=0, exceeds=0, holding=0)
            _policy, ratio = synthesize_rand(migration(), config, start=start)
            assert ratio == Cost(Fraction(7, 2))
            assert (calls["init"], calls["holding"]) == (2, 0)
            decisions.append(calls["exceeds"])
        assert decisions[1] - decisions[0] == tested


def test_randomized_sweep_shape(monkeypatch):
    """The randomized twin of `test_t4_search_shape`: from the grid search
    on, every solve is a win. The deterministic start solves the T=1
    optimum 4 and rates its lift at 4, which is the T=2 optimum, so its
    search solves nothing; the grid search starts below that and the
    refinement below the grid's result, so the solved ratios fall
    strictly; every other table is decided."""
    config = SynthesisConfig(horizon=2, grid_step=Fraction(1, 20))
    probs, lam, _improvements = solved_sweep(migration(), config)
    solved = count_solves(monkeypatch)
    policy, ratio = synthesize_rand(migration(), config)
    assert (policy.table, ratio) == (probs, Cost(Fraction(7, 2))) and lam == Fraction(7, 2)
    assert len(solved) == 15
    assert solved[:2] == [4, 4] and solved[-1] == Fraction(7, 2)
    assert all(later < earlier for earlier, later in zip(solved[1:], solved[2:]))


@pytest.mark.parametrize("alpha", ["1/10", "1/5", "3/10", "1/2", "1"])
def test_randomized_pruning_matches_exhaustive_grid(alpha):
    """Over the `table2` alphas and grid, the pruned grid search gives the
    table and ratio of the exhaustive one."""
    for horizon in (1, 2):
        (pruned, pruned_ratio), (full, full_ratio) = (
            synthesize_rand(
                migration(alpha),
                SynthesisConfig(horizon=horizon, grid_step=Fraction(1, 20), prune=prune),
            )
            for prune in (True, False)
        )
        assert (pruned.table, pruned_ratio) == (full.table, full_ratio), horizon


def patch_off_value_cut(patch):
    """Turn off the grid's value cut at the node whose children are leaves."""
    patch.setattr(synthesis._Search, "cut_line", lambda search, cycle, window: None)


def grid_search(monkeypatch, run):
    """(run(), the grid search, which is the last `_Search` it made, and
    that search's (bound, incumbent tables) as it was made)."""
    made = []
    init = synthesis._Search.__init__

    def tracked(search, *args, **kwargs):
        init(search, *args, **kwargs)
        made.append((search, (search.bound, list(search.tables))))

    with monkeypatch.context() as patch:
        patch.setattr(synthesis._Search, "__init__", tracked)
        result = run()
    return (result, *made[-1])


START_CASES = [
    *(("file-migration", alpha, 2, Fraction(1, 20)) for alpha in ("1/10", "1", "2")),
    ("file-migration", "1", 3, Fraction(1, 2)),
    ("min-dom-set", None, 2, Fraction(1, 4)),
    ("predict-r1", None, 2, Fraction(1, 2)),
]


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "exhaustive"])
@pytest.mark.parametrize(
    "name,alpha,horizon,step",
    START_CASES,
    ids=[f"{name}-{alpha}-T{horizon}" for name, alpha, horizon, _step in START_CASES],
)
def test_grid_search_starts_from_the_deterministic_optimum(
    monkeypatch, name, alpha, horizon, step, prune
):
    """The grid search is made with `synthesize_det`'s ratio as its bound
    and its lexicographically first optimal table, each output times the
    search's denominator, as its incumbent; with neither when every table is
    infinite (PREDICT_R1). With and without pruning, and the same when
    that result is handed over as `start`."""
    if name == "predict-r1":
        problem = load_problem(PREDICT_R1)
    else:
        problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    config = SynthesisConfig(horizon=horizon, grid_step=step, prune=prune)
    _result, search, start = grid_search(monkeypatch, lambda: synthesize_rand(problem, config))
    det = synthesize_det(problem, config)
    handed = grid_search(monkeypatch, lambda: synthesize_rand(problem, config, start=det))
    assert handed[2] == start
    if det.best_ratio.is_finite:
        first = tuple(search.corners[1] * output for output in det.policies[0].table)
        assert start == (det.best_ratio.as_fraction(), [first])
    else:
        assert name == "predict-r1" and start == (None, [])


# nodes visited and leaves decided by the grid search (after its
# deterministic start) at the T=2 `table2` cells, grid 1/20: every other
# of the 441 grid tables is cut by the node bound, the value cut at the
# last window or the +inf-pair check; then its decisions, remembered cuts
# and solves after refinement, which decides its moves on the same stack,
# where q's unit meets the weights
GRID_SEARCH_SHAPE = {
    "1/10": (26, 4, 43, 37, 0),
    "1/5": (28, 6, 45, 37, 0),
    "3/10": (30, 8, 47, 37, 0),
    "1/2": (34, 12, 51, 37, 0),
    "1": (74, 52, 107, 69, 13),
}


@pytest.mark.parametrize("alpha", sorted(GRID_SEARCH_SHAPE))
def test_grid_search_shape(monkeypatch, alpha):
    config = SynthesisConfig(horizon=2, grid_step=Fraction(1, 20))
    _result, search, _start = grid_search(
        monkeypatch, lambda: synthesize_rand(migration(alpha), config)
    )
    assert (search.nodes, search.evaluated) == GRID_SEARCH_SHAPE[alpha][:2]
    assert search.pruned + search.evaluated == 21**2
    after = (search.decisions, search.remembered_cuts, search.solves)
    assert after == GRID_SEARCH_SHAPE[alpha][2:]


def test_exhaustive_grid_visits_every_table(monkeypatch):
    """Without pruning the grid search is the reference scan: no node
    bound and no value cut, so every one of the 21^2 tables is a leaf."""
    config = SynthesisConfig(horizon=2, grid_step=Fraction(1, 20), prune=False)
    _result, search, _start = grid_search(
        monkeypatch, lambda: synthesize_rand(migration("1"), config)
    )
    assert (search.nodes, search.evaluated, search.pruned) == (1 + 21 + 21**2, 21**2, 0)


def grid_leaves(monkeypatch, problem, config, cut):
    """((table, ratio) of `synthesize_rand`, the leaves its searches visit
    in order, each as (the search's denominator, table, bound in force));
    with `cut` False, the value cut is patched off."""
    leaf = synthesis._Search.leaf
    leaves = []

    def recorded(search):
        leaves.append((search.corners[1], tuple(search.table), search.bound))
        return leaf(search)

    with monkeypatch.context() as patch:
        patch.setattr(synthesis._Search, "leaf", recorded)
        if not cut:
            patch_off_value_cut(patch)
        policy, ratio = synthesize_rand(problem, config)
    return (policy.table, ratio), leaves


GRID_CUT_CASES = [
    *(("file-migration", alpha, 2, Fraction(1, 20)) for alpha in GRID_SEARCH_SHAPE),
    *(("file-migration", alpha, 3, Fraction(1, 8)) for alpha in ("1", "2")),
    ("min-dom-set", None, 2, Fraction(1, 4)),
]


@pytest.mark.parametrize(
    "name,alpha,horizon,step",
    GRID_CUT_CASES,
    ids=[f"{name}-{alpha}-T{horizon}" for name, alpha, horizon, _step in GRID_CUT_CASES],
)
def test_grid_value_cuts_only_skip_losing_tables(monkeypatch, name, alpha, horizon, step):
    """Each table the value cut skips, read from the leaves the search
    visits with and without it, rates above the bound in force when it was
    skipped, by `evaluate_policy` on its own; with the cut off the search
    visits the same leaves plus the skipped ones, under the same bounds, and
    returns the same table and ratio. The `table2` cells at T=2, file
    migration at T=3, and min-dom-set, whose grid leaves lose by +inf pairs
    and ties rather than by a cycle, so nothing is skipped there."""
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    config = SynthesisConfig(horizon=horizon, grid_step=step)
    result, visited = grid_leaves(monkeypatch, problem, config, cut=True)
    reference, every = grid_leaves(monkeypatch, problem, config, cut=False)
    assert result == reference
    remaining = iter(visited)
    upcoming = next(remaining, None)
    skipped = []
    for leaf in every:
        if leaf == upcoming:
            upcoming = next(remaining, None)
        else:
            skipped.append(leaf)
    assert upcoming is None  # the cut search's leaves are among the reference's, in order
    assert bool(skipped) == (name == "file-migration")
    ins, outs = problem.input_alphabet, problem.output_alphabet
    for den, table, bound in skipped:
        probs = tuple(Fraction(value, den) for value in table)
        ratio = evaluate_policy(problem, RandomizedPolicy(horizon, ins, outs, probs)).best.ratio
        assert bound is not None
        assert ratio == POS_INF or ratio.as_fraction() > bound, (table, bound)


@pytest.mark.parametrize(
    "name,alpha,step",
    [("file-migration", "1", Fraction(1, 4)), ("min-dom-set", None, Fraction(1, 4))],
)
def test_grid_value_cut_line_is_exact_or_absent(name, alpha, step):
    """At the node whose children are leaves, along seeded random paths,
    `cut_line` of each single arc gives den times its weight under the
    strict weights of the bound, at every value of the last window, as
    `expected_cost` gives it on the full table; or None, exactly when the
    arc's transition reads the window twice or more, or has a +inf q at a
    value. With no bound there is no line. min-dom-set (r=2) has
    transitions reading the window twice and +inf costs."""
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    den = step.denominator
    grid = ([k * step.numerator for k in range(math.ceil(1 / step))] + [den], den)
    forced = {w: y * den for w, y in self_loop_constraints(problem, 2).items()}
    search = synthesis._Search(problem, SynthesisConfig(horizon=2), forced, grid=grid)
    depth, transitions = len(search.order) - 1, search.skel.transitions
    window = search.order[depth]
    rng = random.Random(f"{name}-{alpha}")
    for _path in range(4):
        entered = []
        for d in range(depth + 1):
            if d:
                search.table[search.order[d - 1]] = rng.choice(search.values)
            entered.append(search.enter(d))
        search.bound = None
        assert search.cut_line([search.skel.arcs[0][3:]], window) is None
        search.bound = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        a, b = search.stack.weights(search.bound, False)
        for _k, _s, _d, w, t in search.skel.arcs:
            # the window holds a leaf's value when the search draws a line
            search.table[window] = rng.choice(search.values)
            line = search.cut_line([(w, t)], window)
            row, codes = transitions[t]
            qs = []
            for value in search.values:
                search.table[window] = value
                qs.append(search.q_reads(row, [search.table[code] for code in codes]))
            search.table[window] = 0
            if codes.count(window) > 1 or None in qs:
                assert line is None, (t, codes)
                continue
            for value, q in zip(search.values, qs):
                assert line[0] + line[1] * value == den * (a * w - b * q)
        for mark in reversed(entered):
            search.stack.pop_to(mark)
        for w in search.order:
            search.table[w] = 0


RELAXED_BOUND_CASES = [
    *(
        ("file-migration", alpha, horizon, None)
        for alpha in ("1/10", "1", "2")
        for horizon in (1, 2, 3)
    ),
    *(("min-dom-set", None, horizon, None) for horizon in (1, 2, 3)),
    *(("file-migration", alpha, 2, Fraction(1, 4)) for alpha in ("1/10", "1/2", "1", "2")),
    ("min-dom-set", None, 2, Fraction(1, 4)),
]


@pytest.mark.parametrize(
    "name,alpha,horizon,step",
    RELAXED_BOUND_CASES,
    ids=[
        f"{name}-{alpha}-T{horizon}" + ("" if step is None else "-grid")
        for name, alpha, horizon, step in RELAXED_BOUND_CASES
    ],
)
def test_relaxed_node_bound_is_a_lower_bound(name, alpha, horizon, step):
    """At every node along seeded random paths of the pruned search, the
    maximum ratio of the stack, relaxed arcs included, is at most the exact
    ratio of seeded random completions of the node's table, and an
    infinite one is infinite in each. The stack's own decisions agree with
    the ratio of the arcs it holds, one q per transition, its tightest."""
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    forced = self_loop_constraints(problem, horizon)
    ins, outs = problem.input_alphabet, problem.output_alphabet
    if step is None:
        grid = None

        def policy(table):
            return DeterministicPolicy(horizon, ins, outs, table)

    else:
        den = step.denominator
        grid = ([k * step.numerator for k in range(math.ceil(1 / step))] + [den], den)
        forced = {w: output * den for w, output in forced.items()}

        def policy(table):
            return RandomizedPolicy(horizon, ins, outs, tuple(Fraction(v, den) for v in table))

    search = synthesis._Search(problem, SynthesisConfig(horizon=horizon), forced, grid=grid)
    n = search.skel.n_vertices
    rng = random.Random(f"{name}-{alpha}-{horizon}-{step}")
    for _path in range(6):
        entered = []
        for depth in range(len(search.order) + 1):
            if depth:
                search.table[search.order[depth - 1]] = rng.choice(search.values)
            entered.append(search.enter(depth))
            # the stack holds each transition's tightest arcs only
            tightest = held(search.stack)
            try:
                kind, lam, _w, _i = core_max_ratio(ArcStack.holding(n, tightest))
            except EmptyGraph:  # no cycle yet: no bound
                continue
            if kind == "infinite":
                assert search.stack.exceeds(None)[0]
            else:
                assert not search.stack.exceeds(lam)[0]
                assert search.stack.exceeds(lam, ties_lose=True)[0]
            for _completion in range(3):
                table = list(search.table)
                for window in search.order[depth:]:
                    table[window] = rng.choice(search.values)
                ratio = evaluate_policy(problem, policy(table)).best.ratio
                if kind == "infinite":
                    assert ratio == POS_INF, (table, depth)
                elif ratio.is_finite:
                    assert lam <= ratio.as_fraction(), (table, depth)
        for mark in reversed(entered):
            search.stack.pop_to(mark)
        for window in search.order:
            search.table[window] = 0
        assert search.stack.log == [] and set(search.q) == {-1}
