import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from conftest import out_edges
from tlsynth.debruijn import (
    _general_skeleton,
    _split_skeleton,
    build_graph_det,
    build_graph_rand,
    cached_skeleton,
    expected_cost,
    serve_switch_split,
)
from tlsynth.errors import UnsupportedAggregation
from tlsynth.exact import POS_INF, Cost, over_common_denominator
from tlsynth.policies import DeterministicPolicy, RandomizedPolicy, run_policy
from tlsynth.problems import Alphabet, bundled_problem, load_problem, offline_opt
from tlsynth.ratiocycle import ArcStack, brute_force_max_ratio, core_max_ratio, evaluate_policy

BIN = Alphabet(("0", "1"))


def det_policy(T, entries):
    return DeterministicPolicy.from_entries(T, BIN, BIN, entries)


def always_zero(T):
    return DeterministicPolicy(T, BIN, BIN, (0,) * (2**T))


@pytest.fixture(scope="module")
def migration():
    return bundled_problem("file-migration")


# -- structure ----------------------------------------------------------------


def test_dual_graph_shape_t2(migration):
    policy = always_zero(2)
    graph = build_graph_det(migration, policy)
    assert graph.n_vertices == 8  # |X|^T * |Y| for T=2
    assert len(graph.edges) == 32
    for ids in out_edges(graph):
        assert len(ids) == 4  # |X| * |Y| choices per vertex


def test_successor_soundness(migration):
    policy = det_policy(2, {"00": "0", "01": "1", "10": "0", "11": "1"})
    graph = build_graph_det(migration, policy)
    for e in graph.edges:
        src_win, _ = graph.vertex_parts(e.src)
        dst_win, dst_adv = graph.vertex_parts(e.dst)
        assert dst_win == tuple(src_win[1:]) + (e.x,)
        assert dst_adv[-1] == e.b


def test_graph_size_general_r():
    problem = bundled_problem("min-dom-set")  # r=2, not serve/switch-splittable
    policy = DeterministicPolicy(1, problem.input_alphabet, problem.output_alphabet, (0, 0))
    graph = build_graph_det(problem, policy)
    # conservative form: |X|^(T+r) vertices times |Y|^r adversary states
    assert graph.win_len == 3
    assert graph.n_vertices == 2**3 * 2**2


def test_unsupported_aggregation():
    problem = bundled_problem("load-balancing")
    policy = DeterministicPolicy(1, problem.input_alphabet, problem.output_alphabet, (0, 0))
    with pytest.raises(UnsupportedAggregation):
        build_graph_det(problem, policy)


# -- edge costs ---------------------------------------------------------------


def test_serve_switch_split_matches_table(migration):
    serve, switch = serve_switch_split(migration)
    for a in range(2):
        for x in range(2):
            for y in range(2):
                assert serve[a, x, y] == (1 if x != y else 0)
    assert switch[0, 1] == switch[1, 0] == 1  # alpha = 1
    assert switch[0, 0] == switch[1, 1] == 0


def test_self_loop_costs_always_zero_policy(migration):
    policy = always_zero(1)
    graph = build_graph_det(migration, policy)
    # vertex: window (1), adversary at 1; edge consuming 1, adversary stays
    v = 1 * 2 + 1
    loops = [e for e in graph.edges if e.src == e.dst == v and e.x == 1 and e.b == 1]
    assert len(loops) == 1
    assert loops[0].w == Cost(0)
    assert loops[0].q == Cost(1)


def test_all_zero_self_loop_free_for_any_policy(migration):
    for table in [(0, 0, 0, 1), (0, 1, 0, 1), (0, 1, 1, 1)]:
        policy = DeterministicPolicy(2, BIN, BIN, table)
        graph = build_graph_det(migration, policy)
        v = 0  # window 00, adversary at 0
        loops = [e for e in graph.edges if e.src == e.dst == v and e.x == 0]
        assert len(loops) == 1
        assert loops[0].w == Cost(0) and loops[0].q == Cost(0)


def test_randomized_degenerate_equals_deterministic(migration):
    table = (0, 1, 0, 1)
    det = DeterministicPolicy(2, BIN, BIN, table)
    rand = RandomizedPolicy(2, BIN, BIN, tuple(Fraction(t) for t in table))
    g1 = build_graph_det(migration, det)
    g2 = build_graph_rand(migration, rand)
    assert g1.n_vertices == g2.n_vertices
    for e1, e2 in zip(g1.edges, g2.edges):
        assert (e1.src, e1.dst, e1.x, e1.b) == (e2.src, e2.dst, e2.x, e2.b)
        assert e1.w == e2.w and e1.q == e2.q


def test_randomized_degenerate_equals_deterministic_general():
    # behavioral q on the (T+r)-window construction: a 0/1 table is the
    # deterministic table, +inf costs included
    problem = bundled_problem("min-dom-set")
    alphabets = (problem.input_alphabet, problem.output_alphabet)
    for table in [(1, 0, 1, 1), (0, 0, 0, 1)]:
        det = DeterministicPolicy(2, *alphabets, table)
        rand = RandomizedPolicy(2, *alphabets, tuple(Fraction(t) for t in table))
        g1 = build_graph_det(problem, det)
        g2 = build_graph_rand(problem, rand)
        assert g1.dump() == g2.dump()
    # three unselected nodes in a row (+inf) have positive probability
    half = RandomizedPolicy(2, *alphabets, (Fraction(1, 2),) * 4)
    assert all(e.q == POS_INF for e in build_graph_rand(problem, half).edges)


def test_randomized_expected_cost_formula(migration):
    # A(window) = 1/2 everywhere; on x=1 the expected edge cost is
    # mismatch 1/2 plus switching 1*(1/4 + 1/4) = 1
    policy = RandomizedPolicy(1, BIN, BIN, (Fraction(1, 2), Fraction(1, 2)))
    graph = build_graph_rand(migration, policy)
    for e in graph.edges:
        if e.x == 1:
            assert e.q == Cost(1)


@pytest.mark.parametrize("name", ["file-migration", "min-dom-set"])
def test_q_rand_over_a_shared_denominator(name):
    """A table's numerators over any common denominator give every
    transition the same expected q: q / rand_unit(den) does not depend on
    den, so a search can fix den for all its tables. On min-dom-set a
    +inf row entry reached with probability 0 costs nothing."""
    problem = bundled_problem(name)
    skel = cached_skeleton(problem, 2)
    rng = random.Random(5)
    values = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
    finite_past_inf = 0  # finite q on transitions with a +inf row entry
    for _ in range(40):
        probs = [rng.choice(values) for _ in range(4)]
        ones, den = over_common_denominator(probs)
        per_table = skel.q_rand(ones, den)
        shared = 12 * 5  # a multiple of every denominator in `values`
        wide = skel.q_rand([int(p * shared) for p in probs], shared)
        for t, (q, q_wide) in enumerate(zip(per_table, wide)):
            if q is None:
                assert q_wide is None
                continue
            assert Fraction(q, skel.rand_unit(den)) == Fraction(q_wide, skel.rand_unit(shared))
            finite_past_inf += None in skel.rows[skel.transitions[t][0]]
    assert (finite_past_inf > 0) == (name == "min-dom-set")


@pytest.mark.parametrize("name", ["file-migration", "min-dom-set"])
def test_expected_cost_at_corners_is_the_row_entry(name):
    """Reads of probability 0 or 1 give the deterministic row entry, in
    the unit den ** reads: the grid's corners are its deterministic tables."""
    skel = cached_skeleton(bundled_problem(name), 2)
    den = 6
    for row, codes in skel.transitions:
        k = len(codes)
        for y, cost in enumerate(skel.rows[row]):
            reads = [(y >> (k - 1 - j) & 1) * den for j in range(k)]
            expected = None if cost is None else cost * den**k
            assert expected_cost(skel.rows[row], reads, den) == expected


# -- cycle-cost realization -----------------------------------------------------


def _random_cycle(graph, rng, max_len=60):
    start = rng.randrange(graph.n_vertices)
    v = start
    edges = []
    out = out_edges(graph)
    for _ in range(max_len):
        k = rng.choice(out[v])
        edges.append(k)
        v = graph.edges[k].dst
        if v == start:
            return edges
    return None


def test_cycle_cost_realization(migration):
    rng = random.Random(23)
    T = 2
    checked = 0
    for _ in range(60):
        table = tuple(rng.randint(0, 1) for _ in range(4))
        policy = DeterministicPolicy(T, BIN, BIN, table)
        graph = build_graph_det(migration, policy)
        cycle = _random_cycle(graph, rng)
        if cycle is None:
            continue
        checked += 1
        xs = tuple(graph.problem.input_alphabet.symbols[graph.edges[k].x] for k in cycle)
        q = sum(graph.edges[k].q.as_fraction() for k in cycle)
        w = sum(graph.edges[k].w.as_fraction() for k in cycle)
        reps = 30
        seq = xs * reps
        max_cost = Fraction(2)  # 1 + alpha at alpha = 1
        bound = (T + migration.horizon_r) * max_cost
        alg = migration.evaluate(seq, run_policy(policy, seq)).total.as_fraction()
        assert abs(alg - reps * q) <= bound
        opt, _ = offline_opt(migration, seq)
        assert opt.as_fraction() <= reps * w + bound
    assert checked >= 20


def test_general_path_cycle_realization():
    # r=2 problem goes through the conservative construction; the edge
    # costs must still telescope to the simulated totals
    problem = bundled_problem("min-dom-set")
    select_all = DeterministicPolicy(
        1, problem.input_alphabet, problem.output_alphabet, (1, 1)
    )
    graph = build_graph_det(problem, select_all)
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        cycle = _random_cycle(graph, rng)
        if cycle is None:
            continue
        q = sum(graph.edges[k].q.as_fraction() for k in cycle)
        xs = tuple(graph.problem.input_alphabet.symbols[graph.edges[k].x] for k in cycle)
        reps = 25
        seq = xs * reps
        alg = problem.evaluate(seq, run_policy(select_all, seq)).total.as_fraction()
        bound = (1 + problem.horizon_r) * Fraction(2)  # max weight is 2
        assert abs(alg - reps * q) <= bound
        checked += 1
    assert checked >= 10


def test_dump_mentions_costs(migration):
    policy = always_zero(1)
    graph = build_graph_det(migration, policy)
    text = graph.dump()
    assert "w=0" in text and "q=1" in text and "vertex 0" in text


# -- skeletons ------------------------------------------------------------------


@pytest.mark.parametrize("alpha", ["1/2", "1", "2"])
def test_serve_switch_skeleton_matches_general_skeleton(alpha):
    # the general (T+r)-window construction charges true step costs and
    # is the reference for the telescoped serve/switch one
    problem = bundled_problem("file-migration", {"alpha": alpha})
    for horizon in (1, 2, 3):
        split = _split_skeleton(problem, horizon, *serve_switch_split(problem))
        general = _general_skeleton(problem, horizon)
        for table in itertools.product((0, 1), repeat=2**horizon):
            verdicts = []
            for s in (split, general):
                q = s.q_det(table)
                arcs = [(k, src, dst, w, q[t]) for k, src, dst, w, t in s.arcs]
                verdicts.append(core_max_ratio(ArcStack.holding(s.n_vertices, arcs))[:2])
            assert verdicts[0] == verdicts[1], (horizon, table)


def test_skeleton_lives_and_dies_with_its_problem():
    base = bundled_problem("file-migration")
    refs = []
    for alpha in ("1/2", "1", "2"):
        problem = base.with_parameters({"alpha": alpha})
        skel = cached_skeleton(problem, 2)
        assert cached_skeleton(problem, 2) is skel
        refs.append(weakref.ref(problem))
    del problem, skel
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_split_with_a_negative_edge_q_falls_back_to_the_general_skeleton():
    # the cost splits as serve = (1, 5) for outputs (0, 1) plus
    # switch(0, 1) = -4, so the split skeleton would charge the transition
    # reading outputs (0, 1) serve(0) + switch(0, 1) = -3
    problem = load_problem(
        {
            "name": "costly-ones",
            "inputs": ["0", "1"],
            "outputs": ["0", "1"],
            "r": 1,
            "aggregation": "sum",
            "objective": "min",
            "initial_outputs": ["0"],
            "rules": [
                {"x": ["*", "*"], "y": ["1", "1"], "cost": "5"},
                {"x": ["*", "*"], "y": ["*", "*"], "cost": "1"},
            ],
        }
    )
    assert serve_switch_split(problem) is None
    assert cached_skeleton(problem, 1).win_len == 2
    for table in itertools.product((0, 1), repeat=2):
        policy = DeterministicPolicy(1, BIN, BIN, table)
        verdict = evaluate_policy(problem, policy)
        oracle = brute_force_max_ratio(build_graph_det(problem, policy))
        assert verdict.classification == "finite"
        assert verdict.best.ratio == oracle.best.ratio
