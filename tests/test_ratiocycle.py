import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import held, make_graph, out_edges, random_dual_graph
from tlsynth import ratiocycle
from tlsynth.debruijn import (
    build_graph_det,
    build_graph_rand,
    cached_skeleton,
    policy_q,
)
from tlsynth.errors import EmptyGraph, GraphTooLarge
from tlsynth.exact import POS_INF, Cost, cost_sum, over_common_denominator
from tlsynth.policies import DeterministicPolicy, RandomizedPolicy, run_policy
from tlsynth.problems import Alphabet, bundled_problem, load_problem, offline_opt
from tlsynth.ratiocycle import (
    BRUTE_FORCE_VERTEX_GUARD,
    _TIGHT_SEARCH_CAP,
    ArcStack,
    _out_arcs,
    _prepare,
    _simple_cycles,
    brute_force_max_ratio,
    core_max_ratio,
    evaluate_policy,
    max_ratio_cycle,
    walk_ratio,
)
from tlsynth.synthesis import SynthesisConfig, self_loop_constraints, synthesize_det

BIN = Alphabet(("0", "1"))


# -- small fixed graphs --------------------------------------------------------


def test_single_self_loop(migration_problem):
    graph = make_graph(migration_problem, 1, [(0, 0, 1, 3)])
    verdict = max_ratio_cycle(graph)
    assert verdict.classification == "finite"
    assert verdict.best.ratio == Cost(3)


def test_two_cycle_ratio(migration_problem):
    graph = make_graph(migration_problem, 2, [(0, 1, 1, 1), (1, 0, 1, 4)])
    verdict = max_ratio_cycle(graph)
    assert verdict.best.ratio == Cost(Fraction(5, 2))
    assert brute_force_max_ratio(graph).best.ratio == Cost(Fraction(5, 2))


def test_zero_w_positive_q_is_infinite(migration_problem):
    graph = make_graph(migration_problem, 1, [(0, 0, 0, 1)])
    verdict = max_ratio_cycle(graph)
    assert verdict.classification == "infinite"
    assert verdict.best.ratio == POS_INF
    assert brute_force_max_ratio(graph).classification == "infinite"


def test_all_zero_cycles_rate_one(migration_problem):
    graph = make_graph(migration_problem, 2, [(0, 1, 0, 0), (1, 0, 0, 0)])
    verdict = max_ratio_cycle(graph)
    assert verdict.classification == "finite"
    assert verdict.best.ratio == Cost(1)
    assert verdict.best.q == Cost(0) and verdict.best.w == Cost(0)


def test_zero_zero_cycle_beats_small_ratio(migration_problem):
    graph = make_graph(
        migration_problem, 2, [(0, 0, 2, 1), (0, 1, 0, 0), (1, 0, 0, 0)]
    )
    assert max_ratio_cycle(graph).best.ratio == Cost(1)
    assert brute_force_max_ratio(graph).best.ratio == Cost(1)


def test_all_q_zero_gives_ratio_zero(migration_problem):
    graph = make_graph(migration_problem, 1, [(0, 0, 3, 0)])
    assert max_ratio_cycle(graph).best.ratio == Cost(0)
    assert brute_force_max_ratio(graph).best.ratio == Cost(0)


def test_infinite_w_edges_are_ignored(migration_problem):
    graph = make_graph(
        migration_problem, 1, [(0, 0, POS_INF, Cost(100)), (0, 0, 1, 2)]
    )
    assert max_ratio_cycle(graph).best.ratio == Cost(2)
    assert brute_force_max_ratio(graph).best.ratio == Cost(2)


def test_infinite_q_cycle_is_infinite(migration_problem):
    graph = make_graph(migration_problem, 2, [(0, 1, 1, POS_INF), (1, 0, 1, 1)])
    verdict = max_ratio_cycle(graph)
    assert verdict.classification == "infinite"
    assert brute_force_max_ratio(graph).classification == "infinite"


def test_negative_costs_rejected(migration_problem):
    graph = make_graph(migration_problem, 1, [(0, 0, 1, -1)])
    with pytest.raises(ValueError):
        max_ratio_cycle(graph)


def zero_diamond_graph(problem):
    """20 zero-cost diamonds (2^20 paths) in front of a zero/zero 2-cycle,
    beside a ratio-1/2 self-loop."""
    quads = []
    for level in range(20):
        head = 3 * level
        quads += [(head, head + 1, 0, 0), (head, head + 2, 0, 0)]
        quads += [(head + 1, head + 3, 0, 0), (head + 2, head + 3, 0, 0)]
    tail = 60
    quads += [(tail, tail + 1, 0, 0), (tail + 1, tail, 0, 0), (0, 0, 2, 1)]
    return make_graph(problem, tail + 2, quads)


def test_zero_cycle_behind_many_zero_paths(migration_problem):
    # the zero/zero cycle pins the ratio at 1
    verdict = max_ratio_cycle(zero_diamond_graph(migration_problem))
    assert verdict.classification == "finite"
    assert verdict.best.ratio == Cost(1)
    assert verdict.best.q == Cost(0) and verdict.best.w == Cost(0)
    # the canonical-witness search gives up on the 2^20 tight paths
    assert not verdict.witness_certified


def test_empty_graph(migration_problem):
    graph = make_graph(migration_problem, 0, [])
    with pytest.raises(EmptyGraph):
        max_ratio_cycle(graph)


def test_brute_force_guard(migration_problem):
    quads = [(v, (v + 1) % 15, 1, 1) for v in range(15)]
    graph = make_graph(migration_problem, 15, quads)
    with pytest.raises(GraphTooLarge):
        brute_force_max_ratio(graph)


# -- oracle equivalence ---------------------------------------------------------


def zero_w_cycle_graph(problem, rng):
    """A `random_dual_graph` with a cycle of zero-w arcs through one to
    three of its vertices planted in it, one arc of positive q: a ratio
    made infinite by stage 1 of `core_max_ratio`."""
    graph = random_dual_graph(problem, rng)
    quads = [(e.src, e.dst, e.w, e.q) for e in graph.edges]
    ring = rng.sample(range(graph.n_vertices), rng.randint(1, min(3, graph.n_vertices)))
    paid = rng.randrange(len(ring))
    for i, v in enumerate(ring):
        q = rng.randint(1, 3) if i == paid else rng.randint(0, 3)
        quads.append((v, ring[(i + 1) % len(ring)], 0, q))
    rng.shuffle(quads)
    return make_graph(problem, graph.n_vertices, quads)


def test_oracle_equivalence_sample(migration_problem):
    """`max_ratio_cycle` against the brute-force oracle on random graphs,
    and on graphs with a zero-w cycle of positive q: the witness of every
    infinite verdict (all q are finite here) is a closed walk over the
    graph's edges with W = 0 and Q > 0."""
    rng = random.Random(99)
    graphs = [random_dual_graph(migration_problem, rng) for _ in range(120)]
    graphs += [zero_w_cycle_graph(migration_problem, rng) for _ in range(80)]
    unbounded = 0
    for graph in graphs:
        fast = max_ratio_cycle(graph)
        slow = brute_force_max_ratio(graph)
        assert fast.classification == slow.classification
        assert fast.best.ratio == slow.best.ratio
        if fast.classification == "infinite":
            walk = [graph.edges[k] for k in fast.best.edge_ids]
            assert all(e.dst == f.src for e, f in zip(walk, walk[1:] + walk[:1])), walk
            assert cost_sum(e.w for e in walk) == Cost(0)
            assert cost_sum(e.q for e in walk) > Cost(0)
            unbounded += 1
    assert unbounded >= 80


def test_witness_validity(migration_problem):
    rng = random.Random(5)
    for _ in range(60):
        graph = random_dual_graph(migration_problem, rng)
        verdict = max_ratio_cycle(graph)
        report = verdict.best
        q = sum((graph.edges[k].q for k in report.edge_ids), Cost(0))
        w = sum((graph.edges[k].w for k in report.edge_ids), Cost(0))
        assert q == report.q and w == report.w
        assert walk_ratio(graph, report.edge_ids) == report.ratio
        # closed and interior non-repeating
        assert report.vertices[0] == report.vertices[-1]
        interior = report.vertices[:-1]
        assert len(set(interior)) == len(interior)


def reference_witness(graph):
    """The witness and certification of `max_ratio_cycle`, with the tight
    subgraph taken from Bellman-Ford potentials started at zeros: the
    parametric search's witness, replaced by the first simple cycle of
    positive w over the tight arcs when the capped search finds one."""
    n, arcs = graph.n_vertices, _prepare(graph)
    kind, lam, witness, _i = core_max_ratio(ArcStack.holding(n, arcs))
    finite = [arc for arc in arcs if arc[4] is not None]
    if kind == "infinite" or lam == 0 or not any(arc[3] > 0 for arc in finite):
        return tuple(witness), True
    a, b = lam.numerator, lam.denominator
    dist = [0] * n
    for _ in range(n):
        for _k, s, d, w, q in finite:
            dist[d] = min(dist[d], dist[s] + a * w - b * q)
    tight = [arc for arc in finite if dist[arc[1]] + a * arc[3] - b * arc[4] == dist[arc[2]]]
    weight = {arc[0]: arc[3] for arc in tight}
    try:
        for cycle in _simple_cycles(n, _out_arcs(n, tight), visit_cap=_TIGHT_SEARCH_CAP):
            if sum(weight[k] for k in cycle) > 0:
                return tuple(cycle), True
    except GraphTooLarge:
        return tuple(witness), False
    return tuple(witness), True


def test_canonical_witness_matches_the_bellman_ford_reference(migration_problem):
    """The tight subgraph read off `ArcStack.exceeds`'s potentials gives
    the witness and certification that Bellman-Ford potentials give,
    including a search that hits its step cap."""
    rng = random.Random(1013)
    graphs = [random_dual_graph(migration_problem, rng) for _ in range(150)]
    graphs.append(zero_diamond_graph(migration_problem))
    certified = set()
    for graph in graphs:
        verdict = max_ratio_cycle(graph)
        found = (verdict.best.edge_ids, verdict.witness_certified)
        assert found == reference_witness(graph), graph
        certified.add(verdict.witness_certified)
    assert certified == {False, True}


def test_termination_iteration_bound(migration_problem):
    rng = random.Random(31)
    for _ in range(40):
        graph = random_dual_graph(migration_problem, rng, max_vertices=8)
        out = [[] for _ in range(graph.n_vertices)]
        for k, e in enumerate(graph.edges):
            out[e.src].append((k, e.dst))
        n_cycles = sum(1 for _ in _simple_cycles(graph.n_vertices, out))
        verdict = max_ratio_cycle(graph)
        assert verdict.iterations <= n_cycles


# -- the decision test ------------------------------------------------------------


def random_int_arcs(rng, infinite_q):
    """Integer arcs (id, src, dst, w, q) on at most 8 vertices, with 0/0
    arcs, zero-w arcs of positive q and, with infinite_q, q = None arcs."""
    n = rng.randint(1, 8)
    arcs = []
    for v in range(n):
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.2:
                w, q = 0, 0
            elif kind < 0.27:
                w, q = 0, rng.randint(1, 3)
            else:
                w, q = rng.randint(1, 4), rng.randint(0, 6)
            if infinite_q and rng.random() < 0.1:
                q = None
            arcs.append((len(arcs), v, rng.randrange(n), w, q))
    return n, arcs


def simple_cycle_ratios(n, arcs):
    """Ratio of every simple cycle of the finite-q arcs: q/w, 1 for 0/0
    and None (+inf) for a zero-w cycle with positive q."""
    finite = [arc for arc in arcs if arc[4] is not None]
    by_id = {k: (w, q) for k, _s, _d, w, q in finite}
    ratios = []
    for cycle in _simple_cycles(n, _out_arcs(n, finite)):
        w = sum(by_id[k][0] for k in cycle)
        q = sum(by_id[k][1] for k in cycle)
        ratios.append(Fraction(q, w) if w else (Fraction(1) if q == 0 else None))
    return ratios


def exceeds(n, arcs, bound, ties_lose=False):
    """`ArcStack.exceeds` on a fresh stack holding `arcs`."""
    return ArcStack.holding(n, arcs).exceeds(bound, ties_lose)


def maxima(arcs):
    """The largest w and q of the finite-q arcs of `arcs`."""
    finite = [arc for arc in arcs if arc[4] is not None]
    return max((a[3] for a in finite), default=0), max((a[4] for a in finite), default=0)


def stack_over(n, arcs, q, q_max=None):
    """`ArcStack.over` a skeleton of the arcs (id, src, dst, w, t) on n
    vertices, and of their adjacency by src, paying q per transition."""
    out = [[] for _ in range(n)]
    for arc in arcs:
        out[arc[1]].append(arc)
    skel = SimpleNamespace(n_vertices=n, arcs=arcs, arcs_from=out)
    return ArcStack.over(skel, q, q_max=q_max)


def unraised(n, arcs, spare_w=None, q_max=None):
    """A stack over `arcs` (id, src, dst, w, q), one transition per arc, none
    raised yet, bounded by the arcs' own largest w and finite q; or, as a
    search's stack holding part of a skeleton, by q_max and by one more
    arc, of w spare_w, on a transition never raised."""
    fixed = [(k, s, d, w, t) for t, (k, s, d, w, _q) in enumerate(arcs)]
    if spare_w is None:
        q_max = maxima(arcs)[1]
    else:
        fixed.append((len(arcs), 0, 0, spare_w, len(arcs)))
    return stack_over(n, fixed, [-1] * len(fixed), q_max)


def raise_arcs(stack, arcs, first=0):
    """Raise transitions first, first + 1, ... to the q of `arcs`."""
    for t, arc in enumerate(arcs, first):
        stack.raise_q(t, arc[4])


def feasible(arcs, key, potentials):
    """True when `potentials` satisfy every finite-q arc under weights `key`."""
    a, b = key
    return all(
        potentials[d] <= potentials[s] + a * w - b * q
        for _k, s, d, w, q in arcs
        if q is not None
    )


def ratios_lose(ratios, bound, ties_lose):
    """The verdict of a list of simple cycle ratios."""
    return any(
        r is None or (bound is not None and (r > bound or (ties_lose and r == bound)))
        for r in ratios
    )


def oracle_loses(n, arcs, bound, ties_lose):
    """The verdict `core_max_ratio` implies, by brute force: a simple cycle
    of all the arcs holding exactly one +inf-q arc (its stage 0: a +inf-q
    arc closed by a path of finite-q arcs), or a simple cycle of the
    finite-q arcs that loses."""
    infinite = {arc[0] for arc in arcs if arc[4] is None}
    return any(
        len(infinite.intersection(cycle)) == 1
        for cycle in _simple_cycles(n, _out_arcs(n, arcs))
    ) or ratios_lose(simple_cycle_ratios(n, arcs), bound, ties_lose)


def walk_ratio_of_ids(arcs, ids):
    """The ratio of the closed walk the arc ids `ids` take over `arcs`, by
    the oracle's rules: None (+inf) through a +inf-q arc or for zero w and
    positive q, 1 for 0/0, q/w otherwise. Fails unless the ids name arcs
    of `arcs` that close a walk, each arc starting where the last ended."""
    by_id = {arc[0]: arc for arc in arcs}
    walk = [by_id[k] for k in ids]
    assert walk and all(a[2] == b[1] for a, b in zip(walk, walk[1:] + walk[:1])), walk
    if any(arc[4] is None for arc in walk):
        return None
    w, q = sum(arc[3] for arc in walk), sum(arc[4] for arc in walk)
    return Fraction(q, w) if w else (Fraction(1) if q == 0 else None)


def certified(stack, bound, ties_lose):
    """`stack.exceeds`, with its evidence checked: a True verdict names a
    closed walk over the stack's arcs whose ratio loses to the bound, and
    holds at most one +inf-q arc (exactly one when stage 0 found it)."""
    verdict, evidence = stack.exceeds(bound, ties_lose)
    if verdict:
        on_stack = held(stack)
        ratio = walk_ratio_of_ids(on_stack, evidence)
        assert ratios_lose([ratio], bound, ties_lose), (on_stack, evidence, bound)
        infinite = {arc[0] for arc in on_stack if arc[4] is None}
        assert len(infinite.intersection(evidence)) <= 1, (on_stack, evidence)
    return verdict, evidence


@pytest.mark.parametrize("infinite_q", [False, True])
def test_exceeds_matches_the_cycle_oracle(infinite_q):
    """`ArcStack.exceeds` against brute-force simple cycles, after the
    stage 0 it shares with `core_max_ratio` when there are +inf-q arcs;
    bounds at, just above and just below each cycle ratio, <= 1 and none.
    Every True verdict returns its certificate, the arc ids of a
    closed walk on the stack whose ratio loses to the bound, found by each
    of stage 0, the 0/0 check and the relaxation. On a fresh stack the
    potentials a False verdict returns are feasible. On an `ArcStack` as
    the branch and bound uses it, the prefix's transitions are raised and
    decided first, the rest's are raised and decided from the prefix's
    potentials (queueing only the rest's tails), and popped again;
    decisions under every bound and tie rule share the stack, whose
    weights for a bound do not change as q rises and falls."""
    rng = random.Random(2024 + infinite_q)
    decided = set()
    certificates = set()  # the kinds of losing cycle certified
    for _ in range(250):
        n, arcs = random_int_arcs(rng, infinite_q)
        ratios = simple_cycle_ratios(n, arcs)
        finite_ratios = {r for r in ratios if r is not None}
        bounds = {Fraction(0), Fraction(1, 2), Fraction(1), None}
        bounds |= {r + d for r in finite_ratios for d in (0, Fraction(1, 7), -Fraction(1, 7))}
        prefix = arcs[: rng.randint(0, len(arcs))]
        stack = unraised(n, arcs)
        raise_arcs(stack, prefix)
        for bound in bounds:
            for ties_lose in (False, True):
                expected = oracle_loses(n, arcs, bound, ties_lose)
                prefix_loses = oracle_loses(n, prefix, bound, ties_lose)
                key = stack.weights(bound, ties_lose)
                assert certified(stack, bound, ties_lose)[0] == prefix_loses
                raise_arcs(stack, arcs[len(prefix) :], len(prefix))
                assert stack.weights(bound, ties_lose) == key
                from_prefix = key in stack.warm
                assert certified(stack, bound, ties_lose)[0] == expected, (n, arcs, bound)
                stack.pop_to(len(prefix))
                assert stack.weights(bound, ties_lose) == key
                assert all(count <= len(prefix) for _p, count in stack.warm.values())
                assert certified(stack, bound, ties_lose)[0] == prefix_loses
                decided.add((expected, None if bound is None else bound > 1, from_prefix))
                cold, evidence = certified(ArcStack.holding(n, arcs), bound, ties_lose)
                assert cold == expected, (n, arcs, bound, ties_lose)
                if cold:
                    walk = [arcs[k] for k in evidence]
                    if any(arc[4] is None for arc in walk):
                        certificates.add("stage 0")
                    elif all(arc[3] == arc[4] == 0 for arc in walk):
                        certificates.add("0/0")
                    else:
                        certificates.add("relaxation")
                else:
                    assert feasible(arcs, key, evidence)
                assert not prefix_loses or expected  # a cycle of the prefix stays
    # on the stack both verdicts were reached from the prefix's potentials,
    # for bounds above 1 and for bounds <= 1, and the losing one also after
    # a prefix that already lost
    assert {(v, above, True) for v in (False, True) for above in (False, True)} <= decided
    assert (True, True, False) in decided
    # every path to a losing verdict gave its certificate
    assert certificates == {"relaxation", "0/0", *(["stage 0"] if infinite_q else [])}


@pytest.mark.parametrize("infinite_q", [False, True])
def test_tie_decision_matches_the_ratio(infinite_q):
    """A second decision with ties losing tells a tie from a win: when no
    cycle exceeds b, one reaches it exactly when `core_max_ratio` rates the
    arcs b; bounds at, just above and just below each ratio, <= 1 included.
    A stack whose declared w and q bounds exceed its arcs' own, as a
    search's stack holding part of a skeleton, reaches the same verdicts,
    with no bound as well, where both agree with brute force; there each
    tie decision starts from zeros, as no earlier decision shares its
    weights, and the potentials it returns are feasible under them."""
    rng = random.Random(77 + infinite_q)
    seen = set()
    for _ in range(300):
        n, arcs = random_int_arcs(rng, infinite_q)
        try:
            kind, lam, _w, _i = core_max_ratio(ArcStack.holding(n, arcs))
        except EmptyGraph:
            kind, lam = "acyclic", None
        w_max, q_max = maxima(arcs)
        loose = unraised(n, arcs, w_max + rng.randint(1, 9), 2 * q_max + rng.randint(1, 9))
        raise_arcs(loose, arcs)
        unbounded = oracle_loses(n, arcs, None, False)
        assert (kind == "infinite") == unbounded
        assert loose.exceeds(None)[0] == unbounded
        bounds = {Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)}
        bounds |= {r for r in simple_cycle_ratios(n, arcs) if r is not None}
        if lam is not None:
            bounds |= {lam, lam + Fraction(1, 7), lam - Fraction(1, 7)}
        for bound in bounds:
            strict = exceeds(n, arcs, bound, ties_lose=False)[0]
            assert loose.exceeds(bound, ties_lose=False)[0] == strict
            if strict:
                continue
            tie = exceeds(n, arcs, bound, ties_lose=True)[0]
            assert tie == (kind == "finite" and lam == bound), (n, arcs, bound)
            keys = list(loose.warm)
            tie_key = loose.weights(bound, True)
            assert loose.weights(bound, False) in keys and tie_key not in keys
            verdict, potentials = loose.exceeds(bound, ties_lose=True)
            assert verdict == tie
            assert tie or feasible(arcs, tie_key, potentials)
            seen.add((tie, bound > 1))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def random_solvable_arcs(rng):
    """Integer arcs (id, src, dst, w, q) on 1 to 20 vertices, with 0/0 arcs,
    zero-w arcs and a few q = None arcs; in some graphs every q is 0, and
    in others every arc runs to a higher vertex, so there is no cycle."""
    n = rng.randint(1, 20)
    shape = rng.choice(["mixed", "mixed", "mixed", "flat", "acyclic"])
    arcs = []
    for v in range(n):
        for _ in range(rng.randint(1, 3)):
            if shape != "acyclic":
                dst = rng.randrange(n)
            elif v + 1 < n:
                dst = rng.randrange(v + 1, n)
            else:
                break
            kind = rng.random()
            if kind < 0.2:
                w, q = 0, 0
            elif kind < 0.25:
                w, q = 0, rng.randint(1, 3)
            else:
                w, q = rng.randint(1, 4), rng.randint(0, 6)
            if shape == "flat":
                q = 0
            elif rng.random() < 0.05:
                q = None
            arcs.append((len(arcs), v, dst, w, q))
    return n, arcs


def test_stack_solve_matches_the_oracles(migration_problem):
    """`ArcStack.max_ratio` rates arcs with a finite verdict as
    `core_max_ratio` does, and as the brute-force oracle does on graphs of
    at most 14 vertices with finite q: 0/0 cycles pinning a ratio below 1
    at 1, ratio 0, zero-w arcs, a stack holding a looser parallel arc (same
    w, smaller q) beside each finite-q arc, and one whose transitions were
    each raised from a looser q to their own, as at a search leaf. On arcs
    with no cycle it raises `EmptyGraph`."""
    rng = random.Random(4099)
    seen = set()
    for _ in range(500):
        n, arcs = random_solvable_arcs(rng)
        try:
            kind, lam, _w, _i = core_max_ratio(ArcStack.holding(n, arcs))
        except EmptyGraph:
            with pytest.raises(EmptyGraph):
                ArcStack.holding(n, arcs).max_ratio()
            seen.add("acyclic")
            continue
        if kind == "infinite":
            continue  # a decision rejects such arcs before any solve
        assert ArcStack.holding(n, arcs).max_ratio() == lam
        looser_q = [None if q is None else rng.randint(0, q) for *_arc, q in arcs]
        looser = [
            (len(arcs) + k, s, d, w, c)
            for (k, s, d, w, _q), c in zip(arcs, looser_q)
            if c is not None
        ]
        assert ArcStack.holding(n, looser + arcs).max_ratio() == lam, (n, arcs, looser)
        leaf = unraised(n, arcs)
        for t, c in enumerate(looser_q):
            if c is not None:
                leaf.raise_q(t, c)
        raise_arcs(leaf, arcs)
        assert leaf.max_ratio() == lam, (n, arcs, looser)
        ratios = simple_cycle_ratios(n, arcs) if n <= 10 else []
        if n <= BRUTE_FORCE_VERTEX_GUARD and all(arc[4] is not None for arc in arcs):
            graph = make_graph(migration_problem, n, [arc[1:] for arc in arcs])
            assert brute_force_max_ratio(graph).best.ratio == Cost(lam)
            seen.add("brute force")
        if lam == 1 and any(r is not None and r < 1 for r in ratios):
            seen.add("0/0 pins")
        seen.add("0" if lam == 0 else "1" if lam == 1 else "other")
        if n > BRUTE_FORCE_VERTEX_GUARD:
            seen.add("large")
    assert seen == {"acyclic", "0", "1", "other", "0/0 pins", "brute force", "large"}


def test_max_ratio_leaves_feasible_potentials():
    """`ArcStack.max_ratio` keeps the potentials of its last relaxation in
    `warm`, feasible under the strict weights of the ratio it returns (or
    of the lower ratio it relaxed at, when a 0/0 cycle pins the ratio at
    1), and leaves every earlier entry feasible; a decision at that ratio
    then starts from them, with nothing to queue."""
    rng = random.Random(5003)
    seen = set()
    for _ in range(200):
        n, arcs = random_solvable_arcs(rng)
        try:
            kind, lam, _w, _i = core_max_ratio(ArcStack.holding(n, arcs))
        except EmptyGraph:
            continue
        if kind == "infinite":
            continue
        stack = ArcStack.holding(n, arcs)
        for bound in rng.sample([lam, lam + Fraction(1, 7), None], rng.randint(0, 3)):
            stack.exceeds(bound)
        assert stack.max_ratio() == lam
        key = stack.weights(lam, False)
        assert all(feasible(arcs, k, p) for k, (p, _count) in stack.warm.items()), (n, arcs)
        if key in stack.warm:
            potentials = stack.warm[key][0]
            assert stack.exceeds(lam) == (False, potentials)
            seen.add("at its ratio")
        else:
            assert lam == 1 and any(arc[3] == arc[4] == 0 for arc in arcs), (n, arcs)
            seen.add("pinned at 1")
    assert seen == {"at its ratio", "pinned at 1"}


def random_transition_arcs(rng):
    """(n, arcs, rows) on at most 8 vertices: arcs (id, src, dst, w, t) of
    up to 5 transitions, several arcs sharing a transition, and each
    transition's ascending q values, finite or ending in None (+inf)."""
    n = rng.randint(1, 8)
    n_transitions = rng.randint(1, 5)
    arcs = []
    for v in range(n):
        for _ in range(rng.randint(1, 3)):
            w = 0 if rng.random() < 0.25 else rng.randint(1, 4)
            arcs.append((len(arcs), v, rng.randrange(n), w, rng.randrange(n_transitions)))
    rows = []
    for _t in range(n_transitions):
        row = sorted(rng.sample(range(7), rng.randint(1, 4)))
        rows.append(row + [None] if rng.random() < 0.15 else row)
    return n, arcs, rows


def test_raises_and_pops_keep_verdicts_and_warm_potentials():
    """Random sequences of tightening raises, marks and pops on one stack,
    with decisions under random bounds and tie rules in between, each
    started from the stack's warm entries as `pop_to` clamped them. Every
    verdict equals that of a fresh `ArcStack.holding` of the arcs held and
    of the brute-force cycle oracle. After every pop every warm entry holds
    for at most the mark, and is feasible for the arcs held but those of
    the transitions raised since its log length, which is all that
    `exceeds` assumes of it. A transition's q only rises above a
    mark, from -1 (no arcs) to a finite q or +inf, or from a finite q to a
    larger one, as in the branch and bound: a finite q never becomes +inf,
    which would take its arcs out of the relaxation."""
    rng = random.Random(3301)
    seen = set()
    for _ in range(150):
        n, arcs, rows = random_transition_arcs(rng)
        q_max = max(c for row in rows for c in row if c is not None)
        stack = stack_over(n, arcs, [-1] * len(rows), q_max)
        bounds = [None, Fraction(0), Fraction(1)]
        bounds += [Fraction(a, b) for a in (1, 3, 5, 9) for b in (1, 2, 4)]
        marks = []
        for _step in range(30):
            op = rng.random()
            if op < 0.4:
                t = rng.randrange(len(rows))
                before = stack.q[t]
                if before is None:
                    continue
                higher = [c for c in rows[t] if (before == -1 if c is None else c > before)]
                if higher:
                    stack.raise_q(t, rng.choice(higher))
            elif op < 0.55:
                marks.append(len(stack.log))
            elif op < 0.7 and marks:
                i = rng.randrange(len(marks))
                mark = marks[i]
                del marks[i:]
                clamped = any(count > mark for _p, count in stack.warm.values())
                stack.pop_to(mark)
                for key, (potentials, count) in stack.warm.items():
                    since = {t for t, _q in stack.log[count:]}
                    kept = [
                        (k, s, d, w, stack.q[t])
                        for k, s, d, w, t in arcs
                        if t not in since and stack.q[t] != -1
                    ]
                    assert count <= mark and feasible(kept, key, potentials), (n, arcs)
                assert stack.infinite == stack.q.count(None)
                seen.add("clamped" if clamped else "popped")
            else:
                bound, ties_lose = rng.choice(bounds), rng.random() < 0.5
                key = stack.weights(bound, ties_lose)
                entry = stack.warm.get(key)
                on_stack = held(stack)
                verdict = certified(stack, bound, ties_lose)[0]
                assert verdict == ArcStack.holding(n, on_stack).exceeds(bound, ties_lose)[0]
                assert verdict == oracle_loses(n, on_stack, bound, ties_lose), (n, on_stack, bound)
                if entry is not None and entry[1] < len(stack.log):
                    seen.add(("warm", verdict))
    assert seen >= {"clamped", "popped", ("warm", False), ("warm", True)}


def test_stack_path_never_runs_bellman_ford(monkeypatch):
    """Bellman-Ford (`_negative_cycle`) is left to the ratio loop of
    `core_max_ratio`: decisions, `ArcStack.max_ratio` with its ratio-0 and
    acyclic end rules, and deterministic synthesis all run with it
    raising."""

    def bellman_ford(n, arcs):
        raise AssertionError("Bellman-Ford ran")

    monkeypatch.setattr(ratiocycle, "_negative_cycle", bellman_ford)
    rng = random.Random(4099)
    seen = set()
    for _ in range(300):
        n, arcs = random_solvable_arcs(rng)
        stack = ArcStack.holding(n, arcs)
        if stack.exceeds(None)[0]:
            seen.add("infinite")
            continue
        ratios = simple_cycle_ratios(n, arcs) if n <= 10 else None
        try:
            lam = stack.max_ratio()
        except EmptyGraph:
            assert not ratios
            seen.add("acyclic")
            continue
        assert ratios is None or lam == max(ratios), (n, arcs)
        seen.add("0" if lam == 0 else "positive")
    assert seen == {"infinite", "acyclic", "0", "positive"}
    for problem, horizon in (
        (bundled_problem("file-migration"), 3),
        (bundled_problem("min-dom-set"), 2),
    ):
        assert synthesize_det(problem, SynthesisConfig(horizon=horizon)).best_ratio.is_finite


@pytest.mark.parametrize("name,alpha", [("file-migration", "1"), ("min-dom-set", None)])
def test_skeleton_stack_matches_explicitly_scaled_arcs(name, alpha):
    """`ArcStack.over` a skeleton, with q from `q_rand` in units of
    1/(scale * unit), shares the skeleton's arcs and adjacency and puts
    unit into its weights. It decides and rates as a stack holding the
    arcs with w scaled by unit here, (k, s, d, w * unit, q[t]): the same
    verdicts and evidence, certificates or potentials, under no bound,
    bounds below, at and above 1 and both tie rules, from the same warm
    potentials, and the same `max_ratio`; and on fresh stacks the same
    `core_max_ratio` kind, ratio, witness and iterations. Tables obey the
    self-loop entries, so file migration's rate finite with unit > 1;
    min-dom-set's +inf-q transitions reach stage 0."""
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    rng = random.Random(f"unit-{name}")
    bounds = [None, *map(Fraction, (0, "1/2", 1, 3, "7/2", 99))]
    seen = set()
    for horizon in (1, 2):
        skel = cached_skeleton(problem, horizon)
        forced = self_loop_constraints(problem, horizon)
        for _ in range(12):
            dens = rng.choices((1, 2, 3, 4), k=2**horizon)
            probs = [Fraction(rng.randint(0, d), d) for d in dens]
            probs = [Fraction(forced.get(w, p)) for w, p in enumerate(probs)]
            ones, den = over_common_denominator(probs)
            q, unit = skel.q_rand(ones, den), skel.rand_unit(den)
            stack = ArcStack.over(skel, q, unit)
            assert stack.arcs is skel.arcs and stack.out is skel.arcs_from
            scaled = [(k, s, d, w * unit, q[t]) for k, s, d, w, t in skel.arcs]
            reference = ArcStack.holding(skel.n_vertices, scaled)
            solved = core_max_ratio(ArcStack.over(skel, q, unit))
            assert solved == core_max_ratio(ArcStack.holding(skel.n_vertices, scaled)), probs
            seen.add((solved[0], unit > 1))
            for bound in rng.sample(bounds, len(bounds)):
                for ties_lose in (False, True):
                    decided = stack.exceeds(bound, ties_lose)
                    assert decided == reference.exceeds(bound, ties_lose), (probs, bound)
                    seen.add((decided[0], bound is None))
                    if decided[0] and any(q[skel.edges[k][5]] is None for k in decided[1]):
                        seen.add("stage 0")
            if not stack.exceeds(None)[0]:
                assert stack.max_ratio() == reference.max_ratio(), probs
                seen.add(("rated", unit > 1))
    assert seen >= {(False, True), (False, False), (True, False)}
    assert ("stage 0" if name == "min-dom-set" else ("rated", True)) in seen
    assert ("infinite" if name == "min-dom-set" else "finite", True) in seen


# -- stage 0 against the per-arc search -----------------------------------------


def per_arc_stage0(arcs, out, q):
    """Stage 0 with a breadth-first search from the head of every +inf-q
    arc, in arcs order, over the finite-q arcs of out; the first that
    reaches its tail gives the shortest path, in arc order, closing it."""
    for k, src, dst, _w, t in arcs:
        if q[t] is not None:
            continue
        seen = {dst: None}
        queue = [dst]
        for v in queue:
            for arc in out[v]:
                c, d = q[arc[4]], arc[2]
                if c is not None and c >= 0 and d not in seen:
                    seen[d] = arc
                    queue.append(d)
        if src in seen:
            cycle = [k]
            while seen[src] is not None:
                cycle.append(seen[src][0])
                src = seen[src][1]
            return cycle[::-1]
    return None


def random_stage0_arcs(rng):
    """(n, arcs, q) on at most 8 vertices: arcs (id, src, dst, w, t) of up
    to 6 transitions, with self-loops and parallel arcs, and a q per
    transition that is +inf (None), -1 (no arcs) or finite."""
    n = rng.randint(1, 8)
    n_transitions = rng.randint(1, 6)
    arcs = []
    for v in range(n):
        for _ in range(rng.randint(1, 3)):
            dst = v if rng.random() < 0.15 else rng.randrange(n)
            for _copy in range(2 if rng.random() < 0.15 else 1):
                arcs.append((len(arcs), v, dst, rng.randint(0, 3), rng.randrange(n_transitions)))
    q = [rng.choice((None, None, -1, 0, 1, 4)) for _ in range(n_transitions)]
    return n, arcs, q


def test_stage0_witness_is_the_per_arc_search_one():
    """Stage 0 skips the +inf arcs that a failed search shows cannot be
    closed, and gives the witness of a search from every +inf arc: the same
    edge ids, or None. On every min-dom-set table at T <= 3, through the
    skeleton's adjacency, and on random arc sets, directly and through
    `ArcStack.exceeds(None)`, whose stage 0 it is."""
    problem = bundled_problem("min-dom-set")
    xs, ys = problem.input_alphabet, problem.output_alphabet
    found = {True: 0, False: 0}
    for horizon in (1, 2, 3):
        for table in itertools.product(range(len(ys)), repeat=len(xs) ** horizon):
            skel, q, _unit = policy_q(problem, DeterministicPolicy(horizon, xs, ys, table))
            expected = per_arc_stage0(skel.arcs, skel.arcs_from, q)
            assert ratiocycle._infinite_q_cycle(skel.arcs, skel.arcs_from, q) == expected, table
            found[expected is not None] += 1
    assert found == {True: 223 + 14 + 2, False: 33 + 2 + 2}
    rng = random.Random(4040)
    seen = set()
    for _ in range(3000):
        n, arcs, q = random_stage0_arcs(rng)
        stack = stack_over(n, arcs, q)
        expected = per_arc_stage0(arcs, stack.out, q)
        assert ratiocycle._infinite_q_cycle(arcs, stack.out, q) == expected, (n, arcs, q)
        verdict, evidence = stack.exceeds(None)
        if expected is not None:
            assert (verdict, evidence) == (True, expected), (n, arcs, q)
        elif verdict:
            assert all(q[arcs[k][4]] is not None for k in evidence), (n, arcs, q)
        n_infinite = sum(q[arc[4]] is None for arc in arcs)
        seen.add((expected is not None, n_infinite > 1))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# -- walk decomposition ----------------------------------------------------------


def test_walk_decomposition_dominance(migration_problem):
    rng = random.Random(13)
    for _ in range(80):
        graph = random_dual_graph(migration_problem, rng, max_vertices=8)
        start = rng.randrange(graph.n_vertices)
        v, walk = start, []
        out = out_edges(graph)
        for _ in range(60):
            k = rng.choice(out[v])
            walk.append(k)
            v = graph.edges[k].dst
            if v == start and len(walk) >= 2:
                break
        if v != start:
            continue
        total = walk_ratio(graph, walk)
        pieces = sorted(rng.sample(range(1, len(walk)), min(2, len(walk) - 1)))
        parts = []
        prev = 0
        for cut in pieces + [len(walk)]:
            parts.append(walk[prev:cut])
            prev = cut
        assert max(walk_ratio(graph, part) for part in parts) >= total


# -- evaluate_policy --------------------------------------------------------------


def test_always_zero_policy_is_infinite(migration_problem):
    policy = DeterministicPolicy(1, BIN, BIN, (0, 0))
    verdict = evaluate_policy(migration_problem, policy)
    assert verdict.classification == "infinite"


def test_follow_the_request_ratio_four(migration_problem):
    policy = DeterministicPolicy.from_entries(1, BIN, BIN, {"0": "0", "1": "1"})
    verdict = evaluate_policy(migration_problem, policy)
    assert verdict.classification == "finite"
    assert verdict.best.ratio == Cost(4)
    assert verdict.witness_certified


@pytest.mark.parametrize("alpha,expected", [("1", 5), ("2", 7), ("1/2", 4)])
def test_or_candidate_pays_three_plus_two_alpha(alpha, expected):
    from tlsynth.problems import bundled_problem

    problem = bundled_problem("file-migration", {"alpha": alpha})
    policy = DeterministicPolicy.from_entries(
        2, BIN, BIN, {"00": "0", "01": "1", "10": "1", "11": "1"}
    )
    graph = build_graph_det(problem, policy)
    verdict = max_ratio_cycle(graph)
    assert verdict.best.ratio == Cost(Fraction(expected))
    assert verdict.best.w == Cost(1)
    assert brute_force_max_ratio(graph).best.ratio == verdict.best.ratio
    # the witness pattern has two quiet steps and one remote request
    assert sorted(verdict.best.induced) == ["0", "0", "1"]
    outputs = graph.problem.output_alphabet.symbols
    assert {outputs[graph.edges[k].b] for k in verdict.best.edge_ids} == {"0"}


def test_empirical_consistency_of_witness(migration_problem):
    policy = DeterministicPolicy.from_entries(
        2, BIN, BIN, {"00": "0", "01": "1", "10": "1", "11": "1"}
    )
    verdict = evaluate_policy(migration_problem, policy)
    ratio = verdict.best.ratio.as_fraction()
    reps = 60
    seq = verdict.best.induced * reps
    alg = migration_problem.evaluate(seq, run_policy(policy, seq)).total.as_fraction()
    opt, _ = offline_opt(migration_problem, seq)
    bound = (2 + 1) * Fraction(2)  # (T + r) * max rule cost at alpha 1
    assert alg >= ratio * (opt.as_fraction() - bound) - bound


# -- skeleton arcs against the DualGraph path ------------------------------------


def graph_verdict(problem, policy):
    """The verdict through a DualGraph and `_prepare`, the oracle path."""
    build = build_graph_rand if isinstance(policy, RandomizedPolicy) else build_graph_det
    return max_ratio_cycle(build(problem, policy))


def oracle_policies(problem, seed):
    """Every table at T <= 3, and 20 seeded behavioral tables per T."""
    xs, ys = problem.input_alphabet, problem.output_alphabet
    for horizon in (1, 2, 3):
        n_windows = len(xs) ** horizon
        for table in itertools.product(range(len(ys)), repeat=n_windows):
            yield DeterministicPolicy(horizon, xs, ys, table)
        rng = random.Random(f"{seed}-{horizon}")
        for _ in range(20):
            denoms = [rng.randint(1, 12) for _ in range(n_windows)]
            probs = tuple(Fraction(rng.randint(0, d), d) for d in denoms)
            yield RandomizedPolicy(horizon, xs, ys, probs)


@pytest.mark.parametrize(
    "name,alpha",
    [
        ("file-migration", "1/3"),
        ("file-migration", "1"),
        ("file-migration", "2"),
        # includes the two T=3 tables whose cycle through two +inf-q edges
        # both paths miss (10001011 and 11010001)
        ("min-dom-set", None),
    ],
)
def test_evaluate_policy_matches_the_dual_graph_path(name, alpha):
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    for policy in oracle_policies(problem, f"{name}-{alpha}"):
        assert evaluate_policy(problem, policy) == graph_verdict(problem, policy), policy


def test_reference_randomized_table_matches_the_dual_graph_path():
    problem = bundled_problem("file-migration", {"alpha": "1"})
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
    assert evaluate_policy(problem, policy) == graph_verdict(problem, policy)


# file migration with one negative finite rule cost
NEGATIVE_RULE = {
    "name": "negative-rule",
    "inputs": ["0", "1"],
    "outputs": ["0", "1"],
    "r": 1,
    "aggregation": "sum",
    "objective": "min",
    "initial_outputs": ["0"],
    "rules": [
        {"x": ["*", "0"], "y": ["0", "0"], "cost": "0"},
        {"x": ["*", "0"], "y": ["1", "1"], "cost": "1"},
        {"x": ["*", "0"], "y": ["1", "0"], "cost": "1"},
        {"x": ["*", "0"], "y": ["0", "1"], "cost": "2"},
        {"x": ["*", "1"], "y": ["1", "1"], "cost": "0"},
        {"x": ["*", "1"], "y": ["0", "0"], "cost": "1"},
        {"x": ["*", "1"], "y": ["0", "1"], "cost": "-1/2"},
        {"x": ["*", "1"], "y": ["1", "0"], "cost": "2"},
    ],
}


@pytest.mark.parametrize("name", ["max-ind-set", "negative-rule"])
def test_negative_and_minus_inf_costs_are_rejected(name):
    # the skeleton validates every w, and every cost a policy can pay is
    # the w of some edge: max-ind-set has a -inf rule
    if name == "negative-rule":
        problem = load_problem(NEGATIVE_RULE)
    else:
        problem = bundled_problem(name)
    xs, ys = problem.input_alphabet, problem.output_alphabet
    for horizon in (1, 2):
        policy = DeterministicPolicy(horizon, xs, ys, (0,) * len(xs) ** horizon)
        with pytest.raises(ValueError, match="must be >= 0"):
            evaluate_policy(problem, policy)
        with pytest.raises(ValueError, match="must be >= 0"):
            synthesize_det(problem, SynthesisConfig(horizon=horizon))
