"""Maximum cost-ratio directed cycle of a dual-weighted graph.

The cost ratio of a closed walk is q/w when w > 0, exactly 1 when
q = w = 0, and +inf otherwise; the maximum over directed cycles is the
competitive ratio of the policy the graph encodes. Edge costs must be
non-negative; an edge with w = +inf is ignored (an adversary never
plays it).

Every verdict starts with stage 0 (`_infinite_q_cycle`): a cycle through
one q = +inf arc, closed by finite-q arcs, makes it infinite. Each +inf
arc is closed by a breadth-first search, unless one that failed shows it
cannot be. Stage 0 reads an adjacency and one q per transition, so
`evaluate_policy` runs it on a `debruijn.Skeleton`'s `arcs_from` and the
policy's q before any stack exists. Only a table it leaves open is
solved, by `core_max_ratio` on an `ArcStack` over the skeleton: an exact
parametric search that raises a candidate ratio lam to the ratio of each
cycle with q - lam*w > 0, found by Bellman-Ford on the stack's integer
weights of lam (`_negative_cycle`). Its stage 1, end rules and the
canonical witness's tight subgraph read that stack. `evaluate_policy`
reports its witness from the skeleton's ints, summed and unscaled once.
`max_ratio_cycle` validates and scales a hand-built `DualGraph` into one
`ArcStack.holding` (`exact.over_common_denominator`); it and the
brute-force oracle (every simple cycle) report in `Cost`s.

`ArcStack` holds one q per transition over a skeleton's own arcs and
adjacency (`ArcStack.over`), which a branch and bound raises and pops
back. `ArcStack.exceeds` decides whether a cycle's ratio exceeds a bound,
or reaches it when a tie loses, by one negative-cycle test on integer
weights, and a losing verdict names its cycle as a certificate. A table
that beats the incumbent is rated on the same stack (`ArcStack.max_ratio`,
or `core_max_ratio` for a refinement move). Synthesis checks every table
it returns with two decisions on a fresh stack: no cycle exceeds the
reported ratio r, and one reaches r when ties lose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .debruijn import DualGraph, policy_q
from .errors import EmptyGraph, GraphTooLarge, InvalidCost
from .exact import POS_INF, Cost, cost_sum, over_common_denominator

BRUTE_FORCE_VERTEX_GUARD = 14
_TIGHT_SEARCH_CAP = 200_000


@dataclass(frozen=True)
class CycleReport:
    vertices: tuple  # v0, v1, ..., v0 (closed; interior non-repeating)
    edge_ids: tuple
    q: Cost
    w: Cost
    ratio: Cost  # q/w, or exactly 1 for the q = w = 0 case, or +inf
    induced: tuple  # per-edge new-input symbols


@dataclass(frozen=True)
class RatioVerdict:
    best: CycleReport
    classification: str  # "finite" | "infinite"
    iterations: int = 0  # improving steps the parametric search took
    # False when the search for the canonical witness hit its step cap: the
    # witness is then a maximum-ratio cycle, but not the canonical first one
    witness_certified: bool = True


def _cycle_ratio(q: Cost, w: Cost) -> Cost:
    if w.is_finite and w.as_fraction() > 0 and q.is_finite:
        return Cost(q.as_fraction() / w.as_fraction())
    if q == Cost(0) and w == Cost(0):
        return Cost(1)
    return POS_INF


def _make_report(problem, edge_ids, steps, q, w) -> CycleReport:
    """Report of the cycle `edge_ids`, whose edges sum to q and w; steps[i]
    starts with the (src, dst, x) of its i-th edge."""
    symbols = problem.input_alphabet.symbols
    return CycleReport(
        vertices=tuple([s[0] for s in steps] + [steps[-1][1]]),
        edge_ids=tuple(edge_ids),
        q=q,
        w=w,
        ratio=_cycle_ratio(q, w),
        induced=tuple(symbols[s[2]] for s in steps),
    )


def _graph_report(graph, edge_ids) -> CycleReport:
    """`_make_report` of a closed walk of a DualGraph, summed in `Cost`s."""
    edges = [graph.edges[k] for k in edge_ids]
    steps = [(e.src, e.dst, e.x) for e in edges]
    q, w = cost_sum(e.q for e in edges), cost_sum(e.w for e in edges)
    return _make_report(graph.problem, edge_ids, steps, q, w)


def walk_ratio(graph: DualGraph, edge_ids) -> Cost:
    """Cost ratio of an arbitrary closed walk (used by property tests)."""
    return _graph_report(graph, edge_ids).ratio


# -- shared preparation -------------------------------------------------------


def _prepare(graph: DualGraph):
    """Validate costs, drop unusable edges, and put the rest over one
    denominator (`exact.over_common_denominator`).

    Returns the integer arcs (edge_id, src, dst, w_int, q_int) of
    `core_max_ratio`; an infinite-q edge has q_int = None.
    """
    if graph.n_vertices == 0:
        raise EmptyGraph("graph has no vertices")
    usable = []  # (edge_id, src, dst, w, q) with Fraction costs, q None for +inf
    for k, e in enumerate(graph.edges):
        if e.w == POS_INF:
            continue  # the adversary never pays +inf
        if not e.w.is_finite or e.w.as_fraction() < 0:
            raise InvalidCost(f"edge {k}: adversary cost {e.w} must be >= 0")
        if e.q.is_finite:
            if e.q.as_fraction() < 0:
                raise InvalidCost(f"edge {k}: algorithm cost {e.q} must be >= 0")
        elif e.q != POS_INF:
            raise InvalidCost(f"edge {k}: algorithm cost {e.q} unsupported")
        q = e.q.as_fraction() if e.q.is_finite else None
        usable.append((k, e.src, e.dst, e.w.as_fraction(), q))
    ints = iter(over_common_denominator([c for arc in usable for c in arc[3:] if c is not None])[0])
    return [(k, s, d, next(ints), None if q is None else next(ints)) for k, s, d, _w, q in usable]


def _negative_cycle(n, arcs):
    """Bellman-Ford negative-cycle detection with predecessor extraction.

    arcs: list of (edge_id, src, dst, weight_int). All distances start at
    zero (virtual super-source), so any negative cycle is found. Returns
    the cycle as an edge-id list or None.
    """
    dist = [0] * n
    pred = [None] * n
    seed = None
    for round_no in range(n):
        changed = False
        for arc in arcs:
            _, src, dst, wt = arc
            nd = dist[src] + wt
            if nd < dist[dst]:
                dist[dst] = nd
                pred[dst] = arc
                changed = True
                if round_no == n - 1:
                    seed = dst
        if not changed:
            return None
    if seed is None:
        return None
    # walk n predecessor steps to land inside a predecessor cycle
    v = seed
    for _ in range(n):
        v = pred[v][1]
    cycle = []
    start = v
    while True:
        arc = pred[v]
        cycle.append(arc[0])
        v = arc[1]
        if v == start:
            break
    cycle.reverse()
    return cycle


def _simple_cycles(n_vertices, out_arcs, visit_cap=None):
    """Yield simple directed cycles as edge-id lists, in a canonical order.

    out_arcs[v] lists (edge_id, dst) in deterministic order. Cycles are
    rooted at their smallest vertex; roots ascend, and within a root the
    search is depth-first in arc order. Raises GraphTooLarge after
    visit_cap arc steps.
    """
    steps = 0
    for root in range(n_vertices):
        stack = [(root, iter(out_arcs[root]))]
        on_path = {root}
        edge_path = []
        while stack:
            v, arcs = stack[-1]
            advanced = False
            for edge_id, dst in arcs:
                steps += 1
                if visit_cap is not None and steps > visit_cap:
                    raise GraphTooLarge(f"cycle search passed {visit_cap} steps")
                if dst == root:
                    yield edge_path + [edge_id]
                    continue
                if dst < root or dst in on_path:
                    continue
                edge_path.append(edge_id)
                on_path.add(dst)
                stack.append((dst, iter(out_arcs[dst])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if edge_path:
                    edge_path.pop()
                on_path.discard(v)


def _out_arcs(n, arcs):
    """Adjacency lists [(edge_id, dst), ...] per vertex, in arc order, of
    arcs whose first three fields are (edge_id, src, dst)."""
    out = [[] for _ in range(n)]
    for arc in arcs:
        out[arc[1]].append((arc[0], arc[2]))
    return out


def _infinite_q_cycle(arcs, out, q):
    """Stage 0 of every verdict: the edge ids of a cycle through one +inf-q
    arc closed by finite-q arcs, or None. Arcs (id, src, dst, w, t) pay
    q[t] (None for +inf, -1 for no arcs); out[v] lists the arcs from v in
    arcs order (a skeleton's `arcs_from`, an `ArcStack`'s `out`). Each
    +inf arc, in arcs order, is closed by the shortest path from its head
    to its tail over the finite-q arcs of out, breadth first, unless a
    search that failed reached its head and not its tail: its vertex set
    holds every vertex the head reaches. A cycle through two or more +inf-q
    arcs is missed; the synthesis search drops a table paying +inf on a
    2-cycle of two such arcs at the leaf (`synthesis.infinite_pairs`)."""
    failed = []  # the vertex sets of the searches that failed
    for k, src, dst, _w, t in arcs:
        if q[t] is not None or any(dst in seen and src not in seen for seen in failed):
            continue
        seen = {dst: None}  # vertex -> the arc that first reached it
        queue = [dst]
        for v in queue:
            if src in seen:
                break
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
        failed.append(seen)
    return None


def core_max_ratio(stack):
    """The parametric search on the arcs an `ArcStack` holds: (kind,
    ratio, witness_edge_ids, iterations) with kind "infinite" or "finite".

    Stages 0 and 1 are one decision with no bound on the stack. Stage 2
    raises lam from 0 to the ratio of each cycle negative under the
    stack's weights of lam, found by Bellman-Ford (`_negative_cycle`) on
    the finite-q arcs, until none is; the end rules are `_settle`'s.
    """
    # stage 0, then stage 1: a zero-w cycle with positive q means an
    # unbounded ratio, which a decision with no bound looks for
    unbounded, cycle = stack.exceeds(None)
    if unbounded:
        return "infinite", None, cycle, 0

    # stage 2: raise lam through the finite set of cycle ratios
    finite = stack._finite()
    by_id = {k: (w, c) for k, _s, _d, w, c in finite}
    lam, witness, iterations = Fraction(0), None, 0
    while True:
        a, b = stack.weights(lam, False)
        cycle = _negative_cycle(stack.n, [(k, s, d, a * w - b * c) for k, s, d, w, c in finite])
        if cycle is None:
            break
        w_sum = sum(by_id[k][0] for k in cycle)
        q_sum = sum(by_id[k][1] for k in cycle)
        lam = Fraction(q_sum, w_sum * stack.unit)
        witness = cycle
        iterations += 1

    lam, cycle = _settle(stack, lam, witness is not None)
    return "finite", lam, witness if cycle is None else cycle, iterations


def _settle(stack, lam, improved):
    """The end rules of a parametric search over the stack's finite-q arcs,
    which hold no infinite cycle, that raised lam to the ratio of its last
    improving cycle, or found none (`improved` false): (ratio, cycle),
    where cycle is None when that last cycle keeps its ratio. A cycle of
    0/0 arcs rates 1, so it pins any lam < 1 at 1. With neither, every
    cycle has q = 0 and w > 0, so any cycle rates 0, and `_any_cycle`
    gives the first; without one the arcs hold no cycle at all."""
    zero_zero = stack._zero_zero_cycle()
    if not improved and zero_zero is None:
        flat = _any_cycle(stack.n, [arc[:3] for arc in stack._finite()])
        if flat is None:
            raise EmptyGraph("graph has no directed cycle")
        return Fraction(0), flat
    if zero_zero is not None and (not improved or lam < 1):
        return Fraction(1), zero_zero
    return lam, None


class ArcStack:
    """Fixed arcs (id, src, dst, w, t), each paying the q of its transition
    t, with the decision a branch and bound asks of them: does a cycle's
    ratio exceed a bound a/b (or reach it, when a tie loses)?

    The state is one q per transition, -1 while it has no arcs and None
    for +inf, and a count of the +inf ones. `raise_q` is one entry of an
    undo log, and `pop_to` restores q above a mark; `out` lists the arcs
    by src in the order given, and `_relax` reads each one's q, so a
    raised transition replaces its looser arcs. `exceeds` is one
    negative-cycle test under the weights A*w - B*q. It starts from the
    potentials `warm` keeps per weights with the log length they are
    feasible at, queueing only the tails of the arcs of the transitions
    raised since, or else from zeros. A decision that loses names its
    losing cycle by arc ids, the certificate a caller can test again
    under other weights.

    Above any mark the log only tightens: a raise lifts a finite q, or
    gives arcs to a transition with none. As B > 0, potentials feasible
    for the tighter arcs stay feasible for the looser ones, so `pop_to`
    clamps each warm entry's log length to the mark and keeps it.

    q counts 1/`unit` of w, a scale the stack applies, not its callers.
    The arcs' largest w and q_max (q's largest finite value, unless a
    search declares its skeleton's largest row entry) bound every arc the
    stack will ever hold, so a bound's weights stay the same as q moves.
    Every exact solve (`max_ratio`, `core_max_ratio`) reads one stack.
    """

    def __init__(self, n, arcs, out, q, unit=1, q_max=None):
        self.n = n
        self.arcs = arcs
        self.out = out  # the arcs by src, in arcs order
        self.q = list(q)
        self.unit = unit
        w_max = max((arc[3] for arc in arcs), default=0)
        q_max = max([0, *(c for c in q if c is not None)]) if q_max is None else q_max
        self.tie = n * w_max * unit + 1  # M of a losing tie: above the W of every simple cycle
        self.unbounded = (n * q_max + 1) * unit  # A with no bound: above every cycle's Q
        self.arcs_of = None  # each transition's arcs, once a raise is relaxed
        self.infinite = self.q.count(None)  # +inf transitions
        self.log = []  # (t, q before) of each raise, oldest first
        self.warm = {}  # (A, B) -> [feasible potentials, log length]

    @classmethod
    def over(cls, skel, q, unit=1, q_max=None):
        """A stack sharing a `debruijn.Skeleton`'s arcs and `arcs_from`."""
        return cls(skel.n_vertices, skel.arcs, skel.arcs_from, q, unit, q_max)

    @classmethod
    def holding(cls, n, arcs):
        """A stack holding the arcs (id, src, dst, w, q) of one table, one
        transition per arc, bounded by their own largest w and finite q."""
        fixed = [(k, s, d, w, t) for t, (k, s, d, w, _q) in enumerate(arcs)]
        out = [[] for _ in range(n)]
        for arc in fixed:
            out[arc[1]].append(arc)
        return cls(n, fixed, out, [arc[4] for arc in arcs])

    def raise_q(self, t, q):
        """Tighten transition t to q: above its q, or None (+inf) from -1."""
        self.log.append((t, self.q[t]))
        self.q[t] = q
        if q is None:
            self.infinite += 1

    def pop_to(self, mark):
        q, log = self.q, self.log
        while len(log) > mark:
            t, before = log.pop()
            if q[t] is None:
                self.infinite -= 1
            q[t] = before
        for entry in self.warm.values():
            if entry[1] > mark:
                entry[1] = mark

    def weights(self, bound, ties_lose):
        """(A, B) such that a simple cycle of the finite-q arcs other than a
        0/0 cycle is negative under A*w - B*q exactly when it loses, by the
        verdict `core_max_ratio` implies after its stage 0, for any bound
        a/b or none, each A times `unit` (so A*w is in q's unit). A 0/0
        cycle weighs 0. A simple cycle has at most n arcs, so its integer
        W (in q's unit) and Q are below M = n*w_max*unit + 1 and n*q_max + 1:

        - a strict bound: (a, b); the cycle's ratio is above a/b, or it is a
          zero-w cycle with positive q;
        - a tie that loses: (M*a - 1, M*b), so the weight is
          M*(a*W - b*Q) - W; the cycle's ratio is at least a/b;
        - no bound: (n*q_max + 1, 1); a zero-w cycle with positive q, the
          question stage 1 of `core_max_ratio` asks here, since every other
          cycle weighs at least 1.

        Any M above every simple cycle's W gives the same verdicts, so M
        and A come from the stack's declared bounds and a bound's weights
        never change while the stack lives: a decision can start from the
        potentials of any earlier one under the same bound and tie rule.
        """
        if bound is None:
            return self.unbounded, 1
        if not ties_lose:
            return bound.numerator * self.unit, bound.denominator
        return (self.tie * bound.numerator - 1) * self.unit, self.tie * bound.denominator

    def exceeds(self, bound, ties_lose=False):
        """Decide whether the arcs hold a cycle whose ratio is above
        `bound`, or equal to it with ties_lose, without computing the
        maximum ratio.

        The verdict is the one `core_max_ratio` implies: True exactly when
        its ratio is infinite, above the bound, or equal to it with
        ties_lose; with bound None, exactly when it is infinite. Returns
        (verdict, evidence). A True verdict comes with its certificate, the
        ids of the arcs of a simple cycle on the stack that loses, in walk
        order. A False one comes with potentials feasible for these arcs
        under `weights`.

        Stage 0, on the stack's own `out` and q, runs only when a +inf
        transition holds arcs, and its cycle holds one. A 0/0 cycle rates
        1, so when it loses (a bound below 1, or 1 with ties losing) it is
        looked for first. Otherwise the cycle is the one the negative-cycle
        test closes, negative under `weights`, started from the warm
        potentials under the same weights or else from zeros, a virtual
        source: label correcting is exact from any start.
        """
        if self.infinite:
            cycle = _infinite_q_cycle(self.arcs, self.out, self.q)
            if cycle is not None:
                return True, cycle
        # bound < 1, or bound == 1 with ties_lose, on the lowest terms
        if bound is not None and (
            bound.numerator < bound.denominator
            or (ties_lose and bound.numerator == bound.denominator)
        ):
            cycle = self._zero_zero_cycle()
            if cycle is not None:
                return True, cycle
        key = self.weights(bound, ties_lose)
        dist, since = self.warm.get(key, ([0] * self.n, None))
        dist, closed = self._relax(key, list(dist), since)
        if dist is None:
            return True, [arc[3] for arc in self._tree_cycle(key, *closed)]
        self.warm[key] = [dist, len(self.log)]
        return False, dist

    def max_ratio(self):
        """The maximum cycle ratio of the arcs, which must hold no infinite
        cycle (a decision that did not lose shows that), or `EmptyGraph`
        when they hold no cycle: the parametric search of `core_max_ratio`,
        on `_relax`. From lam = 0, each negative cycle under the weights of
        lam raises lam to its ratio, until the arcs are feasible; the end
        rules are `_settle`'s. The potentials of the last lam become the
        warm entry under its weights: the ratio's strict weights, unless a
        0/0 cycle pins the ratio at 1."""
        n = self.n
        lam, cycle = Fraction(0), None
        while True:
            key = self.weights(lam, False)
            dist, closed = self._relax(key, [0] * n)
            if dist is not None:
                break
            cycle = self._tree_cycle(key, *closed)
            lam = Fraction(sum(arc[2] for arc in cycle), sum(arc[1] for arc in cycle) * self.unit)
        self.warm[key] = [dist, len(self.log)]
        return _settle(self, lam, cycle is not None)[0]

    def _finite(self):
        """The arcs of a finite q, (id, src, dst, w, q), w not in q's unit."""
        q = self.q
        return [(k, s, d, w, q[t]) for k, s, d, w, t in self.arcs if q[t] not in (None, -1)]

    def _zero_zero_cycle(self):
        """The first cycle (`_any_cycle`) of the 0/0 arcs, which rates 1, or None."""
        return _any_cycle(self.n, [arc[:3] for arc in self._finite() if arc[3] == arc[4] == 0])

    def _relax(self, key, dist, since=None):
        """(p, None) with feasible potentials p, p[dst] <= p[src] + A*w - B*q
        on every arc of a finite q, reached from dist by relaxing; or
        (None, (pred, u, v)) when the arcs hold a negative cycle: the arc
        u -> v closes it over the predecessor path from v to u, which
        `_tree_cycle` reads. Only the tails of the arcs that dist violates
        are queued at first, of all arcs or, from log length `since`, of the
        transitions raised since: every other arc must satisfy dist.

        FIFO label correcting. At each improving relaxation u -> v the
        predecessor tree is walked from u to its root: meeting v closes a
        negative cycle (walk to root; Cherkassky & Goldberg 1999,
        "Negative-cycle detection algorithms"). The predecessors stay a
        forest, in which a label set in pass p (from 0) lies at least p + 1
        arcs below its root, as its tail's label was set in pass p - 1 or
        later; so no label changes in pass n - 1, and pass n finds nothing
        queued.
        """
        a, b = key
        n, q = self.n, self.q
        queued = [False] * n
        active = []
        fresh = self.arcs
        if since is not None:
            if self.arcs_of is None:
                self.arcs_of = [[] for _ in q]
                for arc in self.arcs:
                    self.arcs_of[arc[4]].append(arc)
            fresh = [arc for t, _q in self.log[since:] for arc in self.arcs_of[t]]
        for _k, src, dst, w, t in fresh:
            c = q[t]
            if c is None or c < 0 or queued[src]:
                continue
            if dist[src] + a * w - b * c < dist[dst]:
                queued[src] = True
                active.append(src)
        out = self.out
        pred = [-1] * n
        for _pass in range(n + 1):
            if not active:
                return dist, None
            following = []
            for u in active:
                queued[u] = False
                du = dist[u]
                for _k, _u, v, w, t in out[u]:
                    c = q[t]
                    if c is None or c < 0:
                        continue
                    nd = du + a * w - b * c
                    if nd < dist[v]:
                        x = u
                        while x != -1:
                            if x == v:
                                return None, (pred, u, v)
                            x = pred[x]
                        dist[v] = nd
                        pred[v] = u
                        if not queued[v]:
                            queued[v] = True
                            following.append(v)
            active = following
        raise RuntimeError("label correcting ran n + 1 passes")

    def _tree_cycle(self, key, pred, u, v):
        """The arcs (A*w - B*q, w, q, id) of the cycle closed by u -> v over
        the predecessor path from v to u, in walk order from v, taking
        between each two of its vertices the arc lightest under the weights
        `key`. Each tree arc x -> y weighs at most p[y] - p[x], as p[x] has
        only fallen since pred[y] was set to x, so the cycle is still
        negative."""
        a, b = key
        q, out = self.q, self.out
        cycle = []
        x, y = u, v
        while True:
            held = [(w, q[t], k) for k, _x, d, w, t in out[x] if d == y and q[t] not in (None, -1)]
            cycle.append(min((a * w - b * c, w, c, k) for w, c, k in held))
            if x == v:
                cycle.reverse()
                return cycle
            x, y = pred[x], x


def _solve(stack):
    """`core_max_ratio`, then the canonical witness, both on `stack`:
    (classification, witness edge ids, iterations, certified)."""
    kind, lam, witness, iterations = core_max_ratio(stack)
    if kind == "infinite":
        return kind, witness, 0, True
    certified = True
    if lam > 0 and any(arc[3] > 0 for arc in stack._finite()):
        # prefer the canonical first witness among all max-ratio cycles
        try:
            tight = _canonical_tight_cycle(stack, lam)
        except GraphTooLarge:
            tight, certified = None, False
        if tight is not None:
            witness = tight
    return kind, witness, iterations, certified


def max_ratio_cycle(graph: DualGraph) -> RatioVerdict:
    """Exact maximum-ratio cycle via parametric search; see module docstring."""
    stack = ArcStack.holding(graph.n_vertices, _prepare(graph))
    kind, witness, iterations, certified = _solve(stack)
    return RatioVerdict(_graph_report(graph, witness), kind, iterations, certified)


def _any_cycle(n, arcs3):
    """A cycle of the subgraph given by (id, src, dst), or None.

    Depth-first search with three vertex states, roots ascending and arcs
    in the given order, so the result is deterministic; the first arc back
    into the current path closes the reported cycle. Linear in the size of
    the subgraph.
    """
    out = _out_arcs(n, arcs3)
    state = [0] * n  # 0 unseen, 1 on the current path, 2 done
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(out[root]))]
        path = []  # path[i] is the arc from stack[i] to stack[i + 1]
        while stack:
            v, arcs = stack[-1]
            for k, d in arcs:
                if state[d] == 1:
                    entry = next(i for i, (u, _a) in enumerate(stack) if u == d)
                    return path[entry:] + [k]
                if state[d] == 0:
                    state[d] = 1
                    path.append(k)
                    stack.append((d, iter(out[d])))
                    break
            else:
                state[v] = 2
                stack.pop()
                if path:
                    path.pop()
    return None


def _canonical_tight_cycle(stack, lam):
    """First simple cycle of `stack`'s arcs of ratio exactly lam, in canonical order.

    No cycle of its finite-q arcs exceeds lam, so relaxing from zeros
    under weights lam*w - q gives potentials: shortest distances from a
    virtual source. Every arc then has non-negative reduced weight, and a
    cycle has ratio lam exactly when all its arcs are reduced-weight zero
    and its w is positive.
    """
    a, b = stack.weights(lam, False)
    n, q = stack.n, stack.q
    dist = stack._relax((a, b), [0] * n)[0]
    tight = [
        (k, s, d, w)
        for k, s, d, w, t in stack.arcs
        if q[t] is not None and dist[s] + a * w - b * q[t] == dist[d]
    ]
    weight = {k: w for k, _s, _d, w in tight}
    for cycle in _simple_cycles(n, _out_arcs(n, tight), visit_cap=_TIGHT_SEARCH_CAP):
        if sum(weight[k] for k in cycle) > 0:
            return cycle
    return None


def brute_force_max_ratio(graph: DualGraph) -> RatioVerdict:
    """Independent oracle: enumerate every simple directed cycle."""
    if graph.n_vertices > BRUTE_FORCE_VERTEX_GUARD:
        raise GraphTooLarge(
            f"{graph.n_vertices} vertices exceed the brute-force guard "
            f"{BRUTE_FORCE_VERTEX_GUARD}"
        )
    out = _out_arcs(graph.n_vertices, _prepare(graph))
    best = None  # (ratio Cost, edge_ids)
    for cycle in _simple_cycles(graph.n_vertices, out):
        ratio = walk_ratio(graph, cycle)
        if best is None or ratio > best[0]:
            best = (ratio, cycle)
    if best is None:
        raise EmptyGraph("graph has no directed cycle")
    report = _graph_report(graph, best[1])
    classification = "infinite" if report.ratio == POS_INF else "finite"
    return RatioVerdict(report, classification, 0)


def evaluate_policy(problem, policy) -> RatioVerdict:
    """Competitive ratio of a deterministic or behavioral table policy: the
    maximum-ratio cycle of its skeleton's integer arcs. Witness edge ids are
    skeleton edge ids, as in `build_graph_det` / `build_graph_rand`.
    Stage 0 runs first, on the skeleton's `arcs_from` and the policy's q;
    only a table it leaves open is solved (`_solve`), on the stack the
    verification closure builds: `ArcStack.over` the skeleton."""
    skel, q, unit = policy_q(problem, policy)
    witness = _infinite_q_cycle(skel.arcs, skel.arcs_from, q)
    if witness is None:
        kind, witness, iterations, certified = _solve(ArcStack.over(skel, q, unit))
    else:
        kind, iterations, certified = "infinite", 0, True
    steps = [skel.edges[k] for k in witness]  # (src, dst, x, b, w, t)
    qs = [q[e[5]] for e in steps]
    q_sum = POS_INF if None in qs else Cost(Fraction(sum(qs), problem._scale * unit))
    w_sum = problem._unscale(sum(e[4] for e in steps))
    report = _make_report(problem, witness, steps, q_sum, w_sum)
    return RatioVerdict(report, kind, iterations, certified)
