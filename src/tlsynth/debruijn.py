"""Dual-weighted transition graphs for competitive analysis.

For a sum-aggregation problem and a table policy with horizon T, vertices
pair a recent-input window with the adversary's recent outputs; every
edge consumes one new input and one adversary output choice and carries
two costs: w (paid by the adversary's outputs) and q (paid by the
policy). Closed walks then correspond to repeatable input patterns, and
the worst cycle cost ratio q/w is the policy's competitive ratio.

Everything policy-independent lives in one `Skeleton` per (problem, T),
built once and kept on the problem object. It has two constructions,
picked by whether the problem's cost splits into serve + switch parts:

- For r=1 problems whose cost splits into a serving part (new input vs
  new output) plus a switching part (old output vs new output), vertices
  carry exactly the policy's T-input window. The switching part of each
  step is charged one edge early, which telescopes over any cycle; a
  split that would charge some edge a negative q is not used.
- Otherwise vertices carry T+r inputs, enough to recompute the policy's
  outputs across a whole cost window, and every edge charges its true
  step cost.

Both emit the same format. Every edge belongs to a transition, a (window,
next input) pair; the policy's q on an edge never depends on the
adversary's outputs, so q is computed once per transition from a cost
row and the table entries of the windows the transition reads. There is
one q function for deterministic tables (`Skeleton.q_det`) and one for
behavioral tables (`Skeleton.q_rand`, the expectation over independent
per-step draws). All costs are ints in the problem's own scale
(`Skeleton.scale`). Analysis and synthesis solve these integer arcs
(`Skeleton.int_arcs`); the exact `Cost` view of the same edges is built
only for witness reports (`Skeleton.dual_edges`), dumps and the oracle
(`build_graph_det` / `build_graph_rand`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .errors import (
    GraphTooLarge,
    NotAWalk,
    UnsupportedAggregation,
    ValidationError,
)
from .exact import POS_INF, Cost
from .policies import DeterministicPolicy, RandomizedPolicy, decode_window, window_index
from .problems import LocalProblem

VERTEX_GUARD = 2**22


@dataclass(frozen=True)
class DualEdge:
    src: int
    dst: int
    x: int  # input symbol index consumed by the edge
    b: int  # adversary output symbol index appended by the edge
    w: Cost
    q: Cost


@dataclass(frozen=True)
class DualGraph:
    problem: LocalProblem
    horizon: int  # policy horizon T
    win_len: int  # input symbols per vertex (T, or T+r in the general form)
    n_vertices: int
    edges: tuple
    out_edges: tuple  # vertex -> tuple of edge indices, deterministic order

    @property
    def n_inputs(self):
        return len(self.problem.input_alphabet)

    @property
    def n_outputs(self):
        return len(self.problem.output_alphabet)

    def vertex_parts(self, v):
        """Decode a vertex id into (input window codes, adversary output codes)."""
        r = self.problem.horizon_r
        adv_size = self.n_outputs**r
        win_code, adv_code = divmod(v, adv_size)
        win = decode_window(win_code, self.n_inputs, self.win_len)
        adv = decode_window(adv_code, self.n_outputs, r)
        return win, adv

    def vertex_label(self, v):
        win, adv = self.vertex_parts(v)
        xs = "".join(self.problem.input_alphabet.symbols[i] for i in win)
        ys = "".join(self.problem.output_alphabet.symbols[i] for i in adv)
        return f"{xs}|{ys}" if ys else xs

    def dump(self) -> str:
        """Debug/oracle text form with exact rationals."""
        lines = [
            f"# dual graph: problem={self.problem.name} T={self.horizon} "
            f"vertices={self.n_vertices} edges={len(self.edges)}"
        ]
        for v in range(self.n_vertices):
            lines.append(f"vertex {v} {self.vertex_label(v)}")
        for k, e in enumerate(self.edges):
            x = self.problem.input_alphabet.symbols[e.x]
            b = self.problem.output_alphabet.symbols[e.b]
            lines.append(
                f"edge {k} {e.src} -> {e.dst} input={x} adversary={b} w={e.w} q={e.q}"
            )
        return "\n".join(lines)


def _check_sum(problem):
    if problem.aggregation != "sum":
        raise UnsupportedAggregation(
            "cycle analysis is defined for sum aggregation only"
        )


def serve_switch_split(problem: LocalProblem):
    """Split an r=1 cost table into serve(x_prev, x, y) + switch(y_prev, y).

    Returns (serve, switch) lookup dicts over symbol indices, or None when
    the table does not decompose, touches an infinity, or would make a
    split-skeleton edge charge serve(a, b, c) + switch(c, d) < 0.
    """
    if problem.horizon_r != 1:
        return None
    xs = problem.input_alphabet.symbols
    ys = problem.output_alphabet.symbols
    cost = {}  # (a, b, c, d) -> cost of inputs (a, b) and outputs (c, d)
    for a, b, c, d in product(range(len(xs)), range(len(xs)), range(len(ys)), range(len(ys))):
        value = problem.lookup_cost((xs[a], xs[b]), (ys[c], ys[d]))
        if not value.is_finite:
            return None
        cost[a, b, c, d] = value.as_fraction()
    serve = {(a, b, d): cost[a, b, d, d] for a, b, _c, d in cost}
    switch = {(c, d): cost[0, 0, c, d] - serve[0, 0, d] for _a, _b, c, d in cost}
    if any(v != serve[a, b, d] + switch[c, d] for (a, b, c, d), v in cost.items()):
        return None
    if any(serve[a, b, c] + switch[c, d] < 0 for a, b, c, d in cost):
        return None
    return serve, switch


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Policy-independent dual graph of a problem at horizon T.

    edges[k] = (src, dst, x, b, w, t): w is the adversary's exact Cost and
    t the edge's transition. transitions[t] = (row, codes): the policy's q
    on every edge of t is rows[row][y], where y encodes (oldest first,
    base |Y|) the table outputs at the window codes `codes`. Row entries
    are ints scaled by `scale`, the problem's own scale, or None for +inf.
    arcs lists the edges an adversary can play (w < +inf) as
    (k, src, dst, w * scale, t).
    """

    problem: LocalProblem
    horizon: int
    win_len: int  # input symbols per vertex
    n_vertices: int
    edges: tuple
    out_edges: tuple
    transitions: tuple
    rows: tuple
    scale: int
    arcs: tuple

    def q_det(self, table, ts=None):
        """Per-transition q of a deterministic table (output indices), for
        every transition or only for the transition ids `ts`; only the
        table entries those transitions read are used."""
        ny = len(self.problem.output_alphabet)
        rows = self.rows
        transitions = self.transitions
        q = []
        for row, codes in transitions if ts is None else (transitions[t] for t in ts):
            y = 0
            for c in codes:
                y = y * ny + table[c]
            q.append(rows[row][y])
        return q

    def q_rand(self, probs):
        """Per-transition expected q of a behavioral table (P(second output)
        per window), with an independent draw at every step.

        Returns (q, unit): ints (None for +inf) in units of 1/(scale*unit).
        """
        den = lcm(*(p.denominator for p in probs))
        ones = [int(p * den) for p in probs]
        rows = self.rows
        q = []
        for row, codes in self.transitions:
            terms = [(0, 1)]  # (output code so far, its probability * den^depth)
            for c in codes:
                p1 = ones[c]
                p0 = den - p1
                terms = [
                    (y * 2 + bit, m * pb)
                    for y, m in terms
                    for bit, pb in ((0, p0), (1, p1))
                    if pb
                ]
            total = 0
            for y, m in terms:
                cost = rows[row][y]
                if cost is None:
                    total = None
                    break
                total += m * cost
            q.append(total)
        return q, den ** len(self.transitions[0][1])

    def int_arcs(self, q, unit=1):
        """(id, src, dst, w, q) integer arcs for `ratiocycle.core_max_ratio`."""
        return [(k, s, d, w * unit, q[t]) for k, s, d, w, t in self.arcs]

    def dual_edges(self, q, unit=1, ids=None):
        """Exact DualEdges with per-transition q from q_det / q_rand: every
        edge, or the edges with ids `ids`."""
        edges = self.edges if ids is None else [self.edges[k] for k in ids]
        denom = self.scale * unit
        return [
            DualEdge(s, d, x, b, w, POS_INF if q[t] is None else Cost(Fraction(q[t], denom)))
            for s, d, x, b, w, t in edges
        ]

    def graph(self, q, unit=1) -> DualGraph:
        """Exact DualGraph view with per-transition q from q_det / q_rand."""
        return DualGraph(
            problem=self.problem,
            horizon=self.horizon,
            win_len=self.win_len,
            n_vertices=self.n_vertices,
            edges=tuple(self.dual_edges(q, unit)),
            out_edges=self.out_edges,
        )


def build_skeleton(problem: LocalProblem, horizon: int) -> Skeleton:
    """The serve/switch construction when the cost splits, else the general one."""
    _check_sum(problem)
    split = serve_switch_split(problem)
    if split is not None:
        return _split_skeleton(problem, horizon, *split)
    return _general_skeleton(problem, horizon)


def cached_skeleton(problem: LocalProblem, horizon: int) -> Skeleton:
    """build_skeleton, memoized on the problem object (and freed with it)."""
    memo = problem._skeleton_memo
    skel = memo.get(horizon)
    if skel is None:
        skel = build_skeleton(problem, horizon)
        memo[horizon] = skel
    return skel


def _guard_vertices(n_vertices):
    if n_vertices > VERTEX_GUARD:
        raise GraphTooLarge(f"{n_vertices} vertices exceed guard {VERTEX_GUARD}")


def _split_skeleton(problem, horizon, serve, switch):
    """Vertices are (T-window, adversary output); transition (window, x)
    reads the outputs at the window and at its successor."""
    xs = problem.input_alphabet.symbols
    ys = problem.output_alphabet.symbols
    nx, ny = len(xs), len(ys)
    n_windows = nx**horizon
    _guard_vertices(n_windows * ny)
    base_drop = nx ** (horizon - 1)
    edges = []
    transitions = []
    for win in range(n_windows):
        newest = win % nx
        succ_base = (win % base_drop) * nx
        for x in range(nx):
            transitions.append((newest * nx + x, (win, succ_base + x)))
        for b in range(ny):
            src = win * ny + b
            for x in range(nx):
                dst_win = succ_base + x
                for b2 in range(ny):
                    w = problem.lookup_cost((xs[newest], xs[x]), (ys[b], ys[b2]))
                    edges.append((src, dst_win * ny + b2, x, b2, w, win * nx + x))
    rows = [
        [Cost(serve[a, x, y0] + switch[y0, y1]) for y0 in range(ny) for y1 in range(ny)]
        for a in range(nx)
        for x in range(nx)
    ]
    return _finish(problem, horizon, horizon, n_windows * ny, edges, transitions, rows)


def _general_skeleton(problem, horizon):
    """Vertices are ((T+r)-window, last r adversary outputs); transition
    (window, x) reads the outputs at the r+1 windows ending at x's step."""
    r = problem.horizon_r
    xs = problem.input_alphabet.symbols
    ys = problem.output_alphabet.symbols
    nx, ny = len(xs), len(ys)
    win_len = horizon + r
    n_windows = nx**win_len
    adv_size = ny**r
    _guard_vertices(n_windows * adv_size)
    edges = []
    transitions = []
    for win in range(n_windows):
        win_syms = decode_window(win, nx, win_len)
        exts = [win_syms + (x,) for x in range(nx)]  # x_{i-T-r+1} .. x_{i+1}
        for ext in exts:
            reads = tuple(window_index(ext[j : j + horizon], nx) for j in range(r + 1))
            transitions.append((window_index(ext[-(r + 1) :], nx), reads))
        for adv in range(adv_size):
            adv_syms = tuple(ys[i] for i in decode_window(adv, ny, r))
            src = win * adv_size + adv
            for x, ext in enumerate(exts):
                x_window = tuple(xs[i] for i in ext[-(r + 1) :])
                dst_win = window_index(ext[1:], nx)
                for b2 in range(ny):
                    w = problem.lookup_cost(x_window, adv_syms + (ys[b2],))
                    dst = dst_win * adv_size + ((adv * ny + b2) % adv_size if r else 0)
                    edges.append((src, dst, x, b2, w, win * nx + x))
    rows = [
        [
            problem.lookup_cost(tuple(xs[i] for i in x_window), tuple(ys[i] for i in y))
            for y in product(range(ny), repeat=r + 1)
        ]
        for x_window in product(range(nx), repeat=r + 1)
    ]
    return _finish(problem, horizon, win_len, n_windows * adv_size, edges, transitions, rows)


def _finish(problem, horizon, win_len, n_vertices, edges, transitions, rows):
    """Scale every finite cost to an int in the problem's scale, which any
    sum or difference of rule costs allows, and index the edges. A general
    row entry is also some edge's w, so a negative or -inf cost a policy
    could pay is rejected here; split rows are >= 0."""
    scale = problem._scale
    out = [[] for _ in range(n_vertices)]
    arcs = []
    for k, (src, dst, _x, _b, w, t) in enumerate(edges):
        out[src].append(k)
        if w == POS_INF:
            continue  # the adversary never pays +inf
        if not w.is_finite or w.as_fraction() < 0:
            raise ValueError(f"edge {k}: adversary cost {w} must be >= 0")
        arcs.append((k, src, dst, int(w.as_fraction() * scale), t))
    int_rows = tuple(
        tuple(None if c == POS_INF else int(c.as_fraction() * scale) for c in row)
        for row in rows
    )
    return Skeleton(
        problem=problem,
        horizon=horizon,
        win_len=win_len,
        n_vertices=n_vertices,
        edges=tuple(edges),
        out_edges=tuple(tuple(ids) for ids in out),
        transitions=tuple(transitions),
        rows=int_rows,
        scale=scale,
        arcs=tuple(arcs),
    )


def policy_q(problem: LocalProblem, policy, horizon=None):
    """(skeleton, q, unit): the skeleton a policy's dual graph is a view of,
    after validation, and the policy's per-transition q in units of
    1/(skeleton.scale * unit), from q_det or, for a RandomizedPolicy, q_rand."""
    if horizon is not None and horizon != policy.horizon:
        raise ValidationError("horizon argument disagrees with the policy table")
    if (
        policy.input_alphabet.symbols != problem.input_alphabet.symbols
        or policy.output_alphabet.symbols != problem.output_alphabet.symbols
    ):
        raise ValidationError("policy and problem alphabets differ")
    skel = cached_skeleton(problem, policy.horizon)
    if isinstance(policy, RandomizedPolicy):
        return (skel, *skel.q_rand(policy.table))
    return skel, skel.q_det(policy.table), 1


def build_graph_det(problem: LocalProblem, policy: DeterministicPolicy, horizon=None):
    """Dual graph of a table policy (expected algorithm costs for a RandomizedPolicy)."""
    skel, q, unit = policy_q(problem, policy, horizon)
    return skel.graph(q, unit)


def build_graph_rand(problem: LocalProblem, policy: RandomizedPolicy, horizon=None):
    """Dual graph of a behavioral randomized policy (expected algorithm costs)."""
    skel, q, unit = policy_q(problem, policy, horizon)
    return skel.graph(q, unit)


def induced_input(graph: DualGraph, cycle_edges):
    """Per-edge new-input symbols of a closed walk, oldest first."""
    if not cycle_edges:
        raise NotAWalk("empty edge sequence")
    edges = [graph.edges[k] if isinstance(k, int) else k for k in cycle_edges]
    for e, nxt in zip(edges, edges[1:] + edges[:1]):
        if e.dst != nxt.src:
            raise NotAWalk(f"edge into {e.dst} followed by edge from {nxt.src}")
    symbols = graph.problem.input_alphabet.symbols
    return tuple(symbols[e.x] for e in edges)


def adversary_outputs(graph: DualGraph, cycle_edges):
    """Per-edge adversary output symbols of a closed walk."""
    edges = [graph.edges[k] if isinstance(k, int) else k for k in cycle_edges]
    symbols = graph.problem.output_alphabet.symbols
    return tuple(symbols[e.b] for e in edges)