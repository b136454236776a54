"""Synthesis of optimal time-local policies.

Every search runs on the problem's `debruijn.Skeleton`: a table becomes a
per-transition q vector (`Skeleton.q_det` or `Skeleton.q_rand`) and then
integer arcs for `ratiocycle`. Every search over tables is one depth-first
branch and bound over partial tables, `_Search`, which `synthesize_det`,
`verify_lower_bound` and the grid phase of `synthesize_rand` run in one
process, whatever the problem. Deterministic synthesis finds the minimum
exact ratio over every table X^T -> Y and the tables reaching it:

- self-loop forcing: on a constant window whose adversary can sit still
  for free, the policy must answer with a free self-loop of its own,
  which pins the table entry (for file migration A(0..0)=0, A(1..1)=1);
- node pruning: free entries are assigned one at a time in de Bruijn
  depth-first order from the forced windows, and a subtree is dropped as
  soon as the transitions its fixed entries determine hold a cycle that
  loses to the incumbent (a cycle of the fixed subgraph is a cycle of
  every completion). Whether one does is a decision, not a ratio: one
  negative-cycle test on the fixed subgraph, a `ratiocycle.ArcStack` that
  grows and shrinks with the search and starts each test from an
  ancestor's potentials, so only the arcs fixed since are queued;
- short-cycle screening: complete tables with a cycle of at most
  PRUNE_CYCLE_LENGTH adversary-playable edges whose ratio loses to the
  incumbent are dropped before the decision test.

A complete table is decided the same way. One that does not lose is
decided again with ties losing: if a cycle then reaches the incumbent, the
table ties it and is recorded without a solve. Only a table that beats the
incumbent is solved for its exact ratio by `ratiocycle.core_max_ratio`,
once per improvement.

Without pruning (`prune=False`) the search is a plain exhaustive scan
of every table, the reference the pruned search is tested against.
Without `collect_all_optimal` the result is the lexicographically first
optimal table. `verify_lower_bound` is the same search with the bound as
the incumbent, stopping at the first table below it.

Randomized search runs the same branch and bound over a probability grid
on the free windows, each probability a numerator over the step's
denominator, so every q shares one unit; a cycle of the fixed subgraph
has the same q in every completion, so node pruning holds as it does for
deterministic tables. The self-loop entries stay forced, whatever
`prune` says. The grid's lexicographically first optimal table is then
refined coordinate-wise with a shrinking step; each refinement table is
pushed onto a fresh `ratiocycle.ArcStack` and decided against the
incumbent the same way, ties losing, and only a win is solved, once per
improvement. The result is the best table found, with no
global-optimality claim.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .debruijn import cached_skeleton, over_common_denominator
from .errors import (
    InvalidHorizon,
    SearchSpaceTooLarge,
    UnsupportedAggregation,
    ValidationError,
    VerificationFailed,
)
from .exact import POS_INF, Cost
from .policies import DeterministicPolicy, RandomizedPolicy, window_index
from .problems import LocalProblem
from .ratiocycle import ArcStack, core_max_ratio, evaluate_policy

DEFAULT_CANDIDATE_GUARD = 2**26
PRUNE_CYCLE_LENGTH = 2


@dataclass(frozen=True)
class SynthesisConfig:
    horizon: int
    collect_all_optimal: bool = False
    grid_step: Fraction = Fraction(1, 20)
    refinement_rounds: int = 8
    # self-loop forcing (always on for randomized search), node pruning and
    # the short-cycle screen; off, the search is the exhaustive decided scan
    prune: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidHorizon(f"horizon must be at least 1, got {self.horizon}")
        if not 0 < self.grid_step <= 1:
            raise ValidationError("grid step must lie in (0, 1]")


@dataclass(frozen=True)
class SynthesisResult:
    classification: str  # "finite" | "infinite"
    best_ratio: Cost
    policies: tuple  # lexicographically sorted optimal tables
    candidates_examined: int
    forced_entries: int
    pruned_short_cycle: int  # tables discarded without a full evaluation
    full_evaluations: int
    nodes_visited: int  # search-tree nodes, partial tables included
    decision_tests: int  # `ArcStack.exceeds` calls: node cuts, leaf and tie verdicts
    parametric_solves: int  # leaves that beat the incumbent, rated by `core_max_ratio`
    wall_seconds: float


# -- self-loop constraints ----------------------------------------------------


def self_loop_constraints(problem: LocalProblem, horizon: int) -> dict:
    """Forced table entries, {window code: output index}, from zero-cost
    adversary self-loops.

    On the constant window c^T the adversary can loop forever for free by
    repeating any output whose constant self-loop costs zero; a
    finitely-competitive policy must then answer c^T with such an output
    itself. Entries are forced only when exactly one output qualifies.
    """
    if problem.aggregation != "sum":
        raise UnsupportedAggregation("self-loop analysis needs sum aggregation")
    r = problem.horizon_r
    xs = problem.input_alphabet.symbols
    ys = problem.output_alphabet.symbols
    nx = len(xs)
    forced = {}
    for c in range(nx):
        zero_cost_answers = [
            o
            for o in range(len(ys))
            if problem.lookup_scaled((xs[c],) * (r + 1), (ys[o],) * (r + 1)) == 0
        ]
        if len(zero_cost_answers) == 1:
            forced[window_index((c,) * horizon, nx)] = zero_cost_answers[0]
    return forced


# -- candidate count ----------------------------------------------------


def candidate_count(n_windows, n_outputs, forced):
    return n_outputs ** (n_windows - len(forced))


def _forced_entries(problem, config):
    """The forced entries (none without pruning), once the tables left to
    search pass the candidate guard."""
    forced = self_loop_constraints(problem, config.horizon) if config.prune else {}
    n_windows = len(problem.input_alphabet) ** config.horizon
    _check_guard(candidate_count(n_windows, len(problem.output_alphabet), forced))
    return forced


def _check_guard(total):
    if total > DEFAULT_CANDIDATE_GUARD:
        raise SearchSpaceTooLarge(total, DEFAULT_CANDIDATE_GUARD)


# -- short-cycle screening ----------------------------------------------------


def short_cycles(skel, max_len=PRUNE_CYCLE_LENGTH):
    """Simple cycles of at most max_len skeleton arcs (edges with w < +inf),
    as (transition ids, scaled w sum), rooted at their smallest vertex. Of
    the cycles through the same transitions, which share their q for every
    table, only a lightest is kept: no other rates higher."""
    out = [[] for _ in range(skel.n_vertices)]
    for _k, src, dst, w, t in skel.arcs:
        out[src].append((dst, w, t))
    lightest = {}  # transition ids -> least w sum

    def extend(root, v, ts, w_sum, on_path):
        for dst, w, t in out[v]:
            if dst == root:
                cycle = ts + (t,)
                lightest[cycle] = min(w_sum + w, lightest.get(cycle, w_sum + w))
            elif len(ts) + 1 < max_len and dst > root and dst not in on_path:
                extend(root, dst, ts + (t,), w_sum + w, on_path | {dst})

    for root in range(skel.n_vertices):
        extend(root, root, (), 0, {root})
    return list(lightest.items())


def short_cycle_hits(cycles, q, bound: Fraction, keep_ties) -> bool:
    """True = discard: some cycle's ratio under the per-transition q is
    >= bound (strictly greater with keep_ties); infinite q is a hit.
    Sound: a table whose true ratio beats the bound is never discarded."""
    a, b = bound.numerator, bound.denominator
    for ts, w_sum in cycles:
        qs = [q[t] for t in ts]
        if None in qs:
            return True
        q_sum = sum(qs)
        if w_sum == 0:
            if q_sum > 0:
                return True
            lhs, rhs = b, a  # the 0/0 cycle has ratio 1
        else:
            lhs, rhs = q_sum * b, a * w_sum
        if lhs > rhs or (not keep_ties and lhs == rhs):
            return True
    return False


# -- branch and bound over partial tables ----------------------------------------


def assignment_order(n_inputs, horizon, forced):
    """Free window codes in the order the search assigns them.

    Depth-first over the de Bruijn graph of windows (a window steps to its
    left shift extended by each input, inputs ascending), from the forced
    windows in ascending order and then from any window not yet reached.
    Every window in this order is a successor of a forced window or of one
    before it, so each assignment tends to fix a transition that closes a
    cycle through windows fixed before it.
    """
    n_windows = n_inputs**horizon
    shift = n_inputs ** (horizon - 1)
    seen = [False] * n_windows
    order = []

    def visit(w):
        seen[w] = True
        if w not in forced:
            order.append(w)

    for root in [*sorted(forced), *range(n_windows)]:
        if seen[root]:
            continue
        visit(root)
        stack = [(root, iter(range(n_inputs)))]
        while stack:
            w, inputs = stack[-1]
            for x in inputs:
                succ = (w % shift) * n_inputs + x
                if not seen[succ]:
                    visit(succ)
                    stack.append((succ, iter(range(n_inputs))))
                    break
            else:
                stack.pop()
    return order


class _Search:
    """Depth-first branch and bound over partial tables.

    Free windows are assigned in `assignment_order`, values ascending; a
    value is an output index, or for a behavioral grid the numerator of a
    probability over one denominator `den`. Windows not yet assigned hold
    the first value, 0, so the table at a node is the lexicographically
    first table below it. A transition's q is known once every window it
    reads is fixed, from `Skeleton.q_det` or `Skeleton.q_rand` over `den`,
    and its arcs then join the fixed subgraph, an `ArcStack` that `visit`
    grows and pops back on return. As `den` is fixed, so is the unit of q,
    and every arc's w is scaled by it once. Every cycle of that subgraph is
    a cycle of every completion with the same q, so its maximum ratio is a
    lower bound on the ratio of every table below the node, and the
    subtree is pruned when that bound already loses to the incumbent.
    `loses` decides that with `ArcStack.exceeds`, started from the
    potentials of the nearest ancestor decided under the same weights,
    without computing the bound itself. Complete tables are screened for
    short cycles and then decided the same way. A table that does not lose
    is decided again with ties losing, which tells a tie (recorded as is)
    from a win; only a win is solved for its exact ratio. Without `prune`
    there is neither node pruning nor the screen: a plain exhaustive scan,
    which still decides each table before solving it.

    Ties with the incumbent are kept with `collect_all_optimal`; otherwise
    the lexicographically first optimal table wins, so a tie prunes only a
    subtree whose first table is greater than the incumbent's.

    This is the one search over tables: `visit(0)` searches every table
    against `incumbent`. With stop_below it ends at the first table that
    beats the incumbent.
    """

    def __init__(
        self, problem, config, forced, incumbent=POS_INF, stop_below=False, grid=None
    ):
        """grid: (numerators, den) of a behavioral probability grid, with
        `forced` in numerators too; None searches deterministic tables."""
        skel = cached_skeleton(problem, config.horizon)
        nx = len(problem.input_alphabet)
        self.skel = skel
        if grid is None:
            self.values, self.q_of, unit = range(len(problem.output_alphabet)), skel.q_det, 1
        else:
            self.values, den = grid
            self.q_of = lambda table, ts: skel.q_rand(table, den, ts)
            unit = skel.rand_unit(den)
        self.order = assignment_order(nx, config.horizon, forced)
        position = {w: depth for depth, w in enumerate(self.order)}
        # fixed_at[d]: transitions whose last read window is assigned at
        # depth d - 1 (d = 0: transitions between forced windows only)
        self.fixed_at = [[] for _ in range(len(self.order) + 1)]
        for t, (_row, codes) in enumerate(skel.transitions):
            self.fixed_at[1 + max(position.get(c, -1) for c in codes)].append(t)
        self.arcs_of = [[] for _ in skel.transitions]
        for k, src, dst, w, t in skel.arcs:
            self.arcs_of[t].append((k, src, dst, w * unit))
        self.table = [forced.get(w, 0) for w in range(nx**config.horizon)]
        self.q = [None] * len(skel.transitions)
        # integer arcs of the fixed subgraph, bounded by the skeleton's
        # largest w and row entry in q's unit (a q is a mean of row entries)
        self.fixed = ArcStack(
            skel.n_vertices,
            max((w for _k, _s, _d, w, _t in skel.arcs), default=0) * unit,
            max((c for row in skel.rows for c in row if c is not None), default=0) * unit,
        )
        self.prune = config.prune
        self.cycles = [(ts, w * unit) for ts, w in short_cycles(skel)] if self.prune else ()
        self.keep_ties = config.collect_all_optimal
        self.bound = incumbent.as_fraction() if incumbent.is_finite else None
        self.tables = []  # optimal tables found, as tuples of values
        self.stop_below = stop_below
        self.done = False
        # tables discarded without a full evaluation, tables past the screen
        # (each given a decision test), nodes entered, `ArcStack.exceeds`
        # calls, and `core_max_ratio` calls on leaves that beat the incumbent
        self.pruned = self.evaluated = self.nodes = self.decisions = self.solves = 0

    def visit(self, depth):
        self.nodes += 1
        fixed = self.fixed
        mark = len(fixed.arcs)
        ts = self.fixed_at[depth]
        qs = self.q_of(self.table, ts)
        arcs_of, q_all = self.arcs_of, self.q
        for t, q in zip(ts, qs):
            q_all[t] = q
        fixed.push([(k, src, dst, w, q) for t, q in zip(ts, qs) for k, src, dst, w in arcs_of[t]])
        if depth == len(self.order):
            self.leaf()
        elif self.prune and len(fixed.arcs) > mark and self.loses(self.tie_loses()):
            self.pruned += len(self.values) ** (len(self.order) - depth)
        else:
            window = self.order[depth]
            for value in self.values:
                self.table[window] = value
                self.visit(depth + 1)
                if self.done:
                    break
            self.table[window] = 0
        fixed.pop_to(mark)

    def tie_loses(self):
        """True when a tie with the incumbent is of no use below this node:
        ties are not kept, and the incumbent is a bare bound or a table
        before this node's first table."""
        return not self.keep_ties and (not self.tables or tuple(self.table) > self.tables[0])

    def loses(self, tie_loses):
        """True when the fixed subgraph holds a cycle that loses to the
        incumbent, so no table below the node is of use (an acyclic one
        proves nothing): `ArcStack.exceeds`, started from the potentials of
        the nearest ancestor decided under the same weights. Those stay
        feasible for that ancestor's arcs, all of which are still fixed, so
        only the arcs added since can be violated."""
        self.decisions += 1
        return self.fixed.exceeds(self.bound, tie_loses)[0]

    def leaf(self):
        tie_loses = self.tie_loses()
        if self.bound is not None and short_cycle_hits(
            self.cycles, self.q, self.bound, keep_ties=not tie_loses
        ):
            self.pruned += 1
            return
        self.evaluated += 1
        if self.loses(tie_loses):
            return
        table = tuple(self.table)
        if self.bound is not None and not tie_loses and self.loses(True):
            # no cycle is above the incumbent and one reaches it: a tie
            if self.keep_ties:
                self.tables.append(table)
            else:  # a tie with a lexicographically smaller table
                self.tables = [table]
            return
        # a finite ratio below the incumbent
        self.solves += 1
        _kind, self.bound, _w, _i = core_max_ratio(self.skel.n_vertices, self.fixed.arcs)
        self.tables = [table]
        self.done = self.stop_below


# -- deterministic synthesis ---------------------------------------------------------


def synthesize_det(problem: LocalProblem, config: SynthesisConfig) -> SynthesisResult:
    """Minimum competitive ratio over all horizon-T tables, with witnesses."""
    started = time.monotonic()
    forced = _forced_entries(problem, config)
    search = _Search(problem, config, forced)
    search.visit(0)
    best = POS_INF if search.bound is None else Cost(search.bound)

    policies = tuple(_policy_from_table(problem, config, t) for t in sorted(search.tables))
    # verification closure: winners must reproduce the reported ratio exactly
    for policy in policies:
        ratio = evaluate_policy(problem, policy).best.ratio
        if ratio != best:
            raise VerificationFailed(
                f"optimal table {policy.table} re-evaluates to {ratio}, "
                f"the search reported {best}"
            )
    return SynthesisResult(
        classification="finite" if best.is_finite else "infinite",
        best_ratio=best,
        policies=policies,
        candidates_examined=search.pruned + search.evaluated,
        forced_entries=len(forced),
        pruned_short_cycle=search.pruned,
        full_evaluations=search.evaluated,
        nodes_visited=search.nodes,
        decision_tests=search.decisions,
        parametric_solves=search.solves,
        wall_seconds=time.monotonic() - started,
    )


def _policy_from_table(problem, config, table):
    return DeterministicPolicy(
        config.horizon, problem.input_alphabet, problem.output_alphabet, table
    )


def verify_lower_bound(problem: LocalProblem, config: SynthesisConfig, bound: Fraction):
    """Check that every candidate's graph has a cycle of ratio >= bound.

    The synthesis search with the bound as incumbent: a subtree or table
    whose cycles reach the bound is discarded, and the search stops at the
    first table below it. Returns (holds, counterexample_policy,
    candidates_checked); a counterexample is a policy whose exact ratio is
    below the bound.
    """
    config = replace(config, collect_all_optimal=False)
    forced = _forced_entries(problem, config)
    search = _Search(problem, config, forced, Cost(Fraction(bound)), stop_below=True)
    search.visit(0)
    checked = search.pruned + search.evaluated
    if search.tables:
        return False, _policy_from_table(problem, config, search.tables[0]), checked
    return True, None, checked


# -- randomized synthesis -------------------------------------------------------


def synthesize_rand(problem: LocalProblem, config: SynthesisConfig):
    """Best-effort randomized table search: a grid search over the free
    windows, then coordinate refinement with a halving step.

    The grid phase is `_Search` over the grid's probabilities, written as
    numerators over the step's denominator: the branch and bound of
    `synthesize_det` (`prune=False` gives its exhaustive decided scan),
    with the self-loop entries forced either way. It returns the
    lexicographically first optimal grid table. Each refinement table is
    pushed onto a fresh `ratiocycle.ArcStack`, since its step, and so the
    common denominator, changes every round, and decided against the
    incumbent with ties losing; only a win is solved by `core_max_ratio`.
    Returns (policy, ratio); when every table tried has an infinite ratio
    that is the first grid table and +inf. No global-optimality claim is
    made.
    """
    if len(problem.output_alphabet) != 2:
        raise ValidationError("randomized synthesis needs binary outputs")
    forced = self_loop_constraints(problem, config.horizon)
    n_windows = len(problem.input_alphabet) ** config.horizon
    free = [w for w in range(n_windows) if w not in forced]

    # grid: the multiples of the step below 1, then 1, as numerators over
    # the step's denominator; counted before built
    step = Fraction(config.grid_step)
    below_one = math.ceil(1 / step)
    _check_guard((below_one + 1) ** len(free))
    den = step.denominator
    grid = [k * step.numerator for k in range(below_one)] + [den]

    search = _Search(
        problem,
        replace(config, collect_all_optimal=False),
        {w: output * den for w, output in forced.items()},
        grid=(grid, den),
    )
    search.visit(0)
    # no finite table: the first grid table, which the search restores
    best = search.tables[0] if search.tables else search.table
    best_probs = [Fraction(value, den) for value in best]
    best_ratio = search.bound

    skel = search.skel

    def improvement(probs, incumbent):
        """The exact expected ratio of the table when it beats the
        incumbent, else None. Against a finite incumbent the table is
        decided with ties losing, and only a win is solved; with none, it
        is solved and wins when its ratio is finite."""
        ones, common = over_common_denominator(probs)
        arcs = skel.int_arcs(skel.q_rand(ones, common), skel.rand_unit(common))
        if incumbent is not None:
            if ArcStack.holding(skel.n_vertices, arcs).exceeds(incumbent, ties_lose=True)[0]:
                return None
        kind, lam, _w, _i = core_max_ratio(skel.n_vertices, arcs)
        return lam if kind == "finite" else None

    # coordinate refinement, shrinking the step each round
    step = Fraction(config.grid_step) / 2
    for _ in range(config.refinement_rounds):
        for w in free:
            for candidate in (best_probs[w] - step, best_probs[w] + step):
                if not 0 <= candidate <= 1:
                    continue
                probs = list(best_probs)
                probs[w] = candidate
                ratio = improvement(probs, best_ratio)
                if ratio is not None:
                    best_ratio, best_probs = ratio, probs
        step /= 2

    policy = RandomizedPolicy(
        config.horizon,
        problem.input_alphabet,
        problem.output_alphabet,
        tuple(best_probs),
    )
    return policy, Cost(best_ratio) if best_ratio is not None else POS_INF
