"""Synthesis of optimal time-local policies.

Every search runs on the problem's `debruijn.Skeleton`: a table becomes a
per-transition q (the row entry of the outputs a transition reads, or
`debruijn.expected_cost` of their probabilities) on a `ratiocycle.ArcStack`
over the skeleton's arcs. Every search over tables is one depth-first
branch and bound over partial tables, `_Search`, which `synthesize_det`,
`verify_lower_bound` and the grid phase of `synthesize_rand` run in one
process, whatever the problem. Deterministic synthesis finds the minimum
exact ratio over every table X^T -> Y and the tables reaching it:

- self-loop forcing: on a constant window whose adversary can sit still
  for free, the policy must answer with a free self-loop of its own,
  which pins the table entry (for file migration A(0..0)=0, A(1..1)=1);
- node pruning: free entries are assigned one at a time in de Bruijn
  depth-first order from the forced windows. A transition's arcs at a
  node carry its exact q once the windows it reads are fixed, and before
  that the least q over the corners of its free reads, each read its own
  variable (every output index, or probability 0 and 1); a transition
  with a +inf corner waits for its exact q. q is multilinear in the
  reads, so a cycle's ratio at the node is at most its ratio in every
  completion, and a subtree is dropped as soon as a cycle of the node
  loses to the incumbent. Whether a cycle loses is a decision, not a
  ratio: one negative-cycle test on one `ratiocycle.ArcStack` over the
  skeleton's arcs, where each assignment raises the q of the transitions
  reading the window and a return pops it back, and each test starts
  from the warm potentials under its weights, so only the arcs of the
  transitions raised since are queued;
- cycle memory: a decision that loses names its losing cycle, and the
  search keeps the last few the relaxation found (`REMEMBERED_CYCLES`).
  Before each test it weighs them under the decision's weights and the
  node's q, and one that is negative settles the decision as the test
  would, with no relaxation: the killer heuristic of game-tree search
  (Akl & Newborn 1977) applied to the negative-cycle test. No verdict
  changes, so neither do the tables, ratios or other counters.

A complete table is decided the same way, after the one check the
decision cannot make: a table paying +inf on both transitions of a
2-cycle (`infinite_pairs`) is dropped, as `ratiocycle.ArcStack.exceeds`
closes a +inf arc with finite arcs only. A table that does not lose is
decided again with ties losing: if a cycle then reaches the incumbent, the
table ties it and is recorded without a solve. Only a table that beats the
incumbent is solved for its exact ratio, once per improvement, on the
stack that just decided it (`ratiocycle.ArcStack.max_ratio`).

With pruning and T >= 2, deterministic synthesis is guided by a lifted
table. The lexicographically first optimal T-1 table is found by the same
search, guided the same way, recursively down to T=1; read as a
horizon-T table that ignores its oldest input, it rates the same. Each
window tries the lifted table's value first. With no incumbent yet, a
node on that path only looks for an infinite cycle, and the finite lifted
table's nodes hold none, so the search's first leaf is the lifted table:
it is decided and solved like any other leaf, and bounds the rest of the
search. A node's table is still the lexicographically first below it,
whatever the order, so neither the optimum nor the tables returned depend
on the guide; the search only has to refute better tables, and the
counters describe it alone.

Without pruning (`prune=False`) the search is a plain exhaustive scan
of every table, the reference the pruned search is tested against.
Without `collect_all_optimal` the result is the lexicographically first
optimal table. `verify_lower_bound` is the same search with the bound as
the incumbent, stopping at the first table below it.

Randomized search runs the same branch and bound over a probability grid
on the free windows, each probability a numerator over one denominator,
the step's shifted left by `REFINEMENT_ROUNDS`, so every q shares one
unit, and the corners of a free read are 0 and the denominator, so node
pruning holds as it does for deterministic tables. The self-loop entries
stay forced, whatever `prune` says. With `prune` it also cuts runs of
values at the last window: when a leaf there loses by a cycle whose
transitions each read the window at most once, their q, and so the
cycle's weight under the bound, are affine in the window's numerator
(the parametric argument of Karp & Orlin 1981), and the values after it
are skipped while that weight is negative, as each such table holds a
cycle above the bound. The grid search starts from the deterministic
optimum, as every grid holds the deterministic tables: its ratio is the
bound, its first optimal table times the denominator the incumbent. A
caller that has just run `synthesize_det` on the same problem and horizon
hands its result over (`start`, as `measure.emit_table2` does for each
`rand` cell); otherwise `synthesize_det` runs first. The grid's first
optimal table is then refined coordinate-wise on the same search, its
move halved each round (`_Search.move`): a move recomputes q only for the
transitions reading its window, and is decided like a leaf, ties losing,
on the search's stack and cycle memory, which settles nearly every move.
Only a win is solved, by `ratiocycle.core_max_ratio` on the search's own
stack, which holds the moved table's q at that point, so a win builds no
stack. The result is the best table found, with no global-optimality
claim.

Each search first checks its table count against `DEFAULT_CANDIDATE_GUARD`
(`_forced_entries`) as a base and an exponent, |X|^T less the forced
windows, so the count is never built, nor a huge exponent.

Every search result passes one verification closure (`_verify`) before
it is returned: each optimal deterministic table must rate exactly the
reported ratio, the randomized table the ratio returned with it, and a
lower-bound counterexample below the bound. Each is decided from the
returned policy alone, with `debruijn.policy_q`, on a fresh
`ratiocycle.ArcStack` over the skeleton and the policy's q, so no
relaxed q, warm potentials or q memo of the search is trusted. Equality
takes two decisions: no cycle exceeds the ratio, and one reaches it when
ties lose. Together they pin the exact ratio, as `ArcStack.exceeds` gives
the verdict of the full parametric search; an infinite cycle fails the
first, and a +inf result must exceed the absent bound. A failure raises
`VerificationFailed`, never an `assert`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .debruijn import cached_skeleton, expected_cost, policy_q
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
from .ratiocycle import ArcStack, core_max_ratio

DEFAULT_CANDIDATE_GUARD = 2**26
# losing cycles a search remembers and tests before each decision
REMEMBERED_CYCLES = 4
# halvings of the grid step in randomized synthesis's coordinate refinement
REFINEMENT_ROUNDS = 8


@dataclass(frozen=True)
class SynthesisConfig:
    horizon: int
    collect_all_optimal: bool = False
    grid_step: Fraction = Fraction(1, 20)
    # self-loop forcing (always on for randomized search) and node pruning;
    # off, the search is the exhaustive decided scan
    prune: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidHorizon(f"horizon must be at least 1, got {self.horizon}")
        if not 0 < self.grid_step <= 1:
            raise ValidationError("grid step must lie in (0, 1]")


@dataclass(frozen=True)
class SynthesisResult:
    horizon: int  # T of every table searched
    classification: str  # "finite" | "infinite"
    best_ratio: Cost
    policies: tuple  # lexicographically sorted optimal tables
    candidates_examined: int
    forced_entries: int
    pruned_short_cycle: int  # tables discarded without a full evaluation
    full_evaluations: int
    nodes_visited: int  # search-tree nodes, partial tables included
    # the search's decisions: node cuts, leaf and tie verdicts, not the
    # verification closure's; each is settled by a remembered cycle or by
    # one `ArcStack.exceeds` call
    decision_tests: int
    remembered_cuts: int  # decisions settled by a remembered cycle
    parametric_solves: int  # wins over the incumbent, rated by `ArcStack.max_ratio`
    wall_seconds: float


# -- self-loop constraints ----------------------------------------------------


def self_loop_constraints(problem: LocalProblem, horizon: int) -> dict:
    """Forced table entries, {window code: output index}, from zero-cost
    adversary self-loops: the constant windows c^T of `_self_loop_outputs`."""
    nx = len(problem.input_alphabet)
    return {window_index((c,) * horizon, nx): o for c, o in _self_loop_outputs(problem).items()}


def _self_loop_outputs(problem):
    """{input symbol index c: output index}, the same at every horizon T.

    On the constant window c^T the adversary can loop forever for free by
    repeating any output whose constant self-loop costs zero; a
    finitely-competitive policy must then answer c^T with such an output
    itself. Entries are forced only when exactly one output qualifies.
    """
    if problem.aggregation != "sum":
        raise UnsupportedAggregation("self-loop analysis needs sum aggregation")
    r1 = problem.horizon_r + 1
    ys = problem.output_alphabet.symbols
    zero_cost_answers = [
        [o for o, y in enumerate(ys) if problem.lookup_scaled((x,) * r1, (y,) * r1) == 0]
        for x in problem.input_alphabet.symbols
    ]
    return {c: answers[0] for c, answers in enumerate(zero_cost_answers) if len(answers) == 1}


# -- candidate guard ----------------------------------------------------


def _forced_entries(problem, config, n_values=None):
    """The forced entries (none without pruning), once the tables left to
    search, `n_values` (by default one per output) on each other window,
    pass the candidate guard. The guard counts the forcing symbols, so no
    window is coded before it passes."""
    n_forced = len(_self_loop_outputs(problem)) if config.prune else 0
    n_free = (len(problem.input_alphabet), config.horizon, n_forced)  # |X|^T - n_forced
    n_values = n_values or len(problem.output_alphabet)
    SearchSpaceTooLarge.check(n_values, n_free, DEFAULT_CANDIDATE_GUARD)
    return self_loop_constraints(problem, config.horizon) if config.prune else {}


# -- branch and bound over partial tables ----------------------------------------


def infinite_pairs(skel):
    """Pairs of transitions that can pay +inf (a None in their cost row)
    and have arcs closing a 2-cycle. A table paying +inf on both pays +inf
    on that cycle, which stage 0 (`ratiocycle._infinite_q_cycle`) misses:
    it closes each +inf arc by finite-q arcs only."""
    ends = {}  # (src, dst) -> the transitions that can pay +inf on an arc src -> dst
    for _k, src, dst, _w, t in skel.arcs:
        if None in skel.rows[skel.transitions[t][0]]:
            ends.setdefault((src, dst), set()).add(t)
    pairs = set()
    for (src, dst), ts in ends.items():
        if src < dst:
            pairs.update(product(ts, ends.get((dst, src), ())))
    return sorted(pairs)


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

    Free windows are assigned in `assignment_order`, values ascending, or
    with a `guide` table its value first and then the others ascending; a
    value is an output index, or for a behavioral grid the numerator of a
    probability over one denominator `den`. Windows not yet assigned hold
    the first value, 0, so the table at a node is the lexicographically
    first table below it, in either order. A transition's q is known once
    every window it reads is fixed: `rows[row][y]` of the output indices it
    reads, or their `debruijn.expected_cost` over `den`. As `den` is fixed,
    so is the unit of q, which the one `ArcStack.over` the skeleton takes
    into its weights; it holds the node's q of each transition (-1 while
    it has none), which `enter` raises and `visit` pops back on return.

    With `prune`, a node also gives a relaxed q to every transition whose
    reads are not all fixed: the least over the corners of its free reads,
    each read its own variable taking every output index, or 0 and `den`
    on a grid. q is multilinear in the reads, so that is its least value
    on every table below the node. Depth 0 raises every transition so, and
    each assignment raises the transitions reading the window again when
    their least q rises; the last one gives the exact q. So every cycle's
    ratio at the node is at most its ratio in every completion, and the
    subtree is pruned when the stack already holds a cycle that loses to
    the incumbent. A transition with a +inf corner is kept out until its q
    is exact, so an infinite verdict at a node holds at every completion
    as well. `loses` decides with `ArcStack.exceeds`, started from the
    warm potentials under the same weights, without computing the bound.
    Before that it tries the last `REMEMBERED_CYCLES` losing cycles the
    relaxation closed, kept as (w, t) lists newest first: a cycle whose
    transitions all hold finite arcs, and whose sum of A*w - B*q under the
    decision's weights and the node's q is negative, is a cycle of the
    stack that loses, so it settles the decision and moves to the front.
    A complete table paying +inf on both transitions of an
    `infinite_pairs` pair is dropped, and any other is decided the same
    way. A table that does not lose is decided again with ties
    losing, which tells a tie (recorded as is) from a win; only a win is
    solved for its exact ratio, by `ArcStack.max_ratio` on the stack that
    decided it, which holds its exact q. Without `prune` a node holds
    only exact q and there is neither node pruning nor the pair check: a
    plain exhaustive scan, which still decides each table before solving
    it.

    On a grid with `prune` (`value_cut`), the node whose children are
    leaves tries its values ascending, as a grid has no guide. A leaf that
    loses by a cycle negative under its decision's weights gives that
    cycle's weight as a line in the value (`cut_line`), and the values
    after it are counted as pruned while the line is negative.

    Ties with the incumbent are kept with `collect_all_optimal`; otherwise
    the lexicographically first optimal table wins, so a tie prunes only a
    subtree whose first table is greater than the incumbent's.

    This is the one search over tables: `visit(0)` searches every table
    against the incumbent, a `bound` (None for none) reached by the
    `tables` given. With stop_below it ends at the first table that beats
    the incumbent. Deterministic synthesis passes the lifted T-1 optimum
    (`_lifted_guide`) as the guide alone, with no bound, so its first leaf
    is the lifted table, rated there. After a grid's `visit(0)`, `move`
    decides moves of one window of a complete table on the same stack and
    memory: randomized synthesis's refinement.
    """

    def __init__(
        self,
        problem,
        config,
        forced,
        bound=None,
        tables=(),
        stop_below=False,
        grid=None,
        guide=None,
    ):
        """grid: (numerators, den) of a behavioral probability grid, with
        `forced` in numerators too; None searches deterministic tables.
        guide: a complete table whose value each window tries first."""
        skel = cached_skeleton(problem, config.horizon)
        nx = len(problem.input_alphabet)
        rows = skel.rows
        self.skel = skel
        if grid is None:
            ny = len(problem.output_alphabet)
            self.values = self.corners = range(ny)
            self.q_reads = lambda row, reads: rows[row][window_index(reads, ny)]
            unit = 1
        else:
            self.values, den = grid
            self.corners = (0, den)
            self.q_reads = lambda row, reads: expected_cost(rows[row], reads, den)
            unit = skel.rand_unit(den)
        self.prune = config.prune
        self.order = assignment_order(nx, config.horizon, forced)
        position = {w: depth for depth, w in enumerate(self.order)}
        # the values each depth tries, in order
        self.tries = [
            self.values
            if guide is None
            else [guide[w], *(v for v in self.values if v != guide[w])]
            for w in self.order
        ]
        # raised_at[d]: (t, codes, row, free read positions, memo) of the
        # transitions whose q, or least q, is raised at depth d. With prune,
        # every transition at depth 0 and again after each assignment of a
        # window it reads; without, each one once, after its last read is
        # assigned (at depth 0 when it reads forced windows only)
        self.raised_at = [[] for _ in range(len(self.order) + 1)]
        memos = {}  # (row, free) -> {reads: q, least q or None}
        for t, (row, codes) in enumerate(skel.transitions):
            fixed_from = [position.get(c, -1) + 1 for c in codes]
            for d in {0, *fixed_from} if self.prune else {max(fixed_from)}:
                free = tuple(j for j, f in enumerate(fixed_from) if f > d)
                memo = memos.setdefault((row, free), {})
                self.raised_at[d].append((t, codes, row, free, memo))
        self.table = [forced.get(w, 0) for w in range(nx**config.horizon)]
        # the node's q of each transition, exact or least, -1 while it has
        # no arcs, bounded by the skeleton's largest row entry in q's unit
        # (a q is a mean of row entries, and a least q is one of them)
        q_max = max((c for row in rows for c in row if c is not None), default=0) * unit
        self.stack = ArcStack.over(skel, [-1] * len(skel.transitions), unit, q_max)
        self.q = self.stack.q
        self.inf_pairs = infinite_pairs(skel) if self.prune else ()
        self.keep_ties = config.collect_all_optimal
        self.bound = bound
        self.tables = list(tables)  # optimal tables found, as tuples of values
        self.stop_below = stop_below
        self.done = False
        # the last losing cycles of the relaxation, as (w, t) lists, newest first
        self.remembered = []
        # tables discarded without a full evaluation, tables past the pair
        # check (each given a decision test), nodes entered, decisions, those
        # settled by a remembered cycle, and `ArcStack.max_ratio` solves of
        # leaves that beat the incumbent
        self.pruned = self.evaluated = self.nodes = self.decisions = 0
        self.remembered_cuts = self.solves = 0
        # the cycle that settled the last losing decision, if negative
        # under its weights
        self.lost_by = None
        # a grid search with prune cuts values by a losing leaf's cycle
        self.value_cut = grid is not None and self.prune

    def least_q(self, row, free, reads):
        """The transition's q at `reads`, or with free read positions its
        least q over their corners; None when a corner's q is +inf."""
        if not free:
            return self.q_reads(row, reads)
        least = None
        reads = list(reads)
        for corner in product(self.corners, repeat=len(free)):
            for j, value in zip(free, corner):
                reads[j] = value
            q = self.q_reads(row, reads)
            if q is None:
                return None
            if least is None or q < least:
                least = q
        return least

    def enter(self, depth):
        """Raise the q of the transitions whose q, or least q, rises at
        `depth` under the current table. Returns the stack's mark before,
        which `ArcStack.pop_to` undoes it to."""
        stack, table, q_all = self.stack, self.table, self.q
        mark = len(stack.log)
        for t, codes, row, free, memo in self.raised_at[depth]:
            reads = tuple(map(table.__getitem__, codes))
            q = memo.get(reads, -1)  # -1: not seen, as every q is >= 0
            if q == -1:
                q = memo[reads] = self.least_q(row, free, reads)
            if q is None:
                if free:
                    continue  # a +inf corner: kept out until q is exact
            elif q <= q_all[t]:
                continue  # no tighter than its q on the stack
            stack.raise_q(t, q)
        return mark

    def visit(self, depth):
        """Search the node at `depth`; a leaf returns the cycle it lost by,
        if a cycle negative under its decision's weights settled it."""
        self.nodes += 1
        mark = self.enter(depth)
        lost_by = None
        if depth == len(self.order):
            lost_by = self.leaf()
        elif self.prune and len(self.stack.log) > mark and self.loses(self.tie_loses()):
            self.pruned += len(self.values) ** (len(self.order) - depth)
        else:
            table, window = self.table, self.order[depth]
            line = None  # (C, D) of the last losing leaf's cycle (`cut_line`)
            for value in self.tries[depth]:
                if line is not None and line[0] + line[1] * value < 0:
                    self.pruned += 1
                    continue
                table[window] = value
                cycle = self.visit(depth + 1)
                if self.done:
                    break
                if cycle is not None and self.value_cut:
                    line = self.cut_line(cycle, window)
            table[window] = 0
        self.stack.pop_to(mark)
        return lost_by

    def cut_line(self, cycle, window):
        """(C, D) such that den times the cycle's weight under the strict
        weights of the bound is C + D*v when the last window holds v: a
        transition that does not read it keeps its exact q, and one that
        reads it once has q(v) = (q(0)*(den - v) + q(den)*v) / den, as q is
        multilinear in the reads. None with no bound, or when a transition
        reads the window twice or more, has no arcs or a +inf corner q.

        Where C + D*v < 0 the cycle's ratio is above the bound, so the table
        loses under either tie rule, and still does after a later win lowers
        the bound (Karp & Orlin 1981: a cycle's weight is affine in one
        parameter)."""
        if self.bound is None:
            return None
        a, b = self.stack.weights(self.bound, False)
        den = self.corners[1]
        c = d = 0
        for w, t in cycle:
            row, codes = self.skel.transitions[t]
            if window not in codes:
                q0 = q1 = self.q[t]
            elif codes.count(window) > 1:
                return None
            else:
                reads = [self.table[code] for code in codes]
                j = codes.index(window)
                reads[j] = 0
                q0 = self.q_reads(row, reads)
                reads[j] = den
                q1 = self.q_reads(row, reads)
            if q0 is None or q1 is None or q0 < 0:
                return None
            c += den * (a * w - b * q0)
            d += b * (q0 - q1)
        return c, d

    def tie_loses(self):
        """True when a tie with the incumbent is of no use below this node:
        ties are not kept, and the incumbent is a bare bound or a table
        before this node's first table."""
        return not self.keep_ties and (not self.tables or tuple(self.table) > self.tables[0])

    def weigh(self, cycle, a, b):
        """The sum of a*w - b*q over a cycle of (w, t) at the node's q; 0
        when a transition has no arcs (q -1) or +inf ones, as such a cycle
        proves nothing here."""
        total = 0
        for w, t in cycle:
            q = self.q[t]
            if q is None or q < 0:
                return 0
            total += a * w - b * q
        return total

    def loses(self, tie_loses, q=()):
        """True when the stack holds a cycle that loses to the incumbent,
        so no table below the node is of use (an acyclic one proves
        nothing): a remembered cycle, moved to the front, or else
        `ArcStack.exceeds`, started from the warm potentials under the same
        weights. `q`, that of a table not yet on the empty stack, is raised
        for the test only when no remembered cycle settles it. A
        certificate negative under the decision's weights is the
        relaxation's cycle, not stage 0's (a +inf-q arc) nor a 0/0 cycle
        (weight 0), and is remembered. The cycle that settles a losing
        verdict, either way, is kept as `lost_by`, else None."""
        self.decisions += 1
        a, b = self.stack.weights(self.bound, tie_loses)
        remembered = self.remembered
        for i, cycle in enumerate(remembered):
            if self.weigh(cycle, a, b) < 0:
                remembered.insert(0, remembered.pop(i))
                self.remembered_cuts += 1
                self.lost_by = cycle
                return True
        self.lost_by = None
        for t, c in enumerate(q):
            self.stack.raise_q(t, c)
        verdict, evidence = self.stack.exceeds(self.bound, tie_loses)
        if verdict:
            cycle = [self.skel.edges[k][4:] for k in evidence]  # each edge's (w, t)
            if self.weigh(cycle, a, b) < 0:
                remembered.insert(0, cycle)
                del remembered[REMEMBERED_CYCLES:]
                self.lost_by = cycle
        return verdict

    def leaf(self):
        tie_loses = self.tie_loses()
        q = self.q
        if self.inf_pairs and any(q[a] is None and q[b] is None for a, b in self.inf_pairs):
            self.pruned += 1
            return
        self.evaluated += 1
        if self.loses(tie_loses):
            return self.lost_by
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
        self.bound = self.stack.max_ratio()
        self.tables = [table]
        self.done = self.stop_below

    def move(self, window, value):
        """Decide the complete `table`, with every exact q in `q`, moved to
        `value` at `window`, against the incumbent with ties losing (with
        none, against an infinite ratio). Only the q of the transitions
        reading the window is recomputed. Unless a remembered cycle settles
        the move, `loses` raises every transition to that q on the empty
        stack, which is popped to 0 after. A win is solved by
        `core_max_ratio` on that stack, which then holds the moved table's
        q; its ratio becomes the bound, and the table and q keep the move.
        Otherwise both are restored. Returns whether it won."""
        table, before, stack = self.table, self.q, self.stack
        old, table[window] = table[window], value
        self.q = q = list(before)
        for t, (row, codes) in enumerate(self.skel.transitions):
            if window in codes:
                q[t] = self.q_reads(row, [table[c] for c in codes])
        won = not self.loses(True, q)
        if won:
            self.bound = core_max_ratio(stack)[1]
        else:
            table[window], self.q = old, before
        stack.pop_to(0)
        return won


# -- verification closure -----------------------------------------------------------


def _verify(problem, policy, ratio, below=False):
    """The verification closure: raise `VerificationFailed` unless the
    policy's exact ratio equals `ratio` (None for +inf), or with `below` is
    below it, as decided on a fresh `ArcStack.over` the policy's skeleton."""
    stack = ArcStack.over(*policy_q(problem, policy))
    if below:
        holds = not stack.exceeds(ratio, ties_lose=True)[0]
    elif ratio is None:
        holds = stack.exceeds(None)[0]
    else:
        holds = not stack.exceeds(ratio)[0] and stack.exceeds(ratio, ties_lose=True)[0]
    if not holds:
        reported = "+inf" if ratio is None else ratio
        raise VerificationFailed(
            f"table {policy.table} does not rate {'below' if below else 'exactly'} "
            f"{reported}, as the search reported"
        )


# -- deterministic synthesis ---------------------------------------------------------


def synthesize_det(problem: LocalProblem, config: SynthesisConfig) -> SynthesisResult:
    """Minimum competitive ratio over all horizon-T tables, with witnesses."""
    started = time.monotonic()
    forced = _forced_entries(problem, config)
    search = _det_search(problem, config, forced)
    best = POS_INF if search.bound is None else Cost(search.bound)

    policies = tuple(_policy_from_table(problem, config, t) for t in sorted(search.tables))
    for policy in policies:
        _verify(problem, policy, search.bound)
    return SynthesisResult(
        horizon=config.horizon,
        classification="finite" if best.is_finite else "infinite",
        best_ratio=best,
        policies=policies,
        candidates_examined=search.pruned + search.evaluated,
        forced_entries=len(forced),
        pruned_short_cycle=search.pruned,
        full_evaluations=search.evaluated,
        nodes_visited=search.nodes,
        decision_tests=search.decisions,
        remembered_cuts=search.remembered_cuts,
        parametric_solves=search.solves,
        wall_seconds=time.monotonic() - started,
    )


def _det_search(problem, config, forced):
    """The deterministic `_Search` at the config's horizon, guided by the
    lifted T-1 optimum (`_lifted_guide`), run to its end."""
    search = _Search(problem, config, forced, guide=_lifted_guide(problem, config))
    search.visit(0)
    return search


def _lifted_guide(problem, config):
    """The lexicographically first optimal T-1 table, itself found from a
    lifted guide, as a horizon-T table that ignores its oldest input; None
    without pruning, at T=1, or when every T-1 table is infinite."""
    horizon = config.horizon
    if not config.prune or horizon < 2:
        return None
    lower = replace(config, horizon=horizon - 1, collect_all_optimal=False)
    below = _det_search(problem, lower, _forced_entries(problem, lower)).tables
    if not below:
        return None
    nx = len(problem.input_alphabet)
    oldest = nx ** (horizon - 1)  # the place value of a window's oldest input
    return tuple(below[0][w % oldest] for w in range(nx**horizon))


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
    below the bound, which the verification closure checks.
    """
    config = replace(config, collect_all_optimal=False)
    bound = Fraction(bound)
    forced = _forced_entries(problem, config)
    search = _Search(problem, config, forced, bound, stop_below=True)
    search.visit(0)
    checked = search.pruned + search.evaluated
    if search.tables:
        policy = _policy_from_table(problem, config, search.tables[0])
        _verify(problem, policy, bound, below=True)
        return False, policy, checked
    return True, None, checked


# -- randomized synthesis -------------------------------------------------------


def synthesize_rand(
    problem: LocalProblem, config: SynthesisConfig, *, start: SynthesisResult | None = None
):
    """Best-effort randomized table search: a grid search over the free
    windows, then coordinate refinement with a halving step.

    The grid phase is `_Search` over the grid's probabilities, written as
    numerators over one denominator: the branch and bound of
    `synthesize_det` (`prune=False` gives its exhaustive decided scan),
    with the self-loop entries forced either way. It starts from the
    deterministic optimum: its ratio is the bound, its first optimal table
    times the denominator the incumbent; as a tie with a lexicographically
    smaller table replaces the incumbent, the grid search still returns the
    lexicographically first optimal grid table. That optimum is `start`,
    the `synthesize_det` result of the same problem at the same horizon
    (`ValidationError` at another), run here when the caller has none; its
    finite optimal tables obey the forced entries, so the grid holds them.

    That denominator is the step's times 2^`REFINEMENT_ROUNDS`, the last
    refinement round's, so refinement runs on the grid search itself, in
    its q unit: each round halves the move, from half the step to the step
    over 2^`REFINEMENT_ROUNDS`, and moves each free window down and up by
    it (`_Search.move`), decided on the search's stack and cycle memory;
    only a win is solved. Returns
    (policy, ratio), which the verification closure checks; when every
    table tried has an infinite ratio that is the first grid table and
    +inf. No global-optimality claim is made.
    """
    if len(problem.output_alphabet) != 2:
        raise ValidationError("randomized synthesis needs binary outputs")
    if start is not None and start.horizon != config.horizon:
        raise ValidationError(
            f"the deterministic start has horizon {start.horizon}, not {config.horizon}"
        )
    # grid: the multiples of the step below 1, then 1, as numerators over
    # the last refinement round's denominator, counted before built; the
    # self-loop entries are forced, whatever `prune` says
    step = Fraction(config.grid_step)
    den = step.denominator << REFINEMENT_ROUNDS
    move = step.numerator << REFINEMENT_ROUNDS
    below_one = range(0, den, move)
    forced = _forced_entries(problem, replace(config, prune=True), len(below_one) + 1)
    grid = [*below_one, den]

    config = replace(config, collect_all_optimal=False)
    # every grid holds the deterministic tables, output times den
    if start is None:
        start = synthesize_det(problem, config)
    bound = start.best_ratio.as_fraction() if start.best_ratio.is_finite else None
    tables = [tuple(den * output for output in p.table) for p in start.policies[:1]]
    forced = {w: output * den for w, output in forced.items()}
    search = _Search(problem, config, forced, bound, tables, grid=(grid, den))
    search.visit(0)

    # coordinate refinement from the grid's first optimal table, or with no
    # finite table the first grid table, which the search restores; each
    # round halves the move
    if search.tables:
        search.table = list(search.tables[0])
    search.q = search.skel.q_rand(search.table, den)
    free = [w for w in range(len(search.table)) if w not in forced]
    for _ in range(REFINEMENT_ROUNDS):
        move >>= 1
        for w in free:
            for value in (search.table[w] - move, search.table[w] + move):
                if 0 <= value <= den:
                    search.move(w, value)

    policy = RandomizedPolicy(
        config.horizon,
        problem.input_alphabet,
        problem.output_alphabet,
        tuple(Fraction(value, den) for value in search.table),
    )
    _verify(problem, policy, search.bound)
    return policy, POS_INF if search.bound is None else Cost(search.bound)
