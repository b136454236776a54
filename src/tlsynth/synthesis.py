"""Exhaustive synthesis of optimal time-local policies.

Every search runs on the problem's `debruijn.Skeleton`: a candidate table
becomes a per-transition q vector (`Skeleton.q_det` or `Skeleton.q_rand`)
and then integer arcs for `ratiocycle.core_max_ratio`. Deterministic
search has one candidate loop, `_search_range`, which `synthesize_det`,
its parallel workers and `verify_lower_bound` all run, whatever the
problem. It walks every table X^T -> Y (modulo forced entries) in
lexicographic order and keeps the minimum exact ratio. Two prunings keep
this tractable:

- self-loop forcing: on a constant window whose adversary can sit still
  for free, the policy must answer with a free self-loop of its own,
  which pins the table entry (for file migration A(0..0)=0, A(1..1)=1);
- short-cycle screening: candidates whose skeleton already has a cycle
  of at most PRUNE_CYCLE_LENGTH adversary-playable edges with ratio at
  least the incumbent cannot win and are dropped before the full cycle
  search.

`verify_lower_bound` is the same loop with the bound as the incumbent,
stopping at the first table below it.

Randomized search sweeps a probability grid over the free windows and
then refines coordinate-wise with a shrinking step; the result is the
best table found, with no global-optimality claim.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .debruijn import cached_skeleton
from .errors import SearchSpaceTooLarge, UnsupportedAggregation, VerificationFailed
from .exact import POS_INF, Cost
from .policies import DeterministicPolicy, RandomizedPolicy
from .problems import LocalProblem
from .ratiocycle import core_max_ratio, evaluate_policy

DEFAULT_CANDIDATE_GUARD = 2**26
PRUNE_CYCLE_LENGTH = 2


@dataclass(frozen=True)
class SynthesisConfig:
    horizon: int
    collect_all_optimal: bool = False
    jobs: int = 1
    grid_step: Fraction = Fraction(1, 20)
    refinement_rounds: int = 8
    candidate_guard: int = DEFAULT_CANDIDATE_GUARD
    use_self_loop_constraints: bool = True
    use_short_cycle_prune: bool = True

    def __post_init__(self):
        if not 0 < self.grid_step <= 1:
            raise ValueError("grid step must lie in (0, 1]")


@dataclass(frozen=True)
class SynthesisResult:
    classification: str  # "finite" | "infinite"
    best_ratio: Cost
    policies: tuple  # lexicographically sorted optimal tables
    candidates_examined: int
    forced_entries: int
    pruned_short_cycle: int
    full_evaluations: int
    wall_seconds: float


# -- self-loop constraints ----------------------------------------------------


@dataclass(frozen=True)
class SelfLoopConstraints:
    forced: dict  # window code -> output index


def self_loop_constraints(problem: LocalProblem, horizon: int) -> SelfLoopConstraints:
    """Forced table entries from zero-cost adversary self-loops.

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
            if problem.lookup_cost((xs[c],) * (r + 1), (ys[o],) * (r + 1)) == Cost(0)
        ]
        if len(zero_cost_answers) == 1:
            forced[_constant_window_code(c, nx, horizon)] = zero_cost_answers[0]
    return SelfLoopConstraints(forced)


def _constant_window_code(symbol_idx, base, horizon):
    code = 0
    for _ in range(horizon):
        code = code * base + symbol_idx
    return code


# -- candidate enumeration ----------------------------------------------------


def candidate_count(n_windows, n_outputs, forced):
    return n_outputs ** (n_windows - len(forced))


def candidate_by_index(index, horizon, n_inputs, n_outputs, forced):
    """The index-th table consistent with the forced entries, in
    lexicographic order of the free-entry vector."""
    n_windows = n_inputs**horizon
    free = [w for w in range(n_windows) if w not in forced]
    table = [forced.get(w, 0) for w in range(n_windows)]
    for w in reversed(free):
        table[w] = index % n_outputs
        index //= n_outputs
    return tuple(table)


def _forced_entries(problem, config):
    if not config.use_self_loop_constraints:
        return {}
    return self_loop_constraints(problem, config.horizon).forced


def _guarded_count(problem, config, forced):
    n_windows = len(problem.input_alphabet) ** config.horizon
    total = candidate_count(n_windows, len(problem.output_alphabet), forced)
    if total > config.candidate_guard:
        raise SearchSpaceTooLarge(total, config.candidate_guard)
    return total


# -- short-cycle screening ----------------------------------------------------


def short_cycles(skel, max_len=PRUNE_CYCLE_LENGTH):
    """Simple cycles of at most max_len skeleton arcs (edges with w < +inf),
    as (transition ids, scaled w sum), rooted at their smallest vertex."""
    out = [[] for _ in range(skel.n_vertices)]
    for _k, src, dst, w, t in skel.arcs:
        out[src].append((dst, w, t))
    cycles = []

    def extend(root, v, ts, w_sum, on_path):
        for dst, w, t in out[v]:
            if dst == root:
                cycles.append((ts + (t,), w_sum + w))
            elif len(ts) + 1 < max_len and dst > root and dst not in on_path:
                extend(root, dst, ts + (t,), w_sum + w, on_path | {dst})

    for root in range(skel.n_vertices):
        extend(root, root, (), 0, {root})
    return cycles


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


# -- deterministic synthesis ---------------------------------------------------


def synthesize_det(problem: LocalProblem, config: SynthesisConfig) -> SynthesisResult:
    """Minimum competitive ratio over all horizon-T tables, with witnesses."""
    started = time.monotonic()
    forced = _forced_entries(problem, config)
    total = _guarded_count(problem, config, forced)
    if config.jobs > 1:
        outcome = _search_parallel(problem, config, forced, total)
    else:
        outcome = _search_range(problem, config, forced, 0, total)
    best, tables, examined, pruned, evaluated = outcome

    policies = tuple(_policy_from_table(problem, config, t) for t in sorted(tables))
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
        candidates_examined=examined,
        forced_entries=len(forced),
        pruned_short_cycle=pruned,
        full_evaluations=evaluated,
        wall_seconds=time.monotonic() - started,
    )


def _search_range(problem, config, forced, start, stop, best=POS_INF, stop_below=False):
    """Scan candidates [start, stop) against the incumbent `best`; returns
    (best, tables, examined, pruned, evaluated). With stop_below the scan
    ends at the first table that beats the incumbent. Deterministic for
    fixed arguments."""
    skel = cached_skeleton(problem, config.horizon)
    cycles = short_cycles(skel) if config.use_short_cycle_prune else ()
    nx = len(problem.input_alphabet)
    ny = len(problem.output_alphabet)
    keep_ties = config.collect_all_optimal
    bound = best.as_fraction() if best.is_finite else None
    tables = []
    examined = pruned = evaluated = 0
    for index in range(start, stop):
        table = candidate_by_index(index, config.horizon, nx, ny, forced)
        examined += 1
        q = skel.q_det(table)
        if bound is not None and short_cycle_hits(cycles, q, bound, keep_ties):
            pruned += 1
            continue
        evaluated += 1
        kind, lam, _w, _i = core_max_ratio(
            skel.n_vertices,
            skel.int_arcs(q),
            abort_above=bound,
            abort_on_tie=not keep_ties,
        )
        if kind != "finite":
            continue
        if bound is None or lam < bound:
            bound = lam
            tables = [table]
            if stop_below:
                break
        elif lam == bound and keep_ties:
            tables.append(table)
    best = POS_INF if bound is None else Cost(bound)
    return best, tables, examined, pruned, evaluated


def _policy_from_table(problem, config, table):
    return DeterministicPolicy(
        config.horizon, problem.input_alphabet, problem.output_alphabet, table
    )


_WORKER_STATE = {}


def _worker_init(problem, config, forced):
    _WORKER_STATE["args"] = (problem, config, forced)


def _worker_range(bounds):
    problem, config, forced = _WORKER_STATE["args"]
    return _search_range(problem, config, forced, bounds[0], bounds[1])


def _search_parallel(problem, config, forced, total):
    """Chunked parallel scan with a deterministic reduction.

    Workers do not share an incumbent, so pruning is merely weaker than in
    the sequential scan; ties are never pruned against a stale incumbent,
    and the reduced result is identical to the sequential one.
    """
    jobs = config.jobs
    chunk = max(1, math.ceil(total / (jobs * 4)))
    bounds = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(jobs, initializer=_worker_init, initargs=(problem, config, forced)) as pool:
        parts = pool.map(_worker_range, bounds)
    best = POS_INF
    for part_best, _t, _e, _p, _f in parts:
        if part_best < best:
            best = part_best
    tables = []
    examined = pruned = evaluated = 0
    for part_best, part_tables, part_examined, part_pruned, part_evald in parts:
        examined += part_examined
        pruned += part_pruned
        evaluated += part_evald
        if part_best == best:
            tables.extend(part_tables)
    if not config.collect_all_optimal:
        tables = tables[:1]
    return best, tables, examined, pruned, evaluated


def verify_lower_bound(problem: LocalProblem, config: SynthesisConfig, bound: Fraction):
    """Check that every candidate's graph has a cycle of ratio >= bound.

    The synthesis loop with the bound as incumbent: per candidate the
    parametric search stops at the first cycle reaching the bound, and the
    scan stops at the first table below it. Returns (holds,
    counterexample_policy, candidates_checked); a counterexample is a
    policy whose exact ratio is below the bound.
    """
    config = replace(config, collect_all_optimal=False)
    forced = _forced_entries(problem, config)
    total = _guarded_count(problem, config, forced)
    _best, tables, checked, _p, _e = _search_range(
        problem, config, forced, 0, total, Cost(Fraction(bound)), stop_below=True
    )
    if tables:
        return False, _policy_from_table(problem, config, tables[0]), checked
    return True, None, checked


# -- randomized synthesis -------------------------------------------------------


def synthesize_rand(problem: LocalProblem, config: SynthesisConfig):
    """Best-effort randomized table search: coarse grid sweep over the free
    windows, then coordinate refinement with a halving step.

    Returns (policy, ratio); when every table tried has an infinite ratio
    that is the first grid table and +inf. No global-optimality claim is
    made.
    """
    if len(problem.output_alphabet) != 2:
        raise UnsupportedAggregation("randomized synthesis needs binary outputs")
    constraints = self_loop_constraints(problem, config.horizon)
    nx = len(problem.input_alphabet)
    n_windows = nx**config.horizon
    free = [w for w in range(n_windows) if w not in constraints.forced]

    step = Fraction(config.grid_step)
    grid = []
    value = Fraction(0)
    while value < 1:
        grid.append(value)
        value += step
    grid.append(Fraction(1))
    grid = sorted(set(grid))

    total = len(grid) ** len(free)
    if total > config.candidate_guard:
        raise SearchSpaceTooLarge(total, config.candidate_guard)

    skel = cached_skeleton(problem, config.horizon)

    def ratio_of(probs, incumbent):
        """Exact expected ratio of the table, or None when it cannot beat
        the incumbent (including infinite-ratio tables)."""
        q, unit = skel.q_rand(probs)
        kind, lam, _w, _i = core_max_ratio(
            skel.n_vertices,
            skel.int_arcs(q, unit),
            abort_above=incumbent,
            abort_on_tie=True,
        )
        return lam if kind == "finite" else None

    def improves(ratio, incumbent):
        return ratio is not None and (incumbent is None or ratio < incumbent)

    base = [Fraction(constraints.forced.get(w, 0)) for w in range(n_windows)]
    best_ratio, best_probs = None, None
    for assignment in product(grid, repeat=len(free)):
        probs = list(base)
        for w, p in zip(free, assignment):
            probs[w] = p
        ratio = ratio_of(probs, best_ratio)
        if best_probs is None or improves(ratio, best_ratio):
            best_ratio, best_probs = ratio, probs

    # coordinate refinement, shrinking the step each round
    step = Fraction(config.grid_step) / 2
    for _ in range(config.refinement_rounds):
        for w in free:
            for candidate in (best_probs[w] - step, best_probs[w] + step):
                if not 0 <= candidate <= 1:
                    continue
                probs = list(best_probs)
                probs[w] = candidate
                ratio = ratio_of(probs, best_ratio)
                if improves(ratio, best_ratio):
                    best_ratio, best_probs = ratio, probs
        step /= 2

    policy = RandomizedPolicy(
        config.horizon,
        problem.input_alphabet,
        problem.output_alphabet,
        tuple(best_probs),
    )
    return policy, Cost(best_ratio) if best_ratio is not None else POS_INF
