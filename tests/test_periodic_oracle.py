"""An oracle for a table's exact ratio that shares no code with the solver.

On an input of period p a table's outputs are periodic once its window
is full, so ALG pays C_A per period. OPT pays C_O per period in the limit:
the minimum mean cycle of the graph whose vertices are (phase, last r
outputs) and whose arcs cost what the rules say (Karp 1978), a min-plus
dynamic program written here from scratch. The adversary of such a cycle
plays a closed walk of the table's skeleton, and a closed walk rates no
higher than its best simple cycle, so the exact ratio is at least C_A/C_O
on every periodic input; on the input the witness cycle induces it is
exactly C_A/C_O. Apart from the solver under test (`evaluate_policy`),
only `LocalProblem.lookup_cost`, `LocalProblem.evaluate` and `run_policy`
are called.
"""

import itertools
from fractions import Fraction

import pytest

from tlsynth.exact import POS_INF, Cost
from tlsynth.policies import DeterministicPolicy, run_policy
from tlsynth.problems import bundled_problem
from tlsynth.ratiocycle import evaluate_policy


def necklaces(symbols, longest):
    """Every primitive word up to length `longest`, one per rotation class:
    each periodic input once."""
    for p in range(1, longest + 1):
        for word in itertools.product(symbols, repeat=p):
            rotations = [word[i:] + word[:i] for i in range(p)]
            if word == min(rotations) and rotations.count(word) == 1:
                yield word


def alg_per_period(problem, policy, word):
    """C_A: what the table pays over one period of `word` repeated, once
    its window and the rules' windows hold only periodic inputs."""
    p = len(word)
    periods = (policy.horizon + problem.horizon_r) // p + 2
    x = word * periods
    per_step = problem.evaluate(x, run_policy(policy, x)).per_step
    return sum(per_step[-p:], Cost(0))


def opt_per_period(problem, word):
    """C_O: p times the minimum mean cycle of OPT's steady-state graph on
    `word` repeated, by Karp's dynamic program from every vertex at once;
    None when every cycle pays +inf."""
    p, r = len(word), problem.horizon_r
    ys = problem.output_alphabet.symbols
    states = list(itertools.product(ys, repeat=r))
    vertices = [(j, s) for j in range(p) for s in states]
    arcs = []  # (u, v, cost) with a finite cost
    for j, s in vertices:
        xw = tuple(word[(j - r + i) % p] for i in range(r + 1))
        for y in ys:
            cost = problem.lookup_cost(xw, s + (y,))
            if cost.is_finite:
                arcs.append(((j, s), ((j + 1) % p, (s + (y,))[1:]), cost.as_fraction()))
    n = len(vertices)
    walks = [dict.fromkeys(vertices, Fraction(0))]  # least cost of a k-arc walk ending at v
    for _ in range(n):
        step = {}
        for u, v, cost in arcs:
            if u in walks[-1] and (v not in step or walks[-1][u] + cost < step[v]):
                step[v] = walks[-1][u] + cost
        walks.append(step)
    means = [
        max((walks[n][v] - walks[k][v]) / (n - k) for k in range(n) if v in walks[k])
        for v in walks[n]
    ]
    return p * min(means) if means else None


def periodic_ratio(alg, opt):
    """C_A/C_O by the solver's conventions: +inf when OPT pays nothing and
    ALG something (or ALG +inf), 1 when both pay nothing."""
    if not alg.is_finite:
        return POS_INF
    if opt == 0:
        return Cost(1) if alg == Cost(0) else POS_INF
    return Cost(alg.as_fraction() / opt)


def check_table(problem, policy, opt_of):
    """The solver's ratio is at least every periodic ratio, and equals the
    periodic ratio of its witness's induced input."""
    verdict = evaluate_policy(problem, policy)
    ratio = verdict.best.ratio
    for word, opt in opt_of.items():
        if opt is not None:
            periodic = periodic_ratio(alg_per_period(problem, policy, word), opt)
            assert periodic <= ratio, (policy.table, word, periodic, ratio)
    induced = verdict.best.induced
    opt = opt_per_period(problem, induced)
    assert periodic_ratio(alg_per_period(problem, policy, induced), opt) == ratio, (
        policy.table,
        induced,
    )


ORACLE_CASES = [
    ("file-migration", "1", (1, 2, 3), 6),
    ("file-migration", "2", (1, 2, 3), 6),
    ("min-dom-set", None, (1, 2), 5),
]


@pytest.mark.parametrize(
    "name,alpha,horizons,longest",
    ORACLE_CASES,
    ids=[f"{name}-{alpha}" if alpha else name for name, alpha, _h, _l in ORACLE_CASES],
)
def test_solver_meets_the_periodic_oracle(name, alpha, horizons, longest):
    """Every table at the horizons given, against every periodic input up
    to period `longest`."""
    problem = bundled_problem(name, {"alpha": alpha} if alpha else None)
    xs, ys = problem.input_alphabet, problem.output_alphabet
    opt_of = {word: opt_per_period(problem, word) for word in necklaces(xs.symbols, longest)}
    for horizon in horizons:
        for table in itertools.product(range(len(ys)), repeat=len(xs) ** horizon):
            check_table(problem, DeterministicPolicy(horizon, xs, ys, table), opt_of)


@pytest.mark.parametrize(
    "bits",
    [
        pytest.param(
            bits,
            marks=pytest.mark.xfail(
                strict=True,
                reason="core_max_ratio misses cycles made only of +inf-q edges: "
                "the input 12 repeated makes the table pay +inf, where "
                "evaluate_policy rates it 3",
            ),
        )
        for bits in ("10001011", "11010001")
    ],
)
def test_periodic_oracle_on_min_dom_set_t3(bits):
    """The two min-dom-set tables at T=3 that pay +inf on a cycle through
    two +inf-q arcs, which the solver misses."""
    problem = bundled_problem("min-dom-set")
    xs, ys = problem.input_alphabet, problem.output_alphabet
    opt_of = {word: opt_per_period(problem, word) for word in necklaces(xs.symbols, 5)}
    policy = DeterministicPolicy(3, xs, ys, tuple(int(bit) for bit in bits))
    check_table(problem, policy, opt_of)
