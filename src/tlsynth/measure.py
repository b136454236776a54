"""Empirical ratio measurement against the exact offline optimum, and the
CSV table of synthesized competitive ratios.

Costs stay exact rationals throughout a trial; only the summary
statistics (mean, standard error) are floats. `offline_opt` and
`LocalProblem.evaluate` add a trial's step costs as ints scaled by the lcm
of the problem's rule denominators, with +inf / -inf as sentinels, and
divide by the scale once, so their totals are the exact rational sums.
The offline optimum of a sequence is computed once and cached, which
matches the oblivious adversary: inputs are fixed before any coins are
flipped.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardExceeded, ValidationError
from .exact import decimal4, format_rational, parse_rational
from .generators import GeneratorSpec
from .policies import (
    RandomizedPolicy,
    ResetWrapper,
    SlidingWindowRule,
    ThresholdMigrator,
    compile_to_table,
    run_coin_flip,
    run_policy,
    sample_mixed_resetting,
)
from .problems import Alphabet, LocalProblem, offline_opt
from .synthesis import SynthesisConfig, synthesize_det, synthesize_rand


def mixed_resetting_best_horizon(alpha) -> int:
    """Horizon at which the Mixed Resetting family balances its two cost
    terms (nearest integer)."""
    a = float(parse_rational(alpha))
    return max(1, round(a + math.sqrt(20 * a * a - 4 * a + 1) / 2 - 1))


class Algorithm:
    """Uniform wrapper around everything the harness can run.

    `cost_on(problem, xs, seed)` returns the exact total cost of one run;
    `randomized` says whether different seeds can give different costs.
    """

    def __init__(self, name, runner, randomized, policy=None):
        self.name = name
        self._runner = runner
        self.randomized = randomized
        self.policy = policy  # deterministic policy driving gen_adaptive, if any

    def cost_on(self, problem, xs, seed) -> Fraction:
        return self._runner(problem, xs, seed)


def table_algorithm(policy) -> Algorithm:
    if isinstance(policy, RandomizedPolicy):
        def run(problem, xs, seed):
            return problem.evaluate(xs, policy.run(xs, seed)).total.as_fraction()

        return Algorithm("randomized-table", run, randomized=True)

    def run(problem, xs, seed):
        return problem.evaluate(xs, run_policy(policy, xs)).total.as_fraction()

    return Algorithm("deterministic-table", run, randomized=False, policy=policy)


def sliding_window_algorithm(horizon, alpha) -> Algorithm:
    rule = SlidingWindowRule(horizon, alpha)
    # tabulating keeps long simulations cheap; the table equals the rule
    driver = rule
    if 2**horizon <= 2**16:
        bin_alphabet = Alphabet(("0", "1"))
        driver = compile_to_table(rule, horizon, bin_alphabet, bin_alphabet)

    def run(problem, xs, seed):
        return problem.evaluate(xs, run_policy(driver, xs)).total.as_fraction()

    return Algorithm("sliding-window", run, randomized=False, policy=driver)


def mixed_resetting_algorithm(horizon) -> Algorithm:
    def run(problem, xs, seed):
        strategy = sample_mixed_resetting(horizon, seed)
        return problem.evaluate(xs, run_policy(strategy, xs)).total.as_fraction()

    return Algorithm("mixed-resetting", run, randomized=True)


def coin_flip_algorithm(alpha) -> Algorithm:
    def run(problem, xs, seed):
        _served, cost = run_coin_flip(xs, alpha, seed)
        return cost

    return Algorithm("coin-flip", run, randomized=True)


def reset_wrapper_algorithm(horizon, alpha) -> Algorithm:
    wrapper = ResetWrapper(ThresholdMigrator(parse_rational(alpha)), horizon)

    def run(problem, xs, seed):
        return problem.evaluate(xs, run_policy(wrapper, xs)).total.as_fraction()

    return Algorithm("reset-wrapper", run, randomized=False, policy=wrapper)


@dataclass(frozen=True)
class RunRecord:
    generator: str
    length: int
    trials: int
    algorithm_cost: float  # mean over trials
    opt_cost: float  # mean over trials
    ratio: object  # Fraction, float for multi-trial means, or "inf"
    mean_ratio: float
    stderr: float
    seed: object
    check: object  # None or (c, d, ok)

    def csv_row(self):
        ratio = self.ratio if isinstance(self.ratio, str) else f"{float(self.ratio):.6f}"
        check = "" if self.check is None else ("ok" if self.check[2] else "VIOLATED")
        return [
            self.generator,
            str(self.length),
            str(self.trials),
            f"{self.algorithm_cost:.6f}",
            f"{self.opt_cost:.6f}",
            ratio,
            f"{self.mean_ratio:.6f}",
            f"{self.stderr:.6f}",
            str(self.seed),
            check,
        ]

    CSV_HEADER = [
        "generator",
        "length",
        "trials",
        "alg_cost",
        "opt_cost",
        "ratio",
        "mean_ratio",
        "stderr",
        "seed",
        "check",
    ]


def measure_ratio(
    problem: LocalProblem,
    algorithm: Algorithm,
    generator: GeneratorSpec,
    trials: int = 1,
    base_seed: int = 0,
    check=None,
) -> RunRecord:
    """Run seeded trials of an algorithm and compare against the optimum.

    check, when given, is (c, d): every trial is tested for
    cost <= c * OPT + d and the verdict lands in the record.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    opt_cache = {}

    def opt_of(xs) -> Fraction:
        if xs not in opt_cache:
            total, _ = offline_opt(problem, xs)
            opt_cache[xs] = total.as_fraction()
        return opt_cache[xs]

    ratios = []
    costs = []
    opts = []
    violations = 0
    length = 0
    c_bound = d_bound = None
    if check is not None:
        c_bound, d_bound = (parse_rational(check[0]), parse_rational(check[1]))
    for trial in range(trials):
        seed = _trial_seed(base_seed, trial)
        xs = generator.realize(policy=algorithm.policy, trial_seed=seed)
        length = max(length, len(xs))
        cost = algorithm.cost_on(problem, xs, seed)
        opt = opt_of(xs)
        costs.append(cost)
        opts.append(opt)
        ratios.append(
            Fraction(cost, opt) if opt > 0 else (math.inf if cost > 0 else Fraction(1))
        )
        if check is not None and cost > c_bound * opt + d_bound:
            violations += 1
    finite = [float(r) for r in ratios if r != math.inf]
    mean_ratio = sum(finite) / len(finite) if finite else math.inf
    if len(finite) > 1:
        var = sum((r - mean_ratio) ** 2 for r in finite) / (len(finite) - 1)
        stderr = math.sqrt(var / len(finite))
    else:
        stderr = 0.0
    if trials == 1:
        ratio = "inf" if ratios[0] == math.inf else ratios[0]
    else:
        ratio = mean_ratio if math.inf not in ratios else "inf"
    return RunRecord(
        generator=generator.label(),
        length=length,
        trials=trials,
        algorithm_cost=sum(map(float, costs)) / trials,
        opt_cost=sum(map(float, opts)) / trials,
        ratio=ratio,
        mean_ratio=mean_ratio,
        stderr=stderr,
        seed=base_seed,
        check=None if check is None else (c_bound, d_bound, violations == 0),
    )


def _trial_seed(base_seed, trial):
    # deterministic per-trial seeds, independent of execution order
    return random.Random(f"{base_seed}:{trial}").getrandbits(48)


# -- synthesized-ratio table -----------------------------------------------------


def emit_table2(problem, alphas, horizons, randomized=False, config_kwargs=None) -> str:
    """CSV of best ratios per (alpha, horizon) cell; guard-tripped cells are
    emitted as "skipped". Byte-identical across invocations."""
    config_kwargs = dict(config_kwargs or {})
    out = io.StringIO()
    out.write("alpha,T,kind,ratio_exact,ratio_decimal\n")
    for alpha in alphas:
        cell_problem = problem.with_parameters({"alpha": alpha})
        for horizon in horizons:
            kinds = ["det"] + (["rand"] if randomized else [])
            for kind in kinds:
                try:
                    if kind == "det":
                        res = synthesize_det(
                            cell_problem,
                            SynthesisConfig(horizon=horizon, **config_kwargs),
                        )
                        ratio = res.best_ratio
                    else:
                        _pol, ratio = synthesize_rand(
                            cell_problem,
                            SynthesisConfig(horizon=horizon, **config_kwargs),
                        )
                    if ratio.is_finite:
                        exact = format_rational(ratio.as_fraction())
                        dec = decimal4(ratio.as_fraction())
                    else:
                        exact = dec = "inf"
                except GuardExceeded:
                    exact = dec = "skipped"
                out.write(
                    f"{format_rational(parse_rational(alpha))},{horizon},{kind},{exact},{dec}\n"
                )
    return out.getvalue()
