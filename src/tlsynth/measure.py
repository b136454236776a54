"""Empirical ratio measurement against the exact offline optimum, and the
CSV table of synthesized competitive ratios.

Every runnable algorithm is an `Algorithm`: `outputs(xs, seed)` runs it
on one sequence (a policy through `policies.run_policy`, the coin flip
through its own simulation), and `cost_on` evaluates those outputs.

Costs stay exact rationals throughout a trial; only the summary
statistics (mean, standard error) are floats. `offline_opt` and
`LocalProblem.evaluate` add a trial's step costs as ints scaled by the lcm
of the problem's rule denominators, with +inf / -inf as sentinels, and
divide by the scale once, so their totals are the exact rational sums.
`offline_opt` computes each distinct (input window, shifted slot totals)
step once per call, and runs once per sequence (cached), which matches
the oblivious adversary: inputs are fixed before any coins are flipped.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardExceeded, InvalidHorizon, ValidationError
from .exact import format_rational, parse_rational, ratio_texts
from .generators import GeneratorSpec
from .policies import (
    SlidingWindowRule,
    compile_to_table,
    run_coin_flip,
    run_policy,
    sample_mixed_resetting,
)
from .problems import Alphabet, LocalProblem, offline_opt
from .synthesis import SynthesisConfig, synthesize_det, synthesize_rand


def mixed_resetting_best_horizon(alpha) -> int:
    """Horizon at which the Mixed Resetting family balances its two cost
    terms (nearest integer).

    A closed-form heuristic, not the exact minimizer of the family's
    ratio: an exact rating of each horizon can pick another one (at
    alpha=2 it favours T=6, ratio 11/4, over this T=5, ratio 14/5)."""
    a = float(parse_rational(alpha))
    return max(1, round(a + math.sqrt(20 * a * a - 4 * a + 1) / 2 - 1))


class Algorithm:
    """Everything the harness can run, behind one interface.

    `outputs(xs, seed)` are the algorithm's outputs on xs; the seed picks
    the coins of a randomized algorithm and is ignored by a deterministic
    one. `cost_on(problem, xs, seed)` is the exact total cost of those
    outputs, or math.inf. `policy` is the one policy the algorithm runs,
    which `gen_adaptive` plays against; it is None when the seed picks the
    outputs some other way (the coin flip, a drawn Mixed Resetting member).
    """

    def __init__(self, outputs, policy=None):
        self.outputs = outputs
        self.policy = policy

    def cost_on(self, problem, xs, seed) -> Fraction:
        total = problem.evaluate(xs, self.outputs(xs, seed)).total
        if not total.is_finite and total < 0:
            raise ValidationError("the algorithm's total cost is -inf, which has no ratio")
        return total.as_fraction() if total.is_finite else math.inf


def policy_algorithm(policy) -> Algorithm:
    """A table, behavioural table or clocked policy, run as it is."""
    return Algorithm(lambda xs, seed: run_policy(policy, xs, seed), policy)


def sliding_window_algorithm(horizon, alpha) -> Algorithm:
    rule = SlidingWindowRule(horizon, alpha)
    if horizon > 16:
        return policy_algorithm(rule)
    # tabulating keeps long simulations cheap; the table equals the rule
    # on full windows, so the first T outputs, whose windows hold
    # placeholders, come from the rule
    bin_alphabet = Alphabet(("0", "1"))
    table = compile_to_table(rule, horizon, bin_alphabet, bin_alphabet)

    def outputs(xs, seed):
        return run_policy(rule, xs[:horizon]) + run_policy(table, xs)[horizon:]

    return Algorithm(outputs, rule)


def mixed_resetting_algorithm(horizon) -> Algorithm:
    """The Mixed Resetting family: the seed picks the member k."""
    if horizon < 1:
        raise InvalidHorizon(f"mixed resetting needs a positive horizon, got {horizon}")
    return Algorithm(lambda xs, seed: run_policy(sample_mixed_resetting(horizon, seed), xs))


def coin_flip_algorithm(alpha) -> Algorithm:
    return Algorithm(lambda xs, seed: run_coin_flip(xs, alpha, seed))


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
            if not total.is_finite or total < 0:
                raise ValidationError(f"the offline optimum is {total}, which has no ratio")
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
            cost / opt if opt > 0 else (math.inf if cost > 0 else Fraction(1))
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
    emitted as "skipped". Byte-identical across invocations.

    A `rand` cell starts from its `det` cell's result (`synthesize_rand`'s
    `start`) rather than searching the deterministic tables again; when
    the `det` cell tripped a guard, it runs on its own."""
    config_kwargs = dict(config_kwargs or {})
    out = io.StringIO()
    out.write("alpha,T,kind,ratio_exact,ratio_decimal\n")
    for alpha in alphas:
        cell_problem = problem.with_parameters({"alpha": alpha})
        for horizon in horizons:
            config = SynthesisConfig(horizon=horizon, **config_kwargs)
            det = None
            for kind in ["det"] + (["rand"] if randomized else []):
                try:
                    if kind == "det":
                        det = synthesize_det(cell_problem, config)
                        ratio = det.best_ratio
                    else:
                        _pol, ratio = synthesize_rand(cell_problem, config, start=det)
                    exact, dec = ratio_texts(ratio)
                except GuardExceeded:
                    exact = dec = "skipped"
                out.write(
                    f"{format_rational(parse_rational(alpha))},{horizon},{kind},{exact},{dec}\n"
                )
    return out.getvalue()
