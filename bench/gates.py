"""Answer gates: each takes a result and its reference and returns the
list of reasons it fails (empty when the answer is right).

The gates are pure so that the benchmark's own tests can hand them a
perturbed reference and see them fail. None of them uses `assert`, which
`python -O` would strip.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import srcpath  # noqa: F401  (must precede the tlsynth imports)
from tlsynth import problems, ratiocycle
from tlsynth.exact import POS_INF, Cost

# The paper's headline answer: file migration, alpha = 1, horizon T = 4.
SYNTH_T4_RATIO = Cost(3)
SYNTH_T4_TABLES = {
    "A1": "0001001100110111",
    "A2": "0001001100010111",
    "A3": "0001011100110111",
}

# Ratios of all 256 deterministic min-dom-set tables at T = 3.
EVAL_GENERAL_HISTOGRAM = {"3": 11, "7/2": 4, "4": 11, "5": 7, "+inf": 223}


def bits_table(bits):
    """Table tuple from a string of output indices, window code order."""
    return tuple(int(c) for c in bits)


def check_synth(result, ratio, tables):
    """synthesize_det with collect_all_optimal: exact ratio, exact table set."""
    errors = []
    if result.classification != "finite":
        errors.append(f"classification {result.classification}, expected finite")
    if result.best_ratio != ratio:
        errors.append(f"ratio {result.best_ratio}, expected {ratio}")
    found = sorted(p.table for p in result.policies)
    expected = sorted(bits_table(bits) for bits in tables.values())
    if found != expected:
        errors.append(f"optimal tables {found}, expected {expected}")
    return errors


def check_table2(csv_text, reference):
    """emit_table2 must reproduce the reference CSV byte for byte."""
    if csv_text == reference:
        return []
    got, want = csv_text.splitlines(), reference.splitlines()
    diff = [f"{g!r} != {w!r}" for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        diff.append(f"{len(got)} lines, expected {len(want)}")
    return ["table2 CSV differs: " + "; ".join(diff[:3])]


def check_trial(problem, algorithm, xs, trial_seed, record, bound=None):
    """One measure_ratio trial against an independent recomputation.

    Re-runs the offline optimum and the algorithm on the same input, and
    requires: the optimizer's outputs re-evaluate to the same exact total;
    cost >= OPT; the record's ratio is exactly cost/OPT; and, when
    bound = (c, d) is given, cost <= c*OPT + d.
    """
    errors = []
    opt, ys = problems.offline_opt(problem, xs)
    evaluated = problem.evaluate(xs, ys).total
    if evaluated != opt:
        errors.append(f"optimizer outputs evaluate to {evaluated}, offline_opt said {opt}")
    opt = opt.as_fraction()
    cost = algorithm.cost_on(problem, xs, trial_seed)
    if cost < opt:
        errors.append(f"cost {cost} below OPT {opt}")
    if opt > 0:
        expected_ratio = Fraction(cost, opt)
    else:
        expected_ratio = "inf" if cost > 0 else Fraction(1)
    if record.ratio != expected_ratio:
        errors.append(f"recorded ratio {record.ratio}, recomputed {expected_ratio}")
    if bound is not None:
        c, d = (Fraction(v) for v in bound)
        if cost > c * opt + d:
            errors.append(f"cost {cost} breaks the bound {c}*OPT + {d} (OPT {opt})")
        if record.check is None or not record.check[2]:
            errors.append(f"measure_ratio reported the guarantee as {record.check}")
    return errors


def check_eval(verdict, expected_ratio, graph):
    """evaluate_policy: the reported ratio matches the reference, the
    classification agrees with it, and the witness walk has that ratio."""
    errors = []
    ratio = str(verdict.best.ratio)
    if ratio != expected_ratio:
        errors.append(f"ratio {ratio}, expected {expected_ratio}")
    infinite = verdict.best.ratio == POS_INF
    if (verdict.classification == "infinite") != infinite:
        errors.append(f"classification {verdict.classification} for ratio {ratio}")
    walked = ratiocycle.walk_ratio(graph, verdict.best.edge_ids)
    if walked != verdict.best.ratio:
        errors.append(f"witness walk has ratio {walked}, reported {ratio}")
    return errors


def check_histogram(ratios, histogram):
    """The multiset of reference ratios must match the expected histogram."""
    got = dict(Counter(ratios))
    if got != histogram:
        return [f"ratio histogram {got}, expected {histogram}"]
    return []
