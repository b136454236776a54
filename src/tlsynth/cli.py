"""Command-line front end.

Subcommands: synth, eval, opt, simulate, measure, table2. Exit codes:
0 success, 2 validation problem, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .debruijn import build_graph_det
from .errors import GuardExceeded, ValidationFailure, ValidationError
from .exact import format_rational, parse_rational, ratio_texts
from .generators import GeneratorSpec
from .measure import (
    Algorithm,
    RunRecord,
    coin_flip_algorithm,
    emit_table2,
    measure_ratio,
    mixed_resetting_algorithm,
    policy_algorithm,
    sliding_window_algorithm,
)
from .policies import (
    MixedResettingStrategy,
    RandomizedPolicy,
    ResetWrapper,
    ThresholdMigrator,
    load_policy,
    policy_to_document,
)
from .problems import bundled_problem, bundled_problem_names, load_problem, offline_opt
from .ratiocycle import evaluate_policy
from .synthesis import SynthesisConfig, synthesize_det, synthesize_rand, verify_lower_bound


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tlsynth",
        description="Synthesize and analyze time-local online algorithms.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("synth", help="search for optimal policies")
    _problem_args(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--randomized", action="store_true")
    p.add_argument("--grid-step", default=None)
    p.add_argument("--all-optimal", action="store_true")
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--verify-lower-bound", metavar="R", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("eval", help="exact competitive ratio of a policy")
    _problem_args(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--dump-graph", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("opt", help="offline optimum of an input sequence")
    _problem_args(p)
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_opt)

    p = sub.add_parser("simulate", help="run an algorithm on one sequence")
    _problem_args(p)
    p.add_argument("--algorithm", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--strategy-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("measure", help="empirical ratio against the optimum")
    _problem_args(p)
    p.add_argument("--algorithm", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", default=None, help="c=..,d=..")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("table2", help="CSV of best ratios per (alpha, T)")
    _problem_args(p, default_problem="file-migration")
    p.add_argument("--alphas", required=True)
    p.add_argument("--horizons", required=True)
    p.add_argument("--randomized", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_table2)

    return parser


def _problem_args(p, default_problem=None):
    p.add_argument(
        "--problem",
        required=default_problem is None,
        default=default_problem,
        help=f"bundled name ({', '.join(bundled_problem_names())}) or a document path",
    )
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a problem parameter (repeatable)",
    )


def _load_problem(args):
    name = args.problem
    if name in bundled_problem_names():
        problem = bundled_problem(name)
    else:
        problem = load_problem(_read_file(name, "--problem"))
    overrides = {}
    for item in args.param:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise ValidationError(f"bad --param {item!r}, expected NAME=VALUE")
        if key in overrides:
            raise ValidationError(f"repeated --param {key!r}")
        overrides[key] = value
    if overrides:
        problem = problem.with_parameters(overrides)
    for warning in problem.coverage_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return problem


def _read_sequence(problem, text):
    if text.startswith("@"):
        text = _read_file(text[1:], "--input").strip()
    symbols = problem.input_alphabet.symbols
    if "," in text:
        seq = tuple(t.strip() for t in text.split(",") if t.strip())
    elif all(len(s) == 1 for s in symbols):
        seq = tuple(text.strip())
    else:
        raise ValidationError("multi-character tokens need a comma-separated sequence")
    for sym in seq:
        problem.input_alphabet.index(sym)
    return seq


def _read_file(path, flag):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {flag} file {path!r}: {exc.strerror}") from None


def _rational(text, flag):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad {flag} {text!r}, expected a rational") from None


def _write_file(path, flag, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {flag} file {path!r}: {exc.strerror}") from None


def _write_out(args, text):
    if args.out:
        _write_file(args.out, "--out", text)
    else:
        sys.stdout.write(text)


# -- synth ---------------------------------------------------------------------


def _cmd_synth(args):
    if args.all_optimal and (args.randomized or args.verify_lower_bound is not None):
        raise ValidationError(
            "--all-optimal applies to deterministic synthesis only, "
            "not with --randomized or --verify-lower-bound"
        )
    if args.randomized and args.verify_lower_bound is not None:
        raise ValidationError("--verify-lower-bound checks deterministic tables, not --randomized")
    if args.grid_step is not None and not args.randomized:
        raise ValidationError("--grid-step applies to --randomized synthesis only")
    problem = _load_problem(args)
    config = SynthesisConfig(
        horizon=args.horizon,
        collect_all_optimal=args.all_optimal,
        prune=not args.no_pruning,
    )
    if args.grid_step is not None:
        config = replace(config, grid_step=_rational(args.grid_step, "--grid-step"))
    if args.verify_lower_bound is not None:
        bound = _rational(args.verify_lower_bound, "--verify-lower-bound")
        holds, counter, checked = verify_lower_bound(problem, config, bound)
        if holds:
            print(
                f"lower bound {format_rational(bound)} holds: all {checked} "
                f"candidates have a cycle of ratio >= {format_rational(bound)}"
            )
            return 0
        print(f"lower bound {format_rational(bound)} FAILS; counterexample found")
        print(json.dumps(policy_to_document(counter), indent=2, sort_keys=True))
        return 0
    if args.randomized:
        policy, ratio = synthesize_rand(problem, config)
        doc = {
            "problem": problem.name,
            "kind": "randomized",
            "policies": [policy_to_document(policy)],
        }
    else:
        res = synthesize_det(problem, config)
        ratio = res.best_ratio
        doc = {
            "problem": problem.name,
            "kind": "deterministic",
            "classification": res.classification,
            "counters": {
                "candidates_examined": res.candidates_examined,
                "forced_entries": res.forced_entries,
                "pruned_short_cycle": res.pruned_short_cycle,
                "full_evaluations": res.full_evaluations,
                "nodes_visited": res.nodes_visited,
                "decision_tests": res.decision_tests,
                "remembered_cuts": res.remembered_cuts,
                "parametric_solves": res.parametric_solves,
            },
            "wall_seconds": round(res.wall_seconds, 3),
            "policies": [policy_to_document(p) for p in res.policies],
        }
    doc["ratio_exact"], doc["ratio_decimal"] = ratio_texts(ratio)
    _write_out(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


# -- eval ----------------------------------------------------------------------


def _cmd_eval(args):
    problem = _load_problem(args)
    policy = load_policy(_read_file(args.policy, "--policy"))
    if args.dump_graph:
        graph = build_graph_det(problem, policy)
        _write_file(args.dump_graph, "--dump-graph", graph.dump() + "\n")
    verdict = evaluate_policy(problem, policy)
    report = verdict.best
    print(f"classification: {verdict.classification}")
    exact, dec = ratio_texts(report.ratio)
    print(f"ratio: {exact} ({dec})" if report.ratio.is_finite else "ratio: inf")
    print(f"witness cycle q: {report.q}")
    print(f"witness cycle w: {report.w}")
    print(f"witness vertices: {' -> '.join(map(str, report.vertices))}")
    print(f"witness induced input: {''.join(report.induced)}")
    return 0


# -- opt -----------------------------------------------------------------------


def _cmd_opt(args):
    problem = _load_problem(args)
    xs = _read_sequence(problem, args.input)
    total, ys = offline_opt(problem, xs)
    print(f"opt cost: {total}")
    print(f"opt outputs: {problem.output_alphabet.join(ys)}")
    return 0


# -- algorithms (simulate, measure) ---------------------------------------------


def _require_horizon(args, name):
    if args.horizon is None:
        raise ValidationError(f"--horizon is required for {name}")
    return args.horizon


def _named_algorithm(problem, args, strategy_k=None) -> Algorithm:
    """The algorithm `--algorithm` names, for simulate and measure."""
    name = args.algorithm
    if strategy_k is not None and name != "mixed-resetting":
        raise ValidationError(f"--strategy-k applies to mixed-resetting only, not {name}")
    # the coin flip has no horizon, and a policy file carries its own
    takes_horizon = name in ("sliding-window", "mixed-resetting", "reset-wrapper")
    if args.horizon is not None and not takes_horizon:
        raise ValidationError(f"--horizon does not apply to {name}")
    alpha = problem.parameters.get("alpha")
    if alpha is None and name in ("coin-flip", "sliding-window"):
        raise ValidationError(f"{name} needs a problem with parameter alpha")
    if name == "coin-flip":
        return coin_flip_algorithm(alpha)
    if name == "sliding-window":
        return sliding_window_algorithm(_require_horizon(args, name), alpha)
    if name == "mixed-resetting":
        T = _require_horizon(args, name)
        if strategy_k is not None:
            return policy_algorithm(MixedResettingStrategy(strategy_k, T))
        return mixed_resetting_algorithm(T)
    if name == "reset-wrapper":
        T = _require_horizon(args, name)
        return policy_algorithm(ResetWrapper(ThresholdMigrator(alpha or 1), T))
    return policy_algorithm(load_policy(_read_file(name, "--algorithm")))


# -- simulate --------------------------------------------------------------------


def _cmd_simulate(args):
    problem = _load_problem(args)
    xs = _read_sequence(problem, args.input)
    algorithm = _named_algorithm(problem, args, args.strategy_k)
    outputs = algorithm.outputs(xs, args.seed)
    print(f"outputs: {problem.output_alphabet.join(outputs)}")
    breakdown = problem.evaluate(xs, outputs)
    print(f"per-step costs: {' '.join(str(c) for c in breakdown.per_step)}")
    print(f"total cost: {breakdown.total}")
    # the seed picks the outputs of a behavioural table and of an algorithm
    # with no one policy: the coin flip and a drawn Mixed Resetting member
    if algorithm.policy is None or isinstance(algorithm.policy, RandomizedPolicy):
        print(f"seed: {args.seed}")
    return 0


# -- measure ---------------------------------------------------------------------


def _parse_check(text):
    items = [item.partition("=")[::2] for item in text.split(",")]
    if sorted(key for key, _value in items) != ["c", "d"]:
        raise ValidationError(f"bad --check {text!r}, expected c=..,d=..")
    parts = dict(items)
    return _rational(parts["c"], "--check c"), _rational(parts["d"], "--check d")


def _cmd_measure(args):
    problem = _load_problem(args)
    algorithm = _named_algorithm(problem, args)
    generator = GeneratorSpec.parse(args.generator)
    check = _parse_check(args.check) if args.check else None
    record = measure_ratio(
        problem,
        algorithm,
        generator,
        trials=args.trials,
        base_seed=args.seed,
        check=check,
    )
    lines = [",".join(RunRecord.CSV_HEADER), ",".join(record.csv_row())]
    _write_out(args, "\n".join(lines) + "\n")
    if record.check is not None and not record.check[2]:
        print("guarantee check violated", file=sys.stderr)
    return 0


# -- table2 ----------------------------------------------------------------------


def _cmd_table2(args):
    problem = _load_problem(args)
    alphas = [a.strip() for a in args.alphas.split(",") if a.strip()]
    try:
        horizons = [int(t) for t in args.horizons.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"bad --horizons {args.horizons!r}, expected integers") from None
    if not alphas or not horizons:
        raise ValidationError("--alphas and --horizons each need at least one value")
    csv_text = emit_table2(problem, alphas, horizons, randomized=args.randomized)
    _write_out(args, csv_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
