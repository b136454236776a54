import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import pytest

import tlsynth
from tlsynth import debruijn
from tlsynth.cli import main
from tlsynth.debruijn import cached_skeleton
from tlsynth.errors import GraphTooLarge
from tlsynth.exact import Cost
from tlsynth.policies import DeterministicPolicy, load_policy, policy_to_document
from tlsynth.problems import bundled_problem
from tlsynth.ratiocycle import evaluate_policy


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "best.json"
    code, _, _ = run_cli(
        capsys,
        "synth",
        "--problem",
        "file-migration",
        "--param",
        "alpha=1",
        "--horizon",
        "2",
        "--out",
        str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ratio_exact"] == "4"
    assert doc["counters"]["candidates_examined"] == 4
    code, stdout, _ = run_cli(
        capsys,
        "eval",
        "--problem",
        "file-migration",
        "--param",
        "alpha=1",
        "--policy",
        str(out),
    )
    assert code == 0
    assert "ratio: 4 (4.0000)" in stdout
    assert "witness induced input:" in stdout


def test_synth_counters_report_nodes_visited(tmp_path, capsys):
    counters = {}
    for flag in ((), ("--no-pruning",)):
        out = tmp_path / "best.json"
        argv = ["synth", "--problem", "file-migration", "--horizon", "3", *flag]
        code, _, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        counters[flag] = json.loads(out.read_text())["counters"]
    pruned, bare = counters[()], counters[("--no-pruning",)]
    assert pruned["candidates_examined"] == 64
    assert pruned["pruned_short_cycle"] + pruned["full_evaluations"] == 64
    assert pruned["full_evaluations"] <= pruned["nodes_visited"] < 2**7 - 1
    # every full evaluation takes one or two decision tests; only leaves
    # that beat the incumbent are solved
    assert pruned["full_evaluations"] <= pruned["decision_tests"]
    assert pruned["decision_tests"] <= pruned["nodes_visited"] + pruned["full_evaluations"]
    # some decisions are settled by a remembered losing cycle, without a test
    assert pruned["remembered_cuts"] <= pruned["decision_tests"]
    assert pruned["parametric_solves"] <= pruned["full_evaluations"]
    # without pruning every node of the 8-window tree is visited
    assert bare["nodes_visited"] == 2**9 - 1
    assert bare["full_evaluations"] == bare["candidates_examined"] == 2**8


def test_synth_randomized(tmp_path, capsys):
    out = tmp_path / "rand.json"
    code, _, _ = run_cli(
        capsys,
        "synth",
        "--problem",
        "file-migration",
        "--param",
        "alpha=1",
        "--horizon",
        "2",
        "--randomized",
        "--grid-step",
        "1/4",
        "--out",
        str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "randomized"
    assert doc["policies"][0]["entries"]["00"] == "0"


def test_opt_command(capsys):
    code, stdout, _ = run_cli(
        capsys, "opt", "--problem", "file-migration", "--input", "1111"
    )
    assert code == 0
    assert "opt cost: 1" in stdout


def test_opt_command_from_file(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("1010\n")
    code, stdout, _ = run_cli(
        capsys, "opt", "--problem", "file-migration", "--input", f"@{seq}"
    )
    assert code == 0
    assert "opt cost: 2" in stdout


def test_simulate_named_algorithms(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--problem",
        "file-migration",
        "--algorithm",
        "sliding-window",
        "--horizon",
        "6",
        "--input",
        "111111000000",
    )
    assert code == 0
    assert "total cost: 7" in stdout
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--problem",
        "file-migration",
        "--algorithm",
        "mixed-resetting",
        "--horizon",
        "3",
        "--strategy-k",
        "2",
        "--input",
        "10111",
    )
    assert code == 0
    assert "outputs: 00000" in stdout
    assert "seed:" not in stdout  # the member is fixed, so the seed picks nothing


@pytest.mark.parametrize("algorithm", ["coin-flip", "sliding-window", "reset-wrapper"])
def test_simulate_rejects_strategy_k_off_mixed_resetting(capsys, algorithm):
    """--strategy-k picks a Mixed Resetting member; any other algorithm
    would ignore it, so it is refused."""
    code, stdout, err = run_cli(
        capsys,
        "simulate",
        "--problem",
        "file-migration",
        "--algorithm",
        algorithm,
        "--horizon",
        "3",
        "--strategy-k",
        "3",
        "--input",
        "10111",
    )
    assert code == 2
    assert "--strategy-k" in err and not stdout


@pytest.mark.parametrize("command", ["simulate", "measure"])
@pytest.mark.parametrize("algorithm", ["coin-flip", "policy-file"])
def test_horizon_refused_where_it_would_be_ignored(tmp_path, capsys, command, algorithm):
    """The coin flip has no horizon and a policy file carries its own, so
    --horizon, which either would ignore, is refused, even when it is 0."""
    if algorithm == "policy-file":
        path = tmp_path / "pol.json"
        path.write_text(policy_text())
        algorithm = str(path)
    source = ("--input", "10111") if command == "simulate" else ("--generator", "uniform:n=5")
    code, stdout, err = run_cli(
        capsys,
        command,
        "--problem",
        "file-migration",
        "--algorithm",
        algorithm,
        "--horizon",
        "0",
        *source,
    )
    assert code == 2
    assert "--horizon" in err and not stdout


@pytest.mark.parametrize(
    "seed,outputs,total", [("0", "0000000000", "7"), ("7", "0001111111", "5")]
)
def test_simulate_drawn_mixed_resetting_prints_its_seed(capsys, seed, outputs, total):
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--problem",
        "file-migration",
        "--algorithm",
        "mixed-resetting",
        "--horizon",
        "4",
        "--input",
        "0110111011",
        "--seed",
        seed,
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == f"outputs: {outputs}"
    assert lines[2] == f"total cost: {total}"
    assert lines[3] == f"seed: {seed}"


def test_simulate_coin_flip_prints_the_cost_of_its_outputs(capsys):
    # a move after the last request serves nothing and is not charged
    problem = bundled_problem("file-migration")
    xs = tuple("0101101110")
    for seed in range(50):
        code, stdout, _ = run_cli(
            capsys,
            "simulate",
            "--problem",
            "file-migration",
            "--algorithm",
            "coin-flip",
            "--input",
            "".join(xs),
            "--seed",
            str(seed),
        )
        assert code == 0
        lines = dict(line.split(": ", 1) for line in stdout.splitlines())
        evaluated = problem.evaluate(xs, tuple(lines["outputs"])).total
        assert lines["total cost"] == str(evaluated), seed
        assert lines["seed"] == str(seed)


def test_simulate_randomized_policy_file(tmp_path, capsys):
    policy = {
        "horizon": 1,
        "inputs": ["0", "1"],
        "outputs": ["0", "1"],
        "kind": "randomized",
        "entries": {"0": "0", "1": "1/2"},
    }
    path = tmp_path / "pol.json"
    path.write_text(json.dumps(policy))
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--problem",
        "file-migration",
        "--algorithm",
        str(path),
        "--input",
        "1111",
        "--seed",
        "7",
    )
    assert code == 0
    assert "seed: 7" in stdout


def test_simulate_and_measure_run_the_same_sliding_window(capsys):
    # the first T windows hold placeholders, which the rule ignores
    common = ("--problem", "file-migration", "--algorithm", "sliding-window")
    for horizon in ("6", "17"):
        code, stdout, _ = run_cli(
            capsys, "simulate", *common, "--horizon", horizon, "--input", "110"
        )
        assert code == 0
        assert "total cost: 2\n" in stdout
        code, stdout, _ = run_cli(
            capsys, "measure", *common, "--horizon", horizon, "--generator", "fixed:seq=110"
        )
        assert code == 0
        assert stdout.splitlines()[1].startswith("fixed:seq=110,3,1,2.000000,")


def test_measure_command_with_check(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "measure",
        "--problem",
        "file-migration",
        "--algorithm",
        "sliding-window",
        "--horizon",
        "6",
        "--generator",
        "blocks:T=6,L=10",
        "--trials",
        "1",
        "--check",
        "c=6,d=6",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("generator,length")
    assert lines[1].endswith("ok")


def test_table2_command(capsys):
    code, first, _ = run_cli(
        capsys, "table2", "--alphas", "0.5,1", "--horizons", "1,2"
    )
    assert code == 0
    code, second, _ = run_cli(
        capsys, "table2", "--alphas", "0.5,1", "--horizons", "1,2"
    )
    assert first == second
    assert "1/2,1,det,3,3.0000" in first


@dataclass(frozen=True)
class SynthPin:
    """What a pinned synth run compares, as its JSON also holds
    `wall_seconds`: the exact ratio, and each policy's entries in window
    order joined by `sep`, or, given as an int, the number of policies."""

    ratio_exact: str
    policies: object
    sep: str = ","


FM = ("--problem", "file-migration")
OPT_INPUT = (
    "01101110001010111010011011101101111010101010111101010011010100010000000110000110"
    "00000100001000110101110110101110110001110101010010100010110010100000011100100101"
    "11111100001000000111010111011010001010100111000111101000000110010011110000010011"
    "010010001010011010011001100101011001010001011010011001000101"
)
OPT_OUTPUTS = (
    "01111111111111111111111111111111111111111111111100000000000000000000000000000000"
    "00000000000000111111111111111111110000000000000000000000000000000000000000000001"
    "11111100000000000111111111111000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000"
)

# The exact answers the CLI must keep, run under plain Python and `python -O`
# alike. Each case is a sequence of (argv, expected) runs, every one exiting
# 0; expected is the exact stdout, a `SynthPin`, or a file holding the exact
# stdout. `{tmp}` in an argument is the test's temporary directory. A new
# pin is a new case.
PINNED_CLI_OUTPUTS = {
    "t4-synthesis": [(("synth", *FM, "--horizon", "4", "--all-optimal"), SynthPin("3", 3))],
    "lifted-start-synthesis": [
        (
            ("synth", *FM, "--param", "alpha=1/2", "--horizon", "4", "--all-optimal"),
            SynthPin("3", ["0101010101010101"], sep=""),
        )
    ],
    "guided-min-dom-set-drops-inf-pairs": [
        (
            ("synth", "--problem", "min-dom-set", "--horizon", "3", "--all-optimal"),
            SynthPin("3", 9),
        )
    ],
    "randomized-min-dom-set-drops-inf-pairs": [
        (
            ("synth", "--problem", "min-dom-set", "--horizon", "3", "--randomized",
             "--grid-step", "1/2"),
            SynthPin("3", ["10011101"], sep=""),
        )
    ],
    "randomized-t3-grid-value-cut": [
        (
            ("synth", *FM, "--param", "alpha=1", "--horizon", "3", "--randomized",
             "--grid-step", "1/10"),
            SynthPin("27/10", ["0,1/10,2/5,1,0,9/10,1/2,1"]),
        )
    ],
    "randomized-t3-refinement-win": [
        (
            ("synth", *FM, "--param", "alpha=1", "--horizon", "3", "--randomized",
             "--grid-step", "1/2"),
            SynthPin("2735/1024", ["0,55/512,239/512,1,0,1,115/256,1"]),
        )
    ],
    "randomized-t3-refinement-four-wins": [
        (
            ("synth", *FM, "--param", "alpha=2", "--horizon", "3", "--randomized",
             "--grid-step", "1/2"),
            SynthPin("3789/1024", ["0,17/256,1/2,1,0,1,239/512,1"]),
        )
    ],
    "unpruned-randomized-keeps-self-loops-forced": [
        (
            ("synth", *FM, "--horizon", "2", "--randomized", "--no-pruning"),
            SynthPin("7/2", ["0,1/2,1/2,1"]),
        )
    ],
    "table2-matches-benchmark-reference": [
        (
            ("table2", *FM, "--alphas", "1/10,1/5,3/10,1/2,1", "--horizons", "1,2",
             "--randomized"),
            Path(__file__).resolve().parents[1] / "bench" / "ref" / "table2.csv",
        )
    ],
    "offline-optimum-and-measure": [
        (
            ("opt", *FM, "--param", "alpha=2", "--input", OPT_INPUT),
            f"opt cost: 122\nopt outputs: {OPT_OUTPUTS}\n",
        ),
        (
            ("measure", *FM, "--algorithm", "sliding-window", "--horizon", "6",
             "--generator", "uniform:n=500,p=1/2", "--trials", "20", "--seed", "1",
             "--check", "c=6,d=6"),
            "generator,length,trials,alg_cost,opt_cost,ratio,mean_ratio,stderr,seed,check\n"
            "uniform:n=500,p=1/2,500,20,368.200000,164.200000,2.241704,2.241704,0.020932,1,ok\n",
        ),
    ],
    "synthesis-then-eval": [
        (("synth", *FM, "--horizon", "4", "--out", "{tmp}/fm.json"), ""),
        (
            ("eval", *FM, "--policy", "{tmp}/fm.json"),
            "classification: finite\nratio: 3 (3.0000)\nwitness cycle q: 6\n"
            "witness cycle w: 2\nwitness vertices: 0 -> 2 -> 6 -> 12 -> 24 -> 16 -> 0\n"
            "witness induced input: 110000\n",
        ),
        (("synth", "--problem", "min-dom-set", "--horizon", "3", "--out", "{tmp}/mds.json"), ""),
        (
            ("eval", "--problem", "min-dom-set", "--policy", "{tmp}/mds.json"),
            "classification: finite\nratio: 3 (3.0000)\nwitness cycle q: 3\n"
            "witness cycle w: 1\nwitness vertices: 0 -> 1 -> 2 -> 0\n"
            "witness induced input: 111\n",
        ),
    ],
}


@pytest.mark.parametrize("runs", PINNED_CLI_OUTPUTS.values(), ids=PINNED_CLI_OUTPUTS.keys())
def test_pinned_cli_outputs(tmp_path, capsys, runs):
    for argv, expected in runs:
        code, stdout, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 0, err
        if isinstance(expected, SynthPin):
            doc = json.loads(stdout)
            policies = [
                expected.sep.join(v for _, v in sorted(p["entries"].items()))
                for p in doc["policies"]
            ]
            if isinstance(expected.policies, int):
                policies = len(policies)
            assert (doc["ratio_exact"], policies) == (expected.ratio_exact, expected.policies)
        else:
            assert stdout == (expected.read_text() if isinstance(expected, Path) else expected)


def test_verify_lower_bound_mode(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "synth",
        "--problem",
        "file-migration",
        "--param",
        "alpha=1",
        "--horizon",
        "2",
        "--verify-lower-bound",
        "4",
    )
    assert code == 0
    assert "lower bound 4 holds" in stdout


def test_dump_graph(tmp_path, capsys):
    policy = {
        "horizon": 1,
        "inputs": ["0", "1"],
        "outputs": ["0", "1"],
        "kind": "deterministic",
        "entries": {"0": "0", "1": "1"},
    }
    path = tmp_path / "pol.json"
    path.write_text(json.dumps(policy))
    dump = tmp_path / "graph.txt"
    code, _, _ = run_cli(
        capsys,
        "eval",
        "--problem",
        "file-migration",
        "--policy",
        str(path),
        "--dump-graph",
        str(dump),
    )
    assert code == 0
    text = dump.read_text()
    assert "vertex 0" in text and "w=" in text and "q=" in text


def test_exit_code_2_on_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    code, _, err = run_cli(capsys, "opt", "--problem", str(bad), "--input", "0")
    assert code == 2
    assert "error:" in err


def test_exit_code_2_on_bad_param(capsys):
    code, _, err = run_cli(
        capsys,
        "opt",
        "--problem",
        "file-migration",
        "--param",
        "beta=1",
        "--input",
        "0",
    )
    assert code == 2


SYNTH = ("synth", "--problem", "file-migration")
MEASURE_SW = ("measure", "--problem", "file-migration", "--algorithm", "sliding-window")
MEASURE_MR = ("measure", "--problem", "file-migration", "--algorithm", "mixed-resetting")


@pytest.mark.parametrize(
    "argv",
    [
        (*SYNTH, "--horizon", "0"),
        (*SYNTH, "--horizon", "-1"),
        (*SYNTH, "--horizon", "2", "--randomized", "--grid-step", "abc"),
        (*SYNTH, "--horizon", "2", "--randomized", "--grid-step", "0"),
        # deterministic synthesis searches no grid, so the step is refused
        (*SYNTH, "--horizon", "2", "--grid-step", "1/4"),
        (*SYNTH, "--horizon", "2", "--verify-lower-bound", "x"),
        ("table2", "--alphas", "1", "--horizons", "x"),
        (
            "measure",
            "--problem",
            "file-migration",
            "--algorithm",
            "sliding-window",
            "--generator",
            "blocks:T=6,L=10",
            "--horizon",
            "6",
            "--check",
            "c=6",
        ),
        (*SYNTH, "--param", "alpha=x", "--horizon", "2"),
        ("table2", "--alphas", "x", "--horizons", "1"),
        *(
            (*MEASURE_SW, "--horizon", "6", "--generator", spec)
            for spec in (
                "blocks",
                "blocks:T=x,L=2",
                "uniform:n=abc",
                "uniform:n=10,p=x",
                "uniform:n=10,p=2",
                "uniform:n=10,p=-1",
                "fixed",
                "uniform:n=5,seed=1",
            )
        ),
        ("simulate", "--problem", "min-dom-set", "--algorithm", "coin-flip", "--input", "12"),
        # the coin flip moves w.p. 1/(2*alpha), a probability only for alpha >= 1/2;
        # it is checked once per run, so before an empty input too
        *(
            ("simulate", *FM, "--param", alpha, "--algorithm", "coin-flip", "--input", xs)
            for alpha, xs in (("alpha=0", "0101"), ("alpha=-1", "0101"), ("alpha=0", ""))
        ),
        (
            "measure",
            *FM,
            "--param",
            "alpha=0",
            "--algorithm",
            "coin-flip",
            "--generator",
            "uniform:n=5",
        ),
        # a key given twice, not overwritten by its last value
        (*MEASURE_SW, "--horizon", "6", "--generator", "uniform:n=5,n=7"),
        (*MEASURE_SW, "--horizon", "6", "--generator", "blocks:T=6,L=10", "--check", "c=6,d=6,c=9"),
        (*SYNTH, "--param", "alpha=1", "--param", "alpha=5", "--horizon", "1"),
        (*SYNTH, "--param", "alpha=1", "--param", " alpha =1", "--horizon", "1"),
        # self-loop forcing needs sum aggregation; load balancing takes a max
        ("synth", "--problem", "load-balancing", "--horizon", "1"),
        # Mixed Resetting draws its member from [1, T], empty for T < 1
        ("simulate", *FM, "--algorithm", "mixed-resetting", "--horizon", "0", "--input", "01"),
        (*MEASURE_MR, "--horizon", "-2", "--generator", "uniform:n=5"),
        # a table2 with no alphas or no horizons has no cells
        ("table2", "--alphas", "1", "--horizons", ","),
        ("table2", "--alphas", "", "--horizons", ""),
        ("table2", "--alphas", ",", "--horizons", "1"),
    ],
)
def test_bad_arguments_exit_2(capsys, argv):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")
    if argv.count("--param") > 1:
        assert "'alpha'" in err


@pytest.mark.parametrize(
    "mode", [("--randomized",), ("--verify-lower-bound", "3")], ids=["randomized", "verify"]
)
def test_all_optimal_needs_deterministic_synthesis(capsys, mode):
    """Randomized synthesis and lower-bound verification return one table,
    so `--all-optimal` with either is an error, not silently ignored."""
    code, stdout, err = run_cli(capsys, *SYNTH, "--horizon", "2", "--all-optimal", *mode)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --all-optimal applies to deterministic synthesis only")


def test_lower_bound_verification_needs_deterministic_synthesis(capsys):
    """`--verify-lower-bound` checks the deterministic tables, so with
    `--randomized` it is an error: at alpha=1, T=2 the bound 4 holds for
    every table, while randomized synthesis reaches 7/2."""
    code, stdout, err = run_cli(
        capsys, *SYNTH, "--horizon", "2", "--randomized", "--verify-lower-bound", "4"
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --verify-lower-bound checks deterministic tables")


def test_lower_bound_counterexample_reads_back(capsys):
    """A bound above the optimum fails: the counterexample printed after
    the verdict is a policy document that rates below the bound (4 < 9/2
    at alpha=1, T=2)."""
    code, stdout, _ = run_cli(capsys, *SYNTH, "--horizon", "2", "--verify-lower-bound", "9/2")
    assert code == 0
    verdict, document = stdout.split("\n", 1)
    assert verdict == "lower bound 9/2 FAILS; counterexample found"
    policy = load_policy(document)
    assert policy.horizon == 2
    assert evaluate_policy(bundled_problem("file-migration"), policy).best.ratio == Cost(4)


def test_eval_reports_an_infinite_ratio(tmp_path, capsys):
    """The T=1 table that always answers 0 pays on a free adversary loop."""
    path = tmp_path / "zero.json"
    path.write_text(policy_text(entries={"0": "0", "1": "0"}))
    code, stdout, _ = run_cli(capsys, "eval", "--problem", "file-migration", "--policy", str(path))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[:2] == ["classification: infinite", "ratio: inf"]


def test_eval_refuses_a_policy_of_other_alphabets(tmp_path, capsys):
    path = tmp_path / "migration.json"
    path.write_text(policy_text())
    code, stdout, err = run_cli(capsys, "eval", "--problem", "min-dom-set", "--policy", str(path))
    assert (code, stdout) == (2, "")
    assert err == "error: policy and problem alphabets differ\n"


def test_graph_guard_exits_3(tmp_path, capsys, monkeypatch):
    """Past `debruijn.VERTEX_GUARD` the skeleton is not built: the build
    raises `GraphTooLarge`, and the CLI exits 3."""
    monkeypatch.setattr(debruijn, "VERTEX_GUARD", 3)
    with pytest.raises(GraphTooLarge):
        cached_skeleton(bundled_problem("file-migration"), 1)
    path = tmp_path / "pol.json"
    path.write_text(policy_text())
    code, stdout, err = run_cli(capsys, "eval", "--problem", "file-migration", "--policy", str(path))
    assert (code, stdout) == (3, "")
    assert err.startswith("guard: ") and "exceed guard 3" in err


def test_reset_wrapper_simulates_and_measures_alike(capsys):
    """`--algorithm reset-wrapper` restarts the threshold migrator every
    T steps, in simulate and in measure alike."""
    common = ("--problem", "file-migration", "--algorithm", "reset-wrapper", "--horizon", "2")
    code, stdout, _ = run_cli(capsys, "simulate", *common, "--input", "0110111")
    assert code == 0
    assert stdout.splitlines()[0] == "outputs: 0001010"
    assert "total cost: 9" in stdout
    code, stdout, _ = run_cli(capsys, "measure", *common, "--generator", "fixed:seq=0110111")
    assert code == 0
    assert stdout.splitlines()[1].startswith("fixed:seq=0110111,7,1,9.000000,2.000000,4.500000,")


def test_measure_reports_a_violated_check(capsys):
    """A check the run breaks marks the row and warns, but is no error:
    the sliding window pays 31 against an optimum of 10 on these blocks."""
    code, stdout, err = run_cli(
        capsys,
        *MEASURE_SW,
        "--horizon",
        "6",
        "--generator",
        "blocks:T=6,L=5",
        "--check",
        "c=1,d=0",
    )
    assert code == 0
    row = stdout.splitlines()[1]
    assert row.startswith("blocks:L=5,T=6,60,1,31.000000,10.000000,") and row.endswith(",VIOLATED")
    assert err == "guarantee check violated\n"


def table_file(path, problem_name, table):
    """`path`, holding the T=1 table `table` of the bundled problem's alphabets."""
    problem = bundled_problem(problem_name)
    xs, ys = problem.input_alphabet, problem.output_alphabet
    path.write_text(json.dumps(policy_to_document(DeterministicPolicy(1, xs, ys, table))))
    return str(path)


def test_measure_rates_an_infinite_cost_inf(tmp_path, capsys):
    """The min-dom-set table that always answers 0 pays +inf (three 0
    outputs in a row) against an optimum of 2 on 121212: its ratio is inf,
    as a positive cost against a zero optimum is, and so is its cost."""
    policy = table_file(tmp_path / "zero.json", "min-dom-set", (0, 0))
    code, stdout, err = run_cli(
        capsys,
        "measure",
        "--problem",
        "min-dom-set",
        "--algorithm",
        policy,
        "--generator",
        "fixed:seq=121212",
    )
    assert (code, err) == (0, "")
    assert stdout.splitlines()[1] == "fixed:seq=121212,6,1,inf,2.000000,inf,inf,0.000000,0,"


@pytest.mark.parametrize(
    "one_rule,name,table,seq,message",
    [
        (True, "file-migration", (0, 1), "0110", "the offline optimum is +inf"),
        (False, "max-ind-set", (1, 1), "5757", "the algorithm's total cost is -inf"),
    ],
)
def test_measure_without_a_ratio_exits_2(tmp_path, capsys, one_rule, name, table, seq, message):
    """A document whose one rule costs +inf everywhere has no finite
    optimum, and a max-ind-set table paying -inf (two 1 outputs in a row)
    has no ratio against its finite optimum: measure exits 2 with a
    message."""
    problem = name
    if one_rule:
        problem = tmp_path / "infinite.json"
        rule = {"x": ["*", "*"], "y": ["*", "*"], "cost": "+inf"}
        problem.write_text(problem_text(rules=[rule]))
    policy = table_file(tmp_path / "policy.json", name, table)
    code, stdout, err = run_cli(
        capsys,
        "measure",
        "--problem",
        str(problem),
        "--algorithm",
        policy,
        "--generator",
        f"fixed:seq={seq}",
    )
    assert (code, stdout) == (2, "")
    assert err == f"error: {message}, which has no ratio\n"


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--policy", ("eval", "--problem", "file-migration", "--policy", "{missing}")),
        ("--problem", ("opt", "--problem", "{missing}", "--input", "0110")),
        ("--input", ("opt", "--problem", "file-migration", "--input", "@{missing}")),
        # a write into a missing directory
        ("--out", (*SYNTH, "--horizon", "2", "--out", "{missing}/x.json")),
        ("--out", (*MEASURE_SW, "--horizon", "6", "--generator", "fixed:seq=01",
                   "--out", "{missing}/x.csv")),
        ("--out", ("table2", "--alphas", "1", "--horizons", "1", "--out", "{missing}/x.csv")),
        ("--dump-graph", ("eval", *FM, "--policy", "{policy}", "--dump-graph", "{missing}/g")),
    ],
)
def test_missing_file_exits_2(tmp_path, capsys, flag, argv):
    missing = str(tmp_path / "missing.json")
    policy = tmp_path / "policy.json"
    policy.write_text(policy_text())
    code, stdout, err = run_cli(
        capsys, *(a.format(missing=missing, policy=policy) for a in argv)
    )
    assert code == 2
    assert stdout == ""
    verb = "write" if flag in ("--out", "--dump-graph") else "read"
    assert err.startswith(f"error: cannot {verb} {flag} file ")


def policy_text(**fields):
    problem = bundled_problem("file-migration")
    xs, ys = problem.input_alphabet, problem.output_alphabet
    doc = policy_to_document(DeterministicPolicy(1, xs, ys, (0, 1)))
    return json.dumps(dict(doc, **fields))


def problem_text(**fields):
    text = resources.files("tlsynth.data").joinpath("file-migration.json").read_text()
    return json.dumps(dict(json.loads(text), **fields))


@pytest.mark.parametrize(
    "flag,text,exit_code,message",
    [
        ("--policy", '{"horizon": 1,', 2, "error: invalid JSON: "),
        ("--policy", policy_text(horizon="x"), 2, "error: horizon: must be an integer"),
        ("--policy", policy_text(horizon=0), 2, "error: policy horizon must be positive"),
        ("--policy", policy_text(horizon=-1), 2, "error: policy horizon must be positive"),
        ("--policy", policy_text(horizon=64), 3, "guard: |X|^64 exceeds the table guard"),
        ("--policy", '{"policies": 5}', 2, "error: policies: must be a JSON array"),
        ("--policy", '{"policies": []}', 2, "error: synthesis document holds no policies"),
        ("--problem", problem_text(rules=5), 2, "error: rules: must be a JSON array"),
        ("--problem", problem_text(inputs=5), 2, "error: inputs: must be a JSON array"),
        (
            "--problem",
            problem_text(initial_outputs=5),
            2,
            "error: initial_outputs: must be a JSON array",
        ),
        (
            "--problem",
            problem_text(parameters=[1]),
            2,
            "error: parameters: must be a JSON object",
        ),
        ("--policy", policy_text(horizon=1.7), 2, "error: horizon: must be an integer"),
        ("--policy", policy_text(horizon=True), 2, "error: horizon: must be an integer"),
        ("--policy", policy_text(horizon="1"), 2, "error: horizon: must be an integer"),
        ("--problem", problem_text(r=1.5), 2, "error: r: must be an integer"),
        ("--problem", problem_text(r=True), 2, "error: r: must be an integer"),
    ],
    ids=[
        "policy-syntax",
        "policy-horizon-x",
        "policy-horizon-0",
        "policy-horizon-minus-1",
        "policy-horizon-64",
        "synth-policies-number",
        "synth-policies-empty",
        "problem-rules-number",
        "problem-inputs-number",
        "problem-initial-outputs-number",
        "problem-parameters-list",
        "policy-horizon-float",
        "policy-horizon-true",
        "policy-horizon-string",
        "problem-r-float",
        "problem-r-true",
    ],
)
def test_malformed_document_exits_with_a_message(
    tmp_path, capsys, flag, text, exit_code, message
):
    path = tmp_path / "doc.json"
    path.write_text(text)
    if flag == "--policy":
        argv = ("eval", "--problem", "file-migration", "--policy", str(path))
    else:
        argv = ("opt", "--problem", str(path), "--input", "01")
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (exit_code, "")
    assert err.startswith(message)


def test_negative_adversary_cost_exits_2(tmp_path, capsys):
    # max-ind-set has a -inf rule, which the skeleton rejects for synth and eval
    code, stdout, err = run_cli(capsys, "synth", "--problem", "max-ind-set", "--horizon", "2")
    assert (code, stdout) == (2, "")
    assert err == "error: edge 5: adversary cost -inf must be >= 0\n"
    problem = bundled_problem("max-ind-set")
    xs, ys = problem.input_alphabet, problem.output_alphabet
    policy = tmp_path / "policy.json"
    doc = policy_to_document(DeterministicPolicy(2, xs, ys, (0, 0, 0, 0)))
    policy.write_text(json.dumps(doc))
    code, stdout, err = run_cli(
        capsys, "eval", "--problem", "max-ind-set", "--policy", str(policy)
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: edge ") and err.endswith(" must be >= 0\n")


def test_exit_code_3_on_guard(capsys):
    code, _, err = run_cli(
        capsys,
        "synth",
        "--problem",
        "file-migration",
        "--horizon",
        "5",
    )
    assert code == 3
    assert "guard:" in err


# a deterministic table has 2 outputs per free window, a grid 21 values
@pytest.mark.parametrize("randomized,base", [((), 2), (("--randomized",), 21)], ids=["det", "rand"])
@pytest.mark.parametrize(
    "horizon,exponent",
    [
        (14, 16382),
        (34, 17179869182),
        (20000, "(at least 2^19999)"),
        (10**9, "(2^1000000000 - 2)"),
    ],
)
def test_guard_names_a_huge_search_space_at_once(capsys, horizon, exponent, randomized, base):
    """The candidate count is never built: at T=14 it has 4,932 digits,
    more than Python prints, and at T=34 about 2^34 bits; each run exits 3
    with one `guard:` line naming it as a power, at once. At T=10**9 the
    exponent, 2^T less the two forced windows, is not built either."""
    started = time.monotonic()
    code, stdout, err = run_cli(capsys, *SYNTH, "--horizon", str(horizon), *randomized)
    assert time.monotonic() - started < 1
    assert (code, stdout) == (3, "")
    assert err == f"guard: search space has {base}^{exponent} candidates (guard {2**26})\n"


# the child caps its own address space at 1 GB before it runs the CLI
LIMITED_CLI = (
    "import resource, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
    "from tlsynth.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize("command", ["measure", "simulate"])
@pytest.mark.parametrize(
    "algorithm,generator",
    [
        ("sliding-window", "adaptive:L=2"),
        ("mixed-resetting", "uniform:n=5"),
        ("reset-wrapper", "uniform:n=5"),
    ],
)
def test_runs_at_a_huge_horizon_in_bounded_memory(command, algorithm, generator):
    """A rule or clocked policy sees at most the inputs so far, so at
    T=10**9 neither its runs nor the adaptive generator build a T-entry
    window: each command answers within 1 GB of address space, at once."""
    source = "--generator" if command == "measure" else "--input"
    argv = [command, *FM, "--algorithm", algorithm, "--horizon", str(10**9)]
    argv += [source, generator if command == "measure" else "01101"]
    env = dict(os.environ, PYTHONPATH=str(Path(tlsynth.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
    )
    assert child.returncode in (0, 2, 3), child.stderr
    assert child.returncode == 0 or child.stderr.startswith(("error:", "guard:"))


def test_table2_skips_a_guarded_horizon(capsys):
    code, stdout, err = run_cli(capsys, "table2", "--alphas", "1", "--horizons", "14")
    assert (code, err) == (0, "")
    assert stdout == "alpha,T,kind,ratio_exact,ratio_decimal\n1,14,det,skipped,skipped\n"


def test_measure_refuses_a_negative_optimum(capsys):
    """At alpha=-1 a move pays -1, so the offline optimum goes negative,
    which has no ratio: measure exits 2, as synth does on the same
    parameter."""
    code, stdout, err = run_cli(
        capsys,
        "measure",
        *FM,
        "--param",
        "alpha=-1",
        "--algorithm",
        "mixed-resetting",
        "--horizon",
        "2",
        "--generator",
        "uniform:n=5",
        "--trials",
        "2",
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: the offline optimum is -")
    assert err.endswith(", which has no ratio\n")


def test_bad_sequence_symbols_rejected(capsys):
    code, _, _ = run_cli(
        capsys, "opt", "--problem", "file-migration", "--input", "012"
    )
    assert code == 2


RAND = policy_text(kind="randomized", entries={"0": "0", "1": "1/2"})
RULE = {"x": ["*", "*"], "y": ["*", "*"], "cost": "0"}
EVAL_DOC = ("eval", *FM, "--policy", "{doc}")
OPT_DOC = ("opt", "--problem", "{doc}", "--input", "01")
MEASURE_DOC = ("measure", *FM, "--algorithm", "{doc}", "--generator")


@pytest.mark.parametrize("entry", ["abc", "1/0", [1], True], ids=["abc", "1-0", "list", "true"])
@pytest.mark.parametrize(
    "argv",
    [
        EVAL_DOC,
        ("simulate", *FM, "--algorithm", "{doc}", "--input", "01"),
        (*MEASURE_DOC, "fixed:seq=01"),
    ],
    ids=["eval", "simulate", "measure"],
)
def test_randomized_policy_entry_must_be_a_rational(tmp_path, capsys, argv, entry):
    doc = tmp_path / "policy.json"
    doc.write_text(policy_text(kind="randomized", entries={"0": "1/2", "1": entry}))
    code, stdout, err = run_cli(capsys, *(a.format(doc=doc) for a in argv))
    assert (code, stdout) == (2, "")
    assert err == f"error: entries.1: bad rational {entry!r}\n"


# (document text or None, argv, the whole error line); "{doc}" names the document
INPUT_CHECKS = {
    # flags
    "param-without-equals": (None, ("opt", *FM, "--param", "alpha", "--input", "01"),
                             "bad --param 'alpha', expected NAME=VALUE"),
    "sliding-window-without-horizon": (
        None, ("simulate", *FM, "--algorithm", "sliding-window", "--input", "01"),
        "--horizon is required for sliding-window"),
    "zero-trials": (None, ("measure", *FM, "--algorithm", "coin-flip", "--generator",
                           "uniform:n=5", "--trials", "0"), "trials must be >= 1"),
    "multi-character-input-without-commas": (
        problem_text(inputs=["aa", "bb"], rules=[RULE]),
        ("opt", "--problem", "{doc}", "--input", "aabb"),
        "multi-character tokens need a comma-separated sequence"),
    # generator specs
    "uniform-key-without-value": (
        None, ("measure", *FM, "--algorithm", "coin-flip", "--generator", "uniform:n"),
        "bad generator parameter 'n'"),
    "uniform-n-0": (None, ("measure", *FM, "--algorithm", "coin-flip", "--generator",
                           "uniform:n=0"), "uniform generator needs n >= 1"),
    "adaptive-L-0": (policy_text(), (*MEASURE_DOC, "adaptive:L=0"),
                     "adaptive generator needs L >= 1 and cutoff >= 1"),
    "adaptive-randomized-policy": (RAND, (*MEASURE_DOC, "adaptive:L=2"),
                                   "adaptive generator needs a deterministic policy"),
    # policy files
    "policy-missing-kind": (
        json.dumps({k: v for k, v in json.loads(policy_text()).items() if k != "kind"}),
        EVAL_DOC, "kind: missing field"),
    "policy-unknown-kind": (policy_text(kind="mixed"), EVAL_DOC, "kind: unknown kind 'mixed'"),
    "policy-window-length": (policy_text(entries={"00": "0", "1": "1"}), EVAL_DOC,
                             "window '00' does not have 1 tokens"),
    "policy-probability-above-1": (
        policy_text(kind="randomized", entries={"0": "0", "1": "3/2"}), EVAL_DOC,
        "probability '3/2' outside [0, 1]"),
    "policy-comma-token": (policy_text(inputs=["a,b", "c"]), EVAL_DOC,
                           "token 'a,b' contains ',', which separates tokens"),
    "randomized-policy-three-outputs": (
        policy_text(kind="randomized", outputs=["0", "1", "2"]), EVAL_DOC,
        "randomized policies need a binary output alphabet"),
    # problem files
    "problem-array": ("[]", OPT_DOC, "document must be a JSON object"),
    "problem-no-inputs": (problem_text(inputs=[]), OPT_DOC, "alphabet must be non-empty"),
    "problem-empty-token": (problem_text(inputs=["", "1"]), OPT_DOC,
                            "alphabet may not contain an empty token, '_|_' or '*'"),
    "problem-duplicate-token": (problem_text(inputs=["0", "0"]), OPT_DOC,
                                "duplicate tokens in alphabet ('0', '0')"),
    "problem-wildcard-token": (problem_text(outputs=["*", "1"]), OPT_DOC,
                               "alphabet may not contain an empty token, '_|_' or '*'"),
    "problem-comma-token": (problem_text(inputs=["a,b", "c"], rules=[RULE]),
                            ("synth", "--problem", "{doc}", "--horizon", "1"),
                            "token 'a,b' contains ',', which separates tokens"),
    "problem-negative-r": (problem_text(r=-1), OPT_DOC, "horizon r must be non-negative"),
    "problem-unknown-aggregation": (problem_text(aggregation="mean"), OPT_DOC,
                                    "unknown aggregation 'mean'"),
    "problem-unknown-objective": (problem_text(objective="mid"), OPT_DOC,
                                  "unknown objective 'mid'"),
    "problem-initial-outputs-length": (problem_text(initial_outputs=[]), OPT_DOC,
                                       "initial_outputs must list exactly r=1 tokens"),
    "problem-pattern-length": (problem_text(rules=[dict(RULE, x=["*"])]), OPT_DOC,
                               "rules[0].x: length must be r+1"),
    "problem-rule-without-cost": (problem_text(rules=[{"x": ["*", "*"], "y": ["*", "*"]}]),
                                  OPT_DOC, "rules[0]: rule needs x, y and cost"),
    "problem-x-not-array": (problem_text(rules=[dict(RULE, x="**")]), OPT_DOC,
                            "rules[0]: x and y must be JSON arrays"),
    "problem-unknown-token": (problem_text(rules=[dict(RULE, x=["*", "2"])]), OPT_DOC,
                              "rules[0].x: unknown input token '2'"),
    "problem-parameter-not-rational": (problem_text(parameters={"alpha": "x"}), OPT_DOC,
                                       "parameters.alpha: bad rational 'x'"),
    "problem-parameter-true": (problem_text(parameters={"alpha": True}), OPT_DOC,
                               "parameters.alpha: bad rational True"),
    "problem-empty-cost-term": (problem_text(rules=[dict(RULE, cost="1+")]), OPT_DOC,
                                "rules[0].cost: empty term in cost expression '1+'"),
    "problem-cost-1-0": (problem_text(rules=[dict(RULE, cost="1/0")]), OPT_DOC,
                         "rules[0].cost: bad rational in '1/0'"),
    **{
        f"problem-cost-{name}": (problem_text(rules=[dict(RULE, cost=cost)]), OPT_DOC,
                                 "rules[0].cost: must be a number or a string")
        for name, cost in (("true", True), ("null", None), ("list", [1]), ("object", {"a": 1}))
    },
}


@pytest.mark.parametrize("text,argv,message", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_checks_exit_2_with_their_message(tmp_path, capsys, text, argv, message):
    doc = tmp_path / "doc.json"
    if text is not None:
        doc.write_text(text)
    code, stdout, err = run_cli(capsys, *(a.format(doc=doc) for a in argv))
    assert (code, stdout) == (2, "")
    assert err == f"error: {message}\n"
