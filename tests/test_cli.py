import json

import pytest

from tlsynth.cli import main


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


@pytest.mark.parametrize(
    "argv",
    [
        (*SYNTH, "--horizon", "0"),
        (*SYNTH, "--horizon", "-1"),
        (*SYNTH, "--horizon", "2", "--grid-step", "abc"),
        (*SYNTH, "--horizon", "2", "--grid-step", "0"),
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
                "fixed",
                "uniform:n=5,seed=1",
            )
        ),
        ("simulate", "--problem", "min-dom-set", "--algorithm", "coin-flip", "--input", "12"),
    ],
)
def test_bad_arguments_exit_2(capsys, argv):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--policy", ("eval", "--problem", "file-migration", "--policy", "{missing}")),
        ("--problem", ("opt", "--problem", "{missing}", "--input", "0110")),
        ("--input", ("opt", "--problem", "file-migration", "--input", "@{missing}")),
    ],
)
def test_missing_file_exits_2(tmp_path, capsys, flag, argv):
    missing = str(tmp_path / "missing.json")
    code, stdout, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot read {flag} file ")


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


def test_bad_sequence_symbols_rejected(capsys):
    code, _, _ = run_cli(
        capsys, "opt", "--problem", "file-migration", "--input", "012"
    )
    assert code == 2
