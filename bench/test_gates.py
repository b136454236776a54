"""Tests of the benchmark itself: every answer gate passes on the right
answer and fails once its reference is perturbed, and the tracer wraps
and restores every binding of an entry point.

    python3 -m pytest -q bench
"""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest

import gates
import speed
import tracing
import workloads
from tlsynth import debruijn, measure, policies, problems, ratiocycle, synthesis
from tlsynth.exact import Cost


def fake_synthesis(tables, ratio=gates.SYNTH_T4_RATIO):
    policies = [SimpleNamespace(table=gates.bits_table(bits)) for bits in tables]
    return SimpleNamespace(classification="finite", best_ratio=ratio, policies=policies)


def test_synth_gate():
    result = fake_synthesis(gates.SYNTH_T4_TABLES.values())
    assert gates.check_synth(result, gates.SYNTH_T4_RATIO, gates.SYNTH_T4_TABLES) == []
    assert gates.check_synth(result, Cost(Fraction(7, 2)), gates.SYNTH_T4_TABLES)
    fewer = dict(gates.SYNTH_T4_TABLES)
    del fewer["A3"]
    assert gates.check_synth(result, gates.SYNTH_T4_RATIO, fewer)
    more = dict(gates.SYNTH_T4_TABLES, A4="0001011100010111")
    assert gates.check_synth(result, gates.SYNTH_T4_RATIO, more)


def test_table2_gate():
    reference = (workloads.REF / "table2.csv").read_text()
    assert "1,2,rand,7/2,3.5000\n" in reference
    assert gates.check_table2(reference, reference) == []
    perturbed = reference.replace("1,2,rand,7/2,3.5000", "1,2,rand,4,4.0000")
    assert gates.check_table2(reference, perturbed)
    assert gates.check_table2(reference, reference + "2,1,det,3,3.0000\n")


@pytest.fixture(scope="module")
def trial():
    work = workloads.MeasureUniform(seed=7)
    base = work.make_input(0)
    return work, base, work.run(base)


def test_trial_gate_passes(trial):
    work, base, result = trial
    assert work.check(base, result) == []


def test_trial_gate_fails_on_perturbed_bound(trial):
    work, base, (sw, _mr) = trial
    trial_seed = measure._trial_seed(base, 0)
    xs = work.generator.realize(trial_seed=trial_seed)
    args = (work.sw_problem, work.sw, xs, trial_seed, sw)
    assert gates.check_trial(*args, bound=(6, 6)) == []
    assert gates.check_trial(*args, bound=(1, 0))


def test_trial_gate_fails_on_perturbed_record(trial):
    work, base, (sw, mr) = trial
    trial_seed = measure._trial_seed(base, 0)
    xs = work.generator.realize(trial_seed=trial_seed)
    wrong = dataclasses.replace(mr, ratio=mr.ratio + 1)
    assert gates.check_trial(work.mr_problem, work.mr, xs, trial_seed, wrong)
    broken = dataclasses.replace(sw, check=(6, 6, False))
    assert gates.check_trial(work.sw_problem, work.sw, xs, trial_seed, broken, (6, 6))


@pytest.fixture(scope="module")
def general():
    return workloads.EvalGeneral(seed=0)


@pytest.mark.parametrize("ratio", ["3", "7/2", "+inf"])
def test_eval_gate(general, ratio):
    bits = next(b for b, r in sorted(general.reference.items()) if r == ratio)
    verdict = general.run(bits)
    assert general.check(bits, verdict) == []
    graph = debruijn.build_graph_det(general.problem, general.policies[bits])
    assert gates.check_eval(verdict, "5", graph)
    lied = dataclasses.replace(verdict.best, ratio=Cost(5))
    assert gates.check_eval(dataclasses.replace(verdict, best=lied), "5", graph)


def test_histogram_gate(general):
    ratios = general.reference.values()
    assert gates.check_histogram(ratios, gates.EVAL_GENERAL_HISTOGRAM) == []
    perturbed = dict(gates.EVAL_GENERAL_HISTOGRAM, **{"3": 12, "+inf": 222})
    assert gates.check_histogram(ratios, perturbed)


def test_tracer_wraps_every_binding_and_restores():
    original = ratiocycle.core_max_ratio
    original_opt = problems.offline_opt
    assert synthesis.core_max_ratio is original
    problem = problems.bundled_problem("file-migration")
    table = gates.bits_table(gates.SYNTH_T4_TABLES["A1"])
    policy = policies.DeterministicPolicy(
        4, problem.input_alphabet, problem.output_alphabet, table
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ratiocycle.core_max_ratio is not original
        assert synthesis.core_max_ratio is ratiocycle.core_max_ratio
        assert measure.offline_opt.__wrapped__ is original_opt
        with tracer.root("bench.op"):
            ratiocycle.evaluate_policy(problem, policy)
        ratiocycle.evaluate_policy(problem, policy)  # inactive: not recorded
    finally:
        tracer.uninstall()
    assert ratiocycle.core_max_ratio is original
    assert synthesis.core_max_ratio is original
    assert measure.offline_opt is original_opt
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["bench.op", "ratiocycle.evaluate_policy"]
    assert names.count("bench.op") == 1
    assert "ratiocycle.core_max_ratio" in names
    assert all(span[1] <= span[2] for span in tracer.spans)


def test_self_time_subtracts_children():
    spans = [
        ["bench.op", 0.0, 10.0, -1, None],
        ["measure.measure_ratio", 1.0, 9.0, 0, None],
        ["problems.offline_opt", 2.0, 5.0, 1, 4],
        ["policies.run_policy", 5.0, 6.0, 1, 4],
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 3.0, 1.0]
    assert tracing.layer_self_seconds(spans) == {
        "bench": 2.0,
        "measure": 4.0,
        "problems": 3.0,
        "policies": 1.0,
    }


def test_speed_scale_uses_nearby_samples():
    sampler = speed.Sampler()
    sampler.samples = [(0.0, 0.002), (1.0, 0.001), (1.05, 0.001), (5.0, 0.004)]
    near, alone = sampler.scales([(0.95, 1.1), (3.0, 3.1)])
    assert near == speed.REFERENCE_S / 0.001
    assert alone == speed.REFERENCE_S / 0.0015  # no sample near: all of them
    assert sampler.spent(0, 0.9, 1.2) == 0.002
