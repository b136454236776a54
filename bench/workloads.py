"""The four benchmark workloads.

A workload object is built by its constructor (that is the set-up the
benchmark times) and then driven one operation at a time:

- `make_input(i)` derives the i-th operation's input from the seed
  (untimed);
- `run(inp)` is the timed operation, one or two public tlsynth calls;
- `check(inp, result)` returns the list of failed answer gates (untimed).

Every tlsynth function is reached through its module attribute, so that a
traced run, which swaps module attributes for wrappers, sees each call.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import gates
import srcpath
from tlsynth import debruijn, generators, measure, policies, problems, ratiocycle, synthesis

REF = srcpath.ROOT / "bench" / "ref"


class SynthT4:
    """The paper's result: all optimal horizon-4 tables for alpha = 1."""

    def __init__(self, seed):
        self.problem = problems.bundled_problem("file-migration", {"alpha": "1"})
        debruijn.cached_skeleton(self.problem, 4)
        self.config = synthesis.SynthesisConfig(horizon=4, collect_all_optimal=True)

    def make_input(self, i):
        return None

    def run(self, inp):
        return synthesis.synthesize_det(self.problem, self.config)

    def check(self, inp, result):
        return gates.check_synth(result, gates.SYNTH_T4_RATIO, gates.SYNTH_T4_TABLES)


class Table2:
    """Criterion-1 alphas, T in {1, 2}, deterministic and randomized."""

    ALPHAS = ("1/10", "1/5", "3/10", "1/2", "1")
    HORIZONS = (1, 2)

    def __init__(self, seed):
        self.problem = problems.bundled_problem("file-migration")
        self.reference = (REF / "table2.csv").read_text()

    def make_input(self, i):
        return None

    def run(self, inp):
        return measure.emit_table2(
            self.problem,
            self.ALPHAS,
            self.HORIZONS,
            randomized=True,
            config_kwargs={"grid_step": Fraction(1, 20)},
        )

    def check(self, inp, result):
        return gates.check_table2(result, self.reference)


class MeasureUniform:
    """One trial: a seeded uniform sequence measured under two policies.

    Sliding window (alpha = 1, T = 6) is table-driven and carries the
    guarantee cost <= 6*OPT + 6; mixed resetting (alpha = 5) is
    rule-driven and randomized.
    """

    GENERATOR = "uniform:n=500,p=1/2"
    SW_BOUND = (6, 6)

    def __init__(self, seed):
        self.sw_problem = problems.bundled_problem("file-migration", {"alpha": "1"})
        self.mr_problem = problems.bundled_problem("file-migration", {"alpha": "5"})
        self.sw = measure.sliding_window_algorithm(6, 1)
        self.mr = measure.mixed_resetting_algorithm(measure.mixed_resetting_best_horizon(5))
        self.generator = generators.GeneratorSpec.parse(self.GENERATOR)
        self.rng = random.Random(seed)

    def make_input(self, i):
        return self.rng.getrandbits(32)

    def run(self, base_seed):
        sw = measure.measure_ratio(
            self.sw_problem, self.sw, self.generator, 1, base_seed, self.SW_BOUND
        )
        mr = measure.measure_ratio(self.mr_problem, self.mr, self.generator, 1, base_seed)
        return sw, mr

    def check(self, base_seed, result):
        # measure_ratio derives the trial seed from the base seed; the
        # gate re-derives it to rebuild the very same input sequence
        trial_seed = measure._trial_seed(base_seed, 0)
        xs = self.generator.realize(trial_seed=trial_seed)
        sw, mr = result
        return gates.check_trial(
            self.sw_problem, self.sw, xs, trial_seed, sw, self.SW_BOUND
        ) + gates.check_trial(self.mr_problem, self.mr, xs, trial_seed, mr)


class EvalGeneral:
    """Every deterministic min-dom-set table at T = 3 (r = 2, 128 vertices),
    in a seeded order, one evaluate_policy per operation."""

    HORIZON = 3

    def __init__(self, seed):
        self.problem = problems.bundled_problem("min-dom-set")
        self.reference = json.loads((REF / "min-dom-set-T3.json").read_text())
        errors = gates.check_histogram(self.reference.values(), gates.EVAL_GENERAL_HISTOGRAM)
        if errors:
            raise ValueError(f"bad reference {REF / 'min-dom-set-T3.json'}: {errors}")
        self.policies = {
            bits: policies.DeterministicPolicy(
                self.HORIZON,
                self.problem.input_alphabet,
                self.problem.output_alphabet,
                gates.bits_table(bits),
            )
            for bits in self.reference
        }
        self.order = sorted(self.reference)
        random.Random(seed).shuffle(self.order)
        self.verdicts = {}  # (bits, witness, ratio, classification) -> errors

    def make_input(self, i):
        return self.order[i % len(self.order)]

    def run(self, bits):
        return ratiocycle.evaluate_policy(self.problem, self.policies[bits])

    def check(self, bits, verdict):
        # the witness check needs the graph; a repeated verdict gives the
        # same answer, so each distinct one is checked once
        key = (bits, verdict.best.edge_ids, str(verdict.best.ratio), verdict.classification)
        if key not in self.verdicts:
            graph = debruijn.build_graph_det(self.problem, self.policies[bits])
            self.verdicts[key] = gates.check_eval(verdict, self.reference[bits], graph)
        return self.verdicts[key]


WORKLOADS = {
    "synth-t4": SynthT4,
    "table2": Table2,
    "measure-uniform": MeasureUniform,
    "eval-general": EvalGeneral,
}
