"""Synthesis and exact competitive analysis of time-local online algorithms.

The package provides:

- rule-based local optimization problems with an exact offline optimum
  (`tlsynth.problems`),
- time-local policies, both table-driven and rule/clock-driven
  (`tlsynth.policies`),
- the dual-weighted transition graph whose cycles carry adversary cost w
  and algorithm cost q (`tlsynth.debruijn`),
- the exact maximum cost-ratio cycle solver that turns such a graph into
  a competitive ratio (`tlsynth.ratiocycle`),
- exact policy synthesis by branch and bound (`tlsynth.synthesis`),
- input generators, empirical measurement and the `tlsynth` CLI
  (`tlsynth.generators`, `tlsynth.measure`, `tlsynth.cli`).
"""

from .exact import Cost, NEG_INF, POS_INF
from .problems import LocalProblem, bundled_problem, load_problem, offline_opt

__all__ = [
    "Cost",
    "NEG_INF",
    "POS_INF",
    "LocalProblem",
    "bundled_problem",
    "load_problem",
    "offline_opt",
]

__version__ = "0.1.0"
