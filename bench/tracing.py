"""Span tracing from outside the library, and the per-layer metrics.

A `Tracer` swaps the public entry points of each tlsynth module for
wrappers that record one span per call: name, start, end, parent span and
a few facts read off the arguments or the result. A function imported by
name into another module (for example `synthesis` binds `core_max_ratio`,
`cached_skeleton` and `evaluate_policy`, and `measure` binds
`offline_opt`) is replaced in every namespace that binds it. Spans stay in
memory until the benchmark writes them out at exit.

Work inside a module that never crosses one of these entry points cannot
be seen from here: Bellman-Ford relaxation rounds, for one, need counters
inside `ratiocycle`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

import srcpath  # noqa: F401  (must precede the tlsynth imports)


def _x_len(args, result):
    return len(args[1])


ENTRY_POINTS = {
    "synthesis": {
        "synthesize_det": lambda args, r: (
            r.candidates_examined,
            r.pruned_short_cycle,
            r.full_evaluations,
        ),
        "synthesize_rand": None,
    },
    "ratiocycle": {
        "core_max_ratio": lambda args, r: (r[0], r[3]),  # kind, iterations
        "max_ratio_cycle": None,
        "evaluate_policy": None,
    },
    "debruijn": {
        "cached_skeleton": None,
        "build_skeleton": None,
        "build_graph_det": lambda args, r: len(r.edges),
        "build_graph_rand": lambda args, r: len(r.edges),
    },
    "problems": {
        "bundled_problem": None,
        "offline_opt": _x_len,
        "LocalProblem.evaluate": _x_len,
    },
    "policies": {
        "run_policy": _x_len,
        "RandomizedPolicy.run": _x_len,
        "compile_to_table": None,
        "sample_mixed_resetting": None,
    },
    "generators": {"GeneratorSpec.realize": None},
    "measure": {"measure_ratio": None, "emit_table2": None},
}
LAYERS = tuple(ENTRY_POINTS)


class Tracer:
    """Records spans [name, start, end, parent, info] while `active`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self._patches = []  # (owner, attribute, original), in install order

    def install(self):
        layers = {layer: importlib.import_module(f"tlsynth.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "tlsynth"]
        for layer, entries in ENTRY_POINTS.items():
            module = layers[layer]
            for entry, extract in entries.items():
                name = f"{layer}.{entry}"
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(name, original, extract))
                    continue
                original = getattr(module, entry)
                wrapper = self._wrap(name, original, extract)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extract is not None:
                span[4] = extract(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-level span (`bench.setup`, `bench.op`) with tracing on."""
        self.active = True
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.active = False


def _duration(span):
    return span[2] - span[1]


def self_times(spans):
    """Per span: its duration minus the time its child spans cover.

    One thread runs everything, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += _duration(span)
    return [_duration(span) - own for span, own in zip(spans, covered)]


def layer_self_seconds(spans):
    """Total self time per layer (`bench` is the benchmark's own code)."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def percentile(values, q):
    """The q-th percentile (inclusive interpolation) of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(setup_spans, op_spans):
    """Every per-layer metric, per operation of the traced phase.

    Metrics of a layer that the workload never reaches read 0.
    """
    ops = sum(1 for s in op_spans if s[0] == "bench.op")
    by_name = {}
    for span in op_spans:
        by_name.setdefault(span[0], []).append(span)

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def seconds(spans):
        return sum(map(_duration, spans))

    def per_op(value):
        return value / ops if ops else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    core = spans_of("ratiocycle.core_max_ratio")
    core_us = sorted(_duration(s) * 1e6 for s in core)
    kinds = [s[4][0] for s in core]
    det = [s[4] for s in spans_of("synthesis.synthesize_det")]
    candidates = sum(d[0] for d in det)
    pruned = sum(d[1] for d in det)
    rand_ids = {i for i, s in enumerate(op_spans) if s[0] == "synthesis.synthesize_rand"}
    graphs = spans_of("debruijn.build_graph_det", "debruijn.build_graph_rand")
    skeletons = spans_of("debruijn.build_skeleton")
    setup_skeletons = [s for s in setup_spans if s[0] == "debruijn.build_skeleton"]
    opts = spans_of("problems.offline_opt")
    evals = spans_of("problems.LocalProblem.evaluate")
    runs = spans_of("policies.run_policy", "policies.RandomizedPolicy.run")
    selfs = layer_self_seconds(op_spans)

    def per_step(spans):
        steps = sum(s[4] for s in spans)
        return ratio(seconds(spans) * 1e6, steps)

    out = {
        "ratiocycle.core_calls": (per_op(len(core)), "count/op"),
        "ratiocycle.core_s": (per_op(seconds(core)), "s/op"),
        "ratiocycle.core_us_p50": (percentile(core_us, 50) if core_us else 0.0, "us"),
        "ratiocycle.core_us_p95": (percentile(core_us, 95) if core_us else 0.0, "us"),
        "ratiocycle.param_iters": (per_op(sum(s[4][1] for s in core)), "count/op"),
        "ratiocycle.aborted_frac": (ratio(kinds.count("aborted"), len(kinds)), "ratio"),
        "ratiocycle.infinite_frac": (ratio(kinds.count("infinite"), len(kinds)), "ratio"),
        "ratiocycle.mrc_calls": (per_op(len(spans_of("ratiocycle.max_ratio_cycle"))), "count/op"),
        "ratiocycle.mrc_s": (per_op(seconds(spans_of("ratiocycle.max_ratio_cycle"))), "s/op"),
        "synthesis.candidates": (per_op(candidates), "count/op"),
        "synthesis.pruned": (per_op(pruned), "count/op"),
        "synthesis.full_evals": (per_op(sum(d[2] for d in det)), "count/op"),
        "synthesis.prune_frac": (ratio(pruned, candidates), "ratio"),
        "synthesis.rand_evals": (per_op(sum(s[3] in rand_ids for s in core)), "count/op"),
        "debruijn.graph_builds": (per_op(len(graphs)), "count/op"),
        "debruijn.graph_s": (per_op(seconds(graphs)), "s/op"),
        "debruijn.graph_edges": (per_op(sum(s[4] for s in graphs)), "count/op"),
        "debruijn.skeleton_builds": (per_op(len(skeletons)), "count/op"),
        "debruijn.skeleton_s": (per_op(seconds(skeletons)), "s/op"),
        "debruijn.setup_skeleton_builds": (len(setup_skeletons), "count"),
        "debruijn.setup_skeleton_s": (seconds(setup_skeletons), "s"),
        "problems.opt_calls": (per_op(len(opts)), "count/op"),
        "problems.opt_s": (per_op(seconds(opts)), "s/op"),
        "problems.opt_us_per_step": (per_step(opts), "us/step"),
        "problems.eval_s": (per_op(seconds(evals)), "s/op"),
        "problems.eval_us_per_step": (per_step(evals), "us/step"),
        "policies.run_s": (per_op(seconds(runs)), "s/op"),
        "policies.run_us_per_step": (per_step(runs), "us/step"),
        "generators.realize_s": (per_op(seconds(spans_of("generators.GeneratorSpec.realize"))), "s/op"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_op(selfs.get(layer, 0.0)), "s/op")
    return out


def layer_table(op_spans):
    """Rows (layer, self seconds per op, share of op time), largest first."""
    ops = [s for s in op_spans if s[0] == "bench.op"]
    total = sum(map(_duration, ops))
    selfs = layer_self_seconds(op_spans)
    rows = [
        (layer, selfs.get(layer, 0.0) / len(ops), selfs.get(layer, 0.0) / total)
        for layer in LAYERS + ("bench",)
    ]
    return sorted(rows, key=lambda row: -row[1])
