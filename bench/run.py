"""tlsynth benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload synth-t4 --seed 1 --seconds 16 --trace 0

With `--trace 0` it times the workload's operations, untraced, until they
have taken `--seconds` of work, and reports the end-to-end metrics named
in BENCHMARK.json. With `--trace 1` it spends half of `--seconds` untraced
and half traced, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced). Every answer is checked; a failed gate
or an exception counts as a failed operation. The last line of standard
output is the JSON result; the lines before it describe the machine and,
for a traced run, the layer table. The full record, and the spans of a
traced run, go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import speed
import srcpath
import tracing
from workloads import WORKLOADS

BENCH = srcpath.ROOT / "bench"
OUT = srcpath.ROOT / ".bench_out"
SETUP_REPEATS = 5  # timed fresh-interpreter set-ups per run, after one warm-up
MIN_OPS = 2  # an untraced run takes a median of at least two operations
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit():
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = srcpath.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_setups(workload, seed):
    """Median wall time from a fresh interpreter to a ready workload.

    Not scaled by the speed probe: set-up is mostly interpreter start and
    imports, whose time the probe's swings do not follow.
    """
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH), workload, str(seed)],
            cwd=srcpath.ROOT,
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        if attempt:  # the first one may still be writing bytecode caches
            times.append(time.perf_counter() - started)
    return statistics.median(times)


class Phase:
    """Operations, each followed by its answer check, run back to back
    until `seconds` have passed and at least `min_ops` are done.

    With a speed sampler, `scaled` holds each operation's time at the
    reference speed, scaled by the samples taken during and around it.
    """

    def __init__(self, workload, seconds, min_ops, first_index, tracer=None, sampler=None):
        self.times = []  # seconds per operation, sampler interruptions excluded
        self.scaled = []
        self.errors = []  # (operation index, reason)
        self.failed = 0
        index = first_index
        spans = []  # (start, end) of each operation
        gc.collect()
        deadline = time.perf_counter() + seconds
        done = False
        while not done:
            inp = workload.make_input(index)
            result, reasons = None, []
            before = len(sampler.samples) if sampler else 0
            with tracer.root("bench.op") if tracer else nullcontext():
                started = time.perf_counter()
                try:
                    result = workload.run(inp)
                except Exception as exc:  # a crash is a failed operation
                    reasons = [f"{type(exc).__name__}: {exc}"]
                ended = time.perf_counter()
            spans.append((started, ended))
            elapsed = ended - started
            if sampler:
                elapsed -= sampler.spent(before, started, ended)
            self.times.append(elapsed)
            if not reasons:
                try:
                    reasons = workload.check(inp, result)
                except Exception as exc:
                    reasons = [f"check raised {type(exc).__name__}: {exc}"]
            if reasons:
                self.failed += 1
                self.errors.extend((index, reason) for reason in reasons)
            index += 1
            done = len(self.times) >= min_ops and time.perf_counter() >= deadline
        if sampler:
            self.scaled = [t * k for t, k in zip(self.times, sampler.scales(spans))]

    @property
    def attempted(self):
        return len(self.times)


def untraced_run(args):
    setup_s = time_setups(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    with speed.Sampler() as sampler:
        phase = Phase(workload, args.seconds, MIN_OPS, 0, sampler=sampler)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(phase.scaled) * 1e3, "ms"),
        "op_ms_p95": (tracing.percentile(phase.scaled, 95) * 1e3, "ms"),
        "ops_per_s": (len(phase.scaled) / sum(phase.scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "op_ms_p50": statistics.median(phase.times) * 1e3,
        "op_ms_p95": tracing.percentile(phase.times, 95) * 1e3,
        "ops_per_s": len(phase.times) / sum(phase.times),
        "speed_samples": len(sampler.samples),
        "kernel_ms_p50": statistics.median(took for _at, took in sampler.samples) * 1e3,
        "op_ms": [t * 1e3 for t in phase.times],
        "scaled_op_ms": [t * 1e3 for t in phase.scaled],
    }
    return [phase], metrics, {"raw": raw}


def traced_run(args):
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        with setup_tracer.root("bench.setup"):
            workload = WORKLOADS[args.workload](args.seed)
    finally:
        setup_tracer.uninstall()
    plain = Phase(workload, args.seconds / 2, 1, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Phase(workload, args.seconds / 2, 1, plain.attempted, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(setup_tracer.spans, tracer.spans)
    untraced_p50 = statistics.median(plain.times)
    traced_p50 = statistics.median(traced.times)
    metrics["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1, "ratio")
    metrics["trace.spans_per_op"] = (len(tracer.spans) / traced.attempted, "count/op")
    rows = tracing.layer_table(tracer.spans)
    extra = {
        "untraced_op_ms_p50": untraced_p50 * 1e3,
        "traced_op_ms_p50": traced_p50 * 1e3,
        "layer_table": [
            {"layer": layer, "self_s_per_op": own, "share": share} for layer, own, share in rows
        ],
        "spans_file": str(_write_spans(args, setup_tracer.spans, tracer.spans)),
    }
    return [plain, traced], metrics, extra


def _write_spans(args, setup_spans, op_spans):
    """Each list's parent fields index into that same list (-1: a root)."""
    path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    with open(path, "w") as out:
        fields = ["name", "start", "end", "parent", "info"]
        json.dump({"fields": fields, "setup": setup_spans, "ops": op_spans}, out)
    return path.relative_to(srcpath.ROOT)


def expected_metrics(trace):
    with open(srcpath.ROOT / "BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    phases, metrics, extra = (traced_run if args.trace else untraced_run)(args)
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if got != expected_metrics(args.trace):
        raise SystemExit(f"bench: metrics {got} disagree with BENCHMARK.json")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        env=env,
        fail_frac=failed / attempted,
        op_samples=[p.attempted for p in phases],
        errors=errors[:20],
        **extra,
        result=result,
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(f"ops {attempted} failed {failed} fail_frac {failed / attempted:.6g}")
    for index, reason in errors[:5]:
        print(f"FAILED op {index}: {reason}")
    if "raw" in extra:
        summary = {k: v for k, v in extra["raw"].items() if not isinstance(v, list)}
        print("raw " + json.dumps(summary))
    for row in extra.get("layer_table", ()):
        print(f"layer {row['layer']:<10} {row['self_s_per_op']:.6f} s/op {row['share']:7.2%}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
