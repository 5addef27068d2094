"""alcuin benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload sweep6 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread.  Set-up imports the package from ../src and builds
the workload's inputs.  The inputs then go through the workload's checked
pipeline in whole passes until --seconds is spent (at least MIN_PASSES),
with a fresh set-up before each pass; `setup_s` is the median of those
set-ups.  Each graph's time is
the fastest of its passes, since interference from other work on the
machine only ever adds time, and the timing metrics are taken over those
per-graph times.  With --trace 1 the run makes one traced pass between
two untraced ones instead and reports per-layer self time, shares and work
counters; the spans are written to .bench_out/.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
README.md in this directory for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("graph", "generators", "cover", "classify", "schedule", "oracle", "io", "cli")
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "graph_p50_ms": "ms",
    "graph_p95_ms": "ms",
    "graph_max_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer time metric -> span names it sums; a trailing "." matches a prefix.
LAYER_US = {
    "generators.build_us": ("generators.",),
    "graph.checks_us": ("graph.girth", "graph.is_claw_free"),
    "cover.min_covers_us": ("cover.min_covers",),
    "cover.hall_strict_us": ("cover.hall_strict",),
    "classify.us": ("classify.classify",),
    "schedule.synthesize_us": ("schedule.synthesize",),
    "schedule.verify_us": ("schedule.verify",),
    "schedule.reject_us": ("schedule.reject",),
    "schedule.render_us": ("schedule.render_trace",),
    "oracle.exact_us": ("oracle.alcuin_exact",),
    "io.graph6_us": ("io.serialize_graph6", "io.parse_graph6"),
    "io.report_json_us": ("io.report_json",),
    "io.schedule_roundtrip_us": ("io.schedule_json", "io.parse_schedule_json"),
    "cli.analyze_us": ("cli.analyze",),
}
LAYERS = MODULES + ("bench",)
COUNTERS = (
    "cover.covers_found",
    "classify.class_two",
    "schedule.moves",
    "oracle.states_expanded",
)

PER_LAYER_UNITS = {
    **{name: "us" for name in LAYER_US},
    **{f"{layer}.share": "frac" for layer in LAYERS},
    **{name: "count" for name in COUNTERS},
    "oracle.infeasible_first_frac": "frac",
    "trace.overhead_frac": "frac",
}


def load_package() -> dict[str, Any]:
    """Import (or re-import) every alcuin module from this checkout's src/."""
    for name in [m for m in sys.modules if m == "alcuin" or m.startswith("alcuin.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"alcuin.{m}") for m in MODULES}
    origin = Path(mods["graph"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"alcuin was imported from {origin}, not from {SRC}")
    return mods


@dataclass
class Pass:
    times: list[float]
    tally: workloads.Tally
    results: list[Any]
    failures: list[str]


def _no_span(name: str, graph: int) -> nullcontext[None]:
    return nullcontext()


def run_pass(
    wl: workloads.Workload,
    ops: Any,
    items: list[workloads.Item],
    smoke: bool,
    span: Callable[[str, int], Any] = _no_span,
) -> Pass:
    """Every item once through the pipeline; each exception is one failure."""
    tally = workloads.Tally()
    times, results, failures = [], [], []
    clock = time.perf_counter
    for item in items:
        start = clock()
        try:
            with span("bench.graph", item.gid):
                results.append(wl.run(ops, item, tally))
        except Exception as exc:  # a failed operation; the run goes on
            results.append(None)
            failures.append(f"{item.name}: {exc!r}")
        times.append(clock() - start)
        tally.graphs += 1
    if wl.totals is not None:
        failures += wl.totals(tally, smoke)
    return Pass(times, tally, results, failures)


def checks_per_pass(wl: workloads.Workload, items: list[workloads.Item]) -> int:
    """Operations a pass attempts: one per graph, plus its pinned totals."""
    return len(items) + (wl.totals is not None)


def _counters_repeat(first: workloads.Tally, later: workloads.Tally) -> list[str]:
    return [] if later == first else [f"work counters changed between passes: {later} != {first}"]


def end_to_end(setup_times: list[float], per_graph: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "graphs_per_s": len(per_graph) / sum(per_graph),
        "graph_p50_ms": statistics.median(per_graph) * 1e3,
        "graph_p95_ms": statistics.quantiles(per_graph, n=20, method="inclusive")[18] * 1e3,
        "graph_max_s": max(per_graph),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(
    spans: list[tracing.Span], tally: workloads.Tally, states: int, wasted: int, overhead: float
) -> dict[str, float]:
    selfs = tracing.self_times(spans)

    def matching(patterns: tuple[str, ...]) -> list[tuple[int, int]]:
        return [
            v
            for name, v in selfs.items()
            if any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)
        ]

    metrics: dict[str, float] = {}
    for metric, patterns in LAYER_US.items():
        found = matching(patterns)
        calls = sum(count for _, count in found)
        metrics[metric] = sum(ns for ns, _ in found) / calls / 1e3 if calls else 0.0
    wall = tracing.root_ns(spans)
    for layer in LAYERS:
        metrics[f"{layer}.share"] = sum(ns for ns, _ in matching((layer + ".",))) / wall
    metrics["cover.covers_found"] = tally.covers_found
    metrics["classify.class_two"] = tally.class_two
    metrics["schedule.moves"] = tally.moves
    metrics["oracle.states_expanded"] = states
    metrics["oracle.infeasible_first_frac"] = wasted / states if states else 0.0
    metrics["trace.overhead_frac"] = overhead
    return metrics


def run_untraced(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict[str, float], int, list[str]]:
    wl = workloads.WORKLOADS[name]
    load_package()  # compiles the bytecode cache once; no later import pays for it
    setup_times: list[float] = []
    failures: list[str] = []
    best: list[float] = []
    first: workloads.Tally | None = None
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        # Each pass gets a fresh set-up, so the set-up samples are spread over
        # the run and one slow spell of the machine does not set their median.
        gc.unfreeze()
        ops = items = None  # free the last copy first, so peak RSS holds one
        gc.collect()
        began = time.perf_counter()
        ops = workloads.make_ops(load_package())
        items = wl.build(ops, seed, smoke)
        setup_times.append(time.perf_counter() - began)
        gc.collect()
        gc.freeze()  # the inputs live all pass; keep them out of every collection
        done = run_pass(wl, ops, items, smoke)
        failures += done.failures
        if first is None:
            first, best = done.tally, done.times
        else:
            failures += _counters_repeat(first, done.tally)
            best = list(map(min, best, done.times))
        passes += 1
    # Every pass after the first also compares its counters with the first's.
    attempted = passes * checks_per_pass(wl, items) + passes - 1
    return end_to_end(setup_times, best), attempted, failures


def run_traced(name: str, seed: int, smoke: bool) -> tuple[dict[str, float], int, list[str]]:
    wl = workloads.WORKLOADS[name]
    mods = load_package()
    tracer = tracing.Tracer()
    plain, traced = workloads.make_ops(mods), workloads.make_ops(mods, tracer)
    with tracer.span("bench.setup"):
        items = wl.build(traced, seed, smoke)
    gc.collect()
    gc.freeze()
    # Untraced passes on both sides of the traced one, so a machine that
    # speeds up or slows down during the run does not show up as overhead.
    before = run_pass(wl, plain, items, smoke)
    traced_pass = run_pass(wl, traced, items, smoke, tracer.span)
    after = run_pass(wl, plain, items, smoke)
    overhead = 2 * sum(traced_pass.times) / (sum(before.times) + sum(after.times)) - 1
    states = wasted = 0
    if wl.uses_oracle:
        for item, cls in zip(items, traced_pass.results):
            if cls is not None:
                s, w = workloads.states_expanded(plain, item.graph, cls)
                states, wasted = states + s, wasted + w
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.tsv"
    tracer.write(str(path))
    print(f"spans: {path}", file=sys.stderr)
    failures = before.failures + traced_pass.failures + after.failures
    failures += _counters_repeat(before.tally, traced_pass.tally)
    failures += _counters_repeat(before.tally, after.tally)
    metrics = per_layer(tracer.closed(), traced_pass.tally, states, wasted, overhead)
    return metrics, 3 * checks_per_pass(wl, items) + 2, failures


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict[str, Any]:
    if trace:
        metrics, attempted, failures = run_traced(name, seed, smoke)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, failures = run_untraced(name, seed, seconds, smoke)
        units = END_TO_END_UNITS
    for line in failures[:20]:
        print(f"FAILED {name}: {line}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def run_all(args: argparse.Namespace) -> dict[str, Any]:
    """Each workload in a fresh child process, so peak RSS is its own."""
    out = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            results = run_all(args)
        else:
            results = {args.workload: run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)}
    except ImportError as exc:
        print(f"error: cannot import alcuin from {SRC}: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric:30s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:9s} {'failed_frac':30s} {result['failed'] / result['attempted']:14.6g} frac")
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
