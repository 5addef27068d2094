"""The benchmark's workloads: inputs, the per-graph pipeline, and its checks.

Every call into alcuin goes through an `ops` namespace built by `make_ops`.
Untraced, its attributes are the package functions themselves; traced, each
one is wrapped in a span named "<module>.<operation>", so the span name
tells which layer did the work.  A check that fails raises `Mismatch`;
`run.py` counts any exception from a pipeline as one failed operation.
"""

from __future__ import annotations

import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from types import ModuleType, SimpleNamespace
from typing import Any, Callable

# Seed of every G(n, p) input.  The workload seed picks nothing: a fresh
# sample per seed spread oracle12's throughput by about 7% (interquartile,
# six seeds), and even a seeded relabelling of a fixed sample moved its
# slowest graph by about 10%, since cover enumeration and the oracle's
# tie-breaks depend on vertex order.  A fixed set lets the run-to-run spread
# measure the program.
STRUCTURE_SEED = 14096949

CATALOG_COVER_LIMIT = 64


class Mismatch(Exception):
    """A computed answer disagrees with a check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Item:
    gid: int
    name: str
    graph: Any
    expect: Any = None


@dataclass
class Tally:
    """Work counters of one pass, read from the package's return values."""

    graphs: int = 0
    class_two: int = 0
    violations: int = 0
    covers_found: int = 0
    moves: int = 0


def make_ops(mods: dict[str, ModuleType], tracer: Any = None) -> SimpleNamespace:
    """Namespace of the package entry points the pipelines call.

    `mods` maps alcuin submodule names to modules.  `feasible` is never
    wrapped: it only feeds the `oracle.states_expanded` counter, outside any
    timed span.
    """
    generators, graph, cover = mods["generators"], mods["graph"], mods["cover"]
    classify, schedule, oracle = mods["classify"], mods["schedule"], mods["oracle"]
    io, cli = mods["io"], mods["cli"]

    def reject(g: Any, sched: Any) -> Any:
        return schedule.verify_schedule(g, schedule.Schedule(sched.capacity - 1, sched.moves))

    def analyze(g6: str, cover_limit: int) -> tuple[int, str]:
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(["analyze", g6, "--cover-limit", str(cover_limit)])
        return code, buf.getvalue()

    table: dict[str, tuple[str, Callable[..., Any]]] = {
        "graph_from_edge_mask": ("generators.graph_from_edge_mask", generators.graph_from_edge_mask),
        "random_graph": ("generators.random_graph", generators.random_graph),
        "star": ("generators.star", generators.star),
        "complete_bipartite": ("generators.complete_bipartite", generators.complete_bipartite),
        "cycle": ("generators.cycle", generators.cycle),
        "hypercube": ("generators.hypercube", generators.hypercube),
        "circulant": ("generators.circulant", generators.circulant),
        "overlapping_stars": ("generators.overlapping_stars", generators.overlapping_stars),
        "from_edges": ("graph.from_edges", graph.Graph.from_edges),
        "cartesian_product": ("graph.cartesian_product", graph.cartesian_product),
        "girth": ("graph.girth", graph.girth),
        "is_claw_free": ("graph.is_claw_free", graph.is_claw_free),
        "min_covers": ("cover.min_covers", cover.min_covers),
        "hall_strict": ("cover.hall_strict", cover.hall_strict),
        "classify": ("classify.classify", classify.classify),
        "exists_2x_witness": ("classify.exists_2x_witness", classify.exists_2x_witness),
        "synthesize": ("schedule.synthesize", schedule.synthesize),
        "verify_schedule": ("schedule.verify", schedule.verify_schedule),
        "reject": ("schedule.reject", reject),
        "render_trace": ("schedule.render_trace", schedule.render_trace),
        "alcuin_exact": ("oracle.alcuin_exact", oracle.alcuin_exact),
        "serialize_graph6": ("io.serialize_graph6", io.serialize_graph6),
        "parse_graph6": ("io.parse_graph6", io.parse_graph6),
        "report_json": ("io.report_json", io.report_json),
        "schedule_json": ("io.schedule_json", io.schedule_json),
        "parse_schedule_json": ("io.parse_schedule_json", io.parse_schedule_json),
        "analyze": ("cli.analyze", analyze),
    }
    ops = SimpleNamespace(feasible=oracle.feasible, CLASS_TWO=classify.CLASS_TWO)
    for attr, (span, fn) in table.items():
        setattr(ops, attr, fn if tracer is None else tracer.wrap(span, fn))
    return ops


def states_expanded(ops: Any, g: Any, cls: Any) -> tuple[int, int]:
    """(BFS states, states spent on an infeasible first try at b = beta).

    Replays alcuin_exact's two feasibility calls, with beta read back from
    the classification (c = beta for class one, beta + 1 for class two).
    """
    if g.n == 0:
        return 0, 0
    b = max(cls.c - (cls.verdict == ops.CLASS_TWO), 1)
    first = ops.feasible(g, b)
    if first.feasible:
        return first.states_expanded, 0
    second = ops.feasible(g, b + 1)
    return first.states_expanded + second.states_expanded, first.states_expanded


# --- sweep6: every labeled graph with n <= 6 through the lab pipeline -------

# max n -> (graphs, class-two graphs); violations are pinned at 0.
SWEEP_PINS = {6: (33868, 356), 4: (76, 8)}


def build_sweep(ops: Any, seed: int, smoke: bool) -> list[Item]:
    items = []
    for n in range(5 if smoke else 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            items.append(Item(len(items), f"n{n}:{mask}", ops.graph_from_edge_mask(n, mask)))
    return items


def run_sweep(ops: Any, item: Item, tally: Tally) -> Any:
    g = item.graph
    report = ops.min_covers(g)
    tally.covers_found += len(report.covers)
    cls = ops.classify(g)
    sched = ops.synthesize(g)
    check(ops.verify_schedule(g, sched) is None, "synthesized schedule fails to verify")
    check(sched.capacity == cls.c, "synthesized schedule capacity differs from c")
    tally.moves += len(sched.moves)
    c, _ = ops.alcuin_exact(g, beta=report.beta)
    check(c == cls.c, f"oracle c={c} disagrees with classify c={cls.c}")
    check(report.beta <= c <= report.beta + 1, "c outside [beta, beta + 1]")
    if cls.verdict == ops.CLASS_TWO:
        tally.class_two += 1
        cover = report.covers[0]
        broken = [
            not ops.hall_strict(g, cover),
            ops.exists_2x_witness(g, cover) is not None,
            report.beta >= 1 and ops.is_claw_free(g),
        ]
        if report.beta >= 2:
            gi = ops.girth(g)
            broken.append(gi is None or gi > 4)
        tally.violations += sum(broken)
        check(not any(broken), "class-two graph breaks a necessary condition")
    return cls


def sweep_totals(tally: Tally, smoke: bool) -> list[str]:
    graphs, class_two = SWEEP_PINS[4 if smoke else 6]
    found = (tally.graphs, tally.class_two, tally.violations)
    return [] if found == (graphs, class_two, 0) else [f"sweep totals {found} != {(graphs, class_two, 0)}"]


# --- oracle12: n = 10..12 graphs where the BFS oracle dominates -------------

P_LEVELS = 8


def build_oracle(ops: Any, seed: int, smoke: bool) -> list[Item]:
    structure = random.Random(STRUCTURE_SEED)
    sizes = (10,) if smoke else (10, 11, 12)
    count = 8 if smoke else 240
    shapes = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        p = 0.25 + 0.25 * ((i // len(sizes)) % P_LEVELS + 0.5) / P_LEVELS
        shapes.append((f"gnp{n}:{p:.4f}:{i}", ops.random_graph(n, p, structure.getrandbits(64)), None))
    for n in sizes:
        shapes.append((f"star{n - 1}", ops.star(n - 1), ops.CLASS_TWO))
        shapes.append((f"K2,{n - 2}", ops.complete_bipartite(2, n - 2), ops.CLASS_TWO))
        shapes.append((f"K3,{n - 3}", ops.complete_bipartite(3, n - 3), ops.CLASS_TWO))
    return [Item(i, name, g, verdict) for i, (name, g, verdict) in enumerate(shapes)]


def run_oracle(ops: Any, item: Item, tally: Tally) -> Any:
    g = item.graph
    cls = ops.classify(g)
    check(item.expect is None or cls.verdict == item.expect, f"verdict {cls.verdict} != {item.expect}")
    tally.class_two += cls.verdict == ops.CLASS_TWO
    sched = ops.synthesize(g)
    check(ops.verify_schedule(g, sched) is None, "synthesized schedule fails to verify")
    check(sched.capacity == cls.c, "synthesized schedule capacity differs from c")
    tally.moves += len(sched.moves)
    c, shortest = ops.alcuin_exact(g)
    check(c == cls.c, f"oracle c={c} disagrees with classify c={cls.c}")
    check(ops.verify_schedule(g, shortest) is None, "shortest schedule fails to verify")
    check(shortest.capacity == c, "shortest schedule capacity differs from c")
    return cls


# --- catalog: named and adversarial graphs above the oracle's budget --------

def _matching(ops: Any, m: int) -> Any:
    return ops.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


# name -> (constructor, pinned (verdict, c, number of minimum covers))
CATALOG = {
    "Q5": (lambda ops: ops.hypercube(5), ("one", 16, 2)),
    "matching14": (lambda ops: _matching(ops, 14), ("one", 14, 16384)),
    "matching16": (lambda ops: _matching(ops, 16), ("one", 16, 65536)),
    "K9,19": (lambda ops: ops.complete_bipartite(9, 19), ("two", 10, 1)),
    "K11,23": (lambda ops: ops.complete_bipartite(11, 23), ("two", 12, 1)),
    "star30": (lambda ops: ops.star(30), ("two", 2, 1)),
    "overlapping_stars10": (lambda ops: ops.overlapping_stars(10), ("one", 2, 1)),
    "circulant24:1,5": (lambda ops: ops.circulant(24, [1, 5]), ("one", 12, 2)),
    "C4xC5": (lambda ops: ops.cartesian_product(ops.cycle(4), ops.cycle(5)), ("one", 12, 30)),
}
SMOKE_CATALOG = ("K9,19", "star30", "overlapping_stars10", "circulant24:1,5", "C4xC5")
# (n, p) of the G(n, p) graphs; dense enough that cover enumeration stays in
# the tens of milliseconds.
CATALOG_GNP = ((24, 0.3), (30, 0.3), (36, 0.35), (40, 0.4))


def build_catalog(ops: Any, seed: int, smoke: bool) -> list[Item]:
    items = []
    for name, (build, pin) in CATALOG.items():
        if not smoke or name in SMOKE_CATALOG:
            items.append(Item(len(items), name, build(ops), pin))
    structure = random.Random(STRUCTURE_SEED)
    for n, p in CATALOG_GNP[:1] if smoke else CATALOG_GNP:
        items.append(Item(len(items), f"gnp{n}:{p}", ops.random_graph(n, p, structure.getrandbits(64))))
    return items


def run_catalog(ops: Any, item: Item, tally: Tally) -> Any:
    g = item.graph
    g6 = ops.serialize_graph6(g)
    check(ops.parse_graph6(g6) == g, "graph6 round trip changed the graph")
    report = ops.min_covers(g, CATALOG_COVER_LIMIT)
    tally.covers_found += len(report.covers)
    check(report.complete, "cover enumeration incomplete")
    cls = ops.classify(g, CATALOG_COVER_LIMIT)
    tally.class_two += cls.verdict == ops.CLASS_TWO
    found = (cls.verdict, cls.c, len(report.covers))
    check(item.expect is None or found == item.expect, f"(verdict, c, covers) {found} != {item.expect}")
    doc = ops.report_json(g, cls, report)
    code, out = ops.analyze(g6, CATALOG_COVER_LIMIT)
    check(code == 0 and out == doc + "\n", "cli analyze output differs from report_json")
    sched = ops.synthesize(g, CATALOG_COVER_LIMIT)
    check(ops.verify_schedule(g, sched) is None, "synthesized schedule fails to verify")
    check(sched.capacity == cls.c, "synthesized schedule capacity differs from c")
    tally.moves += len(sched.moves)
    check(ops.parse_schedule_json(ops.schedule_json(sched)) == sched, "schedule JSON round trip")
    check(ops.reject(g, sched) is not None, "verify accepted the schedule at capacity c - 1")
    rows = ops.render_trace(g, sched).split("\n")
    check(len(rows) == len(sched.moves), "trace has one row per move")
    return cls


@dataclass(frozen=True)
class Workload:
    build: Callable[[Any, int, bool], list[Item]]
    run: Callable[[Any, Item, Tally], Any]
    totals: Callable[[Tally, bool], list[str]] | None  # pinned per-pass totals
    uses_oracle: bool


WORKLOADS = {
    "sweep6": Workload(build_sweep, run_sweep, sweep_totals, True),
    "oracle12": Workload(build_oracle, run_oracle, None, True),
    "catalog": Workload(build_catalog, run_catalog, None, False),
}
