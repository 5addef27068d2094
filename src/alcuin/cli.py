"""Command-line front end.

Subcommands: analyze, schedule, verify, survey, generate.  Graph input is
unified: a positional graph6 string, --edge-list for the edge-list format,
or --gen with a family spec.  Exit codes are a stable contract: 0 success,
1 survey falsification, 2 parse/spec error, 3 budget exceeded, 4 infeasible
capacity, 5 invalid schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from . import generators, io, oracle
from .classify import CLASS_TWO, classify_covers, exists_2x_witness
from .cover import DEFAULT_ENUMERATION_LIMIT, hall_strict, min_covers
from .errors import BudgetExceededError
from .graph import Graph, bits, cartesian_product, girth, is_claw_free
from .schedule import Schedule, render_trace, synthesize, verify_schedule

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INFEASIBLE = 4
EXIT_INVALID_SCHEDULE = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _gen_spec(spec: str) -> Graph:
    name, _, rest = spec.partition(":")
    args = rest.split(",") if rest else []
    try:
        if name == "star":
            return generators.star(int(args[0]))
        if name == "path":
            return generators.path(int(args[0]))
        if name == "cycle":
            return generators.cycle(int(args[0]))
        if name == "complete":
            return generators.complete(int(args[0]))
        if name == "complete-bipartite":
            return generators.complete_bipartite(int(args[0]), int(args[1]))
        if name == "edgeless":
            return generators.edgeless(int(args[0]))
        if name == "petersen":
            return generators.petersen()
        if name == "hypercube":
            return generators.hypercube(int(args[0]))
        if name in ("overlapping-stars", "paper-family"):
            return generators.overlapping_stars(int(args[0]))
        if name == "pruefer":
            seq = [int(a) for a in args if a != ""]
            return generators.tree_from_pruefer(seq)
        if name == "product":
            g6a, g6b = rest.split(",", 1)
            return cartesian_product(io.parse_graph6(g6a), io.parse_graph6(g6b))
        if name == "circulant":
            return generators.circulant(int(args[0]), [int(a) for a in args[1:]])
        if name == "random":
            return generators.random_graph(int(args[0]), float(args[1]), int(args[2]))
    except (ValueError, IndexError) as exc:
        raise _CliError(EXIT_INPUT, f"bad generator spec {spec!r}: {exc}") from None
    raise _CliError(EXIT_INPUT, f"unknown generator family {name!r}")


def _load_graph(args: argparse.Namespace) -> Graph:
    sources = [s for s in (args.graph6, args.edge_list, args.gen) if s is not None]
    if len(sources) != 1:
        raise _CliError(EXIT_INPUT, "provide exactly one of: graph6, --edge-list, --gen")
    try:
        if args.graph6 is not None:
            return io.parse_graph6(args.graph6)
        if args.edge_list is not None:
            with open(args.edge_list) as fh:
                return io.parse_edge_list(fh.read())
    except (io.FormatError, OSError, ValueError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read graph: {exc}") from None
    return _gen_spec(args.gen)


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer no smaller than low (a usage error, exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph6", nargs="?", help="graph6 string")
    p.add_argument("--edge-list", metavar="PATH", help="read an edge-list file")
    p.add_argument("--gen", metavar="SPEC", help="generate a family, e.g. star:3")


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        covers = min_covers(g, args.cover_limit)
    except BudgetExceededError as exc:
        raise _CliError(EXIT_BUDGET, str(exc)) from None
    report = io.build_report(g, classify_covers(g, covers), covers)
    if args.human:
        width = max(len(k) for k in report)
        for key, value in report.items():
            print(f"{key:<{width}}  {json.dumps(value)}")
    else:
        print(json.dumps(report))
    return EXIT_OK


def _cmd_schedule(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    capacity: int | None = None
    if args.capacity != "auto":
        try:
            capacity = int(args.capacity)
        except ValueError:
            raise _CliError(EXIT_INPUT, f"bad --capacity {args.capacity!r}") from None
        if capacity < 0:
            raise _CliError(EXIT_INPUT, "negative --capacity")
    try:
        if args.shortest:
            if capacity is None:
                _, sched = oracle.alcuin_exact(g, args.search_limit)
            else:
                result = oracle.feasible(g, capacity, args.search_limit)
                if not result.feasible:
                    raise _CliError(EXIT_INFEASIBLE, f"no schedule at capacity {capacity}")
                sched = result.schedule
        else:
            sched = synthesize(g, args.cover_limit)
            if capacity is not None:
                if capacity < sched.capacity:
                    raise _CliError(EXIT_INFEASIBLE, f"no schedule at capacity {capacity}")
                sched = Schedule(capacity, sched.moves)
    except BudgetExceededError as exc:
        raise _CliError(EXIT_BUDGET, str(exc)) from None
    if args.trace:
        labels = args.labels.split(",") if args.labels else None
        try:
            print(render_trace(g, sched, labels))
        except ValueError as exc:
            raise _CliError(EXIT_INPUT, str(exc)) from None
    else:
        print(io.schedule_json(sched))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        with open(args.schedule) as fh:
            sched = io.parse_schedule_json(fh.read())
    except (io.FormatError, OSError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read schedule: {exc}") from None
    violation = verify_schedule(g, sched)
    if violation is None:
        print("Valid")
        return EXIT_OK
    where = f"step {violation.step}"
    detail = f" ({violation.u},{violation.v})" if violation.u is not None else ""
    print(f"Violation at {where}: {violation.kind}{detail}")
    return EXIT_INVALID_SCHEDULE


_VIOLATION_KEYS = (
    "strict_hall",  # class two must pass the strict expansion test
    "double_expansion",  # class two forbids |N(A)| <= 2|A| witnesses
    "claw_free",  # claw-free graphs with an edge must be class one
    "pair_common_neighbors",  # a cover pair with <= 2 common outside neighbors forces class one
    "girth_bound",  # class two with beta >= 2 forces girth <= 4
)


def _graph_record(g: Graph, with_oracle: bool) -> dict[str, Any]:
    """Classify one graph and collect falsification counters."""
    covers = min_covers(g)
    cls = classify_covers(g, covers)
    record: dict[str, Any] = {
        "class_two": cls.verdict == CLASS_TWO,
        "disagree": False,
        "violations": dict.fromkeys(_VIOLATION_KEYS, 0),
    }
    beta = covers.beta
    if with_oracle:
        c, _ = oracle.alcuin_exact(g, beta=beta)
        if c != cls.c or not beta <= c <= beta + 1:
            record["disagree"] = True
    if cls.verdict == CLASS_TWO:
        cover = covers.covers[0]
        if not hall_strict(g, cover):
            record["violations"]["strict_hall"] = 1
        outside = g.full_mask & ~cover
        if exists_2x_witness(g, cover) is not None:
            record["violations"]["double_expansion"] = 1
        if beta >= 1 and is_claw_free(g):
            record["violations"]["claw_free"] = 1
        for u in bits(cover):
            for v in bits(cover):
                if v < u:
                    continue
                if (g.adj[u] & g.adj[v] & outside).bit_count() <= 2:
                    record["violations"]["pair_common_neighbors"] = 1
        if beta >= 2:
            gi = girth(g)
            if gi is None or gi > 4:
                record["violations"]["girth_bound"] = 1
    return record


def _empty_totals() -> dict[str, Any]:
    return {
        "graphs": 0,
        "class_two": 0,
        "disagreements": 0,
        "violations": dict.fromkeys(_VIOLATION_KEYS, 0),
        "offenders": [],
    }


def _tally(graphs: Iterable[Graph], with_oracle: bool) -> dict[str, Any]:
    """Survey totals over graphs; offenders are sorted graph6 strings."""
    totals = _empty_totals()
    for g in graphs:
        record = _graph_record(g, with_oracle)
        totals["graphs"] += 1
        totals["class_two"] += record["class_two"]
        totals["disagreements"] += record["disagree"]
        for key in _VIOLATION_KEYS:
            totals["violations"][key] += record["violations"][key]
        if record["disagree"] or any(record["violations"].values()):
            totals["offenders"].append(io.serialize_graph6(g))
    totals["offenders"].sort()
    return totals


def _survey_chunk(task: tuple[int, int, int]) -> dict[str, Any]:
    n, lo, hi = task
    return _tally((generators.graph_from_edge_mask(n, m) for m in range(lo, hi)), True)


def _merge(parts: Iterable[dict[str, Any]]) -> dict[str, Any]:
    total = _empty_totals()
    for part in parts:
        for key in ("graphs", "class_two", "disagreements"):
            total[key] += part[key]
        for key in _VIOLATION_KEYS:
            total["violations"][key] += part["violations"][key]
        total["offenders"] += part["offenders"]
    total["offenders"].sort()
    return total


def survey_enumerate(max_n: int, jobs: int = 1) -> dict[str, Any]:
    """Exhaustive per-n survey with oracle cross-check; order-independent."""
    per_n = []
    for n in range(max_n + 1):
        count = 1 << (n * (n - 1) // 2)
        chunk = max(1, count // max(1, jobs * 4))
        tasks = [(n, lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
        # the pool forks every worker up front, so never ask for more than
        # there are tasks or processors
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_survey_chunk, tasks))
        else:
            parts = [_survey_chunk(t) for t in tasks]
        per_n.append({"n": n, **_merge(parts)})
    return {
        "mode": "enumerate",
        "oracle": True,
        "max_n": max_n,
        "per_n": per_n,
        "totals": _merge(per_n),
    }


def survey_stream(lines: Iterable[str]) -> dict[str, Any]:
    """Classification-only survey of an external graph6 stream (no oracle)."""
    graphs = (io.parse_graph6(line) for line in map(str.strip, lines) if line)
    totals = _tally(graphs, with_oracle=False)
    return {"mode": "stdin", "oracle": False, "per_n": None, "totals": totals}


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.stdin_graph6:
        try:
            summary = survey_stream(sys.stdin)
        except io.FormatError as exc:
            raise _CliError(EXIT_INPUT, str(exc)) from None
    else:
        if args.max_n > 6:
            raise _CliError(EXIT_BUDGET, "--max-n is capped at 6")
        summary = survey_enumerate(args.max_n, args.jobs)
    print(json.dumps(summary, indent=2))
    offenders = summary["totals"]["offenders"]
    if offenders:
        for g6 in offenders:
            print(f"falsified: {g6}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    g = _gen_spec(args.spec)
    try:
        print(io.serialize_graph6(g))
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from None
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alcuin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant and classification report")
    _add_graph_arguments(p)
    p.add_argument("--human", action="store_true", help="table instead of JSON")
    p.add_argument(
        "--cover-limit",
        type=_int_at_least(0),
        default=DEFAULT_ENUMERATION_LIMIT,
        help="cover enumeration budget",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("schedule", help="synthesize or search a ferry schedule")
    _add_graph_arguments(p)
    p.add_argument("--capacity", default="auto", help="boat capacity (default: auto)")
    p.add_argument("--shortest", action="store_true", help="BFS shortest schedule")
    p.add_argument("--trace", action="store_true", help="render a crossing table")
    p.add_argument("--labels", help="comma-separated vertex labels for --trace")
    p.add_argument("--cover-limit", type=_int_at_least(0), default=DEFAULT_ENUMERATION_LIMIT)
    p.add_argument(
        "--search-limit",
        type=_int_at_least(0),
        default=oracle.DEFAULT_SEARCH_LIMIT,
        help="oracle vertex budget",
    )
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("verify", help="check a schedule JSON document against a graph")
    p.add_argument("schedule", help="path to a schedule JSON file")
    _add_graph_arguments(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("survey", help="exhaustive classifier/oracle cross-check")
    p.add_argument(
        "--max-n", type=_int_at_least(0), default=4, help="enumerate all graphs up to this n"
    )
    p.add_argument("--stdin-graph6", action="store_true", help="read graph6 lines from stdin")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel worker processes")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("generate", help="emit a graph family as graph6")
    p.add_argument("spec", help="family spec, e.g. star:3 or product:Bw,A_")
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
