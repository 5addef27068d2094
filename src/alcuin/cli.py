"""Command-line front end.

Subcommands: analyze, schedule, verify, survey, generate.  Graph input is
unified: a positional graph6 string, --edge-list for the edge-list format,
or --gen with a family spec.  Exit codes are a stable contract: 0 success,
1 survey falsification, 2 parse/spec error, 3 budget exceeded, 4 infeasible
capacity, 5 invalid schedule.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator

from . import generators, io, oracle
from .classify import CLASS_TWO, _close_pair, classify, classify_covers
from .cover import DEFAULT_ENUMERATION_LIMIT, _sparse_subset, min_covers
from .errors import BudgetExceededError, check_limit
from .ferry import Schedule, verify_schedule
from .graph import Graph, cartesian_product, girth, is_claw_free
from .schedule import render_trace, synthesize

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
            seq = [int(a) for a in args]
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


def _capacity(text: str) -> int | None:
    """argparse type for --capacity: None for auto, else an integer >= 0."""
    return None if text == "auto" else _int_at_least(0)(text)


def _add_graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph6", nargs="?", help="graph6 string")
    p.add_argument("--edge-list", metavar="PATH", help="read an edge-list file")
    p.add_argument("--gen", metavar="SPEC", help="generate a family, e.g. star:3")


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    covers = min_covers(g, args.cover_limit)
    text = io.report_json(g, classify_covers(g, covers), covers)
    if args.human:
        report = json.loads(text)
        width = max(len(k) for k in report)
        for key, value in report.items():
            print(f"{key:<{width}}  {json.dumps(value)}")
    else:
        print(text)
    return EXIT_OK


def _cmd_schedule(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    capacity = args.capacity
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
    except (io.FormatError, OSError, UnicodeDecodeError) as exc:
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
    """Survey totals for the one graph g, in the shape _merge folds.  Beta
    is read off the classification, c = beta + 1 for class two and beta
    otherwise; the oracle finds its own, so c != cls.c is the only check:
    c outside beta..beta + 1 differs from cls.c already.  The class-two
    checks run on the classification's cover and skip the minimality
    proof, since classify found that cover as a minimum one."""
    cls = classify(g)
    beta = cls.c - (cls.verdict == CLASS_TWO)
    disagree = False
    if with_oracle:
        c, _ = oracle.alcuin_exact(g)
        disagree = c != cls.c
    violations = dict.fromkeys(_VIOLATION_KEYS, 0)
    if cls.verdict == CLASS_TWO:
        cover = cls.reason.cover
        violations.update(
            strict_hall=int(_sparse_subset(g, cover, 1) is not None),
            double_expansion=int(_sparse_subset(g, cover, 2) is not None),
            claw_free=int(beta >= 1 and is_claw_free(g)),
            pair_common_neighbors=int(_close_pair(g, cover) is not None),
            girth_bound=int(beta >= 2 and girth(g) not in (3, 4)),  # None: acyclic
        )
    offending = disagree or any(violations.values())
    return {
        "graphs": 1,
        "class_two": int(cls.verdict == CLASS_TWO),
        "disagreements": int(disagree),
        "violations": violations,
        "offenders": [io.serialize_graph6(g)] if offending else [],
    }


def _merge(parts: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Sum survey totals; offenders come out as sorted graph6 strings."""
    total: dict[str, Any] = {
        "graphs": 0,
        "class_two": 0,
        "disagreements": 0,
        "violations": dict.fromkeys(_VIOLATION_KEYS, 0),
        "offenders": [],
    }
    for part in parts:
        for key in ("graphs", "class_two", "disagreements"):
            total[key] += part[key]
        for key in _VIOLATION_KEYS:
            total["violations"][key] += part["violations"][key]
        total["offenders"] += part["offenders"]
    total["offenders"].sort()
    return total


def _survey_chunk(task: tuple[int, int, int]) -> dict[str, Any]:
    n, lo, hi = task
    graphs = (generators.graph_from_edge_mask(n, m) for m in range(lo, hi))
    return _merge(_graph_record(g, True) for g in graphs)


def survey_enumerate(max_n: int, jobs: int = 1) -> dict[str, Any]:
    """Exhaustive per-n survey with oracle cross-check; order-independent."""
    tasks = []
    for n in range(max_n + 1):
        count = 1 << (n * (n - 1) // 2)
        chunk = max(1, count // max(1, jobs * 4))
        tasks += [(n, lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    # one flat task list over every n runs through one pool, which forks
    # every worker up front, so never ask for more than there are tasks or
    # processors
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_survey_chunk, tasks))
    else:
        parts = [_survey_chunk(t) for t in tasks]
    per_n = [
        {"n": n, **_merge(part for (m, _, _), part in zip(tasks, parts) if m == n)}
        for n in range(max_n + 1)
    ]
    return {
        "mode": "enumerate",
        "oracle": True,
        "max_n": max_n,
        "per_n": per_n,
        "totals": _merge(per_n),
    }


def _stream_records(lines: Iterable[str]) -> Iterator[dict[str, Any]]:
    """One survey record per nonblank line; a malformed or over-budget line
    raises its error again with the 1-based line number in front."""
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = _graph_record(io.parse_graph6(line), False)
        except io.FormatError as exc:
            raise io.FormatError(f"line {number}: {exc}") from None
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"line {number}: {exc}") from None
        yield record


def survey_stream(lines: Iterable[str]) -> dict[str, Any]:
    """Classification-only survey of an external graph6 stream (no oracle)."""
    totals = _merge(_stream_records(lines))
    return {"mode": "stdin", "oracle": False, "per_n": None, "totals": totals}


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.stdin_graph6:
        try:
            summary = survey_stream(sys.stdin)
        except io.FormatError as exc:
            raise _CliError(EXIT_INPUT, str(exc)) from None
    else:
        check_limit("survey --max-n", args.max_n, 6)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building the tree costs far more than a parse."""
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
    p.add_argument("--capacity", type=_capacity, help="boat capacity (default: auto)")
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
