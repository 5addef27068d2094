"""In-memory spans around calls into the alcuin package, and self time per span name.

A span is (name, start_ns, end_ns, parent index, graph id).  Names are
"<layer>.<operation>", where the layer is the alcuin module the call goes
into, or "bench" for the benchmark's own root spans (one per graph, one for
input set-up).  Spans stay in memory until the run ends; `write` dumps them
as tab-separated lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Span = tuple[str, int, int, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.graph = -1

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: int, parent: int) -> None:
        self._stack.pop()
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, self.graph)

    @contextmanager
    def span(self, name: str, graph: int = -1) -> Iterator[None]:
        """Root or intermediate span; sets the graph id its children inherit."""
        self.graph = graph
        idx, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start, parent)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """fn with a span named `name` around every call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, parent)

        return traced

    def closed(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tgraph\n")
            for name, start, end, parent, graph in self.closed():
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{graph}\n")


def self_times(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """{span name: (total self ns, call count)}.

    Self time is a span's duration minus the durations of its direct
    children; children nest inside their parent, so the subtraction never
    double-counts.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, tuple[int, int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total, count = out.get(name, (0, 0))
        out[name] = (total + end - start - child_ns[i], count + 1)
    return out


def root_ns(spans: list[Span]) -> int:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
