"""Deterministic constructors for the graph families used across the package."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .graph import Graph, cartesian_product, check_vertex_count

_M64 = (1 << 64) - 1


def edgeless(n: int) -> Graph:
    check_vertex_count(n)
    return Graph(n, (0,) * n)


def star(k: int) -> Graph:
    """K_{1,k}: center is vertex 0, leaves 1..k."""
    check_vertex_count(k + 1)
    if k < 0:
        raise ValueError("negative leaf count")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def path(n: int) -> Graph:
    check_vertex_count(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    check_vertex_count(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    check_vertex_count(n)
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    check_vertex_count(a + b)
    if a < 0 or b < 0:
        raise ValueError("negative part size")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i--i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def circulant(n: int, steps: Sequence[int]) -> Graph:
    """Circulant graph: vertex i adjacent to i +- s (mod n) for each step s."""
    if n < 1:
        raise ValueError("circulant needs at least one vertex")
    check_vertex_count(n)
    edges = []
    for s in steps:
        if s % n == 0:
            raise ValueError(f"step {s} is a multiple of {n} (self-loop)")
        for i in range(n):
            edges.append((i, (i + s) % n))
    return Graph.from_edges(n, edges)


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube, built by repeated cartesian product with K2."""
    if d < 0:
        raise ValueError("negative dimension")
    q = complete(1)
    k2 = complete(2)
    for _ in range(d):
        q = cartesian_product(q, k2)
    return q


def overlapping_stars(k: int) -> Graph:
    """Two non-adjacent centers with k+1 leaves each, sharing exactly one leaf.

    Vertices: centers 0 and 1, leaves 2..2k+2.  Center 0 is adjacent to
    leaves 2..k+2, center 1 to leaves k+2..2k+2; leaf k+2 is the shared one.
    The unique minimum vertex cover is {0, 1}.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 2 * k + 3
    check_vertex_count(n)
    edges = [(0, 1 + i) for i in range(1, k + 2)]
    edges += [(1, 1 + i) for i in range(k + 1, 2 * k + 2)]
    return Graph.from_edges(n, edges)


def tree_from_pruefer(seq: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence into its labeled tree on len(seq)+2 vertices."""
    n = len(seq) + 2
    check_vertex_count(n)
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"sequence entry {s} outside 0..{n - 1}")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = next(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (v for v in range(n) if degree[v] == 1)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph on n vertices from a bitmask over the lexicographic pair list
    (0,1), (0,2), ..., (0,n-1), (1,2), ..."""
    pairs = list(combinations(range(n), 2))
    if mask < 0 or mask >> len(pairs):
        raise ValueError("edge mask out of range")
    adj = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        mask ^= low
    return Graph(n, tuple(adj))


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in edge-mask order.

    Mask 0 (the edgeless graph) comes first; see graph_from_edge_mask for
    the bit-to-pair convention.
    """
    if n > 7:
        raise ValueError("exhaustive enumeration capped at 7 vertices")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_edge_mask(n, mask)


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from a pinned deterministic bit stream.

    Each pair (u, v) with u < v, visited in lexicographic order, is included
    iff the next splitmix64 draw, scaled to [0, 1) via its top 53 bits, is
    below p.  The mixing constants above are part of the contract, so equal
    (n, p, seed) arguments reproduce the same graph on any implementation.
    """
    check_vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    threshold = int(p * (1 << 53))
    state = seed & _M64
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            state, draw = _splitmix64(state)
            if (draw >> 11) < threshold:
                edges.append((u, v))
    return Graph.from_edges(n, edges)
