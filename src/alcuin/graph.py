"""Immutable simple graphs on vertices 0..n-1, with bitmask vertex sets.

Every vertex set in this package is a plain int used as a bitmask: bit v is
set iff vertex v belongs to the set.  Use :func:`mask_of` / :func:`vertices_of`
to convert to and from ordinary collections.  Graphs are capped at 64 vertices
so any vertex set fits in one machine word; every constructor refuses a larger
or negative count, before it builds, through the one :func:`check_vertex_count`.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Iterator

MAX_VERTICES = 64


def packed_masks(masks: Iterable[int]) -> bytes:
    """The masks as consecutive 8-byte little-endian words, in order: every
    vertex set fits one word, since a graph has at most MAX_VERTICES = 64
    vertices, so one array call packs them all."""
    words = array("Q", masks)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    """Ascending list of the vertices in a bitmask; ValueError if negative.

    Reads the binary digits, least significant first, with each "0" made a
    false byte, so compress keeps the positions of the ones.
    """
    if mask < 0:
        raise ValueError(f"negative vertex mask {mask}")
    return list(compress(count(), bin(mask)[:1:-1].encode().replace(b"0", b"\0")))


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask in ascending order.

    A negative mask has no highest bit and would never run out; it raises
    ValueError when iteration starts.
    """
    if mask < 0:
        raise ValueError(f"negative vertex mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_vertex_count(n: int) -> None:
    """ValueError unless 0 <= n <= MAX_VERTICES: the one size rule of every graph."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus one neighbor mask per vertex.

    Instances are immutable; construction validates symmetry, loop-freeness
    and the vertex cap.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, m in enumerate(self.adj):
            if m & ~full:
                raise ValueError(f"vertex {v} has a neighbor outside 0..{self.n - 1}")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, m in enumerate(self.adj):
            for u in bits(m):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; duplicate edges collapse."""
        check_vertex_count(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted ascending."""
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(m):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def _check_subset(g: Graph, mask: int, what: str) -> None:
    if mask < 0 or mask & ~g.full_mask:
        raise ValueError(f"{what} contains vertices outside 0..{g.n - 1}")


def neighbors_in(g: Graph, x: int, s: int) -> int:
    """Neighbors of the set x restricted to the set s: N(x) & s."""
    _check_subset(g, x, "x")
    _check_subset(g, s, "s")
    nb = 0
    for v in bits(x):
        nb |= g.adj[v]
    return nb & s


def is_independent(g: Graph, x: int) -> bool:
    """True iff no edge of g has both endpoints in x."""
    _check_subset(g, x, "x")
    for v in bits(x):
        if g.adj[v] & x:
            return False
    return True


def components(adj: tuple[int, ...], rest: int) -> list[int]:
    """Connected components of the graph on the vertex set rest, as masks,
    in order of their lowest vertex; rest must be a union of components."""
    comps = []
    while rest:
        comp = todo = rest & -rest
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            todo = (todo ^ low) | new
        rest ^= comp
        comps.append(comp)
    return comps


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None when the graph is a forest.

    A graph with c components is a forest iff it has n - c edges, fewer
    than n, so one flood fill that counts the components of a graph with
    fewer edges than vertices spares a forest every search.  Girth 3 is an
    edge uv whose ends share a neighbour; girth 4, in a triangle-free
    graph, is two vertices with two common neighbours.  Only
    girth 5 and above needs breadth-first search from every vertex: each
    non-tree edge met at distance d(u), d(v) closes a walk of length
    d(u)+d(v)+1 through the root, which is a cycle-length upper bound, and
    the bound is tight for roots lying on a shortest cycle.
    """
    adj = g.adj
    m = g.edge_count()
    if m < g.n and m == g.n - len(components(adj, g.full_mask)):
        return None
    for u in range(g.n):
        for v in bits(adj[u] >> (u + 1) << (u + 1)):
            if adj[u] & adj[v]:
                return 3
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (adj[u] & adj[v]).bit_count() >= 2:
                return 4
    best: int | None = None
    for src in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if best is not None and 2 * du >= best:
                continue
            for v in bits(adj[u]):
                if dist[v] < 0:
                    dist[v] = du + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = du + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def is_claw_free(g: Graph) -> bool:
    """True iff no vertex has three pairwise non-adjacent neighbors.

    For each neighbour a of v, `far` holds the neighbours of v above a that
    are not adjacent to a; a claw a < b < c exists iff some b in far has a
    non-neighbour c in far above b.
    """
    adj = g.adj
    for v in range(g.n):
        nb = adj[v]
        if nb.bit_count() < 3:
            continue
        for a in bits(nb):
            far = nb & ~adj[a] >> (a + 1) << (a + 1)
            for b in bits(far):
                if far & ~adj[b] >> (b + 1) << (b + 1):
                    return False
    return True


def is_regular(g: Graph) -> int | None:
    """The common degree when all degrees agree, else None (None for n=0)."""
    if g.n == 0:
        return None
    r = g.adj[0].bit_count()
    for m in g.adj:
        if m.bit_count() != r:
            return None
    return r


def is_bipartite(g: Graph) -> tuple[int, int] | None:
    """Two-coloring (side_a, side_b) masks, or None if an odd cycle exists.

    Deterministic: the lowest-index vertex of each component goes to side a.
    """
    color = [-1] * g.n
    for src in range(g.n):
        if color[src] >= 0:
            continue
        color[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in bits(g.adj[u]):
                if color[v] < 0:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    a = b = 0
    for v, c in enumerate(color):
        if c == 0:
            a |= 1 << v
        else:
            b |= 1 << v
    return a, b


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) gets index u * h.n + v.

    (u, v) ~ (x, y) iff u == x and v ~ y, or v == y and u ~ x.
    """
    n = g.n * h.n
    check_vertex_count(n)
    adj = [0] * n
    for u in range(g.n):
        base = u * h.n
        for v in range(h.n):
            m = 0
            for y in bits(h.adj[v]):
                m |= 1 << (base + y)
            for x in bits(g.adj[u]):
                m |= 1 << (x * h.n + v)
            adj[base + v] = m
    return Graph(n, tuple(adj))
