"""Slow, obviously-correct reference computations for cross-checking.

These deliberately use different algorithms than the package: covers come
from subset enumeration by ascending size, girth from per-edge shortest
paths, alpha from raw combinations.  Small n only.
"""

from collections import deque
from itertools import combinations

from alcuin import Graph, bits, is_independent, mask_of


def brute_min_covers(g: Graph) -> tuple[int, list[int]]:
    """(beta, all minimum covers as ascending masks) by size-first scan."""
    edges = g.edges()
    for k in range(g.n + 1):
        covers = []
        for combo in combinations(range(g.n), k):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                covers.append(mask_of(combo))
        if covers:
            return k, sorted(covers)
    raise AssertionError("unreachable: V covers everything")


def brute_alpha(g: Graph) -> int:
    best = 0
    for k in range(1, g.n + 1):
        if any(
            is_independent(g, mask_of(c)) for c in combinations(range(g.n), k)
        ):
            best = k
    return best


def brute_girth(g: Graph) -> int | None:
    """Shortest cycle length: for each edge uv, shortest u-v path avoiding uv."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in bits(g.adj[x]):
                if {x, y} == {u, v} or y in dist:
                    continue
                dist[y] = dist[x] + 1
                queue.append(y)
        if v in dist:
            cycle = dist[v] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in bits(g.adj[x]):
            if not seen >> y & 1:
                seen |= 1 << y
                queue.append(y)
    return seen == g.full_mask


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Graph with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_cargo_choices(adj: tuple[int, ...], bank: int, b: int) -> list[int]:
    """Legal cargos by walking every submask of the bank: those of at most b
    vertices whose removal leaves the bank independent, ascending by size,
    then mask."""
    out = []
    sub = bank
    while True:
        # sub runs over all submasks of bank descending; rest is the bank remainder
        if sub.bit_count() <= b:
            rest = bank ^ sub
            if all(not adj[v] & rest for v in bits(rest)):
                out.append((sub.bit_count(), sub))
        if sub == 0:
            break
        sub = (sub - 1) & bank
    return [sub for _, sub in sorted(out)]
