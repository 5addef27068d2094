"""Exact independence and vertex-cover computations.

alpha() runs a branch-and-bound maximum-independent-set search.  min_covers()
enumerates every maximum independent set per connected component, with its
own size bound and without consulting alpha(), and complements them; the two
routes therefore cross-check each other through the alpha + beta = n identity.
Above its vertex budget min_covers() raises rather than search.
independent_levels() lists the independent subsets of a cover one size at a
time, building each size only when its caller asks for it, so the pair scan
and the expansion tests stop without building sizes they never read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

from .errors import BudgetExceededError
from .graph import Graph, bits, is_independent, vertices_of

DEFAULT_ENUMERATION_LIMIT = 16
MAX_COVERS = 1 << 16  # most covers listed, whatever the vertex limit allows


@dataclass(frozen=True)
class CoverReport:
    """Every minimum vertex cover of a graph, in ascending mask order.

    A report always holds the full set of covers, so unique is read off the
    count and complete is a constant, kept for the covers_complete key of
    the report JSON.
    """

    beta: int
    covers: tuple[int, ...]
    complete: ClassVar[bool] = True

    @property
    def unique(self) -> bool:
        return len(self.covers) == 1


def alpha(g: Graph) -> int:
    """Independence number: size of a largest pairwise non-adjacent set.

    Branch and bound on the lowest-index maximum-degree vertex of the
    remaining subgraph: first exclude it, then include it and drop its
    closed neighborhood.  It shares no code with the cover enumeration, so
    alpha + beta = n checks one against the other.
    """
    adj = g.adj
    best = -1

    def rec(remaining: int, size: int) -> None:
        nonlocal best
        if size + remaining.bit_count() <= best:
            return
        v = -1
        vdeg = -1
        m = remaining
        while m:
            low = m & -m
            u = low.bit_length() - 1
            d = (adj[u] & remaining).bit_count()
            if d > vdeg:
                v, vdeg = u, d
            m ^= low
        if vdeg <= 0:  # no edge left: every remaining vertex joins the set
            best = size + remaining.bit_count()
            return
        bit = 1 << v
        rec(remaining ^ bit, size)
        rec(remaining & ~(adj[v] | bit), size + 1)

    rec(g.full_mask, 0)
    return best


def _component_mis(adj: tuple[int, ...], comp: int) -> tuple[int, list[int]]:
    """(alpha, every maximum independent set) of the subgraph induced on comp.

    Include-first DFS on the lowest candidate vertex, where the candidates
    are the undecided vertices with no neighbor in the chosen set.  A branch
    is cut once even taking every candidate stays below the best size seen;
    sets that tie the best are kept, so every maximum set is reported once.
    It stops once more than MAX_COVERS sets tie.
    """
    best = -1
    found: list[int] = []

    def rec(cand: int, chosen: int, size: int) -> None:
        nonlocal best, found
        if size + cand.bit_count() < best or len(found) > MAX_COVERS:
            return
        if not cand:
            if size > best:
                best, found = size, [chosen]
            else:
                found.append(chosen)
            return
        bit = cand & -cand
        rec(cand & ~(adj[bit.bit_length() - 1] | bit), chosen | bit, size + 1)
        rec(cand ^ bit, chosen, size)

    rec(comp, 0, 0)
    return best, found


def _maximum_independent_sets(g: Graph) -> tuple[int, list[int]]:
    """(alpha, every maximum independent set), one connected component at a time.

    A maximum independent set is a union of one maximum set per component,
    so alpha is the sum of the component alphas and the sets are every
    combination of the component sets, counted before they are listed.
    """
    adj = g.adj
    rest = g.full_mask
    total, sets = 0, [0]
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & ~comp
            comp |= frontier
        rest ^= comp
        size, found = _component_mis(adj, comp)
        total += size
        count = len(sets) * len(found)
        if count > MAX_COVERS:
            raise BudgetExceededError(
                f"cover enumeration exceeds the limit {MAX_COVERS} ({count} covers counted)"
            )
        sets = [a | b for a in sets for b in found]
    return total, sets


def min_covers(g: Graph, full_limit: int = DEFAULT_ENUMERATION_LIMIT) -> CoverReport:
    """Every minimum vertex cover, as complements of maximum independent sets.

    Raises BudgetExceededError, before any search, when g has more than
    full_limit vertices: one cover alone cannot tell whether it is unique,
    so there is no partial answer.  It also raises, at any full_limit, once
    the covers number more than MAX_COVERS.
    """
    if g.n > full_limit:
        raise BudgetExceededError(
            f"cover enumeration for n={g.n} exceeds the limit {full_limit}"
        )
    a, sets = _maximum_independent_sets(g)
    full = g.full_mask
    return CoverReport(g.n - a, tuple(sorted(full ^ s for s in sets)))


def is_vertex_cover(g: Graph, mask: int) -> bool:
    """True iff every edge of g has at least one endpoint in mask."""
    return is_independent(g, g.full_mask & ~mask)


def check_minimum_cover(g: Graph, mask: int) -> None:
    """Raise ValueError unless mask is a minimum vertex cover of g."""
    if mask < 0 or mask & ~g.full_mask:
        raise ValueError("cover contains vertices outside the graph")
    if not is_vertex_cover(g, mask):
        raise ValueError("set is not a vertex cover")
    if mask.bit_count() != g.n - alpha(g):
        raise ValueError("vertex cover is not minimum")


def independent_levels(g: Graph, base: int) -> Iterator[list[tuple[int, int]]]:
    """Nonempty independent subsets of base, one size at a time.

    The k-th list yielded holds every independent k-subset of base as a
    (subset, neighborhood) mask pair, ascending by subset; neighborhoods are
    unions of adjacency masks, unrestricted (intersect with a bank mask at
    the call site).  Level k+1 extends each set of level k by every base
    vertex below its lowest one that has no neighbor in it, which keeps the
    level ascending without a sort.  A level is built only when the caller
    asks for it, and iteration ends before the first empty level, so a
    caller that stops early never pays for the larger sets.
    """
    adj = g.adj
    level = [(1 << v, adj[v]) for v in vertices_of(base)]
    while level:
        yield level
        nxt = []
        for mask, nbrs in level:
            free = base & ((mask & -mask) - 1) & ~nbrs
            while free:
                low = free & -free
                nxt.append((mask | low, nbrs | adj[low.bit_length() - 1]))
                free ^= low
        level = nxt


def _sparse_subset(g: Graph, cover: int, factor: int) -> int | None:
    """First nonempty independent A within the cover, in size then mask
    order, with at most factor * |A| neighbors outside the cover, or None.
    The cover is taken as given; callers that cannot vouch for it check it."""
    outside = g.full_mask & ~cover
    for size, level in enumerate(independent_levels(g, cover), 1):
        for mask, nbrs in level:
            if (nbrs & outside).bit_count() <= factor * size:
                return mask
    return None


def hall_strict(g: Graph, cover: int) -> bool:
    """Strict expansion test on a minimum cover: characterizes uniqueness.

    True iff every nonempty independent subset A of the cover has strictly
    more than |A| neighbors outside the cover.  Holding for all such A is
    equivalent to the cover being the unique minimum one.
    """
    check_minimum_cover(g, cover)
    return _sparse_subset(g, cover, 1) is None
