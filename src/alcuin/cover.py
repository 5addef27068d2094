"""Exact independence and vertex-cover computations.

Every route below splits the graph into connected components first: a
maximum independent set is one maximum set per component.  There are two.

- alpha() finds the independence number by branch and bound.  It takes
  every vertex of degree 0 or 1 and branches on a vertex of maximum degree.
- _highest_maximum_sets() lists a component's maximum independent sets,
  highest first, by an include-first search that takes the component's
  alpha from the first route as a fixed floor, and stops after as many as
  its caller wants.  min_covers() asks for one more than the cover cap,
  takes each set's complement within its component as that component's
  piece of a cover, and multiplies the pieces; _lowest_covers(), behind
  classify and so behind every decision of c(G), asks for two and reads
  off beta and the one or two lowest minimum covers.
  A wrong alpha raises when the search meets a set larger than alpha or
  finds none as large; the tests check alpha and both callers against
  brute-force references.

Above their vertex budget the cover routes raise before any search, and
min_covers past MAX_COVERS covers, counted before any cover is listed, by
the one budget rule in `errors`.
independent_levels() lists the independent subsets of a cover one size at a
time, building each size only when its caller asks for it, so the pair scan
and the expansion tests stop without building sizes they never read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

from .errors import check_cap, check_limit
from .graph import Graph, components, is_independent, vertices_of

DEFAULT_ENUMERATION_LIMIT = 16
MAX_COVERS = 1 << 16  # most covers listed, whatever the vertex limit allows


@dataclass(frozen=True, slots=True)
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
    """Independence number: size of a largest pairwise non-adjacent set,
    summed over the connected components."""
    adj = g.adj
    return sum(_alpha_within(adj, comp) for comp in components(g))


def _alpha_within(adj: tuple[int, ...], comp: int) -> int:
    """Independence number of the subgraph induced on comp.

    The search starts from the size of one maximal independent set, taken
    greedily from the highest vertex down, so it only has to beat that.
    """
    greedy, cand = 0, comp
    while cand:
        v = cand.bit_length() - 1
        cand &= ~(adj[v] | (1 << v))
        greedy += 1
    return _alpha_search(adj, comp, 0, greedy)


def _alpha_search(adj: tuple[int, ...], remaining: int, size: int, best: int) -> int:
    """size plus the independence number of the subgraph induced on
    remaining, or best if that is no larger.

    First it takes every vertex with at most one remaining neighbor, and
    drops that neighbor, until none is left: such a vertex lies in some
    maximum independent set, since it can replace its one neighbor (Fomin,
    Grandoni and Kratsch, J. ACM 56(5), 2009).  Then it branches on the
    lowest-index maximum-degree vertex: first exclude it, then include it
    and drop its closed neighborhood.  A branch is cut when it cannot beat
    best even if the independent set misses only the fewest vertices that
    can cover the remaining edges: at least edges / maximum degree of them.
    """
    if size + remaining.bit_count() <= best:
        return best
    while True:
        v, vdeg, degrees, took = -1, 1, 0, False
        m = remaining
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            d = (adj[u] & remaining).bit_count()
            if d <= 1:
                size += 1
                remaining &= ~(adj[u] | low)
                m &= remaining
                took = True
            else:
                degrees += d
                if d > vdeg:
                    v, vdeg = u, d
        if not took:
            break
    if v < 0:  # every vertex was taken
        return max(best, size)
    if size + remaining.bit_count() - (degrees // 2 + vdeg - 1) // vdeg <= best:
        return best
    bit = 1 << v
    best = _alpha_search(adj, remaining ^ bit, size, best)
    return _alpha_search(adj, remaining & ~(adj[v] | bit), size + 1, best)


def _highest_maximum_sets(g: Graph, want: int) -> Iterator[tuple[int, int, list[int]]]:
    """Per connected component, in order of lowest vertex: (its vertex
    mask, its alpha, its highest maximum independent sets in descending
    mask order, at most want of them).

    Include-first DFS on the highest candidate, where the candidates are the
    undecided vertices with no neighbor in the chosen set, cut once size +
    |cand| drops below the component's alpha; at exactly alpha a hit must
    take every candidate, so it is chosen | cand if the candidates are
    independent, and there is none otherwise.  Both branches at a vertex
    agree on every decided vertex and every remaining candidate lies below
    the branching vertex, so every set from the include branch is above
    every set from the exclude branch: hits arrive in descending mask order.
    A hit has alpha vertices, so it is a maximum set.  A wrong alpha raises
    RuntimeError when a branch runs out of candidates with more than alpha
    vertices chosen, or when no set reaches alpha.
    """
    adj = g.adj
    for comp in components(g):
        alpha_c = _alpha_within(adj, comp)
        hits: list[int] = []

        def rec(cand: int, chosen: int, size: int) -> None:
            slack = size + cand.bit_count() - alpha_c
            if slack <= 0:
                if slack == 0:
                    m = cand
                    while m:
                        low = m & -m
                        if adj[low.bit_length() - 1] & cand:
                            return
                        m ^= low
                    hits.append(chosen | cand)
                return
            if not cand:
                raise RuntimeError(f"independent set of {size} vertices above alpha={alpha_c}")
            v = cand.bit_length() - 1
            bit = 1 << v
            rec(cand & ~(adj[v] | bit), chosen | bit, size + 1)
            if len(hits) < want:
                rec(cand ^ bit, chosen, size)

        rec(comp, 0, 0)
        if not hits:
            raise RuntimeError(f"no independent set of size alpha={alpha_c} found")
        yield comp, alpha_c, hits


def _minimum_covers(g: Graph) -> tuple[int, list[int]]:
    """(beta, every minimum vertex cover), one connected component at a time.

    A minimum cover is a union of one minimum cover per component, and a
    component's minimum covers are the complements within it of its
    maximum independent sets, so they come ascending.  The product of the
    per-component counts is checked against the cap before any cover is
    listed; a component's search stops one set past the cap, enough to
    count past it.

    The pieces are multiplied in balanced halves, adjacent pieces in pairs
    with the later one the outer loop, until one list is left: a long list
    is copied once per halving, not once per component, so one-cover
    components such as isolated vertices cost next to nothing.  The order
    is a left-to-right product's, the later component varying slowest, so
    when each component lies above the ones before it, as in a perfect
    matching, the covers come out ascending and min_covers' sort meets one
    run.  Components that interleave in vertex order break the order, so
    min_covers still sorts.
    """
    total = 0
    count = 1
    pieces = []
    for comp, alpha_c, found in _highest_maximum_sets(g, MAX_COVERS + 1):
        total += alpha_c
        count *= len(found)
        check_cap("cover enumeration", count, MAX_COVERS, "covers counted")
        pieces.append([comp ^ s for s in found])
    while len(pieces) > 1:
        pairs = zip(pieces[0::2], pieces[1::2])
        odd = pieces[len(pieces) & ~1 :]
        pieces = [[a | b for b in later for a in earlier] for earlier, later in pairs] + odd
    return g.n - total, pieces[0] if pieces else [0]


def min_covers(g: Graph, full_limit: int = DEFAULT_ENUMERATION_LIMIT) -> CoverReport:
    """Every minimum vertex cover, as products of per-component covers.

    Raises BudgetExceededError, before any search, when g has more than
    full_limit vertices and at least one: one cover alone cannot tell
    whether it is unique, so there is no partial answer.  It also raises,
    at any full_limit, once the covers number more than MAX_COVERS.
    """
    check_limit("cover enumeration", g.n, full_limit)
    beta, covers = _minimum_covers(g)
    covers.sort()
    return CoverReport(beta, tuple(covers))


def _lowest_covers(g: Graph, full_limit: int) -> tuple[int, tuple[int, ...]]:
    """(beta, the one or two lowest minimum covers, ascending); two iff the
    minimum cover is not unique.  Nothing else is listed, so no cover cap
    applies; the vertex budget is min_covers'.  This is classify's search;
    synthesize and survey read classify's answer rather than call it.

    The lowest covers are the complements of the highest maximum
    independent sets.  Per component, _highest_maximum_sets asked for two
    gives its highest maximum set first_c and, if there is one, its second
    highest second_c.  The highest union is top, the OR of every first_c.
    The second highest is the largest top ^ first_c ^ second_c.  Proof: a
    union is at most another when it is at most in each component, because
    the highest bit where the two differ is the highest bit where their
    parts in one component differ.  A union S other than top has S_c !=
    first_c in some component c, so S_c <= second_c there and S_k <=
    first_k everywhere else: S <= top ^ first_c ^ second_c.
    """
    check_limit("cover enumeration", g.n, full_limit)
    total = top = 0
    flips = []  # first_c ^ second_c for each component with two maximum sets
    for _, alpha_c, hits in _highest_maximum_sets(g, 2):
        total += alpha_c
        top |= hits[0]
        if len(hits) == 2:
            flips.append(hits[0] ^ hits[1])
    full = g.full_mask
    if not flips:
        return g.n - total, (full ^ top,)
    return g.n - total, (full ^ top, full ^ max(top ^ f for f in flips))


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
