"""Class one / class two decision and the Alcuin number c(G).

c(G) is always beta or beta + 1.  Two distinct minimum covers force class
one; with a unique cover C the verdict comes from the common-neighborhood
criterion: the graph is class two iff every two nonempty independent subsets
S, T of C have strictly more than |S| + |T| common neighbors outside C.
Quantifiers run over nonempty subsets throughout, which makes edgeless
graphs class two (c = 1: the boat still has to carry each item).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import CoverReport, check_minimum_cover, independent_levels, min_covers
from .cover import DEFAULT_ENUMERATION_LIMIT
from .graph import Graph, bits, is_claw_free

CLASS_ONE = "one"
CLASS_TWO = "two"


@dataclass(frozen=True)
class MultipleCovers:
    """Two distinct minimum covers: class one without condition evaluation."""

    cover: int
    cover2: int


@dataclass(frozen=True)
class PairWitness:
    """Nonempty independent s, t within the cover whose common outside
    neighborhood has size at most |s| + |t|: certifies class one."""

    cover: int
    s: int
    t: int


@dataclass(frozen=True)
class ConditionHolds:
    """Every candidate pair exceeds the bound: certifies class two."""

    cover: int


@dataclass(frozen=True)
class Degenerate:
    """Empty graph; nothing to transport."""


Reason = MultipleCovers | PairWitness | ConditionHolds | Degenerate


@dataclass(frozen=True)
class Classification:
    verdict: str
    c: int
    reason: Reason


def classification_condition(g: Graph, cover: int) -> ConditionHolds | PairWitness:
    """Exhaustive common-neighborhood test over a minimum cover.

    Scans every unordered pair of nonempty independent subsets S, T of the
    cover (S = T allowed).  Returns the first pair, ordered by |S|+|T|, then
    |S|, then the two masks, with |N(S) & N(T) outside C| <= |S| + |T|;
    ConditionHolds if no pair violates, which certifies class two (when the
    cover is the only minimum one).  Raises ValueError unless cover is a
    minimum vertex cover of g.
    """
    check_minimum_cover(g, cover)
    return _pair_scan(g, cover)


def _pair_scan(g: Graph, cover: int) -> ConditionHolds | PairWitness:
    """classification_condition on a cover the caller knows to be minimum.

    The |S|+|T| = 2 round scans the singleton pairs {u}, {v} and records the
    least common outside neighborhood among them, the floor.  Any S, T with
    u in S and v in T share at least the common outside neighbors of u and
    v, so no pair with |S|+|T| below the floor can be a witness, and the
    scan resumes at the larger of 3 and the floor.  The first witness found
    is the one the full scan would find.

    Subsets of each size are built on demand, the first time the scan
    reaches a total that pairs them.  Until an empty size proves the real
    bound, |C| bounds the largest subset, so a floor above 2|C| ends the
    scan after the singleton round.
    """
    outside = g.full_mask & ~cover
    levels = (
        [(mask, nbrs & outside) for mask, nbrs in level]
        for level in independent_levels(g, cover)
    )
    max_size = cover.bit_count()
    singles = next(levels, [])
    by_size = [[], singles]  # by_size[k]: k-subsets as (mask, outside nbrs)
    floor = 2 * max_size + 1
    for i, (u_mask, u_nbrs) in enumerate(singles):
        for v_mask, v_nbrs in singles[i:]:
            common = (u_nbrs & v_nbrs).bit_count()
            if common <= 2:
                return PairWitness(cover, u_mask, v_mask)
            if common < floor:
                floor = common
    total = max(3, floor)
    while total <= 2 * max_size:
        for s_size in range(max(1, total - max_size), total // 2 + 1):
            t_size = total - s_size
            while len(by_size) <= min(t_size, max_size):
                level = next(levels, None)
                if level is None:
                    max_size = len(by_size) - 1
                else:
                    by_size.append(level)
            if t_size > max_size:
                continue
            for s_mask, s_nbrs in by_size[s_size]:
                for t_mask, t_nbrs in by_size[t_size]:
                    if s_size == t_size and t_mask < s_mask:
                        continue
                    if (s_nbrs & t_nbrs).bit_count() <= total:
                        return PairWitness(cover, s_mask, t_mask)
        total += 1
    return ConditionHolds(cover)


def classify_covers(g: Graph, report: CoverReport) -> Classification:
    """Verdict, Alcuin number and reason from the cover report of g.

    For callers that need the covers as well as the verdict: the enumeration
    is the costly step, and this runs it once where min_covers followed by
    classify would run it twice.
    """
    if g.n == 0:
        return Classification(CLASS_ONE, 0, Degenerate())
    beta = report.beta
    if len(report.covers) >= 2:
        return Classification(
            CLASS_ONE, beta, MultipleCovers(report.covers[0], report.covers[1])
        )
    outcome = _pair_scan(g, report.covers[0])
    if isinstance(outcome, ConditionHolds):
        return Classification(CLASS_TWO, beta + 1, outcome)
    return Classification(CLASS_ONE, beta, outcome)


def classify(g: Graph, cover_limit: int = DEFAULT_ENUMERATION_LIMIT) -> Classification:
    """Verdict, Alcuin number and a machine-checkable reason.

    Degenerate n=0 graphs get c=0.  Two or more minimum covers settle class
    one immediately; otherwise the condition on the unique cover decides.
    Edgeless graphs (beta=0, unique cover is empty) come out class two with
    c=1, matching the search oracle.  Raises BudgetExceededError above the
    cover enumeration limit.
    """
    if g.n == 0:  # ahead of the budget check: nothing to enumerate at any limit
        return Classification(CLASS_ONE, 0, Degenerate())
    return classify_covers(g, min_covers(g, cover_limit))


def exists_2x_witness(g: Graph, cover: int) -> int | None:
    """First nonempty independent A within the cover with at most 2|A|
    outside neighbors (size then mask order), or None.

    Such an A certifies class one; it is exactly a PairWitness with S = T.
    """
    check_minimum_cover(g, cover)
    outside = g.full_mask & ~cover
    for size, level in enumerate(independent_levels(g, cover), 1):
        for mask, nbrs in level:
            if (nbrs & outside).bit_count() <= 2 * size:
                return mask
    return None


@dataclass(frozen=True)
class FastPath:
    """Advisory class-one shortcut: which cheap sufficient test fired."""

    kind: str  # "claw_free" or "pair_common_neighbors"
    u: int | None = None
    v: int | None = None


def fast_paths(g: Graph, cover: int) -> FastPath | None:
    """Cheap sufficient conditions for class one; advisory only.

    Fires when the graph has an edge and is claw-free, or when some cover
    vertices u, v (u = v allowed) share at most two neighbors outside the
    cover.  Edgeless graphs get None: they are claw-free but class two.
    """
    check_minimum_cover(g, cover)
    if cover and is_claw_free(g):
        return FastPath("claw_free")
    outside = g.full_mask & ~cover
    members = list(bits(cover))
    for i, u in enumerate(members):
        for v in members[i:]:
            if (g.adj[u] & g.adj[v] & outside).bit_count() <= 2:
                return FastPath("pair_common_neighbors", u, v)
    return None
