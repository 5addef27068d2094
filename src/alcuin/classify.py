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

from .cover import CoverReport, check_minimum_cover, independent_levels
from .cover import DEFAULT_ENUMERATION_LIMIT, _lowest_covers, _sparse_subset
from .graph import Graph, bits

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
    reaches a total that pairs them.  The scan ends at the first total
    whose larger half has no subsets, or past 2|C|, which a floor above
    2|C| reaches without building any size above one.
    """
    outside = g.full_mask & ~cover
    levels = (
        [(mask, nbrs & outside) for mask, nbrs in level]
        for level in independent_levels(g, cover)
    )
    by_size = [[]]  # by_size[k]: k-subsets as (mask, outside nbrs)

    def subsets(k: int) -> list[tuple[int, int]]:
        while len(by_size) <= k:  # [] past the last size
            by_size.append(next(levels, []))
        return by_size[k]

    singles = subsets(1)
    floor = None
    for i, (u_mask, u_nbrs) in enumerate(singles):
        for v_mask, v_nbrs in singles[i:]:
            common = (u_nbrs & v_nbrs).bit_count()
            if common <= 2:
                return PairWitness(cover, u_mask, v_mask)
            if floor is None or common < floor:
                floor = common
    total = floor or 3
    while total <= 2 * len(singles) and subsets((total + 1) // 2):
        for s_size in range(1, total // 2 + 1):
            t_size = total - s_size
            for s_mask, s_nbrs in subsets(s_size):
                for t_mask, t_nbrs in subsets(t_size):
                    if s_size == t_size and t_mask < s_mask:
                        continue
                    if (s_nbrs & t_nbrs).bit_count() <= total:
                        return PairWitness(cover, s_mask, t_mask)
        total += 1
    return ConditionHolds(cover)


def classify_covers(g: Graph, report: CoverReport) -> Classification:
    """Verdict, Alcuin number and reason from the cover report of g.

    For callers that hold the full report anyway, such as analyze, which
    prints every cover; classify itself finds only the covers it reads.
    """
    return _decide(g, report.beta, report.covers)


def _decide(g: Graph, beta: int, covers: tuple[int, ...]) -> Classification:
    """The verdict from beta and the lowest minimum covers, ascending; only
    the first two are read.  The one place that turns covers into c(G)."""
    if g.n == 0:  # nothing to carry: c = 0, where an edgeless graph has c = 1
        return Classification(CLASS_ONE, 0, Degenerate())
    if len(covers) >= 2:
        return Classification(CLASS_ONE, beta, MultipleCovers(covers[0], covers[1]))
    outcome = _pair_scan(g, covers[0])
    if isinstance(outcome, ConditionHolds):
        return Classification(CLASS_TWO, beta + 1, outcome)
    return Classification(CLASS_ONE, beta, outcome)


def classify(g: Graph, cover_limit: int = DEFAULT_ENUMERATION_LIMIT) -> Classification:
    """Verdict, Alcuin number and a machine-checkable reason.

    Degenerate n=0 graphs get c=0.  Two minimum covers settle class one
    immediately, so only beta and the two lowest covers are searched for;
    with one cover the condition on it decides.  Edgeless graphs (beta=0,
    unique cover is empty) come out class two with c=1, matching the search
    oracle.  Raises BudgetExceededError above the cover vertex limit.
    """
    return _decide(g, *_lowest_covers(g, cover_limit))


def exists_2x_witness(g: Graph, cover: int) -> int | None:
    """First nonempty independent A within the cover with at most 2|A|
    outside neighbors (size then mask order), or None.

    Such an A certifies class one; it is exactly a PairWitness with S = T.
    """
    check_minimum_cover(g, cover)
    return _sparse_subset(g, cover, 2)


def _close_pair(g: Graph, cover: int) -> tuple[int, int] | None:
    """First cover pair u <= v with at most two common neighbors outside
    the cover, or None; the cover is taken as given."""
    outside = g.full_mask & ~cover
    members = list(bits(cover))
    for i, u in enumerate(members):
        for v in members[i:]:
            if (g.adj[u] & g.adj[v] & outside).bit_count() <= 2:
                return u, v
    return None
