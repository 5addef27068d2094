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


@dataclass(frozen=True, slots=True)
class MultipleCovers:
    """Two distinct minimum covers: class one without condition evaluation."""

    cover: int
    cover2: int


@dataclass(frozen=True, slots=True)
class PairWitness:
    """Nonempty independent s, t within the cover whose common outside
    neighborhood has size at most |s| + |t|: certifies class one."""

    cover: int
    s: int
    t: int


@dataclass(frozen=True, slots=True)
class ConditionHolds:
    """Every candidate pair exceeds the bound: certifies class two."""

    cover: int


@dataclass(frozen=True, slots=True)
class Degenerate:
    """Empty graph; nothing to transport."""


Reason = MultipleCovers | PairWitness | ConditionHolds | Degenerate


@dataclass(frozen=True, slots=True)
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

    One loop over totals |S|+|T|, from 2, with one floor rule.  A total
    scanned in full without a witness also gives the least common outside
    count among its pairs, and the scan moves to the larger of the next
    total and that count.  This is exact: N(S) contains N(S') when S
    contains S', and every pair at a larger total contains a pair at this
    total (drop members, keeping both halves nonempty), so it has at least
    the least count of common neighbors, and no total below it can hold a
    witness.  The first witness found is the one the full scan would find.

    Subsets of each size are built on demand: the scan at total t reads
    every size from 1 to t - 1.  The scan ends once the total passes 2|C|,
    so a floor above that builds no larger size, or at the first total
    whose larger half has no subsets.
    """
    outside = g.full_mask & ~cover
    levels = (
        [(mask, nbrs & outside) for mask, nbrs in level]
        for level in independent_levels(g, cover)
    )
    by_size = [[]]  # by_size[k]: k-subsets as (mask, outside nbrs), [] past the last
    total = 2
    while total <= 2 * cover.bit_count():
        while len(by_size) < total:
            by_size.append(next(levels, []))
        if not by_size[(total + 1) // 2]:
            break
        least = g.n
        for s_size in range(1, total // 2 + 1):
            ss, ts = by_size[s_size], by_size[total - s_size]
            for i, (s_mask, s_nbrs) in enumerate(ss):
                for t_mask, t_nbrs in ts[i:] if 2 * s_size == total else ts:
                    common = (s_nbrs & t_nbrs).bit_count()
                    if common <= total:
                        return PairWitness(cover, s_mask, t_mask)
                    if common < least:
                        least = common
        total = max(total + 1, least)
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
    the cover, or None; the cover is taken as given.

    This is _pair_scan's total-2 round, kept apart on purpose: the survey
    runs it on every class-two verdict, so a scan that let such a pair
    through is counted as a violation instead of trusted."""
    outside = g.full_mask & ~cover
    members = list(bits(cover))
    for i, u in enumerate(members):
        for v in members[i:]:
            if (g.adj[u] & g.adj[v] & outside).bit_count() <= 2:
                return u, v
    return None
