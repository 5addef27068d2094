"""Ferry schedules built from the classification: generic, witness, synthesized.

The rules a schedule must keep, its verifier and the five-set witnesses
live in `ferry`; this module builds schedules that satisfy them and renders
them as text.  Constructive schedules here favor simplicity over crossing
count; only the search oracle produces shortest schedules.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .classify import ConditionHolds, MultipleCovers, PairWitness, classify
from .cover import DEFAULT_ENUMERATION_LIMIT, check_minimum_cover
from .ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule, verify_schedule
from .graph import Graph, bits, is_independent, neighbors_in, vertices_of


def schedule_generic(g: Graph, cover: int) -> Schedule:
    """Capacity beta+1 schedule: the cover rides along, the rest shuttles.

    The whole cover stays in the boat; each left-to-right trip also carries
    one remaining item (ascending index).  2*|V-C| - 1 crossings.  Raises
    ValueError unless cover is a minimum vertex cover of g.
    """
    check_minimum_cover(g, cover)
    return _generic(g, cover)


def _generic(g: Graph, cover: int) -> Schedule:
    """schedule_generic on a cover the caller knows to be minimum."""
    rest = vertices_of(g.full_mask & ~cover)
    moves: list[Move] = []
    for i, x in enumerate(rest):
        if i:
            moves.append(Move(RIGHT_TO_LEFT, cover))
        moves.append(Move(LEFT_TO_RIGHT, cover | (1 << x)))
    return Schedule(cover.bit_count() + 1, tuple(moves))


def _batches(mask: int, size: int) -> Iterator[int]:
    """Split a vertex set into ascending chunks, each its lowest `size` bits
    left; size must be at least 1, or the loop never ends."""
    while mask:
        rest = mask
        for _ in range(size):
            rest &= rest - 1
        yield mask ^ rest
        mask = rest


def schedule_from_witness(g: Graph, cover: int, s: int, t: int) -> Schedule:
    """Capacity-beta schedule from a class-one pair witness.

    Requires nonempty independent s, t inside the minimum cover whose common
    outside neighborhood W has at most |s| + |t| elements; raises ValueError
    otherwise.  Plan: park s on the right to free |s| boat slots; shuttle
    everything outside N(s); swap the first min(|s|, |W|) common neighbors
    for s; drop t, deliver the rest of W in its place; shuttle the remaining
    neighbors of s with t's slots; fetch t and finish.  With s = t this is
    the doubled-neighborhood variant (|N(a)| <= 2|a|): one code path covers
    both.  The result is verified before it is returned.
    """
    check_minimum_cover(g, cover)
    if not s or s & ~cover or not t or t & ~cover:
        raise ValueError("s and t must be nonempty subsets of the cover")
    if not is_independent(g, s) or not is_independent(g, t):
        raise ValueError("s and t must be independent")
    return _from_witness(g, cover, s, t)


def _from_witness(g: Graph, cover: int, s: int, t: int) -> Schedule:
    """schedule_from_witness on a minimum cover and nonempty independent s, t
    the caller vouches for; the common-neighborhood bound and the final
    verification are still checked."""
    outside = g.full_mask & ~cover
    ns = neighbors_in(g, s, outside)
    nt = neighbors_in(g, t, outside)
    common = ns & nt
    if common.bit_count() > s.bit_count() + t.bit_count():
        raise ValueError("common outside neighborhood exceeds |s| + |t|")

    moves = [Move(LEFT_TO_RIGHT, cover), Move(RIGHT_TO_LEFT, cover ^ s)]
    for batch in _batches(outside & ~ns, s.bit_count()):
        moves.append(Move(LEFT_TO_RIGHT, (cover ^ s) | batch))
        moves.append(Move(RIGHT_TO_LEFT, cover ^ s))
    first = next(_batches(common, s.bit_count()), 0)
    moves.append(Move(LEFT_TO_RIGHT, (cover ^ s) | first))
    moves.append(Move(RIGHT_TO_LEFT, cover))
    last = common ^ first
    leftovers = ns & ~common
    if last == 0 and leftovers == 0:
        moves.append(Move(LEFT_TO_RIGHT, cover))
    else:
        moves.append(Move(LEFT_TO_RIGHT, (cover ^ t) | last))
        for batch in _batches(leftovers, t.bit_count()):
            moves.append(Move(RIGHT_TO_LEFT, cover ^ t))
            moves.append(Move(LEFT_TO_RIGHT, (cover ^ t) | batch))
        moves.append(Move(RIGHT_TO_LEFT, cover ^ t))
        moves.append(Move(LEFT_TO_RIGHT, cover))

    sched = Schedule(cover.bit_count(), tuple(moves))
    violation = verify_schedule(g, sched)
    if violation is not None:
        raise RuntimeError(f"witness schedule failed verification: {violation}")
    return sched


def synthesize(g: Graph, cover_limit: int = DEFAULT_ENUMERATION_LIMIT) -> Schedule:
    """A feasible schedule whose capacity is exactly the Alcuin number.

    Builds from the reason classify gives: the generic schedule at beta+1
    when the condition holds (class two), the witness construction at beta
    from a pair witness.  Two minimum covers C1 != C2 are their own witness:
    A = C1 - C2 is nonempty and independent, since C2 covers every edge
    inside it, and each neighbor of A outside C1 is in C2 - C1, because C2
    covers the edge to it.  Both covers have beta vertices, so |C2 - C1| =
    |A|: A has at most |A| outside neighbors and (A, A) is a pair witness
    on C1.  Raises
    BudgetExceededError above the cover vertex limit.
    """
    reason = classify(g, cover_limit).reason
    if isinstance(reason, ConditionHolds):
        return _generic(g, reason.cover)
    if isinstance(reason, PairWitness):
        return _from_witness(g, reason.cover, reason.s, reason.t)
    if isinstance(reason, MultipleCovers):
        a = reason.cover & ~reason.cover2
        return _from_witness(g, reason.cover, a, a)
    return Schedule(0, ())  # Degenerate: nothing to carry


def render_trace(g: Graph, sched: Schedule, labels: Sequence[str] | None = None) -> str:
    """One text row per crossing: left bank | cargo and direction | right bank.

    Banks are shown mid-crossing (cargo aboard); empty sets render as the
    empty-set sign.  Labels default to vertex indices.
    """
    violation = verify_schedule(g, sched)
    if violation is not None:
        raise ValueError(f"cannot render an invalid schedule: {violation}")
    if labels is None:
        labels = [str(v) for v in range(g.n)]
    if len(labels) != g.n:
        raise ValueError(f"expected {g.n} labels, got {len(labels)}")

    def fmt(mask: int) -> str:
        return ", ".join(labels[v] for v in bits(mask)) if mask else "∅"

    rows = []
    left, right = g.full_mask, 0
    for move in sched.moves:
        if move.direction == LEFT_TO_RIGHT:
            left ^= move.cargo
            rows.append(f"{fmt(left)} | {fmt(move.cargo)} → | {fmt(right)}")
            right |= move.cargo
        else:
            right ^= move.cargo
            rows.append(f"{fmt(left)} | ← {fmt(move.cargo)} | {fmt(right)}")
            left |= move.cargo
    return "\n".join(rows)
