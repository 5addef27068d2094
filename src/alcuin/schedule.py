"""Ferry schedules: verification, constructive synthesis, structure witnesses.

A schedule is a sequence of boat crossings.  The boat starts on the left,
directions alternate, and the bank the ferryman leaves behind must be
conflict-free (independent) the moment the boat departs.  Conflicts inside
the boat are legal: the ferryman keeps the cargo apart.  Constructive
schedules here favor simplicity over crossing count; only the search oracle
produces shortest schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .classify import PairWitness, _pair_scan
from .cover import DEFAULT_ENUMERATION_LIMIT, check_minimum_cover, min_covers
from .errors import BudgetExceededError
from .graph import Graph, bits, is_independent, mask_of, neighbors_in, vertices_of

LEFT_TO_RIGHT = "LR"
RIGHT_TO_LEFT = "RL"

CARGO_TOO_BIG = "cargo_too_big"
CARGO_NOT_ON_BANK = "cargo_not_on_bank"
BANK_CONFLICT = "bank_conflict"
NOT_ALL_TRANSPORTED = "not_all_transported"
WRONG_DIRECTION = "wrong_direction"


@dataclass(frozen=True)
class Move:
    direction: str
    cargo: int


@dataclass(frozen=True)
class Schedule:
    capacity: int
    moves: tuple[Move, ...]

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("negative boat capacity")


@dataclass(frozen=True)
class Violation:
    """First rule broken by a schedule; step indexes moves from 0, with
    step == len(moves) marking the terminal all-transported check."""

    step: int
    kind: str
    u: int | None = None
    v: int | None = None


@dataclass(frozen=True)
class StructureWitness:
    """Five sets certifying feasibility at capacity b.

    x1, x2, x3 partition an independent set X; y1, y2 are nonempty subsets
    of Y = V - X with |Y| <= b; x1|y1 and x2|y2 are independent; and
    |y1| + |y2| >= |x3|.
    """

    x1: int
    x2: int
    x3: int
    y1: int
    y2: int
    b: int


def _first_conflict(g: Graph, bank: int) -> tuple[int, int] | None:
    for u in bits(bank):
        m = g.adj[u] & bank
        if m:
            return u, (m & -m).bit_length() - 1
    return None


def verify_schedule(g: Graph, sched: Schedule) -> Violation | None:
    """Simulate a schedule; None when feasible, else the first violation.

    Checks, per move: alternation starting left-to-right, cargo drawn from
    the boat-side bank, cargo within capacity, and independence of the
    departure bank once the cargo is aboard.  The far bank was independent
    when last left and has not changed, so it needs no re-check.
    """
    full = g.full_mask
    left, right = full, 0
    expected = LEFT_TO_RIGHT
    for step, move in enumerate(sched.moves):
        if move.direction != expected:
            return Violation(step, WRONG_DIRECTION)
        bank = left if expected == LEFT_TO_RIGHT else right
        if move.cargo < 0 or move.cargo & ~bank:
            return Violation(step, CARGO_NOT_ON_BANK)
        if move.cargo.bit_count() > sched.capacity:
            return Violation(step, CARGO_TOO_BIG)
        rest = bank ^ move.cargo
        conflict = _first_conflict(g, rest)
        if conflict is not None:
            return Violation(step, BANK_CONFLICT, conflict[0], conflict[1])
        if expected == LEFT_TO_RIGHT:
            left, right = rest, right | move.cargo
            expected = RIGHT_TO_LEFT
        else:
            left, right = left | move.cargo, rest
            expected = LEFT_TO_RIGHT
    if right != full:
        return Violation(len(sched.moves), NOT_ALL_TRANSPORTED)
    return None


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
    if not rest and g.n > 0:
        moves.append(Move(LEFT_TO_RIGHT, cover))
    for i, x in enumerate(rest):
        if i:
            moves.append(Move(RIGHT_TO_LEFT, cover))
        moves.append(Move(LEFT_TO_RIGHT, cover | (1 << x)))
    return Schedule(cover.bit_count() + 1, tuple(moves))


def _batches(mask: int, size: int) -> Iterator[int]:
    """Split a vertex set into ascending chunks of at most `size` items."""
    vs = vertices_of(mask)
    for i in range(0, len(vs), size):
        yield mask_of(vs[i : i + size])


def _lowest_bits(mask: int, k: int) -> int:
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


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
    first = _lowest_bits(common, min(s.bit_count(), common.bit_count()))
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

    The pair scan on the lowest minimum cover decides: a witness gives the
    construction at beta (class one), ConditionHolds the generic schedule at
    beta+1 (class two).  One cover is enough, since a cover C that is not
    unique fails strict expansion on some independent A, |N(A) - C| <= |A|,
    and (A, A) is then a witness.  Raises BudgetExceededError above the
    cover enumeration limit.
    """
    if g.n == 0:
        return Schedule(0, ())
    report = min_covers(g, cover_limit)
    cover = report.covers[0]
    outcome = _pair_scan(g, cover)
    if isinstance(outcome, PairWitness):
        return _from_witness(g, cover, outcome.s, outcome.t)
    if not report.unique:
        raise RuntimeError("pair scan found no witness on a cover that is not unique")
    return _generic(g, cover)


def structure_check(g: Graph, w: StructureWitness) -> bool:
    """Evaluate the four feasibility conditions on a five-set witness."""
    full = g.full_mask
    for mask in (w.x1, w.x2, w.x3, w.y1, w.y2):
        if mask < 0 or mask & ~full:
            raise ValueError("witness set contains vertices outside the graph")
    if w.x1 & w.x2 or w.x1 & w.x3 or w.x2 & w.x3:
        return False
    x = w.x1 | w.x2 | w.x3
    if not is_independent(g, x):
        return False
    y = full ^ x
    if w.y1 == 0 or w.y2 == 0 or (w.y1 | w.y2) & ~y or y.bit_count() > w.b:
        return False
    if not is_independent(g, w.x1 | w.y1) or not is_independent(g, w.x2 | w.y2):
        return False
    return w.y1.bit_count() + w.y2.bit_count() >= w.x3.bit_count()


def structure_search(g: Graph, b: int, limit: int = 10) -> StructureWitness | None:
    """Exhaustive search for a five-set witness at capacity b.

    Scans independent X with |V - X| <= b in ascending mask order, the 3^|X|
    ordered partitions (base-3 digits, lowest vertex least significant), and
    nonempty Y1, Y2 in ascending submask order; first hit wins.
    """
    if b < 1:
        raise ValueError("capacity must be at least 1")
    if g.n > limit:
        raise BudgetExceededError(f"structure search for n={g.n} exceeds the limit {limit}")
    full = g.full_mask
    adj = g.adj
    for x in range(full + 1):
        if (full ^ x).bit_count() > b or not is_independent(g, x):
            continue
        y = full ^ x
        if y == 0:
            continue
        ycount = y.bit_count()
        ysubs = []
        sub = 0
        while True:
            sub = (sub - y) & y
            if sub == 0:
                break
            if is_independent(g, sub):
                nbrs = 0
                for v in bits(sub):
                    nbrs |= adj[v]
                ysubs.append((sub, sub.bit_count(), nbrs))
        xs = vertices_of(x)
        for code in range(3 ** len(xs)):
            x1 = x2 = x3 = 0
            c = code
            for v in xs:
                part = c % 3
                c //= 3
                if part == 0:
                    x1 |= 1 << v
                elif part == 1:
                    x2 |= 1 << v
                else:
                    x3 |= 1 << v
            need = x3.bit_count()
            if need > 2 * ycount:
                continue
            for y1, c1, n1 in ysubs:
                if n1 & x1:
                    continue
                for y2, c2, n2 in ysubs:
                    if n2 & x2 or c1 + c2 < need:
                        continue
                    return StructureWitness(x1, x2, x3, y1, y2, b)
    return None


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
