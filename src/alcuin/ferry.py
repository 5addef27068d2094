"""The rules of a crossing: schedules, their verifier, five-set witnesses.

A schedule is a sequence of boat crossings.  The boat starts on the left,
directions alternate, and the bank the ferryman leaves behind must be
conflict-free (independent) the moment the boat departs.  Conflicts inside
the boat are legal: the ferryman keeps the cargo apart.

This is the trusted core both sides of every cross-check rely on: the
constructions in `schedule` and the BFS in `oracle` produce schedules that
`verify_schedule` judges.  It also holds the one enumerator of independent
sets, which the BFS in `oracle` and the five-set search both use.  It
imports only `graph` and `errors`, so no cover, classifier or construction
code is in the oracle's import closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_cap, check_limit
from .graph import Graph, bits, is_independent

LEFT_TO_RIGHT = "LR"
RIGHT_TO_LEFT = "RL"

CARGO_TOO_BIG = "cargo_too_big"
CARGO_NOT_ON_BANK = "cargo_not_on_bank"
BANK_CONFLICT = "bank_conflict"
NOT_ALL_TRANSPORTED = "not_all_transported"
WRONG_DIRECTION = "wrong_direction"
MAX_SETS = 1 << 16  # most independent sets listed, whatever a vertex limit allows


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


def verify_schedule(g: Graph, sched: Schedule) -> Violation | None:
    """Simulate a schedule; None when feasible, else the first violation.

    Checks, per move: alternation starting left-to-right, cargo drawn from
    the boat-side bank, cargo within capacity, and independence of the
    departure bank once the cargo is aboard.  The far bank was independent
    when last left and has not changed, so it needs no re-check.  A bank
    conflict names the lowest bank vertex with a neighbor on the bank, and
    its lowest such neighbor.
    """
    adj = g.adj
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
        rest = m = bank ^ move.cargo
        while m:
            low = m & -m
            u = low.bit_length() - 1
            hit = adj[u] & rest
            if hit:
                return Violation(step, BANK_CONFLICT, u, (hit & -hit).bit_length() - 1)
            m ^= low
        if expected == LEFT_TO_RIGHT:
            left, right = rest, right | move.cargo
            expected = RIGHT_TO_LEFT
        else:
            left, right = left | move.cargo, rest
            expected = LEFT_TO_RIGHT
    if right != full:
        return Violation(len(sched.moves), NOT_ALL_TRANSPORTED)
    return None


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


def _independent_sets(adj: tuple[int, ...], vertices: int) -> list[int]:
    """Every independent subset of vertices, 0 included, ascending: a
    vertex joins a set only if none of its neighbours is already in it.
    Vertices join lowest first, so every set a vertex adds has a bit above
    every bit of the sets before it, and the list stays in mask order.
    Raises BudgetExceededError once the list grows past MAX_SETS."""
    sets = [0]
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        nbrs = adj[low.bit_length() - 1]
        sets += [s | low for s in sets if not s & nbrs]
        check_cap("set enumeration", len(sets), MAX_SETS, "sets listed")
    return sets


def structure_search(g: Graph, b: int, limit: int = 10) -> StructureWitness | None:
    """Exhaustive search for a five-set witness at capacity b.

    Scans independent X with |V - X| <= b in ascending mask order, and for
    each the unordered pairs of nonempty independent Y1, Y2 within
    Y = V - X, Y1 in ascending submask order and Y2 from Y1 on; first hit
    wins.

    No partition of X is tried.  With Y1 and Y2 fixed, a vertex of X can
    join X1 iff it has no neighbour in Y1, and X2 iff it has none in Y2, so
    the least X3 is X & N(Y1) & N(Y2).  A witness with this X, Y1 and Y2
    therefore exists iff |Y1| + |Y2| >= |X & N(Y1) & N(Y2)|, and then
    X1 = X - N(Y1), X2 = X & N(Y1) - N(Y2), X3 = X & N(Y1) & N(Y2) is one.
    The bound is symmetric in Y1 and Y2, so unordered pairs suffice.

    Raises ValueError for b < 1 and for the empty graph: Y1 and Y2 are
    nonempty, so a graph with no vertex has no witness at any capacity,
    though it is feasible at every one; None would wrongly mean infeasible.
    """
    if b < 1:
        raise ValueError("capacity must be at least 1")
    if g.n == 0:
        raise ValueError("the empty graph has no five-set witness")
    check_limit("structure search", g.n, limit)
    full = g.full_mask
    adj = g.adj
    for x in _independent_sets(adj, full):
        y = full ^ x
        if y.bit_count() > b:
            continue
        ysubs = []
        for sub in _independent_sets(adj, y)[1:]:
            nbrs = 0
            for v in bits(sub):
                nbrs |= adj[v]
            ysubs.append((sub, sub.bit_count(), nbrs))
        for i, (y1, c1, n1) in enumerate(ysubs):
            hit1 = x & n1
            for y2, c2, n2 in ysubs[i:]:
                if c1 + c2 >= (hit1 & n2).bit_count():
                    return StructureWitness(x & ~n1, hit1 & ~n2, hit1 & n2, y1, y2, b)
    return None
