"""Ground truth by brute force: breadth-first search over bank states.

A state is the right-bank contents plus the boat side, packed into one int
as ``right << 1 | side`` (side 0 = left).  From each state every cargo that
fits the boat and leaves the departure bank independent is a legal
crossing, and cargos are tried ascending by size, then mask, so BFS
tie-breaks, and therefore shortest-schedule traces, are fixed.

States as table indices.  The bank the boat leaves behind must be
independent, so a state is an independent set J left behind plus the
boat's side.  One table lists every independent set of the graph (from the
enumerator in `ferry` that the five-set search also walks) as ``J << 1``,
descending by size, then mask: leaving J behind gives state ``J << 1``
from the right bank and ``(full ^ J) << 1 | 1`` from the left.  The legal
moves from a bank B are one bitmap over the table: a prefix, the sets of
size at least |B| - b, less the sets that meet the other bank (one OR of
per-vertex membership bitmaps), in ascending cargo order.  One bitmap of
unseen states per boat side drops, by one AND, the moves to states already
seen before any is listed, the visited-bitmap test of direction-optimizing
BFS (Beamer, Asanovic and Patterson, SC 2012): on the benchmark's oracle12
graphs only 71,140 of 1,550,363 legal moves lead somewhere new.

The trade-off: the table is built in full before the search, so a search
that stops early still pays for every independent set of the graph.  At
the default limit of 12 vertices that is at most 4,096 sets.  Above it the
cost grows with the table, not with the search: ``feasible(star(15), 1,
limit=64)`` builds 32,769 sets to expand 33 states, about 20 ms where a
per-state search takes 0.3 ms.

The oracle is the independent side of every cross-check, so it shares no
code with the cover, classifier or construction modules: its whole import
closure is `graph`, `errors` and `ferry` (the rules of a crossing), and
alcuin_exact computes its own vertex cover number, n minus the size of the
first (largest) set in its table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

from .errors import BudgetExceededError
from .graph import Graph
from .ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule, _independent_sets

DEFAULT_SEARCH_LIMIT = 12


@dataclass(frozen=True)
class SearchResult:
    feasible: bool
    min_crossings: int | None
    schedule: Schedule | None
    states_expanded: int


class _SetTable:
    """Every independent set J of one graph as ``J << 1``, descending by
    size, then mask; ``ends[k]`` counts the sets of size at least k, and
    bit i of ``members[v]`` is set iff v is in sets[i]."""

    def __init__(self, g: Graph) -> None:
        sets = [s << 1 for s in _independent_sets(g.adj, g.full_mask)]
        sets.sort(reverse=True)
        sets.sort(key=int.bit_count, reverse=True)  # stable: mask order holds
        ends = [0] * (g.n + 2)
        for s in sets:
            ends[s.bit_count()] += 1
        for k in range(g.n, -1, -1):
            ends[k] += ends[k + 1]
        # the table as a character matrix, one row of n + 1 binary digits
        # per set, last set first: column n - 1 - v holds vertex v, and read
        # down the rows it is vertex v's bitmap, sets[0] in the lowest bit
        rows = "".join(map(format, reversed(sets), repeat(f"0{g.n + 1}b")))
        self.sets = sets
        self.ends = ends
        self.members = [int(rows[g.n - 1 - v :: g.n + 1], 2) for v in range(g.n)]

    def legal(self, full: int, bank: int, b: int) -> int:
        """Bit i is set iff a boat of capacity b can leave sets[i] behind on
        bank: the set avoids the other bank, so lies within this one, and
        is at most b smaller.  Ascending i is ascending cargo ``bank ^ J``."""
        meet = 0
        other = full ^ bank
        while other:
            low = other & -other
            other ^= low
            meet |= self.members[low.bit_length() - 1]
        return ~meet & ~(-1 << self.ends[max(bank.bit_count() - b, 0)])


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise BudgetExceededError(f"oracle search for n={g.n} exceeds the limit {limit}")


def feasible(g: Graph, b: int, limit: int = DEFAULT_SEARCH_LIMIT) -> SearchResult:
    """Decide feasibility at boat capacity b; shortest schedule when feasible.

    Breadth-first over bank states, each state's cargos ascending by size,
    then mask, listing only the moves to states not yet seen.  The table of
    every independent set of g that the states index is built in full
    first, so a search that ends after a few states still pays for all of
    it.  The empty graph needs no search, so no limit applies to it.
    """
    if b < 0:
        raise ValueError("negative boat capacity")
    if g.n == 0:
        return SearchResult(True, 0, Schedule(b, ()), 0)
    _check_limit(g, limit)
    return _search(g, b, _SetTable(g))


def _search(g: Graph, b: int, table: _SetTable) -> SearchResult:
    """Breadth-first search from everything on the left to the goal.

    Every discovered state is ``base ^ sets[i]`` for one i (base 0 with the
    boat on the left, goal with it on the right), and its bit in
    ``unseen[side]`` is cleared exactly when it enters ``parents``.  So
    ``legal & unseen[side]``, walked in ascending index (cargo) order, lists
    the same states in the same order as skipping those in ``parents`` would:
    parents, queue order, states_expanded and the schedule do not change.
    """
    full = g.full_mask
    goal = full << 1 | 1  # everything on the right, boat with it
    sets = table.sets
    # parent state of each discovered state; the cargo is (state ^ parent) >> 1.
    # The start state, everything and the boat on the left, is 0 = sets[-1].
    parents: dict[int, int] = {0: -1}
    queue = deque([0])
    # unseen[side]: bit i set while the state with the boat on that side
    # and sets[i] left behind is undiscovered
    unseen = [~(-1 << len(sets) - 1), ~(-1 << len(sets))]
    expanded = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        # leaving J behind makes the next state J << 1 from the right bank
        # and (full ^ J) << 1 | 1 from the left: base ^ (J << 1) either way
        if state & 1:
            bank, base = state >> 1, 0
        else:
            bank, base = full ^ state >> 1, goal
        side = base & 1  # the boat's side in every next state
        new = table.legal(full, bank, b) & unseen[side]
        unseen[side] ^= new
        fresh = []
        while new:
            low = new & -new
            new ^= low
            fresh.append(base ^ sets[low.bit_length() - 1])
        parents.update(dict.fromkeys(fresh, state))
        if goal in parents:
            break
        queue.extend(fresh)
    else:
        return SearchResult(False, None, None, expanded)
    moves: list[Move] = []
    state = goal
    while state:
        prev = parents[state]
        direction = RIGHT_TO_LEFT if prev & 1 else LEFT_TO_RIGHT
        moves.append(Move(direction, (state ^ prev) >> 1))
        state = prev
    moves.reverse()
    return SearchResult(True, len(moves), Schedule(b, tuple(moves)), expanded)


def alcuin_exact(
    g: Graph, limit: int = DEFAULT_SEARCH_LIMIT, beta: int | None = None
) -> tuple[int, Schedule]:
    """Exact Alcuin number with a witnessing shortest schedule.

    Tries b = max(beta, 1) first (capacity 0 moves nothing, so c >= 1 for
    n >= 1); on failure b+1 must succeed, which the cover-rides-along
    construction guarantees, and a miss there aborts loudly.  Both searches
    run over one independent-set table, each with its own seen-state
    bitmaps, and beta is read off it: its first set is a largest one, so
    beta = n - alpha.  A passed
    beta that differs from it raises ValueError.
    """
    if g.n:  # the empty graph needs no search, so no limit applies to it
        _check_limit(g, limit)
    table = _SetTable(g)
    own_beta = g.n - table.sets[0].bit_count()
    if beta is not None and beta != own_beta:
        raise ValueError(f"beta={beta} is not the vertex cover number {own_beta}")
    if g.n == 0:
        return 0, Schedule(0, ())
    b = max(own_beta, 1)
    for capacity in (b, b + 1):
        result = _search(g, capacity, table)
        if result.schedule is not None:
            return capacity, result.schedule
    raise RuntimeError(
        f"no schedule at capacity {b + 1} despite the beta+1 guarantee (n={g.n})"
    )
