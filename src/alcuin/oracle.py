"""Ground truth by brute force: breadth-first search over bank states.

A state is the right-bank contents plus the boat side, packed into one int
as ``right << 1 | side`` (side 0 = left).  From each state every cargo that
fits the boat and leaves the departure bank independent is a legal
crossing, and cargos are tried ascending by size, then mask, so BFS
tie-breaks, and therefore shortest-schedule traces, are fixed.

Two sides, one bank.  The bank the boat leaves behind must be independent,
so every departure bank B after the start is the complement of an
independent set, and the start bank is the whole vertex set.  The same B is
left once with the boat on the left and, in another state, once with it on
the right, and both times its legal cargos are B ^ J for every independent
J within B with |J| >= |B| - b.  So one search lists a bank's cargos once,
on the first state that leaves it, and reuses the list.  Each list is cut
from one table of every independent set of the graph (from the enumerator
in `ferry` that the five-set search also walks), held as ``J << 1``
in descending (size, mask) order: sizes |B| - b to |B| are one slice, the
sets that meet the other bank are dropped by one OR of per-vertex
membership bitmaps, and what is left is already in ascending cargo order,
so the BFS order is the one a per-state search gives.  Stored as
``J << 1``, the table entries are the next states themselves: leaving J
behind gives state ``J << 1`` from the right bank and
``(full ^ J) << 1 | 1`` from the left.

The trade-off: the table is built before the search, so a search that
stops early still pays for every independent set of the graph.  At the
default limit of 12 vertices that is at most 4,096 sets.  Above it the
cost grows with the table, not with the search: ``feasible(star(15), 1,
limit=64)`` builds 32,769 sets to expand a handful of states, about 40 ms
where a per-state search took 0.5 ms.

The oracle is the independent side of every cross-check, so it shares no
code with the cover, classifier or construction modules: its whole import
closure is `graph`, `errors` and `ferry` (the rules of a crossing), and
alcuin_exact computes its own vertex cover number, n minus the size of the
first (largest) set in its table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress, repeat

from .errors import BudgetExceededError
from .graph import Graph
from .ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule, _independent_sets

DEFAULT_SEARCH_LIMIT = 12

# format() digit of a membership bitmap -> compress() selector: keep the
# sets that meet no vertex of the other bank
_KEEP = bytes.maketrans(b"01", b"\x01\x00")


@dataclass(frozen=True)
class SearchResult:
    feasible: bool
    min_crossings: int | None
    schedule: Schedule | None
    states_expanded: int


class _SetTable:
    """Every independent set J of one graph as ``J << 1``, descending by
    size, then mask; ``ends[k]`` counts the sets of size at least k, and
    bit ``len(sets) - 1 - i`` of ``members[v]`` is set iff v is in sets[i]."""

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
        # per set: column n - 1 - v holds vertex v, read down the rows
        rows = "".join(map(format, sets, repeat(f"0{g.n + 1}b")))
        self.sets = sets
        self.ends = ends
        self.members = [int(rows[g.n - 1 - v :: g.n + 1], 2) for v in range(g.n)]

    def remainders(self, full: int, bank: int, b: int) -> list[int]:
        """``J << 1`` for every independent J within bank that a boat of
        capacity b can leave behind, descending by size, then mask: the
        legal cargos ``bank ^ J`` in ascending order."""
        size = bank.bit_count()
        lo, hi = self.ends[size + 1], self.ends[max(size - b, 0)]
        meet = 0
        other = full ^ bank
        while other:
            low = other & -other
            other ^= low
            meet |= self.members[low.bit_length() - 1]
        width = hi - lo
        # digit i is "0" iff sets[lo + i] lies within the bank
        digits = format(meet >> len(self.sets) - hi & ~(-1 << width), f"0{width}b")
        # compress() costs per set in the slice, find() per set kept; find
        # wins below about one kept set in 16 (stars and K_{2,m} keep fewer
        # than 1 in 100, random graphs about 1 in 4)
        if digits.count("0") * 16 > width:
            return list(compress(self.sets[lo:hi], digits.encode().translate(_KEEP)))
        kept = []
        i = digits.find("0")
        while i >= 0:
            kept.append(self.sets[lo + i])
            i = digits.find("0", i + 1)
        return kept


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise BudgetExceededError(f"oracle search for n={g.n} exceeds the limit {limit}")


def feasible(g: Graph, b: int, limit: int = DEFAULT_SEARCH_LIMIT) -> SearchResult:
    """Decide feasibility at boat capacity b; shortest schedule when feasible.

    Breadth-first over bank states, each state's cargos ascending by size,
    then mask.  A departure bank has the same legal cargos whichever side
    the boat leaves it from, so its list is cut once per call from a table
    of every independent set of g and serves both states that leave it.
    The table is built in full before the search, so a search that ends
    after a few states still pays for every independent set of g.
    """
    if b < 0:
        raise ValueError("negative boat capacity")
    _check_limit(g, limit)
    if g.n == 0:
        return SearchResult(True, 0, Schedule(b, ()), 0)
    return _search(g, b, _SetTable(g))


def _search(g: Graph, b: int, table: _SetTable) -> SearchResult:
    full = g.full_mask
    goal = full << 1 | 1  # everything on the right, boat with it
    # parent state of each discovered state; the cargo is (state ^ parent) >> 1.
    # The start state, everything and the boat on the left, is 0.
    parents: dict[int, int] = {0: -1}
    queue = deque([0])
    lists: dict[int, list[int]] = {}  # departure bank -> table.remainders
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
        left_behind = lists.get(bank)
        if left_behind is None:
            left_behind = lists[bank] = table.remainders(full, bank, b)
        fresh = [nxt for j in left_behind if (nxt := base ^ j) not in parents]
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
    cut their cargo lists from one independent-set table, and beta is read
    off it: its first set is a largest one, so beta = n - alpha.  A passed
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
