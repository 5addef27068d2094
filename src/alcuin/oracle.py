"""Ground truth by brute force: breadth-first search over bank states.

The bank the boat last left is always an independent set K: empty at the
start and at the goal, and the set left behind after every move.  So a
state is an index into one table of every independent set (from the
enumerator in `ferry` that the five-set search also walks), naming K, plus
the boat's side, packed as ``i << 1 | side`` (side 0 = left).  The legal
moves from it leave behind the sets J that avoid K with |J| >= n - |K| - b
and carry ``full ^ K ^ J``.  The table runs descending by size, then mask,
so they are one bitmap over it, a prefix by size less the sets that meet
K (an OR of per-vertex membership bitmaps), and ascending index is
ascending cargo by size, then mask: BFS tie-breaks, and so
shortest-schedule traces, are fixed.  The membership bitmaps are the
table transposed without a Python loop over the sets: the sets are packed
as 64-bit words, and each vertex's bitmap is a strided byte slice of
them, translated to binary digits and read by int().  One bitmap of
unseen states per boat side drops, by one AND, the moves to states
already seen before any is listed, the visited-bitmap test of
direction-optimizing BFS (Beamer, Asanovic and Patterson, SC 2012): on
the benchmark's oracle12 graphs only 71,140 of 1,550,363 legal moves lead
somewhere new.

The trade-off: the table is built in full before the search, so a search
that stops early still pays for every independent set of the graph, and
the vertex limit (errors.check_limit) is checked before it is built.  At
the default limit of 12 vertices that is at most 4,096 sets.  Above it the
cost grows with the table, not with the search: ``feasible(star(15), 1,
limit=64)`` builds 32,769 sets to expand 33 states, about 9 ms where a
per-state search takes 0.3 ms.  The enumerator's cap raises
BudgetExceededError past 65,536 sets, whatever the limit, and a search
holds two parent lists of len(sets) entries, plus the chunks not yet
expanded, each a bitmap from its lowest state to its highest, so that
bounds the search too: the search of ``feasible(edgeless(16), 1,
limit=16)``, at the cap, peaks at about 5 MiB on top of its table.

The oracle is the independent side of every cross-check, so it shares no
code with the cover, classifier or construction modules: its whole import
closure is `graph`, `errors` and `ferry` (the rules of a crossing), and
alcuin_exact computes its own vertex cover number, n minus the size of the
first (largest) set in its table.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass

from .errors import check_limit
from .graph import Graph
from .ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule, _independent_sets

DEFAULT_SEARCH_LIMIT = 12

# _DIGITS[j] maps a byte to b"1" or b"0" by its bit j
_DIGITS = [bytes(b"01"[x >> j & 1] for x in range(256)) for j in range(8)]


@dataclass(frozen=True)
class SearchResult:
    feasible: bool
    min_crossings: int | None
    schedule: Schedule | None
    states_expanded: int


class _SetTable:
    """Every independent set of one graph, descending by size, then mask;
    ``ends[k]`` counts the sets of size at least k, and bit i of
    ``members[v]`` is set iff v is in sets[i]."""

    def __init__(self, g: Graph) -> None:
        sets = _independent_sets(g.adj, g.full_mask)
        sets.sort(reverse=True)
        sets.sort(key=int.bit_count, reverse=True)  # stable: mask order holds
        ends = [0] * (g.n + 2)
        for s in sets:
            ends[s.bit_count()] += 1
        for k in range(g.n, -1, -1):
            ends[k] += ends[k + 1]
        # the sets, last one first, as 8-byte little-endian words (every
        # set fits one: graph.MAX_VERTICES is 64): byte v >> 3 of every
        # word, read in turn, is a string of bytes whose bit v & 7 spells
        # vertex v's bitmap, sets[0] in the lowest bit
        words = array("Q", reversed(sets))
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
        self.sets = sets
        self.ends = ends
        self.members = [int(raw[v >> 3 :: 8].translate(_DIGITS[v & 7]), 2) for v in range(g.n)]

    def cuts(self, b: int) -> list[int]:
        """Bit i of ``cuts(b)[k]`` is set iff a boat of capacity b, across
        from a far bank of k vertices, may leave sets[i] behind by size: it
        is at most b smaller than the boat's bank.  Less the sets that meet
        the far bank, that is every legal move, and ascending i is
        ascending cargo ``full ^ far ^ sets[i]``."""
        n = len(self.ends) - 2
        return [~(-1 << self.ends[max(n - k - b, 0)]) for k in range(n + 1)]


def feasible(g: Graph, b: int, limit: int = DEFAULT_SEARCH_LIMIT) -> SearchResult:
    """Decide feasibility at boat capacity b; shortest schedule when feasible.

    Breadth-first over bank states, each state's cargos ascending by size,
    then mask, listing only the moves to states not yet seen.  Every
    independent set of g is listed first, even for a short search, and past
    65,536 of them it raises BudgetExceededError at any limit.  The empty
    graph needs no search, so no limit applies to it.
    """
    if b < 0:
        raise ValueError("negative boat capacity")
    if g.n == 0:
        return SearchResult(True, 0, Schedule(b, ()), 0)
    check_limit("oracle search", g.n, limit)
    return _search(g, b, _SetTable(g))


def _search(g: Graph, b: int, table: _SetTable) -> SearchResult:
    """Breadth-first search from everything on the left to the goal.

    A state ``i << 1 | side`` has the boat on side and sets[i] on the far
    bank; its bit i in ``unseen[side]`` is cleared when it is discovered.
    Each expansion that discovers anything queues one chunk: the boat's new
    side, the bitmap of legal moves ``cuts[|far|] & ~meet`` (`_SetTable.cuts`)
    less the states seen, ``& unseen[side]``: the states discovered,
    shifted down by its lowest index, that index, and the expanded state,
    their parent.  (Unshifted, a chunk of a few states far down a large
    table would hold a bitmap over most of it.)  A chunk at the front of
    the queue is expanded lowest bit first, ascending index (cargo) order,
    so the states leave the queue in the order a queue of single states,
    extended by each expansion's discoveries in cargo order, would yield:
    expansions, parents and states_expanded do not change.  Only a state's
    own chunk names its parent, so ``parents[side][i]`` is written when the
    state is expanded, and every state on the path back from the goal has
    been.  The goal, the empty far bank with the boat on the right, is the
    top bit of ``unseen[1]`` (``unseen[0]`` lacks it: that state is the
    start), so it is caught when discovered, and the path is read back
    from the state that discovered it to the start, whose parent is -1.
    """
    sets = table.sets
    empty = len(sets) - 1  # sets[-1] is the empty set
    # parents[side][i]: the state that discovered i << 1 | side
    parents = ([-1] * len(sets), [-1] * len(sets))
    queue = deque([(0, 1, empty, -1)])
    # unseen[side]: bit i set while state i << 1 | side is undiscovered
    unseen = [~(-1 << empty), ~(-1 << len(sets))]
    cuts, members = table.cuts(b), table.members
    expanded = 0
    last = -1  # the state that discovers the goal
    while queue and last < 0:
        side, chunk, base, parent = queue.popleft()
        parent_of = parents[side]
        cross = side ^ 1  # the boat crosses: its side in every next state
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            i = base + low.bit_length() - 1
            parent_of[i] = parent
            expanded += 1
            far = sets[i]
            cut = cuts[far.bit_count()]
            meet = 0  # the sets that meet far: none may stay behind
            while far:
                bit = far & -far
                far ^= bit
                meet |= members[bit.bit_length() - 1]
            new = cut & ~meet & unseen[cross]
            if new:
                if new >> empty:  # the goal
                    last = i << 1 | side
                    break
                unseen[cross] ^= new
                first = (new & -new).bit_length() - 1
                queue.append((cross, new >> first, first, i << 1 | side))
    if last < 0:
        return SearchResult(False, None, None, expanded)
    moves: list[Move] = []
    state, prev = empty << 1 | 1, last
    while prev >= 0:
        direction = RIGHT_TO_LEFT if prev & 1 else LEFT_TO_RIGHT
        moves.append(Move(direction, g.full_mask ^ sets[prev >> 1] ^ sets[state >> 1]))
        state, prev = prev, parents[prev & 1][prev >> 1]
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
    beta = n - alpha.  A passed beta that differs from it raises ValueError.
    """
    check_limit("oracle search", g.n, limit)
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
