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
direction-optimizing BFS (Beamer, Asanovic and Patterson, SC 2012).

The search stops halfway.  Swapping the banks maps the state graph onto
itself and the start onto the goal, so the first discovered state whose
mirror image (the same K, the boat on the other side) is already
discovered lies halfway along a shortest schedule (the proof is in
`_search`): a bidirectional search (Pohl, "Bi-directional search", 1971)
whose backward half is the forward half mirrored, for one more AND per
expansion.

The trade-off: the table is built in full before the search, so a search
that stops early still pays for every independent set of the graph, and
the vertex limit (errors.check_limit) is checked before it is built.  At
the default limit of 12 vertices that is at most 4,096 sets, and over the
benchmark's 249 oracle12 graphs the tables take 11.6 of alcuin_exact's
25.3 ms (best of 7), close to half.  Above it the cost grows with the
table, not with the search: ``feasible(star(15), 1, limit=64)`` builds
32,769 sets to expand 33 states, about 8 ms where a per-state search
takes 0.3 ms.  The enumerator's cap raises BudgetExceededError past 65,536
sets, whatever the limit, and a search holds two parent lists of
len(sets) entries, plus the chunks not yet expanded, each a bitmap from
its lowest state to its highest, so that bounds the search too: the
search of ``feasible(edgeless(16), 1, limit=16)``, at the cap, peaks at
about 5 MiB on top of its table.

The oracle is the independent side of every cross-check, so it shares no
code with the cover, classifier or construction modules: its whole import
closure is `graph`, `errors` and `ferry` (the rules of a crossing), and
alcuin_exact computes its own vertex cover number, n minus the size of the
first (largest) set in its table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import check_limit
from .graph import Graph, packed_masks
from .ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule, _independent_sets

DEFAULT_SEARCH_LIMIT = 12

# _DIGITS[j] maps a byte to b"1" or b"0" by its bit j
_DIGITS = [bytes(b"01"[x >> j & 1] for x in range(256)) for j in range(8)]


@dataclass(frozen=True, slots=True)
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
        # the sets, last one first, as 8-byte little-endian words: byte
        # v >> 3 of every word, read in turn, is a string of bytes whose
        # bit v & 7 spells vertex v's bitmap, sets[0] in the lowest bit
        raw = packed_masks(reversed(sets))
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
    then mask, listing only the moves to states not yet seen, until a state
    meets its mirror image.  Every independent set of g is listed first,
    even for a short search, and past 65,536 of them it raises
    BudgetExceededError at any limit.  The empty graph needs no search, so
    no limit applies to it.
    """
    if b < 0:
        raise ValueError("negative boat capacity")
    if g.n == 0:
        return SearchResult(True, 0, Schedule(b, ()), 0)
    check_limit("oracle search", g.n, limit)
    return _search(g, b, _SetTable(g))


def _search(g: Graph, b: int, table: _SetTable) -> SearchResult:
    """Breadth-first search from the start until a state meets its mirror.

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
    extended by each expansion's discoveries in cargo order, would yield.
    Only a state's own chunk names its parent, so ``parents[side][i]`` is
    written when the state is expanded.

    The search stops at the first discovered state (j, cross) whose mirror,
    its partner (j, side), is already discovered: ``new & ~unseen[side]``.
    That the first such meeting gives a shortest schedule:

    - Every move can be undone.  From far bank K a move leaves J behind and
      carries ``full ^ K ^ J``; from far bank J the move that leaves K
      behind carries the same cargo back, and K is independent.  The moves
      of a state depend on K alone, not on the boat's side.
    - So swapping the banks, which maps (K, s) to (K, 1 - s), maps moves to
      moves, and the start (empty, left) to the goal (empty, right): a
      state's distance to the goal is its mirror's depth from the start.
    - Every move flips the boat, so a state's depth has its side's parity,
      and a state and its mirror never share a depth.
    - A meeting at depth D, with its partner at depth D' (discovered, so
      D' <= D, and D' != D by parity), is a schedule of D + D' moves: the
      path to the new state, then the partner's path mirrored and reversed.
      Each of its moves keeps its direction and cargo (a move from side s
      stays a move from side s).  So D + D' >= L, the shortest length.
    - On a shortest schedule of length L (odd), the state after (L + 1) / 2
      moves has depth (L + 1) / 2 and its mirror depth (L - 1) / 2, so the
      search meets by the time it discovers the states of depth (L + 1) / 2.
      The first meeting thus has D <= (L + 1) / 2 and D' <= D - 1, so
      D + D' <= L: it is exactly L, with D = (L + 1) / 2 and D' = D - 1.

    Discovering the goal is meeting the start, the one state missing from
    ``unseen[0]``, whose mirror the goal is.  The partner lies at depth
    D - 1, the depth being expanded.  It is the start, met by the start's
    own expansion, or it waits in the rest of the chunk being walked or in
    a queued chunk of the same side, which alone names its parent.  No
    other partner was expanded before: the mirror of the state being
    expanded is a neighbour of the partner, so it was discovered by then,
    and its mirror, the state being expanded, too; that pair would have met
    first.  An infeasible search meets nothing and explores the start's
    whole component.
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
    while queue:
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
            if not new:
                continue
            hit = new & ~unseen[side]
            if hit:
                j = (hit & -hit).bit_length() - 1
                partner = parent_of[j]  # the start, expanded already
                for s, c, lo, up in ((side, chunk, base, parent), *queue):
                    if s == side and j >= lo and c >> (j - lo) & 1:
                        partner = up  # the rest of this chunk, or a queued one
                        break
                moves = _moves_back(sets, parents, g.full_mask, j << 1 | cross, i << 1 | side)
                moves.reverse()
                moves += _moves_back(sets, parents, g.full_mask, j << 1 | side, partner)
                return SearchResult(True, len(moves), Schedule(b, tuple(moves)), expanded)
            unseen[cross] ^= new
            first = (new & -new).bit_length() - 1
            queue.append((cross, new >> first, first, i << 1 | side))
    return SearchResult(False, None, None, expanded)


def _moves_back(
    sets: list[int], parents: tuple[list[int], list[int]], full: int, state: int, prev: int
) -> list[Move]:
    """The moves of the path from the start to state, whose parent is prev,
    last move first; every state before state has its parent recorded."""
    moves: list[Move] = []
    while prev >= 0:
        direction = RIGHT_TO_LEFT if prev & 1 else LEFT_TO_RIGHT
        moves.append(Move(direction, full ^ sets[prev >> 1] ^ sets[state >> 1]))
        state, prev = prev, parents[prev & 1][prev >> 1]
    return moves


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
