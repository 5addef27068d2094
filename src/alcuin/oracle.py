"""Ground truth by brute force: breadth-first search over bank states.

A state is the right-bank contents plus the boat side, packed into one int
as ``right << 1 | side`` (side 0 = left).  From each state every cargo that
fits the boat and leaves the departure bank independent is a legal
crossing.  Legal cargos are generated directly rather than filtered from
all submasks of the bank: the remainders left behind are grown one vertex
at a time, a vertex joins only if none of its neighbours is already in the
remainder, and a remainder is dropped as soon as the vertices still to
come cannot bring it up to |bank| - b.  The cargos are then sorted
ascending by size, then mask, so BFS tie-breaks, and therefore
shortest-schedule traces, do not depend on the generation order.

The oracle is the independent side of every cross-check, so it shares no
code with the cover or classifier modules: alcuin_exact computes its own
vertex cover number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceededError
from .graph import Graph
from .schedule import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule

DEFAULT_SEARCH_LIMIT = 12


@dataclass(frozen=True)
class SearchResult:
    feasible: bool
    min_crossings: int | None
    schedule: Schedule | None
    states_expanded: int


def _cargo_choices(adj: tuple[int, ...], bank: int, b: int) -> list[int]:
    """Cargo subsets of at most b vertices leaving the rest of the bank
    independent, sorted ascending by size, then mask."""
    rests = [0]  # independent remainders over the bank vertices seen so far
    # |bank| - b minus the vertices still to come: the size a remainder must
    # already have to be filled up to what the boat can leave behind
    short = -b
    scan = bank
    while scan:
        low = scan & -scan
        scan ^= low
        short += 1
        nbrs = adj[low.bit_length() - 1]
        grown = [r | low for r in rests if not r & nbrs]
        if short > 0:
            grown += [r for r in rests if r.bit_count() >= short]
        else:
            grown += rests
        rests = grown
    cargos = [bank ^ r for r in rests]
    cargos.sort()
    cargos.sort(key=int.bit_count)
    return cargos


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise BudgetExceededError(f"oracle search for n={g.n} exceeds the limit {limit}")


def feasible(g: Graph, b: int, limit: int = DEFAULT_SEARCH_LIMIT) -> SearchResult:
    """Decide feasibility at boat capacity b; shortest schedule when feasible."""
    if b < 0:
        raise ValueError("negative boat capacity")
    _check_limit(g, limit)
    full = g.full_mask
    if full == 0:
        return SearchResult(True, 0, Schedule(b, ()), 0)
    adj = g.adj
    goal = full << 1 | 1  # everything on the right, boat with it
    # parent state of each discovered state; the cargo is (state ^ parent) >> 1.
    # The start state, everything and the boat on the left, is 0.
    parents: dict[int, int] = {0: -1}
    queue = deque([0])
    expanded = 0
    found = False
    while queue and not found:
        state = queue.popleft()
        expanded += 1
        right = state >> 1
        bank = right if state & 1 else full ^ right
        crossed = state ^ 1
        for cargo in _cargo_choices(adj, bank, b):
            nxt = crossed ^ cargo << 1
            if nxt in parents:
                continue
            parents[nxt] = state
            if nxt == goal:
                found = True
                break
            queue.append(nxt)
    if not found:
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


def _vertex_cover_number(adj: tuple[int, ...], rest: int) -> int:
    """Smallest vertex cover of the subgraph induced by rest.

    Takes the lowest vertex v with a neighbour in rest: a cover contains
    either v or all of v's neighbours.
    """
    while rest:
        low = rest & -rest
        nbrs = adj[low.bit_length() - 1] & rest
        if nbrs:
            break
        rest ^= low
    else:
        return 0
    with_v = 1 + _vertex_cover_number(adj, rest ^ low)
    with_nbrs = nbrs.bit_count() + _vertex_cover_number(adj, rest & ~(nbrs | low))
    return min(with_v, with_nbrs)


def alcuin_exact(
    g: Graph, limit: int = DEFAULT_SEARCH_LIMIT, beta: int | None = None
) -> tuple[int, Schedule]:
    """Exact Alcuin number with a witnessing shortest schedule.

    Tries b = max(beta, 1) first (capacity 0 moves nothing, so c >= 1 for
    n >= 1); on failure b+1 must succeed, which the cover-rides-along
    construction guarantees, and a miss there aborts loudly.  beta is always
    computed here; a passed beta that differs from it raises ValueError.
    """
    if g.n:  # the empty graph needs no search, so no limit applies to it
        _check_limit(g, limit)
    own_beta = _vertex_cover_number(g.adj, g.full_mask)
    if beta is not None and beta != own_beta:
        raise ValueError(f"beta={beta} is not the vertex cover number {own_beta}")
    if g.n == 0:
        return 0, Schedule(0, ())
    b = max(own_beta, 1)
    result = feasible(g, b, limit)
    if result.feasible:
        assert result.schedule is not None
        return b, result.schedule
    result = feasible(g, b + 1, limit)
    if not result.feasible:
        raise RuntimeError(
            f"no schedule at capacity {b + 1} despite the beta+1 guarantee (n={g.n})"
        )
    assert result.schedule is not None
    return b + 1, result.schedule
