"""Slow, obviously-correct reference computations for cross-checking.

These deliberately use different algorithms than the package: covers come
from subset enumeration by ascending size, girth from per-edge shortest
paths, alpha and claw-freeness from raw combinations, the ferry search
rebuilds every state's cargos from scratch, the five-set search tries every
partition of X, the analysis report is a dict of lists passed to
json.dumps, and graph6 moves one upper-triangle pair at a time.  Small n
only, apart from the report and graph6.
"""

import json
from collections import deque
from itertools import combinations, product

from alcuin import (
    Graph,
    StructureWitness,
    bits,
    girth,
    is_claw_free,
    is_independent,
    is_regular,
    mask_of,
    vertices_of,
)
from alcuin.classify import Classification
from alcuin.cover import CoverReport
from alcuin.errors import BudgetExceededError
from alcuin.ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule
from alcuin.io import _REASON_KINDS, FormatError, _witness_fields
from alcuin.oracle import SearchResult


def brute_min_covers(g: Graph) -> tuple[int, list[int]]:
    """(beta, all minimum covers as ascending masks) by size-first scan."""
    edges = g.edges()
    for k in range(g.n + 1):
        covers = []
        for combo in combinations(range(g.n), k):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                covers.append(mask_of(combo))
        if covers:
            return k, sorted(covers)
    raise AssertionError("unreachable: V covers everything")


def brute_alpha(g: Graph) -> int:
    best = 0
    for k in range(1, g.n + 1):
        if any(
            is_independent(g, mask_of(c)) for c in combinations(range(g.n), k)
        ):
            best = k
    return best


def brute_girth(g: Graph) -> int | None:
    """Shortest cycle length: for each edge uv, shortest u-v path avoiding uv."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in bits(g.adj[x]):
                if {x, y} == {u, v} or y in dist:
                    continue
                dist[y] = dist[x] + 1
                queue.append(y)
        if v in dist:
            cycle = dist[v] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def brute_bipartite(g: Graph) -> tuple[int, int] | None:
    """Sides (a, b) of a proper two-colouring, or None when there is none,
    by trying every colouring.  Colourings come in lexicographic order of
    the colours of vertices 0, 1, ..., so the first proper one puts the
    lowest vertex of each component on side a."""
    edges = g.edges()
    for colours in product((0, 1), repeat=g.n):
        if all(colours[u] != colours[v] for u, v in edges):
            b = sum(c << v for v, c in enumerate(colours))
            return g.full_mask ^ b, b
    return None


def brute_is_claw_free(g: Graph) -> bool:
    """No vertex has three pairwise non-adjacent neighbors, by trying every
    neighbour triple."""
    for v in range(g.n):
        nb = vertices_of(g.adj[v])
        if len(nb) < 3:
            continue
        for a, b, c in combinations(nb, 3):
            if not (g.adj[a] >> b & 1 or g.adj[a] >> c & 1 or g.adj[b] >> c & 1):
                return False
    return True


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in bits(g.adj[x]):
            if not seen >> y & 1:
                seen |= 1 << y
                queue.append(y)
    return seen == g.full_mask


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Graph with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_cargo_choices(adj: tuple[int, ...], bank: int, b: int) -> list[int]:
    """Legal cargos by walking every submask of the bank: those of at most b
    vertices whose removal leaves the bank independent, ascending by size,
    then mask."""
    out = []
    sub = bank
    while True:
        # sub runs over all submasks of bank descending; rest is the bank remainder
        if sub.bit_count() <= b:
            rest = bank ^ sub
            if all(not adj[v] & rest for v in bits(rest)):
                out.append((sub.bit_count(), sub))
        if sub == 0:
            break
        sub = (sub - 1) & bank
    return [sub for _, sub in sorted(out)]


def brute_maximum_independent_sets(g: Graph) -> tuple[int, list[int]]:
    """(alpha, every maximum independent set) by one vertex-order DFS over
    the whole graph, cut only when the vertices left cannot reach the best
    size seen."""
    n, adj = g.n, g.adj
    best = -1
    found: list[int] = []

    def rec(v: int, mask: int, size: int) -> None:
        nonlocal best, found
        if size + (n - v) < best:
            return
        if v == n:
            if size > best:
                best = size
                found = [mask]
            elif size == best:
                found.append(mask)
            return
        rec(v + 1, mask, size)
        if not adj[v] & mask:
            rec(v + 1, mask | (1 << v), size + 1)

    rec(0, 0, 0)
    return best, found


def brute_independent_subsets(g: Graph, base: int) -> list[tuple[int, int, int]]:
    """Nonempty independent subsets of base as (size, subset, neighborhood),
    ascending, by walking every submask of base."""
    out = []
    sub = base
    while sub:
        if is_independent(g, sub):
            nbrs = 0
            for v in bits(sub):
                nbrs |= g.adj[v]
            out.append((sub.bit_count(), sub, nbrs))
        sub = (sub - 1) & base
    return sorted(out)


def brute_exists_2x_witness(g: Graph, cover: int) -> int | None:
    """First nonempty independent A within the cover, by size then mask,
    with at most 2|A| neighbors outside the cover."""
    outside = g.full_mask & ~cover
    for size, sub, nbrs in brute_independent_subsets(g, cover):
        if (nbrs & outside).bit_count() <= 2 * size:
            return sub
    return None


def brute_hall_strict(g: Graph, cover: int) -> bool:
    """Every nonempty independent A within the cover has more than |A|
    neighbors outside the cover."""
    outside = g.full_mask & ~cover
    return all(
        (nbrs & outside).bit_count() > size
        for size, _, nbrs in brute_independent_subsets(g, cover)
    )


def brute_classification_condition(g: Graph, cover: int) -> tuple[int, int] | None:
    """First (s, t) of the unbounded pair scan, or None when no pair violates.

    Every unordered pair of nonempty independent subsets S, T of the cover
    (S = T allowed), in order of |S|+|T|, then |S|, then the masks; a pair
    violates when S and T have at most |S|+|T| common neighbors outside the
    cover.
    """
    outside = g.full_mask & ~cover
    by_size: dict[int, list[tuple[int, int]]] = {}
    for size, sub, nbrs in brute_independent_subsets(g, cover):
        by_size.setdefault(size, []).append((sub, nbrs & outside))
    max_size = max(by_size, default=0)
    for total in range(2, 2 * max_size + 1):
        for s_size in range(max(1, total - max_size), total // 2 + 1):
            t_size = total - s_size
            if s_size not in by_size or t_size not in by_size:
                continue
            for s_mask, s_nbrs in by_size[s_size]:
                for t_mask, t_nbrs in by_size[t_size]:
                    if s_size == t_size and t_mask < s_mask:
                        continue
                    if (s_nbrs & t_nbrs).bit_count() <= total:
                        return s_mask, t_mask
    return None


def _grown_cargo_choices(adj: tuple[int, ...], bank: int, b: int) -> list[int]:
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


def brute_feasible(g: Graph, b: int) -> SearchResult:
    """Breadth-first ferry search that builds each state's legal cargos from
    scratch, growing the independent remainders of its departure bank; no
    search limit."""
    if b < 0:
        raise ValueError("negative boat capacity")
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
        for cargo in _grown_cargo_choices(adj, bank, b):
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


def brute_report_json(g: Graph, cls: Classification, covers: CoverReport) -> str:
    """Analysis document built as a dict, each cover a list of ints, then
    written by json.dumps."""
    gi = girth(g)
    report = {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "alpha": g.n - covers.beta,
        "beta": covers.beta,
        "covers": [vertices_of(c) for c in covers.covers],
        "covers_complete": covers.complete,
        "unique_cover": covers.unique,
        "girth": "acyclic" if gi is None else gi,
        "regular": is_regular(g),
        "claw_free": is_claw_free(g),
        "class": cls.verdict,
        "c": cls.c,
        "reason": _REASON_KINDS[type(cls.reason)],
        "witness": _witness_fields(cls.reason),
    }
    return json.dumps(report)


def brute_parse_graph6(text: str) -> Graph:
    """graph6 decoded one pair at a time, with the same checks, order and
    messages as `alcuin.io.parse_graph6`."""
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise FormatError("extended graph6 size fields are not supported")
    n = head - 63
    if not 0 <= n <= 62:
        raise FormatError(f"invalid graph6 size byte {head}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = s[1:]
    if len(payload) != need:
        raise FormatError(f"graph6 payload for n={n} must be {need} bytes, got {len(payload)}")
    values = []
    for ch in payload:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise FormatError(f"graph6 byte {ord(ch)} outside 63..126")
        values.append(v)
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            bit = values[k // 6] >> (5 - k % 6) & 1
            if bit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    if need and values[-1] & ((1 << (need * 6 - nbits)) - 1):
        raise FormatError("nonzero graph6 padding bits")
    return Graph(n, tuple(adj))


def brute_serialize_graph6(g: Graph) -> str:
    """graph6 encoded one pair at a time through a six-bit accumulator."""
    if g.n > 62:
        raise ValueError("graph6 short form is capped at 62 vertices")
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def brute_structure_search(g: Graph, b: int, limit: int = 10) -> StructureWitness | None:
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
