import json
import random

import pytest

from alcuin import Graph, Move, Schedule, classify, classify_covers, min_covers
from alcuin import generators as gen
from alcuin.io import (
    _REASON_KINDS,
    FormatError,
    parse_edge_list,
    parse_graph6,
    parse_schedule_json,
    report_json,
    schedule_json,
    serialize_edge_list,
    serialize_graph6,
)
from alcuin.ferry import LEFT_TO_RIGHT, RIGHT_TO_LEFT
from brute import brute_parse_graph6, brute_report_json, brute_serialize_graph6
from test_cover import ties_below_alpha


def _seeded_graphs():
    """Seeded G(n, p) over the whole short form, n = 0..62."""
    return [
        gen.random_graph(n, p, seed)
        for n in range(63)
        for p in (0, 0.1, 0.5, 1)
        for seed in range(3)
    ]


def _junk_graph6(count, seed):
    """Short strings of characters 32..129, and valid strings with one
    character replaced, so that every check of the parser is reached."""
    rng = random.Random(seed)
    valid = [serialize_graph6(gen.random_graph(rng.randrange(9), 0.5, k)) for k in range(50)]
    junk = []
    for _ in range(count):
        if rng.random() < 0.5:
            junk.append("".join(chr(rng.randrange(32, 130)) for _ in range(rng.randrange(8))))
        else:
            s = rng.choice(valid)
            k = rng.randrange(len(s))
            junk.append(s[:k] + chr(rng.randrange(32, 130)) + s[k + 1 :])
    return junk


def _parsed(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc)


class TestGraph6:
    def test_goldens(self):
        assert serialize_graph6(gen.complete(3)) == "Bw"
        assert serialize_graph6(gen.path(3)) == "Bg"
        assert serialize_graph6(gen.edgeless(1)) == "@"
        assert parse_graph6("Bw") == gen.complete(3)
        assert parse_graph6("Bg") == gen.path(3)
        assert parse_graph6("@") == gen.edgeless(1)
        assert parse_graph6("?") == Graph(0, ())

    def test_roundtrip_all_small_graphs(self):
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                assert parse_graph6(serialize_graph6(g)) == g

    def test_roundtrip_strings(self):
        for s in ["Bw", "Bg", "@", "?", "D??", "DUO", "IheA@GUAo"]:
            assert serialize_graph6(parse_graph6(s)) == s

    def test_codec_matches_the_pairwise_reference(self):
        graphs = [g for n in range(7) for g in gen.all_labeled_graphs(n)] + _seeded_graphs()
        texts = []
        for g in graphs:
            text = serialize_graph6(g)
            assert text == brute_serialize_graph6(g), g
            texts.append(text)
        for text in texts + _junk_graph6(4000, 1):
            assert _parsed(parse_graph6, text) == _parsed(brute_parse_graph6, text), text

    def test_codec_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in _seeded_graphs():
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
            assert serialize_graph6(g) == theirs
            assert parse_graph6(theirs) == g

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("Bw\n") == gen.complete(3)

    def test_payload_too_short(self):
        with pytest.raises(FormatError, match="payload for n=5 must be 2 bytes, got 1"):
            parse_graph6("D?")

    def test_payload_too_long(self):
        with pytest.raises(FormatError, match="payload for n=5 must be 2 bytes, got 3"):
            parse_graph6("D???")

    def test_out_of_range_byte(self):
        # strip() takes a trailing space off, so the payload comes up short
        with pytest.raises(FormatError, match="payload for n=3 must be 1 bytes, got 0"):
            parse_graph6("B" + chr(32))
        with pytest.raises(FormatError, match="graph6 byte 32 outside 63..126"):
            parse_graph6("D" + chr(32) + "?")
        with pytest.raises(FormatError, match="outside 63..126"):
            parse_graph6("B!")

    @pytest.mark.parametrize("head", [">", "!", chr(127), chr(200)])
    def test_invalid_size_byte(self, head):
        with pytest.raises(FormatError, match=f"invalid graph6 size byte {ord(head)}$"):
            parse_graph6(head + "??")

    def test_nonzero_padding_rejected(self):
        # n=3 uses 3 of 6 payload bits; 'y' = 111010 has padding bit set
        with pytest.raises(FormatError, match="nonzero graph6 padding bits"):
            parse_graph6("By")

    def test_each_padding_bit_rejected(self):
        checked = 0
        for n in range(13):
            nbits = n * (n - 1) // 2
            for g in (gen.edgeless(n), gen.complete(n)):
                payload = [ord(ch) - 63 for ch in serialize_graph6(g)[1:]]
                for k in range(nbits, 6 * len(payload)):
                    bad = payload.copy()
                    bad[k // 6] |= 1 << (5 - k % 6)
                    text = chr(63 + n) + "".join(chr(63 + v) for v in bad)
                    with pytest.raises(FormatError, match="nonzero graph6 padding bits"):
                        parse_graph6(text)
                    checked += 1
        # n = 2, 3, 5, 6, 7, 8, 10, 11 have padding; n = 4, 9, 12 fill their bytes
        assert checked == 2 * (5 + 3 + 2 + 3 + 3 + 2 + 3 + 5)

    def test_extended_header_rejected(self):
        with pytest.raises(FormatError, match="extended graph6 size fields are not supported"):
            parse_graph6("~??")

    def test_empty_rejected(self):
        with pytest.raises(FormatError, match="empty graph6 string"):
            parse_graph6("")

    def test_oversized_graph_rejected(self):
        with pytest.raises(ValueError):
            serialize_graph6(gen.edgeless(63))


class TestEdgeList:
    def test_parse_path(self):
        assert parse_edge_list("n 3\n0 1\n1 2") == gen.path(3)

    def test_comments_and_blanks(self):
        text = "# a path\n\nn 3  # three vertices\n0 1\n1 2\n"
        assert parse_edge_list(text) == gen.path(3)

    def test_duplicates_collapse(self):
        assert parse_edge_list("n 2\n0 1\n1 0") == gen.complete(2)

    def test_self_loop_with_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edge_list("n 2\n0 0")

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("vertices 3\n0 1")

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_edge_list("")

    def test_out_of_range_endpoint(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edge_list("n 2\n0 5")

    def test_non_integer(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_edge_list("n 2\n0 1\nx y")
        with pytest.raises(FormatError, match="line 1: bad vertex count"):
            parse_edge_list("n x\n")

    def test_edge_line_needs_two_fields(self):
        with pytest.raises(FormatError, match="line 2: expected 'u v'"):
            parse_edge_list("n 3\n0 1 2\n")

    def test_vertex_count_capped_before_allocation(self):
        # a huge header must fail on the count, not on allocating n slots
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("n 100000000\n0 1")
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("n 65")
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("n -1")
        assert parse_edge_list("n 64").n == 64

    def test_serialize_sorted(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert serialize_edge_list(g) == "n 3\n0 1\n1 2\n"

    def test_roundtrip(self):
        for seed in range(10):
            g = gen.random_graph(7, 0.4, seed)
            assert parse_edge_list(serialize_edge_list(g)) == g


class TestScheduleJson:
    def test_classic_first_move_carries_goat(self):
        from alcuin import alcuin_exact

        _, sched = alcuin_exact(gen.path(3))
        doc = json.loads(schedule_json(sched))
        assert len(doc["moves"]) == 7
        assert doc["moves"][0] == {"dir": "LR", "cargo": [1]}

    def test_roundtrip(self):
        sched = Schedule(2, (Move(LEFT_TO_RIGHT, 0b011), Move(RIGHT_TO_LEFT, 0)))
        assert parse_schedule_json(schedule_json(sched)) == sched

    def test_highest_vertex_id_accepted(self):
        doc = '{"capacity": 1, "moves": [{"dir": "LR", "cargo": [63]}]}'
        assert parse_schedule_json(doc).moves == (Move(LEFT_TO_RIGHT, 1 << 63),)

    def test_deterministic_bytes(self):
        sched = Schedule(2, (Move(LEFT_TO_RIGHT, 0b101),))
        assert schedule_json(sched) == schedule_json(sched)

    def test_negative_cargo_mask_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            schedule_json(Schedule(1, (Move(LEFT_TO_RIGHT, -2),)))

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            "{}",
            '{"capacity": -1, "moves": []}',
            '{"capacity": 1, "moves": [{"dir": "UP", "cargo": []}]}',
            '{"capacity": 1, "moves": [{"dir": "LR", "cargo": [-2]}]}',
            '{"capacity": 1, "moves": [{"dir": "LR"}]}',
            '{"capacity": true, "moves": []}',
            '{"capacity": false, "moves": []}',
            '{"capacity": 1, "moves": [{"dir": "LR", "cargo": [true]}]}',
            '{"capacity": 1, "moves": [{"dir": "LR", "cargo": [64]}]}',
            '{"capacity": 1, "moves": [{"dir": "LR", "cargo": [100000000000000000000]}]}',
            pytest.param("[" * 200000, id="nested_200000_deep"),
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(FormatError):
            parse_schedule_json(doc)


def _matching(m):
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


# min_covers' vertex limit, raised so that every graph below fits
_LIMIT = 64


def _assert_same_report(g):
    covers = min_covers(g, _LIMIT)
    cls = classify_covers(g, covers)
    reference = brute_report_json(g, cls, covers)
    assert report_json(g, cls, covers) == reference


def _byte_edge_graphs():
    """Edgeless, complete and perfect-matching graphs at every n where a
    cover mask gains or fills a byte, so at every byte width from 1 to 8;
    matchings while their 2^(n/2) covers stay a short list."""
    for n in (0, 1, 7, 8, 9, 15, 16, 17, 24, 25, 40, 41, 48, 56, 57, 63, 64):
        yield pytest.param(gen.edgeless(n), id=f"edgeless{n}")
        yield pytest.param(gen.complete(n), id=f"complete{n}")
        if n % 2 == 0 and 0 < n <= 16:
            yield pytest.param(_matching(n // 2), id=f"matching{n // 2}")


class TestReportText:
    """report_json writes the covers from byte fragments; the reference
    builds every cover as a list and hands the dict to json.dumps."""

    def test_every_small_labeled_graph(self):
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                _assert_same_report(g)

    @pytest.mark.parametrize("g", list(_byte_edge_graphs()))
    def test_byte_width_edges(self, g):
        _assert_same_report(g)

    @pytest.mark.parametrize(
        "g",
        [
            _matching(14),
            _matching(16),
            ties_below_alpha(),
            gen.hypercube(5),
            gen.complete_bipartite(11, 23),
        ],
        ids=["matching14", "matching16", "ties_below_alpha", "Q5", "K11,23"],
    )
    def test_large_cover_lists(self, g):
        _assert_same_report(g)

    def test_high_vertices_in_every_byte(self):
        # covers that reach into the last byte of a 64-vertex mask
        g = Graph.from_edges(64, [(0, 63), (8, 55), (31, 32)])
        assert len(min_covers(g, _LIMIT).covers) == 8
        _assert_same_report(g)

    def test_row_with_empty_low_byte(self):
        # the one row of this graph opens with no vertex below 8, so the
        # text must be mended even though no other row needs it
        g = Graph.from_edges(10, [(9, v) for v in range(9)])
        assert min_covers(g, _LIMIT).covers == (1 << 9,)
        _assert_same_report(g)


class TestReport:
    def _report(self, g):
        return json.loads(report_json(g, classify(g), min_covers(g)))

    def test_claw_report(self):
        doc = self._report(gen.star(3))
        assert doc["class"] == "two" and doc["c"] == 2
        assert doc["beta"] == 1 and doc["alpha"] == 3
        assert doc["unique_cover"] and doc["covers"] == [[0]]
        assert doc["girth"] == "acyclic"
        assert doc["reason"] == "condition_holds"

    def test_empty_graph_report(self):
        doc = self._report(Graph(0, ()))
        assert doc["c"] == 0 and doc["reason"] == "degenerate"

    def test_key_order_pinned(self):
        doc = self._report(gen.cycle(4))
        assert list(doc) == [
            "n",
            "edges",
            "alpha",
            "beta",
            "covers",
            "covers_complete",
            "unique_cover",
            "girth",
            "regular",
            "claw_free",
            "class",
            "c",
            "reason",
            "witness",
        ]

    def test_json_deterministic_and_parseable(self):
        g = gen.cycle(5)
        text = report_json(g, classify(g), min_covers(g))
        assert text == report_json(g, classify(g), min_covers(g))
        doc = json.loads(text)
        assert doc["girth"] == 5 and doc["regular"] == 2

    def test_witness_fields(self):
        doc = self._report(gen.cycle(4))
        assert doc["reason"] == "multiple_covers"
        assert doc["witness"] == {"covers": [[0, 2], [1, 3]]}
        doc = self._report(gen.star(2))
        assert doc["reason"] == "pair_witness"
        assert doc["witness"] == {"cover": [0], "s": [0], "t": [0]}

    def test_reason_kinds_are_the_constructible_four(self):
        assert sorted(_REASON_KINDS.values()) == [
            "condition_holds",
            "degenerate",
            "multiple_covers",
            "pair_witness",
        ]
