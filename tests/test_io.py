import json

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
from brute import brute_report_json
from test_cover import ties_below_alpha


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

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("Bw\n") == gen.complete(3)

    def test_payload_too_short(self):
        with pytest.raises(FormatError):
            parse_graph6("D?")

    def test_payload_too_long(self):
        with pytest.raises(FormatError):
            parse_graph6("D???")

    def test_out_of_range_byte(self):
        with pytest.raises(FormatError):
            parse_graph6("B" + chr(32))
        with pytest.raises(FormatError, match="outside 63..126"):
            parse_graph6("B!")

    def test_nonzero_padding_rejected(self):
        # n=3 uses 3 of 6 payload bits; 'y' = 111010 has padding bit set
        with pytest.raises(FormatError):
            parse_graph6("By")

    def test_extended_header_rejected(self):
        with pytest.raises(FormatError):
            parse_graph6("~??")

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
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
