"""Fuzz the command line's input channels with hostile input.

The `--gen` channel: specs built from every family name the CLI knows plus
junk names, each with zero to five fields drawn from small, negative and
5,000-digit integers, non-finite floats, empty fields, junk text and short
graph6 strings.  `alcuin generate` must answer each with exit 0 and one
graph6 line, or exit 2 and one `error:` line that does not leak the text of
an internal exception.

The other four channels: graph6 arguments to `analyze` and `schedule`,
edge-list files, schedule documents for `verify`, and `survey
--stdin-graph6` streams.  No exception may escape, the exit code must be
one the subcommand documents, and a nonzero exit prints one `error:` line
on stderr (argparse's usage text for a usage error), except exit 5, whose
one `Violation at` line goes to stdout, and exit 1, which names each
falsifying graph on stderr.
"""

import contextlib
import io as stdio
import json
import sys

from hypothesis import given, settings, strategies as st

from alcuin import cli, synthesize
from alcuin import generators as gen
from alcuin.io import parse_graph6, schedule_json, serialize_graph6

FAMILIES = sorted(cli._FIXED_FAMILIES) + ["pruefer", "product", "circulant"]
JUNK_NAMES = ["", "moebius", "STAR", "star ", "cycle3", "paper_family", "prüfer", "x:y"]
# well-formed fields, so that some specs build a graph
PLAIN = st.one_of(st.integers(0, 9).map(str), st.sampled_from(["0.5", "@", "A_", "Bw"]))
FIELDS = st.one_of(
    PLAIN,
    st.integers(-3, 70).map(str),
    st.integers(-(10**6), -1).map(str),
    st.sampled_from(["9" * 5000, "-" + "1" * 5000]),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "0.5", "1.5", "-0.1", ""]),
    st.sampled_from(["abc", " ", "0x10", "1_000", "٣", "1 2", "\t", "a\nb", "%"]),
    st.sampled_from(["@", "?", "A_", "Bw", "Bg", "Dhc", "~", "B", "C~~", "~~~"]),
)
LEAKED = ("list index out of range", "not enough values to unpack")


@st.composite
def specs(draw):
    name = draw(st.sampled_from(FAMILIES + JUNK_NAMES))
    fields = draw(st.lists(draw(st.sampled_from([PLAIN, FIELDS])), max_size=5))
    if not fields and draw(st.booleans()):
        return name
    return f"{name}:{','.join(fields)}"


@settings(derandomize=True, max_examples=400)
@given(specs())
def test_generate_answers_every_spec(spec):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["generate", spec])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2)
    if code == 0:
        assert err == "" and out.count("\n") == 1
        parse_graph6(out.strip())
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not any(text in err for text in LEAKED)


def run_cli(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process run; argparse's usage
    errors arrive as SystemExit."""
    out, err = stdio.StringIO(), stdio.StringIO()
    saved, sys.stdin = sys.stdin, stdio.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_answer(result, codes):
    code, out, err = result
    assert code in codes
    if code == 0:
        assert err == "" and out
    elif code == 5:
        assert err == "" and out.startswith("Violation at ") and out.count("\n") == 1
    elif code == 1:
        lines = err.splitlines()
        assert lines and all(line.startswith("falsified: ") for line in lines)
    elif err.startswith("usage: "):
        assert code == 2 and out == "" and "error: " in err
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not any(text in err for text in LEAKED)


# n = 17 and 20 are past the default cover budget, so they exit 3
VALID_G6 = [
    serialize_graph6(gen.random_graph(n, p, seed))
    for n in [*range(13), 17, 20]
    for p in (0.2, 0.6)
    for seed in range(2)
]


@st.composite
def one_byte_changed(draw):
    text = draw(st.sampled_from(VALID_G6))
    k = draw(st.integers(0, len(text) - 1))
    return text[:k] + draw(st.characters()) + text[k + 1 :]


GRAPH6 = st.one_of(
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    st.text(max_size=20),
    st.sampled_from(VALID_G6),
    one_byte_changed(),
)


@settings(derandomize=True, max_examples=300)
@given(GRAPH6, st.sampled_from(["analyze", "schedule"]))
def test_graph6_argument(text, command):
    check_answer(run_cli([command, text]), (0, 2, 3))


NUMBER = st.one_of(
    st.integers(-3, 20).map(str),
    st.sampled_from(["9" * 5000, "-" + "1" * 5000, "64", "65", "1e3", "0x3", "٣", ""]),
)
EDGE_LINE = st.one_of(
    st.builds("{} {}".format, NUMBER, NUMBER),
    st.builds("n {}".format, NUMBER),
    st.sampled_from(["", "# comment", "n", "1", "1 2 3", "0 0", "n 3 # three", "\t", "\x00"]),
    st.text(max_size=12).filter(lambda t: "\n" not in t and "\r" not in t),
)


@st.composite
def edge_lists(draw):
    edge = st.builds("{} {}".format, st.integers(0, 5), st.integers(0, 5))
    lines = draw(st.lists(st.one_of(edge, EDGE_LINE), max_size=8))
    if draw(st.booleans()):
        lines.insert(0, f"n {draw(st.integers(0, 16))}")
    return "\n".join(lines)


@settings(derandomize=True, max_examples=200)
@given(text=edge_lists())
def test_edge_list_file(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "edges.txt"
    path.write_text(text, encoding="utf-8")
    check_answer(run_cli(["analyze", "--edge-list", str(path)]), (0, 2, 3))


CLASSIC = schedule_json(synthesize(gen.path(3)))
REPLACEMENTS = [
    "1" + "0" * 5000,
    "-1",
    "64",
    "1.5",
    "1e400",
    "NaN",
    "true",
    "false",
    '"LR"',
    '"x"',
    "null",
    "[]",
    "[1, 2]",
    "{}",
    "[" * 100_000 + "]" * 100_000,
]


@st.composite
def schedule_documents(draw):
    """A well-shaped schedule for the path on three vertices, random or the
    valid synthesized one, with at most one field (or the whole document)
    replaced by hostile JSON text."""
    if draw(st.booleans()):
        doc = json.loads(CLASSIC)
        moves = doc["moves"]
    else:
        moves = [
            {
                "dir": draw(st.sampled_from(["LR", "RL"])),
                "cargo": draw(st.lists(st.integers(0, 4), max_size=3)),
            }
            for _ in range(draw(st.integers(0, 8)))
        ]
        doc = {"capacity": draw(st.integers(0, 3)), "moves": moves}
    hole = "@@hole@@"
    spots = ["none", "doc", "capacity", "moves"]
    if moves:
        spots += ["move", "dir", "cargo"]
        if any(m["cargo"] for m in moves):
            spots.append("vertex")
    spot = draw(st.sampled_from(spots))
    if spot in ("capacity", "moves"):
        doc[spot] = hole
    elif spot in ("move", "dir", "cargo"):
        k = draw(st.integers(0, len(moves) - 1))
        if spot == "move":
            moves[k] = hole
        else:
            moves[k][spot] = hole
    elif spot == "vertex":
        move = draw(st.sampled_from([m for m in moves if m["cargo"]]))
        move["cargo"][draw(st.integers(0, len(move["cargo"]) - 1))] = hole
    text = hole if spot == "doc" else json.dumps(doc)
    return text.replace(json.dumps(hole), draw(st.sampled_from(REPLACEMENTS)))


@settings(derandomize=True, max_examples=300)
@given(text=schedule_documents())
def test_schedule_document(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "schedule.json"
    path.write_text(text, encoding="utf-8")
    check_answer(run_cli(["verify", str(path), "Bg"]), (0, 2, 5))


@settings(derandomize=True, max_examples=100)
@given(st.lists(st.one_of(GRAPH6, st.just("")), max_size=6))
def test_survey_stream(lines):
    check_answer(run_cli(["survey", "--stdin-graph6"], "\n".join(lines)), (0, 1, 2, 3))
