"""Fuzz the command line's input channels with hostile input.

The `--gen` channel: specs built from every family name the CLI knows plus
junk names, each with zero to five fields drawn from small, negative and
5,000-digit integers, non-finite floats, empty fields, junk text and short
graph6 strings.  `alcuin generate` must answer each with exit 0 and one
graph6 line, or exit 2 and one `error:` line that does not leak the text of
an internal exception.
"""

import contextlib
import io as stdio

from hypothesis import given, settings, strategies as st

from alcuin import cli
from alcuin.io import parse_graph6

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
