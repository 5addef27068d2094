import ast
import hashlib
import io as stdio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alcuin import cli
from alcuin import generators as gen
from alcuin.cli import main, survey_enumerate, survey_stream
from alcuin.classify import Classification, ConditionHolds, classify_covers
from alcuin.cover import min_covers
from alcuin.io import parse_graph6, report_json, schedule_json, serialize_graph6
from alcuin.oracle import alcuin_exact
from alcuin.schedule import synthesize
from capped import run_capped

ENTRY = "from alcuin.cli import entry; entry()"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_budget_read_only_in_main():
    # every budget error reaches exit code 3 through main's one except clause
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    reads = {
        id(n)
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id == "EXIT_BUDGET" and isinstance(n.ctx, ast.Load)
    }
    assert reads and reads <= {id(n) for n in ast.walk(main_def)}


class TestAnalyze:
    def test_path_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "Bg")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "one" and doc["c"] == 1

    def test_generated_star(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gen", "star:3")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "two" and doc["c"] == 2

    def test_triangle_multiple_covers(self, capsys):
        code, out, _ = run(capsys, "analyze", "Bw")
        doc = json.loads(out)
        assert doc["c"] == 2 and doc["reason"] == "multiple_covers"

    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "--human", "Bg")
        assert code == 0 and "class" in out and '"one"' in out

    @pytest.mark.parametrize(
        "spec, table",
        [
            (
                "cycle:4",
                """\
n                4
edges            [[0, 1], [0, 3], [1, 2], [2, 3]]
alpha            2
beta             2
covers           [[0, 2], [1, 3]]
covers_complete  true
unique_cover     false
girth            4
regular          2
claw_free        true
class            "one"
c                2
reason           "multiple_covers"
witness          {"covers": [[0, 2], [1, 3]]}
""",
            ),
            (
                "star:3",
                """\
n                4
edges            [[0, 1], [0, 2], [0, 3]]
alpha            3
beta             1
covers           [[0]]
covers_complete  true
unique_cover     true
girth            "acyclic"
regular          null
claw_free        false
class            "two"
c                2
reason           "condition_holds"
witness          {"cover": [0]}
""",
            ),
        ],
    )
    def test_human_table_pinned(self, capsys, spec, table):
        code, out, _ = run(capsys, "analyze", "--human", "--gen", spec)
        assert code == 0 and out == table

    @pytest.mark.parametrize("spec", ["cycle:4", "star:3"])
    def test_json_is_report_json(self, capsys, spec):
        g = cli._gen_spec(spec)
        covers = min_covers(g)
        code, out, _ = run(capsys, "analyze", "--gen", spec)
        assert code == 0 and out == report_json(g, classify_covers(g, covers), covers) + "\n"

    def test_edge_list_input(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("n 3\n0 1\n1 2\n")
        code, out, _ = run(capsys, "analyze", "--edge-list", str(p))
        assert code == 0 and json.loads(out)["c"] == 1

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "B")
        assert code == 2 and "error" in err

    def test_oversized_edge_list_header_exits_2(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("n 100000000\n0 1\n")
        code, _, err = run(capsys, "analyze", "--edge-list", str(p))
        assert code == 2 and "vertex count" in err

    def test_conflicting_inputs_exit_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "Bg", "--gen", "star:3")
        assert code == 2

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "--gen", "random:18,0.3,1")
        assert code == 3


class TestSchedule:
    def test_classic_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "schedule",
            "Bg",
            "--capacity",
            "1",
            "--shortest",
            "--trace",
            "--labels",
            "w,g,c",
        )
        assert code == 0
        rows = out.strip("\n").split("\n")
        assert len(rows) == 7
        assert rows[0] == "w, c | g → | ∅"
        assert rows[6] == "∅ | g → | w, c"

    def test_auto_synthesis_json(self, capsys):
        code, out, _ = run(capsys, "schedule", "--gen", "star:3")
        assert code == 0
        doc = json.loads(out)
        assert doc["capacity"] == 2

    def test_infeasible_capacity_exits_4(self, capsys):
        code, _, err = run(capsys, "schedule", "Bg", "--capacity", "0")
        assert code == 4
        code, _, _ = run(capsys, "schedule", "Bg", "--capacity", "0", "--shortest")
        assert code == 4

    def test_shortest_with_automatic_capacity(self, capsys):
        code, out, _ = run(capsys, "schedule", "Bg", "--shortest")
        assert code == 0
        assert out == schedule_json(alcuin_exact(parse_graph6("Bg"))[1]) + "\n"
        doc = json.loads(out)
        assert doc["capacity"] == 1 and len(doc["moves"]) == 7

    def test_shortest_over_the_search_limit_exits_3(self, capsys):
        code, _, err = run(capsys, "schedule", "--gen", "star:13", "--shortest")
        assert code == 3 and "exceeds the limit 12" in err

    def test_extra_capacity_is_fine(self, capsys):
        code, out, _ = run(capsys, "schedule", "Bg", "--capacity", "2")
        assert code == 0 and json.loads(out)["capacity"] == 2

    def test_bad_capacity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "Bg", "--capacity", "lots"])
        assert exc.value.code == 2
        assert "invalid int value: 'lots'" in capsys.readouterr().err

    def test_wrong_label_count_exits_2(self, capsys):
        code, _, _ = run(capsys, "schedule", "Bg", "--trace", "--labels", "a,b")
        assert code == 2


class TestVerify:
    def test_valid_roundtrip(self, capsys, tmp_path):
        sched = synthesize(gen.path(3))
        p = tmp_path / "sched.json"
        p.write_text(schedule_json(sched))
        code, out, _ = run(capsys, "verify", str(p), "Bg")
        assert code == 0 and out.strip() == "Valid"

    def test_wrong_graph_exits_5(self, capsys, tmp_path):
        sched = synthesize(gen.path(3))
        p = tmp_path / "sched.json"
        p.write_text(schedule_json(sched))
        code, out, _ = run(capsys, "verify", str(p), "Bw")
        assert code == 5 and "Violation" in out

    def test_truncated_schedule(self, capsys, tmp_path):
        p = tmp_path / "sched.json"
        p.write_text('{"capacity": 1, "moves": []}')
        code, out, _ = run(capsys, "verify", str(p), "Bg")
        assert code == 5 and "not_all_transported" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"), "Bg")
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            '{"capacity": true, "moves": []}',
            '{"capacity": 1, "moves": [{"dir": "LR", "cargo": [false]}]}',
            '{"capacity": 1, "moves": [{"dir": "LR", "cargo": [64]}]}',
        ],
    )
    def test_out_of_type_or_range_values_exit_2(self, capsys, tmp_path, doc):
        p = tmp_path / "sched.json"
        p.write_text(doc)
        code, _, err = run(capsys, "verify", str(p), "Bg")
        assert code == 2 and "cannot read schedule" in err

    def test_bad_json_exits_2(self, capsys, tmp_path):
        p = tmp_path / "sched.json"
        p.write_text("{")
        code, _, _ = run(capsys, "verify", str(p), "Bg")
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            '{"capacity": %s, "moves": []}' % ("9" * 5000),
            '{"capacity": 3, "moves": [{"dir": "LR", "cargo": [%s]}]}' % ("9" * 5000),
        ],
        ids=["capacity", "cargo_vertex"],
    )
    def test_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path, doc):
        # json.loads refuses to convert it with a plain ValueError
        p = tmp_path / "sched.json"
        p.write_text(doc)
        code, out, err = run(capsys, "verify", str(p), "--gen", "star:3")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read schedule") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "data", [b"\xff", b"[" * 200000], ids=["not_utf8", "nested_200000_deep"]
    )
    def test_hostile_file_exits_2(self, capsys, tmp_path, data):
        p = tmp_path / "sched.json"
        p.write_bytes(data)
        code, out, err = run(capsys, "verify", str(p), "Bg")
        assert code == 2 and out == "" and err.startswith("error: cannot read schedule")


class TestSurvey:
    def test_small_enumeration(self, capsys):
        code, out, err = run(capsys, "survey", "--max-n", "3")
        assert code == 0 and err == ""
        doc = json.loads(out)
        per_n = {row["n"]: row for row in doc["per_n"]}
        assert per_n[3]["graphs"] == 8
        # only the edgeless graph is class two on 3 vertices
        assert per_n[3]["class_two"] == 1
        assert doc["totals"]["disagreements"] == 0
        assert all(v == 0 for v in doc["totals"]["violations"].values())

    def test_jobs_do_not_change_output(self, capsys):
        one = survey_enumerate(3, jobs=1)
        two = survey_enumerate(3, jobs=2)
        assert json.dumps(one) == json.dumps(two)

    def test_stream_mode(self):
        lines = [serialize_graph6(g) for g in (gen.star(3), gen.cycle(4), gen.path(3))]
        summary = survey_stream(lines)
        assert summary["oracle"] is False
        assert summary["totals"]["graphs"] == 3
        assert summary["totals"]["class_two"] == 1
        assert summary["totals"]["offenders"] == []

    def test_stdin_mode(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdio.StringIO("Bw\nBg\n"))
        code, out, _ = run(capsys, "survey", "--stdin-graph6")
        assert code == 0
        doc = json.loads(out)
        assert doc["totals"]["graphs"] == 2

    @pytest.mark.parametrize(
        "lines, code, message",
        [
            # blank lines count: the bad line is the third
            (["Bg", "  ", "!!", "Bw"], 2, "error: line 3: invalid graph6 size byte 33"),
            (
                ["Bg", serialize_graph6(gen.complete(17))],
                3,
                "error: line 2: cover enumeration for n=17 exceeds the limit 16",
            ),
        ],
    )
    def test_stdin_error_names_the_line(self, capsys, monkeypatch, lines, code, message):
        monkeypatch.setattr("sys.stdin", stdio.StringIO("\n".join(lines) + "\n"))
        assert run(capsys, "survey", "--stdin-graph6") == (code, "", message + "\n")

    def test_max_n_capped(self, capsys):
        code, _, err = run(capsys, "survey", "--max-n", "7")
        assert (code, err) == (3, "error: survey --max-n for n=7 exceeds the limit 6\n")

    def test_workers_capped_by_tasks_and_processors(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        many = survey_enumerate(3, jobs=10**6)
        # one flat list of 12 one-graph tasks over n <= 3 runs through one pool
        assert sizes == [4]
        assert json.dumps(many) == json.dumps(survey_enumerate(3, jobs=1))
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        sizes.clear()
        assert json.dumps(survey_enumerate(3, jobs=8)) == json.dumps(many)
        assert sizes == []

    def test_document_pinned(self, capsys):
        code, out, _ = run(capsys, "survey", "--max-n", "5")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "8a432ffd4c8a4f66848c59441fecd90d422d42675d9e6a372e1821ba76265d36"

    def test_oracle_finds_its_own_beta(self, monkeypatch):
        # a classifier that reads beta one too high off {0, 1}, which
        # covers P3 but is not minimum, so it answers c = 2 where c = 1
        monkeypatch.setattr(
            cli, "classify", lambda g: Classification("two", 2, ConditionHolds(0b011))
        )
        record = cli._graph_record(gen.path(3), with_oracle=True)
        assert record["disagreements"] == 1
        assert record["offenders"] == ["Bg"]

    def test_modes_agree(self):
        lines = [serialize_graph6(g) for n in range(5) for g in gen.all_labeled_graphs(n)]
        streamed = survey_stream(lines)["totals"]
        enumerated = survey_enumerate(4)["totals"]
        assert streamed["graphs"] == enumerated["graphs"] == 76
        assert streamed["class_two"] == enumerated["class_two"]
        assert streamed["violations"] == enumerated["violations"]


class TestFalsification:
    """A survey that finds a violation counts it, names the offenders on
    stderr and exits 1; here a stubbed record flags every one-edge graph."""

    @pytest.fixture
    def one_edge_flagged(self, monkeypatch):
        real = cli._graph_record

        def record(g, with_oracle):
            out = real(g, with_oracle)
            if g.edge_count() == 1:
                out["violations"]["girth_bound"] = 1
                out["offenders"] = [serialize_graph6(g)]
            return out

        monkeypatch.setattr(cli, "_graph_record", record)

    @staticmethod
    def one_edge_graphs(max_n):
        return sorted(
            serialize_graph6(g)
            for n in range(max_n + 1)
            for g in gen.all_labeled_graphs(n)
            if g.edge_count() == 1
        )

    def check(self, code, out, err, offenders):
        assert code == 1
        doc = json.loads(out)
        assert doc["totals"]["violations"] == dict(
            dict.fromkeys(cli._VIOLATION_KEYS, 0), girth_bound=len(offenders)
        )
        assert doc["totals"]["offenders"] == offenders
        assert err.splitlines() == [f"falsified: {g6}" for g6 in offenders]
        return doc

    def test_enumerate(self, capsys, one_edge_flagged):
        offenders = self.one_edge_graphs(3)
        assert len(offenders) == 4
        doc = self.check(*run(capsys, "survey", "--max-n", "3", "--jobs", "1"), offenders)
        assert [row["violations"]["girth_bound"] for row in doc["per_n"]] == [0, 0, 1, 3]
        assert [len(row["offenders"]) for row in doc["per_n"]] == [0, 0, 1, 3]

    def test_stream(self, capsys, monkeypatch, one_edge_flagged):
        offenders = self.one_edge_graphs(3)
        others = ["?", "@", "Bw", "B?"]
        lines = ["  " + g6 + " " for g6 in reversed(offenders)] + ["", *others]
        monkeypatch.setattr("sys.stdin", stdio.StringIO("\n".join(lines) + "\n"))
        doc = self.check(*run(capsys, "survey", "--stdin-graph6"), offenders)
        assert doc["totals"]["graphs"] == len(offenders) + len(others)


class TestGenerate:
    def test_star_two_is_a_relabeled_path(self, capsys):
        code, out, _ = run(capsys, "generate", "star:2")
        assert code == 0
        g = parse_graph6(out.strip())
        assert sorted(g.degree(v) for v in range(3)) == [1, 1, 2]

    def test_point_hypercube(self, capsys):
        code, out, _ = run(capsys, "generate", "hypercube:0")
        assert code == 0 and out.strip() == "@"

    def test_overlapping_stars_five_vertices(self, capsys):
        code, out, _ = run(capsys, "generate", "overlapping-stars:1")
        assert code == 0
        assert parse_graph6(out.strip()) == gen.overlapping_stars(1)
        code, out2, _ = run(capsys, "generate", "paper-family:1")
        assert code == 0 and out2 == out

    def test_product_spec(self, capsys):
        code, out, _ = run(capsys, "generate", "product:Bw,A_")
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 6 and g.edge_count() == 9

    def test_circulant_spec(self, capsys):
        # steps 1 and 2 on 6 vertices: K6 less the matching i -- i + 3
        code, out, _ = run(capsys, "generate", "circulant:6,1,2")
        assert (code, out) == (0, "EznW\n")
        assert parse_graph6("EznW") == gen.circulant(6, [1, 2])

    def test_pruefer_spec(self, capsys):
        code, out, _ = run(capsys, "generate", "pruefer:0,0")
        assert code == 0
        assert parse_graph6(out.strip()) == gen.tree_from_pruefer([0, 0])
        code, out, _ = run(capsys, "generate", "pruefer:")
        assert code == 0
        assert parse_graph6(out.strip()) == gen.path(2)

    def test_too_large_for_graph6_exits_2(self, capsys):
        # graph6 short form stops at 62 vertices; Q6 has 64
        code, _, err = run(capsys, "generate", "hypercube:6")
        assert code == 2 and "62 vertices" in err

    def test_oversize_family_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "hypercube:7")
        message = "error: bad generator spec 'hypercube:7': vertex count 128 outside 0..64\n"
        assert (code, err) == (2, message)

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run(capsys, "generate", "moebius:5")
        assert code == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "star:3,999",
            "path:4,1",
            "cycle:5,5",
            "complete:3,1",
            "complete-bipartite:2,3,4",
            "complete-bipartite:2",
            "edgeless:3,0",
            "petersen:5",
            "hypercube:2,2",
            "overlapping-stars:1,1",
            "paper-family:1,1",
            "random:5,0.5",
            "random:5,0.5,1,2",
            "random-bipartite:2,3,0.5",
            "random-bipartite:2,3,0.5,1,1",
            "circulant:",
            "product:",
            "product:Bw",
            "product:Bw,Bw,Bw",
        ],
    )
    def test_wrong_argument_count_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "generate", spec)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad generator spec {spec!r}: expected ")
        assert err.count("\n") == 1

    def test_random_bipartite_spec(self, capsys):
        code, out, _ = run(capsys, "generate", "random-bipartite:3,4,0.5,1")
        assert code == 0
        assert parse_graph6(out.strip()) == gen.random_bipartite(3, 4, 0.5, 1)
        code, _, err = run(capsys, "generate", "random-bipartite:3,4,1.5,1")
        message = "error: bad generator spec 'random-bipartite:3,4,1.5,1': p must lie in [0, 1]\n"
        assert (code, err) == (2, message)

    def test_bad_arity_exits_2(self, capsys):
        # an empty field is a bad argument, not a skipped one
        for spec in ("star:", "pruefer:1,,2", "pruefer:0,0,"):
            code, _, _ = run(capsys, "generate", spec)
            assert code == 2, spec


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--gen", "star:3", "--cover-limit", "-1"],
        ["schedule", "--gen", "star:3", "--cover-limit", "-1"],
        ["schedule", "--gen", "star:3", "--shortest", "--search-limit", "-1"],
        ["survey", "--max-n", "-1"],
        ["survey", "--max-n", "2", "--jobs", "0"],
        ["survey", "--max-n", "2", "--jobs", "-2"],
        ["schedule", "Bg", "--capacity", "-1"],
    ],
)
def test_out_of_range_numbers_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_zero_limits_are_accepted(capsys):
    code, _, err = run(capsys, "analyze", "--gen", "star:3", "--cover-limit", "0")
    assert code == 3 and "exceeds the limit 0" in err
    code, _, _ = run(capsys, "survey", "--max-n", "0")
    assert code == 0


def test_cover_cap_exits_3(tmp_path):
    # 2^32 minimum covers: counted, not listed, under a raised vertex limit
    path = tmp_path / "matching32.txt"
    path.write_text("n 64\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(32)))
    argv = ["analyze", "--cover-limit", "64", "--edge-list", str(path)]
    done = run_capped(ENTRY, *argv)
    assert done.returncode == 3 and "cover enumeration exceeds the limit 65536" in done.stderr


def test_set_cap_exits_3():
    argv = ["schedule", "--shortest", "--search-limit", "64", "--gen", "edgeless:30"]
    done = run_capped(ENTRY, *argv)
    assert done.returncode == 3 and "set enumeration exceeds the limit 65536" in done.stderr


def _run_module(module, *argv):
    """``python -m module *argv`` with the package importable from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_module_entry_point():
    # `python -m alcuin.cli` runs entry() under the __main__ guard
    done = _run_module("alcuin.cli", "generate", "star:3")
    assert (done.returncode, done.stdout) == (0, "Cs\n")


def test_package_entry_point(capsys):
    # `python -m alcuin` runs the package's __main__, the same CLI
    argv = ["analyze", "--gen", "star:3"]
    done = _run_module("alcuin", *argv)
    assert (done.returncode, done.stdout) == run(capsys, *argv)[:2]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_calls_in_one_process_share_a_parser_and_no_state(capsys, monkeypatch):
    # each output must match a run on a parser built for that call alone
    calls = [
        ["analyze", "--human", "--gen", "star:3"],
        ["analyze", "--gen", "star:3"],
        ["schedule", "Bg", "--capacity", "1", "--shortest", "--trace", "--labels", "w,g,c"],
        ["schedule", "Bg", "--capacity", "lots"],
        ["schedule", "Bg", "--capacity", "1"],
    ]

    def outputs():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    assert cli.build_parser() is cli.build_parser()
    shared = outputs()
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == shared
