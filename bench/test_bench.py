"""The benchmark's own tests, on --smoke inputs so they run in seconds.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTERS = (*run.COUNTERS, "oracle.infeasible_first_frac")


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result(workload: str, trace: int, seed: int = 7) -> dict:
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


def units(out: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in out["metrics"].items()}


def test_spec_matches_the_harness() -> None:
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload: str) -> None:
    out = result(workload, 0)
    assert units(out) == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counters_repeat_exactly_with_the_same_seed(workload: str) -> None:
    first, second = result(workload, 1), result(workload, 1)
    assert units(first) == run.PER_LAYER_UNITS
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    shares = sum(first["metrics"][f"{layer}.share"]["value"] for layer in run.LAYERS)
    assert 0.99 < shares <= 1.0 + 1e-9


def test_a_verifier_that_accepts_everything_fails_every_catalog_graph() -> None:
    wl = workloads.WORKLOADS["catalog"]
    ops = workloads.make_ops(run.load_package())
    items = wl.build(ops, 7, True)
    ops.reject = lambda g, sched: None
    done = run.run_pass(wl, ops, items, True)
    assert len(done.failures) == len(items)


def test_an_oracle_disagreement_fails_the_graph_and_the_sweep_totals() -> None:
    wl = workloads.WORKLOADS["sweep6"]
    ops = workloads.make_ops(run.load_package())
    items = wl.build(ops, 7, True)
    exact = ops.alcuin_exact
    ops.alcuin_exact = lambda g, **kw: (exact(g, **kw)[0] + (g.n == 3), None)
    done = run.run_pass(wl, ops, items, True)
    assert len(done.failures) == 8 + 1  # the eight graphs on 3 vertices, then the totals


def test_a_wrong_pinned_value_fails_the_graph() -> None:
    wl = workloads.WORKLOADS["catalog"]
    ops = workloads.make_ops(run.load_package())
    items = wl.build(ops, 7, True)
    items[0] = replace(items[0], expect=("one", 1, 1))
    assert len(run.run_pass(wl, ops, items, True).failures) == 1


def test_self_time_subtracts_direct_children_only() -> None:
    spans = [
        ("bench.graph", 0, 100, -1, 0),
        ("schedule.synthesize", 10, 60, 0, 0),
        ("cover.min_covers", 20, 30, 1, 0),
        ("oracle.alcuin_exact", 60, 90, 0, 0),
    ]
    assert tracing.self_times(spans) == {
        "bench.graph": (20, 1),
        "schedule.synthesize": (40, 1),
        "cover.min_covers": (10, 1),
        "oracle.alcuin_exact": (30, 1),
    }
    assert tracing.root_ns(spans) == 100


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("oracle12", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
