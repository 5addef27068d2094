"""Checked-in mutants of the package source, each with the tests that must
kill it.

Each entry names a module under src/alcuin, one exact source text, its
replacement, and the ids of the tests expected to fail on the mutant.
pytest does not collect this file (its name has no test_ prefix); tier-1
only checks, in `test_mutants.py`, that every source text occurs exactly
once in today's code and every test id names a test that exists, so a
rewrite of a targeted line must update its mutant in the same change.

Run from the repository root:

    python tests/mutants.py

It copies src/ to a temporary directory, applies one mutant at a time,
runs that mutant's tests against the copy, prints one line per mutant,
and exits 1 if any mutant survives (all its tests pass) or its tests
cannot run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/alcuin
    source: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    # the graph6 codec
    Mutant(
        "graph6 padding check one bit high",
        "io.py",
        "if pairs >> nbits:",
        "if pairs >> (nbits + 1):",
        ("tests/test_io.py::TestGraph6::test_each_padding_bit_rejected",),
    ),
    Mutant(
        "graph6 serialize without the per-column reversal",
        "io.py",
        ':0{j}b}"[::-1]',
        ':0{j}b}"',
        (
            "tests/test_io.py::TestGraph6::test_goldens",
            "tests/test_io.py::TestGraph6::test_codec_matches_the_pairwise_reference",
            "tests/test_io.py::TestGraph6::test_codec_matches_networkx",
        ),
    ),
    Mutant(
        "graph6 parse shifting j - 1",
        "io.py",
        "pairs >>= j\n",
        "pairs >>= j - 1\n",
        (
            "tests/test_io.py::TestGraph6::test_goldens",
            "tests/test_io.py::TestGraph6::test_codec_matches_the_pairwise_reference",
        ),
    ),
    # the pair scan's floor rule
    Mutant(
        "pair scan jumps to least + 1",
        "classify.py",
        "total = max(total + 1, least)",
        "total = max(total + 1, least + 1)",
        (
            "tests/test_classify.py::TestPairScanFloor::test_every_cover_up_to_six_vertices",
            "tests/test_classify.py::TestPairScanFloor::test_families",
            "tests/test_classify.py::TestPairScanFloor::test_random_graphs_past_singletons",
        ),
    ),
    Mutant(
        "pair scan skips S = T at equal sizes",
        "classify.py",
        "ts[i:] if 2",
        "ts[i + 1:] if 2",
        (
            "tests/test_classify.py::TestPairScanFloor::test_every_cover_up_to_six_vertices",
            "tests/test_classify.py::TestClassify::test_two_leaf_star_class_one",
        ),
    ),
    Mutant(
        "pair scan keeps the greatest count",
        "classify.py",
        "if common < least:",
        "if common > least:",
        (
            "tests/test_classify.py::TestPairScanFloor::test_every_cover_up_to_six_vertices",
            "tests/test_classify.py::TestPairScanFloor::test_families",
        ),
    ),
    Mutant(
        "pair scan reads every pair twice at equal sizes",
        "classify.py",
        "ts[i:] if 2",
        "ts if 2",
        ("tests/test_classify.py::TestPairScanFloor::test_equal_sizes_read_each_pair_once",),
    ),
    # mask walks in graph
    Mutant(
        "girth walk stops one level early",
        "graph.py",
        "while level and 2 * depth + 1 < best:",
        "while level and 2 * depth + 3 < best:",
        (
            "tests/test_graph.py::TestGirth::test_cycles",
            "tests/test_graph.py::TestGirth::test_agrees_with_reference_exhaustively",
        ),
    ),
    Mutant(
        "is_bipartite without its within-level edge test",
        "graph.py",
        "                if adj[v] & level:\n                    return None\n",
        "",
        (
            "tests/test_graph.py::TestBipartite::test_odd_cycle",
            "tests/test_graph.py::TestBipartite::test_agrees_with_reference_exhaustively",
        ),
    ),
    Mutant(
        "cartesian_product spread without << v",
        "graph.py",
        "spread << v for v, m",
        "spread for v, m",
        (
            "tests/test_graph.py::TestCartesianProduct::test_k2_times_k2_is_c4",
            "tests/test_acceptance.py::test_criterion_09_cartesian_products",
        ),
    ),
    # the oracle's meeting search
    Mutant(
        "meeting test against the wrong side",
        "oracle.py",
        "hit = new & ~unseen[side]",
        "hit = new & ~unseen[cross]",
        (
            "tests/test_oracle.py::TestFeasible::test_path_capacity_one",
            "tests/test_oracle.py::TestReferenceSearch::test_every_small_graph_at_every_capacity",
        ),
    ),
    Mutant(
        "partner lookup ignores the queue",
        "oracle.py",
        "((side, chunk, base, parent), *queue)",
        "((side, chunk, base, parent),)",
        (
            "tests/test_oracle.py::TestReferenceSearch::test_partner_in_a_queued_chunk",
            "tests/test_oracle.py::TestReferenceSearch::test_every_small_graph_at_every_capacity",
        ),
    ),
    Mutant(
        "partner lookup ignores the rest of the chunk",
        "oracle.py",
        "((side, chunk, base, parent), *queue)",
        "(*queue,)",
        (
            "tests/test_oracle.py::TestReferenceSearch::test_partner_in_the_rest_of_the_chunk",
            "tests/test_oracle.py::TestReferenceSearch::test_every_small_graph_at_every_capacity",
        ),
    ),
    Mutant(
        "partner from parents only",
        "oracle.py",
        "for s, c, lo, up in ((side, chunk, base, parent), *queue):",
        "for s, c, lo, up in ():",
        (
            "tests/test_oracle.py::TestReferenceSearch::test_partner_in_the_rest_of_the_chunk",
            "tests/test_oracle.py::TestReferenceSearch::test_partner_in_a_queued_chunk",
        ),
    ),
]


def run(mutant: Mutant, copy: Path) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant, tested on a
    fresh copy of src/ at copy."""
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "alcuin" / mutant.module
    text = path.read_text()
    if text.count(mutant.source) != 1:
        return "error: the source text does not occur exactly once"
    path.write_text(text.replace(mutant.source, mutant.replacement))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["--continue-on-collection-errors", *mutant.tests]
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    summary = proc.stdout.strip().rpartition("\n")[2]
    if proc.returncode == 0:
        return "survived"
    # a test failed, or a test module raised on import (pytest exits 4 when
    # the ids it was given sit in that module)
    if re.search(r"\d+ (failed|errors?)\b", summary):
        return "killed"
    return f"error: pytest exit {proc.returncode}: {proc.stdout.strip()[-300:]}"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in MUTANTS:
            outcome = run(mutant, Path(tmp, "src"))
            bad += outcome != "killed"
            print(f"{outcome:<8}  {mutant.module:<12} {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
