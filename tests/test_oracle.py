import ast
import hashlib
from pathlib import Path

import pytest

from alcuin import (
    BudgetExceededError,
    Graph,
    Schedule,
    alcuin_exact,
    feasible,
    min_covers,
    verify_schedule,
)
from alcuin import generators as gen
from alcuin import graph, oracle
from alcuin.ferry import LEFT_TO_RIGHT as LR
from alcuin.ferry import RIGHT_TO_LEFT as RL
from brute import brute_cargo_choices, brute_feasible, brute_min_covers, relabel
from capped import budget_error

P3 = gen.path(3)


class TestFeasible:
    def test_path_capacity_one(self):
        res = feasible(P3, 1)
        assert res.feasible and res.min_crossings == 7
        assert verify_schedule(P3, res.schedule) is None
        assert res.states_expanded > 0

    def test_claw_needs_capacity_two(self):
        assert not feasible(gen.star(3), 1).feasible
        assert feasible(gen.star(3), 2).feasible

    def test_single_vertex(self):
        k1 = gen.complete(1)
        res0 = feasible(k1, 0)
        assert not res0.feasible and res0.schedule is None
        res1 = feasible(k1, 1)
        assert res1.feasible and res1.min_crossings == 1

    def test_empty_graph(self):
        res = feasible(Graph(0, ()), 0)
        assert res.feasible and res.min_crossings == 0 and res.schedule.moves == ()

    def test_empty_graph_needs_no_budget(self):
        # as in alcuin_exact, no limit applies where no search runs
        assert feasible(Graph(0, ()), 0, limit=-1) == feasible(Graph(0, ()), 0)
        assert alcuin_exact(Graph(0, ()), limit=-1) == (0, Schedule(0, ()))

    def test_schedule_present_iff_feasible(self):
        for g in gen.all_labeled_graphs(4):
            for b in range(0, 5):
                res = feasible(g, b)
                assert res.feasible == (res.schedule is not None)
                if res.feasible:
                    assert verify_schedule(g, res.schedule) is None
                    assert len(res.schedule.moves) == res.min_crossings

    def test_monotone_in_capacity(self):
        for n in range(1, 6):
            for seed in range(10):
                g = gen.random_graph(n, 0.5, seed)
                flags = [feasible(g, b).feasible for b in range(n + 1)]
                assert flags == sorted(flags)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            feasible(gen.edgeless(13), 1)
        assert feasible(gen.edgeless(13), 13, limit=13).feasible
        with pytest.raises(ValueError):
            feasible(P3, -1)


class TestSetCap:
    """At most MAX_SETS independent sets are listed, whatever the search
    limit; edgeless(30) has 2^30 of them and runs under a memory cap."""

    @pytest.mark.parametrize("call", ["feasible(g, 1, limit=64)", "alcuin_exact(g, limit=64)"])
    def test_edgeless30(self, call):
        source = (
            "from alcuin import alcuin_exact, feasible, generators\n"
            f"g = generators.edgeless(30)\n{call}"
        )
        message = "set enumeration exceeds the limit 65536 (131072 sets listed)"
        assert budget_error(source) == message

    def test_star15_stays_accepted(self):
        # 32,769 independent sets, half the cap
        assert not feasible(gen.star(15), 1, limit=64).feasible


class TestSetTable:
    """The table's bitmaps against their definitions, over graphs whose
    vertices span one to eight bytes of a packed set."""

    @staticmethod
    def check(g):
        table = oracle._SetTable(g)
        sets = table.sets
        assert len(table.members) == g.n
        for v, bitmap in enumerate(table.members):
            assert bitmap >> len(sets) == 0
            for i, s in enumerate(sets):
                assert (bitmap >> i & 1) == (s >> v & 1), (v, i)
        assert table.ends == [sum(s.bit_count() >= k for s in sets) for k in range(g.n + 2)]

    @pytest.mark.parametrize("n", range(9, 17))
    def test_random_graphs_across_two_bytes(self, n):
        self.check(gen.random_graph(n, 0.3, n))

    def test_complete64(self):
        # 65 sets; vertex 63 sits in the top byte of its word
        g = gen.complete(64)
        assert len(oracle._SetTable(g).sets) == 65
        self.check(g)

    def test_edgeless(self):
        self.check(gen.edgeless(12))

    def test_empty_graph(self):
        table = oracle._SetTable(Graph(0, ()))
        assert (table.sets, table.ends, table.members) == ([0], [1, 0], [])
        self.check(Graph(0, ()))

    def test_sets_fit_one_packed_word(self):
        assert graph.MAX_VERTICES <= 64, (
            f"MAX_VERTICES = {graph.MAX_VERTICES}, but graph.packed_masks packs each "
            "vertex set into one 64-bit word: widen it before raising the cap"
        )


class TestCargoChoices:
    """A bank's legal-set bitmap over the independent-set table, read as
    cargos in ascending index, against the submask walk."""

    @staticmethod
    def cargos(g, table, bank, b):
        far = g.full_mask ^ bank
        legal = table.cuts(b)[far.bit_count()]
        for v in range(g.n):
            if far >> v & 1:
                legal &= ~table.members[v]
        return [bank ^ j for i, j in enumerate(table.sets) if legal >> i & 1]

    def test_matches_submask_walk(self):
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                table = oracle._SetTable(g)
                for bank in range(g.full_mask + 1):
                    for b in range(n + 2):
                        expected = brute_cargo_choices(g.adj, bank, b)
                        assert self.cargos(g, table, bank, b) == expected

    def check_banks(self, g, banks):
        table = oracle._SetTable(g)
        for bank in banks:
            for b in (0, 2, 3, 6, 12):
                expected = brute_cargo_choices(g.adj, bank, b)
                assert self.cargos(g, table, bank, b) == expected

    def test_order_on_a_larger_bank(self):
        self.check_banks(gen.random_graph(12, 0.4, 1), (4095, 0b101101101101, 0b111111000000))

    def test_sparse_slice_on_a_star(self):
        # at b = 2 the center and five leaves keep 6 of the 1,254 sets in
        # the slice, and the top six leaves keep 22, the first one among them
        self.check_banks(gen.star(11), (4095, 0b111111, 0b111111000000, 0b111111111110))


def check_against_reference(g, b, limit=oracle.DEFAULT_SEARCH_LIMIT):
    """feasible against the full BFS of brute.brute_feasible: the same
    verdict and length, a schedule that verifies, and no more states."""
    res, ref = feasible(g, b, limit=limit), brute_feasible(g, b)
    assert (res.feasible, res.min_crossings) == (ref.feasible, ref.min_crossings)
    assert res.states_expanded <= ref.states_expanded
    if res.feasible:
        assert len(res.schedule.moves) == res.min_crossings
        assert res.schedule.capacity == b
        assert verify_schedule(g, res.schedule) is None
    return res


class TestReferenceSearch:
    """feasible, which stops when a state meets its mirror image, against
    the full per-state search that rebuilds every state's cargos from
    scratch and stops at the goal (brute.brute_feasible)."""

    def test_every_small_graph_at_every_capacity(self):
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                for b in range(n + 2):
                    check_against_reference(g, b)

    def test_class_two_families(self):
        for n in range(4, 13):
            for a in (1, 2, 3):  # K_{1,n-1} is the star
                g = gen.complete_bipartite(a, n - a)
                beta, _ = brute_min_covers(g)
                for b in (beta, beta + 1):
                    check_against_reference(g, b)

    def test_bitmaps_past_one_word(self):
        # tables of 1,031 to 8,193 sets, so every bitmap spans many words
        for n in (13, 14):
            for a in (1, 2, 3):
                g = gen.complete_bipartite(a, n - a)
                beta, _ = brute_min_covers(g)
                for b in (beta, beta + 1):
                    check_against_reference(g, b, limit=n)

    def test_random_graphs(self):
        # both capacities alcuin_exact searches
        for i in range(24):
            g = gen.random_graph(10 + i % 3, (0.2, 0.35, 0.5)[i // 8], 100 + i)
            beta, _ = brute_min_covers(g)
            for b in (beta, beta + 1):
                check_against_reference(g, b)

    @pytest.mark.parametrize("k, expanded", [(14, 12954), (15, 26335)])
    def test_large_stars(self, k, expanded):
        # the reference expands 32,755 and 65,522 states
        res = check_against_reference(gen.star(k), 2, limit=64)
        assert (res.min_crossings, res.states_expanded) == (2 * k - 1, expanded)

    # The partner, the mirror of the state whose discovery stops the search,
    # lies at the depth being expanded.  It is the start, or it waits in
    # the chunk being walked or in a queued one, which alone names its
    # parent: any other state of that depth expanded before the current one
    # would have met its mirror first.  A parent read from the wrong place
    # breaks the schedule's second half.

    def test_goal_in_the_first_chunk(self):
        # the start's one expansion discovers the goal, the start's mirror:
        # a one-move schedule
        res = check_against_reference(gen.edgeless(5), 5)
        assert (res.min_crossings, res.states_expanded) == (1, 1)
        assert [(m.direction, m.cargo) for m in res.schedule.moves] == [(LR, 31)]

    def test_partner_in_the_rest_of_the_chunk(self):
        # the goat (vertex 1) goes first; the search meets at depth 4, and
        # the partner (far bank {0}, boat on the right) comes later in the
        # chunk of the state just expanded (far bank {2}, boat on the right)
        res = check_against_reference(gen.path(3), 1)
        assert res.states_expanded == 4
        assert [(m.direction, m.cargo) for m in res.schedule.moves] == [
            (LR, 2), (RL, 0), (LR, 1), (RL, 2), (LR, 4), (RL, 0), (LR, 2),
        ]

    def test_partner_in_a_queued_chunk(self):
        # the meeting at depth 3 finds its partner (far bank {2}, boat on
        # the left) in a chunk still waiting in the queue
        res = check_against_reference(gen.edgeless(3), 1)
        assert res.states_expanded == 6
        assert [(m.direction, m.cargo) for m in res.schedule.moves] == [
            (LR, 1), (RL, 0), (LR, 2), (RL, 0), (LR, 4),
        ]


class TestSharedTable:
    """alcuin_exact cuts both capacities' cargo lists from one table."""

    @pytest.mark.parametrize(
        "g, b, expected",
        [
            # beta + 1 on class two, beta on a class-one G(12, .3); the
            # full BFS expands 4,086, 1,989 and 550 states
            (gen.star(11), 2, (True, 21, 1588)),
            (gen.complete_bipartite(2, 10), 3, (True, 15, 776)),
            (gen.random_graph(12, 0.3, 1), 5, (True, 7, 31)),
        ],
    )
    def test_counts(self, g, b, expected):
        res = feasible(g, b)
        assert (res.feasible, res.min_crossings, res.states_expanded) == expected

    def test_same_schedule_as_a_fresh_search(self):
        for n in (10, 11, 12):
            for g in (
                gen.random_graph(n, 0.4, n),
                gen.star(n - 1),
                gen.complete_bipartite(2, n - 2),
                gen.complete_bipartite(3, n - 3),
            ):
                c, schedule = alcuin_exact(g)
                assert schedule == feasible(g, c).schedule


class TestPinnedSearch:
    """Counts and schedules of the search; any change in move order, state
    handling or where the search stops shows up here.  The schedules are
    those of the submask-walking search it replaced."""

    @pytest.mark.parametrize(
        "g, b, expected",
        [
            (gen.path(3), 1, (True, 7, 4)),
            (gen.star(3), 1, (False, None, 9)),
            (gen.star(3), 2, (True, 5, 6)),
            (gen.hypercube(3), 4, (True, 3, 2)),
            (gen.complete_bipartite(3, 9), 3, (False, None, 267)),
            (gen.complete_bipartite(3, 9), 4, (True, 9, 394)),
            (gen.random_graph(12, 0.4, 1), 6, (True, 5, 4)),
        ],
    )
    def test_counts(self, g, b, expected):
        res = feasible(g, b)
        assert (res.feasible, res.min_crossings, res.states_expanded) == expected

    def test_schedules(self):
        moves = feasible(gen.random_graph(12, 0.4, 1), 6).schedule.moves
        assert [(m.direction, m.cargo) for m in moves] == [
            (LR, 2916), (RL, 96), (LR, 1179), (RL, 2820), (LR, 2916),
        ]
        moves = feasible(gen.complete_bipartite(3, 9), 4).schedule.moves
        assert [(m.direction, m.cargo) for m in moves] == [
            (LR, 7), (RL, 0), (LR, 120), (RL, 7), (LR, 135),
            (RL, 7), (LR, 3840), (RL, 0), (LR, 7),
        ]


# sha256 of repr(feasible(g, b)), concatenated over every labeled graph with
# at most 5 vertices in generation order and b = 0..n+1: pins states_expanded
# and the schedule at every capacity, not only at c(G)
FEASIBLE_N5_SHA256 = "1143e17fff011935030b3b24d4e1e4a298055a0579eb9a5676496dfb5bbdcf74"


def test_every_capacity_pinned():
    digest = hashlib.sha256()
    for n in range(6):
        for g in gen.all_labeled_graphs(n):
            for b in range(n + 2):
                digest.update(repr(feasible(g, b)).encode())
    assert digest.hexdigest() == FEASIBLE_N5_SHA256


def _package_imports(module: str) -> set[str]:
    """The alcuin modules one module of the package imports by name; the
    package itself counts as "__init__", which imports everything."""
    tree = ast.parse((Path(oracle.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # from .graph import Graph, or from . import io
            names = [node.module] if node.module else [a.name for a in node.names]
            found.update(name.split(".")[0] for name in names)
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            head, _, rest = name.partition(".")
            if head == "alcuin":
                found.add(rest.split(".")[0] or "__init__")
    return found


def test_oracle_imports_no_cover_or_classifier_code():
    # the oracle is the independent side of every cross-check, so nothing it
    # loads, directly or through another module, may be cover, classifier or
    # construction code
    closure, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo.extend(_package_imports(module))
    assert closure == {"oracle", "ferry", "graph", "errors"}
    assert _package_imports("ferry") == {"graph", "errors"}
    assert _package_imports("schedule") >= {"ferry", "classify", "cover"}  # the walk sees them


def _private_names_reached(module: str) -> set[str]:
    """Names one module of the package imports from another, or reads as
    an attribute of one (cover._lowest_covers after from . import cover)."""
    tree = ast.parse((Path(oracle.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_only_classify_decides_c():
    # classify is the one place that turns beta and covers into c(G);
    # synthesize, the survey and the rest read its Classification
    modules = sorted(p.stem for p in Path(oracle.__file__).parent.glob("*.py"))
    assert {"classify", "cli", "schedule", "__init__"} <= set(modules)
    assert "_lowest_covers" in _private_names_reached("classify")  # the walk sees them
    for module in modules:
        if module != "classify":
            reached = _private_names_reached(module) & {"_lowest_covers", "_pair_scan"}
            assert not reached, (module, reached)


def _budget_raisers(module: str) -> set[str]:
    """The functions of one module of the package that build or raise a
    BudgetExceededError themselves; "<module>" for its top level."""
    tree = ast.parse((Path(oracle.__file__).parent / f"{module}.py").read_text())
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            target = child.func if isinstance(child, ast.Call) else None
            if isinstance(child, ast.Raise):
                target = child.exc
            name = getattr(target, "id", getattr(target, "attr", None))
            if name == "BudgetExceededError":
                found.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_one_budget_rule():
    # every search refuses over-budget input through errors.check_limit or
    # errors.check_cap; only the survey stream re-raises, to add a line number
    modules = sorted(p.stem for p in Path(oracle.__file__).parent.glob("*.py"))
    assert {"cover", "ferry", "oracle", "cli", "errors"} <= set(modules)
    raisers = {m: found for m in modules if (found := _budget_raisers(m))}
    assert raisers == {"errors": {"check_limit", "check_cap"}, "cli": {"_stream_records"}}


def test_only_graph_and_io_read_max_vertices():
    # graph.check_vertex_count is the one check of a graph's size; io reads
    # the cap only to check outside input: the edge-list header, cargo ids
    def reads_cap(module: str) -> bool:
        tree = ast.parse((Path(oracle.__file__).parent / f"{module}.py").read_text())
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and type(n.ctx) is ast.Load}
        return "MAX_VERTICES" in loads | _private_names_reached(module)

    modules = sorted(p.stem for p in Path(oracle.__file__).parent.glob("*.py"))
    assert {"graph", "io", "generators", "oracle"} <= set(modules)
    assert {m for m in modules if reads_cap(m)} == {"graph", "io"}


class TestAlcuinExact:
    def test_path(self):
        c, sched = alcuin_exact(P3)
        assert c == 1 and len(sched.moves) == 7

    def test_claw(self):
        assert alcuin_exact(gen.star(3))[0] == 2

    def test_q3(self):
        # beta(Q3) = 4 via the cover solver; the cube is class one
        g = gen.hypercube(3)
        assert min_covers(g).beta == 4
        c, sched = alcuin_exact(g)
        assert c == 4 and verify_schedule(g, sched) is None

    def test_empty_graph(self):
        assert alcuin_exact(Graph(0, ())) == (0, Schedule(0, ()))

    def test_edgeless_needs_capacity_one(self):
        for n in (1, 3):
            assert alcuin_exact(gen.edgeless(n))[0] == 1

    def test_sandwich_bound(self):
        for g in gen.all_labeled_graphs(4):
            beta = min_covers(g).beta
            c, _ = alcuin_exact(g)
            assert beta <= c <= beta + 1

    def test_own_vertex_cover_number(self):
        # the beta read off the table is the only one a hint may name
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                beta, _ = brute_min_covers(g)
                alcuin_exact(g, beta=beta)
                with pytest.raises(ValueError):
                    alcuin_exact(g, beta=beta + 1)

    def test_budget_checked_before_beta(self):
        with pytest.raises(BudgetExceededError):
            alcuin_exact(gen.random_graph(64, 0.5, 3))

    def test_budget_checked_before_table(self, monkeypatch):
        # G(64, .5) has only ~23k independent sets, so the test above passes
        # either way; edgeless(n) has 2^n, and its table must never be built
        def unreachable(g):
            raise AssertionError("independent-set table built over the limit")

        monkeypatch.setattr(oracle, "_SetTable", unreachable)
        with pytest.raises(BudgetExceededError):
            alcuin_exact(gen.edgeless(13))
        with pytest.raises(BudgetExceededError):
            feasible(gen.edgeless(13), 1)

    def test_beta_hint_matches(self):
        for seed in range(10):
            g = gen.random_graph(6, 0.5, seed)
            beta = min_covers(g).beta
            assert alcuin_exact(g)[0] == alcuin_exact(g, beta=beta)[0]

    def test_wrong_beta_hint_raises(self):
        # too high used to answer c = 5 for P3 (c = 1); too low used to
        # abort when capacity beta + 1 = 2 failed on K4
        with pytest.raises(ValueError):
            alcuin_exact(gen.path(3), beta=5)
        with pytest.raises(ValueError):
            alcuin_exact(gen.complete(4), beta=1)
        with pytest.raises(ValueError):
            alcuin_exact(gen.edgeless(0), beta=1)

    def test_relabeling_invariance(self):
        # ten random permutations of each of ten random graphs
        import random

        rng = random.Random(7)
        for seed in range(10):
            g = gen.random_graph(6, 0.5, 50 + seed)
            c, _ = alcuin_exact(g)
            for _ in range(10):
                perm = list(range(6))
                rng.shuffle(perm)
                assert alcuin_exact(relabel(g, perm))[0] == c
