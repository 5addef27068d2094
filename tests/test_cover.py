import random
import tracemalloc

import pytest

from alcuin import (
    BudgetExceededError,
    CoverReport,
    Graph,
    alpha,
    hall_strict,
    is_vertex_cover,
    mask_of,
    min_covers,
)
from alcuin import cover
from alcuin import generators as gen
from alcuin.cover import (
    _lowest_covers,
    _minimum_covers,
    check_minimum_cover,
    independent_levels,
)
from brute import (
    brute_alpha,
    brute_hall_strict,
    brute_independent_subsets,
    brute_maximum_independent_sets,
    brute_min_covers,
)
from capped import budget_error


def matching(m: int) -> Graph:
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def padded_matching(m: int) -> Graph:
    """m disjoint edges with an isolated vertex after each."""
    return Graph.from_edges(3 * m, [(3 * i, 3 * i + 1) for i in range(m)])


def ties_below_alpha() -> Graph:
    """Vertex 0 joined to 1 and 2, and vertex 1 to the first vertex of each
    of 11 disjoint triangles on 3..35.  Taking 0 first gives 3^11 independent
    sets of size 12, while alpha = 13 ({1, 2} and two choices per triangle)."""
    edges = [(0, 1), (0, 2)]
    for t in range(3, 36, 3):
        edges += [(t, t + 1), (t + 1, t + 2), (t, t + 2), (1, t)]
    return Graph.from_edges(36, edges)


def random_union(seed: int, n: int) -> Graph:
    """Disjoint union of small G(k, p) pieces on n shuffled vertex labels,
    so components interleave in vertex order."""
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    start = 0
    while start < n:
        k = min(rng.randint(1, 6), n - start)
        piece = gen.random_graph(k, rng.choice((0.3, 0.5, 0.8)), rng.getrandbits(64))
        edges += [(labels[start + u], labels[start + v]) for u, v in piece.edges()]
        start += k
    return Graph.from_edges(n, edges)


def mixed_union(seed: int) -> Graph:
    """Disjoint union of stars and K_{a,b} with a < b (one minimum cover
    each), edges and C4s (two each) and isolated vertices, on shuffled
    vertex labels so the components interleave in vertex order."""
    rng = random.Random(seed)
    pieces = []
    for _ in range(rng.randint(2, 6)):
        kind = rng.randrange(5)
        if kind == 0:
            pieces.append(gen.star(rng.randint(2, 4)))
        elif kind == 1:
            a = rng.randint(1, 2)
            pieces.append(gen.complete_bipartite(a, a + rng.randint(1, 2)))
        elif kind == 2:
            pieces.append(gen.complete(2))
        elif kind == 3:
            pieces.append(gen.cycle(4))
        else:
            pieces.append(gen.edgeless(1))
    n = sum(p.n for p in pieces)
    labels = list(range(n))
    rng.shuffle(labels)
    edges, start = [], 0
    for p in pieces:
        edges += [(labels[start + u], labels[start + v]) for u, v in p.edges()]
        start += p.n
    return Graph.from_edges(n, edges)


class TestAlpha:
    def test_star_leaves(self):
        assert alpha(gen.star(3)) == 3

    def test_c5(self):
        assert alpha(gen.cycle(5)) == 2

    def test_petersen(self):
        g = gen.petersen()
        assert brute_alpha(g) == 4  # reference computation
        assert alpha(g) == 4
        assert alpha(g) + min_covers(g).beta == 10

    def test_empty_graph(self):
        assert alpha(gen.edgeless(0)) == 0

    def test_agrees_with_reference(self):
        for n in range(5):
            for g in gen.all_labeled_graphs(n):
                assert alpha(g) == brute_alpha(g)
        for seed in range(30):
            g = gen.random_graph(7, 0.4, seed)
            assert alpha(g) == brute_alpha(g)

    def test_agrees_with_enumeration_across_components(self):
        graphs = [random_union(seed, 12 + seed % 9) for seed in range(40)]
        graphs += [padded_matching(m) for m in range(1, 11)]
        graphs += [gen.edgeless(n) for n in (1, 7, 20)]
        for g in graphs:
            assert alpha(g) == brute_maximum_independent_sets(g)[0]

    def test_matchings_take_one_end_per_edge(self):
        # without degree-1 reductions alpha branched 2^m ways on a matching
        assert not hall_strict(matching(16), 0x55555555)
        assert check_minimum_cover(matching(32), 0x5555555555555555) is None


class TestMinCovers:
    def test_c4_two_covers(self):
        rep = min_covers(gen.cycle(4))
        assert rep.beta == 2
        assert rep.covers == (mask_of([0, 2]), mask_of([1, 3]))
        assert not rep.unique
        assert rep.complete

    def test_star_unique_center(self):
        rep = min_covers(gen.star(3))
        assert rep.beta == 1 and rep.covers == (1,) and rep.unique

    def test_edgeless_empty_cover(self):
        rep = min_covers(gen.edgeless(3))
        assert rep.beta == 0 and rep.covers == (0,) and rep.unique

    def test_covers_sorted_and_all_minimum(self):
        for g in gen.all_labeled_graphs(4):
            rep = min_covers(g)
            assert list(rep.covers) == sorted(rep.covers)
            for c in rep.covers:
                assert is_vertex_cover(g, c)
                assert c.bit_count() == rep.beta
            assert rep.unique == (len(rep.covers) == 1)
            assert rep.complete is True

    def test_agrees_with_reference(self):
        for n in range(5):
            for g in gen.all_labeled_graphs(n):
                beta, covers = brute_min_covers(g)
                rep = min_covers(g)
                assert rep.beta == beta
                assert list(rep.covers) == covers
        for seed in range(50):
            g = gen.random_graph(6, 0.5, seed)
            beta, covers = brute_min_covers(g)
            rep = min_covers(g)
            assert (rep.beta, list(rep.covers)) == (beta, covers)

    def test_random_unions_of_components(self):
        # interleaved components reach the sort out of order
        out_of_order = 0
        for seed in range(40):
            g = random_union(seed, 12 + seed % 9)
            _, listed = _minimum_covers(g)
            out_of_order += listed != sorted(listed)
            beta, covers = brute_min_covers(g)
            rep = min_covers(g, 20)
            assert (rep.beta, list(rep.covers)) == (beta, covers)
        assert out_of_order

    def test_report_holds_only_beta_and_covers(self):
        rep = CoverReport(2, (0b0101, 0b1010))
        assert not rep.unique and rep.complete is True
        assert CoverReport(1, (1,)).unique
        with pytest.raises(TypeError):
            CoverReport(1, (1,), unique=True)
        with pytest.raises(TypeError):
            CoverReport(1, (1,), complete=False)

    def test_budget_raises_before_search(self, monkeypatch):
        def no_search(g, want):
            raise AssertionError("searched above the budget")

        monkeypatch.setattr("alcuin.cover._highest_maximum_sets", no_search)
        message = "^cover enumeration for n=18 exceeds the limit 16$"
        with pytest.raises(BudgetExceededError, match=message):
            min_covers(gen.random_graph(18, 0.3, 5))

    def test_budget_is_configurable(self):
        message = "^cover enumeration for n=4 exceeds the limit 3$"
        with pytest.raises(BudgetExceededError, match=message):
            min_covers(gen.cycle(4), full_limit=3)
        assert min_covers(gen.random_graph(18, 0.3, 5), full_limit=18).complete

    def test_empty_graph_needs_no_budget(self):
        # nothing to search, so no limit applies, as in the oracle
        g = Graph(0, ())
        assert min_covers(g, -1) == CoverReport(0, (0,))
        assert _lowest_covers(g, -1) == (0, (0,))

    def test_matching32_raises_at_default_limit(self):
        # 2^32 covers: at the default limit this must fail fast, not search
        with pytest.raises(BudgetExceededError, match="n=64 exceeds the limit 16"):
            min_covers(matching(32))

    def test_gallai_identity(self):
        for g in gen.all_labeled_graphs(5):
            assert brute_alpha(g) + min_covers(g).beta == g.n


class TestCoverCap:
    """At most MAX_COVERS covers are listed, whatever the vertex limit;
    the inputs that pass it run under a memory cap (tests/capped.py)."""

    def test_matching32_counted_before_listing(self):
        source = (
            "from alcuin import Graph, min_covers\n"
            "min_covers(Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)]), 64)"
        )
        message = budget_error(source)
        assert message == "cover enumeration exceeds the limit 65536 (131072 covers counted)"

    def test_one_component_with_2_to_the_20_sets(self):
        # a hub joined to every vertex of a 20-edge matching: one component
        # whose maximum independent sets take one end of each edge
        source = (
            "from alcuin import Graph, min_covers\n"
            "edges = [(2 * i, 2 * i + 1) for i in range(20)] + [(40, v) for v in range(40)]\n"
            "min_covers(Graph.from_edges(41, edges), 64)"
        )
        message = budget_error(source)
        assert message == "cover enumeration exceeds the limit 65536 (65537 covers counted)"

    def test_matching32_raises_before_listing_a_cover(self):
        # the count is a product of per-component counts, so nothing the
        # size of the cap is built before the cap refuses it
        g = matching(32)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as info:
                min_covers(g, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == "cover enumeration exceeds the limit 65536 (131072 covers counted)"
        assert peak < 64 << 10

    def test_the_cap_itself_is_accepted(self):
        assert len(min_covers(matching(16), 64).covers) == 65536

    def test_matching_across_the_halves_of_64_vertices(self):
        # edges (i, i + 32): the components interleave, so the sort has work
        g = Graph.from_edges(64, [(i, i + 32) for i in range(16)])
        rep = min_covers(g, 64)
        assert rep.beta == 16 and len(rep.covers) == 65536
        assert list(rep.covers) == sorted(set(rep.covers))
        assert rep.covers[0] == 0xFFFF and rep.covers[-1] == 0xFFFF << 32

    def test_ties_below_alpha_do_not_count(self):
        # 3^11 independent sets of size 12 pass the cap, but alpha = 13 is
        # the floor, so only the 2,048 maximum sets are listed
        rep = min_covers(ties_below_alpha(), 64)
        assert rep.beta == 23 and len(rep.covers) == 2048
        assert _lowest_covers(ties_below_alpha(), 64) == (23, rep.covers[:2])


class TestLowestCovers:
    """beta and the first two minimum covers, found without listing the rest."""

    @staticmethod
    def reference(g):
        a, sets = brute_maximum_independent_sets(g)
        return g.n - a, tuple(sorted(g.full_mask ^ s for s in sets)[:2])

    def test_every_graph_up_to_six_vertices(self):
        for n in range(7):
            for g in gen.all_labeled_graphs(n):
                beta, covers = brute_min_covers(g)
                assert _lowest_covers(g, 6) == (beta, tuple(covers[:2]))

    def test_random_unions_of_components(self):
        for seed in range(40):
            g = random_union(seed, 12 + seed % 9)
            assert _lowest_covers(g, 20) == self.reference(g)

    def test_matchings_padded_with_isolated_vertices(self):
        for m in range(1, 11):
            g = padded_matching(m)
            assert _lowest_covers(g, 30) == self.reference(g)

    def test_vertex_budget_as_min_covers(self):
        message = "^cover enumeration for n=4 exceeds the limit 3$"
        with pytest.raises(BudgetExceededError, match=message):
            _lowest_covers(gen.cycle(4), 3)


class TestMaximumIndependentSets:
    """The maximum independent sets, read off min_covers as complements."""

    @staticmethod
    def assert_matches_reference(g):
        rep = min_covers(g, 64)
        sets = [g.full_mask ^ c for c in rep.covers]
        ref_a, ref_sets = brute_maximum_independent_sets(g)
        assert (g.n - rep.beta, sorted(sets)) == (ref_a, sorted(ref_sets))

    def test_every_graph_up_to_six_vertices(self):
        for n in range(7):
            for g in gen.all_labeled_graphs(n):
                self.assert_matches_reference(g)

    def test_matchings_and_isolated_vertices(self):
        for m in range(1, 11):
            self.assert_matches_reference(matching(m))
        for n in (1, 7, 20):
            self.assert_matches_reference(gen.edgeless(n))
        # a matching padded with isolated vertices
        self.assert_matches_reference(Graph.from_edges(20, [(2 * i, 2 * i + 1) for i in range(7)]))
        for m in range(1, 11):
            self.assert_matches_reference(padded_matching(m))

    @pytest.mark.parametrize("error", [-1, 1])
    def test_wrong_alpha_raises(self, monkeypatch, error):
        # alpha is each search's floor, so a wrong one must fail loudly
        alpha_within = cover._alpha_within
        monkeypatch.setattr(
            "alcuin.cover._alpha_within", lambda adj, comp: alpha_within(adj, comp) + error
        )
        message = f"alpha={1 + error}"
        with pytest.raises(RuntimeError, match=message):
            min_covers(matching(3))
        with pytest.raises(RuntimeError, match=message):
            _lowest_covers(matching(3), 16)

    def test_random_unions_of_components(self):
        for seed in range(40):
            self.assert_matches_reference(random_union(seed, 12 + seed % 9))
            self.assert_matches_reference(mixed_union(seed))

    @staticmethod
    def assert_descending(sets):
        assert all(a > b for a, b in zip(sets, sets[1:]))

    def test_components_in_vertex_order_list_descending(self):
        # the covers come ascending, their independent sets descending, so
        # that min_covers' sort meets one run
        for m in range(1, 17):
            for g in (matching(m), padded_matching(m)):
                _, covers = _minimum_covers(g)
                self.assert_descending([g.full_mask ^ c for c in covers])
                assert min_covers(g, 48).covers == tuple(covers)

    def test_matching16_cover_count_and_order(self):
        rep = min_covers(matching(16), 64)
        assert rep.complete and rep.beta == 16 and len(rep.covers) == 65536
        # every even vertex, then vertex 1 in place of vertex 0
        assert rep.covers[0] == 0x55555555
        assert rep.covers[1] == 0x55555556


class TestIndependentSubsets:
    def test_triangle(self):
        levels = list(independent_levels(gen.complete(3), 0b111))
        assert [[m for m, _ in level] for level in levels] == [[1, 2, 4]]

    def test_neighborhoods_are_unions(self):
        g = gen.path(4)
        subs = dict(pair for level in independent_levels(g, g.full_mask) for pair in level)
        assert subs[mask_of([0, 2])] == g.adj[0] | g.adj[2]

    def test_levels_match_subset_walk(self):
        rng = random.Random(11)
        graphs = [g for n in range(6) for g in gen.all_labeled_graphs(n)]
        graphs += [gen.random_graph(12, rng.choice((0.1, 0.3, 0.6)), s) for s in range(30)]
        for g in graphs:
            for base in (g.full_mask, rng.getrandbits(g.n)):
                levels = list(independent_levels(g, base))
                got = [(k, m, nb) for k, level in enumerate(levels, 1) for m, nb in level]
                assert got == brute_independent_subsets(g, base)
                assert all(levels)

    def test_builds_one_level_per_request(self):
        # 2^64 independent subsets in all: only a lazy generator gets past the first two
        levels = independent_levels(gen.edgeless(64), (1 << 64) - 1)
        assert len(next(levels)) == 64
        assert len(next(levels)) == 64 * 63 // 2


class TestHallStrict:
    def test_star_center(self):
        assert hall_strict(gen.star(3), 1)

    def test_k2_fails(self):
        assert not hall_strict(gen.complete(2), 1)

    def test_overlapping_stars_cover(self):
        # {0}: 2 > 1; {1}: 2 > 1; {0,1}: 3 > 2
        assert hall_strict(gen.overlapping_stars(1), mask_of([0, 1]))

    def test_empty_cover_vacuous(self):
        assert hall_strict(gen.edgeless(3), 0)

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError):
            hall_strict(gen.path(3), mask_of([0]))
        with pytest.raises(ValueError, match="outside the graph"):
            hall_strict(gen.path(3), mask_of([3]))

    def test_rejects_non_minimum_cover(self):
        with pytest.raises(ValueError):
            hall_strict(gen.path(3), mask_of([0, 1]))

    def test_characterizes_uniqueness(self):
        # full n <= 6 quantification lives in the acceptance suite
        for n in range(5):
            for g in gen.all_labeled_graphs(n):
                rep = min_covers(g)
                for c in rep.covers:
                    assert hall_strict(g, c) == rep.unique == brute_hall_strict(g, c)
