import random

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
from alcuin import generators as gen
from alcuin.cover import _maximum_independent_sets, independent_levels
from brute import (
    brute_alpha,
    brute_hall_strict,
    brute_independent_subsets,
    brute_maximum_independent_sets,
    brute_min_covers,
)


def matching(m: int) -> Graph:
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


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

    def test_report_holds_only_beta_and_covers(self):
        rep = CoverReport(2, (0b0101, 0b1010))
        assert not rep.unique and rep.complete is True
        assert CoverReport(1, (1,)).unique
        with pytest.raises(TypeError):
            CoverReport(1, (1,), unique=True)
        with pytest.raises(TypeError):
            CoverReport(1, (1,), complete=False)

    def test_budget_raises_before_search(self, monkeypatch):
        def no_search(g):
            raise AssertionError("searched above the budget")

        monkeypatch.setattr("alcuin.cover._maximum_independent_sets", no_search)
        message = "^cover enumeration for n=18 exceeds the limit 16$"
        with pytest.raises(BudgetExceededError, match=message):
            min_covers(gen.random_graph(18, 0.3, 5))

    def test_budget_is_configurable(self):
        message = "^cover enumeration for n=4 exceeds the limit 3$"
        with pytest.raises(BudgetExceededError, match=message):
            min_covers(gen.cycle(4), full_limit=3)
        assert min_covers(gen.random_graph(18, 0.3, 5), full_limit=18).complete

    def test_matching32_raises_at_default_limit(self):
        # 2^32 covers: at the default limit this must fail fast, not search
        with pytest.raises(BudgetExceededError, match="n=64 exceeds the limit 16"):
            min_covers(matching(32))

    def test_gallai_identity(self):
        for g in gen.all_labeled_graphs(5):
            assert alpha(g) + min_covers(g).beta == g.n


class TestMaximumIndependentSets:
    @staticmethod
    def assert_matches_reference(g):
        a, sets = _maximum_independent_sets(g)
        ref_a, ref_sets = brute_maximum_independent_sets(g)
        assert (a, sorted(sets)) == (ref_a, sorted(ref_sets))

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

    def test_random_unions_of_components(self):
        for seed in range(40):
            self.assert_matches_reference(random_union(seed, 12 + seed % 9))

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
