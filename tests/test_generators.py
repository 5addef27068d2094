import pytest

from alcuin import cartesian_product, girth, is_bipartite, is_regular, mask_of
from alcuin import generators as gen
from alcuin.io import serialize_graph6
from brute import is_connected


class TestBasicFamilies:
    def test_star(self):
        g = gen.star(3)
        assert g.n == 4 and g.edge_count() == 3
        assert g.degree(0) == 3
        assert gen.star(0).n == 1
        # star(2) is a path on 3 vertices up to relabeling
        assert sorted(gen.star(2).degree(v) for v in range(3)) == [1, 1, 2]

    def test_path_and_cycle(self):
        assert gen.path(4).edges() == [(0, 1), (1, 2), (2, 3)]
        assert gen.cycle(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        with pytest.raises(ValueError):
            gen.cycle(2)

    def test_complete(self):
        assert gen.complete(4).edge_count() == 6
        assert gen.complete(0).n == 0

    def test_complete_bipartite(self):
        g = gen.complete_bipartite(3, 3)
        assert g.n == 6 and g.edge_count() == 9 and is_regular(g) == 3
        assert is_bipartite(g) == (mask_of([0, 1, 2]), mask_of([3, 4, 5]))

    def test_petersen(self):
        g = gen.petersen()
        assert g.n == 10 and g.edge_count() == 15 and is_regular(g) == 3

    def test_circulant(self):
        g = gen.circulant(10, (1, 2))
        assert g.n == 10 and is_regular(g) == 4 and g.edge_count() == 20
        # steps 1 and 2 mod 5 reach every other vertex
        assert gen.circulant(5, (1, 2)) == gen.complete(5)
        with pytest.raises(ValueError):
            gen.circulant(4, (4,))
        with pytest.raises(ValueError, match="^circulant needs at least one vertex$"):
            gen.circulant(0, [1])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: gen.edgeless(65), id="edgeless-65"),
        pytest.param(lambda: gen.edgeless(-1), id="edgeless-neg"),
        pytest.param(lambda: gen.star(64), id="star-64"),
        pytest.param(lambda: gen.path(65), id="path-65"),
        pytest.param(lambda: gen.path(-1), id="path-neg"),
        pytest.param(lambda: gen.cycle(65), id="cycle-65"),
        pytest.param(lambda: gen.complete(65), id="complete-65"),
        pytest.param(lambda: gen.complete(-1), id="complete-neg"),
        pytest.param(lambda: gen.complete_bipartite(30, 35), id="complete_bipartite-30-35"),
        pytest.param(lambda: gen.circulant(65, [1]), id="circulant-65"),
        pytest.param(lambda: gen.overlapping_stars(31), id="overlapping_stars-31"),
        pytest.param(lambda: gen.tree_from_pruefer([0] * 63), id="tree_from_pruefer-63"),
        pytest.param(lambda: gen.random_graph(65, 0.5, 1), id="random_graph-65"),
        pytest.param(lambda: gen.random_bipartite(30, 35, 0.5, 1), id="random_bipartite-30-35"),
        pytest.param(lambda: gen.hypercube(7), id="hypercube-7"),
        pytest.param(
            lambda: cartesian_product(gen.complete(5), gen.complete(13)), id="product-5x13"
        ),
    ],
)
def test_one_vertex_cap(build):
    # every constructor refuses an oversize or negative count through
    # graph.check_vertex_count, with its one message
    with pytest.raises(ValueError, match=r"^vertex count -?\d+ outside 0\.\.64$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: gen.star(-1), "negative leaf count", id="star--1"),
        pytest.param(lambda: gen.complete_bipartite(-1, 2), "negative part size", id="kab--1-2"),
        pytest.param(lambda: gen.complete_bipartite(2, -1), "negative part size", id="kab-2--1"),
        pytest.param(lambda: gen.hypercube(-1), "negative dimension", id="hypercube--1"),
    ],
)
def test_negative_size_guards(build, message):
    # check_vertex_count lets these through (star(-1) asks for k + 1 = 0
    # vertices, complete_bipartite(-1, 2) for 1, and hypercube builds by
    # products), so each family's own guard names the fault
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestHypercube:
    def test_smallest(self):
        assert gen.hypercube(0) == gen.complete(1)
        assert gen.hypercube(1) == gen.complete(2)

    def test_q3_counts(self):
        g = gen.hypercube(3)
        assert g.n == 8 and g.edge_count() == 12

    @pytest.mark.parametrize("d", range(7))
    def test_regular_and_bipartite(self, d):
        g = gen.hypercube(d)
        assert g.n == 2**d
        assert is_regular(g) == d
        assert is_bipartite(g) is not None


class TestOverlappingStars:
    def test_k1_shape(self):
        g = gen.overlapping_stars(1)
        assert g.n == 5
        assert g.edges() == [(0, 2), (0, 3), (1, 3), (1, 4)]

    def test_k2_counts(self):
        g = gen.overlapping_stars(2)
        assert g.n == 7 and g.edge_count() == 6

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_degrees(self, k):
        g = gen.overlapping_stars(k)
        assert g.degree(0) == g.degree(1) == k + 1
        shared = k + 2
        assert g.degree(shared) == 2
        others = [v for v in range(2, g.n) if v != shared]
        assert all(g.degree(v) == 1 for v in others)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            gen.overlapping_stars(0)


class TestPruefer:
    def test_decode_star(self):
        # [0, 0]: leaves 1 and 2 attach to 0, final edge joins 3 to 0
        g = gen.tree_from_pruefer([0, 0])
        assert g.edges() == [(0, 1), (0, 2), (0, 3)]

    def test_decode_empty_sequence(self):
        assert gen.tree_from_pruefer([]) == gen.complete(2)

    @pytest.mark.parametrize("n", [4, 5])
    def test_all_sequences_give_distinct_trees(self, n):
        seen = set()
        count = 0
        for code in range(n ** (n - 2)):
            seq = []
            c = code
            for _ in range(n - 2):
                seq.append(c % n)
                c //= n
            g = gen.tree_from_pruefer(seq)
            assert g.edge_count() == n - 1
            assert girth(g) is None
            assert is_connected(g)
            seen.add(tuple(g.adj))
            count += 1
        assert len(seen) == count == n ** (n - 2)

    def test_range_error(self):
        with pytest.raises(ValueError):
            gen.tree_from_pruefer([4])


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in gen.all_labeled_graphs(3)) == 8
        assert sum(1 for _ in gen.all_labeled_graphs(4)) == 64

    def test_first_is_edgeless_and_no_duplicates(self):
        graphs = list(gen.all_labeled_graphs(4))
        assert graphs[0] == gen.edgeless(4)
        assert len({g.adj for g in graphs}) == 64

    def test_cap(self):
        with pytest.raises(ValueError):
            next(gen.all_labeled_graphs(8))

    def test_edge_mask_out_of_range(self):
        with pytest.raises(ValueError):
            gen.graph_from_edge_mask(3, 8)


class TestRandomGraph:
    def test_extreme_probabilities(self):
        assert gen.random_graph(6, 0.0, 7) == gen.edgeless(6)
        assert gen.random_graph(6, 1.0, 7) == gen.complete(6)

    def test_deterministic(self):
        assert gen.random_graph(8, 0.5, 42) == gen.random_graph(8, 0.5, 42)

    def test_seed_sensitivity(self):
        assert gen.random_graph(8, 0.5, 42) != gen.random_graph(8, 0.5, 43)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            gen.random_graph(4, 1.5, 0)

    def test_pinned_stream(self):
        # frozen draw from the documented mixing constants, seed 0
        state, out = gen._splitmix64(0)
        assert state == 0x9E3779B97F4A7C15
        assert out == 0xE220A8397B1DCDAF


class TestRandomBipartite:
    def test_extreme_probabilities(self):
        for a, b in ((0, 0), (0, 3), (3, 0), (2, 5), (4, 4)):
            assert gen.random_bipartite(a, b, 0.0, 7) == gen.edgeless(a + b)
            assert gen.random_bipartite(a, b, 1.0, 7) == gen.complete_bipartite(a, b)

    def test_edges_cross_the_sides(self):
        for seed in range(20):
            g = gen.random_bipartite(5, 8, 0.4, seed)
            assert all(u < 5 <= v for u, v in g.edges())

    def test_pinned_seed(self):
        # pairs (u, 3 + v) drawn u-major from the seed-1 splitmix64 stream
        g = gen.random_bipartite(3, 4, 0.5, 1)
        assert g.edges() == [(0, 6), (1, 3), (2, 3), (2, 5)]
        assert serialize_graph6(g) == "FB?c?"

    def test_arguments_validated(self):
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
                gen.random_bipartite(2, 2, p, 0)
        with pytest.raises(ValueError, match="negative part size"):
            gen.random_bipartite(-1, 3, 0.5, 0)
