import random
from itertools import combinations

import pytest

from alcuin import (
    Graph,
    bits,
    cartesian_product,
    girth,
    is_bipartite,
    is_claw_free,
    is_independent,
    is_regular,
    mask_of,
    neighbors_in,
    vertices_of,
)
from alcuin import generators as gen
from brute import brute_girth, brute_is_claw_free


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert vertices_of(0b101001) == [0, 3, 5]
    assert list(bits(0)) == []


def test_vertices_of_matches_a_bit_loop():
    def plain(mask):
        return [v for v in range(mask.bit_length()) if mask >> v & 1]

    rng = random.Random(5)
    masks = [0, 1, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 64) + 5, (1 << 100) - 1]
    masks += [rng.getrandbits(rng.choice((8, 32, 64, 80))) for _ in range(200)]
    for mask in masks:
        assert vertices_of(mask) == plain(mask) == list(bits(mask))


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 64)])
def test_negative_masks_rejected(mask):
    with pytest.raises(ValueError, match="negative"):
        vertices_of(mask)
    with pytest.raises(ValueError, match="negative"):
        list(bits(mask))


class TestGraphConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.adj == (0b010, 0b101, 0b010)
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.edge_count() == 2
        # ascending pairs, read straight off adj
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                pairs = combinations(range(n), 2)
                assert g.edges() == [(u, v) for u, v in pairs if g.adj[u] >> v & 1]

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(1, (1,))

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(1, (0b10,))

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Graph(65, (0,) * 65)

    def test_from_edges_checks_n_before_allocating(self):
        # [0] * 2**62 raises MemoryError; the count is refused before it
        with pytest.raises(ValueError, match=r"^vertex count 4611686018427387904 outside 0\.\.64$"):
            Graph.from_edges(2**62, [])

    def test_adjacency_length_checked(self):
        with pytest.raises(ValueError, match="adjacency length"):
            Graph(2, (0,))

    def test_empty_graph_is_legal(self):
        g = Graph(0, ())
        assert g.full_mask == 0
        assert g.edges() == []

    def test_immutable(self):
        g = gen.path(3)
        with pytest.raises(AttributeError):
            g.n = 5


class TestNeighborsIn:
    def test_path_center(self):
        # w-g, g-c with w=0, g=1, c=2: both leaves are neighbors of the center
        g = gen.path(3)
        assert neighbors_in(g, mask_of([1]), mask_of([0, 2])) == mask_of([0, 2])

    def test_empty_source(self):
        assert neighbors_in(gen.cycle(4), 0, 0b1111) == 0

    def test_star_center_sees_all_leaves(self):
        g = gen.star(3)
        assert neighbors_in(g, 1, 0b1110) == 0b1110

    def test_members_not_auto_included(self):
        g = gen.path(3)
        assert neighbors_in(g, mask_of([0]), g.full_mask) == mask_of([1])

    def test_range_errors(self):
        g = gen.path(3)
        with pytest.raises(ValueError):
            neighbors_in(g, 1 << 3, g.full_mask)
        with pytest.raises(ValueError):
            neighbors_in(g, 1, 1 << 10)


class TestIsIndependent:
    def test_triangle_pair(self):
        assert not is_independent(gen.complete(3), 0b011)

    def test_edgeless_anything(self):
        g = gen.edgeless(4)
        for mask in range(16):
            assert is_independent(g, mask)

    def test_c4_diagonal(self):
        assert is_independent(gen.cycle(4), mask_of([0, 2]))

    def test_empty_and_singletons(self):
        g = gen.complete(4)
        assert is_independent(g, 0)
        for v in range(4):
            assert is_independent(g, 1 << v)

    def test_matches_neighbors_in_characterization(self):
        for g in gen.all_labeled_graphs(4):
            for mask in range(16):
                assert is_independent(g, mask) == (neighbors_in(g, mask, mask) == 0)


class TestGirth:
    def test_cycles(self):
        for n in (3, 5, 8):
            assert girth(gen.cycle(n)) == n

    def test_forests_are_acyclic(self):
        assert girth(gen.path(6)) is None
        assert girth(gen.star(4)) is None
        assert girth(gen.edgeless(3)) is None
        assert girth(Graph(0, ())) is None

    def test_petersen(self):
        g = gen.petersen()
        assert brute_girth(g) == 5  # reference computation
        assert girth(g) == 5

    def test_agrees_with_reference_exhaustively(self):
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                assert girth(g) == brute_girth(g)

    @pytest.mark.parametrize(
        "g, expected",
        [
            (gen.cycle(20), 20),
            (gen.hypercube(6), 4),
            (gen.complete_bipartite(11, 23), 4),
            (gen.star(30), None),
            (gen.path(10), None),
            (gen.star(63), None),
            (gen.path(64), None),
            # a path, a star and a lone edge among isolated vertices
            (Graph.from_edges(12, [(0, 3), (3, 7), (2, 5), (2, 9), (2, 11), (6, 10)]), None),
            # the same forest plus (0, 7), which closes the triangle 0-3-7
            (Graph.from_edges(12, [(0, 3), (3, 7), (2, 5), (2, 9), (2, 11), (6, 10), (0, 7)]), 3),
            # a 40-vertex path closed by one edge into a 40-cycle
            (Graph.from_edges(40, [(v, v + 1) for v in range(39)] + [(0, 39)]), 40),
        ],
    )
    def test_named_graphs_match_reference(self, g, expected):
        assert girth(g) == brute_girth(g) == expected

    def test_finite_girth_bounds(self):
        for g in gen.all_labeled_graphs(5):
            got = girth(g)
            if got is not None:
                assert 3 <= got <= g.n


class TestClawFree:
    def test_the_claw_itself(self):
        assert not is_claw_free(gen.star(3))

    def test_triangle(self):
        assert is_claw_free(gen.complete(3))

    def test_petersen_has_claws(self):
        # girth 5 makes every neighborhood independent; vertex 0's neighbors
        # 1, 4, 5 are pairwise non-adjacent
        g = gen.petersen()
        for a, b in [(1, 4), (1, 5), (4, 5)]:
            assert not g.adj[a] >> b & 1
        assert not is_claw_free(g)

    def test_paths_and_cycles(self):
        assert is_claw_free(gen.path(6))
        assert is_claw_free(gen.cycle(7))

    def test_agrees_with_reference_exhaustively(self):
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                assert is_claw_free(g) == brute_is_claw_free(g)

    @pytest.mark.parametrize(
        "g, expected",
        [(gen.complete(40), True), (gen.complete(64), True), (gen.star(30), False)],
    )
    def test_dense_and_star_match_reference(self, g, expected):
        assert is_claw_free(g) == brute_is_claw_free(g) == expected


class TestRegular:
    def test_cycle(self):
        assert is_regular(gen.cycle(5)) == 2

    def test_star_not_regular(self):
        assert is_regular(gen.star(3)) is None

    def test_hypercube(self):
        assert is_regular(gen.hypercube(3)) == 3

    def test_empty_graph_absent(self):
        assert is_regular(Graph(0, ())) is None

    def test_edgeless_zero_regular(self):
        assert is_regular(gen.edgeless(3)) == 0


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(gen.cycle(4)) == (mask_of([0, 2]), mask_of([1, 3]))

    def test_odd_cycle(self):
        assert is_bipartite(gen.cycle(5)) is None

    def test_trees(self):
        for seq in [(0, 0), (1, 2), (3, 3, 3)]:
            assert is_bipartite(gen.tree_from_pruefer(seq)) is not None

    def test_lowest_vertex_per_component_goes_left(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        a, b = is_bipartite(g)
        assert a == mask_of([0, 2]) and b == mask_of([1, 3])

    def test_bipartite_implies_even_girth(self):
        for g in gen.all_labeled_graphs(5):
            if is_bipartite(g) is not None:
                got = girth(g)
                assert got is None or got % 2 == 0


class TestCartesianProduct:
    def test_k2_times_k2_is_c4(self):
        g = cartesian_product(gen.complete(2), gen.complete(2))
        assert g.n == 4 and g.edge_count() == 4
        assert is_regular(g) == 2 and girth(g) == 4

    def test_k1_factor_is_identity(self):
        h = gen.petersen()
        assert cartesian_product(gen.complete(1), h) == h

    def test_k2_times_p3(self):
        # two path copies plus 3 rungs: 2*2 + 3 = 7 edges
        g = cartesian_product(gen.complete(2), gen.path(3))
        assert g.n == 6 and g.edge_count() == 7

    def test_row_major_indexing(self):
        g = cartesian_product(gen.complete(2), gen.path(3))
        # (u, v) -> 3u + v; (0,0)~(0,1) inside a copy, (0,0)~(1,0) across
        assert g.adj[0] == mask_of([1, 3])

    def test_count_formulas_on_random_pairs(self):
        for seed in range(20):
            a = gen.random_graph(4, 0.5, seed)
            b = gen.random_graph(5, 0.4, 1000 + seed)
            prod = cartesian_product(a, b)
            assert prod.n == a.n * b.n
            assert prod.edge_count() == a.n * b.edge_count() + b.n * a.edge_count()

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            cartesian_product(gen.edgeless(9), gen.edgeless(8))
