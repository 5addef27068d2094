"""Invariant checks over randomized graphs."""

from hypothesis import given, settings, strategies as st

import alcuin
from alcuin import generators as gen
from brute import brute_alpha, relabel


@st.composite
def graphs(draw, max_n=6, min_n=0):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return gen.graph_from_edge_mask(n, mask)


@given(graphs())
def test_gallai_identity(g):
    assert brute_alpha(g) + alcuin.min_covers(g).beta == g.n


@given(graphs())
def test_cover_complement_duality(g):
    for cover in alcuin.min_covers(g).covers:
        assert alcuin.is_independent(g, g.full_mask ^ cover)
        assert alcuin.is_vertex_cover(g, cover)


@given(graphs(), st.integers(0, 63))
def test_independence_matches_cover_of_complement(g, mask):
    mask &= g.full_mask
    assert alcuin.is_independent(g, mask) == alcuin.is_vertex_cover(g, g.full_mask ^ mask)


@given(graphs())
def test_alcuin_number_is_beta_or_beta_plus_one(g):
    beta = alcuin.min_covers(g).beta
    cls = alcuin.classify(g)
    assert beta <= cls.c <= beta + 1
    assert (cls.verdict == alcuin.CLASS_TWO) == (cls.c == beta + 1)


@settings(max_examples=60)
@given(graphs())
def test_classifier_agrees_with_search(g):
    assert alcuin.classify(g).c == alcuin.alcuin_exact(g)[0]


@settings(max_examples=60)
@given(graphs())
def test_synthesized_schedules_are_sound_and_tight(g):
    sched = alcuin.synthesize(g)
    assert alcuin.verify_schedule(g, sched) is None
    assert sched.capacity == alcuin.classify(g).c


@given(graphs())
def test_unique_cover_iff_strict_expansion(g):
    rep = alcuin.min_covers(g)
    for cover in rep.covers:
        assert alcuin.hall_strict(g, cover) == rep.unique


@given(graphs())
def test_class_two_satisfies_strict_expansion(g):
    cls = alcuin.classify(g)
    if cls.verdict == alcuin.CLASS_TWO:
        cover = alcuin.min_covers(g).covers[0]
        assert alcuin.hall_strict(g, cover)
        assert alcuin.exists_2x_witness(g, cover) is None


@given(graphs(max_n=7))
def test_graph6_roundtrip(g):
    from alcuin.io import parse_graph6, serialize_graph6

    assert parse_graph6(serialize_graph6(g)) == g


@given(graphs(max_n=7))
def test_edge_list_roundtrip(g):
    from alcuin.io import parse_edge_list, serialize_edge_list

    assert parse_edge_list(serialize_edge_list(g)) == g


@given(graphs(max_n=4), graphs(max_n=4))
def test_product_counts(g, h):
    prod = alcuin.cartesian_product(g, h)
    assert prod.n == g.n * h.n
    assert prod.edge_count() == g.n * h.edge_count() + h.n * g.edge_count()


@settings(max_examples=40)
@given(graphs(max_n=5, min_n=1), st.randoms(use_true_random=False))
def test_alcuin_number_is_label_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert alcuin.alcuin_exact(g)[0] == alcuin.alcuin_exact(relabel(g, perm))[0]


@settings(max_examples=40)
@given(graphs(max_n=5, min_n=1), st.integers(1, 5))
def test_structure_witness_iff_feasible(g, b):
    b = min(b, g.n)
    if b < 1:
        return
    witness = alcuin.structure_search(g, b)
    assert (witness is not None) == alcuin.feasible(g, b).feasible
    if witness is not None:
        assert alcuin.structure_check(g, witness)


@settings(max_examples=40)
@given(graphs(max_n=5, min_n=1))
def test_feasibility_monotone(g):
    flags = [alcuin.feasible(g, b).feasible for b in range(g.n + 1)]
    assert flags == sorted(flags)


@given(graphs())
def test_girth_bounds(g):
    got = alcuin.girth(g)
    if got is not None:
        assert 3 <= got <= g.n
    if alcuin.is_bipartite(g) is not None:
        assert got is None or got % 2 == 0
