import gc
import importlib
import inspect
import random
import sys

import pytest

from alcuin import (
    BudgetExceededError,
    CLASS_ONE,
    CLASS_TWO,
    Classification,
    ConditionHolds,
    Degenerate,
    Graph,
    MultipleCovers,
    PairWitness,
    classification_condition,
    classify,
    classify_covers,
    exists_2x_witness,
    hall_strict,
    mask_of,
    min_covers,
)
from alcuin import generators as gen
from alcuin.classify import _close_pair
from brute import brute_classification_condition, brute_exists_2x_witness, brute_hall_strict
from capped import run_capped
from test_cover import ties_below_alpha


def rbip(a, b, p, seed):
    """Random bipartite graph: sides 0..a-1 and a..a+b-1, the pair (u, a + v)
    an edge iff the next random.Random(seed) draw is below p."""
    r = random.Random(seed)
    edges = [(u, a + v) for u in range(a) for v in range(b) if r.random() < p]
    return Graph.from_edges(a + b, edges)


class TestConditionOnUniqueCovers:
    def test_claw_holds(self):
        # the 3 leaves exceed |S|+|T| = 2 for the only candidate pair
        outcome = classification_condition(gen.star(3), 1)
        assert outcome == ConditionHolds(1)

    def test_two_leaf_star_violates(self):
        outcome = classification_condition(gen.star(2), 1)
        assert outcome == PairWitness(1, 1, 1)

    def test_overlapping_stars_first_witness(self):
        # {0} paired with itself already violates: |N({0})| = 2 <= 2
        outcome = classification_condition(gen.overlapping_stars(1), mask_of([0, 1]))
        assert outcome == PairWitness(mask_of([0, 1]), 1, 1)

    def test_cross_pair_also_violates(self):
        # the shared leaf is the only common neighbor of the two centers
        g = gen.overlapping_stars(1)
        common = g.adj[0] & g.adj[1]
        assert common == mask_of([3])

    def test_invalid_cover_rejected(self):
        with pytest.raises(ValueError):
            classification_condition(gen.star(3), mask_of([1]))
        # {0, 1} covers the path 0-1-2, but {1} is smaller
        with pytest.raises(ValueError, match="not minimum"):
            classification_condition(gen.path(3), mask_of([0, 1]))
        with pytest.raises(TypeError):
            classification_condition(gen.path(3), mask_of([1]), _validate=False)


class TestClassify:
    def test_claw_is_class_two(self):
        cls = classify(gen.star(3))
        assert cls.verdict == CLASS_TWO and cls.c == 2
        assert cls.reason == ConditionHolds(1)

    def test_big_stars_are_class_two(self):
        for k in (3, 4, 5):
            cls = classify(gen.star(k))
            assert cls.verdict == CLASS_TWO and cls.c == 2

    def test_c4_multiple_covers(self):
        cls = classify(gen.cycle(4))
        assert cls.verdict == CLASS_ONE and cls.c == 2
        assert cls.reason == MultipleCovers(mask_of([0, 2]), mask_of([1, 3]))

    def test_single_vertex(self):
        cls = classify(gen.complete(1))
        assert cls.verdict == CLASS_TWO and cls.c == 1

    def test_edgeless_graphs_class_two(self):
        for n in (1, 2, 5):
            cls = classify(gen.edgeless(n))
            assert cls.verdict == CLASS_TWO and cls.c == 1
            assert cls.reason == ConditionHolds(0)

    def test_empty_graph_degenerate(self):
        g = Graph(0, ())
        cls = classify(g)
        assert cls.c == 0 and cls.reason == Degenerate()
        # no vertex budget applies to a graph with nothing to search
        assert classify(g, -1) == classify_covers(g, min_covers(g, -1)) == cls

    def test_two_leaf_star_class_one(self):
        cls = classify(gen.star(2))
        assert cls.verdict == CLASS_ONE and cls.c == 1

    def test_overlapping_stars_class_one(self):
        for k in (1, 2, 3):
            cls = classify(gen.overlapping_stars(k))
            assert cls.verdict == CLASS_ONE and cls.c == 2

    def test_verdict_matches_c(self):
        for g in gen.all_labeled_graphs(4):
            cls = classify(g)
            from alcuin import min_covers

            beta = min_covers(g).beta
            assert (cls.verdict == CLASS_TWO) == (cls.c == beta + 1)
            assert beta <= cls.c <= beta + 1

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError, match=r"^cover enumeration for n=18 exceeds the limit 16$"):
            classify(gen.random_graph(18, 0.3, 1))
        assert classify(gen.random_graph(18, 0.3, 1), cover_limit=18).c >= 1


class TestPairScanFloor:
    @staticmethod
    def assert_matches_reference(g):
        for cover in min_covers(g, 64).covers:
            ref = brute_classification_condition(g, cover)
            expected = ConditionHolds(cover) if ref is None else PairWitness(cover, *ref)
            assert classification_condition(g, cover) == expected

    def test_every_cover_up_to_six_vertices(self):
        for n in range(7):
            for g in gen.all_labeled_graphs(n):
                self.assert_matches_reference(g)

    def test_families(self):
        for a in range(1, 5):
            for b in range(1, 10):
                self.assert_matches_reference(gen.complete_bipartite(a, b))
        for a in range(2, 6):
            for b in range(a + 1, 10):
                # an edge inside the cover caps its independent subsets below
                # |C|, a bound the scan only learns when a level comes up empty
                g = gen.complete_bipartite(a, b)
                self.assert_matches_reference(Graph.from_edges(g.n, g.edges() + [(0, 1)]))
        for k in range(1, 12):
            self.assert_matches_reference(gen.star(k))
        for d in (3, 4):
            self.assert_matches_reference(gen.hypercube(d))
        # floors that jump more than one total: the first scans totals 2, 4
        # and 6 and finds its witness at 6, which a jump to one past the
        # least common count steps over; the second is class two, and its
        # floor jumps from total 7 to 10
        for a, b, p, seed in ((5, 10, 0.6, 7), (5, 15, 0.5, 14)):
            self.assert_matches_reference(rbip(a, b, p, seed))

    # (n, p, seed) of G(n, p) graphs with a unique cover and no singleton-pair
    # witness: the reference answer is a pair with |S| + |T| >= 3, or none.
    PAST_SINGLETONS = (
        (8, 0.15, 2119), (8, 0.18, 33), (8, 0.18, 609),
        (9, 0.12, 1133), (9, 0.3, 639),
        (10, 0.12, 1334), (10, 0.18, 588),
        (11, 0.1, 3143), (11, 0.15, 117),
        (12, 0.1, 4055), (12, 0.12, 1969),
        (13, 0.1, 3888),
        (14, 0.08, 19612), (14, 0.1, 16001),
    )

    def test_random_graphs_past_singletons(self):
        outcomes = set()
        for n, p, seed in self.PAST_SINGLETONS:
            g = gen.random_graph(n, p, seed)
            rep = min_covers(g, 64)
            assert rep.unique
            cover = rep.covers[0]
            ref = brute_classification_condition(g, cover)
            assert ref is None or ref[0].bit_count() + ref[1].bit_count() >= 3
            outcomes.add(None if ref is None else (ref[0].bit_count(), ref[1].bit_count()))
            self.assert_matches_reference(g)
            assert exists_2x_witness(g, cover) == brute_exists_2x_witness(g, cover)
            assert hall_strict(g, cover) == brute_hall_strict(g, cover)
        assert outcomes == {None, (1, 2), (2, 2)}

    @pytest.mark.parametrize("k, m", [(3, 9), (5, 12)])
    def test_equal_sizes_read_each_pair_once(self, monkeypatch, k, m):
        # On K_{k,m} with m > 2k every cover pair has m common neighbors, so
        # the floor ends the scan after total 2: k masks cut to the outside,
        # then each of the k(k+1)/2 unordered singleton pairs compared once.
        ands = []

        class Counted(int):
            def __and__(self, other):
                ands.append(1)
                return Counted(int(self) & int(other))

            __rand__ = __and__

        module = sys.modules[classify.__module__]
        real = module.independent_levels

        def counted_levels(g, base):
            for level in real(g, base):
                yield [(mask, Counted(nbrs)) for mask, nbrs in level]

        monkeypatch.setattr(module, "independent_levels", counted_levels)
        g = gen.complete_bipartite(k, m)
        assert classify(g, 64) == Classification(CLASS_TWO, k + 1, ConditionHolds((1 << k) - 1))
        assert len(ands) == k + k * (k + 1) // 2

    def test_witness_walks_on_every_cover(self):
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                for cover in min_covers(g).covers:
                    assert exists_2x_witness(g, cover) == brute_exists_2x_witness(g, cover)
                    assert hall_strict(g, cover) == brute_hall_strict(g, cover)


class TestCliffs:
    """Graphs that once took seconds; results only, and a timeout where
    the old time is far above it."""

    def test_q6_two_covers(self):
        cls = classify(gen.hypercube(6), 64)
        assert cls.verdict == CLASS_ONE and cls.c == 32
        assert cls.reason == MultipleCovers(0x6996966996696996, 0x9669699669969669)

    def test_matching32_two_covers(self):
        # 2^32 minimum covers, of which classify finds two; a fallback to
        # listing them all ends in MemoryError under the cap
        source = (
            "from alcuin import Graph, classify\n"
            "g = Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)])\n"
            "print(repr(classify(g, 64)))"
        )
        cover = 0x5555555555555555
        expected = Classification(CLASS_ONE, 32, MultipleCovers(cover, cover + 1))
        assert run_capped(source).stdout == repr(expected) + "\n"

    def test_hub20_two_covers(self):
        # a hub joined to every vertex of a 20-edge matching: one component
        # with 2^20 maximum independent sets, over the cap for min_covers
        source = (
            "from alcuin import Graph, classify\n"
            "edges = [(2 * i, 2 * i + 1) for i in range(20)] + [(40, v) for v in range(40)]\n"
            "print(repr(classify(Graph.from_edges(41, edges), 64)))"
        )
        expected = Classification(CLASS_ONE, 21, MultipleCovers(0x15555555555, 0x15555555556))
        assert run_capped(source).stdout == repr(expected) + "\n"

    def test_ties_below_alpha(self):
        cls = classify(ties_below_alpha(), 64)
        assert cls.verdict == CLASS_ONE and cls.c == 23
        assert isinstance(cls.reason, MultipleCovers)

    def test_rbip14_class_two_in_time(self):
        # every pair of the 2^14 subsets of the cover beats its total, so a
        # scan of every total took about 7.5 s; the floor scans totals 2, 8
        # and 20, then passes 2|C| = 28
        source = (
            "import random\nfrom alcuin import Graph, classify\n"
            + inspect.getsource(rbip)
            + "print(repr(classify(rbip(14, 42, 0.6, 1), 64)))"
        )
        expected = Classification(CLASS_TWO, 15, ConditionHolds(0x3FFF))
        assert run_capped(source, timeout=3).stdout == repr(expected) + "\n"

    def test_k11_23_class_two(self):
        g = gen.complete_bipartite(11, 23)
        cls = classify(g, 64)
        assert cls.verdict == CLASS_TWO and cls.c == 12
        assert cls.reason == ConditionHolds(mask_of(range(11)))


class TestExists2xWitness:
    def test_two_leaf_star(self):
        assert exists_2x_witness(gen.star(2), 1) == 1

    def test_claw_has_none(self):
        assert exists_2x_witness(gen.star(3), 1) is None

    def test_c6_singleton(self):
        # vertex 0 has exactly 2 neighbors outside {0, 2, 4}
        assert exists_2x_witness(gen.cycle(6), mask_of([0, 2, 4])) == 1

    def test_agrees_with_same_set_pair(self):
        from alcuin import min_covers

        for g in gen.all_labeled_graphs(4):
            rep = min_covers(g)
            for cover in rep.covers:
                a = exists_2x_witness(g, cover)
                if a is not None:
                    outcome = classification_condition(g, cover)
                    assert isinstance(outcome, PairWitness)


class TestClosePair:
    """The survey's pair condition: a cover pair u <= v with at most two
    common neighbours outside the cover forces class one."""

    def test_first_pair(self):
        # claw with a pendant on leaf 1: not claw-free, but the center has
        # only two neighbors outside the cover {0, 1}
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
        assert _close_pair(g, mask_of([0, 1])) == (0, 0)

    def test_claw_has_no_close_pair(self):
        assert _close_pair(gen.star(3), 1) is None


def _drop_alcuin_modules():
    return {k: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] == "alcuin"}


def test_reimport_keeps_one_live_classify_module():
    # a typing.Union over the reason classes sits in typing's cache and would
    # keep every re-imported copy of the package alive
    saved = _drop_alcuin_modules()
    try:
        for _ in range(4):
            importlib.import_module("alcuin")
            _drop_alcuin_modules()
    finally:
        sys.modules.update(saved)
    gc.collect()
    live = [
        o
        for o in gc.get_objects()
        if isinstance(o, dict) and o.get("__name__") == "alcuin.classify"
    ]
    assert len(live) == 1
