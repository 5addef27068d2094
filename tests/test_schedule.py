import hashlib

import pytest

from alcuin import (
    Classification,
    ConditionHolds,
    Degenerate,
    Graph,
    MultipleCovers,
    PairWitness,
    Move,
    Schedule,
    StructureWitness,
    alcuin_exact,
    classify,
    feasible,
    is_independent,
    mask_of,
    min_covers,
    neighbors_in,
    render_trace,
    schedule_from_witness,
    schedule_generic,
    structure_check,
    structure_search,
    synthesize,
    verify_schedule,
)
from alcuin import ferry, schedule
from alcuin import generators as gen
from alcuin.errors import BudgetExceededError
from alcuin.ferry import (
    BANK_CONFLICT,
    CARGO_NOT_ON_BANK,
    CARGO_TOO_BIG,
    LEFT_TO_RIGHT,
    NOT_ALL_TRANSPORTED,
    RIGHT_TO_LEFT,
    WRONG_DIRECTION,
)
from alcuin.io import schedule_json
from brute import brute_structure_search

P3 = gen.path(3)  # w=0, g=1, c=2
W, G, C = 1, 2, 4

# the classic seven crossings: g over, return, c over, g back, w over,
# return, g over
CLASSIC = Schedule(
    1,
    (
        Move(LEFT_TO_RIGHT, G),
        Move(RIGHT_TO_LEFT, 0),
        Move(LEFT_TO_RIGHT, C),
        Move(RIGHT_TO_LEFT, G),
        Move(LEFT_TO_RIGHT, W),
        Move(RIGHT_TO_LEFT, 0),
        Move(LEFT_TO_RIGHT, G),
    ),
)


class TestVerify:
    def test_classic_schedule_valid(self):
        assert verify_schedule(P3, CLASSIC) is None

    def test_carrying_wolf_first_strands_goat_with_cabbage(self):
        sched = Schedule(1, (Move(LEFT_TO_RIGHT, W),))
        v = verify_schedule(P3, sched)
        assert v is not None and v.step == 0
        assert v.kind == BANK_CONFLICT and (v.u, v.v) == (1, 2)

    def test_empty_moves_not_all_transported(self):
        v = verify_schedule(P3, Schedule(1, ()))
        assert v.kind == NOT_ALL_TRANSPORTED and v.step == 0

    def test_terminal_check_indexes_past_last_move(self):
        sched = Schedule(1, CLASSIC.moves[:3])
        v = verify_schedule(P3, sched)
        assert v.kind == NOT_ALL_TRANSPORTED and v.step == 3

    def test_wrong_direction(self):
        sched = Schedule(1, (Move(RIGHT_TO_LEFT, 0),))
        assert verify_schedule(P3, sched).kind == WRONG_DIRECTION

    def test_alternation_enforced(self):
        sched = Schedule(1, (Move(LEFT_TO_RIGHT, G), Move(LEFT_TO_RIGHT, W)))
        v = verify_schedule(P3, sched)
        assert v.kind == WRONG_DIRECTION and v.step == 1

    def test_cargo_too_big(self):
        g = gen.edgeless(2)
        sched = Schedule(1, (Move(LEFT_TO_RIGHT, 0b11),))
        assert verify_schedule(g, sched).kind == CARGO_TOO_BIG

    def test_cargo_not_on_bank(self):
        sched = Schedule(1, (Move(LEFT_TO_RIGHT, G), Move(RIGHT_TO_LEFT, W)))
        v = verify_schedule(P3, sched)
        assert v.kind == CARGO_NOT_ON_BANK and v.step == 1

    def test_boat_conflicts_are_legal(self):
        # both endpoints of an edge may ride together
        g = gen.complete(2)
        sched = Schedule(2, (Move(LEFT_TO_RIGHT, 0b11),))
        assert verify_schedule(g, sched) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Schedule(-1, ())

    def test_empty_graph_empty_schedule(self):
        assert verify_schedule(Graph(0, ()), Schedule(0, ())) is None


class TestGenericSchedule:
    def test_claw(self):
        sched = schedule_generic(gen.star(3), 1)
        assert sched.capacity == 2 and len(sched.moves) == 5
        assert verify_schedule(gen.star(3), sched) is None

    def test_edgeless_shuttles_one_at_a_time(self):
        g = gen.edgeless(3)
        sched = schedule_generic(g, 0)
        assert sched.capacity == 1 and len(sched.moves) == 5
        assert verify_schedule(g, sched) is None

    def test_triangle(self):
        g = gen.complete(3)
        sched = schedule_generic(g, mask_of([0, 1]))
        assert sched.capacity == 3 and len(sched.moves) == 1
        assert verify_schedule(g, sched) is None

    def test_crossing_count(self):
        for n in range(1, 6):
            for g in gen.all_labeled_graphs(n):
                cover = min_covers(g).covers[0]
                sched = schedule_generic(g, cover)
                rest = g.n - cover.bit_count()
                assert len(sched.moves) == 2 * max(rest, 1) - 1
                assert verify_schedule(g, sched) is None

    def test_rejects_bad_cover(self):
        with pytest.raises(ValueError):
            schedule_generic(P3, mask_of([0]))
        # {w, g} covers both edges of the path but {g} is smaller
        with pytest.raises(ValueError, match="not minimum"):
            schedule_generic(P3, W | G)


class TestWitnessSchedule:
    def test_reproduces_classic_pattern(self):
        sched = schedule_from_witness(P3, G, G, G)
        assert sched.capacity == 1
        # same structure as the classic plan, with w and c swapped by the
        # ascending-index tie-break
        assert sched.moves == (
            Move(LEFT_TO_RIGHT, G),
            Move(RIGHT_TO_LEFT, 0),
            Move(LEFT_TO_RIGHT, W),
            Move(RIGHT_TO_LEFT, G),
            Move(LEFT_TO_RIGHT, C),
            Move(RIGHT_TO_LEFT, 0),
            Move(LEFT_TO_RIGHT, G),
        )

    def test_k4(self):
        g = gen.complete(4)
        sched = schedule_from_witness(g, mask_of([0, 1, 2]), 1, 2)
        assert sched.capacity == 3
        assert verify_schedule(g, sched) is None

    def test_overlapping_stars(self):
        g = gen.overlapping_stars(1)
        sched = schedule_from_witness(g, mask_of([0, 1]), 1, 2)
        assert sched.capacity == 2
        assert verify_schedule(g, sched) is None

    def test_same_set_witness(self):
        g = gen.star(2)
        sched = schedule_from_witness(g, 1, 1, 1)
        assert sched.capacity == 1
        assert verify_schedule(g, sched) is None

    def test_rejects_oversized_common_neighborhood(self):
        with pytest.raises(ValueError):
            schedule_from_witness(gen.star(3), 1, 1, 1)

    def test_rejects_empty_or_outside_sets(self):
        g = gen.complete(4)
        cover = mask_of([0, 1, 2])
        with pytest.raises(ValueError):
            schedule_from_witness(g, cover, 0, 1)
        with pytest.raises(ValueError):
            schedule_from_witness(g, cover, mask_of([3]), 1)

    def test_rejects_dependent_sets(self):
        g = gen.complete(4)
        with pytest.raises(ValueError):
            schedule_from_witness(g, mask_of([0, 1, 2]), mask_of([0, 1]), 1)

    def test_rejects_non_minimum_cover(self):
        # without the check, {w, g} with s = t = {w} builds a capacity-2 plan
        with pytest.raises(ValueError, match="not minimum"):
            schedule_from_witness(P3, W | G, W, W)


def test_cover_check_cannot_be_switched_off():
    with pytest.raises(TypeError):
        schedule_generic(P3, G, validate=False)
    with pytest.raises(TypeError):
        schedule_from_witness(P3, G, G, G, validate=False)


@pytest.fixture(scope="module")
def small_classified():
    """(g, classify(g)) for every labeled graph with n <= 6."""
    return [(g, classify(g)) for n in range(7) for g in gen.all_labeled_graphs(n)]


class TestSynthesize:
    def test_path(self):
        sched = synthesize(P3)
        assert sched.capacity == 1 and verify_schedule(P3, sched) is None

    def test_claw(self):
        g = gen.star(3)
        sched = synthesize(g)
        assert sched.capacity == 2 and verify_schedule(g, sched) is None

    def test_c4(self):
        g = gen.cycle(4)
        sched = synthesize(g)
        assert sched.capacity == 2 and verify_schedule(g, sched) is None

    @pytest.mark.parametrize(
        "reason, expected",
        [
            # C4's covers are {0, 2} and {1, 3}; each reason below is one
            # classify could give, and synthesize must build from it alone
            (ConditionHolds(0b1010), lambda g: schedule_generic(g, 0b1010)),
            (
                PairWitness(0b1010, 0b0010, 0b1000),
                lambda g: schedule_from_witness(g, 0b1010, 0b0010, 0b1000),
            ),
            (
                MultipleCovers(0b1010, 0b0101),
                lambda g: schedule_from_witness(g, 0b1010, 0b1010, 0b1010),
            ),
            (Degenerate(), lambda g: Schedule(0, ())),
        ],
        ids=["condition_holds", "pair_witness", "multiple_covers", "degenerate"],
    )
    def test_builds_from_the_reason_classify_gives(self, monkeypatch, reason, expected):
        g = gen.cycle(4)
        seen = []

        def stub(graph, cover_limit):
            seen.append((graph, cover_limit))
            return Classification("stub", 0, reason)

        monkeypatch.setattr("alcuin.schedule.classify", stub)
        assert synthesize(g, 7) == expected(g)
        assert seen == [(g, 7)]

    def test_two_covers_are_their_own_witness(self, small_classified):
        # A = C1 - C2 is independent, as C2 covers its edges, and its
        # outside neighbors lie in C2 - C1, which has |A| vertices
        count = 0
        for g, cls in small_classified:
            if isinstance(cls.reason, MultipleCovers):
                c1, c2 = cls.reason.cover, cls.reason.cover2
                a = c1 & ~c2
                assert a and is_independent(g, a), g
                outside = neighbors_in(g, a, g.full_mask & ~c1)
                assert outside.bit_count() <= a.bit_count(), g
                count += 1
        assert count > 0

    def test_outputs_pinned(self, small_classified):
        # every labeled graph with n <= 6, in all_labeled_graphs order
        classified = hashlib.sha256()
        synthesized = hashlib.sha256()
        for g, cls in small_classified:
            classified.update(f"{cls!r}\n".encode())
            synthesized.update(f"{schedule_json(synthesize(g))}\n".encode())
        assert classified.hexdigest() == (
            "4bd5aad326d8e30b8d8c59a745b2785c6f67c1cb7a660c3c8a7bef2de27e45ea"
        )
        assert synthesized.hexdigest() == (
            "f56355d7a5209e189e51ac4dbc8ead6a6beeb4261d3a0e911cb75ccd80a4fa41"
        )

    def test_degenerate_and_edgeless(self):
        assert synthesize(Graph(0, ())) == Schedule(0, ())
        g = gen.edgeless(4)
        sched = synthesize(g)
        assert sched.capacity == 1 and verify_schedule(g, sched) is None

    def test_capacity_always_exact_small(self):
        # n <= 4 here; the full n <= 6 sweep is in the acceptance suite
        for n in range(5):
            for g in gen.all_labeled_graphs(n):
                sched = synthesize(g)
                assert verify_schedule(g, sched) is None
                assert sched.capacity == classify(g).c
                assert sched.capacity == alcuin_exact(g)[0]


class TestStructure:
    def test_path_witness(self):
        w = StructureWitness(x1=0, x2=0, x3=mask_of([0, 2]), y1=G, y2=G, b=1)
        assert structure_check(P3, w)

    def test_path_bad_witness(self):
        # w next to g: their union is not independent
        w = StructureWitness(x1=W, x2=0, x3=C, y1=G, y2=G, b=1)
        assert not structure_check(P3, w)
        # overlapping X parts; a dependent X; a Y part outside Y
        assert not structure_check(P3, StructureWitness(W, W, 0, G, G, 1))
        assert not structure_check(P3, StructureWitness(W | G, 0, 0, C, C, 1))
        assert not structure_check(P3, StructureWitness(W | C, 0, 0, W, G, 1))

    def test_capacity_slack_witness(self):
        # independent set minus one element x0, with y1 = y2 = {x0}: the
        # standard certificate at capacity beta + 1
        for g in [P3, gen.star(3), gen.cycle(5)]:
            rep = min_covers(g)
            indep = g.full_mask ^ rep.covers[0]
            x0 = indep & -indep
            w = StructureWitness(indep ^ x0, 0, 0, x0, x0, rep.beta + 1)
            assert structure_check(g, w)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            structure_check(P3, StructureWitness(1 << 5, 0, 0, G, G, 1))

    def test_search_path(self):
        w = structure_search(P3, 1)
        assert w is not None and structure_check(P3, w) and w.b == 1

    def test_search_claw(self):
        assert structure_search(gen.star(3), 1) is None
        w = structure_search(gen.star(3), 2)
        assert w is not None and structure_check(gen.star(3), w)

    def test_search_monotone_in_capacity(self):
        for seed in range(10):
            g = gen.random_graph(5, 0.5, seed)
            present = [structure_search(g, b) is not None for b in range(1, 6)]
            assert present == sorted(present)

    def test_search_matches_oracle_spot(self):
        for seed in range(15):
            g = gen.random_graph(5, 0.4, 100 + seed)
            for b in range(1, 6):
                assert (structure_search(g, b) is not None) == feasible(g, b).feasible

    def test_independent_sets_are_the_edge_free_submasks(self):
        # the enumerator the BFS table and the five-set search share
        for n in range(6):
            for g in gen.all_labeled_graphs(n):
                edge_free = [
                    m
                    for m in range(g.full_mask + 1)
                    if all(not (m >> u & 1 and g.adj[u] & m) for u in range(n))
                ]
                for base in range(g.full_mask + 1):
                    expected = [m for m in edge_free if not m & ~base]
                    assert ferry._independent_sets(g.adj, base) == expected, (g, base)

    def test_search_validation(self):
        with pytest.raises(ValueError):
            structure_search(P3, 0)
        with pytest.raises(BudgetExceededError):
            structure_search(gen.edgeless(11), 1)

    def test_search_rejects_the_empty_graph(self):
        # Y1 and Y2 are nonempty, so no witness exists, yet the empty graph
        # is feasible at every capacity: None would claim the opposite
        g = Graph(0, ())
        assert feasible(g, 1).feasible
        with pytest.raises(ValueError, match="empty graph"):
            structure_search(g, 1)

    @staticmethod
    def _agrees_with_reference(g, b):
        w, ref = structure_search(g, b), brute_structure_search(g, b)
        assert (w is None) == (ref is None), (g, b)
        if w is not None:
            assert structure_check(g, w), (g, b, w)
            assert w.x1 | w.x2 | w.x3 == ref.x1 | ref.x2 | ref.x3, (g, b)

    def test_search_matches_reference_exhaustively(self):
        # same existence and same X as the 3^|X| partition search; the split
        # of X and the choice of Y1, Y2 may differ
        for n in range(1, 6):
            for g in gen.all_labeled_graphs(n):
                for b in range(1, n + 1):
                    self._agrees_with_reference(g, b)

    @pytest.mark.parametrize(
        "g",
        [
            gen.star(9),
            gen.complete_bipartite(2, 8),
            gen.complete_bipartite(3, 7),
            gen.petersen(),
            gen.edgeless(10),
            # two disjoint K_{1,4}: at b = 2 only Y1 = {0}, Y2 = {1} leaves
            # X3 small enough, so X & N(Y1) alone would miss the witness
            Graph.from_edges(10, [(0, v) for v in range(2, 6)] + [(1, v) for v in range(6, 10)]),
        ],
    )
    def test_search_matches_reference_at_ten_vertices(self, g):
        for b in range(1, 11):
            self._agrees_with_reference(g, b)


def test_benchmark_names_stay_reachable_from_schedule():
    # bench/workloads.py reads these three through the schedule module
    assert schedule.verify_schedule is ferry.verify_schedule
    assert schedule.Schedule is ferry.Schedule
    assert callable(schedule.render_trace)


class TestRenderTrace:
    def test_classic_rows(self):
        text = render_trace(P3, CLASSIC, ["w", "g", "c"])
        rows = text.splitlines()
        assert len(rows) == 7
        assert rows[0] == "w, c | g → | ∅"
        assert rows[1] == "w, c | ← ∅ | g"
        assert rows[3] == "w | ← g | c"
        assert rows[6] == "∅ | g → | w, c"

    def test_default_labels_are_indices(self):
        g = gen.edgeless(1)
        text = render_trace(g, Schedule(1, (Move(LEFT_TO_RIGHT, 1),)))
        assert text == "∅ | 0 → | ∅"

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            render_trace(P3, Schedule(1, ()))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            render_trace(P3, CLASSIC, ["a", "b"])
