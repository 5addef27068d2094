"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the lines as they print.
The n <= 6 exhaustive sweep is shared by several criteria through a
module-scoped fixture; it also enforces the ten-minute single-thread budget.
"""

import hashlib
import time

import pytest

import alcuin
from alcuin import generators as gen
from alcuin.io import parse_graph6, serialize_graph6

# sha256 of repr((c, schedule)) from alcuin_exact, concatenated over every
# labeled graph with at most 6 vertices in generation order: pins the
# oracle's shortest schedules, tie-breaks included
ORACLE_N6_SHA256 = "d615c28486c41f5d60cae1fa3b730907bc3b69df7514550438705fd7662bc694"


def verdict_line(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail}"


class Universe:
    """Tallies from one pass over every labeled graph with at most 6 vertices."""

    def __init__(self):
        self.graphs_by_n = {}
        self.disagreements = []
        self.sandwich_violations = []
        self.synth_failures = []
        self.generic_failures = []
        self.hall_mismatches = []
        self.first_cover_witness_misses = []  # several covers, no pair witness on covers[0]
        self.strict_hall_violations = []  # class two must satisfy strict expansion
        self.double_expansion_violations = []  # class two forbids |N(A)| <= 2|A|
        self.claw_free_violations = []  # claw-free with an edge must be class one
        self.pair_violations = []  # cover pair with <= 2 common outside neighbors
        self.girth_violations = []  # class two with beta >= 2 needs girth <= 4
        self.regular_girth_violations = []  # regular (r >= 1) class two needs girth 3
        self.oracle_digest = hashlib.sha256()
        self.elapsed = 0.0


@pytest.fixture(scope="module")
def universe():
    stats = Universe()
    start = time.perf_counter()
    for n in range(7):
        count = 0
        for g in gen.all_labeled_graphs(n):
            count += 1
            tag = serialize_graph6(g)
            rep = alcuin.min_covers(g)
            cls = alcuin.classify(g)
            beta = rep.beta
            c_exact, oracle_sched = alcuin.alcuin_exact(g, beta=beta)
            stats.oracle_digest.update(repr((c_exact, oracle_sched)).encode())

            if cls.c != c_exact:
                stats.disagreements.append(tag)
            if not beta <= c_exact <= beta + 1:
                stats.sandwich_violations.append(tag)

            syn = alcuin.synthesize(g)
            if alcuin.verify_schedule(g, syn) is not None or syn.capacity != c_exact:
                stats.synth_failures.append(tag)
            generic = alcuin.schedule_generic(g, rep.covers[0])
            if (
                alcuin.verify_schedule(g, generic) is not None
                or generic.capacity != beta + 1
            ):
                stats.generic_failures.append(tag)

            for cover in rep.covers:
                if alcuin.hall_strict(g, cover) != rep.unique:
                    stats.hall_mismatches.append(tag)
            if not rep.unique and not isinstance(
                alcuin.classification_condition(g, rep.covers[0]), alcuin.PairWitness
            ):
                stats.first_cover_witness_misses.append(tag)

            claw_free = alcuin.is_claw_free(g)
            two = cls.verdict == alcuin.CLASS_TWO
            if claw_free and g.edge_count() > 0 and two:
                # edgeless graphs are claw-free yet class two by the c >= 1
                # convention, hence the edge-count guard
                stats.claw_free_violations.append(tag)
            if two:
                cover = rep.covers[0]
                if not alcuin.hall_strict(g, cover):
                    stats.strict_hall_violations.append(tag)
                if alcuin.exists_2x_witness(g, cover) is not None:
                    stats.double_expansion_violations.append(tag)
                outside = g.full_mask ^ cover
                members = alcuin.vertices_of(cover)
                for i, u in enumerate(members):
                    for v in members[i:]:
                        if (g.adj[u] & g.adj[v] & outside).bit_count() <= 2:
                            stats.pair_violations.append(tag)
                if beta >= 2:
                    gi = alcuin.girth(g)
                    if gi is None or gi > 4:
                        stats.girth_violations.append(tag)
                r = alcuin.is_regular(g)
                if r is not None and r >= 1 and alcuin.girth(g) != 3:
                    stats.regular_girth_violations.append(tag)
        stats.graphs_by_n[n] = count
    stats.elapsed = time.perf_counter() - start
    return stats


def test_criterion_01_classic_puzzle_trace():
    start = time.perf_counter()
    g = parse_graph6("Bg")  # w=0, g=1, c=2
    c, sched = alcuin.alcuin_exact(g)
    rows = alcuin.render_trace(g, sched, ["w", "g", "c"]).splitlines()
    elapsed = time.perf_counter() - start
    ok = (
        c == 1
        and len(sched.moves) == 7
        and len(rows) == 7
        and rows[0] == "w, c | g → | ∅"
        and rows[6] == "∅ | g → | w, c"
        and elapsed < 1.0
    )
    verdict_line(
        "01 classic-puzzle-trace",
        ok,
        f"c={c} rows={rows} elapsed={elapsed:.3f}s",
    )


def test_criterion_02_exhaustive_oracle_agreement(universe):
    ok = (
        universe.graphs_by_n[6] == 32768
        and sum(universe.graphs_by_n.values()) == 32768 + 1024 + 64 + 8 + 2 + 1 + 1
        and not universe.disagreements
        and not universe.sandwich_violations
        and universe.oracle_digest.hexdigest() == ORACLE_N6_SHA256
        and universe.elapsed < 600.0
    )
    verdict_line(
        "02 exhaustive-oracle-agreement",
        ok,
        f"disagreements={universe.disagreements[:5]} "
        f"sandwich={universe.sandwich_violations[:5]} "
        f"oracle sha256={universe.oracle_digest.hexdigest()} elapsed={universe.elapsed:.1f}s",
    )


def test_criterion_03_schedule_soundness(universe):
    ok = not universe.synth_failures and not universe.generic_failures
    verdict_line(
        "03 schedule-soundness",
        ok,
        f"synth={universe.synth_failures[:5]} generic={universe.generic_failures[:5]}",
    )


def test_criterion_04_unique_cover_equivalence(universe):
    # a cover that is not unique fails strict expansion on some independent
    # A, and (A, A) is then a pair witness, so the pair scan alone finds
    # class one on any minimum cover; synthesize takes A = C1 - C2 straight
    # from two covers and needs no scan
    verdict_line(
        "04 unique-cover-equivalence",
        not universe.hall_mismatches and not universe.first_cover_witness_misses,
        f"mismatches={universe.hall_mismatches[:5]} "
        f"no witness on covers[0]={universe.first_cover_witness_misses[:5]}",
    )


def test_criterion_05_structure_witness_iff_feasible():
    mismatches = []
    for n in range(1, 6):
        for g in gen.all_labeled_graphs(n):
            for b in range(1, n + 1):
                witness = alcuin.structure_search(g, b)
                if (witness is not None) != alcuin.feasible(g, b).feasible:
                    mismatches.append((serialize_graph6(g), b))
                if witness is not None and not alcuin.structure_check(g, witness):
                    mismatches.append((serialize_graph6(g), b, "bad witness"))
    verdict_line(
        "05 structure-witness-iff-feasible", not mismatches, f"{mismatches[:5]}"
    )


def test_criterion_06_trees_class_two_iff_big_star():
    bad = []
    for n in range(4, 8):
        for code in range(n ** (n - 2)):
            seq = []
            c = code
            for _ in range(n - 2):
                seq.append(c % n)
                c //= n
            tree = gen.tree_from_pruefer(seq)
            is_star = any(tree.degree(v) == n - 1 for v in range(n))
            cls = alcuin.classify(tree)
            beta = alcuin.min_covers(tree).beta
            if (cls.verdict == alcuin.CLASS_TWO) != is_star:
                bad.append((n, seq, "verdict"))
            elif is_star and cls.c != 2:
                bad.append((n, seq, "star c"))
            elif not is_star and cls.c != beta:
                bad.append((n, seq, "tree c"))
    verdict_line("06 trees-class-two-iff-big-star", not bad, f"{bad[:5]}")


def test_criterion_07_necessary_condition_suite(universe):
    ok = (
        not universe.strict_hall_violations
        and not universe.claw_free_violations
        and not universe.double_expansion_violations
        and not universe.pair_violations
        and not universe.girth_violations
        and not universe.regular_girth_violations
    )
    verdict_line(
        "07 necessary-condition-suite",
        ok,
        f"strict_hall={universe.strict_hall_violations[:3]} "
        f"claw={universe.claw_free_violations[:3]} "
        f"double={universe.double_expansion_violations[:3]} "
        f"pair={universe.pair_violations[:3]} "
        f"girth={universe.girth_violations[:3]} "
        f"regular_girth={universe.regular_girth_violations[:3]}",
    )


def test_criterion_08_regular_catalog():
    catalog = [(f"C{n}", gen.cycle(n)) for n in range(3, 13)]
    catalog += [
        ("K4", gen.complete(4)),
        ("K5", gen.complete(5)),
        ("K33", gen.complete_bipartite(3, 3)),
        ("K44", gen.complete_bipartite(4, 4)),
        ("Q3", gen.hypercube(3)),
        ("Q4", gen.hypercube(4)),
        ("Petersen", gen.petersen()),
    ]
    catalog += [(f"C{n}(1,2)", gen.circulant(n, (1, 2))) for n in range(5, 11)]
    bad = []
    for name, g in catalog:
        r = alcuin.is_regular(g)
        if r is None or not 2 <= r <= 5:
            bad.append((name, "not 2..5-regular"))
            continue
        rep = alcuin.min_covers(g)
        cls = alcuin.classify(g)
        if cls.verdict != alcuin.CLASS_ONE:
            bad.append((name, "class two"))
        if rep.beta < max((g.n + 1) // 2, r):
            bad.append((name, f"cover bound: beta={rep.beta}"))
        if g.n <= 10 and alcuin.alcuin_exact(g)[0] != cls.c:
            bad.append((name, "oracle mismatch"))
    verdict_line("08 regular-catalog", not bad, f"{bad}")


def test_criterion_09_cartesian_products():
    factors = {
        "K1": gen.complete(1),
        "K2": gen.complete(2),
        "P3": gen.path(3),
        "K13": gen.star(3),
        "K14": gen.star(4),
        "C4": gen.cycle(4),
        "C5": gen.cycle(5),
    }
    verdicts = {name: alcuin.classify(g).verdict for name, g in factors.items()}
    bad = []
    for na, a in factors.items():
        for nb, b in factors.items():
            if a.n * b.n > 12:
                continue
            prod = alcuin.cartesian_product(a, b)
            cls = alcuin.classify(prod)
            # class two products are exactly: one factor trivial, the other
            # class two (covers K1 x K1 since K1 itself is class two)
            expected = (a.n == 1 and verdicts[nb] == alcuin.CLASS_TWO) or (
                b.n == 1 and verdicts[na] == alcuin.CLASS_TWO
            )
            if (cls.verdict == alcuin.CLASS_TWO) != expected:
                bad.append((na, nb, cls.verdict))
            if prod.n <= 10 and alcuin.alcuin_exact(prod)[0] != cls.c:
                bad.append((na, nb, "oracle mismatch"))
    k1_claw = alcuin.classify(
        alcuin.cartesian_product(factors["K1"], factors["K13"])
    )
    k2_claw = alcuin.classify(
        alcuin.cartesian_product(factors["K2"], factors["K13"])
    )
    if k1_claw.verdict != alcuin.CLASS_TWO:
        bad.append(("K1 x K13", "expected two"))
    if k2_claw.verdict != alcuin.CLASS_ONE:
        bad.append(("K2 x K13", "expected one"))
    verdict_line("09 cartesian-products", not bad, f"{bad}")


def test_criterion_10_hypercubes():
    bad = []
    expected_c = {1: 1, 2: 2, 3: 4}
    for d, c_want in expected_c.items():
        g = gen.hypercube(d)
        cls = alcuin.classify(g)
        beta = alcuin.min_covers(g).beta
        if cls.verdict != alcuin.CLASS_ONE or cls.c != c_want or beta != c_want:
            bad.append((d, cls))
        elif alcuin.alcuin_exact(g)[0] != c_want:
            bad.append((d, "oracle mismatch"))
    # Q4 (16 vertices) is past the search budget: classifier only
    q4 = alcuin.classify(gen.hypercube(4))
    if q4.verdict != alcuin.CLASS_ONE or q4.c != 8:
        bad.append((4, q4))
    verdict_line("10 hypercubes", not bad, f"{bad}")


def test_criterion_11_overlapping_star_family():
    bad = []
    for k in (1, 2, 3):
        g = gen.overlapping_stars(k)
        centers = alcuin.mask_of([0, 1])
        rep = alcuin.min_covers(g)
        cls = alcuin.classify(g)
        if not (rep.unique and rep.covers == (centers,)):
            bad.append((k, "cover not unique {0,1}"))
        if cls.verdict != alcuin.CLASS_ONE or cls.c != alcuin.alcuin_exact(g)[0]:
            bad.append((k, "not class one / oracle mismatch"))
        outside = g.full_mask ^ centers
        for a in (1, 2, 3):  # {0}, {1}, {0,1}
            if not alcuin.is_independent(g, a):
                bad.append((k, a, "dependent"))
                continue
            expand = alcuin.neighbors_in(g, a, outside).bit_count()
            # k-fold expansion holds for every nonempty subset of the cover,
            # yet the graph is still class one
            if expand <= k * a.bit_count():
                bad.append((k, a, f"expansion {expand}"))
    verdict_line("11 overlapping-star-family", not bad, f"{bad}")


def test_criterion_12_graph6_roundtrips():
    bad = []
    for n in range(6):
        for g in gen.all_labeled_graphs(n):
            if parse_graph6(serialize_graph6(g)) != g:
                bad.append(serialize_graph6(g))
    if serialize_graph6(gen.complete(3)) != "Bw" or parse_graph6("Bw") != gen.complete(3):
        bad.append("Bw golden")
    if serialize_graph6(gen.path(3)) != "Bg" or parse_graph6("Bg") != gen.path(3):
        bad.append("Bg golden")
    verdict_line("12 graph6-roundtrips", not bad, f"{bad[:5]}")
