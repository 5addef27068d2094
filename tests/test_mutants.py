"""The checked-in mutant list stays aimed at today's code."""

from mutants import MUTANTS, ROOT, SRC


def test_every_mutant_targets_one_source_text_and_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (SRC / "alcuin" / m.module).read_text().count(m.source) == 1, m.name
        assert m.replacement != m.source and m.tests, m.name
        for test_id in m.tests:
            path, *names = test_id.split("::")
            assert f"def {names[-1]}(" in (ROOT / path).read_text(), test_id
