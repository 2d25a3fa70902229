"""Every entry of the mutant catalogue (tests/mutants.py) still applies: its
text occurs exactly once in its source file, its replacement differs, and
each test it names is defined."""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_to_the_tree(mutant):
    assert mutant.path.startswith("src/")
    assert (ROOT / mutant.path).read_text().count(mutant.text) == 1
    assert mutant.replacement != mutant.text
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert (ROOT / path).is_file(), node
        if name:
            assert f"def {name}(" in (ROOT / path).read_text(), node
