"""The mutant table in ``tests/mutants.py`` cannot go stale: each mutant's
old text occurs exactly once in ``src``, in the file it names."""

import pytest

from mutants import MUTANTS, SRC


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_in_src(mutant):
    assert mutant.old != mutant.new
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert sum(path.read_text().count(mutant.old) for path in SRC.glob("*.py")) == 1
