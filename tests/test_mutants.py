"""The mutant list stays applicable: every old text occurs exactly once in
its file and every named test still exists.  The kill run itself is
``python tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_and_tests_exist(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", source, re.M), test
