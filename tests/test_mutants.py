"""The mutant list stays applicable: every old text occurs exactly once in
its file, every named test still exists, and a pull request that touches a
mutated file triggers the kill run.  The kill run itself is
``python tests/mutants.py``."""

import fnmatch
import itertools
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
        # A parametrized id names its test function before the "[".
        path, *names = test.split("[", 1)[0].split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", source, re.M), test


def test_workflow_runs_on_every_mutated_file():
    # The pull_request paths filter of the kill run, read as plain text: a
    # glob's "**" matches every path below its directory.
    workflow = (ROOT / ".github/workflows/mutants.yml").read_text()
    lines = workflow.split("\n    paths:\n", 1)[1].splitlines()
    items = itertools.takewhile(lambda line: line.startswith("      - "), lines)
    globs = [line.removeprefix("      - ") for line in items]
    for path in {m.path for m in MUTANTS} | {"tests/mutants.py"}:
        assert any(fnmatch.fnmatchcase(path, glob) for glob in globs), path
