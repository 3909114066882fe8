"""The mutant catalogue applies to today's code, and reports a lost text as stale.

Running the catalogue takes a pytest subprocess per entry
(``python tests/mutants.py``); these checks only apply the replacements.
"""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_every_entry_applies_once(mutant):
    assert mutant.old != mutant.new
    assert (mutants.ROOT / mutant.file).read_text().count(mutant.old) == 1
    for node in mutant.tests:
        assert (mutants.ROOT / node.split("::")[0]).is_file()


def test_a_lost_text_is_stale():
    entry = mutants.CATALOGUE[0]._replace(old="text that is in no file")
    assert mutants.judge(entry) == "stale"
