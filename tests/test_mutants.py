"""The mutation catalogue in ``mutants.py`` still applies to the source.

The catalogue runs the suite once per entry, too slow for every push;
this check only reads files, so a refactor that moves an entry's old
text fails here rather than in the catalogue's own run.
"""

from mutants import MUTANTS, ROOT


def test_every_mutant_old_text_occurs_once():
    found = {reason: (ROOT / path).read_text().count(old) for path, old, _, reason in MUTANTS}
    assert {reason: n for reason, n in found.items() if n != 1} == {}
    assert len(found) == len(MUTANTS)
