"""The mutation catalogue in ``mutants.py`` still applies to the source.

The catalogue runs the suite once per entry, too slow for every push;
this check only reads and compiles files, so a refactor that moves an
entry's old text, or an entry whose edit changes nothing or does not
parse, fails here rather than in the catalogue's own run.
"""

from mutants import MUTANTS, ROOT


def test_every_mutant_old_text_occurs_once():
    found = {reason: (ROOT / path).read_text().count(old) for path, old, _, reason in MUTANTS}
    assert {reason: n for reason, n in found.items() if n != 1} == {}
    assert len(found) == len(MUTANTS)


def test_every_mutant_changes_its_file_and_compiles():
    for path, old, new, reason in MUTANTS:
        assert new != old, reason
        text = (ROOT / path).read_text()
        compile(text.replace(old, new), path, "exec")
