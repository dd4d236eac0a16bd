"""scripts/mutants.py's table of one-line mutants anchors in src, and
tests/data/kills.json holds, for each of its rows, the tests that kill it or, for an
equivalent mutant, the reason none can."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_old_text_occurs_once_in_its_file():
    for name, file, old, new, *_ in mutants.MUTANTS:
        assert (ROOT / "src" / "gauge4" / file).read_text().count(old) == 1 and old != new, name


def test_every_mutant_in_the_table_is_killed_or_equivalent():
    names = [row[0] for row in mutants.MUTANTS]
    kills = json.loads(mutants.OUT.read_text())["kills"]
    assert len(set(names)) == len(names) >= 40 and sorted(kills) == sorted(names)
    for name, _, _, _, *equivalent in mutants.MUTANTS:
        assert kills[name] or equivalent and equivalent[0].strip(), name
