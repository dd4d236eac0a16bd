"""scripts/reach.py names the functions a call reaches, and its committed list,
tests/data/reach.txt, names only functions that src still defines; README says why
each public name on that list stays."""

import importlib
import importlib.util
from pathlib import Path

import gauge4

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", SCRIPT)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_the_collector_names_the_functions_a_call_reaches():
    lines = reach.Lines()
    with lines.collecting():
        gauge4.render_decomposition(gauge4.decompose(gauge4.manifold("Z*Z/3", 1)))
    found = lines.functions()
    assert {"decomposer.decompose", "decomposer.Decomposition.__init__",
            "decomposer.splitting_parts", "terms.block_pieces", "terms.join_blocks",
            "terms._factor_text", "manifold.parse_pi1"} <= found
    assert "decomposer.mixed_decomposition" not in found
    # a lambda or comprehension counts for the function around it, module code for none
    assert not [name for name in found if "<" in name]


def test_the_committed_list_names_only_functions_that_exist():
    names = [line for line in reach.OUT.read_text().splitlines() if not line.startswith("#")]
    assert names == sorted(names) and names
    for name in names:
        module, *path = name.split(".")
        target = importlib.import_module(f"gauge4.{module}")
        for part in path:
            target = getattr(target, part)
        assert callable(target) or isinstance(target, property), name


def test_every_public_name_only_the_tests_reach_has_a_reason_in_the_readme():
    # A name of gauge4.__all__ that no user path reaches stays only with a line in
    # README's Library section saying what reads it and what would give it a user path.
    names = [line.split(".")[1] for line in reach.OUT.read_text().splitlines()
             if not line.startswith("#") and line.count(".") == 1]
    public = [name for name in names if name in gauge4.__all__]
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n")[1].split("\n## ")[0]
    missing = [name for name in public
               if not any(line.startswith(f"- `{name}` — ") for line in library.splitlines())]
    assert public and not missing, missing
