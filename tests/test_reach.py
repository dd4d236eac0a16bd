"""scripts/reach.py names the functions a call reaches, and its committed list,
tests/data/reach.txt, names only functions that src still defines; README says why
each public name on that list stays."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import gauge4
import gauge4.cli

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
    assert {"decomposer.decompose", "decomposer._assemble", "decomposer.splitting_parts",
            "terms.join_blocks", "terms._factor_text", "manifold.parse_pi1"} <= found
    # decompose takes the Wedge and the Decomposition it builds as given: their one-frame
    # constructors ran, module-level lambdas named for no function, and no __init__ did
    given = gauge4.Wedge._as_given, gauge4.Decomposition._as_given
    assert {fn.__code__ for fn in given} <= lines.code
    assert not {"decomposer.mixed_decomposition", "decomposer.Decomposition.__init__",
                "terms.Wedge.__init__"} & found
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


def test_no_help_query_reaches_a_function_on_the_committed_list(capsys):
    # the seven --help answers are user paths, so what they run is not tier-1's alone
    lines = reach.Lines()
    with lines.collecting():
        for argv in reach.help_queries(gauge4.cli):
            assert gauge4.cli.run(argv) == 0
    # their answers, in turn, are the seven that tests/data/cli_help.txt pins
    assert capsys.readouterr().out == (ROOT / "tests" / "data" / "cli_help.txt").read_text()
    found = lines.functions()
    committed = {line for line in reach.OUT.read_text().splitlines() if not line.startswith("#")}
    assert "cli._help" in found and not found & committed


def _main(monkeypatch, tmp_path, status):
    """reach.main with tier-1 reaching one function and ending with status; the list it
    writes goes to a file under tmp_path, which holds a list of one other function."""
    out = tmp_path / "reach.txt"
    out.write_text("# old\nold.name\n")
    monkeypatch.setattr(reach, "user_paths", set)
    monkeypatch.setattr(reach, "tier_one", lambda: ({"new.name"}, status))
    monkeypatch.setattr(reach, "OUT", out)
    monkeypatch.setattr(sys, "path", list(sys.path))
    reach.main()
    return out.read_text()


def test_an_incomplete_run_writes_nothing(monkeypatch, tmp_path):
    # pytest's status 2: a module failed to import, so tier-1 reached too little
    with pytest.raises(SystemExit) as exit_:
        _main(monkeypatch, tmp_path, 2)
    assert exit_.value.code == 2
    assert (tmp_path / "reach.txt").read_text() == "# old\nold.name\n"


def test_a_run_with_failing_tests_writes_the_list(monkeypatch, tmp_path, capsys):
    assert _main(monkeypatch, tmp_path, 1) == reach.HEADER + "new.name\n"
    assert capsys.readouterr().out == "new.name\n"
