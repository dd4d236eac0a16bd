"""scripts/startup.py runs end to end: HEAD against itself, one round."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_startup_compares_head_with_itself_in_one_round():
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout: the script compares committed trees")
    out = subprocess.run([sys.executable, "scripts/startup.py", "--parent", "HEAD", "--count", "1"],
                         cwd=ROOT, check=True, capture_output=True, text=True, timeout=60).stdout
    head, columns, *rows = out.splitlines()
    assert head == "medians of 1 alternating fresh interpreters per side, in ms"
    assert columns.split() == ["flag", "command", "parent", "change", "change", "%"]
    names = ["pass", "import", "query", "query - pass"]
    cells = [row.rsplit(None, 3) for row in rows]  # flag and command, parent, change, %
    assert [label.split(None, 1) for label, *_ in cells] == [
        [flag, name] for flag in ("site", "-S") for name in names]
    for label, parent, change, _ in cells:
        if not label.endswith("query - pass"):
            assert float(parent) > 0 and float(change) > 0, label
