import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rmodesim
from helpers import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_export_list_matches_the_package():
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("The package exports:\n", 1)[1].split("\n\n", 1)[0]
    # names in parenthesised notes, such as StationLog's column names, are not exports
    listed = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", block))
    public = [name for name, value in vars(rmodesim).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(listed) == sorted(public)
