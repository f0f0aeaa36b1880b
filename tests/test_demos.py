import builtins
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

import rmodesim
import rmodesim.errors
from helpers import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
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


def _config_keys(raw):
    """The dotted keys a config dict sets: top-level keys, and one level into each section."""
    keys = set()
    for name, value in raw.items():
        keys.add(name)
        for entry in value if isinstance(value, list) else [value]:
            if isinstance(entry, dict):
                keys.update(f"{name}.{key}" for key in entry)
    return keys


def test_readme_config_table_matches_the_loader(tmp_path):
    table = (ROOT / "README.md").read_text(encoding="utf-8").split("| section | keys | notes |\n", 1)[1].split("\n\n", 1)[0]
    listed, section = set(), None
    for row in table.splitlines()[1:]:
        section_cell, keys_cell = row.split("|")[1:3]
        section = re.findall(r"`(\w+)`", section_cell)[0] if section_cell.strip() else section
        listed.add(section)
        listed.update(f"{section}.{key}" for key in re.findall(r"`(\w+)`", keys_cell))

    # the shipped config, and the same scenario with every lattice imported, both load
    shipped = yaml.safe_load((ROOT / "configs" / "korea_mf.yaml").read_text(encoding="utf-8"))
    lattices = dict(shipped, propagation={"kind": "grid", "grids": {tx["id"]: "field.csv" for tx in shipped["stations"]}})
    lattices["noise"] = {"grid": "field.csv"}
    rmodesim.write_field_grid(rmodesim.FieldGrid([30.0, 40.0], [120.0, 130.0], np.full((2, 2), 60.0)), tmp_path / "field.csv")
    for name, raw in (("shipped.yaml", shipped), ("lattices.yaml", lattices)):
        (tmp_path / name).write_text(yaml.safe_dump(raw), encoding="utf-8")
        rmodesim.load_config(tmp_path / name)
    assert listed == _config_keys(shipped) | _config_keys(lattices)


def test_readme_exit_codes_match_the_error_classes():
    # the "Exit codes" paragraph and its list of statuses
    intro, bullets = (ROOT / "README.md").read_text(encoding="utf-8").split("Exit codes:", 1)[1].split("\n\n", 2)[:2]
    parts = re.split(r"^- `(\d)`", bullets, flags=re.M)[1:]
    listed = {int(code): set(re.findall(r"`(\w+Error)`", text)) for code, text in zip(parts[::2], parts[1::2])}
    classes = [c for c in vars(rmodesim.errors).values() if isinstance(c, type) and issubclass(c, rmodesim.errors.RmodeError)]
    for code in (3, 4):
        assert listed[code] == {c.__name__ for c in classes if c.exit_code == code}
    for name in re.findall(r"`(\w+Error)`", intro + bullets):
        assert hasattr(rmodesim.errors, name) or hasattr(builtins, name), name


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    code = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = code.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README quickstart", "exec"), {})
    assert (tmp_path / "coverage.csv").stat().st_size > 0
