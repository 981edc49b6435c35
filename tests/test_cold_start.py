"""A cold CLI process loads only what its pipeline uses.

Run under python -S, so that no site-packages .pth file preloads modules and
hides an import made by upsilon_lab itself.  Importing the package loads no
submodule; each public name is imported from its home module on first
access, and a census scan or a braid closure never loads fractions.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses brings inspect, ast, dis and tokenize; none is needed at run time.
UNWANTED = ("dataclasses", "inspect", "typing", "pathlib")


def run_bare(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_no_unwanted_module():
    code = f"import upsilon_lab.cli, sys; print([m for m in {UNWANTED!r} if m in sys.modules])"
    result = run_bare("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_census_scan_of_the_sample_imports_pathlib_on_demand():
    result = run_bare("-m", "upsilon_lab", "census", "scan", "sample")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["records"] == 10


def loaded_after(code: str) -> list[str]:
    """The sorted sys.modules names after code runs in a bare process."""
    result = run_bare("-c", code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_package_import_loads_no_submodule():
    assert [m for m in loaded_after("import upsilon_lab") if m.startswith("upsilon_lab.")] == []


# Modules that neither a census scan nor a braid closure runs.
NOT_ON_THE_INT_PATHS = ("fractions", "decimal", "upsilon_lab.restorability", "upsilon_lab.svgplot",
                        "upsilon_lab.seifert", "upsilon_lab.family")


def test_census_scan_and_braid_load_no_fractions():
    for argv in (["census", "scan", "sample"], ["braid", "--named", "t09847"]):
        code = ("import contextlib, io\nfrom upsilon_lab import cli\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0")
        loaded = loaded_after(code)
        assert [m for m in NOT_ON_THE_INT_PATHS if m in loaded] == [], argv


def test_every_public_name_is_its_home_modules_object():
    code = """
import importlib, json
import upsilon_lab
namespace = {}
exec("from upsilon_lab import *", namespace)
print(json.dumps({name: [getattr(upsilon_lab, name) is getattr(importlib.import_module(
    "upsilon_lab." + upsilon_lab._HOMES[name]), name), namespace.get(name) is getattr(upsilon_lab, name)]
    for name in upsilon_lab.__all__}))
"""
    result = run_bare("-c", code)
    assert result.returncode == 0, result.stderr
    checks = json.loads(result.stdout)
    assert len(checks) == 38
    assert {name: check for name, check in checks.items() if check != [True, True]} == {}


def test_unknown_name_is_an_attribute_error():
    import upsilon_lab

    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        upsilon_lab.nonexistent  # noqa: B018
    assert set(upsilon_lab.__all__) <= set(dir(upsilon_lab))


def test_knot_spec_commands_load_neither_family_nor_braids(tmp_path):
    out = str(tmp_path / "t34.svg")
    for argv in (["invariants", "--torus", "3,4"], ["restore", "--torus", "3,4"],
                 ["plot", "--torus", "3,4", "--what", "gapfn,hull,upsilon", "--out", out]):
        code = ("import contextlib, io\nfrom upsilon_lab import cli\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0")
        loaded = loaded_after(code)
        assert [m for m in ("upsilon_lab.family", "upsilon_lab.braids") if m in loaded] == [], argv


def test_catalog_help_still_lists_every_catalog_name():
    from upsilon_lab.family import catalog_names

    result = run_bare("-m", "upsilon_lab", "invariants", "-h")
    assert result.returncode == 0, result.stderr
    assert "built-in knot: " + ", ".join(catalog_names()) in " ".join(result.stdout.split())
    assert len(catalog_names()) == 6
