"""A cold CLI process loads only what its pipeline uses.

Run under python -S, so that no site-packages .pth file preloads modules and
hides an import made by upsilon_lab itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
