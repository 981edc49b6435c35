"""Every output the benchmark's operations produce, pinned by tools/output_digest.py.

The digest covers exit code, stdout, stderr and SVG bytes of every op of the four
benchmark workloads and the census defect probes, for one seed.  A change that
alters any output byte on purpose, or that changes bench/workloads.py, re-pins
these digests and names the change in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

DIGESTS = {
    1: "d05a82df42cd6996110a1ed3adec618059702be884201d94ce6e975a44b1eba5",
    2: "55364be6618f53812dee9d45fc52972b91f33647cf28903661cdcf2deeb1e056",
}


@pytest.fixture(scope="module")
def output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_outputs_match_the_pinned_digest(output_digest, capsys, seed):
    assert output_digest.main(["--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"sha256 {DIGESTS[seed]}"
    assert all(line.endswith("exit codes {0: %d}" % int(line.split()[1])) for line in lines[:-1])
