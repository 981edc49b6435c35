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
    1: "a90de5f1d665eee2fae1939883708e35e7d0200aa24deb0b7173733f3cd3513d",
    2: "96f1cccb65bea115a5590307a0cc4c500cd522c2141705e1838830e608ea3cf1",
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
