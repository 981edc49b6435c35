"""Every output the benchmark's operations produce, pinned by tools/output_digest.py.

The digest covers exit code, stdout, stderr and SVG bytes of every op of the four
benchmark workloads, the census defect probes and the tool's restore probes, for
one seed.  A change that alters any output byte on purpose, or that changes
bench/workloads.py or the probes, re-pins these digests and names the change in
CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

DIGESTS = {
    1: "11fc43a8dac7aef204271b3690cd5b9f90db1798ff11b81319084ff9940c830a",
    2: "9c03883056154afe960839984158745caddfb3b997322a14a5a32cfc041fdf25",
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
