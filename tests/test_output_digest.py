"""Every output the benchmark's operations produce, pinned by tools/output_digest.py.

The digest covers exit code, stdout, stderr and SVG bytes of every op of the four
benchmark workloads, the census defect probes and the tool's restore and braid
probes, for one seed.  A change that alters any output byte on purpose, or that
changes bench/workloads.py or the probes, re-pins these digests and names the
change in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

DIGESTS = {
    1: "1a50c4edadf52c240cec6f49772a45e7573619c6ce9278fd8b00229eec86e66d",
    2: "6e012765aba187ca41ff49148645d690c809c35d2910b66f465955c409a2dc91",
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
