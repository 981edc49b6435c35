"""Every output the benchmark's operations produce, pinned by tools/output_digest.py.

The digest covers exit code, stdout, stderr and SVG bytes of every op of the four
benchmark workloads, the census defect probes and the tool's restore, braid,
gate-refusal, pair-order and census probes, for one seed.  The gate-refusal probes all exit 2;
every other op exits 0.  A change that alters any output byte on purpose, or that
changes bench/workloads.py or the probes, re-pins these digests and names the
change in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

DIGESTS = {
    1: "6002916ef66d5e6216a8b366bdca52a24b0503dfff66015ae4c76c648babc136",
    2: "8b3c3990a553856150b06e6c69c65bcd9f9bbbfaa6b2f491875cbc19077f6e08",
    3: "5d0f602a0596e578a025bb651e3615041caa21affb21c09367c6e909de31ac01",
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
    for line in lines[:-1]:
        pool, count = line.split()[:2]
        code = 2 if pool == "gate_refusal_probes:" else 0
        assert line.endswith("exit codes {%d: %s}" % (code, count)), line
