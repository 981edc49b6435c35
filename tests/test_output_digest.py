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
    1: "83fa2e81b859c48867c2e62960f15b8902a749a5079b4c06a8754f82b4646ad6",
    2: "1bc514dea8f5d41c654682ac23d647d8b175e81f7f95569b63c250325c8fa0de",
    3: "66dfe323667b3c1700627ffca3a5609eb9b722ab4ffdf92b0b29242059c0f334",
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
