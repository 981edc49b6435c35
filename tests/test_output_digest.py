"""Every output the benchmark's operations produce, pinned by tools/output_digest.py.

The digest covers exit code, stdout, stderr and SVG bytes of every op of the four
benchmark workloads, the census defect probes and the tool's restore, braid,
gate-refusal and census probes, for one seed.  The gate-refusal probes all exit 2;
every other op exits 0.  A change that alters any output byte on purpose, or that
changes bench/workloads.py or the probes, re-pins these digests and names the
change in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

DIGESTS = {
    1: "2ca721aa305a58c5ed6b5d0e2f679ff68c555a59b024332b91129630716ff357",
    2: "fce2e177044e62d55c5333deced1a1ef6a90f7ea0cdc13768fc902a34318c9f7",
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
