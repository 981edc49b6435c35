"""Tests of the benchmark itself: seeded generation, the output checker, the tracer."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from upsilon_lab import cli, piecewise  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _snapshot(ops: list[workloads.Op]) -> list[tuple]:
    return [(op.kind, op.argv, op.knots, op.ref, op.files) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _snapshot(workloads.generate(workload, 7, str(tmp_path)))
    assert first == _snapshot(workloads.generate(workload, 7, str(tmp_path)))
    assert first != _snapshot(workloads.generate(workload, 8, str(tmp_path)))


def test_defect_probes_are_deterministic_per_seed(tmp_path):
    first = _snapshot(workloads.census_defect_probes(3, str(tmp_path)))
    assert first == _snapshot(workloads.census_defect_probes(3, str(tmp_path)))


def test_random_braid_words_close_to_knots():
    import random

    from upsilon_lab.braids import BraidWord

    rng = random.Random(0)
    for strands in (3, 4, 5):
        word = workloads.knot_closing_word(strands, 30, rng)
        assert BraidWord(strands, word).is_knot_closure()


@pytest.mark.parametrize("spec, ref", [
    (["--family", "K1", "--n", "2"], workloads.family_ref("K1", 2)),
    (["--torus", "5,7"], workloads.torus_ref(5, 7)),
])
def test_checker_flags_moved_hull_vertex(spec, ref):
    op = workloads.Op("invariants", ["invariants", *spec], ref=ref)
    rc, stdout = _run(op.argv)
    assert checks.check(op, rc, stdout) is None
    out = json.loads(stdout)
    x, y = out["hull"]["vertices"][1]
    out["hull"]["vertices"][1] = [x, str(int(y) + 2)]
    assert checks.check(op, 0, json.dumps(out)) is not None


def test_checker_flags_wrong_upsilon_breakpoint():
    op = workloads.Op("invariants", ["invariants", "--torus", "5,7"], ref=workloads.torus_ref(5, 7))
    out = json.loads(_run(op.argv)[1])
    t, u = out["upsilon"]["vertices"][1]
    out["upsilon"]["vertices"][1] = [t, f"{u}-1" if "/" not in u else "0"]
    assert "Upsilon" in checks.check(op, 0, json.dumps(out))


def test_checker_flags_dropped_census_pair(tmp_path):
    op = workloads.generate("census-ladder", 1, str(tmp_path))[0]
    op.write_files()
    rc, stdout = _run(op.argv)
    assert checks.check(op, rc, stdout) is None
    out = json.loads(stdout)
    out["upsilon_equal_delta_distinct"].remove(op.ref["planted"]["pairs"][1])
    assert "missing" in checks.check(op, 0, json.dumps(out))


def test_checker_flags_foreign_restore_witness():
    ref = {"alexander": None, "gaps": [1, 2, 4, 6, 9], "all": True, "pinned": (2, 2)}
    op = workloads.Op("restore", ["restore", "--catalog", "pretzel_237", "--all"], ref=ref)
    rc, stdout = _run(op.argv)
    assert checks.check(op, rc, stdout) is None
    out = json.loads(stdout)
    out["witnesses"][1] = [1, 2, 3, 4, 9]
    assert "envelope" in checks.check(op, 0, json.dumps(out))
    out["witnesses"] = out["witnesses"][:1]
    assert checks.check(op, 0, json.dumps(out)) is not None


def test_checker_flags_wrong_burau_polynomial():
    op = workloads.Op("braid", ["braid", "--named", "K2", "--n", "3"],
                      ref={"alexander": workloads.family_ref("K2", 3)["alexander"]})
    rc, stdout = _run(op.argv)
    assert checks.check(op, rc, stdout) is None
    out = json.loads(stdout)
    out["alexander"][1][1] += 1
    assert checks.check(op, 0, json.dumps(out)) is not None
    assert checks.check(op, 2, "") == "exit code 2"


def test_checker_flags_broken_svg(tmp_path):
    out_path = tmp_path / "k.svg"
    op = workloads.Op("plot", ["plot", "--torus", "3,4", "--what", "gapfn,hull,upsilon", "--out", str(out_path)],
                      ref={"out": str(out_path), "curves": 3})
    rc, stdout = _run(op.argv)
    assert checks.check(op, rc, stdout) is None
    out_path.write_text(out_path.read_text()[:-20])
    assert "well-formed" in checks.check(op, 0, "")


def test_tracer_records_nested_spans_and_restores_the_code():
    original = piecewise.lower_convex_envelope
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert _run(["invariants", "--torus", "3,4"])[0] == 0
    finally:
        tracing.uninstall(undo)
    assert piecewise.lower_convex_envelope is original
    assert tracer.labels[tracer.label[0]] == "cli.main" and tracer.parent[0] == -1
    metrics = tracing.layer_metrics(tracer, ["invariants"])
    assert metrics["piecewise.envelope_calls"] == 1
    assert metrics["gapfunctions.samples"] == 2 * 3 + 1
    assert metrics["semigroups.closure_pairs"] > 0
    self_ms, _ = tracer.self_times()
    assert abs(sum(self_ms.values()) - (tracer.end[0] - tracer.start[0])) < 1e-6
