"""Tests of the benchmark's own parts: inputs, output checks and span accounting.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import bench_workloads as bw
from bench_probe import REFERENCE, probe_for
from bench_trace import Tracer, layer_totals, self_times, union_length

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli():
    try:
        import rbkernel.cli
    except ImportError:
        return bw.import_program(ROOT)
    return rbkernel.cli


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = bw.make_inputs(workload, 7)
    again = bw.make_inputs(workload, 7)
    assert first == again
    assert bw.argv_digest(first) == bw.argv_digest(again)
    if workload != "certify":
        assert len(first) == bw.STRATA
        assert bw.make_inputs(workload, 8) != first


def test_verify_off_root_counts_as_failed(cli, tmp_path):
    argv = ["verify", "--force-r", "1.0", "--output", str(tmp_path / "report.json")]
    result = bw.run_op(cli.main, argv)
    assert result.code == 1
    assert bw.check("certify", argv, result) is not None


def test_doctored_identity_residual_counts_as_failed(cli):
    argv = bw.make_inputs("identity", 3)[0]
    result = bw.run_op(cli.main, argv)
    assert bw.check("identity", argv, result) is None
    lines = result.stdout.splitlines()
    cells = lines[5].split(",")
    cells[3] = "0.001"
    lines[5] = ",".join(cells)
    result.stdout = "\n".join(lines) + "\n"
    assert "1e-8" in bw.check("identity", argv, result)


def test_scan_per_point_warning_counts_as_failed():
    header = "r,sigma_min,refinement_delta\n"
    rows = "".join(f"{1 + i / 20},0.5,1e-3\n" for i in range(bw.SCAN_STEPS))
    ok = bw.OpResult(0, header + rows, "")
    assert bw.check("scan", [], ok) is None
    warned = bw.OpResult(0, header + rows, "warning: point 1 failed: boom\n")
    assert "per-point" in bw.check("scan", [], warned)
    short = bw.OpResult(0, header + rows.split("\n", 1)[1], "")
    assert "rows" in bw.check("scan", [], short)


def test_raising_op_counts_as_failed():
    def main(argv):
        raise RuntimeError("boom")

    result = bw.run_op(main, ["identity-check"])
    assert bw.check("identity", [], result) == "raised RuntimeError: boom"


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_probe_rescales_to_its_reference_speed(workload):
    assert set(REFERENCE) == set(bw.WORKLOADS)
    probe = probe_for(workload)
    probe.prepare()
    assert probe.seconds() > 0
    # 0.2 s measured while the probe ran at half its reference speed is 0.1 s at that speed
    assert probe.to_reference(0.2, 2 * probe.ref_s) == pytest.approx(0.1)


def test_union_length_merges_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([(2, 3), (1, 5)], 0, 10) == pytest.approx(4.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_of_nested_overlapping_spans():
    spans = [
        ("cli", 0.0, 10.0, None, None),
        ("operator.apply", 1.0, 4.0, 0, None),
        ("riccati", 3.0, 6.0, 0, None),       # overlaps its sibling
        ("riccati", 8.0, 12.0, 0, None),      # runs past its parent
        ("riccati", 2.0, 3.5, 1, None),       # grandchild of the root
        ("riccati", 2.5, 3.0, 4, None),       # same layer: not a new entry
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 3.0, 4.0, 1.0, 0.5])
    totals = layer_totals(spans)
    assert totals["cli"] == {"calls": 1, "self_s": pytest.approx(3.0), "size_max": 0}
    assert totals["operator.apply"]["self_s"] == pytest.approx(1.5)
    assert totals["riccati"]["calls"] == 3
    assert totals["riccati"]["self_s"] == pytest.approx(8.5)


def _traced_op(cli, workload):
    tracer = Tracer()
    argv = bw.make_inputs(workload, 1)[0]
    with tracer.installed():
        result = bw.run_op(lambda a: tracer.call("cli", cli.main, (a,)), argv)
    assert bw.check(workload, argv, result) is None
    return layer_totals(tracer.take())


def test_traced_identity_bypasses_svd(cli):
    totals = _traced_op(cli, "identity")
    assert bw.invariant_violations("identity", totals) == []
    assert "operator.svd" not in totals
    assert totals["operator.apply"]["calls"] == bw.IDENTITY_POINTS
    assert totals["riccati"]["calls"] > 0


def test_traced_scan_bypasses_apply(cli):
    totals = _traced_op(cli, "scan")
    assert bw.invariant_violations("scan", totals) == []
    assert "operator.apply" not in totals
    assert bw.invariant_violations("identity", totals) == ["operator.svd.calls = 42, expected 0"]
    assert totals["operator.svd"]["calls"] == 2 * bw.SCAN_STEPS
    assert totals["operator.svd"]["size_max"] == 192


def test_tracer_restores_every_binding(cli):
    import rbkernel
    import rbkernel.operator

    before = (rbkernel.eval_regular, rbkernel.operator.eval_regular,
              cli.eval_regular, rbkernel.report.ScanReport.to_csv_text)
    with Tracer().installed():
        assert rbkernel.operator.eval_regular is cli.eval_regular
        assert rbkernel.operator.eval_regular is not before[1]
    after = (rbkernel.eval_regular, rbkernel.operator.eval_regular,
             cli.eval_regular, rbkernel.report.ScanReport.to_csv_text)
    assert after == before
