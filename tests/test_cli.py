"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from rbkernel import (
    build_grid,
    find_root,
    kink_exact_matrix,
    reference_spec,
)
import rbkernel.cli as cli_module
from rbkernel.cli import build_parser, main
from rbkernel.counterexample import P_ROUTES
from rbkernel.operator import dump_matrix
from rbkernel.report import fmt_float

from conftest import csv_table, json_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGamma:
    def test_reference_pair_json(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--s", "0", "--t", "2")
        assert code == 0
        assert out == '{"gamma":[-6.0]}\n'

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--s", "0,1", "--t", "2,3",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma"
        assert float(lines[1]) == pytest.approx(-36.0, rel=1e-12)
        assert float(lines[2]) == pytest.approx(20.0, rel=1e-12)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--s", "1", "--t", "1")
        assert code == 2
        assert "disjoint" in err

    def test_malformed_set(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--s", "0;1", "--t", "2"])
        assert exc.value.code == 2


class TestKernelEval:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "kernel-eval", "--eval-s", "2.0",
                               "--eval-t", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(-2.1010529302440879, rel=1e-12)

    def test_symmetry(self, capsys):
        _, out1, _ = run_cli(capsys, "kernel-eval", "--eval-s", "2", "--eval-t", "1")
        _, out2, _ = run_cli(capsys, "kernel-eval", "--eval-s", "1", "--eval-t", "2")
        assert json.loads(out1)["value"] == json.loads(out2)["value"]


class TestPScan:
    def test_bracket_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "p-scan", "--r-min", "2", "--r-max", "2.5",
                               "--steps", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,p"
        r0, p0 = (float(x) for x in lines[1].split(","))
        r1, p1 = (float(x) for x in lines[2].split(","))
        assert (r0, r1) == (2.0, 2.5)
        assert p0 == pytest.approx(-0.16368457791661863, rel=1e-12)
        assert p1 == pytest.approx(0.027807614753503111, rel=1e-12)

    def test_json_mirrors_columns(self, capsys):
        code, out, _ = run_cli(capsys, "p-scan", "--r-min", "1", "--r-max", "2",
                               "--steps", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["r"] for row in rows] == [1.0, 1.5, 2.0]

    def test_validation(self, capsys):
        code, _, err = run_cli(capsys, "p-scan", "--r-min", "2", "--r-max", "1")
        assert code == 2 and "r-min" in err

    @pytest.mark.parametrize("argv, bad", [
        (["--r-min", "1", "--r-max", "inf"], "inf"),
        (["--r-min", "nan", "--r-max", "2"], "nan"),
    ])
    def test_range_end_that_is_not_a_radius(self, capsys, argv, bad):
        # checked before numpy's linspace sees it, which would warn and fill nan
        code, out, err = run_cli(capsys, "p-scan", *argv, "--steps", "3")
        assert (code, out) == (2, "")
        assert err == f"error: radius must be positive and finite, got {bad}\n"

    def test_wronskian_route_is_one_array_pass(self, capsys, monkeypatch):
        import rbkernel.counterexample as cx_module

        calls = []

        def counted(evaluate):
            def wrapper(m, r):
                calls.append((evaluate.__name__, m, np.size(r)))
                return evaluate(m, r)
            return wrapper

        for evaluate in (cx_module.eval_regular, cx_module.eval_irregular):
            monkeypatch.setattr(cx_module, evaluate.__name__, counted(evaluate))
        code, out, _ = run_cli(capsys, "p-scan", "--r-min", "0.3", "--r-max", "5",
                               "--steps", "1001", "--route", "wronskian")
        assert code == 0
        assert sorted(calls) == [("eval_irregular", 0, 1001), ("eval_regular", 2, 1001)]
        monkeypatch.undo()
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(float(r), p) for r, p in rows] == [
            (float(r), fmt_float(P_ROUTES["wronskian"](float(r)))) for r, _ in rows
        ]

    def test_route_choices_follow_the_route_table(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        route = next(a for a in commands.choices["p-scan"]._actions if a.dest == "route")
        assert route.choices == ("auto", *P_ROUTES)


class TestFindRoot:
    def test_default_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "find-root")
        assert code == 0
        payload = json.loads(out)
        assert payload["bracket"] == [2.0, 2.5]
        assert round(payload["R"], 2) == 2.44
        assert payload["residual"] <= 1e-12
        assert payload["iterations"] > 0

    def test_no_sign_change(self, capsys):
        code, _, err = run_cli(capsys, "find-root", "--lo", "0.5", "--hi", "1.5")
        assert code == 2
        assert "sign change" in err


class TestIdentityCheck:
    def test_columns_and_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "identity-check", "--r", "1.0",
                               "--points", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,J,identity_rhs,residual"
        assert len(lines) == 9
        for line in lines[1:]:
            s, j, rhs, residual = (float(x) for x in line.split(","))
            assert 0.0 < s <= 1.0
            assert abs(j - rhs) == pytest.approx(residual, abs=1e-18)
            assert residual <= 1e-8


class TestSweep:
    def test_csv_schema(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--r-min", "0.5", "--r-max", "1.5",
                               "--steps", "3", "--output", str(path))
        assert code == 0
        columns, rows = csv_table(path.read_text())
        assert columns == ("r", "sigma_min", "refinement_delta")
        assert all(sigma > 0.1 for _, sigma, _ in rows)
        assert all(delta is None for *_, delta in rows)

    def test_refine_records_delta(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--r-min", "1.0", "--r-max", "1.2",
                               "--steps", "2", "--refine")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[2] != ""

    @pytest.mark.parametrize("argv, message", [
        (["--panels", "0"], "panels_count must be >= 1"),
        (["--nodes", "1", "--refine"], "nodes_per_panel must be >= 2"),
        (["--s", "0.5", "--t", "2"], "nonnegative integer orders in S"),
        (["--r-max", "inf"], "radius must be positive and finite, got inf"),
    ])
    def test_usage_errors_exit_2(self, capsys, argv, message):
        # validated once before the loop, not recorded as a failure per radius
        code, out, err = run_cli(capsys, "sweep", "--r-min", "1", "--r-max", "2",
                                 "--steps", "3", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestVerify:
    def test_passes_and_writes_report(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "verify", "--output", str(path))
        assert code == 0
        assert "R ≈ 2.44" in out
        assert "overall: PASS" in out
        payload = json.loads(path.read_text())
        assert payload["pass"] is True
        assert payload["sigma_min_at_R"] <= 1e-6

    @pytest.mark.parametrize("radius", ["1.0", "3.0"])
    def test_forced_off_root_radius_fails(self, capsys, radius):
        code, out, _ = run_cli(capsys, "verify", "--force-r", radius)
        assert code == 1
        assert "FAIL  collapse_ratio" in out
        assert "overall: FAIL" in out

    def test_certificate_gates_and_grid_in_report(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "verify", "--output", str(path))
        assert code == 0
        assert "certificate: 8 panels x 16 nodes (N = 128)" in out
        payload = json.loads(path.read_text())
        assert payload["sigma_min_at_R"] <= 1e-12
        gated = {step["name"]: step for step in payload["steps"]}
        for name in ("sigma_min_at_R", "null_vector_deviation", "collapse_ratio",
                     "off_root_grid_delta"):
            assert gated[name]["ok"] is True
        assert set(payload["certificate"]) == {"panels", "nodes", "size",
                                               "next_sigma", "asymmetry"}

    def test_matrix_dump(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        code, _, _ = run_cli(capsys, "verify", "--dump-matrix", str(path))
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert len(rows) == 128 and all(len(row) == 128 for row in rows)
        assert all(float(cell) == float(cell) for row in rows for cell in row)
        # the dump is the certificate's own matrix on its 8 x 16 grid
        grid = build_grid(find_root(2.0, 2.5).root, 8, 16, grading=1.0)
        expected = tmp_path / "expected.csv"
        dump_matrix(kink_exact_matrix(reference_spec(), grid), expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_certificate_is_not_settable(self, capsys):
        # the gates and the grid are fixed: a flag that would loosen or
        # move them is a usage error, not a run
        for argv in (["--tol-sigma", "1"], ["--panels", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", *argv])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestSmallRadiusUnderflow:
    """Below about 1e-151, t*t is subnormal or 0 at the first grid nodes: K
    still forms there, each command reports only what fails, and numpy
    prints nothing."""

    @staticmethod
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rbkernel.cli", *argv],
                              capture_output=True, text=True)

    def test_verify(self):
        # t*t is 0 at the first nodes: the certificate forms at its
        # small-radius limit, and only u_2's own underflow fails to evaluate
        proc = self.run("verify", "--force-r", "1e-300")
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout.startswith("R ≈ 1e-300\n")  # the radius used, as in the JSON
        assert "spectral_certificate" not in proc.stdout
        assert "FAIL  sigma_min_at_R: 1.000004e+00" in proc.stdout
        assert ("FAIL  null_vector_check (u_2 underflows to 0 at the nodes of "
                "radius 1e-300): failed to evaluate") in proc.stdout
        assert "FAIL  equation_check (u_2 underflows to 0 at every point)" in proc.stdout

    def test_verify_in_the_subnormal_band(self):
        # t*t is subnormal, not 0, at the first nodes: the certificate forms,
        # and the u_2 steps name its underflow
        proc = self.run("verify", "--force-r", "1e-155")
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "non-finite entries" not in proc.stdout
        assert "FAIL  sigma_min_at_R: 1.000004e+00" in proc.stdout
        assert ("FAIL  null_vector_check (u_2 underflows to 0 at the nodes of "
                "radius 1e-155): failed to evaluate") in proc.stdout
        assert "FAIL  equation_check (u_2 underflows to 0 at every point)" in proc.stdout

    def test_sweep(self):
        # the reference kernel gives every radius its small-radius value
        proc = self.run("sweep", "--r-min", "1e-300", "--r-max", "1e-299", "--steps", "3")
        assert proc.returncode == 0
        assert proc.stderr == ""
        header, *rows = proc.stdout.splitlines()
        assert header == "r,sigma_min,refinement_delta"
        assert [row.split(",")[0] for row in rows] == [
            "1e-300", "5.4999999999999999e-300", "9.9999999999999999e-300"]
        small = self.run("sweep", "--r-min", "1e-100", "--r-max", "2e-100", "--steps", "2")
        sigma = float(small.stdout.splitlines()[1].split(",")[1])
        assert [float(row.split(",")[1]) for row in rows] == pytest.approx([sigma] * 3, abs=1e-12)
        # a kernel whose v_4 overflows at the first node says so once per radius
        proc = self.run("sweep", "--r-min", "1e-300", "--r-max", "1e-299", "--steps", "3",
                        "--s", "0,4,8", "--t", "2,6,10")
        assert proc.returncode == 0
        assert proc.stdout == "r,sigma_min,refinement_delta\n"
        assert proc.stderr.splitlines() == [
            f"warning: point {r} failed: v_4({first}) overflows double precision"
            for r, first in (("1e-300", "1.44057544947506e-304"),
                             ("5.5e-300", "7.923164972112817e-304"),
                             ("1e-299", "1.4405754494750548e-303"))
        ]


class TestLargestRadii:
    """Near the largest double the grid, both matrices and the quadrature
    form without overflow: verify runs every step, fails, and numpy prints
    nothing."""

    @pytest.mark.parametrize("radius", ["1e308", "1.7976931348623157e308"])
    def test_verify(self, radius):
        proc = TestSmallRadiusUnderflow.run("verify", "--force-r", radius)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout.startswith(f"R ≈ {float(radius)!r}\n")
        assert "failed to evaluate" not in proc.stdout
        assert "overall: FAIL" in proc.stdout


class TestParserReuse:
    def test_main_reuses_one_parser(self):
        assert cli_module._parser() is cli_module._parser()
        assert build_parser() is not build_parser()
        assert build_parser() is not cli_module._parser()

    def test_repeated_calls_give_the_same_bytes(self, capsys):
        for argv in (["gamma"], ["gamma", "--s", "0,4", "--t", "2,6"],
                     ["find-root", "--format", "csv"], ["verify"]):
            first = run_cli(capsys, *argv)
            assert run_cli(capsys, *argv) == first
        # the default sets are not changed by a call that overrode them
        assert run_cli(capsys, "gamma") == (0, '{"gamma":[-6.0]}\n', "")

    def test_usage_error_then_a_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--r-min", "1", "--r-max", "2", "--steps", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert run_cli(capsys, "gamma") == (0, '{"gamma":[-6.0]}\n', "")
        with pytest.raises(SystemExit):
            main(["verify", "--panels", "4"])
        capsys.readouterr()
        code, out, err = run_cli(capsys, "find-root")
        assert (code, err) == (0, "")
        assert json.loads(out)["R"] == find_root(2.0, 2.5).root


class TestDeterminism:
    def test_byte_identical_files(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "p-scan", "--r-min", "0.3", "--r-max", "3",
                                 "--steps", "41", "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_all_tabular_commands(self, capsys, tmp_path):
        tables = {}
        for fmt, read in (("csv", csv_table), ("json", json_table)):
            path = tmp_path / f"scan.{fmt}"
            run_cli(capsys, "p-scan", "--r-min", "1", "--r-max", "2", "--steps", "4",
                    "--format", fmt, "--output", str(path))
            tables[fmt] = read(path.read_text())
        columns, rows = tables["csv"]
        assert columns == ("r", "p")
        assert len(rows) == 4
        assert tables["json"] == tables["csv"]  # both read back to the same doubles


def test_console_script_installed():
    # exercise the packaged entry point in a real subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "rbkernel.cli", "gamma", "--s", "0", "--t", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"gamma":[-6.0]}\n'


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "rbkernel.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
