"""End-to-end command-line behavior: parsing, formats, determinism, errors."""

import json
import math
import re
import shlex
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ddesplit import stability
from ddesplit.cli import main, parse
from ddesplit.scalar import ScalarDelayProblem, SchemeConfig, StepCoefficients, run
from ddesplit.stability import (
    CompanionOperator,
    companion_power_norm_sum,
    companion_profiles,
)

from dense_stability import dense_spectral_radius

CSV_CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def _cells(line):
    return line.split(",")


class TestParsing:
    def test_scalar_defaults(self):
        ns = parse(["scalar"])
        assert ns.subcommand == "scalar"
        assert ns.a == -0.15
        assert ns.b == -6.0
        assert ns.tau == -0.257
        assert ns.h == 0.001
        assert ns.T == 40.0
        assert ns.history == "poly10"
        assert ns.format == "csv"
        assert ns.out is None

    def test_report_subcommands_default_to_json(self):
        for args in (["stability"], ["convergence"], ["growth-fit"],
                     ["timing"]):
            assert parse(args).format == "json"

    @pytest.mark.parametrize("argv", [
        [],
        ["warp"],
        ["scalar", "--tau", "0.5"],
        ["scalar", "--h", "-1"],
        ["scalar", "--h", "0"],
        ["scalar", "--scheme", "rk4"],
        ["pde", "--Nx", "0"],
        ["pde", "--preset", "unknown"],
        ["oracle", "--n-nodes", "-5"],
        ["stability", "--format", "csv"],
        ["stability", "--profile-n", "-5"],
        ["stability", "--profile-stride", "-7"],
        ["convergence", "--h-list", "0.1,abc"],
        ["convergence", "--h-list", "0.1,,0.05,0.025"],
        ["convergence", "--h-list", ""],
        ["oracle", "--t0", "nan"],
        ["oracle", "--t1", "inf"],
        ["growth-fit", "--t-start", "nan"],
        # compare_runtime needs three runs for a median.
        ["timing", "--reps", "1"],
        ["timing", "--reps", "2"],
        # Infinite or NaN numbers are usage errors, not numerical failures.
        ["scalar", "--h", "inf"],
        ["scalar", "--T", "inf"],
        ["scalar", "--tau=-inf"],
        ["scalar", "--a", "nan"],
        ["scalar", "--b", "inf"],
        ["scalar", "--history", "const", "--history-value", "nan"],
        ["pde", "--kappa", "inf"],
        ["pde", "--lambda0", "nan"],
        ["pde", "--lambda1=-inf"],
        ["pde", "--b", "nan"],
        ["stability", "--a", "inf"],
        ["oracle", "--a=-inf"],
        ["growth-fit", "--b", "nan"],
    ])
    def test_usage_errors_exit_with_code_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2

    def test_documented_invocations_parse(self):
        manifest = [
            ["scalar"],
            ["scalar", "--scheme", "lt", "--delay-mode", "kernel"],
            ["pde", "--preset", "paper-auto-pde"],
            ["pde", "--preset", "paper-nonauto-pde"],
            ["stability", "--profile-n", "200000"],
            ["oracle"],
            ["convergence"],
            ["convergence", "--pair", "ie-grid,ie-kernel"],
            ["growth-fit", "--char-root"],
            ["timing", "--target", "pde-nonauto"],
        ]
        for argv in manifest:
            assert parse(argv).subcommand == argv[0]

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = section.split("```", 2)[1]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        invocations = [argv[1:] for argv in lines if argv[:1] == ["ddesplit"]]
        assert len(invocations) == 7
        for argv in invocations:
            assert parse(argv).subcommand == argv[0]


SCALAR_ARGS = ["scalar", "--h", "0.1", "--T", "0.5", "--tau", "-0.3",
               "--history", "const", "--history-value", "2.0"]


class TestScalarOutput:
    def test_csv_layout(self, capsys):
        assert main(SCALAR_ARGS) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0] == "t,u"
        assert len(lines) == 7
        for line in lines[1:]:
            cells = _cells(line)
            assert len(cells) == 2
            assert all(CSV_CELL.match(c) for c in cells)
        assert "wall clock:" in captured.err

    def test_csv_values_match_a_direct_run(self, capsys):
        main(SCALAR_ARGS)
        lines = capsys.readouterr().out.strip().split("\n")
        t = np.array([float(_cells(l)[0]) for l in lines[1:]])
        u = np.array([float(_cells(l)[1]) for l in lines[1:]])
        prob = ScalarDelayProblem(a=-0.15, b=-6.0, tau=-0.3,
                                  history=lambda _: 2.0)
        ref = run(prob, SchemeConfig(h=0.1, T=0.5, scheme="ie"))
        assert t == pytest.approx(ref.times, abs=1e-12)
        assert u == pytest.approx(ref.values, rel=1e-10)

    def test_json_round_trip(self, capsys):
        main(SCALAR_ARGS + ["--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"t", "u", "scheme", "parameters"}
        assert data["scheme"] == "ie-grid"
        assert data["parameters"]["tau"] == -0.3
        assert data["parameters"]["history"] == "const"
        prob = ScalarDelayProblem(a=-0.15, b=-6.0, tau=-0.3,
                                  history=lambda _: 2.0)
        ref = run(prob, SchemeConfig(h=0.1, T=0.5, scheme="ie"))
        assert np.array(data["u"]) == pytest.approx(ref.values, rel=1e-10)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_invocations_are_byte_identical(self, fmt, capsys):
        main(SCALAR_ARGS + ["--format", fmt])
        first = capsys.readouterr().out
        main(SCALAR_ARGS + ["--format", fmt])
        second = capsys.readouterr().out
        assert first == second

    def test_zero_history_gives_zero_rows(self, capsys):
        main(["scalar", "--h", "0.1", "--T", "0.3", "--tau", "-0.3",
              "--history", "zero"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert all(_cells(l)[1] == "0.00000000000e+00" for l in lines[1:])

    def test_out_flag_writes_the_file_and_keeps_stdout_quiet(self, capsys,
                                                             tmp_path):
        main(SCALAR_ARGS)
        direct = capsys.readouterr().out
        target = tmp_path / "series.csv"
        assert main(SCALAR_ARGS + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == direct


PDE_ARGS = ["pde", "--Nx", "5", "--h", "0.1", "--T", "0.5"]


class TestPdeOutput:
    def test_csv_layout(self, capsys):
        assert main(PDE_ARGS) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,center,l2"
        assert len(lines) == 7
        assert all(len(_cells(l)) == 3 for l in lines[1:])

    def test_json_mirror(self, capsys):
        main(PDE_ARGS + ["--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"t", "center", "l2", "scheme", "parameters"}
        assert data["scheme"] == "ie"
        assert data["parameters"]["Nx"] == 5

    def test_presets_pin_the_modulation(self, capsys):
        small = ["--Nx", "4", "--h", "0.1", "--T", "0.3", "--format", "json"]
        main(["pde", "--preset", "paper-nonauto-pde"] + small)
        data = json.loads(capsys.readouterr().out)
        assert data["parameters"]["lambda1"] == 0.2
        # A preset fixes the mode, so an explicit --mode is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["pde", "--preset", "paper-auto-pde", "--mode", "nonauto"] + small)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_mode_flag_selects_the_modulation(self, capsys):
        small = ["--Nx", "4", "--h", "0.1", "--T", "0.3", "--format", "json"]
        main(["pde", "--mode", "nonauto"] + small)
        assert json.loads(capsys.readouterr().out)["parameters"]["lambda1"] == 0.2


class TestStabilityOutput:
    def test_report_schema(self, capsys):
        assert main(["stability", "--tau", "-0.003", "--h", "0.001"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"m", "spectral_radius", "os_norm", "defect_norm",
                             "checkpoints", "summability", "ritt"}
        assert data["m"] == 3
        assert data["os_norm"] == pytest.approx(0.00615, rel=1e-10)
        assert data["checkpoints"] == []

    def test_profiles_match_the_library_calls(self, capsys):
        main(["stability", "--tau", "-0.003", "--h", "0.001",
              "--profile-n", "50", "--profile-stride", "10"])
        data = json.loads(capsys.readouterr().out)
        assert data["checkpoints"] == [10, 20, 30, 40, 50]
        alpha = 1.0 / 1.00015
        op = CompanionOperator(m=3, alpha=alpha, beta=-0.006 * alpha)
        s_vals, r_vals = companion_profiles(op, data["checkpoints"])
        assert data["summability"] == [float(f"{v:.11e}") for v in s_vals]
        assert data["ritt"] == [float(f"{v:.11e}") for v in r_vals]
        total = companion_power_norm_sum(op, 50)
        assert data["power_norm_sum"] == float(f"{total:.11e}")

    def test_default_stride_lands_on_the_horizon(self, capsys):
        main(["stability", "--tau", "-0.003", "--h", "0.001",
              "--profile-n", "47"])
        data = json.loads(capsys.readouterr().out)
        assert data["checkpoints"][-1] == 47

    def test_short_delay_is_a_runtime_error_not_a_crash(self, capsys):
        rc = main(["stability", "--tau", "-0.05", "--h", "0.1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_fractional_lag_is_a_runtime_error_naming_the_lag(self, capsys):
        rc = main(["stability", "--h", "0.0004"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: stability diagnostics need an integer "
                                "lag, got -tau/h = 642.5\n")
        assert captured.out == ""

    def test_large_delay_depth(self, capsys):
        assert main(["stability", "--h", "0.0004", "--tau", "-0.2568"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 642
        coeffs = StepCoefficients.from_params(-0.15, -6.0, 0.0004)
        oracle = dense_spectral_radius(
            CompanionOperator(m=642, alpha=coeffs.alpha, beta=coeffs.beta))
        # The report keeps 12 significant digits.
        assert data["spectral_radius"] == pytest.approx(oracle, rel=1e-11)

    def test_operator_that_stalled_uniform_starts(self, capsys):
        # m 296, alpha 0.4176, beta -0.8051: sweeps from uniform angles on
        # the Newton-polygon circles did not converge in 100 sweeps.
        rc = main(["stability", "--a", "-139.48195482076895",
                   "--b", "-192.80810321588334", "--tau", "-2.96", "--h", "0.01"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 296
        coeffs = StepCoefficients.from_params(-139.48195482076895,
                                              -192.80810321588334, 0.01)
        oracle = dense_spectral_radius(
            CompanionOperator(m=296, alpha=coeffs.alpha, beta=coeffs.beta))
        assert data["spectral_radius"] == pytest.approx(oracle, rel=1e-11)

    def test_report_builds_no_dense_matrix(self, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix built")

        with mock.patch.object(stability, "build_discrete_propagators", refuse), \
                mock.patch.object(CompanionOperator, "dense", refuse):
            rc = main(["stability", "--profile-n", "50"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["m"] == 257


class TestOracleOutput:
    def test_benchmark_value_in_the_first_row(self, capsys):
        assert main(["oracle", "--num", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,u"
        assert len(lines) == 6
        assert float(_cells(lines[1])[1]) == pytest.approx(0.148151811720,
                                                           abs=1e-9)


class TestConvergenceOutput:
    def test_degenerate_study_serializes_null_slope(self, capsys):
        rc = main(["convergence", "--b", "0", "--tau", "-0.5",
                   "--history", "const", "--h-list", "0.1,0.05,0.025",
                   "--T", "1"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degenerate"] is True
        assert data["slope"] is None
        assert data["error"] == [0.0, 0.0, 0.0]

    def test_order_study_reports_a_slope(self, capsys):
        main(["convergence", "--tau", "-0.5", "--history", "const",
              "--h-list", "0.1,0.05,0.025", "--T", "2"])
        data = json.loads(capsys.readouterr().out)
        assert data["degenerate"] is False
        assert 0.5 <= data["slope"] <= 1.5
        assert len(data["h"]) == len(data["error"]) == 3

    @pytest.mark.parametrize("h_list", ["0.1,0.05,nan", "inf,0.05", "0.1,-inf"],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_step_is_a_usage_error(self, h_list, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--h-list", h_list])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument --h-list: must be comma-separated finite numbers, "
                f"got {h_list!r}") in err


class TestGrowthFitOutput:
    GEOMETRIC = ["growth-fit", "--b", "0", "--a", "-0.5", "--tau", "-1",
                 "--h", "0.01", "--T", "20", "--t-start", "5",
                 "--history", "const"]

    def test_uncoupled_decay_rate(self, capsys):
        assert main(self.GEOMETRIC) == 0
        data = json.loads(capsys.readouterr().out)
        expected = -math.log(1.005) / 0.01
        assert data["omega"] == pytest.approx(expected, rel=1e-10)
        assert data["window"] == [5.0, 20.0]

    def test_char_root_reference_column(self, capsys):
        main(self.GEOMETRIC + ["--char-root"])
        data = json.loads(capsys.readouterr().out)
        assert data["omega_ref"] == pytest.approx(-0.5, abs=1e-9)

    def test_char_root_writes_nothing_to_stderr(self, capsys):
        rc = main(["growth-fit", "--a", "-1", "--b", "-10", "--tau", "-2",
                   "--T", "60", "--t-start", "20", "--char-root"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert json.loads(captured.out)["omega_ref"] == pytest.approx(0.764302267889)

    def test_char_root_needs_constant_coefficients(self, capsys):
        rc = main(self.GEOMETRIC + ["--char-root", "--a-mode", "linear"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")


class TestTimingOutput:
    def test_scalar_target_schema(self, capsys):
        rc = main(["timing", "--target", "scalar", "--h", "0.05",
                   "--T", "1", "--reps", "3"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"ie", "lt", "ratio"}
        assert data["ie"] > 0.0 and data["lt"] > 0.0 and data["ratio"] > 0.0
