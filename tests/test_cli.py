"""Command-line surface: compute, sweep, figures, audit."""

import json
import subprocess
import sys

import pytest

from shotdp.cli import main


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestComputeCommand:
    """Single budget evaluations through the CLI."""

    def test_json_output(self, capsys):
        rc = main(["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epsilon"] == pytest.approx(6.4215954, abs=1e-6)
        assert report["delta"] == 0.0
        assert report["warnings"] == []

    def test_csv_and_json_encode_identical_values(self, capsys):
        args = ["compute", "--d", "0.1", "--r", "1", "--n", "5", "--mu", "0.15", "--c", "0.3"]
        main(args + ["--format", "json"])
        as_json = json.loads(capsys.readouterr().out)
        main(args + ["--format", "csv"])
        header, (row,) = rows_of(capsys.readouterr().out)
        assert header == ["epsilon", "delta", "warnings"]
        assert float(row[0]) == as_json["epsilon"]
        assert float(row[1]) == as_json["delta"]

    def test_depolarizing_regime(self, capsys):
        rc = main([
            "compute", "--regime", "depolarizing", "--d", "0.1", "--r", "1",
            "--n", "10", "--mu", "0.15", "--p", "0.5", "--D", "2",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == pytest.approx(1.8722226, abs=1e-6)

    def test_warnings_are_never_suppressed(self, capsys):
        main(["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15", "--c", "0.3"])
        assert "RegimeInvalid" in json.loads(capsys.readouterr().out)["warnings"]

    def test_degenerate_mean_exits_two(self, capsys):
        rc = main(["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "1"])
        assert rc == 2
        assert "DegenerateMu" in capsys.readouterr().err

    def test_missing_required_parameter_exits_two(self, capsys):
        rc = main(["compute", "--d", "0.1", "--r", "1", "--n", "10"])
        assert rc == 2
        assert "BadConfig" in capsys.readouterr().err

    def test_config_file_with_inline_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 0.1, "r": 1, "n": 10, "mu": 0.5}))
        rc = main(["compute", "--config", str(cfg), "--mu", "0.15"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == pytest.approx(6.4215954, abs=1e-6)

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "gamma": 3}))
        rc = main(["compute", "--config", str(cfg)])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err

    def test_beta_is_an_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "beta": 0.997}))
        assert main(["compute", "--config", str(cfg)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_config_counts_are_validated_not_truncated(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        for n, rc in ((10.7, 2), (True, 2), (10.0, 0)):
            cfg.write_text(json.dumps({"d": 0.1, "r": 1, "n": n, "mu": 0.15}))
            assert main(["compute", "--config", str(cfg)]) == rc
        assert json.loads(capsys.readouterr().out)["inputs"]["n"] == 10

    @pytest.mark.parametrize("key", ["d", "mu", "p", "c", "delta"])
    @pytest.mark.parametrize("value", [True, "abc", [0.1]])
    def test_config_reals_are_validated_not_coerced(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "p": 0.5, "D": 2, key: value}))
        assert main(["compute", "--config", str(cfg)]) == 2
        assert "OutOfRange" in capsys.readouterr().err

    def test_integer_config_real_prints_as_float(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 0, "r": 1, "n": 10, "mu": 0.15}))
        assert main(["compute", "--config", str(cfg)]) == 0
        assert '"d": 0.0,' in capsys.readouterr().out

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["epsilon"] == pytest.approx(6.4215954, abs=1e-6)


class TestSweepCommand:
    """One-axis grids over any budget parameter."""

    def test_shot_axis(self, capsys):
        rc = main(["sweep", "--axis", "n", "--grid", "5:9:1", "--d", "0.1", "--r", "1", "--mu", "0.15"])
        assert rc == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["n", "epsilon", "delta", "warnings"]
        assert [row[0] for row in rows] == ["5", "6", "7", "8", "9"]
        eps = [float(row[1]) for row in rows]
        assert all(x < y for x, y in zip(eps, eps[1:]))

    def test_noise_axis_decreasing(self, capsys):
        rc = main([
            "sweep", "--axis", "p", "--grid", "0.2:0.8:0.2", "--regime", "depolarizing",
            "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15", "--D", "2",
        ])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        eps = [float(row[1]) for row in rows]
        assert len(eps) == 4
        assert all(x > y for x, y in zip(eps, eps[1:]))

    def test_json_rows_match_csv_rows(self, capsys):
        args = ["sweep", "--axis", "d", "--grid", "0.01:0.05:0.01", "--r", "1", "--n", "10", "--mu", "0.15"]
        main(args)
        _, rows = rows_of(capsys.readouterr().out)
        main(args + ["--format", "json"])
        records = json.loads(capsys.readouterr().out)
        assert len(records) == len(rows)
        for row, record in zip(rows, records):
            assert float(row[1]) == record["epsilon"]

    def test_missing_grid_exits_two(self, capsys):
        rc = main(["sweep", "--axis", "n", "--d", "0.1", "--r", "1", "--mu", "0.15"])
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    def test_bad_grid_step_exits_two(self, capsys):
        rc = main(["sweep", "--axis", "n", "--grid", "5:9:0", "--d", "0.1", "--r", "1", "--mu", "0.15"])
        assert rc == 2
        assert "step" in capsys.readouterr().err

    def test_axis_cannot_also_be_fixed(self, capsys):
        rc = main(["sweep", "--axis", "n", "--grid", "5:9:1", "--d", "0.1", "--r", "1", "--n", "3", "--mu", "0.15"])
        assert rc == 2
        assert "swept and fixed" in capsys.readouterr().err

    def test_unknown_axis_via_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"axis": "zeta", "grid": "1:2:1", "d": 0.1, "r": 1, "mu": 0.15}))
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "axis" in capsys.readouterr().err


class TestFiguresCommand:
    """Bundled reference sweeps."""

    def test_fig3_row_count_and_monotonicity(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figures", "--which", "fig3", "--out", str(out)]) == 0
        header, rows = rows_of(out.read_text())
        assert header == ["n", "epsilon", "warnings"]
        assert len(rows) == 96
        eps = [float(row[1]) for row in rows]
        assert all(x < y for x, y in zip(eps, eps[1:]))

    def test_fig4a_decreasing_in_noise(self, tmp_path):
        out = tmp_path / "fig4a.csv"
        assert main(["figures", "--which", "fig4a", "--out", str(out)]) == 0
        _, rows = rows_of(out.read_text())
        assert len(rows) == 91
        assert rows[0][0] == "0.05" and rows[-1][0] == "0.95"
        eps = [float(row[1]) for row in rows]
        assert all(x > y for x, y in zip(eps, eps[1:]))

    def test_fig4b_row_count(self, tmp_path):
        out = tmp_path / "fig4b.csv"
        assert main(["figures", "--which", "fig4b", "--out", str(out)]) == 0
        _, rows = rows_of(out.read_text())
        assert len(rows) == 96

    def test_fig5a_log_grid_and_flags(self, tmp_path):
        out = tmp_path / "fig5a.csv"
        assert main(["figures", "--which", "fig5a", "--out", str(out)]) == 0
        header, rows = rows_of(out.read_text())
        assert header == ["delta", "c", "epsilon", "warnings"]
        assert len(rows) == 40
        assert float(rows[0][0]) == pytest.approx(1e-4, rel=1e-9)
        assert float(rows[-1][0]) == pytest.approx(1e-1, rel=1e-9)
        cutoffs = [float(row[1]) for row in rows]
        assert all(x > y for x, y in zip(cutoffs, cutoffs[1:]))
        assert all("RegimeInvalid" in row[3] for row in rows)

    def test_fig5b_row_count(self, tmp_path):
        out = tmp_path / "fig5b.csv"
        assert main(["figures", "--which", "fig5b", "--out", str(out)]) == 0
        _, rows = rows_of(out.read_text())
        assert len(rows) == 96

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figures", "--which", "fig3", "--out", str(a)])
        main(["figures", "--which", "fig3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_grid_override(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figures", "--which", "fig3", "--out", str(out), "--grid", "5:20:5"]) == 0
        _, rows = rows_of(out.read_text())
        assert [row[0] for row in rows] == ["5", "10", "15", "20"]

    def test_missing_out_exits_two(self, capsys):
        rc = main(["figures", "--which", "fig3"])
        assert rc == 2
        assert "out" in capsys.readouterr().err


class TestAuditCommand:
    """End-to-end audits with exit-code contracts."""

    def test_default_audit_passes(self, capsys):
        rc = main(["audit", "--trials", "2000", "--seed", "42"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["derived"]["mu0"] == pytest.approx(0.25, abs=1e-12)
        assert report["derived"]["mu1"] == pytest.approx(0.15, abs=1e-12)
        assert report["dominance"]["dominated"]["endpoint_upper"] is True
        assert report["single_shot_check"]["passed"] is True

    def test_dominance_failure_exits_three(self, capsys):
        rc = main(["audit", "--n", "200", "--trials", "2000", "--seed", "3"])
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert report["dominance"]["dominated"]["endpoint_upper"] is False

    def test_nonconvex_regime_reports_without_gating(self, capsys):
        rc = main(["audit", "--state", "diag:0.85,0.15", "--trials", "2000", "--seed", "7"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "NonConvexRegime" in report["dominance"]["flags"]

    def test_identical_states_trivially_dominated(self, capsys):
        rc = main(["audit", "--d", "0", "--trials", "2000", "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dominance"]["exact_epsilon"] == 0.0

    def test_depolarizing_audit(self, capsys):
        rc = main(["audit", "--p", "0.5", "--trials", "2000", "--seed", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["regime"] == "depolarizing"
        assert report["dominance"]["dominated"]["endpoint_upper"] is True

    def test_reruns_are_byte_identical(self, capsys):
        main(["audit", "--trials", "2000", "--seed", "42"])
        first = capsys.readouterr().out
        main(["audit", "--trials", "2000", "--seed", "42"])
        assert capsys.readouterr().out == first

    def test_csv_format_rejected(self, capsys):
        rc = main(["audit", "--trials", "2000", "--format", "csv"])
        assert rc == 2
        assert "json" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["d", "p"])
    @pytest.mark.parametrize("value", [True, "abc"])
    def test_config_reals_are_validated_not_coerced(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value, "trials": 2000}))
        assert main(["audit", "--config", str(cfg)]) == 2
        assert "OutOfRange" in capsys.readouterr().err

    def test_degenerate_construction_exits_two(self, capsys):
        rc = main(["audit", "--state", "basis:0", "--trials", "2000"])
        assert rc == 2
        assert "DegenerateMu" in capsys.readouterr().err


class TestConsoleEntryPoint:
    """The installed script wires through to main()."""

    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shotdp.cli", "compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["epsilon"] == pytest.approx(6.4215954, abs=1e-6)
