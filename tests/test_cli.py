"""Command-line surface: compute, sweep, figures, audit."""

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shotdp import (
    BadConfigError, BudgetInputs, DeltaOutOfRangeError, c_from_delta, cli, epsilon_delta_depolarizing,
    epsilon_delta_noiseless, epsilon_depolarizing, epsilon_noiseless, monte_carlo_audit, states,
)
from shotdp.cli import (
    _BLOCK, _FIGURES, GRID_AXES, MAX_GRID_POINTS, RunConfig, _fmt, _grid_values, _json_text, _parse_grid,
    _table_text, main, run_audit, run_figures, run_sweep,
)


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
    @pytest.mark.parametrize("value", [True, "abc", [0.1], 10**400])
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

    @pytest.mark.parametrize("axis, grid", [
        ("delta", "1e-4:inf:1e-4"), ("n", "1:inf:1"), ("p", "nan:1:0.1"), ("d", "0:0.5:inf"), ("mu", "-inf:0.5:0.1"),
    ])
    def test_non_finite_grid_exits_two(self, axis, grid, capsys):
        # Checked before any point is made: an infinite stop would otherwise make the sweep run forever.
        with pytest.raises(BadConfigError, match="finite"):
            _grid_values(*_parse_grid(grid), integer=axis == "n")
        point = {"d": "0.1", "r": "1", "n": "10", "mu": "0.15"}
        point.pop(axis, None)
        flags = [arg for key, value in point.items() for arg in (f"--{key}", value)]
        assert main(["sweep", "--axis", axis, f"--grid={grid}", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("axis, grid, error", [
        ("c", (1.0, 2.0, 0.0), "step must be positive"),
        ("c", (1.0, 2.0, -1.0), "step must be positive"),
        ("c", (0.0, math.nan, 1.0), "finite"),
        ("n", (0.0, math.nan, 1.0), "finite"),
        ("n", (0.0, math.inf, 1.0), "finite"),
        ("n", (5.0, 1.0, 1.0), "below start"),
    ])
    def test_library_grid_is_checked(self, axis, grid, error):
        """A grid given as `RunConfig.grid` or to `run_figures` is checked as
        one given by flag: every grid that is not finite, steps backward or
        not at all, or stops below its start is a BadConfigError, never an
        empty table."""
        params = {"axis": axis, "d": 0.01, "r": 1, "n": 10, "mu": 0.15}
        params.pop(axis, None)
        with pytest.raises(BadConfigError, match=error):
            run_sweep(RunConfig(command="sweep", params=params, grid=grid))
        with pytest.raises(BadConfigError, match=error):
            run_figures("fig3" if axis == "n" else "fig4a", None, grid)

    @pytest.mark.parametrize("axis, grid", [("n", "1:1e300:1"), ("n", "1:1e10:1"), ("d", "0:1:1e-12")])
    def test_oversized_grid_exits_two_promptly(self, axis, grid, capsys):
        """The points are counted before any is made, so a grid of 1e10 or
        more points is rejected at once, with a one-line error."""
        point = {"d": "0.01", "r": "1", "n": "10", "mu": "0.15"}
        point.pop(axis)
        flags = [arg for key, value in point.items() for arg in (f"--{key}", value)]
        began = time.perf_counter()
        assert main(["sweep", "--axis", axis, "--grid", grid, *flags]) == 2
        assert time.perf_counter() - began < 5.0
        start, stop, step = _parse_grid(grid)
        want = f"error: BadConfigError: BadConfig: grid {start}:{stop}:{step} has more than {MAX_GRID_POINTS} points\n"
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("integer", [True, False])
    def test_grid_cap_is_inclusive(self, integer):
        assert len(_grid_values(1.0, float(MAX_GRID_POINTS), 1.0, integer)) == MAX_GRID_POINTS
        with pytest.raises(BadConfigError, match="more than"):
            _grid_values(0.0, float(MAX_GRID_POINTS), 1.0, integer)

    def test_integer_grid_is_a_range(self):
        assert _grid_values(5.0, 9.0, 2.0, True) == range(5, 10, 2)

    @given(st.floats(-1e3, 1e3), st.floats(0.0, 1e3), st.floats(1e-2, 1e3))
    @example(0.01, 0.04, 0.01)
    @example(0.2, 0.4000000000000001, 0.2)
    @example(1e20, 0.0, 1.0)  # 1e20 + i rounds to 1e20 up to i = 8192
    @example(1.0, 0.0, 1e-17)
    def test_float_grid_matches_the_stepping_rule(self, start, width, step):
        """start + i step for each i from 0 while that is <= stop + step 1e-9,
        less each value that repeats its predecessor."""
        stop = start + width
        want, i = [], 0
        while (v := start + i * step) <= stop + step * 1e-9:
            if not want or v != want[-1]:
                want.append(v)
            i += 1
        assert _grid_values(start, stop, step, False) == want

    def test_float_grid_points_are_distinct(self, capsys):
        """A step below half a unit in the last place of the start gives one
        point, not copies of it."""
        assert _grid_values(1e20, 1e20, 1.0, False) == [1e20]
        assert main(["sweep", "--axis", "c", "--grid", "1:1:1e-17", "--d", "0.01", "--r", "1", "--n", "10", "--mu", "0.15"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2 and rows[1].startswith("1,")

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


# Dyadic grids, so the printed axis value is the swept value.
_AXIS_GRIDS = {
    "n": "5:8:1",
    "p": "0.25:0.75:0.25",
    "c": "0.0625:0.25:0.0625",
    "delta": "0.0009765625:0.00390625:0.0009765625",
    "d": "0.0078125:0.03125:0.0078125",
    "mu": "0.125:0.375:0.125",
}
_SWEEP_CASES = [
    (axis, regime, tail)
    for axis in _AXIS_GRIDS
    for regime in ("noiseless", "depolarizing")
    for tail in ((axis,) if axis in ("c", "delta") else (None, "c", "delta"))
    if axis != "p" or regime == "depolarizing"
]


def _fixed_flags(axis, regime, tail):
    """The fixed parameters of a sweep case, as flag values, less the axis."""
    fixed = {"d": "0.01", "r": "1", "n": "10", "mu": "0.15", "regime": regime}
    if regime == "depolarizing":
        fixed.update(p="0.5", D="2")
    if tail is not None:
        fixed[tail] = {"c": "0.05", "delta": "0.01"}[tail]
    fixed.pop(axis)
    return fixed


def _domain_grid(axis):
    """A sweep case on `axis` with a grid start, step and point count that
    may lie outside the axis field's domain, at either end or both."""
    cases = st.sampled_from([case for case in _SWEEP_CASES if case[0] == axis])
    if axis == "n":
        return st.tuples(cases, st.integers(-2, 10**4), st.integers(1, 5000), st.integers(1, 5))
    return st.tuples(cases, st.floats(-0.25, 1.0), st.floats(1 / 64, 0.5), st.integers(1, 5))


def _run(argv):
    """`main`'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestSweepAgreesWithCompute:
    """A sweep row is the compute row at that point, and axis values are validated."""

    def test_every_axis_is_covered(self):
        assert sorted(_AXIS_GRIDS) == sorted(GRID_AXES)

    @pytest.mark.parametrize("axis, regime, tail", _SWEEP_CASES)
    def test_sweep_row_equals_compute_row(self, axis, regime, tail, capsys):
        flags = [arg for key, value in _fixed_flags(axis, regime, tail).items() for arg in (f"--{key}", value)]
        assert main(["sweep", "--axis", axis, "--grid", _AXIS_GRIDS[axis], *flags]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        start, stop, step = (float(part) for part in _AXIS_GRIDS[axis].split(":"))
        assert len(rows) == (stop - start) / step + 1
        for i, row in enumerate(rows):
            assert float(row[0]) == start + i * step
            assert main(["compute", *flags, f"--{axis}", row[0], "--format", "csv"]) == 0
            _, (point,) = rows_of(capsys.readouterr().out)
            assert row[1:] == point

    @pytest.mark.parametrize("axis, grid, extra, error, named", [
        ("mu", "0.5:1.0:0.25", ["--n", "10"], "DegenerateMuError", "mu=1.0 "),
        # Leaves the domain at 1.0, in the middle; the grid is checked at its ends, so the stop is named.
        ("mu", "0.5:1.5:0.25", ["--n", "10"], "OutOfRangeError", "mu=1.5 "),
        ("p", "0:0.5:0.25", ["--n", "10", "--regime", "depolarizing", "--D", "2"], "ZeroNoiseError", "probability 0 "),
        ("d", "0.5:1.5:0.5", ["--n", "10"], "OutOfRangeError", "d=1.5 "),
        # Above the supremum that sigma sets, which the kernel checks at each point.
        ("delta", "0.1:0.5:0.2", ["--n", "10"], "DeltaOutOfRangeError", "delta=0.30000000000000004 "),
    ])
    def test_axis_leaving_the_domain_exits_two(self, axis, grid, extra, error, named, capsys):
        point = {"d": "0.01", "r": "1", "mu": "0.15"}
        point.pop(axis, None)
        flags = [arg for key, value in point.items() for arg in (f"--{key}", value)]
        assert main(["sweep", "--axis", axis, "--grid", grid, *flags, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {error}: " in captured.err
        assert named in captured.err

    @settings(max_examples=200)
    @given(st.sampled_from(GRID_AXES).flatmap(_domain_grid))
    @example((("mu", "noiseless", None), 0.5, 0.25, 5))  # across mu = 1 in the middle
    @example((("p", "depolarizing", "delta"), 0.0, 0.25, 3))  # from p = 0
    @example((("d", "depolarizing", "c"), 0.5, 0.5, 3))  # past d = 1
    @example((("n", "noiseless", None), 0, 1, 3))  # from n = 0
    @example((("n", "noiseless", "delta"), 6000, 2000, 3))  # delta = 0.01 leaves its supremum near n = 8000
    @example((("delta", "noiseless", "delta"), 0.1, 0.2, 3))  # above the supremum at n = 10
    def test_sweep_exits_zero_exactly_when_every_point_computes(self, drawn):
        """A grid that may leave the axis field's domain at its start, in its
        middle or at its stop: the sweep succeeds exactly when `compute`
        succeeds at every point, and then each row is that point's row;
        otherwise it exits 2 and writes nothing to stdout."""
        (axis, regime, tail), start, step, points = drawn
        stop = start + (points - 1) * step
        flags = [arg for key, value in _fixed_flags(axis, regime, tail).items() for arg in (f"--{key}", value)]
        code, out = _run(["sweep", "--axis", axis, f"--grid={start!r}:{stop!r}:{step!r}", *flags])
        computed = []
        for v in _grid_values(start, stop, step, integer=axis == "n"):
            point_code, point_out = _run(["compute", *flags, f"--{axis}={v!r}", "--format", "csv"])
            assert point_code in (0, 2)
            if point_code:
                assert (code, out) == (2, "")
                return
            computed.append([_fmt(v), *rows_of(point_out)[1][0]])
        assert code == 0
        assert rows_of(out)[1] == computed


_BUDGETS = {
    ("noiseless", False): epsilon_noiseless, ("depolarizing", False): epsilon_depolarizing,
    ("noiseless", True): epsilon_delta_noiseless, ("depolarizing", True): epsilon_delta_depolarizing,
}
_TAIL_PARAMS = {"d": 0.01, "r": 1, "n": 10, "mu": 0.15}
_DEPOLARIZING = {"regime": "depolarizing", "p": 0.5, "D": 2}
# n d r = 0.85 = 1 - mu in decimal; the exact factors put the pole 1.2e-17 below zero.
_POLE_PARAMS = {"d": 0.001, "r": 1, "n": 850, "mu": 0.15}
# axis, fixed parameters, the first and last axis values: every axis; a constant -0.0 epsilon column (d = -0
# at mu < 1/2), and one that mixes 0.0 and -0.0 (d = -0 at n = 1, where the bracket turns negative past
# mu = 2/3). The flags change mid-table on the c axis (DeltaUnderflow), the mu axis (RegimeNegativeTerm) and
# the n axis at mu = 0.95, where epsilon is negative, so Divergent, up to n = 6. The pure n-sweeps take the
# coefficients once per sweep, in either regime.
_NEGATIVE_ZERO_CASE = ("n", {"d": -0.0, "r": 1, "mu": 0.15}, None)
_MIXED_ZEROS_CASE = ("mu", {"d": -0.0, "r": 1, "n": 1}, (0.05, 0.95))
_NEGATIVE_EPSILON_CASE = ("n", {"d": 1e-3, "r": 1, "mu": 0.95}, None)
_DELTA_PASSES_ONE_CASE = ("delta", {"d": 0.01, "r": 1, "n": 1, "mu": 0.5, "convention": "paper"}, (1e-4, 1.25))
_POLE_CASES = [("c", _POLE_PARAMS, (1e-3, 0.4)), ("delta", _POLE_PARAMS, (1e-4, 0.03))]
# Epsilon overflows to inf near n = 1.694e307 (Divergent). The ends are multiples of 2^980 a multiple of 4094,
# 4095, 4096 and 8192 steps apart, so that every grid of those sizes between them has exactly its number of points.
_OVERFLOW_CASE = ("n", {"d": 1.0, "r": 1, "mu": 0.15}, (math.ldexp(1565756531257, 980), math.ldexp(1703094837817, 980)))
_BLOCK_CASES = [
    ("n", {"d": 0.01, "r": 1, "mu": 0.15}, None),
    _NEGATIVE_ZERO_CASE,
    ("n", {"d": 0.1, "r": 1, "mu": 0.15, "regime": "depolarizing", "p": 0.5, "D": 2}, None),
    _NEGATIVE_EPSILON_CASE,
    ("p", {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "regime": "depolarizing", "D": 2}, (0.05, 0.95)),
    ("c", _TAIL_PARAMS, (0.01, 5.0)),
    ("delta", _TAIL_PARAMS, (1e-4, 0.28)),
    ("d", {"r": 1, "n": 10, "mu": 0.15}, (0.0, 1.0)),
    _MIXED_ZEROS_CASE,
    # The c and delta sweeps that take the tail coefficients once: under depolarizing noise in both conventions;
    # at n = 1 and mu = 1/2, where sigma = 1/2 and the paper convention's delta passes 1 (DeltaExceedsOne) on the
    # way to its supremum, 1.2533; and at the pole point, where RegimeInvalid reads the exact factors' sign.
    *(("c", {**_TAIL_PARAMS, **_DEPOLARIZING, "convention": convention}, (0.01, 5.0)) for convention in ("paper", "normalized")),
    ("delta", {**_TAIL_PARAMS, **_DEPOLARIZING, "convention": "paper"}, (1e-4, 0.28)),
    ("delta", {**_TAIL_PARAMS, **_DEPOLARIZING, "convention": "normalized"}, (1e-4, 0.99)),
    _DELTA_PASSES_ONE_CASE,
    *_POLE_CASES,
    _OVERFLOW_CASE,
]


def _block_grid(ends, points):
    """A grid of exactly `points` values: 1..points on n, else from one end to the other."""
    if ends is None:
        return 1.0, float(points), 1.0
    step = (ends[1] - ends[0]) / (points - 1)
    return ends[0], ends[0] + (points - 1) * step, step


def _reference_sweep(axis, fixed, values, fmt):
    """A sweep written row by row, each point by the public budget function: in CSV each int
    in exact decimal, each float as `_fmt` prints it, and the flags joined by semicolons; in
    JSON the standard library's encoder on the row dicts, the kernel's delta last."""
    regime = fixed.get("regime", "noiseless")
    budget = _BUDGETS[regime, axis in ("c", "delta") or "c" in fixed or "delta" in fixed]
    fields = {k: v for k, v in fixed.items() if k not in ("regime", "convention")}
    convention = {"convention": fixed["convention"]} if "convention" in fixed else {}
    rows = []
    for v in values:
        report = budget(BudgetInputs(**fields, **{axis: v}), **convention)
        rows.append((v, report.epsilon, report.delta, report.warnings))
    if fmt == "json":
        return reference_json_text([{axis: v, "epsilon": eps, "delta": delta, "warnings": flags}
                                    for v, eps, delta, flags in rows])
    lines = [",".join((axis, "epsilon", "delta", "warnings"))]
    lines += [f"{_csv_cell(v)},{_fmt(eps)},{_fmt(delta)},{';'.join(flags)}" for v, eps, delta, flags in rows]
    return "\n".join(lines) + "\n"


class TestSweepBlocks:
    """A sweep maps its kernel and texts its table one block of `_BLOCK` points at a time; the
    text is the one a per-row writer gives, and a failing point in any block writes nothing."""

    @pytest.mark.parametrize("points", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("axis, fixed, ends", _BLOCK_CASES)
    def test_sweep_equals_the_per_row_writer(self, axis, fixed, ends, points):
        grid = _block_grid(ends, points)
        values = _grid_values(*grid, integer=axis == "n")
        assert len(values) == points
        for fmt in ("csv", "json"):
            cfg = RunConfig("sweep", params={**fixed, "axis": axis}, grid=grid, format=fmt)
            # Compared as lines, so that a failure reports the first differing line, not a diff of the whole text.
            assert run_sweep(cfg).split("\n") == _reference_sweep(axis, fixed, values, fmt).split("\n")

    def test_zero_columns_keep_their_signs(self):
        """The reference itself sees both zero signs in the cases that claim them."""
        for (axis, fixed, ends), signs in ((_NEGATIVE_ZERO_CASE, {"-0"}), (_MIXED_ZEROS_CASE, {"0", "-0"})):
            text = _reference_sweep(axis, fixed, _grid_values(*_block_grid(ends, _BLOCK + 1), axis == "n"), "csv")
            assert {row[1] for row in rows_of(text)[1]} == signs

    def test_flags_change_inside_the_n_grid(self):
        """The reference itself flags the first six shot counts Divergent at mu = 0.95, and no later one."""
        axis, fixed, ends = _NEGATIVE_EPSILON_CASE
        rows = rows_of(_reference_sweep(axis, fixed, _grid_values(*_block_grid(ends, _BLOCK + 1), True), "csv"))[1]
        assert [row[3] for row in rows[:7]] == ["RegimeNegativeTerm;Divergent"] * 6 + ["RegimeNegativeTerm"]
        assert {row[3] for row in rows[6:]} == {"RegimeNegativeTerm"}

    def test_rules_fire_where_the_cases_claim(self):
        """The reference itself: on 2 `_BLOCK` + 1 points, delta first passes 1, and epsilon first
        overflows, inside the second block; at the pole point every row is RegimeInvalid alone."""
        for (axis, fixed, ends), flag in ((_DELTA_PASSES_ONE_CASE, "DeltaExceedsOne"), (_OVERFLOW_CASE, "Divergent")):
            text = _reference_sweep(axis, fixed, _grid_values(*_block_grid(ends, 2 * _BLOCK + 1), axis == "n"), "csv")
            assert _BLOCK < [row[3] for row in rows_of(text)[1]].index(flag) < 2 * _BLOCK
        for axis, fixed, ends in _POLE_CASES:
            text = _reference_sweep(axis, fixed, _grid_values(*_block_grid(ends, _BLOCK + 1), False), "csv")
            assert {row[3] for row in rows_of(text)[1]} == {"RegimeInvalid"}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failure_in_a_later_block_writes_nothing(self, fmt, tmp_path, capsys):
        """A delta grid that first passes its supremum, about 0.283 at n = 10 and mu = 0.15, inside
        the second block: the error names that point, and neither stdout nor --out gets any text."""
        step = 6e-5
        values = _grid_values(step, 3 * _BLOCK * step, step, integer=False)
        first = next(i for i, v in enumerate(values) if v >= math.sqrt(2 * math.pi * 0.15 * 0.85 / 10))
        assert _BLOCK < first < 2 * _BLOCK
        with pytest.raises(DeltaOutOfRangeError):
            c_from_delta(values[first], 0.15, 10)
        assert c_from_delta(values[first - 1], 0.15, 10) > 0.0
        out = tmp_path / f"sweep.{fmt}"
        grid = f"{step!r}:{values[-1]!r}:{step!r}"
        flags = ["--d", "0.01", "--r", "1", "--n", "10", "--mu", "0.15", "--format", fmt]
        assert main(["sweep", "--axis", "delta", "--grid", grid, *flags]) == 2
        assert main(["sweep", "--axis", "delta", "--grid", grid, *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count(f"error: DeltaOutOfRangeError: DeltaOutOfRange: delta={values[first]} ") == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_traced_peak_is_at_most_three_times_the_text(self, fmt):
        """A 1e5-point sweep holds one block of kernel results and cell texts at a time, so its
        traced peak stays within three times the text it returns."""
        cfg = RunConfig("sweep", params={"axis": "n", "d": 0.01, "r": 1, "mu": 0.15}, grid=(1.0, 1e5, 1.0), format=fmt)
        tracemalloc.start()
        try:
            text = run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == (1e5 + 1 if fmt == "csv" else 6e5 + 2)
        assert peak <= 3 * len(text)


class TestRunConfig:
    """The run record, built by keyword as the library's callers and the
    benchmark build it; unset fields take their defaults."""

    @pytest.mark.parametrize("command, fields", [
        ("sweep", {"params": {"axis": "n", "d": 0.01, "r": 1, "mu": 0.15}, "grid": (1, 100, 1), "format": "json"}),
        ("sweep", {"params": {"axis": "n", "d": 0.01, "r": 1, "mu": 0.15}, "grid": (1, 100, 1)}),
        ("audit", {"params": {"n": 5000, "d": 0.01}, "seed": 7}),
        ("audit", {"params": {"trials": 50000}, "seed": 42}),
        ("compute", {"params": {"d": 0.1}, "grid": None, "seed": 0, "output_path": "out.json", "format": "csv"}),
        ("figures", {}),
    ])
    def test_keyword_construction_and_defaults(self, command, fields):
        expected = {"command": command, "params": {}, "grid": None, "seed": 42, "output_path": None, "format": None,
                    **fields}
        for cfg in (RunConfig(command, **fields), RunConfig(command=command, **fields)):
            assert {name: getattr(cfg, name) for name in expected} == expected

    def test_default_seed_is_the_command_lines(self, capsys):
        """A record without a seed audits as `main` does without --seed."""
        text, code = run_audit(RunConfig("audit", params={"trials": 1000}))
        assert main(["audit", "--trials", "1000"]) == code
        assert capsys.readouterr().out == text


class TestStrictKeys:
    """Each command accepts only its own keys, as flags and in config files."""

    @pytest.mark.parametrize("argv", [
        ["audit", "--mu", "0.3"],
        ["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15", "--trials", "5"],
        ["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15", "--grid", "1:2:1"],
        ["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15", "--seed", "3"],
        ["figures", "--which", "fig3", "--out", "fig3.csv", "--format", "json"],
    ])
    def test_foreign_flag_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert argv[-2] in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["compute", "--help"]) == 0
        assert "--delta" in capsys.readouterr().out

    @pytest.mark.parametrize("command, config, named", [
        ("audit", {"trials": 2000, "regime": "depolarizing"}, ["regime"]),
        ("audit", {"trials": 2000, "mu": "abc", "c": True}, ["c", "mu"]),
        ("compute", {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "seed": 3}, ["seed"]),
        ("figures", {"which": "fig3", "d": 0.2}, ["d"]),
    ])
    def test_foreign_config_key_exits_two(self, command, config, named, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert all(repr(key) in err for key in named)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, named", [
        ("sweep", {"grid": 5, "axis": "n", "d": 0.1, "r": 1, "mu": 0.15}, "grid"),
        ("sweep", {"grid": "1:3:1", "axis": ["n"], "d": 0.1, "r": 1, "mu": 0.15}, "axis"),
        ("figures", {"which": ["fig3"], "out": "fig3.csv"}, "which"),
        ("figures", {"which": "fig9", "out": "fig9.csv"}, "which"),
        ("figures", {"which": "fig3", "out": 1}, "out"),
        ("compute", {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "regime": "noisy"}, "regime"),
        ("compute", {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "c": 0.3, "convention": 1}, "convention"),
        ("compute", {"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "format": "xml"}, "format"),
    ])
    def test_mistyped_config_value_exits_two(self, command, config, named, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"configuration key {named!r}" in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.json"]

    def test_null_config_values_are_unset(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 0.1, "r": 1, "n": 10, "mu": 0.15, "regime": None, "format": None, "out": None}))
        assert main(["compute", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == pytest.approx(6.4215954, abs=1e-6)

    def test_null_config_seed_is_the_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": None, "trials": 1000}))
        assert main(["audit", "--config", str(cfg)]) == 0
        by_null = capsys.readouterr().out
        assert json.loads(by_null)["config"]["seed"] == 42
        assert main(["audit", "--trials", "1000", "--seed", "42"]) == 0
        assert capsys.readouterr().out == by_null


@pytest.mark.parametrize("flag, named", [("--r", "rank r"), ("--n", "shots n"), ("--D", "dimension D")])
def test_count_beyond_the_largest_double_exits_two(flag, named, capsys):
    argv = ["compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15", "--regime", "depolarizing", "--p", "0.5",
            "--D", "2", flag, "1" + "0" * 400]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"OutOfRange: {named} exceeds the largest double" in captured.err


def _csv_cell(x) -> str:
    """A CSV number: an int as exact decimal text, a float as `_fmt` prints it."""
    return str(x) if isinstance(x, int) else _fmt(x)


def test_csv_rows_print_every_number_as_fmt():
    """Floats print as `_fmt` does and ints as exact decimals, cell by cell, in a column that mixes them too."""
    cells = [5, 2**60 + 1, 12345678901, 0.1, 1e-300, 5e-324, 2.0 / 3.0, -0.0, float("inf"), float("-inf"), float("nan")]
    flag_sets = [(), ("Divergent", "RegimeInvalid")]
    rows = [(x, x / 3 if isinstance(x, int) else x, flag_sets[i % 2]) for i, x in enumerate(cells)]
    expected = ["n,epsilon,warnings", *(f"{_csv_cell(a)},{_fmt(b)},{';'.join(flags)}" for a, b, flags in rows)]
    assert expected[2:4] == ["1152921504606846977,3.843071682e+17,Divergent;RegimeInvalid", "12345678901,4115226300,"]
    assert _table_text(["n", "epsilon", "warnings"], [list(zip(*rows))], "csv") == "\n".join(expected) + "\n"
    # Ints, then integral floats, which `%d` would print as 1152921504606846976, 0 and 10000000000.
    mixed = [3, 2**53 + 1, 2.0**60, -0.0, 1e10, -7]
    assert _table_text(["x"], [[mixed]], "csv") == "x\n3\n9007199254740993\n1.152921505e+18\n-0\n1e+10\n-7\n"


def _jsonify(obj):
    """The report-to-primitives copy that JSON output was once built from:
    string keys, lists for tuples, floats rounded through `.10g`."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        rounded = float(f"{float(obj):.10g}")
        # A finite value that the rounding carries to +-inf is written as the largest double rounded down.
        return math.copysign(1.797693134e308, rounded) if math.isinf(rounded) and math.isfinite(obj) else rounded
    return obj


def reference_json_text(obj) -> str:
    """The oracle for `_json_text`: the standard library's encoder on the rounded copy."""
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e10, 9999999999.5,
                1e16 - 2.0, 123456789012345.6, 3.0, -7.0, 2.0**53, 1e-5, 9.99999999995e-5, 0.1, 1e300,
                1.7976931345e308, -1.7976931348623157e308]
_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e10, max_value=1e16, exclude_max=True),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.integers(min_value=-2**60, max_value=2**60).map(float),
)
_ints = st.one_of(st.integers(min_value=-20, max_value=20), st.integers(min_value=-2**200, max_value=2**200))
_strings = st.text(st.one_of(st.sampled_from('"\\/\x00\x01\x1f\x7f\b\f\n\r\té\u2028\U0001f600'), st.characters()))
_scalars = st.one_of(_floats, _ints, st.booleans(), st.none(), _strings)
_keys = st.one_of(_strings, _ints, st.booleans(), st.none(), _floats)


def _tables(cells):
    """Lists of dicts that share their keys in order, like sweep rows; keys may collide as text."""
    return st.lists(_keys, min_size=1, max_size=4).flatmap(
        lambda keys: st.lists(st.lists(cells, min_size=len(keys), max_size=len(keys)), max_size=5).map(
            lambda rows: [dict(zip(keys, row)) for row in rows]))


# Long runs from a small pool, as in the outcome arrays, where equal values share one text: both zero
# signs, and values whose `.10g` text is not the repr of the rounded value, recur within one list.
_POOL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 1e-300, 1.0000000001e-300, 1e10, 123456789012345.6, 9999999999999998.0,
                3.0, -7.0, 2.0**53, 1.7976931345e308, -1.7976931348623157e308, 0.15, 1e-5, 1e16, 1.5e-7]
_pooled_runs = st.lists(st.sampled_from(_POOL_FLOATS), min_size=20, max_size=60)

# Report-like nesting: dicts of arrays and of dicts, tables, runs of one type (the fast paths) and mixes.
_reports = st.recursive(
    st.one_of(_scalars, *(st.lists(leaf, max_size=8) for leaf in (_floats, _ints, _scalars)), _tables(_scalars)),
    lambda inner: st.one_of(st.lists(inner, max_size=8), st.lists(inner, max_size=8).map(tuple),
                            st.dictionaries(_keys, inner, max_size=8), _tables(inner)),
    max_leaves=12,
)


@pytest.mark.parametrize("x", [sys.float_info.max, -sys.float_info.max, 1.7976931345e308, 1.7976931344e308])
def test_overflowing_10g_text_prints_the_largest_double_rounded_down(x):
    """`.10g` carries finite values from 1.7976931345e308 up to inf; both writers print them finite."""
    text = "-1.797693134e+308" if x < 0 else "1.797693134e+308"
    assert _json_text(x) == f"{text}\n"
    assert _json_text({"a": [x, x]}) == f'{{\n  "a": [\n    {text},\n    {text}\n  ]\n}}\n'
    assert _table_text(["x", "w"], [[(x,), ((),)]], "csv") == f"x,w\n{text},\n"
    assert float(text) == pytest.approx(x, rel=5e-10)


_FLAGS = ("Divergent", "RegimeInvalid", "RegimeNegativeTerm", "DeltaExceedsOne", "DeltaUnderflow")
_flag_tuples = st.lists(st.sampled_from(_FLAGS), max_size=3).map(tuple)
# Header names: the sweep's own, which repeat in a delta sweep, and any text, braces and quotes included.
_names = st.one_of(st.sampled_from((*GRID_AXES, "epsilon", "warnings")), _strings)


@st.composite
def _column_tables(draw, kinds, last_kinds):
    """A header and its columns, of one drawn length, as lists or tuples: each column holds one of
    `kinds`, the last one of `last_kinds`."""
    header = draw(st.lists(_names, min_size=1, max_size=5))
    rows = draw(st.integers(0, 6))
    columns = []
    for i in range(len(header)):
        cells = draw(st.sampled_from(last_kinds if i == len(header) - 1 else kinds))
        column = draw(st.lists(cells, min_size=rows, max_size=rows))
        columns.append(draw(st.sampled_from((column, tuple(column)))))
    return header, columns


# Flag text that a `%`-format template would read as conversions, were it not escaped.
_PERCENT_FLAGS = ("50%", "%d", "%s%%")


def _row_blocks(columns):
    """The table in blocks of one row each, which the writers must join to the text of one block."""
    return [[column[i:i + 1] for column in columns] for i in range(len(columns[0]))]


class TestTableWriters:
    """`_table_text` writes a table handed over as blocks of columns, whole or a row at a time."""

    @settings(max_examples=150)
    @given(_column_tables((_ints, _floats, _flag_tuples), (_ints, _floats, _flag_tuples)))
    @example((["delta", "epsilon", "delta", "warnings"],
              ([1e-3, 0.1], [2.5, math.inf], [2e-3, 0.2], [(), ("Divergent",)])))
    @example((["n", "epsilon", "warnings"], (range(5, 8), (0.0, -0.0, 0.0), ((), (), ()))))
    @example((["{x}", "a\"}"], ([math.nan, math.inf, -math.inf, 1.7976931345e308], [-0.0, 0.0, -0.0, 0.0])))
    @example((["n", "warnings"], ((), ())))
    # A `%` in header names, which the row template holds as key text.
    @example((["50%", "%d", "%s%%", "warnings"], ([1, 2, 3], [0.5, 0.25, 0.125], [0.0] * 3, [(), (), ()])))
    # A `%` in flag text, repeated (one object, baked into the row template) and varying.
    @example((["x", "warnings"], ([1.0, 2.0, 3.0], [_PERCENT_FLAGS] * 3)))
    @example((["x", "warnings"], ([1.0, 2.0, 3.0], [_PERCENT_FLAGS, ("%",), ("100%", "%%")])))
    # A range of ints, and a float column of one nan or one -0.0 repeated.
    @example((["n", "epsilon", "delta", "warnings"], (range(5, 8), [math.nan] * 3, [-0.0] * 3, [()] * 3)))
    # One row, where every column is one object and the template takes no argument.
    @example((["n", "epsilon", "delta", "warnings"], ([10], [6.4215954], [0.0], [("Divergent",)])))
    def test_json_table_writes_the_row_dicts(self, table):
        """The JSON of the row dicts `dict(zip(header, row))`, so a repeated name keeps its last column."""
        header, columns = table
        expected = reference_json_text([dict(zip(header, row)) for row in zip(*columns)])
        assert _table_text(header, [columns], "json") == expected
        assert _table_text(header, _row_blocks(columns), "json") == expected

    @settings(max_examples=150)
    @given(_column_tables((_ints, _floats), (_flag_tuples,)))
    @example((["x", "y", "w"], ([1.7976931345e308, -sys.float_info.max], [5, 2**60 + 1], [(), ("Divergent",)])))
    @example((["delta", "epsilon", "delta", "warnings"],
              ([1e-3], [math.nan], [1e-3], [("DeltaExceedsOne", "Divergent")])))
    @example((["warnings"], [[(), ("Divergent",)]]))
    # A `%` in flag text, repeated (one object, baked into the row template) and varying.
    @example((["x", "warnings"], ([1.0, 2.0, 3.0], [_PERCENT_FLAGS] * 3)))
    @example((["x", "warnings"], ([1.0, 2.0, 3.0], [_PERCENT_FLAGS, ("%",), ("100%", "%%")])))
    # A range of ints, and a float column of one nan or one -0.0 repeated.
    @example((["n", "epsilon", "delta", "warnings"], (range(5, 8), [math.nan] * 3, [-0.0] * 3, [()] * 3)))
    def test_csv_text_writes_each_row_in_fmt(self, table):
        """Row by row, each int in exact decimal and each float as `_fmt` prints it, where a finite
        float whose text rounds to inf prints as the largest double rounded down, then the flags
        joined by semicolons."""
        header, columns = table

        def cell(x):
            text = _csv_cell(x)
            return _fmt(math.copysign(1.797693134e308, x)) if math.isinf(float(text)) and math.isfinite(x) else text

        rows = zip(*columns)
        expected = "\n".join([",".join(header), *(",".join([*map(cell, row[:-1]), ";".join(row[-1])]) for row in rows)])
        assert _table_text(header, [columns], "csv") == expected + "\n"
        assert _table_text(header, _row_blocks(columns), "csv") == expected + "\n"


class TestJsonText:
    """`_json_text` writes exactly what the standard library's encoder writes."""

    @settings(max_examples=150)
    @given(_reports)
    @example({10: 1.0, 9: 2, "10": "later key wins", 1: [], "": {}})
    @example({"a": [1.0, math.nan, math.inf, -math.inf, -0.0], "b": (True, False, None, 2**80)})
    @example([1.7976931345e308, -1.7976931348623157e308, 1.0])  # finite values that round to +-inf
    @example([{"{a}": 1.0, "b}": [2, {}], 1: None, "1": "x"}, {"{a}": math.nan, "b}": [], 1: True, "1": "y"}])
    @example([{"a": 1.0, "b": 2}, {"b": 2, "a": 1.0}])  # the same keys in another order
    def test_matches_standard_library_encoder(self, obj):
        assert _json_text(obj) == reference_json_text(obj)

    @settings(max_examples=150)
    @given(_pooled_runs)
    @example([0.0, -0.0])
    @example([-0.0, 0.0])
    @example([0.0] * 5 + [-0.0])
    @example([math.nan] * 4 + [0.15])  # one nan object, repeated: one dict key
    @example([float("nan"), float("nan"), 1.0])  # two nan objects: two keys
    @example([5e-324] * 3 + [0.0])
    def test_repeated_values_match_standard_library_encoder(self, values):
        for obj in (values, {"k": values}):
            assert _json_text(obj) == reference_json_text(obj)

    def test_zero_heavy_audit_payload_matches_standard_library_encoder(self):
        """Outcome arrays at n = 5000, most of whose entries are 0.0."""
        payload = monte_carlo_audit(0.155, 0.15, 5000, 100000, 7)._asdict()
        assert _json_text(payload) == reference_json_text(payload)

    @pytest.mark.parametrize("values", [
        [1, 2.0], [2.0, 1], [1.0, True], [True, 1], [1, True], [1.0, None], [1.5, "x"], [1, [2.0]],
        [1.0, np.float64(2.5)], [np.float64(math.nan), 1.0], (1, 2, 3), (0.1, -0.0),
        [{"a": 1.0}, {"b": 2}], [{"a": 1.0}, {"a": 2.0, "b": 3}], [{}, {}], [{"a": 1}, {}], [{"a": 1}, [1]],
    ])
    def test_mixed_lists_bypass_the_fast_paths(self, values):
        """Bools are not ints and numpy floats are not plain floats here, but each is written as json
        would, and so is a list of dicts, whatever their keys."""
        for obj in (values, {"k": values}, {str(i): v for i, v in enumerate(values)}):
            assert _json_text(obj) == reference_json_text(obj)

    @pytest.mark.parametrize("obj", [{1, 2}, np.int64(3), [np.int64(3)], {"k": object()}, b"bytes", 1j])
    def test_what_json_rejects_raises_type_error(self, obj):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            reference_json_text(obj)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_text(obj)


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

    def test_fig5a_axis_within_one_ulp_of_logspace(self):
        """The axis is built without numpy, from the same exponents as np.logspace."""
        axis = _FIGURES["fig5a"][2]
        reference = np.logspace(-4, -1, 40).tolist()
        assert len(axis) == 40 and axis[-1] == 0.1
        assert all(abs(a - b) <= math.ulp(b) for a, b in zip(axis, reference))

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

    def test_format_flag_is_unknown(self, capsys):
        """Audit reports are JSON only, so audit takes no --format."""
        rc = main(["audit", "--trials", "2000", "--format", "csv"])
        assert rc == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["d", "p"])
    @pytest.mark.parametrize("value", [True, "abc", 10**400])
    def test_config_reals_are_validated_not_coerced(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value, "trials": 2000}))
        assert main(["audit", "--config", str(cfg)]) == 2
        assert "OutOfRange" in capsys.readouterr().err

    def test_degenerate_construction_exits_two(self, capsys):
        rc = main(["audit", "--state", "basis:0", "--trials", "2000"])
        assert rc == 2
        assert "DegenerateMu" in capsys.readouterr().err

    def test_zero_noise_is_rejected_before_any_state_is_built(self, monkeypatch, capsys):
        """p = 0 would end in ZeroNoise inside the dominance audit, so it is
        rejected with the other parameters."""
        def no_state(entries):
            raise AssertionError("a state was built")

        monkeypatch.setattr(states, "make_density", no_state)
        assert main(["audit", "--p", "0", "--trials", "1000"]) == 2
        want = "error: ZeroNoiseError: ZeroNoise: depolarizing probability 0 gives an unbounded constant\n"
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("flags, named", [
        (["--n", "2000", "--trials", "1000"], "n + 1 = 2001"),
        (["--trials", "2001"], "trials = 2001"),
        (["--dim", "45", "--trials", "1000"], "dim^2 = 2025"),
    ])
    def test_oversized_audit_exits_two_before_any_state_is_built(self, flags, named, monkeypatch, capsys):
        """The bound is patched down, so a missing check could allocate little."""
        def no_state(entries):
            raise AssertionError("a state was built")

        monkeypatch.setattr(cli, "MAX_AUDIT_ENTRIES", 2000)
        monkeypatch.setattr(states, "make_density", no_state)
        assert main(["audit", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and named in err and "exceeds MAX_AUDIT_ENTRIES = 2000" in err

    def test_audit_at_the_bound_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_AUDIT_ENTRIES", 2000)
        assert main(["audit", "--n", "1999", "--trials", "2000", "--dim", "44"]) in (0, 3)
        assert json.loads(capsys.readouterr().out)["config"]["trials"] == 2000

    def test_trials_floor_is_checked_before_any_state_is_built(self, monkeypatch, capsys):
        """The Monte Carlo audit's floor, checked with the other parameters."""
        def no_state(entries):
            raise AssertionError("a state was built")

        monkeypatch.setattr(states, "make_density", no_state)
        assert main(["audit", "--trials", "999"]) == 2
        assert capsys.readouterr() == ("", "error: OutOfRangeError: OutOfRange: trials must be an integer >= 1000, got 999\n")

    @pytest.mark.parametrize("flags, named", [
        (["--projector", "0,x"], "projector index"),
        (["--state", "basis:x"], "state index"),
        (["--state", "basis:7"], "state index 7"),
        (["--state", "diag:a,0.5"], "state diag entries"),
        (["--state", "diag:nan,0.5"], "state diag entries"),
        (["--anchor", "basis:y"], "anchor index"),
        (["--anchor", "basis:-1"], "anchor index"),
    ])
    def test_malformed_spec_flag_exits_two_and_names_its_key(self, flags, named, capsys):
        assert main(["audit", "--trials", "1000", *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("projector, named", [
        (5, "projector must be"),
        ([0.5], "projector index"),
        ([True], "projector index"),
        ([-1], "projector index"),
        (["x"], "projector index"),
        ([2], "projector index 2"),
    ])
    def test_malformed_config_projector_exits_two_and_names_its_key(self, projector, named, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"projector": projector, "trials": 1000}))
        assert main(["audit", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["state", "anchor"])
    @pytest.mark.parametrize("matrix", [
        [["a", "b"], ["c", "d"]],
        [[1, 0], [0]],
        [[1, None], [0, 0]],
        [[10**400, 0], [0, 0]],
        {"rows": [[1, 0], [0, 0]]},
    ])
    def test_malformed_config_matrix_exits_two_and_names_its_key(self, key, matrix, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: matrix, "trials": 1000}))
        assert main(["audit", "--config", str(cfg)]) == 2
        assert f"{key} matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("projector", ["1", [1], ["1"], [1.0]])
    def test_projector_index_forms_agree(self, projector, tmp_path, capsys):
        """Text, integer, decimal-string and integral-float indices name the same projector."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"projector": projector, "trials": 1000}))
        assert main(["audit", "--config", str(cfg)]) == 0
        assert main(["audit", "--projector", "1", "--trials", "1000"]) == 0
        config_run, flag_run = capsys.readouterr().out.split("\n}\n")[:2]
        assert config_run == flag_run


class TestConsoleEntryPoint:
    """The installed script wires through to main()."""

    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shotdp.cli", "compute", "--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["epsilon"] == pytest.approx(6.4215954, abs=1e-6)
