"""Byte-for-byte goldens for the command line.

Each file under `tests/golden/` is the output of one CLI invocation below,
written with `--out`. A refactor must leave every byte in place; a change
that moves a digit on purpose lists the cell, with a high-precision
reference value, in CHANGES.md.
"""

from pathlib import Path

import pytest

from shotdp.cli import main

GOLDEN = Path(__file__).parent / "golden"

_POINT = ["--d", "0.1", "--r", "1", "--n", "10", "--mu", "0.15"]
_TAIL_POINT = ["--d", "0.01", "--r", "1", "--n", "10", "--mu", "0.15"]
_NOISE = ["--regime", "depolarizing", "--p", "0.5", "--D", "2"]

_COMPUTE = {
    "noiseless": _POINT,
    "depolarizing": _POINT + _NOISE,
    "delta_noiseless_c": _TAIL_POINT + ["--c", "0.05"],
    "delta_noiseless_delta": _TAIL_POINT + ["--delta", "0.01"],
    "delta_depolarizing_c": _TAIL_POINT + _NOISE + ["--c", "0.05", "--convention", "normalized"],
    "delta_depolarizing_delta": _TAIL_POINT + _NOISE + ["--delta", "0.01", "--convention", "normalized"],
}
_SWEEP = {
    "n": ["--axis", "n", "--grid", "1:200:1", "--d", "0.01", "--r", "1", "--mu", "0.15"],
    "delta": ["--axis", "delta", "--grid", "0.0001:0.05:0.001", *_TAIL_POINT],
    "n_depolarizing": ["--axis", "n", "--grid", "1:200:1", "--d", "0.01", "--r", "1", "--mu", "0.15",
                       *_NOISE],
    "p": ["--axis", "p", "--grid", "0.05:1:0.05", *_POINT, "--regime", "depolarizing", "--D", "2"],
    # Past about 38 sigma the tail underflows, so the flags change mid-table.
    "c": ["--axis", "c", "--grid", "0.05:5:0.05", *_TAIL_POINT],
    # Crosses mu = 0.5, where the RegimeNegativeTerm flag starts.
    "mu": ["--axis", "mu", "--grid", "0.05:0.95:0.05", "--d", "0.1", "--r", "1", "--n", "10"],
    "d": ["--axis", "d", "--grid", "0:1:0.05", "--r", "1", "--n", "10", "--mu", "0.15"],
}

CASES = {f"figures_{which}.csv": ["figures", "--which", which] for which in ("fig3", "fig4a", "fig4b", "fig5a", "fig5b")}
for _name, _args in _COMPUTE.items():
    for _fmt in ("json", "csv"):
        CASES[f"compute_{_name}.{_fmt}"] = ["compute", *_args, "--format", _fmt]
for _name, _args in _SWEEP.items():
    for _fmt in ("csv", "json"):
        CASES[f"sweep_{_name}.{_fmt}"] = ["sweep", *_args, "--format", _fmt]
CASES["audit_default.json"] = ["audit"]
# A clipped window holding both boundary counts, and an interior-only window.
CASES["audit_n3.json"] = ["audit", "--n", "3"]
CASES["audit_n200_d0.05.json"] = ["audit", "--n", "200", "--d", "0.05", "--trials", "1000"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
