"""Every script under `demos/` runs to completion as `__main__`."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # figure_sweeps.py writes its CSVs into the directory named by its first argument.
    monkeypatch.setattr(sys, "argv", [script, str(tmp_path)])
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
