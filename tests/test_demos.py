"""Every script under `demos/` runs to completion as `__main__` and prints
exactly its committed output, `tests/golden/demos/<script>.txt`."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("script", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # figure_sweeps.py writes its CSVs into the directory named by its first
    # argument and prints their paths; the golden holds "<out>" for that directory.
    monkeypatch.setattr(sys, "argv", [script, str(tmp_path)])
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out.replace(str(tmp_path), "<out>")
    assert out.encode() == (GOLDEN / f"{Path(script).stem}.txt").read_bytes()
