"""The installed runtime is numpy alone: importing the command line loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"


def test_cli_import_leaves_scipy_unloaded():
    probe = "import sys, shotdp.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.strip() == "False"
