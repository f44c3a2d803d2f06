"""Every narrated demo under demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
