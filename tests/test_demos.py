"""Every script under demos/ runs to completion in a fresh interpreter."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo: Path, tmp_path: Path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
