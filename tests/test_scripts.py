"""The verification sweep script, run as a user runs it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_verification_sweeps_the_determinant_oracle():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_verification.py"),
            "--max-n",
            "3",
            "--det-oracle-max-n",
            "3",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    oracle_lines = [
        line for line in result.stdout.splitlines() if "det-oracle=" in line
    ]
    assert len(oracle_lines) == 3, result.stdout
    assert all(line.rstrip().endswith("ok") for line in oracle_lines), result.stdout


def test_run_verification_checks_the_closed_form_at_every_size():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_verification.py"),
            "--max-n",
            "4",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [line for line in result.stdout.splitlines() if "det-closed-form=" in line]
    assert len(lines) == 4, result.stdout
    assert all(line.rstrip().endswith("ok") for line in lines), result.stdout
    assert "det-oracle=" not in result.stdout
