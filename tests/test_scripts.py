"""Smoke tests of the scripts under ``scripts/``, each run in a fresh process
against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name, argv, expected",
    [
        ("kdv_walkthrough.py", (), "== bi-pencil attempt"),
        ("family_survey.py", ("--draws", "1"), "0 disagreements/failures"),
        ("verify_catalog.py", ("--kind", "pair"), "0 mismatches"),
    ],
)
def test_script_runs_clean(name, argv, expected):
    proc = _run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_report_digest_is_stable():
    runs = [_run_script("report_digest.py", "C_2_1") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    # check and nijenhuis, each in two modes at two seeds
    assert len(lines) == 8
    assert all(line.endswith("catalog:C_2_1") for line in lines)
    assert runs[1].stdout == runs[0].stdout
