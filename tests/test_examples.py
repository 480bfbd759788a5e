"""Smoke tests: every example script runs to completion.

Examples are the library's public face; each must exit 0 on default
arguments (scaled down where the script accepts size flags).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", []),
    ("pay_per_view.py", ["--subscribers", "256", "--intervals", "2"]),
    ("adaptive_fec_tuning.py", ["--messages", "6", "--users", "1024"]),
    ("scalability_study.py", []),
    ("wire_walkthrough.py", []),
    ("deadline_provisioning.py", []),
    ("authenticated_membership.py", []),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "--users", "256"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "max supportable group size" in result.stdout
