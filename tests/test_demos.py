"""Every walkthrough in demos/ runs to completion against the source tree."""

import hashlib
import subprocess
from pathlib import Path

import pytest

from conftest import ROOT, run_from_checkout

DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: SHA-256 of the stdout of demos/03_recognition_witnesses.py, which prints
#: no timings and so is byte-stable.
RECOGNITION_DEMO_DIGEST = "6d8bc143df6b3ffb4f3be8e011fe8409910f38e624a6248bb75da33157d6c70d"


def _run_demo(path: Path) -> subprocess.CompletedProcess:
    return run_from_checkout([str(path)])


def test_all_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    proc = _run_demo(path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_recognition_demo_stdout_is_pinned():
    proc = _run_demo(ROOT / "demos" / "03_recognition_witnesses.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == RECOGNITION_DEMO_DIGEST
