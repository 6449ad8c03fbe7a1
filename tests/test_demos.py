"""Each demo prints exactly its checked-in output (tests/demo_output/<demo>.txt).

A change to a demo's stdout has to be made on purpose: regenerate the file
with `PYTHONPATH=src python demos/<demo>.py > tests/demo_output/<demo>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_expected_output(demo):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    env.pop("MATROID_ALLOC_CAPS", None)
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
