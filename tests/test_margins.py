import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_ID = "tests/test_identities.py::TestKappaSweep::test_residuals_within_n_kappa_eps[100.0-12]"


def test_prints_the_smallest_margin_of_one_test():
    run = subprocess.run([sys.executable, "tools/margins.py", TEST_ID], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-3].startswith("OPENBLAS_CORETYPE=")
    assert lines[-2].split() == ["smallest_margin", "test_id"]
    value, test_id = lines[-1].split()
    assert test_id == TEST_ID
    assert float(value) >= 240  # the test's own floor
