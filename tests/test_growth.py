import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("growth", ROOT / "tools" / "growth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_slope_is_the_exponent_of_a_power_law():
    assert load_tool().slope([100, 200, 400], [1.0, 8.0, 64.0]) == pytest.approx(3.0)


def test_prints_the_claimed_next_to_the_fitted_exponent(capsys):
    assert load_tool().main(["--reps", "1", "--sizes", "8", "16"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["stage", "claimed", "fitted"]
    cells = [row.split() for row in rows]
    assert [(row[0], row[1]) for row in cells] == [
        ("_schur_steps", "3"), ("chol_semipartial", "3"), ("CorrelationMatrix", "3"),
        ("chain_walk", "4"), ("ar1_cholesky", "2"), ("render_table", "-")]
    for row in cells:
        assert len(row) == 5 and all(float(ms) > 0 for ms in row[3:])
        float(row[2])
