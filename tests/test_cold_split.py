import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("cold_split", ROOT / "tools" / "cold_split.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_four_stage_medians_for_one_subcommand(capsys):
    assert load_tool().main(["--reps", "1", "verify"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["command", "start_ms", "import_ms", "command_ms", "exit_ms"]
    name, *stages = row.split()
    assert name == "verify"
    assert len(stages) == 4 and all(float(ms) > 0 for ms in stages)
