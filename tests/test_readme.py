"""README's examples run as written: each line of the ``## Command line``
block through ``cli.main``, on input files written for it, and the
``## Library example`` block through ``exec``."""

import shlex
from pathlib import Path

import numpy as np

from cholcorr.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, lang):
    """The body of the first ``lang`` code block after README's line ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    start = section.index(f"```{lang}\n") + len(f"```{lang}\n")
    return section[start:section.index("```", start)]


def test_command_line_block_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--n", "6", "--seed", "3", "--out", "gen"]) == 0
    r = np.loadtxt("gen/corr_0000.csv", delimiter=",")
    d = np.linspace(0.5, 3.0, 6)
    np.savetxt("R.csv", r, fmt="%.17g", delimiter=",")
    np.savetxt("Sigma.csv", r * np.outer(d, d), fmt="%.17g", delimiter=",")
    np.savetxt("samples.csv", np.random.default_rng(5).standard_normal((200, 4)),
               fmt="%.17g", delimiter=",")
    lines = [line for line in readme_block("## Command line", "sh").splitlines()
             if line.strip() and not line.startswith("#")]
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "cholcorr"
        assert main(argv[1:]) == 0, (line, capsys.readouterr().err)


def test_library_example_prints_its_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("## Library example", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out == "None [False, False, False]\n"
    assert list(tmp_path.iterdir()) == []
