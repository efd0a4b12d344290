import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_counter():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_docstrings_of_modules_classes_and_functions(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        "\n"
        '        docstring."""\n'
        '        return "not a docstring"\n'
    )
    # 15 lines: 6 in docstrings (a blank one among them), 4 code, 4 blank, 1 comment
    assert load_counter().count(path) == (15, 6, 4)


def test_against_prints_each_module_delta_and_the_total(tmp_path, capsys):
    new, base = tmp_path / "new", tmp_path / "base"
    new.mkdir()
    base.mkdir()
    (new / "a.py").write_text('"""Doc."""\nX = 1\nY = 2\n')
    (new / "b.py").write_text("Z = 3\n")
    (base / "a.py").write_text('"""Two-line\ndoc."""\nX = 1\n')
    (base / "gone.py").write_text("# comment\nW = 4\n")
    assert load_counter().main([str(new), "--against", str(base)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "total", "docstring", "code",
                                "Δtotal", "Δdocstring", "Δcode"]
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "3", "1", "2", "+0", "-1", "+1"],
        ["b.py", "1", "0", "1", "+1", "+0", "+1"],
        ["gone.py", "0", "0", "0", "-2", "+0", "-1"],
        ["all", "modules", "4", "1", "3", "-1", "-1", "+1"],
    ]


def test_a_missing_directory_exits_2(tmp_path, capsys):
    assert load_counter().main([str(tmp_path), "--against", str(tmp_path / "none")]) == 2
    assert capsys.readouterr().err == f"{tmp_path / 'none'} not found\n"
