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
