"""Count the lines of each ``src/cholcorr`` module, split by kind.

For every module the script prints three numbers, then their sums:

- total: every line of the file;
- docstring: the lines spanned by the docstring of the module, of a
  class or of a function (sync or async), found with ``ast``: the
  string literal that is the first statement of its body, from its
  first to its last line;
- code: every other line that is neither blank nor a comment (a line
  whose first non-blank character is ``#``).

Lines that are blank or comments outside docstrings count only in the
total, so total >= docstring + code.

Run from the root of a checkout; an optional argument names another
package directory to count instead:

    python3 tools/src_lines.py [path/to/src/cholcorr]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cholcorr"
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based line numbers spanned by docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """``(total, docstring, code)`` lines of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1 for number, line in enumerate(lines, start=1)
        if number not in docs and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), len(docs), code


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    if not src.is_dir():
        print(f"{src} not found", file=sys.stderr)
        return 2
    print(f"{'module':<22}{'total':>7}{'docstring':>11}{'code':>7}")
    sums = [0, 0, 0]
    for path in sorted(src.glob("*.py")):
        row = count(path)
        sums = [s + v for s, v in zip(sums, row)]
        print(f"{path.name:<22}{row[0]:>7}{row[1]:>11}{row[2]:>7}")
    print(f"{'all modules':<22}{sums[0]:>7}{sums[1]:>11}{sums[2]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
