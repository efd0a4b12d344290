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
package directory to count instead. ``--against`` names a second package
directory, such as a parent commit's unpacked with
``git archive <commit> src | tar -x -C /tmp/parent``; each row then also
gives the change of its three numbers from that directory's, a module
missing from one side counting as zero lines there:

    python3 tools/src_lines.py [path/to/src/cholcorr] [--against /tmp/parent/src/cholcorr]
"""

from __future__ import annotations

import argparse
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


def counts(src: Path) -> dict[str, tuple[int, int, int]]:
    """``count`` of every module of the package directory ``src``, by file name."""
    return {path.name: count(path) for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of each module.")
    parser.add_argument("src", nargs="?", type=Path, default=SRC)
    parser.add_argument("--against", type=Path, metavar="BASE")
    args = parser.parse_args(argv)
    for src in (args.src, args.against):
        if src is not None and not src.is_dir():
            print(f"{src} not found", file=sys.stderr)
            return 2
    rows = counts(args.src)
    base = counts(args.against) if args.against else {}
    for table in (rows, base):
        table["all modules"] = tuple(sum(row[k] for row in table.values()) for k in range(3))
    header = f"{'module':<22}{'total':>7}{'docstring':>11}{'code':>7}"
    print(header + (f"{'Δtotal':>8}{'Δdocstring':>12}{'Δcode':>7}" if args.against else ""))
    names = sorted((rows.keys() | base.keys()) - {"all modules"}) + ["all modules"]
    for name in names:
        row = rows.get(name, (0, 0, 0))
        line = f"{name:<22}{row[0]:>7}{row[1]:>11}{row[2]:>7}"
        if args.against:
            delta = [v - b for v, b in zip(row, base.get(name, (0, 0, 0)))]
            line += f"{delta[0]:>+8}{delta[1]:>+12}{delta[2]:>+7}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
