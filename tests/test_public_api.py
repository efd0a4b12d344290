import ast
import re
from pathlib import Path

import pytest

import cholcorr

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_every_exported_name():
    # a stale string in __all__ makes the star import raise AttributeError
    namespace = {}
    exec("from cholcorr import *", namespace)
    assert [name for name in cholcorr.__all__ if name not in namespace] == []
    assert len(set(cholcorr.__all__)) == len(cholcorr.__all__)


def test_numpy_is_the_only_runtime_dependency():
    imports = []
    for path in sorted((ROOT / "src" / "cholcorr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.name, node.module))
    assert imports
    assert [(name, module) for name, module in imports if module.split(".")[0] == "scipy"] == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
