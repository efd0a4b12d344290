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


PUBLIC = [
    "ALL_VERIFIERS", "Ar1Spec", "CholeskyFactor", "CorrelationMatrix", "CovarianceMatrix",
    "DegenerateColumn", "GeneratorConfig", "IdentityReport", "NearSingular",
    "NotPositiveDefinite", "SampleMatrix",
    "StageResult", "TestReport", "ar1_cholesky", "ar1_matrix", "check_order_conditions",
    "chol_detratio", "chol_semipartial", "extract_signs", "generate",
    "leading_minor_determinants", "reference_cholesky", "sample_mvn",
    "sequential_test", "stream", "verify_general_recursion", "verify_product_sums",
    "verify_ratio_differences", "verify_recursion",
]
# types the library returns or raises: callers read or catch them by name
RETURNED_OR_RAISED = {
    "IdentityReport", "StageResult", "TestReport", "DegenerateColumn", "NearSingular",
    "NotPositiveDefinite",
}


def test_public_names_are_pinned():
    assert sorted(cholcorr.__all__) == PUBLIC


def test_every_public_name_has_a_user():
    # a name is used when the CLI, an acceptance gate or the benchmark names
    # it in code, or the README names it in backticks
    used = set(re.findall(r"`([A-Za-z_]\w*)", (ROOT / "README.md").read_text()))
    paths = [ROOT / "src" / "cholcorr" / "cli.py", ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert [name for name in cholcorr.__all__
            if name not in RETURNED_OR_RAISED and name not in used] == []


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
