"""Packaging: the runtime dependencies declared in pyproject.toml are
exactly the third-party packages that ``src/ellr`` imports."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_packages() -> set:
    names = set()
    for path in (ROOT / "src" / "ellr").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}


def test_runtime_dependencies_match_imports():
    third_party = {name.lower() for name in _imported_packages()
                   if name not in sys.stdlib_module_names and name != "ellr"}
    declared = _declared_dependencies()
    assert third_party - declared == set(), "imported but not declared"
    assert declared - third_party == set(), "declared but never imported"


def test_names_the_benchmark_tracer_binds_exist():
    # ellrbench/test_tracer.py rebinds and restores these names; a rename
    # would break the benchmark's self-test without failing here otherwise
    import ellr
    import ellr.linalg
    import ellr.tensorops
    import ellr.verifiers

    assert ellr.linalg.svd_rank is ellr.verifiers.svd_rank is ellr.svd_rank
    for name in ("r_matrix", "image", "t_op"):
        assert callable(getattr(ellr.tensorops, name)), name
