"""The package's modules import one another at module level, each layer
from the ones below it.  The one import inside a function is
``validate_scenario``'s import of ``pricing``: the checks live beside the
cost side they read, and ``pricing`` imports ``scenario``."""

import ast
from pathlib import Path

import fscontract

SRC = Path(fscontract.__file__).parent


def _package_imports(node):
    """The package modules that ``node`` and the code under it import."""
    for child in ast.walk(node):
        if isinstance(child, ast.ImportFrom) and (
                child.level or child.module.split(".")[0] == "fscontract"):
            yield "." * child.level + (child.module or "")
        elif isinstance(child, ast.Import):
            yield from (a.name for a in child.names if a.name.split(".")[0] == "fscontract")


def test_the_only_function_local_package_import_is_validate_scenarios():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, node.name, name) for name in _package_imports(node)]
    assert found == [("scenario", "validate_scenario", ".pricing")]
