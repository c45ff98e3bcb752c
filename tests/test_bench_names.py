"""The package keeps every function that the benchmark's metrics name.

The benchmark's tracer keys each per-layer metric by ``<module>.<function>``,
the module that defines the function; a metric whose function is gone, or
has moved to another module, reads ``null``.  The names are read from the
benchmark's own files, so this test follows them when they change.
"""

import ast
import importlib.util
import re
from pathlib import Path

import fscontract
import fscontract.cli  # noqa: F401  (the cli layer, which the package does not import)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _run_constants(*names):
    """The literal values of module-level assignments in ``perfbench/run.py``."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    values = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in names}
    return [values[name] for name in names]


def test_every_traced_name_is_a_public_function_of_its_module():
    tracer = _tracer()
    calls_per_point, lf_search, fs_cost, emit, layers = _run_constants(
        "CALLS_PER_POINT", "LF_SEARCH", "FS_COST", "EMIT", "LAYERS")
    found = tracer.public_functions(tracer.package_modules())
    named = {*calls_per_point.values(), lf_search, fs_cost, emit, *tracer.PROBES}
    assert sorted(named - found.keys()) == []
    assert sorted(set(layers) - {name.split(".")[0] for name in found}) == []


def test_every_name_the_benchmark_calls_is_exported():
    called = {name for path in PERFBENCH.glob("*.py")
              for name in re.findall(r"\bfc\.(\w+)", path.read_text(encoding="utf-8"))}
    assert called
    assert sorted(name for name in called if not hasattr(fscontract, name)) == []
