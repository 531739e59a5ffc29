"""The names the benchmark harness under ``perfbench/`` looks up in nvk.

The traced run wraps functions it finds by name, and the workloads call
public entry points through module attributes, so renaming one of them
would crash the benchmark rather than fail an import here.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_traced_functions_resolve(monkeypatch):
    tracing = _import(monkeypatch, "tracing")
    targets = tracing._targets()
    assert all(inspect.isfunction(fn) for _, _, fn in targets)
    kernels = {name for layer, name, _ in targets if layer == "kernels"}
    assert kernels == set(tracing.KERNEL_FUNCTIONS)
    assert {layer for layer, _, _ in targets} == set(tracing.LAYERS)


def test_workload_entry_points_exist(monkeypatch):
    workloads = _import(monkeypatch, "workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {name: obj for name, obj in vars(workloads).items() if inspect.ismodule(obj)
               and obj.__name__.startswith("nvk.")}
    called = {(node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules}
    assert called, "no nvk entry points found in workloads.py"
    for module, attr in sorted(called):
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"
