"""The benchmark's contract with the package: every function that
``bench/tracer.py`` wraps and every ``F.<name>`` that ``bench/workloads.py``
calls must exist, so that renaming or deleting one breaks a test here
rather than ``--trace 1`` or a workload."""

import ast
import importlib
from pathlib import Path

import finitelhs

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_functions_exist():
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(f"finitelhs.{module}"),
                                       name, None))]
    assert missing == []


def test_workload_names_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "F"}
    assert names
    assert sorted(n for n in names if not hasattr(finitelhs, n)) == []
