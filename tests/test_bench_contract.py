"""The benchmark's contract with the package: every function that
``bench/tracer.py`` wraps and every ``F.<name>`` that ``bench/workloads.py``
calls must exist, so that renaming or deleting one breaks a test here
rather than ``--trace 1`` or a workload."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("kind", ["sign-mixture", "linear"])
def test_atoms_view_has_the_fields_same_model_reads(kind):
    """``same_model`` in ``bench/workloads.py`` compares models through
    ``model.atoms``: each record's weight, bloch, preimage and alice_bloch
    must equal the model's arrays (alice_bloch None for a sign mixture)."""
    if kind == "sign-mixture":
        model = finitelhs.build_polyhedron_model(finitelhs.DiagMat3(-0.5, -0.4, -0.3),
                                                 finitelhs.cube())
    else:
        model = finitelhs.build_separable_tetrahedron_model(
            finitelhs.DiagMat3(-0.25, 0.35, -0.4))
    atoms = model.atoms
    assert len(atoms) == len(model.weights)
    etas = [None] * len(atoms) if model.etas is None else model.etas
    for atom, q, bloch, preimage, eta in zip(atoms, model.weights, model.blochs,
                                             model.preimages, etas):
        assert atom.weight == q
        assert np.array_equal(atom.bloch, bloch)
        assert np.array_equal(atom.preimage, preimage)
        assert (atom.alice_bloch is None) if eta is None else np.array_equal(
            atom.alice_bloch, eta)
