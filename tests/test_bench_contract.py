"""The benchmark's contract with the package: every function that
``bench/tracer.py`` wraps, every ``F.<name>`` that ``bench/workloads.py``
calls, with the arguments it passes, and every CLI subcommand and option
that its ``CliSession`` passes must exist, so that renaming or deleting
one, or changing its parameters, breaks a test here rather than
``--trace 1`` or a workload."""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import finitelhs
from finitelhs import cli

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


def test_workload_calls_bind():
    """Every ``F.<name>(...)`` call of ``bench/workloads.py`` binds to the
    signature of that name: its count of positional arguments and its
    keyword names.  A call with a starred argument is skipped."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "F"]
    checked, unbound = 0, []
    for call in calls:
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            continue
        checked += 1
        signature = inspect.signature(getattr(finitelhs, call.func.attr))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: F.{call.func.attr}: {exc}")
    assert checked >= 10
    assert unbound == []


def _subparser(parser: argparse.ArgumentParser, names: list[str]):
    """The parser of the subcommand path ``names``, or None."""
    for name in names:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs or name not in subs[0].choices:
            return None
        parser = subs[0].choices[name]
    return parser


def test_cli_session_options_exist():
    """Each command of ``CliSession.commands`` is a list of words: its
    leading string literals name the subcommand, and every literal that
    starts with ``--``, conditional ones included, is an option of it."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    session = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "CliSession")
    commands = next(node.value for node in ast.walk(session) if isinstance(node, ast.Assign)
                    and any(getattr(t, "attr", None) == "commands" for t in node.targets))
    parser = cli.build_parser()
    checked, missing = 0, []
    for entry in commands.elts:
        argv = entry.elts[1]
        words = [n.value for n in ast.walk(argv)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        path = []
        for node in argv.elts:
            if not (isinstance(node, ast.Constant) and not node.value.startswith("--")):
                break
            path.append(node.value)
        sub = _subparser(parser, path)
        if sub is None:
            missing.append(" ".join(path))
            continue
        for option in (w for w in words if w.startswith("--")):
            checked += 1
            if option not in sub._option_string_actions:
                missing.append(f"{' '.join(path)} {option}")
    assert len(commands.elts) == 8 and checked >= 20
    assert missing == []


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
