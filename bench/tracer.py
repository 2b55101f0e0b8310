"""Per-layer timing of finitelhs from outside the package.

:class:`Tracer` replaces each traced public function in every finitelhs
module that holds a reference to it (``boundary.axial_boundary_solve`` and
the ``scanopt`` binding of it alike) with a wrapper that counts calls and
times them, then puts the originals back.  Spans nest, so a layer's self
time is its time minus the traced calls it made.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs that get wrapped
TRACED = (
    ("boundary", "norm_integral"),
    ("boundary", "axial_boundary_solve"),
    ("boundary", "sample_axial_family"),
    ("scanopt", "scan_axial_family"),
    ("scanopt", "scan_summary"),
    ("scanopt", "vertex_face_crossover"),
    ("scanopt", "face_edge_crossover"),
    ("scanopt", "werner_reference"),
    ("scanopt", "random_orientation_search"),
    ("geometry", "decompose_directions"),
    ("geometry", "polyhedron_from_vertices"),
    ("lhsmodel", "build_polyhedron_model"),
    ("lhsmodel", "verify_model"),
    ("lhsmodel", "model_to_json"),
    ("lhsmodel", "model_from_json"),
    ("serialize", "dumps"),
    ("serialize", "csv_text"),
)

# per-layer metric -> (unit, value from one op's accumulators)
LAYER_METRICS = {
    "boundary.norm_integral.calls": ("count", lambda a: a["boundary.norm_integral.calls"]),
    "boundary.norm_integral.s": ("s", lambda a: a["boundary.norm_integral.s"]),
    "boundary.axial_boundary_solve.calls": (
        "count", lambda a: a["boundary.axial_boundary_solve.calls"]),
    "boundary.sample_axial_family.s": ("s", lambda a: a["boundary.sample_axial_family.s"]),
    "scanopt.scan_axial_family.s": ("s", lambda a: a["scanopt.scan_axial_family.self_s"]),
    "scanopt.scan_summary.s": ("s", lambda a: a["scanopt.scan_summary.s"]),
    "scanopt.crossovers.s": (
        "s", lambda a: a["scanopt.vertex_face_crossover.s"] + a["scanopt.face_edge_crossover.s"]),
    "scanopt.werner_reference.s": ("s", lambda a: a["scanopt.werner_reference.s"]),
    "scanopt.random_orientation_search.s": (
        "s", lambda a: a["scanopt.random_orientation_search.s"]),
    "scanopt.random_orientation_search.rotations": (
        "count", lambda a: a["scanopt.random_orientation_search.rotations"]),
    "geometry.decompose_directions.s": ("s", lambda a: a["geometry.decompose_directions.s"]),
    "geometry.decompose_directions.directions": (
        "count", lambda a: a["geometry.decompose_directions.directions"]),
    "geometry.polyhedron_from_vertices.calls": (
        "count", lambda a: a["geometry.polyhedron_from_vertices.calls"]),
    "geometry.polyhedron_from_vertices.s": (
        "s", lambda a: a["geometry.polyhedron_from_vertices.s"]),
    "lhsmodel.build_polyhedron_model.s": ("s", lambda a: a["lhsmodel.build_polyhedron_model.s"]),
    "lhsmodel.verify_model.s": ("s", lambda a: a["lhsmodel.verify_model.s"]),
    "lhsmodel.model_to_json.s": ("s", lambda a: a["lhsmodel.model_to_json.s"]),
    "lhsmodel.model_from_json.s": ("s", lambda a: a["lhsmodel.model_from_json.s"]),
    "serialize.dumps.s": ("s", lambda a: a["serialize.dumps.s"]),
    "serialize.csv_text.s": ("s", lambda a: a["serialize.csv_text.s"]),
    "serialize.bytes": ("bytes", lambda a: a["serialize.dumps.bytes"] + a["serialize.csv_text.bytes"]),
}


def _work_count(name: str, args: tuple, kwargs: dict, result) -> tuple[str, int] | None:
    """The work a call did, for the layers that have a natural count."""
    if name == "random_orientation_search":
        return "rotations", int(kwargs.get("n_rotations", args[1] if len(args) > 1 else 0))
    if name == "decompose_directions":
        return "directions", len(args[1])
    if name in ("dumps", "csv_text"):
        return "bytes", len(result)
    return None


class Tracer:
    """Wraps the traced functions while active; ``take()`` returns and
    clears the accumulators of the op that just ran."""

    def __init__(self, package: str = "finitelhs") -> None:
        self.package = package
        self.acc: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, name: str, fn):
        acc, stack = self.acc, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                acc[key + ".calls"] += 1
                acc[key + ".s"] += elapsed
                acc[key + ".self_s"] += elapsed - frame[0]
            work = _work_count(name, args, kwargs, result)
            if work is not None:
                acc[f"{key}.{work[0]}"] += work[1]
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{self.package}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> dict[str, float]:
        """This op's layer metrics; resets the accumulators."""
        values = {name: float(fn(self.acc)) for name, (_, fn) in LAYER_METRICS.items()}
        self.acc.clear()
        return values
