"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is the
set-up the benchmark times), exposes one round of ops as ``round``, runs
one op with ``run(op)`` and checks a round's outputs with ``check``.
Calls into finitelhs go through the package namespace at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import finitelhs as F

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path("bench") / "out"          # relative to ROOT, which is the cwd of every child


class OpFailed(RuntimeError):
    """The program rejected an op: an exception, a failed gate or a nonzero exit."""


def physical_target(rng: np.random.Generator) -> np.ndarray:
    """A correlation diagonal from Dirichlet Bell weights.

    The inverse of the Bell-weight map sends the probability simplex onto
    the physical tetrahedron.  Flipping two signs is a local unitary, so the
    random even sign flip keeps the state physical.
    """
    w = rng.dirichlet(np.ones(4))
    d = np.array([w[0] - w[1] + w[2] - w[3],
                  -w[0] + w[1] + w[2] - w[3],
                  w[0] + w[1] - w[2] - w[3]])
    flip = rng.integers(4)
    if flip < 3:
        d[[i for i in range(3) if i != flip]] *= -1.0
    return d


def unit_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class AxialScan:
    """scan_axial_family(N) + scan_summary + scan_csv, one op per round."""

    name = "axial-scan"
    N = 24

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.t0z_min = float(0.02 + 0.03 * rng.random())
        self.round = [self.N]

    def run(self, n: int):
        points = F.scan_axial_family(n, t0z_min=self.t0z_min)
        summary = F.scan_summary(points)
        return (F.scan_csv(points), summary), {}

    @staticmethod
    def key(output):
        return output

    def check(self, outputs: list, rng: np.random.Generator) -> list[str]:
        problems = []
        for csv, summary in filter(None, outputs):
            rows = checks.parse_csv(csv)
            problems += checks.check_scan_rows(rows, self.N, self.t0z_min)
            problems += checks.check_scan_summary(summary, rows)
        return problems


@dataclass
class CertifyOp:
    kind: str
    target: np.ndarray
    directions: np.ndarray
    rotation: object = None          # finitelhs.Rotation for the fixed orientations
    quat: np.ndarray | None = None   # the cube's rotation, for the check
    search_seed: int = 0


def same_model(a, b) -> bool:
    """Equal by value: target, visibility, response and every atom field."""
    def fields(m):
        arrays = [m.target.as_array(), [m.visibility, getattr(m.response, "scale", 1.0)]]
        for atom in m.atoms:
            arrays += [[atom.weight], atom.bloch, atom.preimage,
                       [] if atom.alice_bloch is None else atom.alice_bloch]
        return type(m.response), arrays
    (kind_a, fa), (kind_b, fb) = fields(a), fields(b)
    return kind_a is kind_b and len(fa) == len(fb) and all(
        np.array_equal(x, y) for x, y in zip(fa, fb))


class CertifyBatch:
    """Build, verify and JSON round-trip one model per op.

    Per target: icosahedron at the vertex, face and edge orientations and at
    the random-search best, a cube at a seeded rotation, and the
    tetrahedron model on the separable boundary.  No kind is more than a
    sixth of the mix; the four icosahedron kinds cost alike, so the median
    op is an icosahedron op.
    """

    name = "certify-batch"
    N_TARGETS = 6
    N_DIRECTIONS = 20000
    N_ROTATIONS = 2000
    KINDS = ("ico-vertex", "ico-face", "ico-edge", "ico-best", "cube", "tetra")

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        special = dict(zip(("ico-vertex", "ico-face", "ico-edge"), F.special_orientations()))
        self.round = []
        for _ in range(self.N_TARGETS):
            target = physical_target(rng)
            for kind in self.KINDS:
                op = CertifyOp(kind, target, unit_directions(rng, self.N_DIRECTIONS))
                if kind in special:
                    op.rotation = special[kind]
                elif kind == "ico-best":
                    op.search_seed = int(rng.integers(2**31))
                elif kind == "cube":
                    op.quat = rng.standard_normal(4)
                    op.quat /= np.linalg.norm(op.quat)
                    op.rotation = F.Rotation(op.quat)
                else:
                    op.target = target / np.abs(target).sum()
                self.round.append(op)

    def run(self, op: CertifyOp):
        target = F.DiagMat3(*op.target)
        if op.kind == "tetra":
            model = F.build_separable_tetrahedron_model(target)
        else:
            if op.kind == "ico-best":
                _, rotation = F.random_orientation_search(target, self.N_ROTATIONS,
                                                          seed=op.search_seed)
                poly = F.icosahedron(rotation)
            elif op.kind == "cube":
                poly = F.cube(op.rotation)
            else:
                poly = F.icosahedron(op.rotation)
            model = F.build_polyhedron_model(target, poly)
            if model.visibility > 1.0:
                model = F.build_polyhedron_model(target, poly, visibility=1.0)
        report = F.verify_model(model, model.simulated_state(), op.directions)
        if not report.max_residual < checks.RESIDUAL_GATE:
            raise OpFailed(f"{op.kind}: verification residual {report.max_residual:.3e}")
        text = F.model_to_json(model)
        return (model, text, F.model_from_json(text)), {}

    @staticmethod
    def key(output):
        return output[1]

    def check(self, outputs: list, rng: np.random.Generator) -> list[str]:
        problems = []
        for op, output in zip(self.round, outputs):
            if output is None:
                continue
            model, text, loaded = output
            if not same_model(model, loaded):
                problems.append(f"{op.kind}: the JSON round trip changed the model")
            solid = {"cube": "cube", "tetra": "tetrahedron"}.get(op.kind, "icosahedron")
            orientation = op.kind[4:] if op.kind in ("ico-vertex", "ico-face", "ico-edge") else None
            problems += [f"{op.kind}: {p}" for p in checks.check_model(
                json.loads(text), op.target, solid, rng,
                orientation=orientation, rotation=op.quat)]
        return problems


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one interpreter to completion from the cwd, stdout and stderr
    into ``log``: (exit code, wall s, peak RSS MiB)."""
    start = time.perf_counter()
    with open(log, "wb") as err:
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                             file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


class CliSession:
    """Eight fresh ``python -m finitelhs.cli`` processes per op, in order."""

    name = "cli-session"
    N_CURVE = 8
    N_ROTATIONS = 2000

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        out = OUT_DIR / "cli"
        (ROOT / out).mkdir(parents=True, exist_ok=True)
        self.out = out
        seeds = [str(s) for s in rng.integers(2**31, size=4)]
        self.cube_target = physical_target(rng)
        rotation = F.random_rotation(np.random.default_rng(int(seeds[2])))
        cube_t_max = F.build_polyhedron_model(F.DiagMat3(*self.cube_target),
                                              F.cube(rotation)).visibility
        d = physical_target(rng)
        self.tetra_target = d / np.abs(d).sum()
        a, b = 0.2 + 0.4 * rng.random(), 0.2 + 0.7 * rng.random()
        self.opt_target = np.array([-a, -a, -b])
        self.t0z_min = float(0.02 + 0.03 * rng.random())

        def floats(v):
            return [repr(float(c)) for c in v]

        def path(name):
            return str(out / name)

        self.commands = [
            ("model_icosa", ["model", "icosa", "--t0", "-1", "-1", "-1", "--seed", seeds[0],
                             "--out", path("icosa.json"), "--report", path("icosa_report.json")]),
            ("verify", ["verify", "--model", path("icosa.json"), "--seed", seeds[1],
                        "--out", path("verify.json")]),
            ("model_poly", ["model", "poly", "--poly", "cube", "--t0", *floats(self.cube_target),
                            "--orientation", "random", "--seed", seeds[2],
                            *(["--t", "1.0"] if cube_t_max > 1.0 else []),
                            "--out", path("cube.json"), "--report", path("cube_report.json")]),
            ("model_tetra", ["model", "tetra", "--t", *floats(self.tetra_target),
                             "--out", path("tetra.json"), "--report", path("tetra_report.json")]),
            ("decompose", ["decompose", "--out", path("decompose.json")]),
            ("optimize", ["optimize", "--t0", *floats(self.opt_target), "--n", str(self.N_ROTATIONS),
                          "--seed", seeds[3], "--out", path("optimize.json")]),
            ("boundary", ["boundary", "--n", str(self.N_CURVE), "--t0z-min", repr(self.t0z_min),
                          "--validate", "--out", path("boundary.csv")]),
            ("scan", ["scan", "--n", str(self.N_CURVE), "--t0z-min", repr(self.t0z_min),
                      "--out", path("scan.csv")]),
        ]
        self.round = [0]

    def run(self, _op) -> tuple[dict[str, bytes], dict[str, float]]:
        for f in (ROOT / self.out).iterdir():
            f.unlink()
        stats = {"rss_mb": 0.0}
        for name, argv in self.commands:
            log = ROOT / self.out.parent / f"{name}.log"
            code, wall, rss = run_child(["-m", "finitelhs.cli", *argv], log)
            if code != 0:
                raise OpFailed(f"cli {name} exited {code}: {log.read_text()[-500:]}")
            stats[f"cli.{name}.s"] = wall
            stats["rss_mb"] = max(stats["rss_mb"], rss)
        artifacts = {f.name: f.read_bytes() for f in sorted((ROOT / self.out).iterdir())}
        return artifacts, stats

    @staticmethod
    def key(output):
        return output

    def check(self, outputs: list, rng: np.random.Generator) -> list[str]:
        problems = []
        for artifacts in filter(None, outputs):
            docs = {name: (json.loads(text) if name.endswith(".json") else text.decode())
                    for name, text in artifacts.items()}
            problems += checks.check_model(docs["icosa.json"], [-1.0, -1.0, -1.0],
                                           "icosahedron", rng, orientation="vertex")
            problems += checks.check_model(docs["cube.json"], self.cube_target, "cube", rng,
                                           rotation=docs["cube.json"]["config"]["quaternion"])
            problems += checks.check_model(docs["tetra.json"], self.tetra_target,
                                           "tetrahedron", rng)
            for name in ("icosa_report.json", "cube_report.json", "tetra_report.json",
                         "verify.json"):
                problems += [f"{name}: {p}" for p in checks.check_residuals(docs[name])]
            if docs["verify.json"]["t"] != docs["icosa.json"]["t"]:
                problems.append("verify.json: visibility differs from the model file")
            problems += checks.check_decomposition(docs["decompose.json"])
            problems += checks.check_optimize(docs["optimize.json"], self.opt_target)
            problems += checks.check_boundary_rows(checks.parse_csv(docs["boundary.csv"]),
                                                   self.N_CURVE, self.t0z_min)
            rows = checks.parse_csv(docs["scan.csv"])
            problems += checks.check_scan_rows(rows, self.N_CURVE, self.t0z_min)
            problems += checks.check_scan_summary(docs["scan.csv.summary.json"], rows)
        return problems


WORKLOADS = {w.name: w for w in (AxialScan, CertifyBatch, CliSession)}
