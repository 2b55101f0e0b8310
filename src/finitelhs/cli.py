"""Command-line front end.

Subcommands
    model {icosa|poly|tetra}   build a model, verify it, write JSON
    boundary                   sample the axial unsteerability boundary (CSV)
    scan                       boundary scan with regimes, entropy, concurrence
    optimize                   random-orientation search vs analytic maximum
    decompose                  product-state decompositions of the critical
                               separable state
    verify                     re-verify a model JSON file

Exit codes: 0 success, 1 verification/residual failure, 2 usage or domain
error.  Outputs are deterministic for a fixed seed; every JSON document
embeds the resolved configuration.  ``--out -`` streams to stdout.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .belldecomp import (
    critical_separable_density,
    extract_local_blochs,
    mirror_decomposition,
    product_state_decomposition,
    schmidt_residual,
)
from .boundary import (
    DEFAULT_T0Z_MIN,
    SOLVER_TOL,
    boundary_csv,
    norm_integral,
    sample_axial_family,
)
from .geometry import (
    Rotation,
    cube,
    icosahedron,
    octahedron,
    random_rotation,
    special_orientations,
)
from .lhsmodel import (
    FiniteLhsModel,
    build_polyhedron_model,
    build_separable_tetrahedron_model,
    entropy_bits,
    model_from_json,
    model_to_dict,
    verify_model,
)
from .qstate import DiagMat3, max_physical_visibility
from .scanopt import (
    REGIMES,
    VISIBILITY_PER_S,
    analytic_norm_constants,
    random_orientation_search,
    scan_axial_family,
    scan_csv,
    scan_summary,
)

RESIDUAL_GATE = 1e-8
DIRECTIONS = 1024
DECOMP_GATE = 1e-10
OPTIMIZE_SLACK = 1e-9
AXIAL_TOL = 1e-12
VALIDATE_GATE = 1e-8


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _verified(model: FiniteLhsModel, seed: int, config: dict, head: dict,
              cap: str = "") -> tuple[dict, int]:
    """Verify ``model`` on DIRECTIONS seeded random directions.  Returns the
    report document, ``head`` first and ``config`` last (which gains the
    direction count, seed and gate), and the exit code.  Raises ValueError
    naming the visibility t (followed by ``cap``) and the largest physical
    visibility along T0 when t * T0 is not a physical state."""
    t_phys = max_physical_visibility(model.target)
    if model.visibility > t_phys:
        raise ValueError(
            f"visibility t = {model.visibility:.6g}{cap} gives an unphysical "
            f"state along T0; the largest physical visibility is {t_phys:.6g}"
        )
    x = np.random.default_rng(seed).standard_normal((DIRECTIONS, 3))
    report = verify_model(model, model.simulated_state(),
                          x / np.linalg.norm(x, axis=1, keepdims=True))
    config.update(directions=DIRECTIONS, direction_seed=seed, residual_gate=RESIDUAL_GATE)
    doc = {**head, "t": model.visibility, "entropy_bits": entropy_bits(model),
           "residuals": report.as_dict(), "worst": report.worst(), "config": config}
    return doc, 0 if report.max_residual < RESIDUAL_GATE else 1


def _parse_orientation(tokens: list[str], seed: int) -> tuple[Rotation, dict]:
    """Resolve an orientation spec to a rotation plus a config echo."""
    if len(tokens) == 1 and tokens[0] in REGIMES:
        rot = special_orientations()[REGIMES.index(tokens[0])]
        echo = {"orientation": tokens[0]}
    elif len(tokens) == 1 and tokens[0] == "random":
        rot = random_rotation(np.random.default_rng(seed))
        echo = {"orientation": "random", "seed": seed}
    elif len(tokens) == 4:
        try:
            rot = Rotation.from_quat([float(t) for t in tokens])
        except ValueError as exc:
            raise ValueError(f"bad orientation quaternion: {exc}") from exc
        echo = {"orientation": tokens}
    else:
        raise ValueError(
            "orientation must be vertex|face|edge|random or four quaternion components"
        )
    echo["quaternion"] = [float(c) for c in rot.quat]
    return rot, echo


def cmd_model(args: argparse.Namespace) -> int:
    if args.solid == "tetra":
        model = build_separable_tetrahedron_model(DiagMat3(*args.t))
        t_max = 1.0
        config: dict = {"subcommand": "model tetra", "t": list(args.t)}
    else:
        target = DiagMat3(*args.t0)
        orientation, echo = _parse_orientation(args.orientation, args.seed)
        poly_name = "icosahedron" if args.solid == "icosa" else args.poly
        maker = {"icosahedron": icosahedron, "cube": cube, "octahedron": octahedron}[poly_name]
        poly = maker(orientation)
        model = build_polyhedron_model(target, poly)
        t_max = model.visibility
        if args.t is not None:
            model = build_polyhedron_model(target, poly, visibility=args.t)
        config = {"subcommand": f"model {args.solid}", "polyhedron": poly_name,
                  "t0": list(args.t0), "t": model.visibility, **echo}
    report, code = _verified(model, args.seed, config, {"t_max": t_max},
                             f" (t_max = {t_max:.6g})")
    if args.out is not None:
        _write_text(serialize.dumps({**model_to_dict(model), "config": config}), args.out)
    _write_text(serialize.dumps(report), args.report)
    return code


def _solver_meta(subcommand: str, args: argparse.Namespace) -> dict:
    """The sidecar of a boundary solve on ``args.n`` rows: its settings."""
    return {"subcommand": subcommand, "n": args.n, "t0z_min": args.t0z_min,
            "solver_tol": SOLVER_TOL, "integral": "carlson_rg"}


def cmd_boundary(args: argparse.Namespace) -> int:
    curve = sample_axial_family(args.n, t0z_min=args.t0z_min)
    _write_text(boundary_csv(curve), args.out)
    meta = _solver_meta("boundary", args)
    if args.validate:
        residuals = np.abs(norm_integral(curve.t0x, curve.t0z) - 1.0)
        row = int(np.argmax(residuals))
        worst = float(residuals[row])
        meta["validation"] = {"max_abs_n_minus_1": worst, "row": row}
    if args.out not in (None, "-"):
        _write_text(serialize.dumps(meta), args.out + ".meta.json")
    if args.validate and worst > VALIDATE_GATE:
        _fail(f"boundary re-validation failed: |N - 1| = {worst:.3e} at row {row}")
        return 1
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    points = scan_axial_family(args.n, t0z_min=args.t0z_min)
    _write_text(scan_csv(points), args.out)
    meta = _solver_meta("scan", args)
    summary_path = args.summary
    if args.out not in (None, "-"):
        _write_text(serialize.dumps(meta), args.out + ".meta.json")
        if summary_path is None:
            summary_path = args.out + ".summary.json"
    if summary_path is not None:
        summary = scan_summary(points)
        summary["config"] = meta
        _write_text(serialize.dumps(summary), summary_path)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    # search T0 / 2**e, its largest entry in [0.5, 1): the best rotation is
    # the same, and each visibility of T0 is the one found times 2**-e, exactly
    target, exp = DiagMat3(*args.t0).normalized()
    random_best, rot = random_orientation_search(target, args.n, seed=args.seed)
    axial = abs(abs(target.dx) - abs(target.dy)) <= AXIAL_TOL
    doc: dict = {"random_best": math.ldexp(random_best, -exp), "n": args.n, "seed": args.seed}
    if axial:       # the analytic maximum is known for axial targets only
        best = max(analytic_norm_constants(abs(target.dx), abs(target.dz))) * VISIBILITY_PER_S
        doc = {"analytic_best": math.ldexp(best, -exp), **doc,
               "gap": math.ldexp(best - random_best, -exp)}
    doc.update(best_quaternion=[float(c) for c in rot.quat], axial=axial,
               config={"subcommand": "optimize", "t0": list(args.t0),
                       "n": args.n, "seed": args.seed})
    _write_text(serialize.dumps(doc), args.out)
    if axial and random_best > best + OPTIMIZE_SLACK:
        _fail("random search exceeded the analytic maximum on an axial target")
        return 1
    return 0


def _family_doc(states: list[np.ndarray]) -> tuple[dict, float]:
    rho = critical_separable_density()
    recon = sum(np.outer(v, v.conj()) for v in states) / len(states)
    recon_err = float(np.abs(recon - rho).max())
    schmidt = [schmidt_residual(v) for v in states]
    alice, bob = [], []
    for v in states:
        a, b = extract_local_blochs(v)
        alice.append([float(c) for c in a])
        bob.append([float(c) for c in b])
    doc = {
        "states": [[[float(z.real), float(z.imag)] for z in v] for v in states],
        "schmidt_residuals": schmidt,
        "reconstruction_residual": recon_err,
        "alice_blochs": alice,
        "bob_blochs": bob,
    }
    worst = max(recon_err, max(schmidt))
    return doc, worst


def cmd_decompose(args: argparse.Namespace) -> int:
    families = {}
    worst = 0.0
    for name, states in (("primary", product_state_decomposition()),
                         ("mirror", mirror_decomposition())):
        families[name], w = _family_doc(states)
        worst = max(worst, w)
    out = {
        "families": families,
        "config": {"subcommand": "decompose", "solution": "both"},
    }
    _write_text(serialize.dumps(out), args.out)
    if worst >= DECOMP_GATE:
        _fail(f"decomposition residual {worst:.3e} exceeds {DECOMP_GATE}")
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    report, code = _verified(model, args.seed, {"subcommand": "verify", "model": args.model}, {})
    _write_text(serialize.dumps(report), args.out)
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number with an exponent,
    such as -1e-3, as a value: argparse's own pattern has no exponent, so
    it takes -1e-3 for an option.  Its subparsers are of this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finitelhs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="build and verify a model")
    solid = p_model.add_subparsers(dest="solid", required=True)
    for name, what in (("icosa", "icosahedron model"), ("poly", "generic polyhedron model"),
                       ("tetra", "separable-boundary tetrahedron model")):
        p = solid.add_parser(name, help=what)
        if name == "poly":
            p.add_argument("--poly", required=True,
                           choices=("icosahedron", "cube", "octahedron"))
        if name == "tetra":
            p.add_argument("--t", type=float, nargs=3, required=True,
                           metavar=("DX", "DY", "DZ"),
                           help="correlation diagonal with |dx|+|dy|+|dz| = 1")
        else:
            p.add_argument("--t0", type=float, nargs=3, required=True,
                           metavar=("DX", "DY", "DZ"))
            p.add_argument("--orientation", nargs="+", default=["vertex"],
                           help="vertex|face|edge|random or four quaternion components")
            p.add_argument("--t", type=float, default=None,
                           help="visibility (default: the maximum)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for directions and random orientation")
        p.add_argument("--out", default=None,
                       help="model JSON path ('-' for stdout; default: not written)")
        p.add_argument("--report", default="-",
                       help="verification report JSON path (default stdout)")

    p_boundary = sub.add_parser("boundary", help="sample the axial boundary curve")
    p_boundary.add_argument("--n", type=int, default=200)
    p_boundary.add_argument("--t0z-min", type=float, default=DEFAULT_T0Z_MIN)
    p_boundary.add_argument("--validate", action="store_true",
                            help="re-check the norm integral on every row; with a file "
                                 "--out, the sidecar records the largest |N - 1| and its row")
    p_boundary.add_argument("--out", default="-")

    p_scan = sub.add_parser("scan", help="scan regimes, entropy, concurrence")
    p_scan.add_argument("--n", type=int, default=500)
    p_scan.add_argument("--t0z-min", type=float, default=DEFAULT_T0Z_MIN)
    p_scan.add_argument("--out", default="-")
    p_scan.add_argument("--summary", default=None,
                        help="summary JSON path (default: <out>.summary.json)")

    p_opt = sub.add_parser("optimize", help="random-orientation search")
    p_opt.add_argument("--t0", type=float, nargs=3, required=True,
                       metavar=("DX", "DY", "DZ"))
    p_opt.add_argument("--n", type=int, default=1000)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", default="-")

    p_dec = sub.add_parser("decompose", help="critical-state product decompositions")
    p_dec.add_argument("--out", default="-")

    p_ver = sub.add_parser("verify", help="re-verify a model JSON file")
    p_ver.add_argument("--model", required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default="-")
    return parser


_DISPATCH = {
    "model": cmd_model,
    "boundary": cmd_boundary,
    "scan": cmd_scan,
    "optimize": cmd_optimize,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
