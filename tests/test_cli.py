import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finitelhs
from finitelhs import geometry, serialize
from finitelhs.boundary import norm_integral, sample_axial_family
from finitelhs.cli import main
from finitelhs.geometry import (
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    Rotation,
    cube,
    icosahedron,
    octahedron,
    random_rotation,
    tetrahedron,
)
from finitelhs.lhsmodel import (
    build_polyhedron_model,
    build_separable_tetrahedron_model,
    model_from_json,
    model_to_dict,
    verify_model,
)
from finitelhs.qstate import DiagMat3

from sphere_quadrature import fibonacci_sphere

WERNER_T_MAX = ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / 6.0
WERNER_ARGS = ["--t0", "-0.5", "-0.5", "-0.5"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_model_icosa_werner_report(capsys):
    code, out, err = run(capsys, ["model", "icosa", *WERNER_ARGS])
    assert code == 0
    doc = serialize.loads(out)
    assert doc["t_max"] == pytest.approx(WERNER_T_MAX, abs=1e-12)
    assert doc["t"] == doc["t_max"]
    assert doc["entropy_bits"] == pytest.approx(np.log2(12.0), abs=1e-12)
    assert doc["residuals"]["max_bloch_err"] < 1e-10
    assert doc["residuals"]["max_trace_err"] < 1e-10
    assert doc["residuals"]["n_directions"] == 1024
    assert doc["residuals"]["certificate_err"] <= 1e-15
    assert doc["worst"] == {"residual": None, "face": None}
    assert list(doc) == ["t_max", "t", "entropy_bits", "residuals", "worst", "config"]
    assert doc["config"]["orientation"] == "vertex"
    assert doc["config"]["direction_seed"] == 0
    assert len(doc["config"]["quaternion"]) == 4


def test_model_icosa_writes_model_file(capsys, tmp_path):
    path = tmp_path / "werner.json"
    code, out, _ = run(capsys, ["model", "icosa", *WERNER_ARGS,
                                "--out", str(path), "--report", "-"])
    assert code == 0
    text = path.read_text()
    doc = serialize.loads(text)
    assert len(doc["atoms"]) == 12
    assert doc["config"]["subcommand"] == "model icosa"
    model = model_from_json(text)
    report = verify_model(model, model.simulated_state(), fibonacci_sphere(1024))
    assert report.max_residual < 1e-10

    code2, out2, _ = run(capsys, ["verify", "--model", str(path)])
    assert code2 == 0
    vdoc = serialize.loads(out2)
    assert vdoc["t"] == pytest.approx(doc["t"], abs=0)
    assert vdoc["residuals"]["max_bloch_err"] < 1e-10
    assert vdoc["residuals"]["certificate_err"] <= 1e-15
    assert vdoc["worst"] == {"residual": None, "face": None}


def test_model_icosa_submaximal_visibility(capsys):
    code, out, _ = run(capsys, ["model", "icosa", *WERNER_ARGS, "--t", "0.5"])
    assert code == 0
    doc = serialize.loads(out)
    assert doc["t"] == 0.5
    assert doc["t_max"] == pytest.approx(WERNER_T_MAX, abs=1e-12)
    assert doc["residuals"]["max_bloch_err"] < 1e-10


def test_model_icosa_singular_target(capsys):
    code, out, err = run(capsys, ["model", "icosa", "--t0", "0.5", "0.5", "0.0"])
    assert code == 2
    assert "error:" in err
    assert "singular" in err


def test_model_icosa_visibility_above_max(capsys):
    code, _, err = run(capsys, ["model", "icosa", *WERNER_ARGS, "--t", "0.9"])
    assert code == 2
    assert "outside" in err


def test_model_orientation_variants(capsys):
    for name in ("face", "edge"):
        code, out, _ = run(capsys, ["model", "icosa", *WERNER_ARGS,
                                    "--orientation", name])
        assert code == 0
        assert serialize.loads(out)["t_max"] == pytest.approx(WERNER_T_MAX, abs=1e-12)

    code, out, _ = run(capsys, ["model", "icosa", *WERNER_ARGS,
                                "--orientation", "1", "0", "0", "0"])
    assert code == 0
    assert serialize.loads(out)["config"]["quaternion"] == [1.0, 0.0, 0.0, 0.0]

    code, _, err = run(capsys, ["model", "icosa", *WERNER_ARGS,
                                "--orientation", "sideways"])
    assert code == 2
    assert "orientation" in err


def test_model_random_orientation_is_seeded(capsys):
    quats = []
    for _ in range(2):
        code, out, _ = run(capsys, ["model", "icosa", *WERNER_ARGS,
                                    "--orientation", "random", "--seed", "5"])
        assert code == 0
        quats.append(serialize.loads(out)["config"]["quaternion"])
    assert quats[0] == quats[1]


def test_model_poly_cube(capsys):
    code, out, _ = run(capsys, ["model", "poly", "--poly", "cube",
                                "--t0", "-0.45", "-0.45", "-0.45"])
    assert code == 0
    doc = serialize.loads(out)
    # 8 vertices, uniform weights for an isotropic target
    assert doc["entropy_bits"] == pytest.approx(3.0, abs=1e-12)
    expected = 4.0 * (1.0 / np.sqrt(3.0)) / (8 * 0.45)
    assert doc["t_max"] == pytest.approx(expected, abs=1e-12)
    assert doc["residuals"]["max_bloch_err"] < 1e-10


def test_model_poly_octahedron(capsys):
    code, out, _ = run(capsys, ["model", "poly", "--poly", "octahedron",
                                "--t0", "-0.4", "-0.4", "-0.4",
                                "--orientation", "1", "0", "0", "0"])
    assert code == 0
    doc = serialize.loads(out)
    expected = 2.0 * (1.0 / np.sqrt(3.0)) / (6 * 0.4)
    assert doc["t_max"] == pytest.approx(expected, abs=1e-12)
    assert doc["residuals"]["max_bloch_err"] < 1e-10


def test_model_poly_octahedron_every_orientation(capsys):
    """Rotating the octahedron leaves ~1e-17 dot products between orthogonal
    vertices; the sign-sum identity must still hold."""
    for orientation in ("vertex", "face", "edge", "random"):
        code, out, _ = run(capsys, ["model", "poly", "--poly", "octahedron",
                                    "--t0", "0.3", "0.3", "0.3",
                                    "--orientation", orientation, "--seed", "1"])
        assert code == 0, orientation
        assert serialize.loads(out)["residuals"]["max_bloch_err"] < 1e-10


@pytest.mark.filterwarnings("error")
def test_model_rejects_non_finite_target(capsys):
    code, _, err = run(capsys, ["model", "icosa", "--t0", "inf", "0.5", "0.5"])
    assert code == 2
    assert "finite" in err


QUATERNION = [1.0, -0.5, 0.25, 0.125]


def _orientation(scale: int) -> list[str]:
    """``model icosa`` at the quaternion QUATERNION * 2**scale, both files
    written to stdout."""
    return ["model", "icosa", *WERNER_ARGS, "--out", "-", "--orientation",
            *(repr(math.ldexp(c, scale)) for c in QUATERNION)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,code,like", [
    (["model", "icosa", "--t0", "1e160", "1e160", "1e160"], 2, None),
    (["model", "icosa", "--t0", "1e-200", "1e-200", "1e-200"], 2, None),
    (["optimize", "--t0", "1e-200", "1e-200", "1e-200"], 0, None),
    (["optimize", "--t0", "1e160", "1e160", "1e160"], 0, None),
    (["model", "tetra", "--t", "1e308", "1e308", "0"], 2, None),
    (["model", "icosa", "--t0", "1e160", "1e160", "1e160", "--t", "3e-161"], 0, None),
    (["model", "icosa", "--t0", "1e308", "1e308", "1e308"], 2, None),
    (["optimize", "--t0", "1e-310", "1e-310", "1e-310"], 2, None),
    (["model", "icosa", "--t0", "-1e-1", "-1e-1", "-1e-1"], 0, None),
    (["optimize", "--t0", "-1e-3", "-1e-3", "-0.5"], 0, None),
    (["model", "icosa", *WERNER_ARGS, "--orientation", "1e200", "1e200", "0", "0"], 0, None),
    (["model", "icosa", *WERNER_ARGS, "--orientation", "1e-170", "0", "0", "0"], 0, None),
    (["model", "icosa", *WERNER_ARGS, "--orientation", "3e-162", "0", "0", "0"], 0, None),
    (_orientation(1023), 0, _orientation(0)),
    (_orientation(-1000), 0, _orientation(0)),
    # 10**17 points is past any 57-bit address space: refused, never granted
    (["boundary", "--n", str(10**17)], 2, None),
    (["scan", "--n", str(10**17)], 2, None),
    (["optimize", "--t0", "-0.3", "-0.3", "-0.5", "--n", str(10**17)], 2, None),
], ids=["icosa-huge", "icosa-tiny", "optimize-tiny", "optimize-huge", "tetra-huge",
        "icosa-huge-physical", "icosa-max", "optimize-subnormal", "icosa-exponent-t0",
        "optimize-exponent-t0", "quaternion-huge", "quaternion-tiny",
        "quaternion-subnormal-square", "quaternion-2^1023", "quaternion-2^-1000",
        "boundary-huge-n", "scan-huge-n", "optimize-huge-n"])
def test_target_scale_exits_cleanly(capsys, argv, code, like):
    """A target or a quaternion whose squares under- or overflow is
    rescaled by a power of two, and a negative value written with an
    exponent is a value, not an option: each command exits 0 with a
    positive visibility, or exits 2 with one line; never a warning, a
    traceback or exit 1.  So does a grid or a search too large to
    allocate: a MemoryError is an input error.  A quaternion scaled by
    2**1023 or 2**-1000 gives the model and report of the unscaled one
    byte for byte, its ``orientation`` tokens aside."""
    got, out, err = run(capsys, argv)
    assert got == code, err
    if code == 2:
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    elif like is None:
        doc = serialize.loads(out)
        assert err == "" and 0 < doc.get("t", doc.get("random_best")) < np.inf
        assert 0 < doc.get("analytic_best", 1.0) < np.inf
    else:
        _, expected, _ = run(capsys, like)
        for token, plain in zip(argv[-4:], like[-4:]):
            out = out.replace(f'"{token}"', f'"{plain}"')
        assert err == "" and out == expected


def test_model_tetra(capsys):
    code, out, _ = run(capsys, ["model", "tetra", "--t", "0.5", "0.25", "0.25"])
    assert code == 0
    doc = serialize.loads(out)
    assert doc["t_max"] == 1.0
    assert doc["t"] == 1.0
    assert doc["entropy_bits"] == 2.0
    assert doc["residuals"]["max_bloch_err"] < 1e-10
    assert doc["residuals"]["certificate_err"] <= 1e-15
    assert doc["worst"]["face"] is None
    assert doc["config"]["t"] == [0.5, 0.25, 0.25]


def test_model_tetra_off_boundary(capsys):
    code, _, err = run(capsys, ["model", "tetra", "--t", "0.3", "0.3", "0.3"])
    assert code == 2
    assert "separable boundary" in err


def test_usage_errors_exit_2(capsys):
    assert main(["model", "icosa"]) == 2       # missing --t0
    capsys.readouterr()
    assert main([]) == 2                       # missing subcommand
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    # the direction count is the constant DIRECTIONS, not an option
    assert main(["model", "icosa", *WERNER_ARGS, "--directions", "8"]) == 2
    assert "unrecognized arguments: --directions 8" in capsys.readouterr().err
    assert main(["verify", "--model", "m.json", "--directions", "8"]) == 2
    assert "unrecognized arguments: --directions 8" in capsys.readouterr().err


def test_boundary_stdout(capsys):
    code, out, _ = run(capsys, ["boundary", "--n", "5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t0z,t0x"
    assert len(lines) == 6
    first = [float(c) for c in lines[1].split(",")]
    assert first[0] == pytest.approx(0.02)


def test_boundary_validate_and_meta(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    code, _, _ = run(capsys, ["boundary", "--n", "8", "--validate",
                              "--out", str(path)])
    assert code == 0
    assert path.exists()
    meta = serialize.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["subcommand"] == "boundary"
    assert meta["n"] == 8
    assert meta["integral"] == "carlson_rg"
    curve = sample_axial_family(8)
    residuals = np.abs(norm_integral(curve.t0x, curve.t0z) - 1.0)
    assert meta["validation"] == {"max_abs_n_minus_1": residuals.max(),
                                  "row": int(np.argmax(residuals))}
    assert 0.0 < residuals.max() <= 1e-10


def test_boundary_without_validate_writes_no_validation(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    assert run(capsys, ["boundary", "--n", "8", "--out", str(path)])[0] == 0
    meta = serialize.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert "validation" not in meta


def test_boundary_validate_names_the_failing_row(capsys, tmp_path, monkeypatch):
    """The 1e-8 gate fails at the row where the re-evaluated integral is
    furthest from 1, and the sidecar records that row."""
    def off_at_row_5(a, z):
        values = finitelhs.boundary.norm_integral(a, z)
        values[5] += 2e-8
        return values

    monkeypatch.setattr(finitelhs.cli, "norm_integral", off_at_row_5)
    path = tmp_path / "curve.csv"
    code, _, err = run(capsys, ["boundary", "--n", "8", "--validate", "--out", str(path)])
    assert code == 1
    assert "at row 5" in err
    validation = serialize.loads((tmp_path / "curve.csv.meta.json").read_text())["validation"]
    assert validation["row"] == 5
    assert 1e-8 < validation["max_abs_n_minus_1"] < 3e-8


def test_scan_rejects_the_removed_seed_flag(capsys):
    code, _, err = run(capsys, ["scan", "--n", "3", "--seed", "0"])
    assert code == 2
    assert "--seed" in err


def test_boundary_usage_error(capsys):
    code, _, err = run(capsys, ["boundary", "--n", "1"])
    assert code == 2
    assert "error:" in err


def test_scan_writes_sidecars(capsys, tmp_path):
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, ["scan", "--n", "25", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("t0z,t0x,s_vertex")
    assert len(lines) == 26
    meta = serialize.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert "seed" not in meta
    summary = serialize.loads((tmp_path / "scan.csv.summary.json").read_text())
    assert summary["config"] == meta
    assert summary["werner_refs"]["entropy"] == pytest.approx(np.log2(12.0), abs=1e-12)
    assert summary["regime_crossovers"][0] == pytest.approx(0.5, abs=2e-6)
    assert 0.86 < summary["regime_crossovers"][1] < 0.92
    assert summary["config"]["n"] == 25


def test_scan_stdout_skips_summary(capsys, tmp_path):
    code, out, _ = run(capsys, ["scan", "--n", "10"])
    assert code == 0
    assert out.startswith("t0z,t0x,s_vertex")
    # explicit --summary works without a CSV file
    spath = tmp_path / "sum.json"
    code, out, _ = run(capsys, ["scan", "--n", "10", "--summary", str(spath)])
    assert code == 0
    assert set(serialize.loads(spath.read_text())) == {
        "min_entropy_bits", "regime_crossovers", "zero_entanglement_interval",
        "werner_refs", "config"}


def test_scan_runs_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--n", "20", "--out", str(a)]) == 0
    assert main(["scan", "--n", "20", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.summary.json").read_bytes() == \
        (tmp_path / "b.csv.summary.json").read_bytes()


def test_optimize_werner(capsys):
    code, out, _ = run(capsys, ["optimize", *WERNER_ARGS, "--n", "50"])
    assert code == 0
    doc = serialize.loads(out)
    assert doc["axial"] is True
    assert doc["analytic_best"] == pytest.approx(WERNER_T_MAX, abs=1e-12)
    assert doc["random_best"] <= doc["analytic_best"] + 1e-9
    assert doc["gap"] == pytest.approx(doc["analytic_best"] - doc["random_best"], abs=0)
    assert len(doc["best_quaternion"]) == 4
    assert doc["config"]["seed"] == 0


def test_optimize_nonaxial(capsys):
    code, out, _ = run(capsys, ["optimize", "--t0", "-0.5", "-0.4", "-0.3",
                                "--n", "20", "--seed", "2"])
    assert code == 0
    doc = serialize.loads(out)
    assert doc["axial"] is False
    # no maximum is known off the axial family: the report has the search only
    assert "analytic_best" not in doc and "gap" not in doc
    rot = Rotation.from_quat(doc["best_quaternion"])
    model = build_polyhedron_model(DiagMat3(-0.5, -0.4, -0.3), icosahedron(rot))
    assert doc["random_best"] == pytest.approx(model.visibility, rel=0, abs=1e-12)


def test_optimize_builds_no_polyhedron(capsys, monkeypatch):
    """The special orientations and both optimize branches read constant
    vertex arrays; none builds a hull."""
    calls = []
    build = geometry.polyhedron_from_vertices
    monkeypatch.setattr(geometry, "polyhedron_from_vertices",
                        lambda *args, **kwargs: calls.append(args) or build(*args, **kwargs))
    geometry.special_orientations()
    for t0 in (WERNER_ARGS, ["--t0", "-0.5", "-0.4", "-0.3"]):
        assert run(capsys, ["optimize", *t0, "--n", "20"])[0] == 0
    assert calls == []


def test_optimize_singular(capsys):
    code, _, err = run(capsys, ["optimize", "--t0", "0.5", "0.5", "0.0"])
    assert code == 2
    assert "singular" in err


def test_decompose_both(capsys):
    code, out, _ = run(capsys, ["decompose"])
    assert code == 0
    doc = serialize.loads(out)
    assert set(doc["families"]) == {"primary", "mirror"}
    for family in doc["families"].values():
        assert len(family["states"]) == 4
        assert all(len(v) == 4 and len(v[0]) == 2 for v in family["states"])
        assert max(family["schmidt_residuals"]) < 1e-12
        assert family["reconstruction_residual"] < 1e-12
    primary = np.array(doc["families"]["primary"]["bob_blochs"])
    mirror = np.array(doc["families"]["mirror"]["bob_blochs"])
    assert np.allclose(np.sort(primary, axis=0), np.sort(-mirror, axis=0), atol=1e-10)


def test_decompose_single_family(capsys):
    """Each family is written whole beside the other, and the config says
    both; the removed --solution option exits 2."""
    code, out, _ = run(capsys, ["decompose"])
    assert code == 0
    doc = serialize.loads(out)
    assert list(doc["families"]) == ["primary", "mirror"]
    assert doc["config"] == {"subcommand": "decompose", "solution": "both"}
    mirror = doc["families"]["mirror"]
    assert list(mirror) == ["states", "schmidt_residuals", "reconstruction_residual",
                            "alice_blochs", "bob_blochs"]
    code, out, err = run(capsys, ["decompose", "--solution", "mirror"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --solution" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["verify", "--model", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_verify_flags_inconsistent_model(capsys, tmp_path):
    """A model file whose claimed visibility disagrees with its response
    scale must fail verification with exit code 1."""
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, ["model", "icosa", *WERNER_ARGS, "--out", str(path)])
    assert code == 0
    doc = serialize.loads(path.read_text())
    doc["t"] = 0.5  # claims less visibility than the scale-1 response delivers
    path.write_text(serialize.dumps(doc))
    code, out, _ = run(capsys, ["verify", "--model", str(path)])
    assert code == 1
    vdoc = serialize.loads(out)
    assert vdoc["residuals"]["max_bloch_err"] == pytest.approx(
        0.25 * (WERNER_T_MAX - 0.5), abs=1e-9)
    assert vdoc["worst"]["residual"] == "certificate_err"
    assert 0 <= vdoc["worst"]["face"] < 20


def test_model_unphysical_max_visibility_exits_2(capsys):
    """t_max of T0 = (0.9, 0.9, 0.9) is 0.4762, past the last physical
    visibility 1 / 2.7 along T0; the error names both."""
    code, out, err = run(capsys, ["model", "icosa", "--t0", "0.9", "0.9", "0.9"])
    assert code == 2
    assert out == ""
    assert "t_max = 0.476214" in err
    assert "largest physical visibility is 0.37037" in err
    assert len(err.splitlines()) == 1
    code, out, _ = run(capsys, ["model", "icosa", "--t0", "0.9", "0.9", "0.9", "--t", "0.37"])
    assert code == 0
    assert serialize.loads(out)["residuals"]["max_bloch_err"] < 1e-10


def test_verify_unphysical_visibility_exits_2(capsys, tmp_path):
    """A model file whose t is edited past the physical set along T0 exits
    2 naming t and the largest physical visibility, as ``model`` does."""
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, ["model", "icosa", *WERNER_ARGS, "--out", str(path)])
    assert code == 0
    doc = serialize.loads(path.read_text())
    doc["t"] = 2.5  # diag(-1.25, -1.25, -1.25); the last physical t is 2
    path.write_text(serialize.dumps(doc))
    code, out, err = run(capsys, ["verify", "--model", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: visibility t = 2.5 gives an unphysical state")
    assert "largest physical visibility is 2" in err
    assert len(err.splitlines()) == 1


def test_verify_degenerate_preimages_exit_2(capsys, tmp_path):
    """A sign-mixture model whose preimages span no solid around the origin,
    or repeat one, is a domain error (exit 2, one line naming the count),
    not a failed verification: it is no built-in solid."""
    angles = np.arange(6) * np.pi / 3
    circle = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
    coplanar = {"t0": [0.5, 0.5, 0.5], "t": 0.5, "response_kind": "sign_mixture",
                "scale": 1.0, "atoms": [{"q": 1 / 6, "lambda": list(p), "lambda_prime": list(p)}
                                        for p in circle]}
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, ["model", "icosa", *WERNER_ARGS, "--out", str(path)])
    assert code == 0
    duplicated = serialize.loads(path.read_text())
    atom = duplicated["atoms"][0]
    atom["q"] /= 2.0
    duplicated["atoms"].append(dict(atom))
    for doc, reason in ((coplanar, "6 vertices match no built-in solid"),
                        (duplicated, "13 vertices match no built-in solid")):
        path.write_text(serialize.dumps(doc))
        code, out, err = run(capsys, ["verify", "--model", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and reason in err
        assert len(err.splitlines()) == 1


NAN, INF = float("nan"), float("inf")


def _first_atom(doc, **fields):
    return {**doc, "atoms": [{**doc["atoms"][0], **fields}, *doc["atoms"][1:]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit,message", [
    (lambda d: _first_atom(d, q=NAN), "atom weights must be finite and nonnegative, got nan"),
    (lambda d: {**d, "t": NAN}, "visibility must be finite and nonnegative, got nan"),
    (lambda d: {**d, "t": INF}, "visibility must be finite and nonnegative, got inf"),
    (lambda d: {**d, "atoms": {"a": 1}}, "malformed model document"),
    (lambda d: {**d, "atoms": [1.5, *d["atoms"][1:]]}, "malformed model document"),
    (lambda d: _first_atom(d, **{"lambda": [0.0, 1.0]}), "atom 0 lambda must have shape (3,), got (2,)"),
    (lambda d: {**d, "atoms": []}, "model needs at least one atom"),
    (lambda d: _first_atom(d, eta=[NAN, 0.0, 0.0]), "atom alice_bloch must be finite"),
    (lambda d: _first_atom(d, **{"lambda": ["a", 0, 0]}),
     "atom 0 lambda: could not convert string to float: 'a'"),
], ids=["nan-q", "nan-t", "inf-t", "atoms-object", "atom-number", "short-lambda", "no-atoms",
        "nan-eta", "string-lambda"])
def test_verify_malformed_model_exit_2(capsys, tmp_path, edit, message):
    """Every malformed or non-finite model entry is an input error: exit
    2, one line naming the entry, no traceback."""
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, ["model", "icosa", "--t0", "-0.5", "-0.4", "-0.3",
                              "--orientation", "random", "--out", str(path)])
    assert code == 0
    path.write_text(json.dumps(edit(serialize.loads(path.read_text()))))
    code, out, err = run(capsys, ["verify", "--model", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("edit,message", [
    (lambda d: {**d, "t": 10**400}, "malformed model document: int too large to convert to float"),
    (lambda d: _first_atom(d, q=10**400), "atom 0 q: int too large to convert to float"),
], ids=["huge-t", "huge-q"])
def test_verify_huge_integer_exit_2(capsys, tmp_path, edit, message):
    """A 400-digit integer has no float: the command, run as its own
    process, exits 2 with one line, not 1 with an OverflowError traceback."""
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, ["model", "icosa", *WERNER_ARGS, "--out", str(path)])
    assert code == 0
    path.write_text(json.dumps(edit(serialize.loads(path.read_text()))))
    src = str(Path(finitelhs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "finitelhs.cli", "verify", "--model", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_verify_bounds_a_sign_mixture_vertex_count(capsys, tmp_path):
    """A sign mixture whose atom count is no built-in solid's exits 2 with
    one line naming the count and the solids."""
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, ["model", "icosa", *WERNER_ARGS, "--out", str(path)])
    assert code == 0
    doc = serialize.loads(path.read_text())
    doc["atoms"] = (doc["atoms"] * 3)[:34]
    path.write_text(serialize.dumps(doc))
    code, out, err = run(capsys, ["verify", "--model", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: 34 vertices match no built-in solid")
    assert "icosahedron 12, tetrahedron 4, cube 8, octahedron 6" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("orientation", ["vertex", "face", "random"])
@pytest.mark.parametrize("poly", ["icosahedron", "cube", "octahedron"])
def test_verify_reproduces_the_model_report(capsys, tmp_path, poly, orientation):
    """``verify`` of a file written by ``model`` prints that report's
    residuals and worst, byte for byte: the loaded model is the solid it
    was built on, with the table's inradius, not a hull of its preimages."""
    path = tmp_path / "m.json"
    code, built, _ = run(capsys, ["model", "poly", "--poly", poly, "--t0", "-0.5", "-0.4", "-0.3",
                                  "--orientation", orientation, "--seed", "9",
                                  "--out", str(path)])
    assert code == 0
    code, loaded, _ = run(capsys, ["verify", "--model", str(path), "--seed", "9"])
    assert code == 0
    built, loaded = serialize.loads(built), serialize.loads(loaded)
    for key in ("t", "entropy_bits", "residuals", "worst"):
        assert serialize.dumps(loaded[key]) == serialize.dumps(built[key]), key
    for key in ("directions", "direction_seed", "residual_gate"):
        assert loaded["config"][key] == built["config"][key], key


def _sign_mixture_doc(preimages: np.ndarray) -> dict:
    """A sign-mixture document on ``preimages``, with the weights and Bloch
    vectors ``build_polyhedron_model`` would give them for one target."""
    target = DiagMat3(-0.5, -0.4, -0.3)
    mapped = target.apply(preimages)
    norms = np.linalg.norm(mapped, axis=1)
    return {"t0": list(target.as_array()), "t": 0.5, "response_kind": "sign_mixture",
            "scale": 1.0, "atoms": [{"q": q, "lambda": list(b), "lambda_prime": list(p)}
                                    for q, b, p in zip(norms / norms.sum(),
                                                       mapped / norms[:, None], preimages)]}


def _mirrored(doc: dict) -> dict:
    """x -> -x on every atom's lambda and lambda_prime."""
    return {**doc, "atoms": [{**a, **{key: [-a[key][0], *a[key][1:]]
                                      for key in ("lambda", "lambda_prime")}}
                             for a in doc["atoms"]]}


@pytest.mark.parametrize("edit,code,message", [
    (_mirrored, 0, None),
    (lambda d: {**d, "atoms": d["atoms"][1:] + d["atoms"][:1]}, 2,
     "12 vertices match no built-in solid in its canonical vertex order"),
    (lambda d: _sign_mixture_doc(np.vstack([cube().vertices, octahedron().vertices])), 2,
     "14 vertices match no built-in solid in its canonical vertex order"),
    (lambda d: _sign_mixture_doc(tetrahedron().vertices), 2,
     "unsupported polyhedron 'tetrahedron': not inversion symmetric"),
], ids=["mirrored", "order-rotated", "cube+octahedron", "tetrahedron"])
def test_verify_accepts_only_built_in_solids(capsys, tmp_path, edit, code, message):
    """A sign-mixture file verifies only on a built-in solid in canonical
    vertex order: a mirror image of a rotated model is one (exit 0); the
    same atoms in another order, a cube and an octahedron together, or a
    tetrahedron, which is not inversion symmetric, exit 2 with one line."""
    path = tmp_path / "m.json"
    assert run(capsys, ["model", "icosa", "--t0", "-0.5", "-0.4", "-0.3",
                        "--orientation", "random", "--out", str(path)])[0] == 0
    path.write_text(serialize.dumps(edit(serialize.loads(path.read_text()))))
    got, out, err = run(capsys, ["verify", "--model", str(path)])
    assert got == code
    if message is None:
        assert err == "" and serialize.loads(out)["worst"] == {"residual": None, "face": None}
    else:
        assert out == ""
        assert err.startswith("error: " + message)
        assert len(err.splitlines()) == 1


def _base_docs() -> list[dict]:
    """Model documents as ``model --out`` writes them: a rotated
    icosahedron, a rotated cube and the tetrahedron's linear response."""
    target = DiagMat3(-0.5, -0.4, -0.3)
    rot = random_rotation(np.random.default_rng(3))
    models = [build_polyhedron_model(target, icosahedron(rot)),
              build_polyhedron_model(target, cube(rot)),
              build_separable_tetrahedron_model(DiagMat3(-0.25, 0.35, -0.4))]
    return [serialize.loads(serialize.dumps(model_to_dict(m))) for m in models]


BASE_DOCS = _base_docs()
REQUIRED = ("t0", "t", "response_kind", "scale", "atoms")
SOLID_COUNTS = {len(solid.vertices) for solid in geometry.SOLID_CONSTANTS.values()}
WRONG_TYPES = ("x", "0.5", "nan", None, True, False, {}, [], [0.5], [[0.5]], {"q": 0.5})
NOT_NUMBERS = (NAN, INF, -INF, 10**400, -10**400)


def _paths(doc: dict) -> tuple[list, list]:
    """(every required key, every number) of a model document, as paths."""
    keys = [(k,) for k in REQUIRED]
    numbers = [("t",), ("scale",), *[("t0", k) for k in range(3)]]
    for i, atom in enumerate(doc["atoms"]):
        keys += [("atoms", i)] + [("atoms", i, key) for key in atom]
        numbers += [("atoms", i, "q")] + [("atoms", i, key, k) for key in atom if key != "q"
                                          for k in range(3)]
    return keys, numbers


def _mutate(doc: dict, data) -> dict:
    """One malformed edit of ``doc``: a required key deleted, a value of
    the wrong type, a number made NaN, infinite or a 400-digit integer,
    atoms dropped, or atoms added up to a count that is no built-in
    solid's."""
    keys, numbers = _paths(doc)
    how = data.draw(st.sampled_from(["delete", "swap", "number", "drop", "grow"]))
    if how in ("drop", "grow"):
        atoms = doc["atoms"]
        if how == "drop":
            keep = data.draw(st.lists(st.sampled_from(range(len(atoms))), unique=True,
                                      max_size=len(atoms) - 1))
            return {**doc, "atoms": [atoms[i] for i in sorted(keep)]}
        n = data.draw(st.integers(len(atoms) + 1, 40).filter(lambda n: n not in SOLID_COUNTS))
        return {**doc, "atoms": [atoms[i % len(atoms)] for i in range(n)]}
    path = data.draw(st.sampled_from(numbers if how == "number" else keys))
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if how == "delete":
        del node[last]
    else:
        node[last] = data.draw(st.sampled_from(NOT_NUMBERS if how == "number" else WRONG_TYPES))
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(range(len(BASE_DOCS))), st.booleans(), st.data())
def test_verify_fuzzed_model_files(tmp_path, base, mutate, data):
    """``verify`` on a mutated model document exits 2 with one line, never
    1 and never with a traceback or a warning; the document as written
    verifies, exit 0."""
    doc = _mutate(BASE_DOCS[base], data) if mutate else BASE_DOCS[base]
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["verify", "--model", str(path)])
    if not mutate:
        assert code == 0
        return
    assert code == 2, out.getvalue()
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:") and len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("base,edit,message", [
    (0, lambda d: {**d, "t": "0.5"}, "malformed model document: t: expected a number, got str"),
    (0, lambda d: {**d, "t": True}, "t: expected a number, got bool"),
    (0, lambda d: {**d, "scale": False}, "scale: expected a number, got bool"),
    (0, lambda d: {**d, "t0": ["-0.5", -0.4, -0.3]}, "t0: expected a number, got str"),
    (0, lambda d: _first_atom(d, q=str(d["atoms"][0]["q"])), "atom 0 q: expected a number, got str"),
    (2, lambda d: {**d, "scale": NAN}, "a linear response has scale 1, got nan"),
], ids=["string-t", "bool-t", "bool-scale", "string-t0", "string-q", "linear-nan-scale"])
def test_verify_fuzz_finds_exit_2(capsys, tmp_path, base, edit, message):
    """Documents the fuzz found: a number written as a string or a bool
    was read as that number (the first three exited 1, the next two 0),
    and a linear response's scale was never read (exit 0)."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(edit(BASE_DOCS[base])))
    code, out, err = run(capsys, ["verify", "--model", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_model_non_finite_quaternion_exit_2(capsys, bad):
    code, out, err = run(capsys, ["model", "icosa", "--t0", "-0.5", "-0.5", "-0.5",
                                  "--orientation", bad, "1", "0", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad orientation quaternion:") and "finite" in err
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,tol", [("boundary", "nan"), ("boundary", "inf"),
                                         ("scan", "nan")])
def test_non_finite_tol_exit_2(capsys, command, tol):
    """--tol nan once gave t0x = 0 at t0z = 1, --tol inf t0x = 0.7500005 on
    every row, and scan --tol nan a message full of arrays.  The solver
    tolerance is now the constant SOLVER_TOL, and argparse refuses --tol."""
    code, out, err = run(capsys, [command, "--n", "4", "--tol", tol])
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: --tol {tol}" in err


def test_error_messages_print_plain_numbers(capsys, tmp_path):
    """numpy 2 scalars are formatted as floats, not as np.float64(...)."""
    code, _, err = run(capsys, ["model", "icosa", *WERNER_ARGS, "--t", "0.9"])
    assert code == 2
    assert err.startswith("error: requested visibility 0.9 is outside [0, 0.8571852969867928]")
    assert "np." not in err
    code, _, err = run(capsys, ["model", "tetra", "--t", "0.4", "0.4", "-0.3"])
    assert code == 2
    assert err.startswith("error: target diagonal (0.4, 0.4, -0.3) is not on")
    assert "np." not in err
    path = tmp_path / "m.json"
    run(capsys, ["model", "icosa", *WERNER_ARGS, "--out", str(path)])
    path.write_text(json.dumps(_first_atom(serialize.loads(path.read_text()), q=0.1)))
    code, _, err = run(capsys, ["verify", "--model", str(path)])
    assert code == 2
    assert err.startswith("error: atom weights must sum to 1, got 1.01")
    assert "np." not in err


def test_cli_imports_no_scipy(tmp_path):
    """Importing the CLI and running every subcommand loads no scipy
    module: scipy is needed by the tests alone."""
    script = f"""
import sys
from finitelhs import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
out = {str(tmp_path)!r}
assert cli.main(["model", "icosa", "--t0", "-1", "-1", "-1", "--orientation", "face",
                 "--out", out + "/m.json", "--report", out + "/r.json"]) == 0
assert cli.main(["verify", "--model", out + "/m.json", "--out", out + "/v.json"]) == 0
assert cli.main(["decompose", "--out", out + "/d.json"]) == 0
assert cli.main(["optimize", "--t0", "0.3", "-0.4", "0.5", "--n", "100",
                 "--out", out + "/o.json"]) == 0
assert cli.main(["boundary", "--n", "3", "--validate", "--out", out + "/b.csv"]) == 0
assert cli.main(["scan", "--n", "3", "--out", out + "/s.csv"]) == 0
assert not scipy_modules(), scipy_modules()
"""
    src = str(Path(finitelhs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_model_out_dash_streams_model(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, ["model", "icosa", *WERNER_ARGS,
                                "--out", "-", "--report", str(report)])
    assert code == 0
    doc = serialize.loads(out)
    assert len(doc["atoms"]) == 12
    assert serialize.loads(report.read_text())["residuals"]["max_bloch_err"] < 1e-10


def test_reports_are_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["model", "icosa", *WERNER_ARGS, "--seed", "9"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
