from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import elliprg

from finitelhs import boundary, geometry, scanopt
from finitelhs.boundary import axial_boundary_solve, sample_axial_family
from finitelhs.geometry import (
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    icosahedron,
    random_rotation,
    special_orientations,
)
from finitelhs.lhsmodel import verify_model
from finitelhs.qstate import DiagMat3, TState
from finitelhs.scanopt import (
    REGIMES,
    AxialScan,
    analytic_norm_constants,
    best_regime,
    face_edge_crossover,
    random_orientation_search,
    scan_axial_family,
    scan_csv,
    scan_summary,
    vertex_face_crossover,
    werner_reference,
    zero_entanglement_interval,
)

from conftest import random_unit_vectors
import scan_oracle
from scan_oracle import axial_point, max_visibility, optimal_axial_model, special_vertices

WERNER = DiagMat3(-0.5, -0.5, -0.5)
VISIBILITY_PER_S = ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / 12.0
WERNER_T_MAX = ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / 6.0


@pytest.fixture(scope="module")
def pts100():
    return scan_axial_family(100)


@pytest.fixture(scope="module")
def pts50():
    return scan_axial_family(50)


def test_analytic_constants_isotropic_point():
    s = analytic_norm_constants(0.5, 0.5)
    assert s == pytest.approx((2.0, 2.0, 2.0), abs=1e-12)


def test_analytic_constants_match_numeric_sums():
    orientations = special_orientations()
    for t0x, t0z in [(0.3, 0.9), (0.7, 0.1), (0.5, 0.5), (0.45, 0.62),
                     (0.9, 0.9), (0.05, 1.0), (1.0, 0.05), (0.61, 0.33)]:
        s_values = analytic_norm_constants(t0x, t0z)
        target = DiagMat3(t0x, t0x, t0z)
        for s, rot in zip(s_values, orientations):
            assert max_visibility(target, rot) == pytest.approx(
                s * VISIBILITY_PER_S, abs=1e-10)


def test_analytic_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        analytic_norm_constants(0.0, 0.5)
    with pytest.raises(ValueError):
        analytic_norm_constants(0.5, -0.1)
    with pytest.raises(ValueError):
        analytic_norm_constants(np.array([0.5, 0.0]), np.array([0.5, 0.5]))
    # the message names the first bad entry, not whole arrays
    with pytest.raises(ValueError, match=r"positive, got \(0\.0, 0\.5\)$"):
        analytic_norm_constants(0.0, 0.5)
    with pytest.raises(ValueError, match=r"positive, got \(0\.0, 0\.1\) at index 1$"):
        analytic_norm_constants(np.array([0.5, 0.0, 0.0]), np.array([0.5, 0.1, 0.2]))
    with pytest.raises(ValueError, match=r"positive, got \(0\.2, -0\.1\) at index 2$"):
        analytic_norm_constants(0.2, np.array([0.5, 0.1, -0.1]))


def test_constants_and_regime_are_elementwise():
    """Scalars in, floats and an int out; arrays in, arrays out, equal to
    the scalar values element by element."""
    t0x, t0z = np.array([0.3, 0.5, 0.05, 0.7]), np.array([0.9, 0.5, 1.0, 0.1])
    scalar = [analytic_norm_constants(x, z) for x, z in zip(t0x, t0z)]
    assert all(type(s) is float for row in scalar for s in row)
    assert all(type(best_regime(row)) is int for row in scalar)
    columns = analytic_norm_constants(t0x, t0z)
    assert [c.shape for c in columns] == [(4,)] * 3
    assert np.array_equal(np.stack(columns, axis=1), scalar)
    assert best_regime(columns).tolist() == [best_regime(row) for row in scalar]


def test_max_visibility_isotropic_is_orientation_free(rng):
    for _ in range(10):
        rot = random_rotation(rng)
        assert max_visibility(WERNER, rot) == pytest.approx(WERNER_T_MAX, abs=1e-12)


def test_random_search_isotropic_hits_closed_form():
    for n in (1, 10, 500):
        visibility, rot = random_orientation_search(WERNER, n, seed=7)
        assert visibility == pytest.approx(WERNER_T_MAX, abs=1e-12)
        assert np.linalg.norm(rot.quat) == pytest.approx(1.0, abs=1e-12)


def test_random_search_is_reproducible():
    a, rot_a = random_orientation_search(DiagMat3(0.4, 0.4, 0.8), 200, seed=3)
    b, rot_b = random_orientation_search(DiagMat3(0.4, 0.4, 0.8), 200, seed=3)
    assert a == b
    assert np.array_equal(rot_a.quat, rot_b.quat)
    c, _ = random_orientation_search(DiagMat3(0.4, 0.4, 0.8), 200, seed=4)
    assert c != a


def test_random_search_never_beats_special_orientations():
    t0x, t0z = 0.45, 0.75
    best = max(analytic_norm_constants(t0x, t0z)) * VISIBILITY_PER_S
    found, _ = random_orientation_search(DiagMat3(t0x, t0x, t0z), 2000, seed=0)
    assert found <= best + 1e-9


def test_random_search_validation():
    with pytest.raises(ValueError):
        random_orientation_search(WERNER, 0)
    with pytest.raises(ValueError):
        random_orientation_search(DiagMat3(0.5, 0.5, 0.0), 10)


@pytest.mark.parametrize("t0z,expected", [(0.2, "vertex"), (0.95, "edge")])
def test_optimal_axial_model_regimes(t0z, expected, rng):
    t0x = axial_boundary_solve(t0z)
    model, regime = optimal_axial_model(t0x, t0z)
    assert regime == expected
    assert model.visibility == pytest.approx(
        max(analytic_norm_constants(t0x, t0z)) * VISIBILITY_PER_S, abs=1e-12)
    state = TState(model.target.scaled(model.visibility))
    report = verify_model(model, state, random_unit_vectors(rng, 300))
    assert report.max_residual < 1e-10


def test_scan_regime_sequence(pts100):
    regimes = pts100.regime
    # vertex, then face, then edge, with no interleaving
    collapsed = [regimes[0]]
    for r in regimes[1:]:
        if r != collapsed[-1]:
            collapsed.append(r)
    assert collapsed == list(REGIMES)
    regime = np.array(regimes)
    assert pts100.t0z[regime == "vertex"].max() < 0.5
    assert pts100.t0z[regime == "edge"].min() > 0.88


def test_scan_point_internal_consistency(pts100):
    s_values = np.stack([pts100.s_vertex, pts100.s_face, pts100.s_edge])
    idx = best_regime(s_values)
    assert pts100.regime == [REGIMES[i] for i in idx]
    s_best = np.choose(idx, s_values)
    assert (s_best >= s_values.max(axis=0) - 1e-9).all()
    assert pts100.t_max == pytest.approx(s_best * VISIBILITY_PER_S, abs=1e-15)
    assert ((0.0 < pts100.t_max) & (pts100.t_max < 1.0)).all()
    assert (pts100.concurrence >= 0.0).all()


def test_best_regime_tie_break():
    assert best_regime((2.0, 2.0, 2.0)) == 0
    assert best_regime((2.0 - 1e-11, 2.0 - 3e-11, 2.0)) == 0
    assert best_regime((1.9, 2.0, 2.0 - 1e-11)) == 1
    assert best_regime((1.9, 1.95, 2.0)) == 2
    # the noisy isotropic boundary point classifies as vertex
    s = analytic_norm_constants(0.5 + 1.5e-11, 0.5)
    assert REGIMES[best_regime(s)] == "vertex"


def test_scan_werner_grid_point(pts50):
    assert pts50.t0z[24] == 0.5
    assert pts50.t0x[24] == pytest.approx(0.5, abs=1e-9)
    assert pts50.t_max[24] == pytest.approx(WERNER_T_MAX, abs=1e-9)
    assert pts50.entropy_bits[24] == pytest.approx(np.log2(12.0), abs=1e-12)
    assert pts50.concurrence[24] == pytest.approx(0.1428889727400946, abs=1e-12)


def test_scan_entropy_peaks_at_isotropic_point(pts50):
    entropies = pts50.entropy_bits
    assert entropies.max() == pytest.approx(np.log2(12.0), abs=1e-12)
    assert int(np.argmax(entropies)) == 24
    assert entropies.min() == pytest.approx(2.959433895314834, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.floats(1e-3, 0.999), st.sampled_from([1e-10, 1e-12]))
@example(50, 0.02, 1e-10)       # t0z = 0.5 on the grid: the three-way tie
@example(50, 0.02, 1e-12)
@example(2, 0.5, 1e-12)         # t0z = 0.5 and t0z = 1 only
def test_scan_matches_the_pointwise_oracle(n, t0z_min, tol):
    """Every column at every point, bit for bit and of the same type, as
    the scalar oracle computes the rows at the solved boundary points."""
    curve = sample_axial_family(n, t0z_min=t0z_min, tol=tol)
    rotated = special_vertices()
    expected = [axial_point(z, x, rotated) for z, x in zip(curve.t0z, curve.t0x)]
    scan = scan_axial_family(n, t0z_min=t0z_min, tol=tol)

    def bits(values):
        return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]

    assert [f.name for f in fields(AxialScan)] == scan_csv(scan).split("\n")[0].split(",")
    for i, f in enumerate(fields(AxialScan)):
        assert bits(np.asarray(getattr(scan, f.name)).tolist()) == bits(row[i] for row in expected)


def test_werner_reference_matches_the_pointwise_oracle():
    _, _, s_vertex, s_face, s_edge, regime, t_max, entropy, concurrence = \
        axial_point(0.5, 0.5, special_vertices())
    assert regime == "vertex" and s_vertex == s_face == s_edge
    assert werner_reference() == {"t": t_max, "entropy": entropy, "concurrence": concurrence}


def test_second_scan_reuses_the_constant_geometry(monkeypatch):
    """After one scan and summary, another builds no polyhedron and runs
    no bisection besides its grid solve."""
    scan_summary(scan_axial_family(24, t0z_min=0.035))
    calls = {"polyhedron_from_vertices": 0, "bisect": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(geometry, "polyhedron_from_vertices")
    count(boundary, "bisect")
    count(scanopt, "bisect")
    scan_summary(scan_axial_family(24, t0z_min=0.035))
    assert calls == {"polyhedron_from_vertices": 0, "bisect": 1}


def test_special_vertices_are_cached_and_read_only():
    vertices = geometry.special_vertices()
    assert vertices is geometry.special_vertices()
    assert vertices.shape == (3, 12, 3)
    assert np.array_equal(vertices, special_vertices())
    with pytest.raises(ValueError):
        vertices[0, 0, 0] = 0.0


def test_werner_reference_dicts_are_independent():
    first = werner_reference()
    expected = dict(first)
    first["t"] = 0.0
    first["extra"] = 1
    assert werner_reference() == expected


def test_scan_rejects_bad_sizes():
    with pytest.raises(ValueError):
        scan_axial_family(1)


def test_zero_entanglement_interval(pts100, pts50):
    lo, hi = zero_entanglement_interval(pts100)
    assert hi == 1.0
    assert 0.98 < lo < 0.995
    assert zero_entanglement_interval(pts50) == (1.0, 1.0)


def scan_of(t0z, concurrence) -> AxialScan:
    """A scan with the given t0z and concurrence columns; the columns the
    interval does not read are filled with constants."""
    fill = np.full(len(t0z), 0.5)
    return AxialScan(np.asarray(t0z, dtype=float), fill, fill, fill, fill,
                     ["vertex"] * len(t0z), fill, fill, np.asarray(concurrence, dtype=float))


def test_zero_entanglement_interval_none_when_all_entangled():
    assert zero_entanglement_interval(scan_of([0.1, 0.2], [0.2, 0.1])) is None
    # picks the longest run, not the first
    scan = scan_of([0.1, 0.2, 0.3, 0.4, 0.5], [0.0, 0.5, 0.0, 0.0, 0.0])
    assert zero_entanglement_interval(scan) == (0.3, 0.5)


CONCURRENCES = st.sampled_from([0.0, 5e-13, 1e-12, 1.0000000000000002e-12, 0.1])


@settings(max_examples=200, deadline=None)
@given(st.lists(CONCURRENCES, min_size=1, max_size=40), st.booleans())
@example([0.0] * 7, True)                       # all zero
@example([0.1] * 7, False)                      # none zero
@example([0.0, 0.0, 0.1, 0.0, 0.0, 0.1, 0.0, 0.0], True)    # runs of equal length
@example([0.1, 0.0, 0.0, 0.1, 1e-12, 5e-13, 0.1], False)
def test_zero_entanglement_interval_matches_the_loop_oracle(concurrence, dyadic):
    """The array version returns what walking the points returns: the
    longest run by t0z extent, the first on a tie (dyadic grids make equal
    runs tie exactly), or None."""
    n = len(concurrence)
    t0z = np.arange(1, n + 1) / 64.0 if dyadic else np.linspace(0.02, 1.0, n)
    got = zero_entanglement_interval(scan_of(t0z, concurrence))
    assert got == scan_oracle.zero_entanglement_interval(t0z, concurrence)
    assert got is None or all(type(v) is float for v in got)


def test_vertex_face_crossover_is_the_isotropic_point():
    assert vertex_face_crossover() == 0.5


def test_face_edge_crossover_location():
    t0z = face_edge_crossover()
    assert 0.86 < t0z < 0.92
    assert t0z == pytest.approx(0.8906291, abs=1e-5)
    # mpmath at 40 digits, from the face and edge sums and 2 R_G
    assert abs(t0z - 0.89062911872632091) <= 2 * np.spacing(t0z)


def test_face_edge_crossover_matches_nested_root():
    """Against brentq on 2 R_G for the boundary and on explicit vertex sums
    for the regimes, sharing no code with the bisection."""
    _, face, edge = (icosahedron(rot).vertices for rot in special_orientations())

    def boundary_t0x(t0z):
        return brentq(lambda a: 2.0 * elliprg(a * a, a * a, t0z * t0z) - 1.0,
                      1e-6, 1.5, xtol=1e-15, rtol=8.9e-16)

    def gap(t0z):
        diag = np.array([boundary_t0x(t0z), boundary_t0x(t0z), t0z])
        return (np.linalg.norm(face * diag, axis=1).sum()
                - np.linalg.norm(edge * diag, axis=1).sum())

    root = brentq(gap, 0.6, 0.98, xtol=1e-15, rtol=8.9e-16)
    assert face_edge_crossover() == pytest.approx(root, abs=1e-9)


def test_werner_reference_values():
    ref = werner_reference()
    assert set(ref) == {"t", "entropy", "concurrence"}
    assert ref["t"] == pytest.approx(WERNER_T_MAX, abs=1e-9)
    assert ref["entropy"] == pytest.approx(np.log2(12.0), abs=1e-12)
    assert ref["concurrence"] == pytest.approx(0.1428889727400946, abs=1e-10)


def test_werner_reference_is_the_closed_form():
    """The isotropic boundary point is exactly t0x = t0z = 1/2, so the
    reference visibility is (1 + sqrt5) l / 3 to rounding, with no
    boundary solve in between."""
    l = np.sqrt((5.0 + 2.0 * np.sqrt(5.0)) / 15.0)
    exact = (1.0 + np.sqrt(5.0)) * l / 3.0
    assert abs(werner_reference()["t"] - exact) <= 2 * np.spacing(exact)


def test_scan_csv_format(pts50):
    text = scan_csv(AxialScan(**{name: col[:3] for name, col in vars(pts50).items()}))
    lines = text.strip().split("\n")
    assert lines[0] == "t0z,t0x,s_vertex,s_face,s_edge,regime,t_max,entropy_bits,concurrence"
    assert len(lines) == 4
    assert lines[1].split(",")[5] == "vertex"
    assert float(lines[1].split(",")[0]) == pytest.approx(0.02)


def test_scan_summary_contents(pts100):
    summary = scan_summary(pts100)
    assert set(summary) == {"min_entropy_bits", "regime_crossovers",
                            "zero_entanglement_interval", "werner_refs"}
    assert summary["min_entropy_bits"] == pytest.approx(2.9594, abs=1e-3)
    vf, fe = summary["regime_crossovers"]
    assert vf == pytest.approx(0.5, abs=2e-6)
    assert 0.86 < fe < 0.92
    lo, hi = summary["zero_entanglement_interval"]
    assert hi == 1.0
