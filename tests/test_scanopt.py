import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import elliprg

from finitelhs.boundary import axial_boundary_solve
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
    AxialPoint,
    analytic_norm_constants,
    best_regime,
    face_edge_crossover,
    max_visibility,
    optimal_axial_model,
    random_orientation_search,
    scan_axial_family,
    scan_csv,
    scan_summary,
    vertex_face_crossover,
    werner_reference,
    zero_entanglement_interval,
)

from conftest import random_unit_vectors

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
    regimes = [p.regime for p in pts100]
    # vertex, then face, then edge, with no interleaving
    collapsed = [regimes[0]]
    for r in regimes[1:]:
        if r != collapsed[-1]:
            collapsed.append(r)
    assert collapsed == list(REGIMES)
    assert max(p.t0z for p in pts100 if p.regime == "vertex") < 0.5
    assert min(p.t0z for p in pts100 if p.regime == "edge") > 0.88


def test_scan_point_internal_consistency(pts100):
    for p in pts100:
        s_values = (p.s_vertex, p.s_face, p.s_edge)
        assert p.regime == REGIMES[best_regime(s_values)]
        assert p.s_best == s_values[REGIMES.index(p.regime)]
        assert p.s_best >= max(s_values) - 1e-9
        assert p.t_max == pytest.approx(p.s_best * VISIBILITY_PER_S, abs=1e-15)
        assert 0.0 < p.t_max < 1.0
        assert p.concurrence >= 0.0


def test_best_regime_tie_break():
    assert best_regime((2.0, 2.0, 2.0)) == 0
    assert best_regime((2.0 - 1e-11, 2.0 - 3e-11, 2.0)) == 0
    assert best_regime((1.9, 2.0, 2.0 - 1e-11)) == 1
    assert best_regime((1.9, 1.95, 2.0)) == 2
    # the noisy isotropic boundary point classifies as vertex
    s = analytic_norm_constants(0.5 + 1.5e-11, 0.5)
    assert REGIMES[best_regime(s)] == "vertex"


def test_scan_werner_grid_point(pts50):
    p = pts50[24]
    assert p.t0z == 0.5
    assert p.t0x == pytest.approx(0.5, abs=1e-9)
    assert p.t_max == pytest.approx(WERNER_T_MAX, abs=1e-9)
    assert p.entropy_bits == pytest.approx(np.log2(12.0), abs=1e-12)
    assert p.concurrence == pytest.approx(0.1428889727400946, abs=1e-12)


def test_scan_entropy_peaks_at_isotropic_point(pts50):
    entropies = np.array([p.entropy_bits for p in pts50])
    assert entropies.max() == pytest.approx(np.log2(12.0), abs=1e-12)
    assert int(np.argmax(entropies)) == 24
    assert entropies.min() == pytest.approx(2.959433895314834, abs=1e-6)


def test_scan_rejects_bad_sizes():
    with pytest.raises(ValueError):
        scan_axial_family(1)


def test_zero_entanglement_interval(pts100, pts50):
    lo, hi = zero_entanglement_interval(pts100)
    assert hi == 1.0
    assert 0.98 < lo < 0.995
    assert zero_entanglement_interval(pts50) == (1.0, 1.0)


def test_zero_entanglement_interval_none_when_all_entangled():
    def point(t0z, conc):
        return AxialPoint(t0z=t0z, t0x=0.5, s_vertex=2.0, s_face=2.0,
                          s_edge=2.0, s_best=2.0, regime="vertex",
                          t_max=0.85, entropy_bits=3.0, concurrence=conc)

    assert zero_entanglement_interval([point(0.1, 0.2), point(0.2, 0.1)]) is None
    # picks the longest run, not the first
    pts = [point(0.1, 0.0), point(0.2, 0.5), point(0.3, 0.0),
           point(0.4, 0.0), point(0.5, 0.0)]
    assert zero_entanglement_interval(pts) == (0.3, 0.5)


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


def test_scan_csv_format(pts50):
    text = scan_csv(pts50[:3])
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
