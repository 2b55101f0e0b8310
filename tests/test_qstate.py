import numpy as np
import pytest

from finitelhs.qstate import DiagMat3, TState, concurrence_axial, max_physical_visibility

from conftest import BELL_CORNERS, as_diag, random_axial_physical_diag, random_physical_diag, random_unit_vectors
from qstate_oracle import (HalfState, Measurement, assemblage, bell_weights,
                           is_on_separable_boundary, tstate_density)

WERNER = DiagMat3(-0.5, -0.5, -0.5)


def test_assemblage_maximally_mixed():
    state = TState(DiagMat3(0.0, 0.0, 0.0))
    half = assemblage(state, Measurement(np.array([0.0, 0.0, 1.0]), 1))
    assert half.trace == 0.5
    assert np.allclose(half.bloch, 0.0)


def test_assemblage_werner_z():
    half = assemblage(TState(WERNER), Measurement(np.array([0.0, 0.0, 1.0]), 1))
    assert half.trace == 0.5
    assert np.allclose(half.bloch, [0.0, 0.0, -0.25], atol=1e-15)


def test_assemblage_oblique_direction():
    state = TState(DiagMat3(0.2, 0.3, 0.4))
    x = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    half = assemblage(state, Measurement(x, -1))
    expected = np.array([-0.2 / (2 * np.sqrt(2)), 0.0, -0.4 / (2 * np.sqrt(2))])
    assert half.trace == 0.5
    assert np.allclose(half.bloch, expected, atol=1e-15)


def test_assemblage_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        Measurement(np.array([0.0, 0.0, 2.0]), 1)


def test_measurement_rejects_bad_outcome():
    with pytest.raises(ValueError):
        Measurement(np.array([0.0, 0.0, 1.0]), 2)


def test_no_signalling_completeness(rng):
    """Outcome sum of the assemblage is the maximally mixed marginal."""
    for row in random_physical_diag(rng, 50):
        state = TState(as_diag(row))
        for x in random_unit_vectors(rng, 20):
            plus = assemblage(state, Measurement(x, 1))
            minus = assemblage(state, Measurement(x, -1))
            assert plus.trace + minus.trace == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(plus.bloch + minus.bloch, 0.0, atol=1e-15)


def test_bell_weights_maximally_mixed():
    w = bell_weights(TState(DiagMat3(0.0, 0.0, 0.0)))
    assert np.allclose(w, 0.25)


def test_bell_weights_critical_werner():
    w = bell_weights(TState(WERNER))
    assert sorted(w) == pytest.approx([1 / 8, 1 / 8, 1 / 8, 5 / 8], abs=1e-15)
    # the dominant weight sits on the singlet slot
    assert w[3] == pytest.approx(5 / 8, abs=1e-15)


def test_bell_weights_pure_bell_state():
    w = bell_weights(TState(DiagMat3(1.0, 1.0, -1.0)))
    assert sorted(w) == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)
    assert w[2] == pytest.approx(1.0)


def test_bell_weights_match_density_eigenvalues(rng):
    """Weights agree with the eigenvalues of the explicit 4x4 matrix."""
    for row in random_physical_diag(rng, 1000):
        state = TState(as_diag(row))
        w = np.sort(bell_weights(state))
        eig = np.sort(np.linalg.eigvalsh(tstate_density(state)))
        assert np.allclose(w, eig, atol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_physicality_boundary_is_weight_zero_crossing(rng):
    """Scaling a diagonal outward, TState stops validating exactly where the
    smallest Bell weight crosses zero."""
    for row in random_physical_diag(rng, 20):
        d = np.asarray(row)
        norm = np.abs(d).sum()
        if norm < 1e-3:
            continue
        d = d / norm  # on or outside nothing yet; rescale below
        w = np.asarray([(1 + d[0] - d[1] + d[2]) / 4,
                        (1 - d[0] + d[1] + d[2]) / 4,
                        (1 + d[0] + d[1] - d[2]) / 4,
                        (1 - d[0] - d[1] - d[2]) / 4])
        slopes = w - 0.25
        shrinking = slopes < 0
        if not shrinking.any():
            continue
        # weight_i(u) = 1/4 + u * slopes_i; first zero crossing:
        u_star = np.min(0.25 / -slopes[shrinking])
        TState(as_diag(d * u_star * (1 - 1e-9)))
        TState(as_diag(d * u_star))
        with pytest.raises(ValueError):
            TState(as_diag(d * u_star * (1 + 1e-6)))


def test_max_physical_visibility_is_the_tstate_limit(rng):
    """TState accepts t * d up to max_physical_visibility(d) and rejects it
    just beyond; the limit is 1 / max_k(-c_k . d) over the Bell corners."""
    for row in random_physical_diag(rng, 50):
        d = as_diag(row)
        t_phys = max_physical_visibility(d)
        assert t_phys == pytest.approx(1.0 / (-(BELL_CORNERS @ row)).max(), rel=1e-11)
        TState(d.scaled(t_phys * (1 - 1e-9)))
        with pytest.raises(ValueError):
            TState(d.scaled(t_phys * (1 + 1e-9)))
    assert max_physical_visibility(DiagMat3(0.9, 0.9, 0.9)) == pytest.approx(1 / 2.7)
    assert max_physical_visibility(WERNER) == pytest.approx(1.0 / 0.5)
    assert max_physical_visibility(DiagMat3(0.0, 0.0, 0.0)) == np.inf


def test_concurrence_axial_werner_full_visibility():
    assert concurrence_axial(WERNER, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_concurrence_axial_zero_visibility(rng):
    for row in random_axial_physical_diag(rng, 10):
        assert concurrence_axial(as_diag(row), 0.0) == 0.0


def test_concurrence_axial_formula_case():
    assert concurrence_axial(DiagMat3(0.6, 0.6, 0.2), 0.5) == 0.0


def test_concurrence_axial_rejects_non_axial():
    with pytest.raises(ValueError):
        concurrence_axial(DiagMat3(0.6, 0.5, 0.2), 0.5)
    # numpy scalars become plain floats, not np.float64(...) in the message
    with pytest.raises(ValueError, match=r"requires \|dx\| == \|dy\|, got \(0\.6, 0\.5\)$"):
        concurrence_axial(DiagMat3(*np.array([0.6, 0.5, 0.2])), 0.5)
    assert type(DiagMat3(*np.array([0.6, 0.5, 0.2])).dx) is float


def test_concurrence_axial_rejects_negative_visibility():
    with pytest.raises(ValueError):
        concurrence_axial(WERNER, -0.1)
    with pytest.raises(ValueError, match=r"nonnegative, got -0\.1$"):
        concurrence_axial(WERNER, np.float64(-0.1))


def test_concurrence_matches_bell_weight_oracle(rng):
    """On physical axial states the formula equals 2*max(weight) - 1, clamped."""
    rows = random_axial_physical_diag(rng, 1000)
    for row in rows:
        state = TState(as_diag(row))
        expected = max(0.0, 2.0 * float(np.max(bell_weights(state))) - 1.0)
        got = concurrence_axial(as_diag(row), 1.0)
        assert got == pytest.approx(expected, abs=1e-12)


def test_separable_boundary_predicate():
    assert is_on_separable_boundary(TState(DiagMat3(1 / 3, 1 / 3, 1 / 3)))
    assert is_on_separable_boundary(TState(DiagMat3(-1 / 3, -1 / 3, -1 / 3)))
    assert not is_on_separable_boundary(TState(DiagMat3(0.0, 0.0, 0.0)))
    assert is_on_separable_boundary(TState(DiagMat3(0.5, 0.3, 0.2)))


def test_half_state_positivity_guard():
    with pytest.raises(ValueError):
        HalfState(0.5, np.array([0.6, 0.0, 0.0]))


def test_tstate_rejects_nonphysical():
    with pytest.raises(ValueError):
        TState(DiagMat3(1.0, 1.0, 1.0))


def test_diagmat3_apply_broadcasts(rng):
    d = DiagMat3(0.2, -0.4, 0.9)
    xs = random_unit_vectors(rng, 17)
    assert np.allclose(d.apply(xs), xs * np.array([0.2, -0.4, 0.9]))
    assert np.allclose(d.apply(xs[0]), xs[0] * np.array([0.2, -0.4, 0.9]))


def test_diagmat3_helpers():
    d = DiagMat3(-0.3, 0.0, 0.5)
    assert d.is_singular
    assert d.scaled(2.0).as_array() == pytest.approx([-0.6, 0.0, 1.0])
    assert not DiagMat3(0.1, 0.1, 0.1).is_singular


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_diagmat3_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        DiagMat3(0.2, bad, 0.5)
    with pytest.raises(ValueError, match="finite"):
        DiagMat3.from_array([bad, 0.1, 0.1])
