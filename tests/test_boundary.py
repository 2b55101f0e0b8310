import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finitelhs.boundary import (
    BoundaryCurve,
    axial_boundary_solve,
    bisect,
    boundary_csv,
    norm_integral,
    sample_axial_family,
)
from boundary_oracle import rg_norm_integral, scalar_boundary_t0x
from conftest import BELL_CORNERS
from sphere_quadrature import DEFAULT_QUADRATURE, product_quadrature, quadrature_norm_integral


def test_quadrature_weights_and_total_measure():
    quad = DEFAULT_QUADRATURE
    assert (quad.weights > 0).all()
    assert quad.weights.sum() == pytest.approx(4 * np.pi, abs=1e-9)
    assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0, atol=1e-14)


def test_quadrature_degree_two_moments():
    """Second moments of the sphere: int n_i n_j dOmega = (4 pi / 3) delta_ij."""
    quad = DEFAULT_QUADRATURE
    moments = (quad.nodes.T * quad.weights) @ quad.nodes
    assert np.abs(moments - (4 * np.pi / 3) * np.eye(3)).max() < 1e-10


def test_quadrature_odd_moments_vanish():
    quad = DEFAULT_QUADRATURE
    assert np.abs(quad.weights @ quad.nodes).max() < 1e-12


def test_norm_integral_werner_critical():
    assert norm_integral(-0.5, -0.5) == 1.0


def test_norm_integral_isotropic_is_linear():
    for c in (0.1, 0.25, 0.5, 0.9):
        assert norm_integral(c, c) == 2 * c


def test_norm_integral_equatorial_case():
    c = 2 / np.pi
    assert norm_integral(c, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_norm_integral_polar_case():
    # the mean of |cos theta| on the sphere is 1/2, and the normalization
    # gives 2 * mean, so exactly t0z
    assert norm_integral(0.0, 0.7) == 0.7


def test_norm_integral_sign_flip_invariance(rng):
    a, z = rng.uniform(-1, 1, size=(2, 20))
    sa, sz = rng.choice([-1.0, 1.0], size=(2, 20))
    assert np.array_equal(norm_integral(sa * a, sz * z), norm_integral(a, z))


def test_norm_integral_homogeneity(rng):
    a, z = rng.uniform(-1, 1, size=(2, 10))
    alpha = rng.uniform(0, 2, size=10)
    assert np.allclose(norm_integral(alpha * a, alpha * z), alpha * norm_integral(a, z),
                       rtol=1e-15, atol=0.0)


def test_rg_oracle_sign_flip_and_homogeneity(rng):
    for _ in range(20):
        d = rng.uniform(-1, 1, size=3)
        flipped = d * rng.choice([-1.0, 1.0], size=3)
        alpha = rng.uniform(0, 2)
        assert rg_norm_integral(flipped) == rg_norm_integral(d)
        assert rg_norm_integral(alpha * d) == pytest.approx(alpha * rg_norm_integral(d),
                                                            rel=1e-14)


def test_axial_solve_werner_point():
    assert axial_boundary_solve(0.5) == pytest.approx(0.5, abs=1e-9)


def test_axial_solve_small_t0z_limit():
    assert axial_boundary_solve(1e-3) == pytest.approx(2 / np.pi, abs=1e-6)


def test_axial_solve_t0z_one():
    t0x = axial_boundary_solve(1.0)
    assert 0.0 < t0x < 0.5
    assert norm_integral(t0x, 1.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tol", [1e-11, 1e-12, 1e-15, 1e-300])
def test_axial_solve_t0z_one_below_the_bracket_residual(tol):
    """At t0z = 1 the lower bracket end leaves |N - 1| = 1.45e-11; a
    smaller tolerance bisects below it and still returns a positive root."""
    t0x = axial_boundary_solve(1.0, tol=tol)
    assert 0.0 < t0x < 1e-6
    assert abs(norm_integral(t0x, 1.0) - 1.0) <= tol


def test_axial_solve_residual_meets_tolerance():
    for t0z in (0.1, 0.3, 0.8):
        t0x = axial_boundary_solve(t0z, tol=1e-10)
        assert abs(norm_integral(t0x, t0z) - 1.0) <= 1e-10


def test_axial_solve_domain_errors():
    with pytest.raises(ValueError):
        axial_boundary_solve(0.0)
    with pytest.raises(ValueError):
        axial_boundary_solve(1.2)
    for tol in (0.0, -1e-10, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            axial_boundary_solve(0.5, tol=tol)


def test_sample_axial_family_grid_and_monotonicity():
    curve = sample_axial_family(50)
    assert len(curve) == 50
    assert curve.t0z[0] == pytest.approx(0.02)
    assert curve.t0z[-1] == pytest.approx(1.0)
    # the 50-point grid lands on the Werner point exactly
    idx = np.argmin(np.abs(curve.t0z - 0.5))
    assert curve.t0z[idx] == pytest.approx(0.5, abs=1e-12)
    assert curve.t0x[idx] == pytest.approx(0.5, abs=1e-9)
    assert (np.diff(curve.t0x) < 0).all()


def test_sample_axial_family_rows_on_boundary():
    curve = sample_axial_family(10)
    assert np.abs(norm_integral(curve.t0x, curve.t0z) - 1.0).max() < 1e-9


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_grid_solve_matches_scalar_bisection(tol):
    """One array bisection over the grid stops each point where the
    per-point scalar bisection stops, t0z = 1 included."""
    curve = sample_axial_family(500, tol=tol)
    assert curve.t0z[-1] == 1.0
    scalar = [scalar_boundary_t0x(float(z), tol) for z in curve.t0z]
    assert np.array_equal(curve.t0x, scalar)
    assert axial_boundary_solve(1.0, tol=tol) == scalar[-1]


def test_sample_axial_family_validation():
    with pytest.raises(ValueError):
        sample_axial_family(1)
    with pytest.raises(ValueError):
        sample_axial_family(10, t0z_min=0.0)
    with pytest.raises(ValueError):
        sample_axial_family(10, t0z_min=1.5)


def test_boundary_csv_format():
    curve = sample_axial_family(5)
    text = boundary_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "t0z,t0x"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.02)


def test_custom_quadrature_orders():
    quad = product_quadrature(16, 32)
    assert quad.n_polar == 16
    assert quad.n_azimuth == 32
    assert len(quad.weights) == 2 * 16 * 32
    assert quad.weights.sum() == pytest.approx(4 * np.pi, abs=1e-9)
    # coarse quadrature still nails the isotropic case
    assert quadrature_norm_integral((0.5, 0.5, 0.5), quad) == pytest.approx(1.0, abs=1e-12)


def test_boundary_curve_type():
    curve = BoundaryCurve(np.array([0.5]), np.array([0.5]))
    assert len(curve) == 1


def test_bisect_closes_the_bracket():
    root = bisect(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(root - np.sqrt(2.0)) <= 2.3e-16
    # stops at the first midpoint within tol of a root, tol itself included
    assert bisect(lambda x: x - 0.75, 0.0, 1.0, tol=0.3) == 0.5
    assert bisect(lambda x: x - 0.75, 0.0, 1.0, tol=0.25) == 0.5
    # elementwise: each root stops on its own rule
    roots = bisect(lambda x: x - [0.75, 0.1], [0.0, 0.0], [1.0, 1.0], tol=0.3)
    assert np.array_equal(roots, [0.5, 0.25])


# hypothesis draws: Bell weights on the simplex give physical diagonals
_bell_weights = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: sum(w) > 1e-3)
_oracle_settings = settings(max_examples=60, deadline=None, derandomize=True)


def _physical(weights) -> np.ndarray:
    w = np.asarray(weights) / sum(weights)
    return w @ BELL_CORNERS


@_oracle_settings
@given(a=st.floats(0.0, 1.0), z=st.floats(0.0, 1.0))
def test_norm_integral_matches_oracle_on_axial_diagonals(a, z):
    # for 0 < a << z the product rule misses the narrow bend of the
    # integrand at the equator (off by 6e-11 at a = z/128, 5.5e-9 at
    # a = z/1000); test_norm_integral_matches_rg_oracle covers that range
    assume(a == 0.0 or a >= 0.1 * z)
    assert abs(norm_integral(a, z) - quadrature_norm_integral((a, a, z))) <= 1e-12


@pytest.mark.filterwarnings("error")
@settings(max_examples=500, deadline=None, derandomize=True)
@given(a=st.floats(0.0, 1.5), z=st.floats(0.0, 1.0, exclude_min=True))
@example(a=0.0, z=0.3)
@example(a=0.7, z=0.7)
@example(a=1.5, z=1.0)
@example(a=5e-324, z=1.0)
@example(a=1e-200, z=5e-201)
@example(a=3e-320, z=1e-320)
@example(a=0.5, z=0.5 * np.sqrt(2.0))
@example(a=0.5, z=float(np.nextafter(0.5 * np.sqrt(2.0), 1.0)))
@example(a=0.5, z=float(np.nextafter(0.5, 1.0)))
@example(a=0.5, z=float(np.nextafter(0.5, 0.0)))
def test_norm_integral_matches_rg_oracle(a, z):
    """The elementary form against the general R_G, warnings as errors."""
    value = norm_integral(a, z)
    oracle = rg_norm_integral((a, a, z))
    # inputs below the smallest normal carry few bits; allow their rounding
    assert abs(value - oracle) <= 1e-15 * oracle + 1e-305


# The azimuthal trapezoid rule resolves the near-kink of a dominant x or y
# entry poorly: the 64 x 128 rule is off by up to 6e-10 at the edges of the
# physical set, this one by under 1e-14.
_FINE_QUADRATURE = product_quadrature(128, 256)


@_oracle_settings
@given(weights=_bell_weights)
def test_norm_integral_matches_oracle_on_physical_diagonals(weights):
    d = _physical(weights)
    # averaging the two transverse entries stays physical (swapping them
    # permutes two Bell weights)
    a = 0.5 * (d[0] + d[1])
    assume(min(abs(a), abs(d[2])) >= 0.1)
    oracle = quadrature_norm_integral((a, a, d[2]), _FINE_QUADRATURE)
    assert abs(norm_integral(a, d[2]) - oracle) <= 1e-10


@_oracle_settings
@given(weights=_bell_weights)
def test_rg_oracle_matches_quadrature_on_physical_diagonals(weights):
    d = _physical(weights)
    # near a zero entry the product rule itself loses digits
    assume(np.abs(d).min() >= 0.1)
    oracle = quadrature_norm_integral(d, _FINE_QUADRATURE)
    assert abs(rg_norm_integral(d) - oracle) <= 1e-10


@settings(deadline=None, derandomize=True)
@given(a=st.floats(-1.0, 1.0), z=st.floats(-1.0, 1.0),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
       perm=st.permutations([0, 1, 2]),
       alpha=st.floats(0.0, 4.0))
def test_norm_integral_sign_permutation_scale_invariance(a, z, signs, perm, alpha):
    base = norm_integral(a, z)
    assert norm_integral(signs[0] * a, signs[1] * z) == base
    # the sphere average of diag(a, a, z) in any axis order
    assert rg_norm_integral(np.array([a, a, z])[perm]) == pytest.approx(
        base, rel=1e-14, abs=1e-15)
    assert norm_integral(alpha * a, alpha * z) == pytest.approx(alpha * base, rel=1e-14,
                                                                abs=1e-15)


@settings(deadline=None, derandomize=True)
@given(d=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
       perm=st.permutations([0, 1, 2]),
       alpha=st.floats(0.0, 4.0))
def test_rg_oracle_sign_permutation_scale_invariance(d, signs, perm, alpha):
    d = np.asarray(d)
    base = rg_norm_integral(d)
    assert rg_norm_integral(d * signs) == base
    assert rg_norm_integral(d[perm]) == pytest.approx(base, rel=1e-14, abs=1e-15)
    assert rg_norm_integral(alpha * d) == pytest.approx(alpha * base, rel=1e-14, abs=1e-15)
