"""The critical-visibility integral and the axially symmetric boundary family.

A diagonal correlation matrix T0 is critical when the sphere average
``(1/2pi) integral |T0 n| dn`` equals 1.  That integral is
``2 R_G(dx^2, dy^2, dz^2)`` with R_G Carlson's symmetric elliptic integral
(B. C. Carlson, Numer. Algorithms 10 (1995) 13-26; DLMF 19.16), since
``R_G(x, y, z) = (1/4pi) integral sqrt(x n1^2 + y n2^2 + z n3^2) dn``.
On the axial family T0 = diag(a, a, z) R_G is elementary, the area of a
spheroid: ``2 R_G(z^2, a^2, a^2) = |z| + a^2 R_C(z^2, a^2)`` (DLMF 19.20.5).
The integral is monotone in ``a``; one array bisection finds the boundary
a(t0z) on a whole t0z grid.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import serialize

SOLVER_TOL = 1e-10
BRACKET = (1e-6, 1.5)
DEFAULT_T0Z_MIN = 0.02


def norm_integral(a, z):
    """``(1/2pi) integral |diag(a, a, z) n| dn`` on the unit sphere, elementwise.

    Equals ``|z| + |a| g`` with ``d = sqrt|(z - a)(z + a)|`` and
    ``g = (a/d) asinh(d/a)`` when |z| > |a|, ``g = (a/d) atan2(d, |z|)``
    when |z| < |a|, and g = 1 when d = 0.
    """
    a = np.abs(np.asarray(a, dtype=float))
    z = np.abs(np.asarray(z, dtype=float))
    # a product of roots: the root of the product underflows for tiny entries
    d = np.sqrt(np.abs(z - a)) * np.sqrt(z + a)
    # where d = 0, g = 1; where a <= 1e-300 d, d/a can overflow but a g is
    # below ulp(|z|) / 2, as is a: both cases add a in place of a g
    regular = (d > 0) & (a > 1e-300 * d)
    a_s, d_s = np.where(regular, a, 1.0), np.where(regular, d, 1.0)
    g = (a_s / d_s) * np.where(z > a, np.arcsinh(d_s / a_s), np.arctan2(d_s, z))
    return (z + np.where(regular, a * g, a))[()]


def bisect(f: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float = 0.0):
    """Roots of ``f`` between ``lo`` and ``hi`` elementwise, where
    f(lo) < 0 < f(hi); ``f`` maps an array of points to its values.

    Each element halves its bracket until ``|f(mid)| <= tol`` or the
    midpoint no longer falls strictly inside it, i.e. the bracket has
    closed to adjacent floats.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    while True:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        stop = (lo >= mid) | (mid >= hi) | (np.abs(f_mid) <= tol)
        if stop.all():
            return mid[()]
        # a stopped element's bracket closes on its midpoint and stays there
        below = f_mid < 0
        lo, hi = np.where(stop | below, mid, lo), np.where(below & ~stop, hi, mid)


def _boundary_t0x(t0z: np.ndarray) -> np.ndarray:
    """The t0x > 0 with |norm_integral(t0x, t0z) - 1| <= SOLVER_TOL for
    each t0z in (0, 1].

    At t0z = 1 the root degenerates to 0+, and the integral at the lower
    bracket end exceeds 1 by 1.45e-11, within SOLVER_TOL; a row above 1
    there has its bracket closed on that end, which ``bisect`` returns.
    """
    lo, hi = np.full(t0z.shape, BRACKET[0]), np.full(t0z.shape, BRACKET[1])
    hi[norm_integral(lo, t0z) > 1] = BRACKET[0]
    return bisect(lambda a: norm_integral(a, t0z) - 1.0, lo, hi, SOLVER_TOL)


def axial_boundary_solve(t0z: float) -> float:
    """The t0x > 0 with norm_integral(t0x, t0z) = 1, by bisection."""
    if not (0.0 < t0z <= 1.0):
        raise ValueError(f"t0z must lie in (0, 1], got {t0z!r}")
    return float(_boundary_t0x(np.array([t0z], dtype=float))[0])


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Samples (t0z, t0x) of the axial boundary family."""

    t0z: np.ndarray
    t0x: np.ndarray


def sample_axial_family(n: int, t0z_min: float = DEFAULT_T0Z_MIN) -> BoundaryCurve:
    """Solve the boundary on a uniform t0z grid from t0z_min to 1."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not (0.0 < t0z_min < 1.0):
        raise ValueError(f"t0z_min must lie in (0, 1), got {t0z_min!r}")
    zs = np.linspace(t0z_min, 1.0, n)
    return BoundaryCurve(t0z=zs, t0x=_boundary_t0x(zs))


def boundary_csv(curve: BoundaryCurve) -> str:
    return serialize.csv_text({"t0z": curve.t0z, "t0x": curve.t0x})
