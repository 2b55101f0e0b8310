"""The critical-visibility integral and the axially symmetric boundary family.

A diagonal correlation matrix T0 is critical when the sphere average
``(1/2pi) integral |T0 n| dn`` equals 1.  That integral is
``2 R_G(dx^2, dy^2, dz^2)`` with R_G Carlson's symmetric elliptic integral
(B. C. Carlson, Numer. Algorithms 10 (1995) 13-26; DLMF 19.16), since
``R_G(x, y, z) = (1/4pi) integral sqrt(x n1^2 + y n2^2 + z n3^2) dn``.
For T0 = diag(a, a, t0z) the integral is monotone in ``a``, so the boundary
curve a(t0z) is found by bisection.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import serialize
from .qstate import DiagMat3

SOLVER_TOL = 1e-10
BRACKET = (1e-6, 1.5)
DEFAULT_T0Z_MIN = 0.02


def _elliprg(x: float, y: float, z: float) -> float:
    """Carlson's R_G.  The first call imports scipy.special, which only the
    boundary needs, and rebinds this name to ``scipy.special.elliprg``."""
    global _elliprg
    from scipy.special import elliprg

    _elliprg = elliprg
    return elliprg(x, y, z)


def norm_integral(corr: DiagMat3) -> float:
    """``(1/2pi) integral |corr @ n| dn`` over the unit sphere."""
    # elliprg returns 0 or nan when all three arguments are below ~1e-150 or
    # above ~1e150, so evaluate the integral, which is homogeneous of degree
    # one, at the diagonal scaled to largest entry 1.
    scale = max(abs(corr.dx), abs(corr.dy), abs(corr.dz))
    if scale == 0.0:
        return 0.0
    x, y, z = corr.dx / scale, corr.dy / scale, corr.dz / scale
    return 2.0 * scale * float(_elliprg(x * x, y * y, z * z))


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 0.0) -> float:
    """A root of ``f`` between ``lo`` and ``hi``, where f(lo) < 0 < f(hi).

    Halves the bracket until ``|f(mid)| <= tol`` or the midpoint no longer
    falls strictly inside it, i.e. the bracket has closed to adjacent floats.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_mid < 0:
            lo = mid
        else:
            hi = mid


def axial_boundary_solve(t0z: float, tol: float = SOLVER_TOL) -> float:
    """The t0x with norm_integral(diag(t0x, t0x, t0z)) = 1, by bisection.

    At t0z = 1 the root degenerates to 0+; the lower bracket end is
    returned there since the integral already sits within tol of 1.
    """
    if not (0.0 < t0z <= 1.0):
        raise ValueError(f"t0z must lie in (0, 1], got {t0z!r}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")

    def residual(a: float) -> float:
        return norm_integral(DiagMat3(a, a, t0z)) - 1.0

    lo, hi = BRACKET
    f_lo = residual(lo)
    if f_lo > 0:
        if f_lo <= tol:
            return lo
        raise ValueError(f"no boundary crossing above t0x = {lo} for t0z = {t0z}")
    if residual(hi) < 0:
        raise ValueError(f"no boundary crossing below t0x = {hi} for t0z = {t0z}")
    return bisect(residual, lo, hi, tol)


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Samples (t0z, t0x) of the axial boundary family."""

    t0z: np.ndarray
    t0x: np.ndarray

    def __len__(self) -> int:
        return len(self.t0z)


def sample_axial_family(n: int, t0z_min: float = DEFAULT_T0Z_MIN,
                        tol: float = SOLVER_TOL) -> BoundaryCurve:
    """Solve the boundary on a uniform t0z grid from t0z_min to 1."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not (0.0 < t0z_min < 1.0):
        raise ValueError(f"t0z_min must lie in (0, 1), got {t0z_min!r}")
    zs = np.linspace(t0z_min, 1.0, n)
    xs = np.array([axial_boundary_solve(z, tol=tol) for z in zs])
    return BoundaryCurve(t0z=zs, t0x=xs)


def boundary_csv(curve: BoundaryCurve) -> str:
    return serialize.csv_text(("t0z", "t0x"), zip(curve.t0z, curve.t0x))
