"""Oracles for ``finitelhs.boundary``.

``rg_norm_integral`` is the sphere average of any diagonal through
Carlson's R_G (``scipy.special.elliprg``); the package evaluates only its
elementary axial case.  ``scalar_boundary_t0x`` is the per-point scalar
bisection that the package's single array bisection over a t0z grid must
reproduce bit for bit.
"""

from scipy.special import elliprg

from finitelhs.boundary import BRACKET, norm_integral


def rg_norm_integral(diag) -> float:
    """``(1/2pi) integral |diag * n| dn = 2 R_G(dx^2, dy^2, dz^2)``."""
    # elliprg returns 0 or nan when all three arguments are below ~1e-150 or
    # above ~1e150, so evaluate the integral, which is homogeneous of degree
    # one, at the diagonal scaled to largest entry 1.
    scale = max(abs(float(c)) for c in diag)
    if scale == 0.0:
        return 0.0
    x, y, z = (float(c) / scale for c in diag)
    return 2.0 * scale * float(elliprg(x * x, y * y, z * z))


def scalar_bisect(f, lo: float, hi: float, tol: float = 0.0) -> float:
    """A root of ``f`` between ``lo`` and ``hi``, where f(lo) < 0 < f(hi):
    halves the bracket until ``|f(mid)| <= tol`` or it has closed."""
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


def scalar_boundary_t0x(t0z: float, tol: float) -> float:
    """The t0x with norm_integral(t0x, t0z) = 1, one point at a time."""

    def residual(a: float) -> float:
        return float(norm_integral(a, t0z)) - 1.0

    lo, hi = BRACKET
    f_lo = residual(lo)
    if f_lo > 0:
        if f_lo <= tol:
            return lo
        return scalar_bisect(residual, 0.0, lo, tol)
    return scalar_bisect(residual, lo, hi, tol)
