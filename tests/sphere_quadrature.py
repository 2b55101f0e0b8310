"""Product-rule quadrature on the unit sphere: an oracle for the closed-form
boundary integral, independent of Carlson's R_G.  Also the golden-angle
(Fibonacci) sphere, a deterministic set of nearly uniform directions for
grid verification."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes (n, 3) and weights summing to 4pi.

    Gauss-Legendre in the polar angle with separate panels for each
    hemisphere (the integrands of interest are analytic on each hemisphere
    but can kink at the equator or vanish like |sin theta| at the poles,
    which ruins a single rule in cos theta), times a uniform trapezoid rule
    in azimuth.
    """

    nodes: np.ndarray
    weights: np.ndarray
    n_polar: int
    n_azimuth: int


def product_quadrature(n_polar: int = 64, n_azimuth: int = 128) -> SphereQuadrature:
    """Build the quadrature with ``n_polar`` points per hemisphere panel."""
    if n_polar < 2 or n_azimuth < 2:
        raise ValueError("quadrature orders must be at least 2")
    x, w = np.polynomial.legendre.leggauss(n_polar)
    thetas, wtheta = [], []
    for a, b in ((0.0, np.pi / 2), (np.pi / 2, np.pi)):
        thetas.append(0.5 * (b - a) * x + 0.5 * (a + b))
        wtheta.append(0.5 * (b - a) * w)
    theta = np.concatenate(thetas)
    wtheta = np.concatenate(wtheta)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    sin_th = np.sin(th)
    nodes = np.stack(
        [sin_th * np.cos(ph), sin_th * np.sin(ph), np.cos(th)], axis=-1
    ).reshape(-1, 3)
    weights = (
        np.repeat((wtheta * np.sin(theta))[:, None], n_azimuth, axis=1)
        * (2.0 * np.pi / n_azimuth)
    ).reshape(-1)
    return SphereQuadrature(nodes=nodes, weights=weights,
                            n_polar=n_polar, n_azimuth=n_azimuth)


DEFAULT_QUADRATURE = product_quadrature()


def quadrature_norm_integral(diag, quad: SphereQuadrature = DEFAULT_QUADRATURE) -> float:
    """``(1/2pi) integral |diag * n| dn`` by the product rule."""
    values = np.linalg.norm(quad.nodes * np.asarray(diag, dtype=float), axis=1)
    return float(quad.weights @ values) / (2.0 * np.pi)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors from the golden-angle spiral."""
    if n < 1:
        raise ValueError(f"need n >= 1 directions, got {n}")
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    angle = np.pi * (3.0 - np.sqrt(5.0)) * k
    return np.stack([r * np.cos(angle), r * np.sin(angle), z], axis=1)
