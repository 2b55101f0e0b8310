"""Two-qubit states with diagonal spin correlation matrices.

All single-qubit objects live in Bloch coordinates; the only place a
complex density matrix appears is :mod:`finitelhs.belldecomp`.  A state
here is ``rho = (I4 + sum_k d_k sigma_k (x) sigma_k) / 4`` with both
local Bloch vectors zero, so the diagonal ``(dx, dy, dz)`` is a complete
description.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
PHYSICALITY_TOL = 1e-12


def as_unit_rows(x, what: str = "directions") -> np.ndarray:
    """``x`` as an (n, 3) array of n >= 1 finite unit rows; a single
    3-vector is one row."""
    arr = np.atleast_2d(np.asarray(x, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) == 0:
        raise ValueError(f"{what} must have shape (n, 3) with n >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    sq = arr * arr                  # column sums: far faster than norm(axis=1)
    if np.abs(np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2]) - 1.0).max() > UNIT_TOL:
        raise ValueError(f"{what} must be unit vectors")
    return arr


@dataclass(frozen=True)
class DiagMat3:
    """A real diagonal 3x3 matrix, stored as its diagonal of Python floats."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self) -> None:
        for name in ("dx", "dy", "dz"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)
                and math.isfinite(self.dz)):
            raise ValueError(
                f"diagonal entries must be finite, got ({self.dx!r}, {self.dy!r}, {self.dz!r})"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz], dtype=float)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product; broadcasts over rows of an (n, 3) array."""
        return self.as_array() * np.asarray(v, dtype=float)

    def scaled(self, factor: float) -> "DiagMat3":
        return DiagMat3(factor * self.dx, factor * self.dy, factor * self.dz)

    def normalized(self) -> tuple["DiagMat3", int]:
        """(this diagonal / 2**e, e), e the binary exponent of the largest
        |entry|: exact, and the largest |entry| of the result lies in
        [0.5, 1), so its squares and sums neither under- nor overflow."""
        e = math.frexp(max(abs(self.dx), abs(self.dy), abs(self.dz)))[1]
        if e < sys.float_info.min_exp:
            raise ValueError(f"diagonal entries must not all be subnormal, got "
                             f"({self.dx!r}, {self.dy!r}, {self.dz!r})")
        return DiagMat3(*(math.ldexp(d, -e) for d in (self.dx, self.dy, self.dz))), e

    @property
    def is_singular(self) -> bool:
        return self.dx == 0.0 or self.dy == 0.0 or self.dz == 0.0

    @classmethod
    def from_array(cls, arr) -> "DiagMat3":
        a = np.asarray(arr, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"diagonal must have 3 entries, got shape {a.shape}")
        return cls(*a)


# Correlation diagonals of the four Bell states: Bell weight k of the state
# with diagonal d is (1 + BELL_CORNERS[k] . d) / 4.
BELL_CORNERS = np.array([
    [1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
])


def bell_weights_of_diag(diag: np.ndarray) -> np.ndarray:
    """Eigenvalues of the state with correlation diagonal ``diag``.

    The four eigenvectors are the Bell states; the weights are returned in
    the fixed order ((00+11), (00-11), (01+10), (01-10)) / sqrt(2).
    """
    return (1.0 + BELL_CORNERS @ diag) / 4.0


@dataclass(frozen=True)
class TState:
    """A physical two-qubit state with vanishing local Bloch vectors."""

    corr: DiagMat3

    def __post_init__(self) -> None:
        weights = bell_weights_of_diag(self.corr.as_array())
        if weights.min() < -PHYSICALITY_TOL:
            raise ValueError(
                "correlation diagonal "
                f"({self.corr.dx}, {self.corr.dy}, {self.corr.dz}) is not physical: "
                f"minimum Bell weight {weights.min():.3e}"
            )


def max_physical_visibility(corr: DiagMat3) -> float:
    """The largest t >= 0 for which TState(t * corr) is physical.

    Bell weight k of t * corr is (1 + t c_k . d) / 4, so t can grow until
    the most negative c_k . d brings a weight down to -PHYSICALITY_TOL.
    """
    unit, exp = corr.normalized()       # t scales as 1 / corr, exactly
    slope = -float((BELL_CORNERS @ unit.as_array()).min())
    return math.inf if slope <= 0.0 else math.ldexp((1.0 + 4.0 * PHYSICALITY_TOL) / slope, -exp)


def axial_concurrence(a, z, visibility):
    """Concurrence of the state with correlation ``visibility * T0`` for an
    axial T0, elementwise in the magnitudes ``a = |dx| = |dy|``,
    ``z = |dz|`` and the visibility: the closed form
    ``max(0, (2 t a + t z - 1) / 2)``, which holds for every physical input."""
    return np.maximum(0.0, (2.0 * visibility * a + visibility * z - 1.0) / 2.0)
