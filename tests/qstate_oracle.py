"""Measurement-level view of a T-state, one direction at a time: Alice's
projective measurements, Bob's conditional states, and the explicit
density matrix and Bell weights of a state.  The package works on the
correlation diagonal alone; these are the per-measurement objects the
tests check it against.  ``concurrence_axial`` is the checked scalar form
of the package's elementwise ``qstate.axial_concurrence``, and
``as_unit_vector`` checks one direction as ``qstate.as_unit_rows`` checks
rows.
"""

from dataclasses import dataclass

import numpy as np

from finitelhs.belldecomp import BELL_BASIS, PAULIS
from finitelhs.qstate import (
    PHYSICALITY_TOL,
    UNIT_TOL,
    DiagMat3,
    TState,
    axial_concurrence,
)


def as_unit_vector(v, what: str = "vector") -> np.ndarray:
    """``v`` as one finite unit 3-vector: the single-row form of
    ``qstate.as_unit_rows``, with the norm in its message."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{what} must have shape (3,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    if abs(np.linalg.norm(arr) - 1.0) > UNIT_TOL:
        raise ValueError(f"{what} must be a unit vector, |v| = {float(np.linalg.norm(arr))!r}")
    return arr


@dataclass(frozen=True, eq=False)
class Measurement:
    """Projective qubit measurement along ``axis`` with outcome +1 or -1."""

    axis: np.ndarray
    outcome: int

    def __post_init__(self) -> None:
        axis = as_unit_vector(self.axis, "measurement axis")
        object.__setattr__(self, "axis", axis)
        if self.outcome not in (1, -1):
            raise ValueError(f"measurement outcome must be +1 or -1, got {self.outcome!r}")


@dataclass(frozen=True, eq=False)
class HalfState:
    """An unnormalized qubit state ``(trace * I + bloch . sigma) / 2``."""

    trace: float
    bloch: np.ndarray

    def __post_init__(self) -> None:
        bloch = np.asarray(self.bloch, dtype=float)
        if bloch.shape != (3,):
            raise ValueError(f"bloch must have shape (3,), got {bloch.shape}")
        object.__setattr__(self, "bloch", bloch)
        if self.trace < -PHYSICALITY_TOL:
            raise ValueError(f"trace must be nonnegative, got {self.trace!r}")
        if np.linalg.norm(bloch) > self.trace + PHYSICALITY_TOL:
            raise ValueError(
                f"|bloch| = {np.linalg.norm(bloch)!r} exceeds trace = {self.trace!r}"
            )


def assemblage(state: TState, m: Measurement) -> HalfState:
    """Bob's unnormalized conditional state for Alice's measurement ``m``.

    For a state with diagonal correlations and no local terms, the result
    always has trace 1/2 and Bloch part ``(a/2) * corr @ axis``.
    """
    s = 0.5 * m.outcome * state.corr.apply(m.axis)
    return HalfState(trace=0.5, bloch=s)


def tstate_density(state: TState) -> np.ndarray:
    """The 4x4 density matrix (I + sum_k d_k sigma_k (x) sigma_k) / 4."""
    rho = np.eye(4, dtype=complex)
    for d, sigma in zip(state.corr.as_array(), PAULIS):
        rho += d * np.kron(sigma, sigma)
    return rho / 4.0


def bell_weights(state: TState) -> np.ndarray:
    """Eigenvalues of the 4x4 density matrix, summing to 1, in the order of
    :func:`finitelhs.qstate.bell_weights_of_diag`: the diagonal of the
    explicit density matrix in the Bell basis."""
    return np.diag(BELL_BASIS.conj().T @ tstate_density(state) @ BELL_BASIS).real


def is_on_separable_boundary(state: TState, tol: float = 1e-9) -> bool:
    """Whether |dx| + |dy| + |dz| equals 1 within tol."""
    a = np.abs(state.corr.as_array()).sum()
    return bool(abs(a - 1.0) <= tol)


def concurrence_axial(corr: DiagMat3, visibility: float) -> float:
    """Concurrence of the state with correlation ``visibility * corr``.

    Only valid for axially symmetric diagonals (|dx| == |dy|), where the
    closed form ``max(0, (2 t |dx| + t |dz| - 1) / 2)`` holds for every
    physical input.
    """
    if abs(abs(corr.dx) - abs(corr.dy)) > UNIT_TOL:
        raise ValueError(
            f"axial symmetry requires |dx| == |dy|, got ({corr.dx!r}, {corr.dy!r})"
        )
    if visibility < 0:
        raise ValueError(f"visibility must be nonnegative, got {float(visibility)!r}")
    return float(axial_concurrence(abs(corr.dx), abs(corr.dz), visibility))
