"""Finite local-hidden-state models and their verification.

A model is a finite ensemble of hidden qubit states (atoms), each a pure
state with Bloch vector ``bloch`` drawn with probability ``weight``, plus
a response function f(x, atom) in [-1, 1] giving Alice's outcome bias.
The simulated assemblage is

    trace part:  sum_i q_i (1 + a f(x, i)) / 2
    Bloch part:  sum_i q_i (1 + a f(x, i)) / 2 * bloch_i

and the model is correct for a state when both match the quantum
assemblage for every measurement direction.  A sign-mixture model's
weights and maximum visibility come from :func:`mapped_norms`, which the
scan and the orientation search share.

Both responses are piecewise linear in x: a sign mixture is linear on
each face cone of its polyhedron, a linear response on the whole sphere.
:func:`verify_model` therefore checks the model exactly, once per region
(the certificate, ``certificate_err``), and also evaluates the residuals
on a grid of directions from the same per-region maps, without forming
the (directions x atoms) response matrix.  The report names the largest
residual and the face where the certificate is worst.

A model is its arrays: :class:`FiniteLhsModel` holds the weights, Bloch
vectors, preimages and (for a linear response) Alice's vectors of its
atoms as read-only stacked arrays, and checks each rule on them once.
:class:`SignMixture` rejects a polyhedron that is not inversion symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .geometry import (
    SOLID_CONSTANTS,
    Polyhedron,
    exit_faces,
    polyhedron_from_vertices,
    tetrahedron,
    vertex_signs,
)
from .qstate import DiagMat3, TState, as_unit_rows

WEIGHT_TOL = 1e-12
ATOM_MAP_TOL = 1e-12
BOUNDARY_TOL = 1e-9
# residuals at or below this are rounding noise: a report names none of them
NOISE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Atom:
    """One hidden state of a model, as :attr:`FiniteLhsModel.atoms` lists
    it: probability ``weight``, Bloch vector ``bloch``, the unit direction
    ``preimage`` it was mapped from (a polyhedron vertex) and, for a
    linear response only, Alice's vector ``alice_bloch``."""

    weight: float
    bloch: np.ndarray
    preimage: np.ndarray
    alice_bloch: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SignMixture:
    """Response f(x, atom) = scale * sum_k w_k(x) sign(v_k . preimage),
    with w(x) the convex decomposition of x over the polyhedron vertices."""

    polyhedron: Polyhedron
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.scale <= 1.0 + 1e-12):
            raise ValueError(f"response scale must lie in [0, 1], got {self.scale!r}")
        if not self.polyhedron.is_inversion_symmetric:
            raise ValueError(
                f"unsupported polyhedron {self.polyhedron.kind!r}: not inversion symmetric")


@dataclass(frozen=True)
class LinearResponse:
    """Response f(x, atom) = x . alice_bloch."""


@dataclass(frozen=True, eq=False)
class FiniteLhsModel:
    """A finite LHS model simulating TState(visibility * target).

    Atom i has probability ``weights[i]``, Bloch vector ``blochs[i]`` and
    preimage ``preimages[i]``; ``etas[i]`` is Alice's vector under a linear
    response, and ``etas`` is None for a sign mixture.  The model keeps
    read-only copies of the arrays it checked.
    """

    weights: np.ndarray
    blochs: np.ndarray
    preimages: np.ndarray
    response: SignMixture | LinearResponse
    target: DiagMat3
    visibility: float
    etas: np.ndarray | None = None

    def __post_init__(self) -> None:
        q = np.array(self.weights, dtype=float)
        blochs = as_unit_rows(np.array(self.blochs, dtype=float), "atom bloch")
        preimages = as_unit_rows(np.array(self.preimages, dtype=float), "atom preimage")
        if q.shape != (len(blochs),) or preimages.shape != blochs.shape:
            raise ValueError(f"model needs one bloch and one preimage per weight, got shapes "
                             f"{q.shape}, {blochs.shape} and {preimages.shape}")
        bad = ~(np.isfinite(q) & (q >= -WEIGHT_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"atom weights must be finite and nonnegative, "
                             f"got {float(q[i])!r} at atom {i}")
        total = float(q.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {total!r}")
        if not (np.isfinite(self.visibility) and self.visibility >= 0):
            raise ValueError(f"visibility must be finite and nonnegative, got {self.visibility!r}")
        # a sign mixture ignores etas, but ones that are given must be valid
        etas = None if self.etas is None else as_unit_rows(
            np.array(self.etas, dtype=float), "atom alice_bloch")
        if isinstance(self.response, SignMixture):
            mapped = self.target.apply(preimages)
            norms = np.linalg.norm(mapped, axis=1)
            if norms.min() <= 0:
                raise ValueError("target maps an atom preimage to zero")
            err = np.linalg.norm(mapped / norms[:, None] - blochs, axis=1).max()
            if err > ATOM_MAP_TOL:
                raise ValueError(f"atom blochs are not the normalized target images of their "
                                 f"preimages (residual {err:.3e})")
            etas = None
        elif etas is None or etas.shape != blochs.shape:
            raise ValueError("linear-response atoms need alice_bloch set")
        for name, value in (("weights", q), ("blochs", blochs),
                            ("preimages", preimages), ("etas", etas)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms as :class:`Atom` records, built from the arrays."""
        etas = [None] * len(self.weights) if self.etas is None else self.etas
        return tuple(Atom(float(q), b, p, e) for q, b, p, e
                     in zip(self.weights, self.blochs, self.preimages, etas))

    def simulated_state(self) -> TState:
        """The state this model reproduces; raises if it is not physical."""
        return TState(self.target.scaled(self.visibility))


def mapped_norms(vertices: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|T0 v_i| for the vertices (..., V, 3) and the diagonal T0 (..., 3),
    and their sum over the vertices (...), batched over the leading axes.

    The model on these vertices has weights |T0 v_i| / sum and maximum
    visibility c * inradius / sum (``geometry.SOLID_CONSTANTS``).
    """
    m = vertices * diag[..., None, :]
    norms = np.sqrt(m[..., 0] * m[..., 0] + m[..., 1] * m[..., 1] + m[..., 2] * m[..., 2])
    return norms, norms.sum(axis=-1)


def build_polyhedron_model(target: DiagMat3, poly: Polyhedron,
                           visibility: float | None = None) -> FiniteLhsModel:
    """LHS model on a built-in inversion-symmetric solid: an icosahedron,
    a cube or an octahedron, at any orientation.  Each has the sign-sum
    property  sum_j sign(v_j . v_i) v_j = c v_i.

    One atom per vertex: weight |T0 v_i| / sum_j |T0 v_j| and Bloch vector
    T0 v_i normalized (see :func:`mapped_norms`).  The maximum visibility
    is  c * inradius / sum_j |T0 v_j|, with the exact c and inradius of
    ``geometry.SOLID_CONSTANTS``, which the scan and the orientation search
    read too; a smaller ``visibility`` is reached by scaling the response.
    Raises ValueError for any other solid.
    """
    if target.is_singular:
        raise ValueError(f"target diagonal ({target.dx}, {target.dy}, {target.dz}) is "
                         "singular; the vertex mapping is undefined")
    if poly.kind not in SOLID_CONSTANTS:
        raise ValueError(f"unsupported polyhedron {poly.kind!r}: the sign-sum constant is "
                         f"known for the built-in solids only ({', '.join(SOLID_CONSTANTS)})")
    norms, total = mapped_norms(poly.vertices, target.as_array())
    t_max = float(SOLID_CONSTANTS[poly.kind].numerator / total)
    if visibility is None:
        visibility = t_max
    elif not (0.0 <= visibility <= t_max + 1e-12):
        raise ValueError(f"requested visibility {visibility!r} is outside [0, {t_max!r}]")
    scale = min(visibility / t_max, 1.0)
    return FiniteLhsModel(weights=norms / total,
                          blochs=target.apply(poly.vertices) / norms[:, None],
                          preimages=poly.vertices, response=SignMixture(poly, scale),
                          target=target, visibility=float(visibility))


def build_separable_tetrahedron_model(target: DiagMat3) -> FiniteLhsModel:
    """Four-atom model for a state on the separable boundary
    |dx| + |dy| + |dz| = 1.

    Atoms sit at sqrt(3) * sqrt(|T|) v_i over the tetrahedron vertices with
    uniform weights; Alice responds linearly with eta_i equal to the atom
    Bloch vector, components negated wherever the target entry is negative
    (the sign fold happens here, so callers may pass signed diagonals).
    """
    diag = target.as_array()
    norm = float(np.abs(diag).sum())
    if abs(norm - 1.0) > BOUNDARY_TOL:
        raise ValueError(f"target diagonal {tuple(diag.tolist())} is not on the separable "
                         f"boundary (|dx|+|dy|+|dz| = {norm!r})")
    signs = np.where(diag < 0, -1.0, 1.0)
    root = np.sqrt(np.abs(diag))
    tet = tetrahedron()
    blochs = np.sqrt(3.0) * tet.vertices * root
    blochs /= np.linalg.norm(blochs, axis=1, keepdims=True)
    return FiniteLhsModel(weights=np.full(4, 0.25), blochs=blochs, preimages=tet.vertices,
                          response=LinearResponse(), target=target, visibility=1.0,
                          etas=signs * blochs)


def response_maps(model: FiniteLhsModel) -> np.ndarray:
    """The response as linear maps A, shape (regions, 3, atoms): for a
    direction x in region r, f(x, atom i) = x @ A[r][:, i].

    A sign-mixture response has one region per face cone F.  There its
    weights are inradius * inv_F x on the face's vertices plus a uniform
    remainder, which adds nothing: the vertex set is inversion symmetric,
    so every atom's signs sum to zero.  Hence
    A_F = scale * inradius * inv_F^T signs[F].  A linear response is one
    region with A = eta^T.
    """
    if isinstance(model.response, SignMixture):
        poly = model.response.polyhedron
        signs = vertex_signs(poly.vertices, model.preimages)     # (vertices, atoms)
        inv = poly.checked_frame[2]
        return (model.response.scale * poly.inradius) * (
            inv.transpose(0, 2, 1) @ signs[poly.faces])
    return model.etas.T[None]


RESIDUALS = ("max_trace_err", "max_bloch_err", "alice_marginal_err",
             "bob_marginal_err", "certificate_err")


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case deviations between a model and a quantum assemblage.

    ``certificate_err`` is the exact per-region check; ``worst_face`` is
    the face where it is largest (None at or below NOISE_FLOOR, and for a
    linear-response model, whose only region is the whole sphere).
    """

    max_trace_err: float
    max_bloch_err: float
    alice_marginal_err: float
    bob_marginal_err: float
    certificate_err: float
    n_directions: int
    worst_face: int | None = None

    def _values(self) -> list[float]:
        return [getattr(self, name) for name in RESIDUALS]

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN when any residual is NaN, so that it
        fails every ``<`` gate."""
        return float(np.max(self._values()))

    def as_dict(self) -> dict:
        return {**dict(zip(RESIDUALS, self._values())), "n_directions": self.n_directions}

    def worst(self) -> dict:
        """The name of the largest residual (the first NaN one, if any), None
        when every residual is at most NOISE_FLOOR, and ``worst_face``."""
        name = RESIDUALS[int(np.argmax(self._values()))]
        return {"residual": None if self.max_residual <= NOISE_FLOOR else name,
                "face": self.worst_face}


def verify_model(model: FiniteLhsModel, state: TState,
                 directions: np.ndarray) -> VerificationReport:
    """Compare the model's assemblage against the state's for both outcomes,
    exactly on every region of the response and on a grid of directions.

    On a region with response map A (see :func:`response_maps`) the
    assemblage is linear in x: sum_i q_i f(x, i) = x . a and
    sum_i q_i f(x, i) bloch_i = x M, with a = A q and M = A Q, where Q has
    rows q_i bloch_i.  The model is correct exactly when a = 0 and M = T
    (the state's correlations) on every region and Bob's Bloch vector
    sum_i q_i bloch_i vanishes.  ``certificate_err`` is the largest
    max(|a|, |M - T|_F) / 2 over the regions, which bounds the trace and
    Bloch residuals of every direction, up to the normalization and Bob's
    terms.

    The grid residuals come from the same two products at each of the
    n >= 1 unit rows of ``directions``, on the region found by
    :func:`geometry.exit_faces`: the worst trace and Bloch
    deviations over both outcomes, Alice's marginal bias (mean
    |sum_i q_i f|) and Bob's reduced Bloch vector (|sum_i q_i bloch_i|).
    The work runs on the columns of x.T: row 4i + j of a (12, regions)
    table holds entry (i, j) of every region's [a, M], the columns of the
    regions hit are taken once, and three multiply-adds by the rows of
    x.T give the four products as contiguous rows over the directions.
    The Bloch deviation takes one square root, of the largest squared
    norm.  A sign mixture whose polyhedron has a bad face frame raises
    RuntimeError from ``exit_faces`` or ``response_maps``.
    """
    x = as_unit_rows(directions, "verification directions")
    xT = np.ascontiguousarray(x.T)
    q = model.weights
    blochs = model.blochs
    # column 0 of each region is a, columns 1..3 are M
    coeffs = response_maps(model) @ np.column_stack([q, q[:, None] * blochs])
    corr = state.corr.as_array()
    per_region = 0.5 * np.maximum(np.linalg.norm(coeffs[:, :, 0], axis=1),
                                  np.linalg.norm(coeffs[:, :, 1:] - np.diag(corr), axis=(1, 2)))
    if isinstance(model.response, SignMixture):
        hit = exit_faces(model.response.polyhedron, x)
        terms = np.take(coeffs.reshape(-1, 12).T, hit, axis=1).reshape(3, 4, -1)
        terms *= xT[:, None]                       # terms[i, j] = x_i [a, M]_ij
        products = terms[0]
        products += terms[1]
        products += terms[2]                       # (4, n): x . a, then x M
        worst_face = None if per_region.max() <= NOISE_FLOOR else int(np.argmax(per_region))
    else:
        products = coeffs[0].T @ xT
        worst_face = None
    bias = products[0]                             # sum_i q_i f(x, i)
    gap = products[1:]
    gap -= corr[:, None] * xT                      # sum_i q_i f bloch_i - T x
    bob = q @ blochs
    # outcome o = +-1: trace (sum q + o bias) / 2, Bloch deviation (bob + o gap) / 2
    plus = gap + bob[:, None]
    minus = np.subtract(bob[:, None], gap, out=gap)
    plus *= plus
    minus *= minus
    # sqrt is monotone and correctly rounded: the root of the largest
    # squared norm is the largest norm, bit for bit
    worst = np.maximum(plus[0] + plus[1] + plus[2], minus[0] + minus[1] + minus[2]).max()
    abs_bias = np.abs(bias)
    return VerificationReport(
        max_trace_err=float(0.5 * (abs(q.sum() - 1.0) + abs_bias.max())),
        max_bloch_err=float(0.5 * np.sqrt(worst)),
        alice_marginal_err=float(abs_bias.mean()),
        bob_marginal_err=float(np.linalg.norm(bob)),
        certificate_err=float(per_region.max()),
        n_directions=len(x),
        worst_face=worst_face,
    )


def entropy_bits(model: FiniteLhsModel) -> float:
    """Shannon entropy of the atom weights, in bits."""
    q = model.weights
    q = q[q > 0]
    return float(-(q * np.log2(q)).sum())


def model_to_dict(model: FiniteLhsModel) -> dict:
    kind = "sign_mixture" if isinstance(model.response, SignMixture) else "linear"
    scale = model.response.scale if isinstance(model.response, SignMixture) else 1.0
    columns = {"q": model.weights, "lambda": model.blochs, "lambda_prime": model.preimages}
    if model.etas is not None:
        columns["eta"] = model.etas
    rows = zip(*(column.tolist() for column in columns.values()))
    return {
        "t0": list(model.target.as_array()),
        "t": model.visibility,
        "response_kind": kind,
        "scale": scale,
        "atoms": [dict(zip(columns, row)) for row in rows],
    }


def model_to_json(model: FiniteLhsModel) -> str:
    return serialize.dumps(model_to_dict(model))


def _numbers(value, what: str) -> None:
    """Raise TypeError unless ``value`` or each item of a list ``value`` is a
    number, not a bool, a string or a null that ``float`` reads as one."""
    for x in value if isinstance(value, list) else [value]:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise TypeError(f"{what}: expected a number, got {type(x).__name__}")


def _column(atoms: list[tuple[int, dict]], key: str) -> np.ndarray:
    """Field ``key`` of the (index, atom) pairs ``atoms`` as one float
    array, (m,) for ``q`` and (m, 3) otherwise, parsed across all atoms in
    one pass; where that fails, one atom at a time, so that a bad entry
    is named by its atom and key."""
    shape = () if key == "q" else (3,)
    try:
        values = [atom[key] for _, atom in atoms]
        column = np.array(values, dtype=float)
        numbers = values if key == "q" else [x for v in values if type(v) is list for x in v]
        if (column.shape[1:] == shape and len(numbers) == column.size
                and {type(x) for x in numbers} <= {int, float}):
            return column
    except (LookupError, TypeError, ValueError, OverflowError):
        pass
    for i, atom in atoms:
        try:
            value = np.asarray(atom[key], dtype=float)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"atom {i} {key}: {exc}") from exc
        if value.shape != shape:
            raise ValueError(f"atom {i} {key} must have shape {shape}, got {value.shape}")
        _numbers(atom[key], f"atom {i} {key}")
    return np.array([atom[key] for _, atom in atoms], dtype=float)


def model_from_dict(doc: dict) -> FiniteLhsModel:
    """Rebuild a model from its serialized form.

    A sign-mixture model carries one atom per vertex of a built-in solid,
    in its canonical vertex order, so its polyhedron is the solid whose
    Gram matrix the atom preimages match (``polyhedron_from_vertices``),
    with the canonical faces and the table's inradius: the polyhedron the
    model was built on.  Any other preimages raise ValueError.  A sign
    mixture's ``eta`` entries are checked and dropped.
    """
    try:
        for key in ("t0", "t", "scale"):
            _numbers(doc[key], key)
        target = DiagMat3.from_array(doc["t0"])
        visibility = float(doc["t"])
        kind = doc["response_kind"]
        scale = float(doc["scale"])
        atoms = list(doc["atoms"])
        if not atoms:
            raise ValueError("model needs at least one atom")
        indexed = list(enumerate(atoms))
        q, blochs, preimages = (_column(indexed, key) for key in ("q", "lambda", "lambda_prime"))
        etas = _column([(i, a) for i, a in indexed if "eta" in a], "eta")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    if kind == "sign_mixture":
        poly = polyhedron_from_vertices(as_unit_rows(preimages, "atom preimage"))
        response: SignMixture | LinearResponse = SignMixture(poly, scale)
    elif kind == "linear":
        if scale != 1.0:
            raise ValueError(f"a linear response has scale 1, got {scale!r}")
        response = LinearResponse()
    else:
        raise ValueError(f"unknown response_kind {kind!r}")
    return FiniteLhsModel(weights=q, blochs=blochs, preimages=preimages, response=response,
                          target=target, visibility=visibility,
                          etas=etas if len(etas) else None)


def model_from_json(text: str) -> FiniteLhsModel:
    doc = serialize.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    return model_from_dict(doc)
