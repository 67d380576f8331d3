"""Tolerance-aware subspace algebra on orthonormal column frames.

Supports of density matrices, orthogonal complements, projectors, and
subspace intersections, with explicit numerical rank thresholds. Frames are
complex matrices with orthonormal columns; a zero-column frame is the legal
representation of the zero subspace, never an error.

Rank decisions near their cutoff yield notes: ``support`` and ``intersect``
warn them as :class:`NumericalRankWarning`; ``_support`` returns them as data.
Everything here is a pure function on immutable values; safe for concurrent
use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import DensityMatrix, DimensionMismatchError

ORTH_TOL = 1e-9
INTERSECT_TOL = 1e-8
SUPPORT_RTOL = 1e-10
OPERATOR_RTOL = 1e-8
# Rank decisions whose eigenvalues sit within this factor of the cutoff are
# reported, so borderline verdicts stay auditable.
RANK_MARGIN = 100.0

__all__ = [
    "ORTH_TOL",
    "INTERSECT_TOL",
    "SUPPORT_RTOL",
    "NumericalRankWarning",
    "Subspace",
    "full_space",
    "span",
    "support",
    "projector",
    "complement",
    "complete_frame",
    "intersect",
    "equals",
]


class NumericalRankWarning(UserWarning):
    """A rank decision fell close to its numerical threshold."""


def _borderline(evals: np.ndarray, cutoff: float, decision: str) -> list[str]:
    """A note when eigenvalues lie within a factor ``RANK_MARGIN`` of the cutoff."""
    near = [
        float(w)
        for w in evals
        if cutoff / RANK_MARGIN <= abs(w) <= cutoff * RANK_MARGIN
    ]
    if not near:
        return []
    return [
        f"{decision} rank decision is borderline: eigenvalues {near} lie "
        f"within a factor {RANK_MARGIN:g} of the cutoff {cutoff:.3e}"
    ]


def _warn(notes: Sequence[str]) -> None:
    """Warn each borderline note, attributed to the public function's caller."""
    for note in notes:
        warnings.warn(note, NumericalRankWarning, stacklevel=3)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of C^ambient_dim represented by an orthonormal column frame."""

    ambient_dim: int
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = int(self.ambient_dim)
        if d < 1:
            raise ValueError("ambient dimension must be positive")
        frame = np.array(self.frame, dtype=complex)
        if frame.ndim != 2:
            frame = frame.reshape(d, -1)
        if frame.shape[0] != d:
            raise DimensionMismatchError(
                f"frame has {frame.shape[0]} rows, ambient dimension is {d}"
            )
        if frame.shape[1] > d:
            raise DimensionMismatchError(
                f"frame has {frame.shape[1]} columns in ambient dimension {d}"
            )
        if frame.shape[1] > 0:
            gram_defect = np.max(
                np.abs(frame.conj().T @ frame - np.eye(frame.shape[1]))
            )
            if gram_defect > ORTH_TOL:
                raise ValueError(
                    f"frame columns are not orthonormal (defect {gram_defect:.3e})"
                )
        frame.flags.writeable = False
        object.__setattr__(self, "ambient_dim", d)
        object.__setattr__(self, "frame", frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def contains(self, vector: np.ndarray, tol: float = ORTH_TOL) -> bool:
        """Whether a vector lies in the subspace up to ``tol`` (by residual)."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape != (self.ambient_dim,):
            raise DimensionMismatchError("vector length does not match ambient dim")
        residual = v - self.frame @ (self.frame.conj().T @ v)
        return float(np.linalg.norm(residual)) <= tol * max(1.0, np.linalg.norm(v))


def full_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex))


def span(vectors: np.ndarray, rtol: float = 1e-12) -> Subspace:
    """Orthonormal frame for the span of the given columns (via SVD)."""
    v = np.array(vectors, dtype=complex)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(v.shape[0], np.zeros((v.shape[0], 0)))
    return Subspace(v.shape[0], u[:, s > rtol * s[0]])


def support(rho, rtol: float = SUPPORT_RTOL) -> Subspace:
    """Span of the eigenvectors of a PSD operator with non-negligible eigenvalue.

    The threshold is relative to the largest eigenvalue, so scaling the
    operator cannot change the result. Eigenvalues within a factor
    ``RANK_MARGIN`` of the cutoff trigger a :class:`NumericalRankWarning`
    listing them. The zero operator has no support and is an error.

    Accepts a :class:`DensityMatrix` or any Hermitian PSD ndarray.
    """
    sub, notes = _support(rho, rtol)
    _warn(notes)
    return sub


def _support(rho, rtol: float) -> tuple[Subspace, list[str]]:
    """:func:`support`, returning its borderline note instead of warning it."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
    asym = np.max(np.abs(mat - mat.conj().T))
    evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        raise ValueError("the zero (or negative) operator has no support")
    if asym > OPERATOR_RTOL * max(1.0, lam_max):
        raise ValueError(f"operator is not Hermitian (asymmetry {asym:.3e})")
    if float(evals[0]) < -OPERATOR_RTOL * lam_max:
        raise ValueError(
            f"operator is not positive semidefinite (eigenvalue {evals[0]:.3e})"
        )
    cutoff = rtol * lam_max
    notes = _borderline(evals, cutoff, "support")
    return Subspace(mat.shape[0], evecs[:, evals > cutoff]), notes


def projector(sub: Subspace) -> np.ndarray:
    """Orthogonal projector frame @ frame^dagger onto the subspace."""
    if sub.dim == 0:
        return np.zeros((sub.ambient_dim, sub.ambient_dim), dtype=complex)
    return sub.frame @ sub.frame.conj().T


def complete_frame(frame: np.ndarray, ambient_dim: int) -> np.ndarray:
    """Deterministically complete orthonormal columns to a full unitary basis.

    QR on the frame augmented with the computational basis, so the result is
    reproducible bit-for-bit across runs. The first ``k`` output columns are
    the input frame itself; the rest span its orthogonal complement.
    """
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim != 2:
        frame = frame.reshape(ambient_dim, -1)
    k = frame.shape[1]
    if k == 0:
        return np.eye(ambient_dim, dtype=complex)
    if k == ambient_dim:
        return frame.copy()
    stacked = np.hstack([frame, np.eye(ambient_dim, dtype=complex)])
    q, _ = np.linalg.qr(stacked)
    return np.hstack([frame, q[:, k:ambient_dim]])


def complement(sub: Subspace) -> Subspace:
    """Orthogonal complement, dimension ambient_dim - dim."""
    basis = complete_frame(sub.frame, sub.ambient_dim)
    return Subspace(sub.ambient_dim, basis[:, sub.dim:])


def intersect(subspaces: Sequence[Subspace], tol: float = INTERSECT_TOL) -> Subspace:
    """Intersection of subspaces as the kernel of the summed complement projectors.

    The kernel of sum_k (I - P_k) is extracted as the eigenspace of
    eigenvalues below ``tol``; this treats all inputs symmetrically instead
    of iterating pairwise intersections. Every returned column is checked to
    lie in each input subspace within ``ORTH_TOL``.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("intersection of an empty list of subspaces")
    d = subs[0].ambient_dim
    for s in subs:
        if s.ambient_dim != d:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {s.ambient_dim} vs {d}"
            )
    accum = len(subs) * np.eye(d, dtype=complex)
    for s in subs:
        accum -= projector(s)
    evals, evecs = np.linalg.eigh((accum + accum.conj().T) / 2.0)
    _warn(_borderline(evals, tol, "intersection"))
    frame = evecs[:, evals < tol]
    for s in subs:
        if frame.shape[1] == 0:
            break
        residual = frame - s.frame @ (s.frame.conj().T @ frame)
        worst = float(np.max(np.linalg.norm(residual, axis=0)))
        if worst > ORTH_TOL:
            raise ArithmeticError(
                "intersection failed its containment check: a returned basis "
                f"vector sits {worst:.3e} outside an input subspace "
                "(ill-conditioned inputs near the rank threshold)"
            )
    return Subspace(d, frame)


def equals(a: Subspace, b: Subspace, tol: float = ORTH_TOL) -> bool:
    """Whether two subspaces coincide: spectral-norm projector distance <= tol."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim != b.dim:
        # Unequal dimensions force projector distance >= 1.
        return False
    return float(np.linalg.norm(projector(a) - projector(b), 2)) <= tol
