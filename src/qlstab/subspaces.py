"""Tolerance-aware subspace algebra on orthonormal column frames.

Supports of density matrices, orthogonal complements, projectors, and
subspace intersections, with explicit numerical rank thresholds. Frames are
complex matrices with orthonormal columns; a zero-column frame is the legal
representation of the zero subspace, never an error.

Rank decisions near their cutoff yield notes: ``support`` and ``intersect``
return them as data next to the subspace, and nothing here warns. Everything
here is a pure function on immutable values; safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import DensityMatrix, DimensionMismatchError

ORTH_TOL = 1e-9
INTERSECT_TOL = 1e-8
SUPPORT_RTOL = 1e-10
# Rank decisions whose eigenvalues sit within this factor of the cutoff are
# reported, so borderline verdicts stay auditable.
RANK_MARGIN = 100.0

__all__ = [
    "ORTH_TOL",
    "INTERSECT_TOL",
    "SUPPORT_RTOL",
    "RANK_MARGIN",
    "borderline_notes",
    "note_or_raise",
    "Subspace",
    "support",
    "projector",
    "complete_frame",
    "intersect",
    "equals",
]


def borderline_notes(evals: np.ndarray, cutoff: float, decision: str) -> list[str]:
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


def note_or_raise(failure: str, borderline: bool, notes: list[str], cause: str = ""):
    """A failed rank-dependent check: after a borderline rank decision the
    verdict is indeterminate either way, so ``failure`` becomes a note in
    ``notes``; otherwise it raises ``ArithmeticError(failure + cause)``."""
    if not borderline:
        raise ArithmeticError(failure + cause)
    notes.append(f"{failure}, after a borderline rank decision")


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
            raise DimensionMismatchError(f"frame must be 2-D, got shape {frame.shape}")
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
            if not gram_defect <= ORTH_TOL:
                raise ValueError(
                    f"frame columns are not orthonormal (defect {gram_defect:.3e})"
                )
        frame.flags.writeable = False
        object.__setattr__(self, "ambient_dim", d)
        object.__setattr__(self, "frame", frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]


def support(
    rho: DensityMatrix, rtol: float = SUPPORT_RTOL
) -> tuple[Subspace, list[str]]:
    """Span of the eigenvectors of a state with non-negligible eigenvalue.

    The threshold is relative to the largest eigenvalue. Returns the support
    and its notes: one note listing the eigenvalues within a factor
    ``RANK_MARGIN`` of the cutoff, if any. ``DensityMatrix`` has already
    checked that the state is Hermitian, positive and of unit trace.
    """
    mat = rho.matrix
    evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    cutoff = rtol * float(evals[-1])
    notes = borderline_notes(evals, cutoff, "support")
    return Subspace(mat.shape[0], evecs[:, evals > cutoff]), notes


def projector(sub: Subspace) -> np.ndarray:
    """Orthogonal projector frame @ frame^dagger (zero for the zero subspace)."""
    return sub.frame @ sub.frame.conj().T


def complete_frame(frame: np.ndarray, ambient_dim: int) -> np.ndarray:
    """Deterministically complete orthonormal columns to a full unitary basis.

    QR on the frame augmented with the computational basis, so the result is
    reproducible bit-for-bit across runs. The first ``k`` output columns are
    the input frame itself; the rest span its orthogonal complement.
    """
    frame = np.asarray(frame, dtype=complex)
    k = frame.shape[1]
    if k == 0:
        return np.eye(ambient_dim, dtype=complex)
    if k == ambient_dim:
        return frame.copy()
    stacked = np.hstack([frame, np.eye(ambient_dim, dtype=complex)])
    q, _ = np.linalg.qr(stacked)
    return np.hstack([frame, q[:, k:ambient_dim]])


def intersect(subspaces: Sequence[Subspace]) -> tuple[Subspace, list[str]]:
    """Intersection of subspaces as the kernel of the summed complement projectors.

    The kernel of sum_k (I - P_k) is extracted as the eigenspace of
    eigenvalues below ``INTERSECT_TOL``; this treats all inputs symmetrically instead
    of iterating pairwise intersections. Every returned column is checked to
    lie in each input subspace within ``ORTH_TOL``. Returns the intersection
    and its notes: one note listing the eigenvalues within a factor
    ``RANK_MARGIN`` of ``INTERSECT_TOL``, if any.
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
    notes = borderline_notes(evals, INTERSECT_TOL, "intersection")
    frame = evecs[:, evals < INTERSECT_TOL]
    for s in subs:
        if frame.shape[1] == 0:
            break
        residual = frame - s.frame @ (s.frame.conj().T @ frame)
        worst = float(np.max(np.linalg.norm(residual, axis=0)))
        if not worst <= ORTH_TOL:
            raise ArithmeticError(
                "intersection failed its containment check: a returned basis "
                f"vector sits {worst:.3e} outside an input subspace "
                "(ill-conditioned inputs near the rank threshold)"
            )
    return Subspace(d, frame), notes


def equals(a: Subspace, b: Subspace) -> bool:
    """Whether two subspaces coincide: spectral-norm projector distance <= ORTH_TOL."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim != b.dim:
        # Unequal dimensions force projector distance >= 1.
        return False
    return float(np.linalg.norm(projector(a) - projector(b), 2)) <= ORTH_TOL
