"""Quasi-local dissipative stabilizability analysis.

The central decision procedure: a target pure state is dissipatively
quasi-locally stabilizable (DQLS) for a fixed locality pattern exactly when
the intersection of the embedded supports of its neighborhood-reduced states
is the span of the target alone. That intersection is the kernel of the
quasi-local parent Hamiltonian sum_k (I - P_k), one complement projector per
neighborhood, so both share one per-neighborhood loop and the verdict is read
off one eigendecomposition. The module also checks frustration-freeness and
exposes the tensor-factor pre-reduction of a target state. Borderline rank
calls are returned as notes in ``DqlsReport.warnings`` and
``ParentHamiltonian.warnings``; nothing here raises or captures a warning.

Per-neighborhood work (reduced state, support) is independent and could run
in parallel; the sum of the embedded terms is a sequential reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import subspaces
from .subspaces import INTERSECT_TOL, ORTH_TOL, SUPPORT_RTOL, Subspace
from .tensor import (
    DensityMatrix,
    DimensionMismatchError,
    HERM_TOL,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    apply_local,
    embed,
    partial_trace,
)

ANNIHILATION_TOL = 1e-8
PURITY_TOL = 1e-9

__all__ = [
    "ANNIHILATION_TOL",
    "NeighborhoodAnalysis",
    "DqlsReport",
    "ParentHamiltonian",
    "check_dqls",
    "parent_hamiltonian",
    "is_frustration_free",
    "factorize_pure_state",
]


@dataclass(frozen=True, eq=False)
class NeighborhoodAnalysis:
    """Per-neighborhood diagnostics from the stabilizability test."""

    neighborhood: Neighborhood
    reduced_state: DensityMatrix
    support: Subspace


@dataclass(frozen=True, eq=False)
class DqlsReport:
    """Outcome of the stabilizability test.

    ``verdict`` is true exactly when the intersection subspace is
    one-dimensional and coincides with the span of the target. Warnings
    collect coverage gaps and borderline numerical rank decisions; a verdict
    that was true only up to a borderline rank call is downgraded to false
    and flagged here; ``borderline`` records any such rank call. Each
    intersection basis vector has its largest entry made real positive.
    """

    verdict: bool
    intersection: Subspace
    per_neighborhood: tuple[NeighborhoodAnalysis, ...]
    warnings: tuple[str, ...]
    borderline: bool

    @property
    def intersection_dim(self) -> int:
        return self.intersection.dim


@dataclass(frozen=True, eq=False)
class ParentHamiltonian:
    """Sum of neighborhood-supported complement projectors annihilating a target.

    Each term's block is the orthogonal projector onto the complement of the
    reduced-state support on its neighborhood, so every term is a Hermitian
    idempotent and the total is positive semidefinite. ``warnings`` holds the
    borderline support rank calls, in neighborhood order.
    """

    space: TensorSpace
    terms: tuple[QLOperator, ...]
    total: np.ndarray = field(repr=False)
    warnings: tuple[str, ...] = ()

    def kernel(self) -> Subspace:
        """Ground space: eigenvectors of the total below ``INTERSECT_TOL``."""
        return _kernel(self.total)[1]


def _kernel(total: np.ndarray) -> tuple[np.ndarray, Subspace]:
    """Eigenvalues of a parent-Hamiltonian sum and its kernel: the eigenvectors
    below ``INTERSECT_TOL``, each with its largest entry made real positive."""
    evals, evecs = np.linalg.eigh((total + total.conj().T) / 2.0)
    kernel = [_fix_phase(v) for v in evecs[:, evals < INTERSECT_TOL].T]
    return evals, Subspace(total.shape[0], np.transpose(kernel))


def _complement_terms(psi: PureState, pattern: LocalityPattern, rtol: float):
    """Per-neighborhood supports, terms I - P_k, their embedded sum, rank notes."""
    if psi.space != pattern.space:
        raise DimensionMismatchError("state and pattern live on different spaces")
    space = psi.space
    per: list[NeighborhoodAnalysis] = []
    terms: list[QLOperator] = []
    notes: list[str] = []
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for hood in pattern.neighborhoods:
        reduced = partial_trace(psi, hood)
        sup, hood_notes = subspaces._support(reduced, rtol)
        notes.extend(hood_notes)
        block = np.eye(reduced.space.dim, dtype=complex) - subspaces.projector(sup)
        term = QLOperator(hood, block)
        per.append(NeighborhoodAnalysis(hood, reduced, sup))
        terms.append(term)
        total += embed(term, space)
    return per, terms, total, notes


def check_dqls(
    psi: PureState, pattern: LocalityPattern, rtol: float = SUPPORT_RTOL
) -> DqlsReport:
    """Decide whether ``psi`` is stabilizable by purely dissipative dynamics
    restricted to the pattern's neighborhoods.

    For each neighborhood the reduced state, its support, and the complement
    term I - P_k embedded in the full space are computed. The intersection of
    the embedded supports is the kernel of the sum of those terms (the parent
    Hamiltonian; eigenvalues below ``INTERSECT_TOL``); the verdict is true
    when that kernel is one-dimensional and contains the target.

    Args:
        psi: target pure state.
        pattern: locality pattern on the same space.
        rtol: relative eigenvalue threshold for support rank decisions.

    Raises:
        DimensionMismatchError: if state and pattern live on different spaces.
    """
    notes: list[str] = []
    uncovered = pattern.uncovered()
    if uncovered:
        notes.append(
            f"uncovered subsystems {list(uncovered)}: no neighborhood acts on them"
        )
    per, terms, total, rank_notes = _complement_terms(psi, pattern, rtol)
    evals, intersection = _kernel(total)
    rank_notes += subspaces._borderline(evals, INTERSECT_TOL, "intersection")
    borderline = bool(rank_notes)
    notes += [f"borderline rank decision: {note}" for note in rank_notes]
    for term in terms:
        applied = apply_local(term, psi.space, intersection.frame)
        worst = float(np.max(np.linalg.norm(applied, axis=0), initial=0.0))
        if worst > ORTH_TOL:
            raise ArithmeticError(
                "intersection failed its containment check: a returned basis "
                f"vector sits {worst:.3e} outside an input subspace "
                "(ill-conditioned inputs near the rank threshold)"
            )

    # The intersection provably contains the target; a violation means the
    # numerics failed outright, not that the state is unstabilizable.
    overlap = intersection.frame.conj().T @ psi.amplitudes
    residual = float(
        np.linalg.norm(psi.amplitudes - intersection.frame @ overlap)
    )
    if not residual <= ANNIHILATION_TOL:
        raise ArithmeticError(
            f"target escaped the intersection subspace by {residual:.3e}; "
            "support thresholds are inconsistent with this input"
        )

    # For a one-dimensional intersection the residual is the spectral-norm
    # distance between its projector and the target's.
    verdict = intersection.dim == 1 and residual <= ORTH_TOL
    if verdict and borderline:
        verdict = False
        notes.append(
            "verdict downgraded to false: a rank decision fell at its "
            "tolerance boundary"
        )
    return DqlsReport(verdict, intersection, tuple(per), tuple(notes), borderline)


def parent_hamiltonian(
    psi: PureState, pattern: LocalityPattern, rtol: float = SUPPORT_RTOL
) -> ParentHamiltonian:
    """Build the quasi-local Hamiltonian whose terms project onto the
    complements of the reduced-state supports.

    Every term annihilates the target, so the target is always a
    frustration-free ground state; the ground space is exactly the span of
    the target precisely when the stabilizability verdict is true.
    """
    _, terms, total, notes = _complement_terms(psi, pattern, rtol)
    residual = float(np.linalg.norm(total @ psi.amplitudes))
    if not residual <= ANNIHILATION_TOL:
        raise ArithmeticError(
            f"parent Hamiltonian fails to annihilate the target ({residual:.3e})"
        )
    return ParentHamiltonian(psi.space, tuple(terms), total, tuple(notes))


def is_frustration_free(psi: PureState, terms: Sequence[QLOperator]) -> bool:
    """Whether the target attains every term's minimum eigenvalue.

    True iff for each Hermitian term the expectation value on ``psi`` equals
    the smallest eigenvalue of the embedded term within ``INTERSECT_TOL``.
    """
    for k, term in enumerate(terms):
        asym = np.max(np.abs(term.block - term.block.conj().T))
        if asym > HERM_TOL * max(1.0, float(np.max(np.abs(term.block)))):
            raise ValueError(f"term {k} is not Hermitian (asymmetry {asym:.3e})")
        applied = apply_local(term, psi.space, psi.amplitudes)
        expectation = float(np.real(np.vdot(psi.amplitudes, applied)))
        # Tensoring with the identity leaves the set of eigenvalues unchanged,
        # so the minimum can be read off the block.
        lam_min = float(np.linalg.eigvalsh((term.block + term.block.conj().T) / 2)[0])
        if abs(expectation - lam_min) > INTERSECT_TOL:
            return False
    return True


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Deterministic global phase: largest-magnitude entry made real positive."""
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def factorize_pure_state(psi: PureState) -> list[tuple[tuple[int, ...], PureState]]:
    """Finest tensor factorization of a pure state across subsystem subsets.

    A subset splits off exactly when its reduced state is pure (purity
    deficit at most ``PURITY_TOL``); searching subsets in size order yields
    minimal factors, so no returned factor has further product structure.
    Factors come back ordered by their smallest subsystem index, each with a
    deterministic global phase. The purity is sum(s**4) over the singular
    values s of the amplitudes reshaped to (subset dim, rest dim), and the
    factor is the top left singular vector; no D x D matrix is formed.
    """
    space = psi.space
    amplitudes = psi.amplitudes.reshape(space.dims)
    remaining = list(range(space.n_subsystems))
    factors: list[tuple[tuple[int, ...], PureState]] = []
    while remaining:
        anchor = remaining[0]
        rest = remaining[1:]
        found: tuple[tuple[int, ...], np.ndarray] | None = None
        for size in range(1, len(remaining) + 1):
            for combo in itertools.combinations(rest, size - 1):
                subset = tuple(sorted((anchor,) + combo))
                d_subset = math.prod(space.subspace_dims(subset))
                matrix = np.moveaxis(amplitudes, subset, range(len(subset)))
                matrix = matrix.reshape(d_subset, -1)
                u, s, _ = np.linalg.svd(matrix, full_matrices=False)
                if 1.0 - float(np.sum(s**4)) <= PURITY_TOL:
                    found = subset, u[:, 0]
                    break
            if found is not None:
                break
        assert found is not None
        subset, vec = found
        sub_space = TensorSpace(space.subspace_dims(subset))
        factors.append((subset, PureState(sub_space, _fix_phase(vec))))
        remaining = [a for a in remaining if a not in subset]
    return factors
