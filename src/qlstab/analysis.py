"""Quasi-local dissipative stabilizability analysis.

The central decision procedure: a target pure state is dissipatively
quasi-locally stabilizable (DQLS) for a fixed locality pattern exactly when
the intersection of the embedded supports of its neighborhood-reduced states
is the span of the target alone. That intersection is the kernel of the
quasi-local parent Hamiltonian sum_k (I - P_k), one complement projector per
neighborhood, so one analysis (``_analyse``) builds both: ``check_dqls``
returns its report, ``parent_hamiltonian`` its terms with that report's
intersection and notes, and the two cannot decide differently.

An embedded support has the form X_k tensor H_rest, so the intersection is
built one neighborhood at a time on the subsystems covered so far (the
"intersection property" sweep of MPS parent Hamiltonians): the frame of the
running intersection is widened by the identity on the neighborhood's new
subsystems, the term I - P_k is applied to it, and the eigenvectors of the
small Gram matrix below ``INTERSECT_TOL`` are kept. No D x D matrix is formed
for the verdict; the frame is at most D x D when every support is full.

The module also checks frustration-freeness. Uncovered subsystems and
borderline rank calls are returned as notes in ``DqlsReport.warnings``;
nothing here warns or captures a warning.

Per-neighborhood work (reduced state, support) is independent and could run
in parallel; the sweep is sequential. Only each neighborhood's support is
kept; its reduced state is dropped once the support is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import subspaces
from .subspaces import INTERSECT_TOL, ORTH_TOL, SUPPORT_RTOL, Subspace, projector
from .tensor import (
    DimensionMismatchError,
    HERM_TOL,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    apply_local,
    check_hermitian,
    embed_frame,
    partial_trace,
)

ANNIHILATION_TOL = 1e-8

__all__ = [
    "ANNIHILATION_TOL",
    "DqlsReport",
    "ParentHamiltonian",
    "check_dqls",
    "parent_hamiltonian",
    "is_frustration_free",
]


@dataclass(frozen=True, eq=False)
class DqlsReport:
    """Outcome of the stabilizability test.

    ``verdict`` is true exactly when the intersection subspace is
    one-dimensional and coincides with the span of the target. Warnings
    collect coverage gaps and borderline numerical rank decisions; a verdict
    that was true only up to a borderline rank call is downgraded to false
    and flagged here; ``borderline`` records any such rank call. Each
    intersection basis vector is phase-fixed by ``_fix_phase``.

    ``supports[k]`` is the support of the target's reduced state on
    ``pattern.neighborhoods[k]``, a subspace of that neighborhood's factor
    (``ambient_dim`` is the product of its dimensions). ``margins[k]``
    belongs to the sweep step that applied neighborhood ``k``: the smallest
    eigenvalue of that step's Gram matrix above the cutoff, the squared sine
    of the closest principal angle between the running intersection and the
    neighborhood's embedded support that the step rejected; ``math.inf``
    when the step rejected nothing.
    """

    verdict: bool
    intersection: Subspace
    supports: tuple[Subspace, ...]
    warnings: tuple[str, ...]
    borderline: bool
    margins: tuple[float, ...]

    @property
    def intersection_dim(self) -> int:
        return self.intersection.dim


@dataclass(frozen=True, eq=False)
class ParentHamiltonian:
    """Sum of neighborhood-supported complement projectors annihilating a target.

    Each term's block is the orthogonal projector onto the complement of the
    reduced-state support on its neighborhood, so every term is a Hermitian
    idempotent and their sum is positive semidefinite. No D x D matrix is
    held; the terms are the Hamiltonian. ``intersection`` is their common
    kernel and ``warnings`` are the notes of the stabilizability analysis
    that built them, the same as :class:`DqlsReport`'s.
    """

    space: TensorSpace
    terms: tuple[QLOperator, ...]
    warnings: tuple[str, ...]
    intersection: Subspace

    def kernel(self) -> Subspace:
        """Ground space: the common kernel of the terms, as the sequential
        sweep built it (Gram eigenvalues below ``INTERSECT_TOL``)."""
        return self.intersection


def _widen(frame: np.ndarray, covered: list[int], union: list[int], union_space):
    """A frame on the sorted subsystems ``covered`` tensored with the identity
    on the rest of the sorted ``union`` (whose space is ``union_space``), in
    the union's subsystem order."""
    if not covered:
        return np.eye(union_space.dim, dtype=complex)
    local = Neighborhood(tuple(union.index(a) for a in covered))
    return embed_frame(frame, local, union_space)


def _sweep(space: TensorSpace, terms: Sequence[QLOperator]):
    """Common kernel of complement-projector terms, one neighborhood at a time.

    Neighborhoods are taken in pattern order. Each step widens the running
    frame by the identity on the new subsystems and keeps the eigenvectors of
    its Gram matrix under the term below ``INTERSECT_TOL``. Returns the kernel
    on the full space (uncovered subsystems tensored in as the identity, each
    column phase-fixed), every step's Gram eigenvalues, and the per-term
    margins of :class:`DqlsReport`.
    """
    covered: list[int] = []
    frame = np.ones((1, 1), dtype=complex)
    spectra: list[np.ndarray] = []
    margins: list[float] = []
    for term in terms:
        hood = term.neighborhood
        union = sorted(set(covered) | set(hood.indices))
        union_space = TensorSpace(space.subspace_dims(union))
        widened = _widen(frame, covered, union, union_space)
        local = Neighborhood(tuple(union.index(a) for a in hood.indices))
        applied = apply_local(QLOperator(local, term.block), union_space, widened)
        gram = widened.conj().T @ applied
        # Only the Gram matrix's Hermitian part is held into eigh; the
        # widened frame is built again after it.
        del applied, widened
        herm = (gram + gram.conj().T) / 2.0
        del gram
        evals, evecs = np.linalg.eigh(herm)
        kept = evals < INTERSECT_TOL
        margins.append(float(np.min(evals[~kept], initial=math.inf)))
        spectra.append(evals)
        # A product even when the widened frame is the identity: it turns
        # the eigenvectors' -0.0 into +0.0.
        frame = _widen(frame, covered, union, union_space) @ evecs[:, kept]
        covered = union
    frame = _widen(frame, covered, list(range(space.n_subsystems)), space)
    kernel = Subspace(_fix_phase(frame))
    return kernel, np.concatenate(spectra), tuple(margins)


def _analyse(psi: PureState, pattern: LocalityPattern, rtol: float):
    """The one stabilizability analysis: the report of :func:`check_dqls` and
    the complement terms I - P_k, one per neighborhood, whose common kernel is
    the report's intersection."""
    if psi.space != pattern.space:
        raise DimensionMismatchError("state and pattern live on different spaces")
    uncovered = list(pattern.uncovered())
    notes = (
        [f"uncovered subsystems {uncovered}: no neighborhood acts on them"]
        if uncovered else []
    )
    supports: list[Subspace] = []
    rank_notes: list[str] = []
    for hood in pattern.neighborhoods:
        sup, hood_notes = subspaces.support(partial_trace(psi, hood), rtol)
        rank_notes += hood_notes
        supports.append(sup)
    # One block per term is held from here through the sweep and the
    # containment check (parent_hamiltonian returns them); the identity and
    # projector that form a block are freed before the next term is built.
    terms = tuple(
        QLOperator(hood, np.eye(sup.ambient_dim, dtype=complex) - projector(sup))
        for hood, sup in zip(pattern.neighborhoods, supports)
    )
    intersection, evals, margins = _sweep(psi.space, terms)
    rank_notes += subspaces.borderline_notes(evals, INTERSECT_TOL, "intersection")
    borderline = bool(rank_notes)
    notes += [f"borderline rank decision: {note}" for note in rank_notes]
    for term in terms:
        applied = apply_local(term, psi.space, intersection.frame)
        worst = float(np.max(np.linalg.norm(applied, axis=0), initial=0.0))
        if not worst <= ORTH_TOL:
            subspaces.note_or_raise(
                "intersection failed its containment check: a returned basis "
                f"vector sits {worst:.3e} outside an input subspace",
                borderline, notes, " (ill-conditioned inputs near the rank threshold)",
            )
            break

    # The intersection holds the target unless a cutoff truncated a support.
    # This residual is the one escape decision for every builder.
    overlap = intersection.frame.conj().T @ psi.amplitudes
    residual = float(np.linalg.norm(psi.amplitudes - intersection.frame @ overlap))
    if not residual <= ANNIHILATION_TOL:
        subspaces.note_or_raise(
            f"target escaped the intersection subspace by {residual:.3e}",
            borderline, notes, "; support thresholds are inconsistent with this input",
        )

    # For a one-dimensional intersection the residual is the spectral-norm
    # distance between its projector and the target's.
    verdict = intersection.dim == 1 and residual <= ORTH_TOL
    # Above ANNIHILATION_TOL the escape note already explains the verdict.
    if intersection.dim == 1 and ORTH_TOL < residual <= ANNIHILATION_TOL:
        notes.append(
            f"verdict false: the target lies {residual:.3e} from the "
            f"one-dimensional intersection, above ORTH_TOL {ORTH_TOL:.3e}"
        )
    if verdict and borderline:
        verdict = False
        notes.append(
            "verdict downgraded to false: a rank decision fell at its "
            "tolerance boundary"
        )
    report = DqlsReport(
        verdict, intersection, tuple(supports), tuple(notes), borderline, margins
    )
    return report, terms


def check_dqls(
    psi: PureState, pattern: LocalityPattern, rtol: float = SUPPORT_RTOL
) -> DqlsReport:
    """Decide whether ``psi`` is stabilizable by purely dissipative dynamics
    restricted to the pattern's neighborhoods.

    For each neighborhood the reduced state, its support, and the complement
    term I - P_k are computed. The intersection of the embedded supports (the
    kernel of the parent Hamiltonian) is built by the sequential sweep, each
    step keeping Gram eigenvalues below ``INTERSECT_TOL``; the verdict is
    true when that intersection is one-dimensional and contains the target.

    Args:
        psi: target pure state.
        pattern: locality pattern on the same space.
        rtol: relative eigenvalue threshold for support rank decisions.

    Raises:
        DimensionMismatchError: if state and pattern live on different spaces.
        ArithmeticError: if the target escapes the intersection, or the
            intersection a support, with no borderline rank decision; after
            one, either failure is a note and the verdict is indeterminate.
    """
    return _analyse(psi, pattern, rtol)[0]


def parent_hamiltonian(
    psi: PureState, pattern: LocalityPattern, rtol: float = SUPPORT_RTOL
) -> ParentHamiltonian:
    """Build the quasi-local Hamiltonian whose terms project onto the
    complements of the reduced-state supports.

    It comes from the same analysis as :func:`check_dqls`: its ``warnings``
    are that report's notes, ``kernel()`` is its intersection, and it raises
    exactly where ``check_dqls`` raises, with the same message. Every term
    annihilates the target up to the weight its support cutoff dropped, which
    the analysis's escape check bounds, so the target is a frustration-free
    ground state; the ground space is the span of the target precisely when
    the stabilizability verdict is true.
    """
    report, terms = _analyse(psi, pattern, rtol)
    return ParentHamiltonian(psi.space, terms, report.warnings, report.intersection)


def is_frustration_free(psi: PureState, terms: Sequence[QLOperator]) -> bool:
    """Whether the target attains every term's minimum eigenvalue.

    True iff for each Hermitian term the expectation value on ``psi`` equals
    the smallest eigenvalue of the embedded term within ``INTERSECT_TOL``.
    """
    for k, term in enumerate(terms):
        bound = HERM_TOL * max(1.0, np.abs(term.block).max())
        check_hermitian(term.block, bound, f"term {k}")
        applied = apply_local(term, psi.space, psi.amplitudes)
        expectation = float(np.real(np.vdot(psi.amplitudes, applied)))
        # Tensoring with the identity leaves the set of eigenvalues unchanged,
        # so the minimum can be read off the block.
        lam_min = float(np.linalg.eigvalsh((term.block + term.block.conj().T) / 2)[0])
        if not abs(expectation - lam_min) <= INTERSECT_TOL:
            return False
    return True


def _fix_phase(frame: np.ndarray) -> np.ndarray:
    """Deterministic global phase per column: the first entry within
    ``ORTH_TOL`` of the column's largest magnitude is made real positive, so
    ties in magnitude (graph states, GHZ) do not leave the choice to roundoff."""
    mags = np.abs(frame)
    first = np.argmax(mags >= mags.max(axis=0) - ORTH_TOL, axis=0)[None]
    phases = np.take_along_axis(frame, first, 0) / np.take_along_axis(mags, first, 0)
    return frame / phases

