"""Construction of quasi-local noise operators that stabilize reduced supports.

Given a target that passes the stabilizability test, one noise operator per
neighborhood suffices. Each block is built in the basis (support frame, then
a deterministic completion of the complement): the support columns are
annihilated, one gain couples the first complement direction into the
support, and the remaining gains form a superdiagonal shift chain through
the complement. That shape leaves the support as the only invariant
subspace, so the dynamics funnel everything into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import ANNIHILATION_TOL, DqlsReport, check_dqls
from .subspaces import SUPPORT_RTOL, Subspace, complete_frame, note_or_raise
from .tensor import (
    LocalityPattern,
    PureState,
    QLOperator,
    apply_local,
)

# Default multiplier on the per-policy gains. Relaxation rates grow
# quadratically with the gains, and the unit-gain combined generator for the
# two-neighborhood 4-qubit fixtures relaxes with a gap near 0.11, far too
# slow for the convergence the package promises by t = 40; a scale of 3
# brings the gap near 1 while keeping the fixed-step integrator comfortable.
DEFAULT_GAIN_SCALE = 3.0

__all__ = [
    "DEFAULT_GAIN_SCALE",
    "NotStabilizableError",
    "StabilizerSet",
    "gains_for",
    "synthesize_block",
    "synthesize_stabilizers",
]


class NotStabilizableError(RuntimeError):
    """The target failed the stabilizability test, so synthesis is refused."""

    def __init__(self, message: str, report: DqlsReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class StabilizerSet:
    """One synthesized noise operator per neighborhood, with its gains, its
    annihilation residual on the target and the synthesis notes."""

    operators: tuple[QLOperator, ...]
    gains: tuple[tuple[float, ...], ...]
    residuals: tuple[float, ...]
    warnings: tuple[str, ...]


def gains_for(policy: str, count: int, scale: float = 1.0) -> tuple[float, ...]:
    """Gain sequence of the given length for a named policy.

    ``uniform`` uses all ones; ``graded`` uses 1, 2, ..., which breaks the
    spectral degeneracies of the uniform choice. ``scale``, finite and
    positive, multiplies the whole sequence.
    """
    if count < 0:
        raise ValueError("gain count must be non-negative")
    if not 0.0 < scale < math.inf:
        raise ValueError("gain scale must be finite and strictly positive")
    if policy == "uniform":
        return (float(scale),) * count
    if policy == "graded":
        return tuple(float(scale) * i for i in range(1, count + 1))
    raise ValueError(f"unknown gains policy {policy!r} (use 'uniform' or 'graded')")


def synthesize_block(
    target_support: Subspace, gains: Sequence[float]
) -> np.ndarray:
    """Matrix whose unique invariant subspace is the given support.

    In the basis (support frame, deterministic complement completion) the
    matrix is zero on the support columns, couples the first complement
    direction into the last support direction with the first gain, and
    shifts along the complement with the remaining gains. Returned in the
    computational basis. On degenerate supports the operator depends on the
    frame that :func:`~qlstab.subspaces.support` returns, not only on the
    subspace.

    Args:
        target_support: subspace to stabilize; must be proper and nonzero.
        gains: positive couplings, one per complement dimension.
    """
    n = target_support.ambient_dim
    s = target_support.dim
    if s < 1:
        raise ValueError("cannot stabilize the zero subspace")
    r = n - s
    if r == 0:
        raise ValueError(
            "support equals the full space; there is nothing to stabilize"
        )
    gains = tuple(float(g) for g in gains)
    if len(gains) != r:
        raise ValueError(f"need {r} gains (complement dimension), got {len(gains)}")
    if any(g <= 0.0 for g in gains):
        raise ValueError("gains must be strictly positive")
    basis = complete_frame(target_support.frame, n)
    shifted = np.zeros((n, n), dtype=complex)
    shifted[s - 1, s] = gains[0]
    for j in range(1, r):
        shifted[s + j - 1, s + j] = gains[j]
    return basis @ shifted @ basis.conj().T


def synthesize_stabilizers(
    psi: PureState,
    pattern: LocalityPattern,
    gains_policy: str = "uniform",
    *,
    gain_scale: float = DEFAULT_GAIN_SCALE,
    force: bool = False,
    rtol: float = SUPPORT_RTOL,
) -> StabilizerSet:
    """One noise operator per neighborhood stabilizing that reduced support.

    Refuses targets that fail the stabilizability test unless ``force`` is
    set (useful for experiments; the resulting dynamics then have extra
    stationary states). A neighborhood whose reduced support already fills
    its whole factor contributes the zero operator. ``warnings`` holds the
    stabilizability report's notes, then one note per such neighborhood.

    ``gains_policy`` fixes the relative gains along the complement chain and
    ``gain_scale`` their overall strength (relaxation rates are quadratic in
    the scale).

    Whether the target escapes the supports is the stabilizability report's
    decision, taken once (the target's distance from the intersection). Each
    block is verified to annihilate its own support frame (norm of B_k F_k
    at most ``ANNIHILATION_TOL``), which any block built from a valid support
    passes; a violation raises, or after a borderline rank decision is a
    note. ``residuals`` are the norms of L_k psi, reported, not thresholded.
    """
    report = check_dqls(psi, pattern, rtol)
    if not report.verdict and not force:
        reason = (
            "stabilizability verdict is indeterminate because of a borderline "
            "rank decision"
            if report.borderline
            else "target failed the stabilizability test"
        )
        raise NotStabilizableError(
            f"{reason} (intersection dimension {report.intersection_dim}); "
            "pass force=True to synthesize anyway",
            report,
        )
    notes = list(report.warnings)
    operators: list[QLOperator] = []
    all_gains: list[tuple[float, ...]] = []
    for hood, sup in zip(pattern.neighborhoods, report.supports):
        block_dim = sup.ambient_dim
        r = block_dim - sup.dim
        if r == 0:
            notes.append(
                f"neighborhood {hood.indices}: reduced support fills the whole "
                "factor; contributing the zero operator"
            )
            operators.append(QLOperator(hood, np.zeros((block_dim, block_dim))))
            all_gains.append(())
            continue
        gains = gains_for(gains_policy, r, gain_scale)
        operators.append(QLOperator(hood, synthesize_block(sup, gains)))
        all_gains.append(gains)
    residuals = []
    for op, sup in zip(operators, report.supports):
        applied = apply_local(op, psi.space, psi.amplitudes)
        residuals.append(float(np.linalg.norm(applied)))
        defect = float(np.linalg.norm(op.block @ sup.frame))
        if not defect <= ANNIHILATION_TOL:
            note_or_raise(
                f"synthesized operator on {op.neighborhood.indices} fails to "
                f"annihilate its support ({defect:.3e})",
                report.borderline, notes,
            )
    return StabilizerSet(
        tuple(operators), tuple(all_gains), tuple(residuals), tuple(notes)
    )

