"""Construction of quasi-local noise operators that stabilize reduced supports.

Given a target that passes the stabilizability test, one noise operator per
neighborhood suffices. Each block is built in the basis (support frame, then
a deterministic completion of the complement): the support columns are
annihilated, one gain couples the first complement direction into the
support, and the remaining gains form a superdiagonal shift chain through
the complement. That shape leaves the support as the only invariant
subspace, so the dynamics funnel everything into it.

Also provides the generator renormalization that shifts noise operators by
their eigenvalue on a common eigenvector and compensates with a Hamiltonian
correction, leaving the generator's action unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import ANNIHILATION_TOL, DqlsReport, check_dqls
from .subspaces import SUPPORT_RTOL, Subspace, complete_frame
from .tensor import (
    LocalityPattern,
    PureState,
    QLOperator,
    apply_local,
)

INVARIANCE_TOL = 1e-9
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
    "renormalize_generator",
]


class NotStabilizableError(RuntimeError):
    """The target failed the stabilizability test, so synthesis is refused."""

    def __init__(self, message: str, report: DqlsReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class StabilizerSet:
    """One synthesized noise operator per neighborhood, with its gains, its
    annihilation residual on the target and the synthesis notes (all empty
    when loaded)."""

    operators: tuple[QLOperator, ...]
    gains: tuple[tuple[float, ...], ...]
    residuals: tuple[float, ...]
    warnings: tuple[str, ...] = ()


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

    Every embedded operator annihilates the target; this is verified and a
    violation raises, since it would invalidate the whole construction.
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
    for analysis in report.per_neighborhood:
        hood = analysis.neighborhood
        sup = analysis.support
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
    for op in operators:
        residual = float(np.linalg.norm(apply_local(op, psi.space, psi.amplitudes)))
        residuals.append(residual)
        if not residual <= ANNIHILATION_TOL:
            raise ArithmeticError(
                f"synthesized operator on {op.neighborhood.indices} fails to "
                f"annihilate the target (residual {residual:.3e})"
            )
    return StabilizerSet(
        tuple(operators), tuple(all_gains), tuple(residuals), tuple(notes)
    )


def renormalize_generator(
    hamiltonian: np.ndarray, noise_ops: Sequence[np.ndarray], psi: PureState
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Shift noise operators so they annihilate a common eigenvector.

    Requires the target to be a common eigenvector of every noise operator.
    Each operator is replaced by itself minus its eigenvalue times the
    identity, and the Hamiltonian picks up the compensating correction
    (i/2) * sum_k (conj(l_k) L_k - l_k L_k^dagger), which leaves the full
    generator's action on every state unchanged. The 1/2 coefficient is the
    one fixed by direct expansion of the dissipator and is verified by the
    generator-equality tests; a coefficient of 1 (which also circulates in
    the literature) fails that check by exactly a factor of two.
    """
    d = psi.space.dim
    ham = np.asarray(hamiltonian, dtype=complex)
    if ham.shape != (d, d):
        raise ValueError(f"Hamiltonian shape {ham.shape} does not match dim {d}")
    shifted: list[np.ndarray] = []
    correction = np.zeros((d, d), dtype=complex)
    for k, op in enumerate(noise_ops):
        op = np.asarray(op, dtype=complex)
        if op.shape != (d, d):
            raise ValueError(f"noise operator {k} shape {op.shape} != ({d}, {d})")
        eigval = complex(np.vdot(psi.amplitudes, op @ psi.amplitudes))
        residual = float(np.linalg.norm(op @ psi.amplitudes - eigval * psi.amplitudes))
        if residual > INVARIANCE_TOL:
            raise ValueError(
                f"target is not an eigenvector of noise operator {k} "
                f"(residual {residual:.3e})"
            )
        shifted.append(op - eigval * np.eye(d))
        correction += np.conj(eigval) * op - eigval * op.conj().T
    new_ham = ham + 0.5j * correction
    # The correction is anti-Hermitian times i, so this is exact up to roundoff.
    new_ham = (new_ham + new_ham.conj().T) / 2.0
    return new_ham, shifted
