"""Lindblad generator evaluation, spectra, integration, and switched cycles.

The generator acts as rho -> -i[H, rho] + sum_k (L_k rho L_k^dag
- (1/2){L_k^dag L_k, rho}). Its vectorized (column-stacking) matrix form
supports dense spectral analysis: a global-asymptotic-stability certificate
checks that the target is the unique stationary state and that no purely
rotating invariant structure survives. Because the generator maps Hermitian
matrices to Hermitian matrices, the certificate works on its real form in
a Hermitian basis: eigenvalues come from a real eigensolver without
eigenvectors, one call per connected component of the real form's exact
nonzero pattern, and the stationary state from one bordered linear solve on
the component that holds the diagonal slots. The real form and its blocks
live in the buffer of the vectorized generator.
With real noise operators and no Hamiltonian the generator commutes with
transposition, so symmetric and antisymmetric coordinates never mix and
the real form splits into at least two blocks.
Time evolution uses a fixed-step classical 4th-order integrator with a
trace-drift guard; cyclic switching composes per-neighborhood semigroup
maps through dense matrix exponentials.

Dense spectral paths are capped at total dimension 64 (a 4096-dimensional
vectorized generator); a larger system gets no certificate, only the
trajectory evidence of the CLI's simulate command, which is never called a
certificate.

All kernels are pure functions on immutable values: independent
trajectories and per-generator exponentials can run in parallel, while a
single trajectory is inherently sequential.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .subspaces import RANK_MARGIN
from .tensor import (
    DensityMatrix,
    DimensionMismatchError,
    HERM_TOL,
    NORM_TOL,
    PureState,
    QLOperator,
    TensorSpace,
    check_hermitian,
    embed,
    random_density_matrix,
)

EIG_TOL = 1e-8
STEADY_STATE_TOL = 1e-7
DEFAULT_DIM_CAP = 64
TRACE_DRIFT_LIMIT = 1e-6
# A valid state never has entries above 1; the integrator step preserves the
# trace exactly, so instability shows up as entry blowup first.
DIVERGENCE_LIMIT = 10.0
SNAPSHOT_HERM_TOL = 1e-7
SNAPSHOT_TRACE_TOL = 1e-7
SNAPSHOT_PSD_TOL = 1e-5
INVARIANCE_TOL = 1e-9

__all__ = [
    "EIG_TOL",
    "DEFAULT_DIM_CAP",
    "DimensionCapError",
    "IntegrationError",
    "LindbladGenerator",
    "GasCertificate",
    "InvarianceDiagnostics",
    "SwitchingSchedule",
    "stack",
    "unstack",
    "apply_generator",
    "vectorize",
    "gas_certificate",
    "check_invariance",
    "evolve",
    "switched_map",
    "simulate_switched",
    "stabilizer_generator",
    "stabilizer_generators",
    "fidelity",
    "trace_distance",
    "purity",
]


class DimensionCapError(RuntimeError):
    """Dense spectral analysis was requested above the dimension cap."""


class IntegrationError(RuntimeError):
    """The fixed-step integrator lost trace conservation."""


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Hamiltonian plus noise operators defining a Lindblad generator.

    The Hamiltonian (if present) must be Hermitian and the noise operators
    finite, with a finite sum of L^dag L (an overflow raises
    ``ArithmeticError``); at least one of Hamiltonian and noise operators
    must be supplied. Units are hbar = 1: the Hamiltonian carries inverse
    time, noise operators inverse square root of time.
    """

    space: TensorSpace
    hamiltonian: np.ndarray | None = field(repr=False, default=None)
    noise_ops: tuple[np.ndarray, ...] = field(repr=False, default=())
    _stack: np.ndarray = field(repr=False, init=False)
    _adjoints: np.ndarray = field(repr=False, init=False)
    _quad: np.ndarray = field(repr=False, init=False)

    def __post_init__(self):
        d = self.space.dim
        ham = self.hamiltonian
        if ham is not None:
            ham = np.array(ham, dtype=complex)
            if ham.shape != (d, d):
                raise DimensionMismatchError(
                    f"Hamiltonian shape {ham.shape} does not match dim {d}"
                )
            check_hermitian(ham, HERM_TOL * max(1.0, np.abs(ham).max()), "Hamiltonian")
            ham.flags.writeable = False
        ops = tuple(self.noise_ops)
        n = len(ops)
        # Noise operators L_0 .. L_{n-1}, then sum_k L_k^dag L_k, in one stack.
        stack = np.zeros((n + 1, d, d), dtype=complex)
        for k, op in enumerate(ops):
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise DimensionMismatchError(
                    f"noise operator {k} shape {op.shape} does not match dim {d}"
                )
            if not np.isfinite(op).all():
                raise ValueError(f"noise operator {k} has non-finite entries")
            stack[k] = op
        if ham is None and not n:
            raise ValueError("a generator needs a Hamiltonian or noise operators")
        conj = stack[:n].conj()
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n):
                stack[n] += conj[k].T @ stack[k]
        if not np.isfinite(stack[n]).all():
            raise ArithmeticError(
                "noise operators are too large: sum of L^dag L overflows"
            )
        stack.flags.writeable = False
        conj.flags.writeable = False
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "noise_ops", tuple(stack[:n]))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_adjoints", conj.transpose(0, 2, 1))
        object.__setattr__(self, "_quad", stack[n])

    def norm_bound(self) -> float:
        """Upper bound on the generator's induced norm, for step-size choice."""
        bound = 0.0
        if self.hamiltonian is not None:
            bound += 2.0 * float(np.linalg.norm(self.hamiltonian, 2))
        for op in self.noise_ops:
            bound += 2.0 * float(np.linalg.norm(op, 2)) ** 2
        return bound


@dataclass(frozen=True, eq=False)
class GasCertificate:
    """Spectral global-asymptotic-stability verdict for a target state.

    ``eigenvalues`` is the generator's spectrum sorted by real, then
    imaginary part. Eigenvalues of modulus at most ``EIG_TOL`` count as the
    kernel, of dimension ``kernel_dim``; ``gap`` is minus the largest real
    part among the others (``inf`` when there are none). ``steady_state`` is
    the trace-one stationary state, set only when the kernel is
    one-dimensional (None otherwise).
    """

    certified: bool
    eigenvalues: np.ndarray = field(repr=False)
    kernel_dim: int
    gap: float
    steady_state: np.ndarray | None = field(repr=False)
    messages: tuple[str, ...]


@dataclass(frozen=True)
class InvarianceDiagnostics:
    """Stationarity of a pure target under a generator (``check_invariance``).

    ``offdiagonal_residual`` is max_k |L_k psi - <psi|L_k psi> psi|, the
    largest part of a noise operator's image of the target outside the
    target. ``hamiltonian_residual`` is the norm of the Hamiltonian row
    left after the noise cross terms cancel against it, off the target.
    ``invariant`` holds when both are at most ``INVARIANCE_TOL``.
    """

    invariant: bool
    offdiagonal_residual: float
    hamiltonian_residual: float


@dataclass(frozen=True, eq=False)
class SwitchingSchedule:
    """Cyclic switching plan: each generator acts for ``tau`` in turn.

    A single-generator schedule is allowed and degenerates to a fixed
    generator; zero ``tau`` is legal and makes every segment the identity
    map.
    """

    tau: float
    generators: tuple[LindbladGenerator, ...]

    def __post_init__(self):
        if not self.tau >= 0:
            raise ValueError("switching interval must be non-negative")
        gens = tuple(self.generators)
        if len(gens) < 1:
            raise ValueError("a schedule needs at least one generator")
        space = gens[0].space
        for g in gens:
            if g.space != space:
                raise DimensionMismatchError("schedule generators mix spaces")
        object.__setattr__(self, "generators", gens)


def stack(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(mat).reshape(-1, order="F")


def unstack(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`stack` for a ``dim`` x ``dim`` matrix."""
    return np.asarray(vec).reshape((dim, dim), order="F")


def _state_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, complex)


def apply_generator(gen: LindbladGenerator, rho) -> np.ndarray:
    """Evaluate the generator on a state (or any matrix of matching shape).

    Output is traceless, and Hermitian for Hermitian input.
    """
    mat = _state_matrix(rho)
    d = gen._stack.shape[-1]
    if mat.shape != (d, d):
        raise DimensionMismatchError(
            f"state shape {mat.shape} does not match generator dim {d}"
        )
    # One batched product per factor: L_k rho and (sum L^dag L) rho, then
    # (L_k rho) L_k^dag; each slice is the same matrix product as one at a time.
    left = gen._stack @ mat
    jumps = left[:-1] @ gen._adjoints
    out = np.zeros((d, d), dtype=complex)
    if gen.hamiltonian is not None:
        out += -1j * (gen.hamiltonian @ mat - mat @ gen.hamiltonian)
    for jump in jumps:
        out += jump
    out -= 0.5 * (left[-1] + mat @ gen._quad)
    return out


def vectorize(gen: LindbladGenerator) -> np.ndarray:
    """Column-stacking matrix form of the generator.

    Satisfies unstack(vectorize(gen) @ stack(rho)) == apply_generator(gen,
    rho). With the drift K = -iH - (1/2) sum_k L_k^dag L_k the generator is
    rho -> K rho + rho K^dag + sum_k L_k rho L_k^dag, so its matrix is
    I kron K + conj(K) kron I plus conj(L) kron L per noise operator. Every
    term is added through a (d, d, d, d) view of the output: the drift
    block by block, each Kronecker product one block row (D x D^2) at a
    time, so no D^2 x D^2 temporary is formed. Each entry receives the same
    products, in the same order, as adding whole Kronecker products.
    """
    d = gen.space.dim
    drift = -0.5 * gen._quad
    if gen.hamiltonian is not None:
        drift = drift - 1j * gen.hamiltonian
    out = np.zeros((d * d, d * d), dtype=complex)
    blocks = out.reshape(d, d, d, d)
    drift_conj = drift.conj()
    for i in range(d):
        blocks[i, :, i, :] += drift
        blocks[:, i, :, i] += drift_conj
    for op in gen.noise_ops:
        op_conj = op.conj()
        for a in range(d):
            blocks[a] += op_conj[a, None, :, None] * op[:, None, :]
    return out


def _real_form(lhat: np.ndarray, d: int) -> np.ndarray:
    """Real matrix T lhat T^dag of a Hermiticity-preserving superoperator.

    T is the unitary that maps stack(X) to real coordinates: X_ii stays on
    its diagonal slot, sqrt(2) Re X_ij goes to slot (i, j) and sqrt(2) Im X_ij
    to slot (j, i), for i < j. For Hermitian X these coordinates are real, so
    the result is real and has the spectrum of ``lhat``. ``lhat`` must be
    C-contiguous, as :func:`vectorize` returns it, and is overwritten: its
    rows are mixed pairwise in place through views, one first index i at a
    time, then its columns in gathered chunks of whole rows, with the
    element-wise operations of ``tests/oracles.py::real_form_oracle``. The
    real parts are then compacted into the first half of ``lhat``'s buffer
    and returned as a C-contiguous float64 view of it, so no full-size
    array is allocated and the buffer's second half (D^4 floats) is free
    for the caller.
    """
    n = d * d
    scale = 1.0 / math.sqrt(2.0)

    # Rows mix by T, columns by T^dag: (a, b) -> (a + b, +-i (a - b)) / sqrt 2.
    def mix(a, b, phase):
        a += b
        b *= -2.0
        b += a
        a *= scale
        b *= phase * scale

    # rows[q, p] is the row at the stacked slot p + q d of X, so for j > i,
    # rows[j, i] is the row of slot (i, j) and rows[i, j] that of (j, i).
    rows = lhat.reshape(d, d, -1)
    for i in range(d - 1):
        mix(rows[i + 1 :, i], rows[i, i + 1 :], -1j)
    i, j = np.triu_indices(d, 1)
    upper, lower = i + j * d, j + i * d
    # The gathered columns of a chunk hold at most 1 MiB, which stays in
    # cache, and at most D^4 bytes, the size of the boolean nonzero pattern
    # that the certificate forms next, so they never set the peak.
    step = max(1, min(n // 16, 2**16 // n))
    for lo in range(0, n, step):
        chunk = lhat[lo : lo + step]
        a, b = chunk[:, upper], chunk[:, lower]
        mix(a, b, 1j)
        chunk[:, upper] = a
        chunk[:, lower] = b
    # The real part of entry k is float 2k of the buffer. Moving rows [r, 2r)
    # to their place reads only floats at or past 2 r n, which no earlier
    # move wrote; numpy buffers row 0, whose source overlaps it.
    flat = lhat.reshape(-1).view(np.float64)
    flat[:n] = flat[: 2 * n : 2]
    lo = 1
    while lo < n:
        hi = min(2 * lo, n)
        flat[lo * n : hi * n] = flat[2 * lo * n : 2 * hi * n : 2]
        lo = hi
    return flat[: n * n].reshape(n, n)


def _from_real(vec: np.ndarray) -> np.ndarray:
    """Inverse of the coordinate map of :func:`_real_form`: T^dag vec."""
    vec = np.asarray(vec)
    d = math.isqrt(vec.size)
    # Stacked slots of the entries (i, j) and (j, i), i < j.
    i, j = np.triu_indices(d, 1)
    upper, lower = i + j * d, j + i * d
    out = vec.astype(complex)
    scale = 1.0 / math.sqrt(2.0)
    out[upper] = scale * (vec[upper] + 1j * vec[lower])
    out[lower] = scale * (vec[upper] - 1j * vec[lower])
    return out


def _steady_state(block: np.ndarray, slots: np.ndarray, d: int) -> np.ndarray | None:
    """Trace-one kernel vector of a real form with a one-dimensional kernel,
    from its principal ``block`` on the component ``slots`` (ascending) that
    holds the diagonal slots, slot 0 first.

    The trace functional (1 on the diagonal slots) spans the left kernel of
    a trace-preserving generator, so the block's first row depends on the
    others; replacing it by the trace functional and solving against e_0
    gives the kernel vector with unit trace. Every coordinate outside
    ``slots`` is exactly zero. Overwrites row 0 of ``block``. Returns None
    when that system is singular, i.e. the kernel vector is traceless.
    """
    block[0] = 0.0
    block[0, slots % (d + 1) == 0] = 1.0
    rhs = np.zeros(slots.size)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError:
        return None
    vec = np.zeros(d * d)
    vec[slots] = sol
    return unstack(_from_real(vec), d)


def _components(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of a square boolean pattern read as an
    undirected graph: i and j are joined when entry (i, j) or (j, i) is set.

    Returns each component's indices in ascending order, components in
    order of their smallest index; together they partition the rows. A
    matrix with this nonzero pattern is block diagonal once its rows and
    columns are grouped by component, so its spectrum is the union of the
    spectra of those principal blocks. Each component grows from its
    smallest unlabelled index by a frontier search: the next frontier is
    every unlabelled index joined to the current one.
    """
    pattern = pattern | pattern.T
    label = np.full(pattern.shape[0], -1)
    count = 0
    for seed in range(label.size):
        if label[seed] >= 0:
            continue
        frontier = np.array([seed])
        while frontier.size:
            label[frontier] = count
            frontier = np.flatnonzero(pattern[frontier].any(axis=0) & (label < 0))
        count += 1
    members = np.argsort(label, kind="stable")
    return np.split(members, np.cumsum(np.bincount(label))[:-1])


def gas_certificate(
    gen: LindbladGenerator, target: PureState, *, dim_cap: int = DEFAULT_DIM_CAP
) -> GasCertificate:
    """Spectral certificate that the target is globally asymptotically stable.

    Certifies exactly when (a) the vectorized generator has a
    one-dimensional kernel (eigenvalues of modulus at most ``EIG_TOL``),
    (b) the kernel vector, trace-normalized, is the target's density matrix
    within ``STEADY_STATE_TOL``, and (c) no nonzero eigenvalue has real part
    within ``EIG_TOL`` of zero, which rules out invariant structures that
    merely rotate.

    The vectorized generator is conjugated in place into its real form in a
    Hermitian basis (see :func:`_real_form`), which has the same spectrum.
    Only its eigenvalues are computed, block by block: the connected
    components of the real form's exact nonzero pattern (see
    :func:`_components`) index principal blocks whose spectra together are
    the real form's, and each block takes one real eigensolve. A connected
    pattern is one block holding the whole real form. Every block is copied
    into the free second half of the real form's buffer, so the certificate
    needs one superoperator plus one block's LAPACK copy. The eigenvalues
    are exactly conjugate-symmetric; they are sorted before anything reads
    them, so the warnings list them in the report's order. With a
    one-dimensional kernel the stationary state comes from one solve on
    the block of the first component, which holds slot 0 (see
    :func:`_steady_state`): a component that holds a diagonal slot has the
    trace functional, restricted to it, as a left null vector, so it
    contributes a zero eigenvalue, and with one zero eigenvalue only the
    first component holds diagonal slots.

    Raises:
        DimensionCapError: above ``dim_cap``; run the CLI's simulate for
            trajectory evidence, which is not a certificate.
        ArithmeticError: when the generator's real form overflows or its
            spectrum reaches into the right half plane.
    """
    d = gen.space.dim
    if target.space != gen.space:
        raise DimensionMismatchError("target and generator live on different spaces")
    if d > dim_cap:
        raise DimensionCapError(
            f"dimension {d} exceeds the dense spectral cap {dim_cap}; "
            "run simulate for trajectory evidence"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        lhat = vectorize(gen)
        real = _real_form(lhat, d)
    if not np.isfinite(real).all():
        raise ArithmeticError("generator is too large: its real form overflows")
    # Each principal block goes into the free second half of the buffer;
    # the block sizes sum to D^2, so their squares fit in its D^4 floats.
    spare = lhat.reshape(-1).view(np.float64)[real.size :]
    comps = _components(real != 0)
    blocks = []
    for comp in comps:
        block = spare[: comp.size**2].reshape(comp.size, comp.size)
        spare = spare[comp.size**2 :]
        for row, slot in zip(block, comp):
            np.take(real[slot], comp, out=row)
        blocks.append(block)
    evals = np.concatenate([np.linalg.eigvals(b) for b in blocks]).astype(
        complex, copy=False
    )
    evals = evals[np.lexsort((evals.imag, evals.real))]
    worst = float(np.max(evals.real))
    if not worst <= RANK_MARGIN * EIG_TOL:
        raise ArithmeticError(
            f"generator spectrum reaches into the right half plane ({worst:.3e}); "
            "the input is not a valid dissipative generator"
        )
    zero_mask = np.abs(evals) <= EIG_TOL
    kernel_dim = int(np.count_nonzero(zero_mask))
    nonzero = evals[~zero_mask]
    gap = -float(np.max(nonzero.real)) if nonzero.size else math.inf
    messages: list[str] = []
    near = [
        complex(z)
        for z in evals
        if EIG_TOL / RANK_MARGIN <= abs(z.real) <= EIG_TOL * RANK_MARGIN
    ]
    if near:
        messages.append(
            f"eigenvalue real parts near the classification threshold: {near}"
        )
    certified = kernel_dim == 1
    steady = None
    if certified:
        steady = _steady_state(blocks[0], comps[0], d)
        if steady is None:
            messages.append("kernel vector is traceless; no stationary state in it")
            certified = False
        else:
            rho_target = np.outer(target.amplitudes, target.amplitudes.conj())
            deviation = float(np.linalg.norm(steady - rho_target))
            if not deviation <= STEADY_STATE_TOL:
                messages.append(
                    f"stationary state differs from the target by {deviation:.3e}"
                )
                certified = False
    else:
        messages.append(f"kernel dimension is {kernel_dim}, need exactly 1")
    rotating = [
        complex(z)
        for z in evals
        if abs(z) > EIG_TOL and abs(z.real) <= EIG_TOL
    ]
    if rotating:
        messages.append(f"rotating invariant structure: eigenvalues {rotating}")
        certified = False
    return GasCertificate(certified, evals, kernel_dim, gap, steady, tuple(messages))


def check_invariance(gen: LindbladGenerator, psi: PureState) -> InvarianceDiagnostics:
    """Check that a pure target is stationary (``INVARIANCE_TOL``).

    |psi><psi| is stationary exactly when every noise operator maps psi to
    a multiple of itself, L_k psi = l_k psi with l_k = <psi|L_k psi>, and
    the row w = i psi^dag H - (1/2) sum_k conj(l_k) psi^dag L_k is a
    multiple of psi^dag. Both residuals come from products of the
    operators with the state vector; no D x D matrix is formed.
    """
    if psi.space != gen.space:
        raise DimensionMismatchError("state and generator live on different spaces")
    ket = psi.amplitudes
    bra = ket.conj()
    row = np.zeros_like(bra)
    if gen.hamiltonian is not None:
        row += 1j * (bra @ gen.hamiltonian)
    offdiag = 0.0
    for op in gen.noise_ops:
        image = op @ ket
        ell = np.vdot(ket, image)
        offdiag = max(offdiag, float(np.linalg.norm(image - ell * ket)))
        row -= 0.5 * np.conj(ell) * (bra @ op)
    ham_residual = float(np.linalg.norm(row - (row @ ket) * bra))
    return InvarianceDiagnostics(
        invariant=offdiag <= INVARIANCE_TOL and ham_residual <= INVARIANCE_TOL,
        offdiagonal_residual=offdiag,
        hamiltonian_residual=ham_residual,
    )


def _default_dt(gen: LindbladGenerator) -> float:
    bound = gen.norm_bound()
    if bound <= 0.0:
        return 0.01
    return min(0.01, 0.1 / bound)


def _rk4_step(gen: LindbladGenerator, mat: np.ndarray, dt: float) -> np.ndarray:
    k1 = apply_generator(gen, mat)
    k2 = apply_generator(gen, mat + 0.5 * dt * k1)
    k3 = apply_generator(gen, mat + 0.5 * dt * k2)
    k4 = apply_generator(gen, mat + dt * k3)
    return mat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _snapshot(space: TensorSpace, mat: np.ndarray) -> DensityMatrix:
    return DensityMatrix(
        space,
        mat,
        herm_tol=SNAPSHOT_HERM_TOL,
        trace_tol=SNAPSHOT_TRACE_TOL,
        psd_tol=SNAPSHOT_PSD_TOL,
    )


def evolve(
    gen: LindbladGenerator,
    rho0: DensityMatrix,
    t_final: float,
    dt: float | None = None,
    record_every: int = 1,
) -> Iterator[tuple[float, DensityMatrix]]:
    """Fixed-step 4th-order integration of the master equation.

    The requested step is shrunk so an integer number of steps lands exactly
    on ``t_final``. Snapshots (every ``record_every`` steps plus the initial
    and final states) are validated for Hermiticity and unit trace; nothing
    is renormalized. Trace drift beyond the guard aborts with a step-size
    diagnostic.

    Returns an iterator of (time, state) pairs that integrates as it is
    consumed and holds only the current state. Invalid arguments raise
    here; ``IntegrationError`` is raised during iteration, at the step
    that fails.
    """
    if rho0.space != gen.space:
        raise DimensionMismatchError("state and generator live on different spaces")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if dt is None:
        dt = _default_dt(gen)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final == 0.0:
        return iter([(0.0, rho0)])
    steps = max(1, math.ceil(t_final / dt - 1e-12))
    return _integrate(gen, rho0, steps, t_final / steps, record_every)


def _integrate(
    gen: LindbladGenerator,
    rho0: DensityMatrix,
    steps: int,
    dt_eff: float,
    record_every: int,
) -> Iterator[tuple[float, DensityMatrix]]:
    yield 0.0, rho0
    mat = rho0.matrix.astype(complex)
    for k in range(1, steps + 1):
        mat = _rk4_step(gen, mat, dt_eff)
        peak = float(np.abs(mat).max())
        if not peak <= DIVERGENCE_LIMIT:
            raise IntegrationError(
                f"solution diverged (max entry {peak:.3e}) at "
                f"t={k * dt_eff:.6g} (dt={dt_eff:.3e}); reduce the step size"
            )
        drift = abs(mat.trace() - 1.0)
        if not drift <= TRACE_DRIFT_LIMIT:
            raise IntegrationError(
                f"trace drifted by {drift:.3e} at t={k * dt_eff:.6g} "
                f"(dt={dt_eff:.3e}); reduce the step size"
            )
        if k % record_every == 0 or k == steps:
            try:
                snapshot = _snapshot(gen.space, mat)
            except ValueError as exc:
                raise IntegrationError(
                    f"snapshot at t={k * dt_eff:.6g} failed validation "
                    f"({exc}); reduce the step size"
                ) from exc
            yield k * dt_eff, snapshot


def switched_map(schedule: SwitchingSchedule) -> np.ndarray:
    """Vectorized map of one full switching cycle (last generator leftmost).

    Computed as the product of dense matrix exponentials of the vectorized
    generators, each propagated for ``tau``. Trace preservation is checked
    on a handful of deterministic random states.
    """
    # Imported here, not at module level, so that processes which never
    # build a switched cycle map do not pay for loading scipy.linalg.
    from scipy.linalg import expm

    space = schedule.generators[0].space
    d = space.dim
    if d > DEFAULT_DIM_CAP:
        raise DimensionCapError(
            f"dimension {d} exceeds the dense spectral cap {DEFAULT_DIM_CAP}"
        )
    total = np.eye(d * d, dtype=complex)
    for gen in schedule.generators:
        lhat = vectorize(gen)
        lhat *= schedule.tau
        total = expm(lhat) @ total
    rng = np.random.default_rng(0)
    for _ in range(3):
        rho = random_density_matrix(space, rng)
        image = unstack(total @ stack(rho.matrix), d)
        out_trace = complex(np.trace(image))
        if not abs(out_trace - 1.0) <= NORM_TOL:
            raise ArithmeticError(
                f"cycle map is not trace preserving (trace {out_trace!r})"
            )
        check_hermitian(image, HERM_TOL, "cycle map image", ArithmeticError)
    return total


def simulate_switched(
    schedule: SwitchingSchedule,
    rho0: DensityMatrix,
    cycles: int,
    dt: float | None = None,
) -> Iterator[tuple[float, DensityMatrix]]:
    """Integrate the cyclically switched evolution for whole cycles.

    The active generator has cyclic index (floor(t / tau) mod M); each
    segment is integrated with :func:`evolve` and only segment boundaries
    are recorded. Returns an iterator of (time, state) pairs with times
    k * tau, k = 0 .. M * cycles, that integrates as it is consumed and
    holds only the current state. Invalid arguments raise here.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if rho0.space != schedule.generators[0].space:
        raise DimensionMismatchError("state and schedule live on different spaces")
    if dt is not None and dt <= 0:
        raise ValueError("dt must be positive")

    def boundaries() -> Iterator[tuple[float, DensityMatrix]]:
        yield 0.0, rho0
        state = rho0
        t = 0.0
        for _ in range(cycles):
            for gen in schedule.generators:
                # Run the segment; ``state`` ends as its final snapshot.
                segment = evolve(gen, state, schedule.tau, dt, record_every=10**9)
                for _, state in segment:
                    pass
                t += schedule.tau
                yield t, state

    return boundaries()


def stabilizer_generator(
    operators: Sequence[QLOperator], space: TensorSpace
) -> LindbladGenerator:
    """Single generator driven by all embedded noise operators at once."""
    ops = tuple(embed(op, space) for op in operators)
    return LindbladGenerator(space, None, ops)


def stabilizer_generators(
    operators: Sequence[QLOperator], space: TensorSpace
) -> list[LindbladGenerator]:
    """One generator per embedded noise operator, for switched schedules."""
    return [LindbladGenerator(space, None, (embed(op, space),)) for op in operators]


def fidelity(target: PureState, rho) -> float:
    """Overlap <psi| rho |psi> of a state with a pure target."""
    mat = _state_matrix(rho)
    return float(np.real(np.vdot(target.amplitudes, mat @ target.amplitudes)))


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    diff = _state_matrix(a) - _state_matrix(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))


def purity(rho) -> float:
    """Trace of rho squared."""
    mat = _state_matrix(rho)
    return float(np.real(np.trace(mat @ mat)))
