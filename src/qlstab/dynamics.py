"""Lindblad generator evaluation, spectra, integration, and switched cycles.

The generator acts as rho -> -i[H, rho] + sum_k (L_k rho L_k^dag
- (1/2){L_k^dag L_k, rho}). Its vectorized (column-stacking) matrix form
supports dense spectral analysis: a global-asymptotic-stability certificate
checks that the target is the unique stationary state and that no purely
rotating invariant structure survives. Because the generator maps Hermitian
matrices to Hermitian matrices, the certificate works on its real form in
a Hermitian basis: eigenvalues come from a real eigensolver without
eigenvectors, and the stationary state from one bordered linear solve.
Time evolution uses a fixed-step classical 4th-order integrator with a
trace-drift guard; cyclic switching composes per-neighborhood semigroup
maps through dense matrix exponentials.

Dense spectral paths are capped at total dimension 64 (a 4096-dimensional
vectorized generator); larger systems must fall back to trajectory
evidence, which is labelled as such and never called a certificate.

All kernels are pure functions on immutable values: independent
trajectories and per-generator exponentials can run in parallel, while a
single trajectory is inherently sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from scipy.linalg import expm

from .subspaces import RANK_MARGIN, complete_frame
from .synthesis import INVARIANCE_TOL, StabilizerSet
from .tensor import (
    DensityMatrix,
    DimensionMismatchError,
    HERM_TOL,
    NORM_TOL,
    PureState,
    TensorSpace,
    embed,
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

__all__ = [
    "EIG_TOL",
    "DEFAULT_DIM_CAP",
    "DimensionCapError",
    "IntegrationError",
    "LindbladGenerator",
    "SpectrumReport",
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
    "fme_generator",
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

    The Hamiltonian (if present) must be Hermitian; at least one of
    Hamiltonian and noise operators must be supplied. Units are hbar = 1:
    the Hamiltonian carries inverse time, noise operators inverse square
    root of time.
    """

    space: TensorSpace
    hamiltonian: np.ndarray | None = field(repr=False, default=None)
    noise_ops: tuple[np.ndarray, ...] = field(repr=False, default=())
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
            asym = np.max(np.abs(ham - ham.conj().T))
            if asym > HERM_TOL * max(1.0, float(np.max(np.abs(ham)))):
                raise ValueError(f"Hamiltonian is not Hermitian (asymmetry {asym:.3e})")
            ham.flags.writeable = False
        ops = []
        for k, op in enumerate(self.noise_ops):
            op = np.array(op, dtype=complex)
            if op.shape != (d, d):
                raise DimensionMismatchError(
                    f"noise operator {k} shape {op.shape} does not match dim {d}"
                )
            op.flags.writeable = False
            ops.append(op)
        if ham is None and not ops:
            raise ValueError("a generator needs a Hamiltonian or noise operators")
        quad = np.zeros((d, d), dtype=complex)
        for op in ops:
            quad += op.conj().T @ op
        quad.flags.writeable = False
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "noise_ops", tuple(ops))
        object.__setattr__(self, "_quad", quad)

    def norm_bound(self) -> float:
        """Upper bound on the generator's induced norm, for step-size choice."""
        bound = 0.0
        if self.hamiltonian is not None:
            bound += 2.0 * float(np.linalg.norm(self.hamiltonian, 2))
        for op in self.noise_ops:
            bound += 2.0 * float(np.linalg.norm(op, 2)) ** 2
        return bound


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectrum of a vectorized generator with its kernel/gap summary.

    ``spectral_abscissa_nonzero`` is the largest real part among eigenvalues
    classified as nonzero; ``gap`` is its negation. Eigenvalues with modulus
    at most the classification tolerance count as the kernel.
    """

    eigenvalues: np.ndarray = field(repr=False)
    kernel_dim: int
    spectral_abscissa_nonzero: float
    gap: float


@dataclass(frozen=True, eq=False)
class GasCertificate:
    """Spectral global-asymptotic-stability verdict for a target state.

    ``steady_state`` is the trace-one stationary state, set only when the
    kernel is one-dimensional (None otherwise).
    """

    certified: bool
    spectrum: SpectrumReport
    steady_state: np.ndarray | None = field(repr=False, default=None)
    messages: tuple[str, ...] = ()


@dataclass(frozen=True)
class InvarianceDiagnostics:
    """Result of the dual-route stationarity check for a pure target.

    The block route inspects the generator in the (target, complement)
    basis: every noise operator must have a vanishing column under the
    target, and the Hamiltonian row must cancel against the noise cross
    terms. The direct route evaluates the generator on the target state.
    Both are computed; disagreement is resolved to "not invariant".
    """

    invariant: bool
    block_route: bool
    generator_route: bool
    offdiagonal_residual: float
    hamiltonian_residual: float
    generator_residual: float


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
        if self.tau < 0:
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


def unstack(vec: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`stack`."""
    vec = np.asarray(vec)
    if dim is None:
        dim = int(round(math.sqrt(vec.size)))
    return vec.reshape((dim, dim), order="F")


def _state_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, complex)


def apply_generator(gen: LindbladGenerator, rho) -> np.ndarray:
    """Evaluate the generator on a state (or any matrix of matching shape).

    Output is traceless, and Hermitian for Hermitian input.
    """
    mat = _state_matrix(rho)
    d = gen.space.dim
    if mat.shape != (d, d):
        raise DimensionMismatchError(
            f"state shape {mat.shape} does not match generator dim {d}"
        )
    out = np.zeros((d, d), dtype=complex)
    if gen.hamiltonian is not None:
        out += -1j * (gen.hamiltonian @ mat - mat @ gen.hamiltonian)
    for op in gen.noise_ops:
        out += op @ mat @ op.conj().T
    out -= 0.5 * (gen._quad @ mat + mat @ gen._quad)
    return out


def vectorize(gen: LindbladGenerator) -> np.ndarray:
    """Column-stacking matrix form of the generator.

    Satisfies unstack(vectorize(gen) @ stack(rho)) == apply_generator(gen,
    rho). The Hamiltonian enters as -i(I kron H - H^T kron I); each noise
    operator as conj(L) kron L minus the symmetrized quadratic terms.
    """
    d = gen.space.dim
    eye = np.eye(d, dtype=complex)
    out = np.zeros((d * d, d * d), dtype=complex)
    if gen.hamiltonian is not None:
        out += -1j * (np.kron(eye, gen.hamiltonian) - np.kron(gen.hamiltonian.T, eye))
    for op in gen.noise_ops:
        out += np.kron(op.conj(), op)
    out -= 0.5 * (np.kron(eye, gen._quad) + np.kron(gen._quad.T, eye))
    return out


def _hermitian_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked indices of the entries (i, j) and (j, i), i < j, of a d x d matrix."""
    i, j = np.triu_indices(d, 1)
    return i + j * d, j + i * d


def _real_form(lhat: np.ndarray, d: int) -> np.ndarray:
    """Real matrix T lhat T^dag of a Hermiticity-preserving superoperator.

    T is the unitary that maps stack(X) to real coordinates: X_ii stays on
    its diagonal slot, sqrt(2) Re X_ij goes to slot (i, j) and sqrt(2) Im X_ij
    to slot (j, i), for i < j. For Hermitian X these coordinates are real, so
    the result is real and has the spectrum of ``lhat``. ``lhat`` is
    overwritten: its rows, then its columns, are mixed pairwise in place,
    with at most two half-size temporaries alive at a time.
    """
    upper, lower = _hermitian_pairs(d)
    scale = 1.0 / math.sqrt(2.0)
    # Rows mix by T, columns by T^dag: (a, b) -> (a + b, +-i (a - b)) / sqrt 2.
    for view, phase in ((lhat, -1j), (lhat.T, 1j)):
        a = view[upper]
        b = view[lower]
        a += b
        b *= -2.0
        b += a
        a *= scale
        b *= phase * scale
        view[upper] = a
        view[lower] = b
        del a, b
    return np.ascontiguousarray(lhat.real)


def _from_real(vec: np.ndarray) -> np.ndarray:
    """Inverse of the coordinate map of :func:`_real_form`: T^dag vec."""
    vec = np.asarray(vec)
    upper, lower = _hermitian_pairs(math.isqrt(vec.size))
    out = vec.astype(complex)
    scale = 1.0 / math.sqrt(2.0)
    out[upper] = scale * (vec[upper] + 1j * vec[lower])
    out[lower] = scale * (vec[upper] - 1j * vec[lower])
    return out


def _steady_state(real: np.ndarray, d: int) -> np.ndarray | None:
    """Trace-one kernel vector of a real form with a one-dimensional kernel.

    The trace functional (1 on the diagonal slots) spans the left kernel of
    a trace-preserving generator, so the first diagonal row depends on the
    others; replacing it by the trace functional and solving against e_0
    gives the kernel vector with unit trace. Overwrites row 0 of ``real``.
    Returns None when that system is singular, i.e. the kernel vector is
    traceless.
    """
    real[0] = 0.0
    real[0, :: d + 1] = 1.0
    rhs = np.zeros(real.shape[0])
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(real, rhs)
    except np.linalg.LinAlgError:
        return None
    return unstack(_from_real(vec), d)


def _classify_spectrum(evals: np.ndarray, tol: float) -> SpectrumReport:
    zero_mask = np.abs(evals) <= tol
    kernel_dim = int(np.count_nonzero(zero_mask))
    nonzero = evals[~zero_mask]
    if nonzero.size:
        abscissa = float(np.max(nonzero.real))
    else:
        abscissa = -math.inf
    order = np.lexsort((evals.imag, evals.real))
    return SpectrumReport(
        eigenvalues=evals[order],
        kernel_dim=kernel_dim,
        spectral_abscissa_nonzero=abscissa,
        gap=-abscissa,
    )


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
    Only its eigenvalues are computed; they are exactly conjugate-symmetric.
    With a one-dimensional kernel the stationary state comes from one
    solve, with the first diagonal row replaced by the trace functional.

    Raises:
        DimensionCapError: above ``dim_cap``; use a trajectory-based check
            instead, and report it as evidence rather than a certificate.
    """
    d = gen.space.dim
    if target.space != gen.space:
        raise DimensionMismatchError("target and generator live on different spaces")
    if d > dim_cap:
        raise DimensionCapError(
            f"dimension {d} exceeds the dense spectral cap {dim_cap}; "
            "use trajectory evidence instead"
        )
    real = _real_form(vectorize(gen), d)
    evals = np.linalg.eigvals(real).astype(complex, copy=False)
    worst = float(np.max(evals.real))
    if worst > RANK_MARGIN * EIG_TOL:
        raise ArithmeticError(
            f"generator spectrum reaches into the right half plane ({worst:.3e}); "
            "the input is not a valid dissipative generator"
        )
    report = _classify_spectrum(evals, EIG_TOL)
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
    certified = report.kernel_dim == 1
    steady = None
    if certified:
        steady = _steady_state(real, d)
        if steady is None:
            messages.append("kernel vector is traceless; no stationary state in it")
            certified = False
        else:
            rho_target = np.outer(target.amplitudes, target.amplitudes.conj())
            deviation = float(np.linalg.norm(steady - rho_target))
            if deviation > STEADY_STATE_TOL:
                messages.append(
                    f"stationary state differs from the target by {deviation:.3e}"
                )
                certified = False
    else:
        messages.append(f"kernel dimension is {report.kernel_dim}, need exactly 1")
    rotating = [
        complex(z)
        for z in evals
        if abs(z) > EIG_TOL and abs(z.real) <= EIG_TOL
    ]
    if rotating:
        messages.append(f"rotating invariant structure: eigenvalues {rotating}")
        certified = False
    return GasCertificate(certified, report, steady, tuple(messages))


def check_invariance(gen: LindbladGenerator, psi: PureState) -> InvarianceDiagnostics:
    """Dual-route check that a pure target is stationary (``INVARIANCE_TOL``).

    The two routes are reported separately, so a disagreement between them
    shows in ``block_route`` and ``generator_route``.
    """
    d = gen.space.dim
    if psi.space != gen.space:
        raise DimensionMismatchError("state and generator live on different spaces")
    basis = complete_frame(psi.amplitudes.reshape(-1, 1), d)
    ham = gen.hamiltonian
    ham_rot = (
        basis.conj().T @ ham @ basis if ham is not None else np.zeros((d, d))
    )
    cross = np.zeros(d - 1, dtype=complex) if d > 1 else np.zeros(0, dtype=complex)
    offdiag = 0.0
    for op in gen.noise_ops:
        rot = basis.conj().T @ op @ basis
        if d > 1:
            offdiag = max(offdiag, float(np.linalg.norm(rot[1:, 0])))
            cross += np.conj(rot[0, 0]) * rot[0, 1:]
    if d > 1:
        ham_residual = float(np.linalg.norm(1j * ham_rot[0, 1:] - 0.5 * cross))
    else:
        ham_residual = 0.0
    block_ok = offdiag <= INVARIANCE_TOL and ham_residual <= INVARIANCE_TOL

    rho_d = np.outer(psi.amplitudes, psi.amplitudes.conj())
    gen_residual = float(np.linalg.norm(apply_generator(gen, rho_d)))
    gen_ok = gen_residual <= INVARIANCE_TOL
    return InvarianceDiagnostics(
        invariant=block_ok and gen_ok,
        block_route=block_ok,
        generator_route=gen_ok,
        offdiagonal_residual=offdiag,
        hamiltonian_residual=ham_residual,
        generator_residual=gen_residual,
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
) -> list[tuple[float, DensityMatrix]]:
    """Fixed-step 4th-order integration of the master equation.

    The requested step is shrunk so an integer number of steps lands exactly
    on ``t_final``. Snapshots (every ``record_every`` steps plus the initial
    and final states) are validated for Hermiticity and unit trace; nothing
    is renormalized. Trace drift beyond the guard aborts with a step-size
    diagnostic.

    Returns a list of (time, state) pairs.
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
    trajectory: list[tuple[float, DensityMatrix]] = [(0.0, rho0)]
    if t_final == 0.0:
        return trajectory
    steps = max(1, math.ceil(t_final / dt - 1e-12))
    dt_eff = t_final / steps
    mat = rho0.matrix.astype(complex)
    for k in range(1, steps + 1):
        mat = _rk4_step(gen, mat, dt_eff)
        peak = float(np.max(np.abs(mat)))
        if not peak <= DIVERGENCE_LIMIT:
            raise IntegrationError(
                f"solution diverged (max entry {peak:.3e}) at "
                f"t={k * dt_eff:.6g} (dt={dt_eff:.3e}); reduce the step size"
            )
        drift = abs(np.trace(mat) - 1.0)
        if drift > TRACE_DRIFT_LIMIT:
            raise IntegrationError(
                f"trace drifted by {drift:.3e} at t={k * dt_eff:.6g} "
                f"(dt={dt_eff:.3e}); reduce the step size"
            )
        if k % record_every == 0 or k == steps:
            try:
                trajectory.append((k * dt_eff, _snapshot(gen.space, mat)))
            except ValueError as exc:
                raise IntegrationError(
                    f"snapshot at t={k * dt_eff:.6g} failed validation "
                    f"({exc}); reduce the step size"
                ) from exc
    return trajectory


def fme_generator(
    hamiltonian: np.ndarray | None,
    control: np.ndarray | None,
    feedback: np.ndarray,
    measurement: np.ndarray,
    space: TensorSpace | None = None,
) -> LindbladGenerator:
    """Generator of the deterministic feedback master equation.

    Continuous measurement of ``measurement`` with proportional feedback
    through the Hermitian ``feedback`` Hamiltonian yields a Lindblad
    generator with effective Hamiltonian H + Hc + (1/2)(F M + M^dag F) and
    single noise operator M - iF. Hermiticity of the assembled Hamiltonian
    is verified. If no space is given, a single-subsystem space of the
    matrix dimension is used.
    """
    m = np.asarray(measurement, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"measurement operator must be square, got {m.shape}")
    d = m.shape[0]
    f = np.asarray(feedback, dtype=complex)
    pieces = []
    for name, x in (("hamiltonian", hamiltonian), ("control", control), ("feedback", f)):
        if x is None:
            continue
        x = np.asarray(x, dtype=complex)
        if x.shape != (d, d):
            raise DimensionMismatchError(f"{name} shape {x.shape} != ({d}, {d})")
        asym = np.max(np.abs(x - x.conj().T))
        if asym > HERM_TOL * max(1.0, float(np.max(np.abs(x)))):
            raise ValueError(f"{name} must be Hermitian (asymmetry {asym:.3e})")
        if name != "feedback":
            pieces.append(x)
    ham = sum(pieces, np.zeros((d, d), dtype=complex))
    ham = ham + 0.5 * (f @ m + m.conj().T @ f)
    asym = np.max(np.abs(ham - ham.conj().T))
    if asym > HERM_TOL * max(1.0, float(np.max(np.abs(ham)))):
        raise ArithmeticError(
            f"assembled feedback Hamiltonian is not Hermitian ({asym:.3e})"
        )
    noise = m - 1j * f
    if space is None:
        space = TensorSpace((d,))
    elif space.dim != d:
        raise DimensionMismatchError(
            f"space dimension {space.dim} does not match matrices of size {d}"
        )
    return LindbladGenerator(space, (ham + ham.conj().T) / 2.0, (noise,))


def switched_map(schedule: SwitchingSchedule) -> np.ndarray:
    """Vectorized map of one full switching cycle (last generator leftmost).

    Computed as the product of dense matrix exponentials of the vectorized
    generators, each propagated for ``tau``. Trace preservation is checked
    on a handful of deterministic random states.
    """
    space = schedule.generators[0].space
    d = space.dim
    if d > DEFAULT_DIM_CAP:
        raise DimensionCapError(
            f"dimension {d} exceeds the dense spectral cap {DEFAULT_DIM_CAP}"
        )
    total = np.eye(d * d, dtype=complex)
    for gen in schedule.generators:
        total = expm(schedule.tau * vectorize(gen)) @ total
    rng = np.random.default_rng(0)
    for _ in range(3):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        image = unstack(total @ stack(rho), d)
        out_trace = complex(np.trace(image))
        if abs(out_trace - 1.0) > NORM_TOL:
            raise ArithmeticError(
                f"cycle map is not trace preserving (trace {out_trace!r})"
            )
        asym = float(np.max(np.abs(image - image.conj().T)))
        if asym > HERM_TOL:
            raise ArithmeticError(
                f"cycle map does not preserve Hermiticity (asymmetry {asym:.3e})"
            )
    return total


def simulate_switched(
    schedule: SwitchingSchedule,
    rho0: DensityMatrix,
    cycles: int,
    dt: float | None = None,
) -> list[tuple[float, DensityMatrix]]:
    """Integrate the cyclically switched evolution for whole cycles.

    The active generator has cyclic index (floor(t / tau) mod M); each
    segment is integrated with :func:`evolve` and only segment boundaries
    are recorded. Returns (time, state) pairs with times k * tau,
    k = 0 .. M * cycles.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    space = schedule.generators[0].space
    if rho0.space != space:
        raise DimensionMismatchError("state and schedule live on different spaces")
    out: list[tuple[float, DensityMatrix]] = [(0.0, rho0)]
    state = rho0
    t = 0.0
    for _ in range(cycles):
        for gen in schedule.generators:
            if schedule.tau > 0.0:
                segment = evolve(gen, state, schedule.tau, dt, record_every=10**9)
                state = segment[-1][1]
            t += schedule.tau
            out.append((t, state))
    return out


def stabilizer_generator(
    stabilizers: StabilizerSet, space: TensorSpace
) -> LindbladGenerator:
    """Single generator driven by all embedded stabilizer operators at once."""
    ops = tuple(embed(op, space) for op in stabilizers.operators)
    return LindbladGenerator(space, None, ops)


def stabilizer_generators(
    stabilizers: StabilizerSet, space: TensorSpace
) -> list[LindbladGenerator]:
    """One generator per embedded stabilizer operator, for switched schedules."""
    return [
        LindbladGenerator(space, None, (embed(op, space),))
        for op in stabilizers.operators
    ]


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
