"""Generator evaluation, vectorization, certificates, integration, switching."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qlstab.dynamics import (
    EIG_TOL,
    DimensionCapError,
    IntegrationError,
    LindbladGenerator,
    SwitchingSchedule,
    apply_generator,
    check_invariance,
    evolve,
    fidelity,
    fme_generator,
    gas_certificate,
    purity,
    simulate_switched,
    stabilizer_generator,
    stabilizer_generators,
    stack,
    switched_map,
    trace_distance,
    unstack,
    vectorize,
)
from qlstab.dynamics import _from_real, _real_form
from qlstab.synthesis import synthesize_stabilizers
from qlstab.tensor import (
    DensityMatrix,
    LocalityPattern,
    Neighborhood,
    TensorSpace,
    basis_state,
    make_dicke_4_2,
    make_ghz,
    make_graph_state,
    qubit_space,
    random_density_matrix,
    random_pure_state,
)

from oracles import haar_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|

Q1 = TensorSpace((2,))


def dicke_generator(gain_scale=3.0):
    psi = make_dicke_4_2()
    pattern = LocalityPattern(
        psi.space, (Neighborhood((0, 1, 2)), Neighborhood((1, 2, 3)))
    )
    stabs = synthesize_stabilizers(psi, pattern, gain_scale=gain_scale)
    return psi, stabs


def random_generator(space, rng, n_ops=2, with_ham=True):
    d = space.dim
    ham = None
    if with_ham:
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ham = (raw + raw.conj().T) / 2
    ops = tuple(
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(n_ops)
    )
    return LindbladGenerator(space, ham, ops)


def eig_certificate(gen, target, tol=EIG_TOL, state_tol=1e-7):
    """Dense oracle: the certificate from complex eig with eigenvectors.

    The kernel vector at the eigenvalue of least modulus, divided by its
    trace, is the stationary state. Returns (certified, kernel_dim,
    abscissa, steady_state, messages).
    """
    d = gen.space.dim
    evals, evecs = np.linalg.eig(vectorize(gen))
    zero = np.abs(evals) <= tol
    kernel_dim = int(np.count_nonzero(zero))
    nonzero = evals[~zero]
    abscissa = float(np.max(nonzero.real)) if nonzero.size else -math.inf
    messages = []
    near = [complex(z) for z in evals if tol / 100 <= abs(z.real) <= tol * 100]
    if near:
        messages.append(
            f"eigenvalue real parts near the classification threshold: {near}"
        )
    certified = kernel_dim == 1
    steady = None
    if certified:
        candidate = unstack(evecs[:, int(np.argmin(np.abs(evals)))], d)
        steady = candidate / np.trace(candidate)
        rho_target = np.outer(target.amplitudes, target.amplitudes.conj())
        deviation = float(np.linalg.norm(steady - rho_target))
        if deviation > state_tol:
            messages.append(
                f"stationary state differs from the target by {deviation:.3e}"
            )
            certified = False
    else:
        messages.append(f"kernel dimension is {kernel_dim}, need exactly 1")
    rotating = [complex(z) for z in evals if abs(z) > tol and abs(z.real) <= tol]
    if rotating:
        messages.append(f"rotating invariant structure: eigenvalues {rotating}")
        certified = False
    return certified, kernel_dim, abscissa, steady, tuple(messages)


def _synthesized(psi, hoods, **kwargs):
    pattern = LocalityPattern(psi.space, tuple(Neighborhood(h) for h in hoods))
    return stabilizer_generator(
        synthesize_stabilizers(psi, pattern, **kwargs), psi.space
    ), psi


def _oracle_fixture(name):
    if name == "amplitude_damping":
        return LindbladGenerator(Q1, None, (LOWER,)), basis_state(Q1, 0)
    if name == "dephasing":
        return LindbladGenerator(Q1, None, (SZ,)), basis_state(Q1, 0)
    if name == "zero":
        zero = np.zeros((2, 2))
        return LindbladGenerator(Q1, zero, (zero,)), basis_state(Q1, 0)
    if name == "random_qubit_qutrit":
        space = TensorSpace((2, 3))
        gen = random_generator(space, np.random.default_rng(4))
        return gen, basis_state(space, 0)
    if name == "dicke":
        psi, stabs = dicke_generator()
        return stabilizer_generator(stabs, psi.space), psi
    if name == "cluster5":
        psi = make_graph_state(5, [(i, i + 1) for i in range(4)])
        return _synthesized(psi, [(i, i + 1, i + 2) for i in range(3)])
    if name == "ring4":
        psi = make_graph_state(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        hoods = [sorted({(i - 1) % 4, i, (i + 1) % 4}) for i in range(4)]
        return _synthesized(psi, hoods)
    if name == "ghz5_forced":
        psi = make_ghz(5)
        return _synthesized(psi, [(i, i + 1) for i in range(4)], force=True)
    raise KeyError(name)


class TestLindbladGeneratorType:
    def test_requires_hermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            LindbladGenerator(Q1, np.array([[0, 1], [0, 0]]), ())

    def test_requires_some_content(self):
        with pytest.raises(ValueError):
            LindbladGenerator(Q1, None, ())

    def test_shape_checks(self):
        from qlstab.tensor import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            LindbladGenerator(Q1, np.eye(3), ())


class TestApplyGenerator:
    def test_dark_state_is_stationary(self):
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs, psi.space)
        out = apply_generator(gen, psi.density_matrix())
        assert np.linalg.norm(out) < 1e-9

    def test_hamiltonian_commutator_by_hand(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        gen = LindbladGenerator(Q1, SZ, ())
        out = apply_generator(gen, plus)
        np.testing.assert_allclose(out, np.array([[0, -1j], [1j, 0]]), atol=1e-14)

    def test_output_is_traceless(self):
        rng = np.random.default_rng(0)
        space = TensorSpace((2, 3))
        gen = random_generator(space, rng)
        for _ in range(5):
            rho = random_density_matrix(space, rng)
            out = apply_generator(gen, rho)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestVectorize:
    def test_amplitude_damping_spectrum(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        evals = np.sort(np.linalg.eigvals(vectorize(gen)).real)
        np.testing.assert_allclose(evals, [-1.0, -0.5, -0.5, 0.0], atol=1e-12)

    def test_matches_apply_generator(self):
        rng = np.random.default_rng(1)
        space = TensorSpace((2, 2))
        gen = random_generator(space, rng)
        lhat = vectorize(gen)
        worst = 0.0
        for _ in range(20):
            rho = random_density_matrix(space, rng)
            direct = apply_generator(gen, rho)
            via_vec = unstack(lhat @ stack(rho.matrix), space.dim)
            worst = max(worst, float(np.max(np.abs(direct - via_vec))))
        assert worst < 1e-9

    def test_pure_hamiltonian_spectrum_is_imaginary(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ham = (raw + raw.conj().T) / 2
        gen = LindbladGenerator(TensorSpace((3,)), ham, ())
        evals = np.linalg.eigvals(vectorize(gen))
        assert np.max(np.abs(evals.real)) < 1e-10
        lam = np.linalg.eigvalsh(ham)
        expected = np.sort([(-1j * (a - b)).imag for a in lam for b in lam])
        np.testing.assert_allclose(np.sort(evals.imag), expected, atol=1e-10)

    def test_real_parts_never_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            gen = random_generator(TensorSpace((2, 2)), rng)
            evals = np.linalg.eigvals(vectorize(gen))
            assert np.max(evals.real) < 1e-8


class TestGasCertificate:
    def test_amplitude_damping_certifies_ground_state(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        cert = gas_certificate(gen, basis_state(Q1, 0))
        assert cert.certified
        assert cert.spectrum.kernel_dim == 1
        assert cert.spectrum.gap == pytest.approx(0.5, abs=1e-9)

    def test_dephasing_fails(self):
        gen = LindbladGenerator(Q1, None, (SZ,))
        cert = gas_certificate(gen, basis_state(Q1, 0))
        assert not cert.certified
        assert cert.spectrum.kernel_dim >= 2

    def test_no_steady_state_without_a_unique_kernel(self):
        gen = LindbladGenerator(Q1, None, (SZ,))
        cert = gas_certificate(gen, basis_state(Q1, 0))
        assert cert.steady_state is None
        assert "kernel dimension is 2, need exactly 1" in cert.messages

    @pytest.mark.parametrize(
        "name",
        [
            "amplitude_damping",
            "dephasing",
            "zero",
            "random_qubit_qutrit",
            "dicke",
            "cluster5",
            "ring4",
            "ghz5_forced",
        ],
    )
    def test_matches_dense_eig_oracle(self, name):
        # Full spectra are not compared: eigenvalues inside defective
        # (Jordan) clusters move by up to ~1e-2 between LAPACK routes.
        gen, target = _oracle_fixture(name)
        certified, kernel_dim, abscissa, steady, messages = eig_certificate(
            gen, target
        )
        cert = gas_certificate(gen, target)
        assert cert.certified == certified
        assert cert.spectrum.kernel_dim == kernel_dim
        assert cert.messages == messages
        assert cert.spectrum.spectral_abscissa_nonzero == pytest.approx(
            abscissa, rel=1e-9
        )
        assert cert.spectrum.gap == pytest.approx(-abscissa, rel=1e-9)
        if kernel_dim == 1:
            np.testing.assert_allclose(cert.steady_state, steady, rtol=0, atol=1e-10)

    def test_real_form_acts_as_the_generator(self):
        rng = np.random.default_rng(5)
        space = TensorSpace((2, 3))
        gen = random_generator(space, rng)
        real = _real_form(vectorize(gen), space.dim)
        assert real.dtype == np.float64
        assert real.flags.c_contiguous
        for _ in range(5):
            vec = rng.standard_normal(space.dim**2)
            direct = stack(apply_generator(gen, unstack(_from_real(vec))))
            np.testing.assert_allclose(
                _from_real(real @ vec), direct, rtol=0, atol=1e-12
            )

    def test_wrong_target_fails(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        cert = gas_certificate(gen, basis_state(Q1, 1))
        assert not cert.certified
        assert any("differs from the target" in m for m in cert.messages)

    def test_dimension_cap(self):
        space = qubit_space(7)
        ops = (np.zeros((128, 128)),)
        gen = LindbladGenerator(space, np.zeros((128, 128)), ops)
        with pytest.raises(DimensionCapError):
            gas_certificate(gen, basis_state(space, 0))

    def test_dicke_generator_certifies(self):
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs, psi.space)
        cert = gas_certificate(gen, psi)
        assert cert.certified
        assert cert.spectrum.kernel_dim == 1
        assert cert.spectrum.gap > 0
        np.testing.assert_allclose(
            cert.steady_state, psi.density_matrix().matrix, atol=1e-7
        )


class TestCheckInvariance:
    def test_synthesized_operators_are_invariant(self):
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs, psi.space)
        diag = check_invariance(gen, psi)
        assert diag.invariant
        assert diag.block_route and diag.generator_route

    def test_rotating_hamiltonian_is_not(self):
        gen = LindbladGenerator(Q1, SX, ())
        diag = check_invariance(gen, basis_state(Q1, 0))
        assert not diag.invariant
        assert diag.hamiltonian_residual > 0.1

    def test_nontrivial_hamiltonian_cancellation(self):
        # Invariance can hold with a nonzero Hamiltonian row when it cancels
        # against the noise cross terms: i H_row = (1/2) sum conj(L_00) L_row
        # in the (target, complement) basis. Build such a generator and check
        # both routes accept it and the state actually stays put.
        rng = np.random.default_rng(13)
        d = 4
        space = TensorSpace((2, 2))
        psi = random_pure_state(space, rng)
        from qlstab.subspaces import complete_frame

        basis = complete_frame(psi.amplitudes.reshape(-1, 1), d)
        ell = 0.7 + 0.3j
        row = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        block = rng.standard_normal((d - 1, d - 1)) + 1j * rng.standard_normal(
            (d - 1, d - 1)
        )
        op_rot = np.zeros((d, d), dtype=complex)
        op_rot[0, 0] = ell
        op_rot[0, 1:] = row
        op_rot[1:, 1:] = block
        ham_rot = np.zeros((d, d), dtype=complex)
        ham_rot[0, 1:] = -0.5j * np.conj(ell) * row
        ham_rot[1:, 0] = ham_rot[0, 1:].conj()
        op = basis @ op_rot @ basis.conj().T
        ham = basis @ ham_rot @ basis.conj().T
        gen = LindbladGenerator(space, ham, (op,))
        diag = check_invariance(gen, psi)
        assert diag.invariant
        assert diag.block_route and diag.generator_route
        # Breaking the cancellation must break invariance.
        broken = LindbladGenerator(space, 2 * ham, (op,))
        assert not check_invariance(broken, psi).invariant
        # After renormalization the shifted operator annihilates the target
        # and the compensated generator remains invariant.
        from qlstab.synthesis import renormalize_generator

        new_ham, new_ops = renormalize_generator(ham, [op], psi)
        assert np.linalg.norm(new_ops[0] @ psi.amplitudes) < 1e-10
        reno = LindbladGenerator(space, new_ham, tuple(new_ops))
        assert check_invariance(reno, psi).invariant

    def test_routes_agree_on_random_generators(self):
        rng = np.random.default_rng(4)
        space = TensorSpace((2, 2))
        agreements = 0
        for k in range(50):
            psi = random_pure_state(space, rng)
            if k % 2 == 0:
                gen = random_generator(space, rng)
            else:
                # Engineer an invariant case: dark noise plus a Hamiltonian
                # with the target as an eigenvector.
                proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
                comp = np.eye(4) - proj
                mats = [
                    comp
                    @ (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                    @ comp
                    for _ in range(2)
                ]
                raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                ham = comp @ ((raw + raw.conj().T) / 2) @ comp
                gen = LindbladGenerator(space, ham, tuple(mats))
            diag = check_invariance(gen, psi)
            agreements += diag.block_route == diag.generator_route
        assert agreements == 50


class TestEvolve:
    def test_amplitude_damping_closed_form(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        rho0 = DensityMatrix(Q1, np.diag([0.0, 1.0]))
        traj = evolve(gen, rho0, 2.0, dt=0.01, record_every=1)
        for t, state in traj:
            expected = 1.0 - math.exp(-t)
            assert state.matrix[0, 0].real == pytest.approx(expected, abs=1e-6)

    def test_checkpoints_at_half_one_two(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        rho0 = DensityMatrix(Q1, np.diag([0.0, 1.0]))
        by_time = dict(evolve(gen, rho0, 2.0, dt=0.01, record_every=1))
        for t in (0.5, 1.0, 2.0):
            assert abs(by_time[t].matrix[0, 0].real - (1 - math.exp(-t))) < 1e-6

    def test_dark_state_stays_put(self):
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs, psi.space)
        rho0 = psi.density_matrix()
        traj = evolve(gen, rho0, 1.0, dt=0.01, record_every=25)
        for _, state in traj:
            assert np.max(np.abs(state.matrix - rho0.matrix)) < 1e-8

    def test_zero_time_returns_initial_only(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        rho0 = DensityMatrix(Q1, np.diag([0.5, 0.5]))
        traj = evolve(gen, rho0, 0.0)
        assert len(traj) == 1
        assert traj[0][0] == 0.0

    def test_oversized_step_aborts_with_diagnostic(self):
        gen = LindbladGenerator(Q1, None, (4.0 * LOWER,))
        rho0 = DensityMatrix(Q1, np.diag([0.0, 1.0]))
        with pytest.raises(IntegrationError, match="reduce the step size"):
            evolve(gen, rho0, 10.0, dt=0.5)

    def test_snapshots_keep_trace_and_hermiticity(self):
        rng = np.random.default_rng(5)
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs, psi.space)
        rho0 = random_pure_state(psi.space, rng).density_matrix()
        traj = evolve(gen, rho0, 2.0, dt=0.01, record_every=50)
        for _, state in traj:
            assert abs(np.trace(state.matrix) - 1.0) < 1e-7
            assert np.max(np.abs(state.matrix - state.matrix.conj().T)) < 1e-7


class TestFmeGenerator:
    def test_feedback_off_reduces_to_measurement(self):
        ham = SZ
        control = np.zeros((2, 2))
        gen = fme_generator(ham, control, np.zeros((2, 2)), LOWER)
        np.testing.assert_allclose(gen.hamiltonian, SZ, atol=1e-12)
        np.testing.assert_allclose(gen.noise_ops[0], LOWER)

    def test_two_level_assembly_by_hand(self):
        gen = fme_generator(None, None, SX, LOWER)
        np.testing.assert_allclose(gen.noise_ops[0], LOWER - 1j * SX)
        upper = LOWER.conj().T
        expected = 0.5 * (SX @ LOWER + upper @ SX)
        np.testing.assert_allclose(gen.hamiltonian, expected, atol=1e-12)

    def test_trace_preserving(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = (raw + raw.conj().T) / 2
        gen = fme_generator(None, None, f, m, space=TensorSpace((3,)))
        for _ in range(5):
            rho = random_density_matrix(TensorSpace((3,)), rng)
            assert abs(np.trace(apply_generator(gen, rho))) < 1e-12

    def test_rejects_non_hermitian_feedback(self):
        with pytest.raises(ValueError):
            fme_generator(None, None, LOWER, SX)


class TestSwitchedMap:
    def test_single_generator_schedule_is_plain_exponential(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        # Legal and silent: the CLI reports the degenerate schedule itself.
        schedule = SwitchingSchedule(0.7, (gen,))
        total = switched_map(schedule)
        np.testing.assert_allclose(total, expm(0.7 * vectorize(gen)), atol=1e-12)

    def test_zero_interval_is_identity(self):
        gen_a = LindbladGenerator(Q1, None, (LOWER,))
        gen_b = LindbladGenerator(Q1, None, (SZ,))
        schedule = SwitchingSchedule(0.0, (gen_a, gen_b))
        np.testing.assert_allclose(switched_map(schedule), np.eye(4), atol=1e-12)

    def test_cap_enforced(self):
        space = qubit_space(7)
        gen = LindbladGenerator(space, None, (np.zeros((128, 128)),))
        schedule = SwitchingSchedule(1.0, (gen,))
        with pytest.raises(DimensionCapError):
            switched_map(schedule)

    def test_dicke_cycle_contracts(self):
        psi, stabs = dicke_generator()
        gens = tuple(stabilizer_generators(stabs, psi.space))
        total = switched_map(SwitchingSchedule(1.0, gens))
        mods = np.sort(np.abs(np.linalg.eigvals(total)))[::-1]
        assert mods[0] == pytest.approx(1.0, abs=1e-9)
        assert mods[1] < 1.0 - 1e-6


class TestSimulateSwitched:
    def test_dark_state_is_fixed_across_segments(self):
        psi, stabs = dicke_generator()
        gens = tuple(stabilizer_generators(stabs, psi.space))
        schedule = SwitchingSchedule(0.5, gens)
        traj = simulate_switched(schedule, psi.density_matrix(), 3, dt=0.01)
        rho_d = psi.density_matrix().matrix
        for _, state in traj:
            assert np.max(np.abs(state.matrix - rho_d)) < 1e-8

    def test_single_generator_schedule_matches_evolve(self):
        rng = np.random.default_rng(7)
        gen = LindbladGenerator(Q1, None, (LOWER,))
        rho0 = random_density_matrix(Q1, rng)
        schedule = SwitchingSchedule(0.5, (gen,))
        switched = simulate_switched(schedule, rho0, 4, dt=0.01)
        direct = evolve(gen, rho0, 2.0, dt=0.01, record_every=50)
        np.testing.assert_allclose(
            switched[-1][1].matrix, direct[-1][1].matrix, atol=1e-8
        )

    def test_whole_cycle_trace_distance_contraction(self):
        rng = np.random.default_rng(8)
        psi, stabs = dicke_generator()
        gens = tuple(stabilizer_generators(stabs, psi.space))
        schedule = SwitchingSchedule(1.0, gens)
        target = psi.density_matrix()
        for _ in range(3):
            rho0 = random_density_matrix(psi.space, rng)
            traj = simulate_switched(schedule, rho0, 5, dt=0.02)
            cycle_states = [state for _, state in traj][:: len(gens)]
            dists = [trace_distance(s, target) for s in cycle_states]
            for a, b in zip(dists, dists[1:]):
                assert b <= a + 1e-9


class TestMetrics:
    def test_fidelity_and_purity_on_pure_states(self):
        psi = make_dicke_4_2()
        rho = psi.density_matrix()
        assert fidelity(psi, rho) == pytest.approx(1.0)
        assert purity(rho) == pytest.approx(1.0)

    def test_trace_distance_of_orthogonal_states(self):
        a = basis_state(Q1, 0).density_matrix()
        b = basis_state(Q1, 1).density_matrix()
        assert trace_distance(a, b) == pytest.approx(1.0)


class TestConjugationCovariance:
    def test_rotated_generator_matches_rotated_evolution(self):
        # exp(t L') acting on rho equals U exp(t L)[U^dag rho U] U^dag when
        # the generator data are conjugated by U; checked at the map level.
        rng = np.random.default_rng(9)
        for _ in range(6):
            d = int(rng.integers(2, 9))
            space = TensorSpace((d,))
            gen = random_generator(space, rng)
            u = haar_unitary(d, rng)
            rot = LindbladGenerator(
                space,
                u @ gen.hamiltonian @ u.conj().T,
                tuple(u @ op @ u.conj().T for op in gen.noise_ops),
            )
            uhat = np.kron(u.conj(), u)
            for t in (0.1, 1.0):
                lhs = uhat @ expm(t * vectorize(gen)) @ uhat.conj().T
                rhs = expm(t * vectorize(rot))
                assert np.max(np.abs(lhs - rhs)) < 1e-8
