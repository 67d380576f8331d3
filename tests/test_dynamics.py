"""Generator evaluation, vectorization, certificates, integration, switching."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
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
from qlstab import dynamics
from qlstab.dynamics import _components, _from_real, _real_form
from qlstab.analysis import check_dqls
from qlstab.synthesis import synthesize_stabilizers
from qlstab.tensor import (
    DensityMatrix,
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    TensorSpace,
    make_dicke_4_2,
    make_ghz,
    make_graph_state,
    make_w,
    qubit_space,
    random_density_matrix,
    random_pure_state,
)

from oracles import (
    apply_generator_oracle,
    basis_state,
    bordered_real_form,
    haar_unitary,
    invariance_oracle,
    random_mps,
    real_form_oracle,
    vectorize_kron_oracle,
    vectorize_oracle,
    whole_form_steady_state,
)

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
    trace, is the stationary state. Warnings quote eigenvalues sorted by
    real, then imaginary part, as the certificate reports them. Returns
    (certified, kernel_dim, abscissa, steady_state, messages).
    """
    d = gen.space.dim
    evals, evecs = np.linalg.eig(vectorize(gen))
    order = np.lexsort((evals.imag, evals.real))
    evals, evecs = evals[order], evecs[:, order]
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


def traced_peak(fn):
    """Peak traced memory, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _synthesized(psi, hoods, **kwargs):
    pattern = LocalityPattern(psi.space, tuple(Neighborhood(h) for h in hoods))
    return stabilizer_generator(
        synthesize_stabilizers(psi, pattern, **kwargs).operators, psi.space
    ), psi


ORACLE_FIXTURES = [
    "amplitude_damping",
    "dephasing",
    "rotating",
    "slow_damping",
    "zero",
    "random_qubit_qutrit",
    "dicke",
    "cluster5",
    "ring4",
    "ghz5_forced",
]


def _oracle_fixture(name):
    if name == "amplitude_damping":
        return LindbladGenerator(Q1, None, (LOWER,)), basis_state(Q1, 0)
    if name == "dephasing":
        return LindbladGenerator(Q1, None, (SZ,)), basis_state(Q1, 0)
    if name == "rotating":
        # Kernel dimension 2 and eigenvalues +-2i: purely rotating structure.
        return LindbladGenerator(Q1, SZ, ()), basis_state(Q1, 0)
    if name == "slow_damping":
        # Rate 2e-8 puts the nonzero real parts at -1e-8 and -2e-8, next to
        # EIG_TOL.
        gen = LindbladGenerator(Q1, None, (math.sqrt(2e-8) * LOWER,))
        return gen, basis_state(Q1, 0)
    if name == "zero":
        zero = np.zeros((2, 2))
        return LindbladGenerator(Q1, zero, (zero,)), basis_state(Q1, 0)
    if name == "random_qubit_qutrit":
        space = TensorSpace((2, 3))
        gen = random_generator(space, np.random.default_rng(4))
        return gen, basis_state(space, 0)
    if name == "dicke":
        psi, stabs = dicke_generator()
        return stabilizer_generator(stabs.operators, psi.space), psi
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?j?")


def assert_same_messages(got, want):
    """Equal texts, and numbers inside them equal to 1e-12 relative: the
    eigenvalues that messages list differ in the last digit between solvers."""
    assert [_NUMBER.sub("#", m) for m in got] == [_NUMBER.sub("#", m) for m in want]
    got_numbers = [complex(x) for m in got for x in _NUMBER.findall(m)]
    want_numbers = [complex(x) for m in want for x in _NUMBER.findall(m)]
    np.testing.assert_allclose(got_numbers, want_numbers, rtol=1e-12, atol=0)


class TestLindbladGeneratorType:
    def test_requires_hermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            LindbladGenerator(Q1, np.array([[0, 1], [0, 0]]), ())

    def test_rejects_nan_hamiltonian(self):
        with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
            LindbladGenerator(Q1, np.diag([np.nan, 0.0]), ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_noise_operator(self, bad):
        with pytest.raises(ValueError, match="noise operator 0 has non-finite"):
            LindbladGenerator(Q1, None, (np.diag([bad, 0.0]),))

    def test_rejects_overflowing_quadratic_term(self):
        # Finite entries whose L^dag L overflows to inf fail as a numerical
        # error, without numpy RuntimeWarnings (the suite turns those into
        # errors).
        with pytest.raises(ArithmeticError, match="sum of L\\^dag L overflows"):
            LindbladGenerator(Q1, None, (np.array([[0.0, 0.0], [1e200, 0.0]]),))

    def test_requires_some_content(self):
        with pytest.raises(ValueError):
            LindbladGenerator(Q1, None, ())

    def test_shape_checks(self):
        from qlstab.tensor import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            LindbladGenerator(Q1, np.eye(3), ())


class TestSpaceAndShapeRejections:
    """Each guard on shapes and spaces raises its own message."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: LindbladGenerator(Q1, None, (np.eye(3),)), DimensionMismatchError,
             "noise operator 0 shape (3, 3) does not match dim 2"),
            (lambda: SwitchingSchedule(1.0, ()), ValueError,
             "a schedule needs at least one generator"),
            (lambda: SwitchingSchedule(1.0, (
                LindbladGenerator(Q1, None, (LOWER,)),
                LindbladGenerator(qubit_space(2), None, (np.eye(4),)),
            )), DimensionMismatchError, "schedule generators mix spaces"),
            (lambda: apply_generator(LindbladGenerator(Q1, None, (LOWER,)), np.eye(3)),
             DimensionMismatchError, "state shape (3, 3) does not match generator dim 2"),
            (lambda: gas_certificate(LindbladGenerator(Q1, None, (LOWER,)), make_ghz(2)),
             DimensionMismatchError, "target and generator live on different spaces"),
            (lambda: check_invariance(LindbladGenerator(Q1, None, (LOWER,)), make_ghz(2)),
             DimensionMismatchError, "state and generator live on different spaces"),
        ],
        ids=["noise-op-shape", "no-generators", "mixed-spaces", "state-shape",
             "certificate-space", "invariance-space"],
    )
    def test_rejections_name_the_rule(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


class TestApplyGenerator:
    def test_dark_state_is_stationary(self):
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs.operators, psi.space)
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

    @given(
        dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2),
        n_ops=st.integers(0, 4),
        with_ham=st.booleans(),
        transposed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_per_operator_oracle(
        self, dims, n_ops, with_ham, transposed, seed
    ):
        space = TensorSpace(tuple(dims))
        rng = np.random.default_rng(seed)
        gen = random_generator(space, rng, n_ops, with_ham or n_ops == 0)
        d = space.dim
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if transposed:
            mat = mat.T
        out = apply_generator(gen, mat)
        assert out.tobytes() == apply_generator_oracle(gen, mat).tobytes()

    def test_operators_are_read_only_views_of_one_stack(self):
        rng = np.random.default_rng(3)
        gen = random_generator(TensorSpace((2, 3)), rng, n_ops=3)
        stack_ = gen._stack
        assert stack_.shape == (4, 6, 6)
        for k, op in enumerate(gen.noise_ops):
            assert op.base is stack_
            np.testing.assert_array_equal(op, stack_[k])
        assert gen._quad.base is stack_
        for arr in (*gen.noise_ops, gen._quad, gen._adjoints):
            assert not arr.flags.writeable
        for op, adj in zip(gen.noise_ops, gen._adjoints):
            np.testing.assert_array_equal(adj, op.conj().T)


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

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (2, 2, 2), (3, 3)])
    @pytest.mark.parametrize("with_ham", [True, False], ids=["ham", "no-ham"])
    def test_matches_kron_oracle_and_apply_generator(self, dims, with_ham):
        rng = np.random.default_rng(sum(dims) + 10 * with_ham)
        space = TensorSpace(dims)
        gen = random_generator(space, rng, with_ham=with_ham)
        lhat = vectorize(gen)
        oracle = vectorize_oracle(gen.hamiltonian, gen.noise_ops)
        scale = float(np.max(np.abs(oracle)))
        assert float(np.max(np.abs(lhat - oracle))) <= 1e-13 * scale
        mat = rng.standard_normal((space.dim,) * 2) + 1j * rng.standard_normal(
            (space.dim,) * 2
        )
        direct = apply_generator(gen, mat)
        via_vec = unstack(lhat @ stack(mat), space.dim)
        assert float(np.max(np.abs(direct - via_vec))) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "dims", [(2,), (3,), (2, 3), (2, 2, 2), (3, 3), (2, 2, 2, 2, 2)]
    )
    @pytest.mark.parametrize("with_ham", [True, False], ids=["ham", "no-ham"])
    # A shrunk seed says nothing more, and each D = 32 replay costs 0.1 s.
    @settings(max_examples=8, phases=(Phase.generate,))
    @given(n_ops=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_whole_array_oracles(self, dims, with_ham, n_ops, seed):
        space = TensorSpace(dims)
        rng = np.random.default_rng(seed)
        n_ops = max(n_ops, 0 if with_ham else 1)
        gen = random_generator(space, rng, n_ops, with_ham)
        lhat = vectorize(gen)
        assert lhat.tobytes() == vectorize_kron_oracle(gen).tobytes()
        oracle = real_form_oracle(lhat, space.dim)
        assert _real_form(lhat, space.dim).tobytes() == oracle.tobytes()

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
        assert cert.kernel_dim == 1
        assert cert.gap == pytest.approx(0.5, abs=1e-9)

    def test_dephasing_fails(self):
        gen = LindbladGenerator(Q1, None, (SZ,))
        cert = gas_certificate(gen, basis_state(Q1, 0))
        assert not cert.certified
        assert cert.kernel_dim >= 2

    def test_no_steady_state_without_a_unique_kernel(self):
        gen = LindbladGenerator(Q1, None, (SZ,))
        cert = gas_certificate(gen, basis_state(Q1, 0))
        assert cert.steady_state is None
        assert "kernel dimension is 2, need exactly 1" in cert.messages

    @pytest.mark.parametrize("name", ORACLE_FIXTURES)
    def test_matches_dense_eig_oracle(self, name):
        # Full spectra are not compared: eigenvalues inside defective
        # (Jordan) clusters move by up to ~1e-2 between LAPACK routes.
        gen, target = _oracle_fixture(name)
        certified, kernel_dim, abscissa, steady, messages = eig_certificate(
            gen, target
        )
        cert = gas_certificate(gen, target)
        assert cert.certified == certified
        assert cert.kernel_dim == kernel_dim
        assert_same_messages(cert.messages, messages)
        assert -cert.gap == pytest.approx(abscissa, rel=1e-9)
        if kernel_dim == 1:
            np.testing.assert_allclose(cert.steady_state, steady, rtol=0, atol=1e-10)

    def test_memory_stays_at_one_superoperator_and_its_real_form(self):
        # One superoperator takes 16 D^4 bytes and the certificate adds only
        # its real form (half that); a full-size temporary in either build
        # step would lift a peak to about twice one superoperator.
        gen, target = _oracle_fixture("cluster5")
        full = 16 * gen.space.dim**4
        assert traced_peak(lambda: vectorize(gen)) < 1.1 * full
        assert traced_peak(lambda: gas_certificate(gen, target)) < 1.6 * full

    def test_memory_stays_within_one_superoperator(self):
        # The real form and its principal blocks share the superoperator's
        # buffer; what is left is the nonzero pattern (D^4 bytes per boolean
        # array) and one block's LAPACK copy.
        gen, target = _oracle_fixture("cluster5")
        full = 16 * gen.space.dim**4
        assert traced_peak(lambda: gas_certificate(gen, target)) <= 1.2 * full

    def test_real_form_acts_as_the_generator(self):
        rng = np.random.default_rng(5)
        space = TensorSpace((2, 3))
        gen = random_generator(space, rng)
        real = _real_form(vectorize(gen), space.dim)
        assert real.dtype == np.float64
        assert real.flags.c_contiguous
        for _ in range(5):
            vec = rng.standard_normal(space.dim**2)
            direct = stack(apply_generator(gen, unstack(_from_real(vec), space.dim)))
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
        gen = stabilizer_generator(stabs.operators, psi.space)
        cert = gas_certificate(gen, psi)
        assert cert.certified
        assert cert.kernel_dim == 1
        assert cert.gap > 0
        np.testing.assert_allclose(
            cert.steady_state, psi.density_matrix().matrix, atol=1e-7
        )


def full_matrix_certificate(gen, target):
    """The certificate with the whole real form taken as one block: a
    single ``eigvals`` of the D^2 x D^2 matrix."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            dynamics, "_components", lambda pattern: [np.arange(len(pattern))]
        )
        return gas_certificate(gen, target)


def _connected_block(k, rng):
    """Random k x k boolean pattern whose graph is connected: a path over a
    shuffled order of the indices, each edge set in one direction only,
    plus random extra entries."""
    block = rng.random((k, k)) < 0.2
    order = rng.permutation(k)
    for a, b in zip(order, order[1:]):
        if rng.random() < 0.5:
            a, b = b, a
        block[a, b] = True
    return block


class TestComponents:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuted_block_diagonal_pattern(self, sizes, seed):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        pattern = np.zeros((n, n), dtype=bool)
        starts = np.cumsum([0] + sizes)
        for lo, hi in zip(starts, starts[1:]):
            pattern[lo:hi, lo:hi] = _connected_block(hi - lo, rng)
        perm = rng.permutation(n)
        # Entry (a, b) of the permuted pattern is entry (perm[a], perm[b]).
        permuted = pattern[np.ix_(perm, perm)]
        where = np.argsort(perm)
        want = sorted(
            (np.sort(where[lo:hi]) for lo, hi in zip(starts, starts[1:])),
            key=lambda c: c[0],
        )
        got = _components(permuted)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]
        # A matrix with this pattern has the union of its principal blocks'
        # spectra; symmetric, so that the eigenvalues are well conditioned.
        raw = rng.standard_normal((n, n))
        mat = np.where(permuted | permuted.T, raw + raw.T, 0.0)
        union = [np.linalg.eigvalsh(mat[np.ix_(c, c)]) for c in got]
        np.testing.assert_allclose(
            np.sort(np.concatenate(union)), np.linalg.eigvalsh(mat), rtol=0, atol=1e-10
        )

    def test_isolated_indices_are_singletons(self):
        pattern = np.eye(5, dtype=bool)
        pattern[1, 1] = False
        got = _components(pattern)
        assert [c.tolist() for c in got] == [[0], [1], [2], [3], [4]]

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_connected_pattern_is_one_component(self, n):
        got = _components(np.ones((n, n), dtype=bool))
        assert [c.tolist() for c in got] == [list(range(n))]


class TestBlockSpectrum:
    @pytest.mark.parametrize("name", ORACLE_FIXTURES)
    def test_matches_the_full_matrix_route(self, name):
        gen, target = _oracle_fixture(name)
        got = gas_certificate(gen, target)
        want = full_matrix_certificate(gen, target)
        assert got.certified == want.certified
        assert got.kernel_dim == want.kernel_dim
        assert got.gap == pytest.approx(want.gap, rel=1e-12)
        # The library solves for the stationary state on its own block only.
        oracle = whole_form_steady_state(gen) if got.kernel_dim == 1 else None
        if oracle is None:
            assert got.steady_state is None
        else:
            np.testing.assert_allclose(got.steady_state, oracle, rtol=0, atol=1e-14)
        assert_same_messages(got.messages, want.messages)

    @pytest.mark.parametrize(
        "name, blocks",
        [("cluster5", [528, 496]), ("ring4", [136, 120]), ("dicke", [136, 120]),
         ("random_qubit_qutrit", [36])],
    )
    def test_block_sizes(self, name, blocks):
        gen, _ = _oracle_fixture(name)
        real = _real_form(vectorize(gen), gen.space.dim)
        assert [len(c) for c in _components(real != 0)] == blocks

    # Each example builds and solves at most a 81 x 81 real form twice.
    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2),
        n_ops=st.integers(1, 3),
        with_ham=st.booleans(),
        real_noise=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_noise_splits_and_complex_noise_keeps_its_bits(
        self, dims, n_ops, with_ham, real_noise, seed
    ):
        # With real noise operators and no Hamiltonian, L(X^T) = L(X)^T, so
        # symmetric and antisymmetric coordinates never mix.
        rng = np.random.default_rng(seed)
        space = TensorSpace(tuple(dims))
        d = space.dim
        if real_noise:
            ops = tuple(rng.standard_normal((d, d)) for _ in range(n_ops))
            gen = LindbladGenerator(space, None, ops)
        else:
            gen = random_generator(space, rng, n_ops, with_ham)
        blocks = _components(_real_form(vectorize(gen), d) != 0)
        target = basis_state(space, 0)
        if real_noise:
            assert len(blocks) >= 2
        else:
            assert len(blocks) == 1
            got = gas_certificate(gen, target)
            want = full_matrix_certificate(gen, target)
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert got.messages == want.messages


def whole_form_certificate(gen, target):
    """The certificate with its stationary state from the bordered solve on
    the whole real form (``whole_form_steady_state``)."""
    with pytest.MonkeyPatch.context() as patch:
        whole = whole_form_steady_state(gen)
        patch.setattr(dynamics, "_steady_state", lambda block, slots, d: whole)
        return gas_certificate(gen, target)


def assert_matches_the_whole_form_solve(gen, target, atol=1e-14):
    got = gas_certificate(gen, target)
    want = whole_form_certificate(gen, target)
    assert got.certified == want.certified
    assert got.messages == want.messages
    np.testing.assert_allclose(got.steady_state, want.steady_state, rtol=0, atol=atol)


class TestBlockSteadyState:
    @pytest.mark.parametrize("name", ORACLE_FIXTURES)
    def test_matches_the_whole_form_solve(self, name):
        gen, target = _oracle_fixture(name)
        kernel_one = ["amplitude_damping", "random_qubit_qutrit", "dicke",
                      "cluster5", "ring4"]
        assert (gas_certificate(gen, target).kernel_dim == 1) == (name in kernel_one)
        if name in kernel_one:
            assert_matches_the_whole_form_solve(gen, target)

    # Each example builds at most an 81 x 81 real form twice.
    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2),
        n_ops=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_noise_matches_the_whole_form_solve(self, dims, n_ops, seed):
        rng = np.random.default_rng(seed)
        space = TensorSpace(tuple(dims))
        ops = tuple(rng.standard_normal((space.dim,) * 2) for _ in range(n_ops))
        gen = LindbladGenerator(space, None, ops)
        target = basis_state(space, 0)
        assert gas_certificate(gen, target).kernel_dim == 1
        # The two solves differ by roundoff, which grows with the bordered
        # system's condition number: 1e-14 up to condition 100, 1e-16 times
        # the condition above it (a 1-operator qutrit draw reached 1.4e5).
        cond = np.linalg.cond(bordered_real_form(gen))
        atol = 1e-14 * max(1.0, cond / 100)
        assert_matches_the_whole_form_solve(gen, target, atol)

    def test_solves_on_the_diagonal_component_only(self, monkeypatch):
        gen, target = _oracle_fixture("cluster5")
        shapes = []
        solve = np.linalg.solve

        def recording(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        cert = gas_certificate(gen, target)
        assert cert.certified
        assert shapes == [(528, 528)]


def _prefix_within(dims, bound):
    """The longest prefix of ``dims`` whose product is at most ``bound``."""
    while math.prod(dims) > bound:
        dims = dims[:-1]
    return dims


def _draw_theorem_instance(data):
    """A target on D <= 32 and its neighborhoods. The target is a random MPS
    of bond 1-3 on dims {2, 3}, or a GHZ, W or random graph state on
    qubits; the neighborhoods are sliding windows of a drawn width or
    random subsets, which may leave subsystems uncovered."""
    kind = data.draw(st.sampled_from(["mps", "ghz", "w", "graph"]))
    if kind == "mps":
        dims = data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5))
        bond = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi = random_mps(tuple(_prefix_within(dims, 32)), bond, rng)
    elif kind == "graph":
        n = data.draw(st.integers(1, 5))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        psi = make_graph_state(n, edges)
    else:
        n = data.draw(st.integers(2, 5))
        psi = make_ghz(n) if kind == "ghz" else make_w(n)
    n = psi.space.n_subsystems
    if data.draw(st.booleans()):
        width = data.draw(st.integers(1, n))
        return psi, [tuple(range(i, i + width)) for i in range(n - width + 1)]
    hood = st.sets(st.integers(0, n - 1), min_size=1).map(sorted).map(tuple)
    return psi, data.draw(st.lists(hood, min_size=1, max_size=4))


class TestStabilizabilityTheorem:
    """The source paper's theorem across the commands: the operators that
    forced synthesis builds leave exactly the operators on the DQLS
    intersection stationary, so the certificate's kernel has dimension m^2
    for an intersection of dimension m, and the certificate holds exactly
    when the verdict is true."""

    # At most a 1024 x 1024 real form per example.
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_certificate_matches_the_verdict(self, data):
        psi, hoods = _draw_theorem_instance(data)
        pattern = LocalityPattern(psi.space, tuple(Neighborhood(h) for h in hoods))
        report = check_dqls(psi, pattern)
        stabs = synthesize_stabilizers(psi, pattern, force=True)
        cert = gas_certificate(stabilizer_generator(stabs.operators, psi.space), psi)
        assert cert.kernel_dim == report.intersection_dim**2
        if not report.borderline:
            assert cert.certified == report.verdict


class TestCheckInvariance:
    def test_synthesized_operators_are_invariant(self):
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs.operators, psi.space)
        diag = check_invariance(gen, psi)
        assert diag.invariant
        assert invariance_oracle(gen, psi).invariant

    def test_rotating_hamiltonian_is_not(self):
        gen = LindbladGenerator(Q1, SX, ())
        diag = check_invariance(gen, basis_state(Q1, 0))
        assert not diag.invariant
        assert diag.hamiltonian_residual > 0.1

    def test_nontrivial_hamiltonian_cancellation(self):
        # Invariance can hold with a nonzero Hamiltonian row when it cancels
        # against the noise cross terms: i H_row = (1/2) sum conj(L_00) L_row
        # in the (target, complement) basis. Build such a generator and check
        # that it and the two-route oracle accept it.
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
        assert invariance_oracle(gen, psi).invariant
        # Breaking the cancellation must break invariance.
        broken = LindbladGenerator(space, 2 * ham, (op,))
        assert not check_invariance(broken, psi).invariant

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
            oracle = invariance_oracle(gen, psi)
            agreements += diag.invariant == oracle.invariant
            for name in ("offdiagonal_residual", "hamiltonian_residual"):
                want = getattr(oracle, name)
                assert abs(getattr(diag, name) - want) <= 1e-12 * max(1.0, want)
        assert agreements == 50

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2),
        n_ops=st.integers(0, 3),
        with_ham=st.booleans(),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_two_route_oracle(self, dims, n_ops, with_ham, planted, seed):
        # A planted case is built in a Haar basis whose first column is the
        # target: noise operators with a zero column under the target and a
        # Hamiltonian whose row cancels their cross terms. Without a
        # Hamiltonian the noise is also dark (zero diagonal entry there).
        rng = np.random.default_rng(seed)
        space = TensorSpace(tuple(dims))
        d = space.dim
        with_ham = with_ham or n_ops == 0
        basis = haar_unitary(d, rng)
        psi = PureState(space, basis[:, 0])
        ops, cross = [], np.zeros(d - 1, dtype=complex)
        for _ in range(n_ops):
            op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if planted:
                op[1:, 0] = 0.0
                if not with_ham:
                    op[0, 0] = 0.0
                cross += np.conj(op[0, 0]) * op[0, 1:]
                op = basis @ op @ basis.conj().T
            ops.append(op)
        ham = None
        if with_ham:
            raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ham = (raw + raw.conj().T) / 2
            if planted:
                ham[0, 1:] = -0.5j * cross
                ham[1:, 0] = ham[0, 1:].conj()
                ham = basis @ ham @ basis.conj().T
                ham = (ham + ham.conj().T) / 2
        gen = LindbladGenerator(space, ham, tuple(ops))
        diag = check_invariance(gen, psi)
        oracle = invariance_oracle(gen, psi)
        for name in ("offdiagonal_residual", "hamiltonian_residual"):
            want = getattr(oracle, name)
            assert abs(getattr(diag, name) - want) <= 1e-12 * max(1.0, abs(want))
        residuals = (
            oracle.offdiagonal_residual,
            oracle.hamiltonian_residual,
            oracle.generator_residual,
        )
        if all(r < 1e-12 or r > 1e-6 for r in residuals):
            assert diag.invariant == oracle.invariant
        if planted:
            assert diag.invariant

    def test_near_threshold_hamiltonian_is_decided_by_its_row(self):
        # psi = |0>, H = eps sigma_x: the Hamiltonian row has norm eps, but
        # the generator on |0><0| has Frobenius norm sqrt(2) eps. At
        # eps = 0.9e-9 only the two-route oracle's generator route rejects.
        eps = 0.9e-9
        gen = LindbladGenerator(Q1, eps * SX, ())
        psi = basis_state(Q1, 0)
        diag = check_invariance(gen, psi)
        assert diag.invariant
        assert diag.offdiagonal_residual == 0.0
        assert diag.hamiltonian_residual == pytest.approx(eps, rel=1e-15)
        oracle = invariance_oracle(gen, psi)
        assert oracle.hamiltonian_residual == pytest.approx(eps, rel=1e-15)
        assert oracle.generator_residual == pytest.approx(math.sqrt(2) * eps, rel=1e-15)
        assert not oracle.invariant


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
        gen = stabilizer_generator(stabs.operators, psi.space)
        rho0 = psi.density_matrix()
        traj = evolve(gen, rho0, 1.0, dt=0.01, record_every=25)
        for _, state in traj:
            assert np.max(np.abs(state.matrix - rho0.matrix)) < 1e-8

    def test_zero_time_returns_initial_only(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        rho0 = DensityMatrix(Q1, np.diag([0.5, 0.5]))
        traj = list(evolve(gen, rho0, 0.0))
        assert len(traj) == 1
        assert traj[0][0] == 0.0

    def test_oversized_step_aborts_with_diagnostic(self):
        gen = LindbladGenerator(Q1, None, (4.0 * LOWER,))
        rho0 = DensityMatrix(Q1, np.diag([0.0, 1.0]))
        with pytest.raises(IntegrationError, match="reduce the step size"):
            list(evolve(gen, rho0, 10.0, dt=0.5))

    def test_invalid_snapshot_aborts_with_its_validation_error(self):
        # One RK4 step of amplitude damping at gamma dt = 3 keeps the trace
        # exactly and stays below the divergence limit, but leaves the
        # populations at (-0.375, 1.375).
        gen = LindbladGenerator(Q1, None, (math.sqrt(3.0) * LOWER,))
        rho0 = DensityMatrix(Q1, np.diag([0.0, 1.0]))
        message = re.escape(
            "snapshot at t=1 failed validation "
            "(matrix has negative eigenvalue -3.750e-01)"
        )
        with pytest.raises(IntegrationError, match=message):
            list(evolve(gen, rho0, 1.0, dt=1.0))

    def test_default_step_counts_the_hamiltonian(self):
        # norm_bound = 2 |H| = 40, so the default dt is 0.1 / 40 = 0.0025.
        gen = LindbladGenerator(Q1, 20.0 * SZ, ())
        rho0 = DensityMatrix(Q1, np.full((2, 2), 0.5))
        times = [t for t, _ in evolve(gen, rho0, 1.0)]
        assert len(times) == 401
        assert times[1] == 0.0025 and times[-1] == 1.0

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"t_final": -1.0}, "t_final must be non-negative"),
            ({"t_final": math.nan}, "NaN"),
            ({"record_every": 0}, "record_every must be >= 1"),
            ({"dt": 0.0}, "dt must be positive"),
            ({"dt": -0.01}, "dt must be positive"),
            (
                {"rho0": DensityMatrix(TensorSpace((3,)), np.eye(3) / 3)},
                "different spaces",
            ),
        ],
        ids=["negative-t", "nan-t", "record-every-0", "dt-0", "dt-negative", "space"],
    )
    def test_argument_errors_raise_at_the_call(self, kwargs, error):
        # Nothing is iterated: the checks must not wait for the first snapshot.
        gen = LindbladGenerator(Q1, None, (LOWER,))
        args = {"rho0": DensityMatrix(Q1, np.diag([0.0, 1.0])), "t_final": 1.0}
        args.update(kwargs)
        with pytest.raises(ValueError, match=error):
            evolve(gen, **args)

    def test_iteration_holds_one_snapshot(self):
        # The traced peak of iterating the trajectory must not grow with the
        # number of recorded snapshots (16 D^2 bytes each).
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs.operators, psi.space)
        rho0 = psi.density_matrix()
        snapshot = 16 * psi.space.dim**2

        def peak(t_final):
            tracemalloc.start()
            try:
                for _ in evolve(gen, rho0, t_final, dt=0.01):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.1)
        short, long = peak(0.5), peak(2.0)
        assert (long - short) / 150 < snapshot / 10

    def test_snapshots_keep_trace_and_hermiticity(self):
        rng = np.random.default_rng(5)
        psi, stabs = dicke_generator()
        gen = stabilizer_generator(stabs.operators, psi.space)
        rho0 = random_pure_state(psi.space, rng).density_matrix()
        traj = evolve(gen, rho0, 2.0, dt=0.01, record_every=50)
        for _, state in traj:
            assert abs(np.trace(state.matrix) - 1.0) < 1e-7
            assert np.max(np.abs(state.matrix - state.matrix.conj().T)) < 1e-7


class TestSwitchedMap:
    def test_single_generator_schedule_is_plain_exponential(self):
        gen = LindbladGenerator(Q1, None, (LOWER,))
        # Legal and silent: the CLI reports the degenerate schedule itself.
        schedule = SwitchingSchedule(0.7, (gen,))
        total = switched_map(schedule)
        np.testing.assert_allclose(total, expm(0.7 * vectorize(gen)), atol=1e-12)

    def test_cycle_map_bits_match_scaling_a_copy(self):
        psi, stabs = dicke_generator()
        gens = tuple(stabilizer_generators(stabs.operators, psi.space))
        for tau in (0.7, 1.0):
            expected = np.eye(psi.space.dim**2, dtype=complex)
            for gen in gens:
                expected = expm(tau * vectorize(gen)) @ expected
            total = switched_map(SwitchingSchedule(tau, gens))
            assert total.tobytes() == expected.tobytes()

    def test_zero_interval_is_identity(self):
        gen_a = LindbladGenerator(Q1, None, (LOWER,))
        gen_b = LindbladGenerator(Q1, None, (SZ,))
        schedule = SwitchingSchedule(0.0, (gen_a, gen_b))
        np.testing.assert_allclose(switched_map(schedule), np.eye(4), atol=1e-12)

    def test_nan_interval_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SwitchingSchedule(math.nan, (LindbladGenerator(Q1, None, (LOWER,)),))

    def test_nan_cycle_map_fails_the_trace_check(self):
        # An infinite interval turns the exponential into NaNs.
        schedule = SwitchingSchedule(math.inf, (LindbladGenerator(Q1, None, (LOWER,)),))
        with np.errstate(all="ignore"):
            with pytest.raises(ArithmeticError, match="not trace preserving"):
                switched_map(schedule)

    def test_cap_enforced(self):
        space = qubit_space(7)
        gen = LindbladGenerator(space, None, (np.zeros((128, 128)),))
        schedule = SwitchingSchedule(1.0, (gen,))
        with pytest.raises(DimensionCapError):
            switched_map(schedule)

    def test_dicke_cycle_contracts(self):
        psi, stabs = dicke_generator()
        gens = tuple(stabilizer_generators(stabs.operators, psi.space))
        total = switched_map(SwitchingSchedule(1.0, gens))
        mods = np.sort(np.abs(np.linalg.eigvals(total)))[::-1]
        assert mods[0] == pytest.approx(1.0, abs=1e-9)
        assert mods[1] < 1.0 - 1e-6


class TestSimulateSwitched:
    def test_dark_state_is_fixed_across_segments(self):
        psi, stabs = dicke_generator()
        gens = tuple(stabilizer_generators(stabs.operators, psi.space))
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
        switched = list(simulate_switched(schedule, rho0, 4, dt=0.01))
        direct = list(evolve(gen, rho0, 2.0, dt=0.01, record_every=50))
        np.testing.assert_allclose(
            switched[-1][1].matrix, direct[-1][1].matrix, atol=1e-8
        )

    def test_zero_interval_yields_the_initial_state(self):
        rng = np.random.default_rng(8)
        gens = (LindbladGenerator(Q1, None, (LOWER,)), LindbladGenerator(Q1, None, (SZ,)))
        rho0 = random_density_matrix(Q1, rng)
        traj = list(simulate_switched(SwitchingSchedule(0.0, gens), rho0, 3))
        assert [t for t, _ in traj] == [0.0] * 7
        for _, state in traj:
            assert state.matrix.tobytes() == rho0.matrix.tobytes()

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"cycles": 0}, "cycles must be >= 1"),
            ({"dt": 0.0}, "dt must be positive"),
            ({"dt": -0.01}, "dt must be positive"),
            (
                {"rho0": DensityMatrix(TensorSpace((3,)), np.eye(3) / 3)},
                "different spaces",
            ),
        ],
        ids=["cycles-0", "dt-0", "dt-negative", "space"],
    )
    def test_argument_errors_raise_at_the_call(self, kwargs, error):
        # Nothing is iterated: the checks must not wait for the first segment.
        schedule = SwitchingSchedule(0.5, (LindbladGenerator(Q1, None, (LOWER,)),))
        args = {"rho0": DensityMatrix(Q1, np.diag([0.0, 1.0])), "cycles": 2}
        args.update(kwargs)
        with pytest.raises(ValueError, match=error):
            simulate_switched(schedule, **args)

    def test_iteration_holds_one_boundary_state(self):
        # The traced peak of iterating the switched trajectory must not grow
        # with the number of segment boundaries (16 D^2 bytes each).
        psi, stabs = dicke_generator()
        schedule = SwitchingSchedule(
            0.05, tuple(stabilizer_generators(stabs.operators, psi.space))
        )
        rho0 = psi.density_matrix()
        snapshot = 16 * psi.space.dim**2

        def peak(cycles):
            tracemalloc.start()
            try:
                for _ in simulate_switched(schedule, rho0, cycles, dt=0.01):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        short, long = peak(5), peak(25)
        extra = (25 - 5) * len(schedule.generators)
        assert (long - short) / extra < snapshot / 10

    def test_whole_cycle_trace_distance_contraction(self):
        rng = np.random.default_rng(8)
        psi, stabs = dicke_generator()
        gens = tuple(stabilizer_generators(stabs.operators, psi.space))
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
