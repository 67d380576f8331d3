"""States, factories, embedding, and partial traces against brute-force oracles."""

import math

import numpy as np
import pytest

from qlstab.tensor import (
    CoverageWarning,
    DensityMatrix,
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    apply_local,
    apply_local_unitary,
    basis_state,
    embed,
    embed_frame,
    make_dicke_4_2,
    make_ghz,
    make_graph_state,
    make_w,
    partial_trace,
    qubit_space,
    random_density_matrix,
    random_pure_state,
)

from oracles import cz_matrix_oracle, embed_oracle, haar_unitary, ptrace_oracle

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestTypes:
    def test_tensor_space_rejects_small_dims(self):
        with pytest.raises(ValueError):
            TensorSpace((2, 1))
        with pytest.raises(ValueError):
            TensorSpace(())

    def test_tensor_space_total_dim(self):
        assert TensorSpace((2, 3, 2)).dim == 12

    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError):
            PureState(qubit_space(1), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="norm"):
            PureState(qubit_space(1), np.array([1.0, math.nan]))

    def test_pure_state_requires_matching_length(self):
        with pytest.raises(DimensionMismatchError):
            PureState(qubit_space(2), np.array([1.0, 0.0]))

    def test_density_matrix_validation(self):
        space = qubit_space(1)
        with pytest.raises(ValueError):
            DensityMatrix(space, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([1.5, -0.5]))  # negative eigenvalue
        for entry in ((0, 0), (0, 1)):
            mat = np.diag([0.5, 0.5]).astype(complex)
            mat[entry] = mat[entry[::-1]] = math.nan
            with pytest.raises(ValueError, match="nan"):
                DensityMatrix(space, mat)

    def test_neighborhood_normalizes_and_validates(self):
        assert Neighborhood((2, 0)).indices == (0, 2)
        with pytest.raises(ValueError):
            Neighborhood(())
        with pytest.raises(ValueError):
            Neighborhood((1, 1))
        assert Neighborhood((0, 2)).complement(4) == (1, 3)

    def test_pattern_coverage_warning(self):
        space = qubit_space(3)
        with pytest.warns(CoverageWarning):
            pattern = LocalityPattern(space, (Neighborhood((0, 1)),))
        assert pattern.uncovered() == (2,)

    def test_pattern_rejects_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            LocalityPattern(qubit_space(2), (Neighborhood((0, 5)),))

    def test_qloperator_requires_square_block(self):
        with pytest.raises(DimensionMismatchError):
            QLOperator(Neighborhood((0,)), np.zeros((2, 3)))

    def test_values_are_frozen(self):
        psi = make_ghz(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestFactories:
    def test_ghz_single_qubit(self):
        np.testing.assert_allclose(
            make_ghz(1).amplitudes, np.array([1, 1]) / math.sqrt(2)
        )

    def test_ghz_three_qubits(self):
        amps = make_ghz(3).amplitudes
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        np.testing.assert_allclose(amps, expected)

    def test_ghz_four_qubits_entries(self):
        amps = make_ghz(4).amplitudes
        assert amps[0] == pytest.approx(1 / math.sqrt(2))
        assert amps[15] == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(amps) == 2

    def test_w_two_qubits(self):
        np.testing.assert_allclose(
            make_w(2).amplitudes, np.array([0, 1, 1, 0]) / math.sqrt(2)
        )

    def test_w_three_qubits(self):
        amps = make_w(3).amplitudes
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / math.sqrt(3)
        np.testing.assert_allclose(amps, expected)

    def test_w_four_qubits_entries(self):
        amps = make_w(4).amplitudes
        for idx in (8, 4, 2, 1):
            assert amps[idx] == pytest.approx(0.5)
        assert np.count_nonzero(amps) == 4

    def test_graph_state_one_edge(self):
        amps = make_graph_state(2, [(0, 1)]).amplitudes
        np.testing.assert_allclose(amps, np.array([1, 1, 1, -1]) / 2.0)

    def test_graph_state_no_edges_is_plus(self):
        np.testing.assert_allclose(
            make_graph_state(1, []).amplitudes, np.array([1, 1]) / math.sqrt(2)
        )

    def test_graph_state_chain_matches_cz_oracle(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        state = make_graph_state(4, edges).amplitudes
        plus = np.full(16, 1 / 4.0, dtype=complex)
        expected = plus
        for u, v in edges:
            expected = cz_matrix_oracle(4, u, v) @ expected
        np.testing.assert_allclose(state, expected, atol=1e-14)

    def test_graph_state_amplitude_magnitudes(self):
        for n, edges in ((3, [(0, 1), (0, 2)]), (4, [(0, 1), (1, 2), (2, 3), (3, 0)])):
            amps = make_graph_state(n, edges).amplitudes
            np.testing.assert_allclose(np.abs(amps), 2 ** (-n / 2.0))

    def test_graph_state_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            make_graph_state(2, [(0, 0)])
        with pytest.raises(ValueError):
            make_graph_state(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            make_graph_state(2, [(0, 3)])

    def test_dicke_amplitudes(self):
        amps = make_dicke_4_2().amplitudes
        for idx in (3, 5, 6, 9, 10, 12):
            assert amps[idx] == pytest.approx(1 / math.sqrt(6))
        assert np.count_nonzero(amps) == 6
        assert np.linalg.norm(amps) == pytest.approx(1.0)

    def test_dicke_is_orthogonal_to_w(self):
        # Direct inner-product evaluation: supports sit in different
        # excitation sectors, so the overlap vanishes.
        overlap = sum(
            np.conj(a) * b
            for a, b in zip(make_w(4).amplitudes, make_dicke_4_2().amplitudes)
        )
        assert abs(overlap) == pytest.approx(0.0, abs=1e-15)

    def test_basis_state(self):
        amps = basis_state(qubit_space(2), 2).amplitudes
        np.testing.assert_allclose(amps, [0, 0, 1, 0])


class TestPartialTrace:
    def test_ghz_reduction_is_equal_mixture(self):
        for n in (2, 3, 4):
            rho = make_ghz(n).density_matrix()
            for keep in ([0], [0, 1][: n - 1], [n - 1]):
                keep = [k for k in keep if k < n]
                red = partial_trace(rho, Neighborhood(tuple(keep)))
                d = red.space.dim
                expected = np.zeros((d, d))
                expected[0, 0] = expected[-1, -1] = 0.5
                np.testing.assert_allclose(red.matrix, expected, atol=1e-12)

    def test_product_state_identity(self):
        rng = np.random.default_rng(3)
        space_a = TensorSpace((2, 3))
        space_b = TensorSpace((2,))
        rho_a = random_density_matrix(space_a, rng)
        rho_b = random_density_matrix(space_b, rng)
        full = DensityMatrix(TensorSpace((2, 3, 2)), np.kron(rho_a.matrix, rho_b.matrix))
        red = partial_trace(full, Neighborhood((0, 1)))
        np.testing.assert_allclose(red.matrix, rho_a.matrix, atol=1e-13)

    def test_random_three_qubit_against_oracle(self):
        rng = np.random.default_rng(5)
        psi = random_pure_state(qubit_space(3), rng)
        rho = psi.density_matrix()
        red = partial_trace(rho, Neighborhood((0, 2)))
        expected = ptrace_oracle(rho.matrix, [2, 2, 2], [0, 2])
        np.testing.assert_allclose(red.matrix, expected, atol=1e-13)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dims = tuple(rng.choice([2, 3], size=rng.integers(2, 5)))
            space = TensorSpace(dims)
            rho = random_density_matrix(space, rng)
            n = len(dims)
            size = int(rng.integers(1, n + 1))
            keep = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            red = partial_trace(rho, Neighborhood(keep))
            assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-12

    def test_keep_everything_returns_same_state(self):
        rho = make_dicke_4_2().density_matrix()
        red = partial_trace(rho, Neighborhood((0, 1, 2, 3)))
        np.testing.assert_allclose(red.matrix, rho.matrix)


class TestEmbed:
    def test_identity_block(self):
        space = TensorSpace((2, 3, 2))
        op = QLOperator(Neighborhood((1,)), np.eye(3))
        np.testing.assert_allclose(embed(op, space), np.eye(12))

    def test_sigma_z_on_second_qubit(self):
        space = qubit_space(2)
        op = QLOperator(Neighborhood((1,)), SZ)
        np.testing.assert_allclose(embed(op, space), np.diag([1, -1, 1, -1]))

    def test_noncontiguous_against_elementwise_oracle(self):
        space = qubit_space(3)
        block = np.kron(SX, SX)
        op = QLOperator(Neighborhood((0, 2)), block)
        np.testing.assert_allclose(
            embed(op, space), embed_oracle(block, [2, 2, 2], [0, 2]), atol=1e-14
        )

    def test_random_blocks_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            dims = tuple(rng.choice([2, 3], size=rng.integers(2, 5)))
            space = TensorSpace(dims)
            n = len(dims)
            size = int(rng.integers(1, n + 1))
            hood = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            d_block = int(np.prod([dims[a] for a in hood]))
            block = rng.standard_normal((d_block, d_block)) + 1j * rng.standard_normal(
                (d_block, d_block)
            )
            full = embed(QLOperator(Neighborhood(hood), block), space)
            np.testing.assert_allclose(
                full, embed_oracle(block, list(dims), list(hood)), atol=1e-13
            )

    def test_embed_is_multiplicative_on_shared_neighborhood(self):
        rng = np.random.default_rng(23)
        space = TensorSpace((2, 2, 3))
        hood = Neighborhood((0, 2))
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lhs = embed(QLOperator(hood, a), space) @ embed(QLOperator(hood, b), space)
        rhs = embed(QLOperator(hood, a @ b), space)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_disjoint_neighborhoods_commute(self):
        rng = np.random.default_rng(29)
        space = qubit_space(4)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ea = embed(QLOperator(Neighborhood((0, 2)), a), space)
        eb = embed(QLOperator(Neighborhood((1, 3)), b), space)
        np.testing.assert_allclose(ea @ eb, eb @ ea, atol=1e-12)

    def test_block_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            embed(QLOperator(Neighborhood((0, 1)), np.eye(3)), qubit_space(2))

    def test_embed_frame_orthonormal_and_consistent(self):
        rng = np.random.default_rng(31)
        space = qubit_space(3)
        hood = Neighborhood((0, 2))
        raw = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        frame = np.linalg.qr(raw)[0]
        big = embed_frame(frame, hood, space)
        np.testing.assert_allclose(
            big.conj().T @ big, np.eye(big.shape[1]), atol=1e-12
        )
        # The frame's projector embeds to the embedded frame's projector.
        proj_small = frame @ frame.conj().T
        lhs = embed(QLOperator(hood, proj_small), space)
        np.testing.assert_allclose(lhs, big @ big.conj().T, atol=1e-12)


def _local_operator_cases(rng, count=12):
    """Random operators on random (2, 3)-dim spaces; the first three sit on
    neighborhoods that skip a subsystem."""
    cases = [((2, 3, 2), (0, 2)), ((3, 2, 2, 3), (1, 3)), ((2, 2, 3, 2), (0, 1, 3))]
    for _ in range(count):
        n = int(rng.integers(1, 6))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        size = int(rng.integers(1, n + 1))
        cases.append((dims, tuple(sorted(rng.choice(n, size, replace=False).tolist()))))
    for dims, hood in cases:
        d_block = math.prod(dims[a] for a in hood)
        block = rng.standard_normal((d_block, d_block)) + 1j * rng.standard_normal(
            (d_block, d_block)
        )
        yield TensorSpace(dims), QLOperator(Neighborhood(hood), block)


class TestApplyLocal:
    def test_matches_embedding_oracle(self):
        rng = np.random.default_rng(41)
        for space, op in _local_operator_cases(rng):
            full = embed_oracle(op.block, space.dims, op.neighborhood.indices)
            for shape in [(space.dim,), (space.dim, 3), (space.dim, 0)]:
                vectors = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                out = apply_local(op, space, vectors)
                assert out.shape == shape
                np.testing.assert_allclose(out, full @ vectors, rtol=0, atol=1e-12)

    def test_embed_equals_oracle_exactly(self):
        rng = np.random.default_rng(43)
        for space, op in _local_operator_cases(rng):
            full = embed(op, space)
            assert np.array_equal(
                full, embed_oracle(op.block, space.dims, op.neighborhood.indices)
            )
            assert full.flags.c_contiguous

    def test_shape_mismatches_rejected(self):
        space = TensorSpace((2, 3, 2))
        op = QLOperator(Neighborhood((0, 2)), np.eye(4))
        with pytest.raises(DimensionMismatchError):
            apply_local(QLOperator(Neighborhood((0, 2)), np.eye(6)), space, np.ones(12))
        with pytest.raises(DimensionMismatchError):
            apply_local(QLOperator(Neighborhood((0, 3)), np.eye(4)), space, np.ones(12))
        for bad in (np.ones(11), np.ones((6, 2)), np.ones((12, 2, 2)), np.ones(())):
            with pytest.raises(DimensionMismatchError):
                apply_local(op, space, bad)


class TestLocalUnitary:
    def test_identity_leaves_state(self):
        psi = make_w(3)
        out = apply_local_unitary(psi, [np.eye(2)] * 3)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_bit_flip(self):
        out = apply_local_unitary(basis_state(qubit_space(1), 0), [SX])
        np.testing.assert_allclose(out.amplitudes, [0, 1])

    def test_matches_kron_product(self):
        rng = np.random.default_rng(37)
        dims = (2, 3, 2)
        space = TensorSpace(dims)
        psi = random_pure_state(space, rng)
        locals_ = [haar_unitary(d, rng) for d in dims]
        out = apply_local_unitary(psi, locals_)
        big = np.kron(np.kron(locals_[0], locals_[1]), locals_[2])
        np.testing.assert_allclose(out.amplitudes, big @ psi.amplitudes, atol=1e-12)

    def test_rejects_non_unitary(self):
        psi = basis_state(qubit_space(1), 0)
        with pytest.raises(ValueError):
            apply_local_unitary(psi, [np.array([[1, 0], [0, 2]])])

    def test_rejects_wrong_count(self):
        with pytest.raises(DimensionMismatchError):
            apply_local_unitary(make_ghz(2), [np.eye(2)])
