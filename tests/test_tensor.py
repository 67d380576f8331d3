"""States, factories, embedding, and partial traces against brute-force oracles."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlstab import dynamics, tensor
from qlstab.tensor import (
    DensityMatrix,
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    apply_local,
    apply_local_unitary,
    check_hermitian,
    embed,
    embed_sum,
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

from oracles import (
    basis_state,
    cz_matrix_oracle,
    density_matrix_oracle,
    embed_oracle,
    graph_state_oracle,
    haar_unitary,
    partial_trace_oracle,
    ptrace_oracle,
    random_mps,
)

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

    def test_pattern_coverage_is_data(self):
        # An uncovered subsystem is legal and listed, not warned.
        space = qubit_space(3)
        pattern = LocalityPattern(space, (Neighborhood((0, 1)),))
        assert pattern.uncovered() == (2,)
        assert LocalityPattern(space, ((0, 1), (2,))).uncovered() == ()

    def test_pattern_rejects_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            LocalityPattern(qubit_space(2), (Neighborhood((0, 5)),))

    def test_qloperator_requires_square_block(self):
        with pytest.raises(DimensionMismatchError):
            QLOperator(Neighborhood((0,)), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: DensityMatrix(qubit_space(2), np.eye(2) / 2),
             DimensionMismatchError, "expected array of shape (4, 4), got (2, 2)"),
            (lambda: embed_frame(np.eye(3), Neighborhood((0,)), qubit_space(2)),
             DimensionMismatchError, "frame has 3 rows, neighborhood dimension is 2"),
            (lambda: Neighborhood((0, -1)), ValueError,
             "negative subsystem index in (0, -1)"),
            (lambda: LocalityPattern(qubit_space(2), ()), ValueError,
             "a locality pattern needs at least one neighborhood"),
            (lambda: make_ghz(0), ValueError, "GHZ state needs n >= 1 qubits"),
            (lambda: make_graph_state(0, []), ValueError,
             "graph state needs n >= 1 qubits"),
            (lambda: embed_sum([QLOperator(Neighborhood((0, 1)), np.eye(3))],
                               qubit_space(2)),
             DimensionMismatchError,
             "block shape (3, 3) does not match neighborhood dimension 4"),
            (lambda: embed_sum([QLOperator(Neighborhood((0, 2)), np.eye(4))],
                               qubit_space(2)),
             DimensionMismatchError,
             "neighborhood (0, 2) does not fit a 2-subsystem space"),
        ],
        ids=["density-shape", "embed-frame-rows", "negative-index", "empty-pattern",
             "ghz-zero", "graph-zero", "embed-sum-block", "embed-sum-hood"],
    )
    def test_rejections_name_the_rule(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_values_are_frozen(self):
        psi = make_ghz(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


# (herm_tol, trace_tol, psd_tol) of a fresh state and of an integrator snapshot.
TOLERANCES = [
    (tensor.HERM_TOL, tensor.NORM_TOL, tensor.PSD_TOL),
    (dynamics.SNAPSHOT_HERM_TOL, dynamics.SNAPSHOT_TRACE_TOL, dynamics.SNAPSHOT_PSD_TOL),
]
# Smallest eigenvalues to plant, as multiples of psd_tol: either side of the
# tolerance and of the certificate's shift psd_tol/2, and well below both.
TOL_MULTIPLES = [-2.0, -(1 + 1e-6), -(1 - 1e-6), -0.5 * (1 + 1e-6), -0.5 * (1 - 1e-6)]
# Smallest eigenvalues to plant as they are: clearly positive semidefinite.
PSD_VALUES = [-1e-17, 0.0, 1e-3]


def _planted(n, lam_min, rng):
    """Unit-trace Hermitian n x n matrix with smallest eigenvalue ``lam_min``
    (up to rounding) in a Haar-random basis; for n = 1 the matrix [[1]]."""
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    rest = rng.random(n - 1) + 0.1
    evals = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
    u = haar_unitary(n, rng)
    return (u * evals) @ u.conj().T


def _with_defect(mat, defect, tols):
    """``mat`` made to fail the Hermiticity or trace check by ten times its
    tolerance, or unchanged."""
    herm_tol, trace_tol, _ = tols
    mat = mat.copy()
    if defect == "asymmetric":
        mat[0, -1] += 10j * herm_tol
    elif defect == "trace":
        mat *= 1.0 + 10.0 * trace_tol
    return mat


def _assert_validates_like_the_oracle(mat, tols):
    herm_tol, trace_tol, psd_tol = tols
    expected = density_matrix_oracle(mat, herm_tol, trace_tol, psd_tol)
    space = TensorSpace((mat.shape[0],))
    if expected is None:
        DensityMatrix(space, mat, herm_tol=herm_tol, trace_tol=trace_tol,
                      psd_tol=psd_tol)
    else:
        with pytest.raises(ValueError) as info:
            DensityMatrix(space, mat, herm_tol=herm_tol, trace_tol=trace_tol,
                          psd_tol=psd_tol)
        assert str(info.value) == expected


def _no_eigvalsh(*args, **kwargs):
    raise AssertionError("eigvalsh called")


class TestPositivityCertificate:
    """``DensityMatrix`` decides positivity by a Cholesky certificate first;
    it must accept and reject exactly as the eigvalsh check
    (tests/oracles.py::density_matrix_oracle), with the same message."""

    @given(
        n=st.sampled_from([1, 2, 3, 16, 32, 64]),
        tols=st.sampled_from(TOLERANCES),
        planted=st.sampled_from([("multiple", m) for m in TOL_MULTIPLES]
                                + [("value", v) for v in PSD_VALUES]),
        defect=st.sampled_from([None, "asymmetric", "trace"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decision_and_message_match_the_oracle(self, n, tols, planted, defect, seed):
        kind, x = planted
        lam_min = x * tols[2] if kind == "multiple" else x
        mat = _with_defect(_planted(n, lam_min, np.random.default_rng(seed)),
                           defect, tols)
        # The certificate alone, at every n (a space needs n >= 2): it never
        # accepts a matrix that the oracle's positivity check rejects.
        if defect is None and tensor._cholesky_certifies(
            mat, np.trace(mat), tols[2], mat.conj().T
        ):
            assert density_matrix_oracle(mat, *tols) is None
        if n >= 2:
            _assert_validates_like_the_oracle(mat, tols)

    @pytest.mark.parametrize("tols", TOLERANCES, ids=["state", "snapshot"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32, 64])
    def test_clear_cases_take_no_eigendecomposition(self, n, tols, monkeypatch):
        rng = np.random.default_rng(n)
        mats = [_planted(n, v, rng) for v in PSD_VALUES]
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        for mat in mats:
            assert tensor._cholesky_certifies(
                mat, np.trace(mat), tols[2], mat.conj().T
            )
            if n >= 2:
                herm_tol, trace_tol, psd_tol = tols
                DensityMatrix(TensorSpace((n,)), mat, herm_tol=herm_tol,
                              trace_tol=trace_tol, psd_tol=psd_tol)

    @pytest.mark.parametrize("tols", TOLERANCES, ids=["state", "snapshot"])
    def test_rank_two_reduced_state(self, tols, monkeypatch):
        """W(9) on 8 sites: a 256 x 256 state of rank 2 (eigenvalues 8/9 and
        1/9), with a kernel eigenvalue moved to each planted value and the
        top eigenvalue moved the other way, so the trace stays 1; each also
        with a Hermiticity or trace defect."""
        rho = partial_trace(make_w(9), Neighborhood(range(8))).matrix
        evals, vecs = np.linalg.eigh(rho)
        kernel, top = vecs[:, 0], vecs[:, -1]
        assert evals[-2] > 0.1 and abs(evals[-3]) < 1e-15
        values = [m * tols[2] for m in TOL_MULTIPLES] + PSD_VALUES
        for value in values:
            mat = (rho + value * np.outer(kernel, kernel.conj())
                   - value * np.outer(top, top.conj()))
            for defect in (None, "asymmetric", "trace"):
                _assert_validates_like_the_oracle(_with_defect(mat, defect, tols), tols)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
            DensityMatrix(TensorSpace((2,) * 8), rho, herm_tol=tols[0],
                          trace_tol=tols[1], psd_tol=tols[2])

    @pytest.mark.parametrize("psd_tol", [0.0, -1e-9, math.nan, math.inf, 1e300])
    def test_degenerate_tolerances_decide_as_the_oracle(self, psd_tol):
        rng = np.random.default_rng(3)
        for lam_min in (-1e-3, -1e-17, 0.0, 1e-3):
            _assert_validates_like_the_oracle(
                _planted(8, lam_min, rng), (tensor.HERM_TOL, tensor.NORM_TOL, psd_tol)
            )


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

    @given(st.data())
    def test_graph_state_bits_equal_the_index_oracle(self, data):
        n = data.draw(st.integers(1, 8), "n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([]), "edges")
        # Either orientation of an edge is the same CZ gate.
        edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in chosen]
        amps = make_graph_state(n, edges).amplitudes
        assert amps.tobytes() == graph_state_oracle(n, edges).tobytes()

    def test_graph_state_peak_memory_below_three_state_sizes(self):
        # The +-1 signs are kept as floats, half a complex state, and freed
        # before the amplitudes are scaled in place.
        n = 16
        ring = [(i, (i + 1) % n) for i in range(n)]
        tracemalloc.start()
        try:
            make_graph_state(n, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * 2**n

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
            psi = make_ghz(n)
            for keep in ([0], [0, 1][: n - 1], [n - 1]):
                keep = [k for k in keep if k < n]
                red = partial_trace(psi, Neighborhood(tuple(keep)))
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
        red = partial_trace_oracle(full, (0, 1))
        np.testing.assert_allclose(red.matrix, rho_a.matrix, atol=1e-13)

    def test_random_three_qubit_against_oracle(self):
        rng = np.random.default_rng(5)
        psi = random_pure_state(qubit_space(3), rng)
        red = partial_trace(psi, Neighborhood((0, 2)))
        expected = ptrace_oracle(psi.density_matrix().matrix, [2, 2, 2], [0, 2])
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
            red = partial_trace_oracle(rho, keep)
            assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-12

    def test_keep_everything_returns_same_state(self):
        psi = make_dicke_4_2()
        red = partial_trace(psi, Neighborhood((0, 1, 2, 3)))
        np.testing.assert_allclose(red.matrix, psi.density_matrix().matrix)


def _assert_traces_like_the_outer_product(psi, keep, chunk):
    """``chunk`` replaces the number of products formed at a time, so small
    states take the chunked route too."""
    with mock.patch.object(tensor, "_TRACE_CHUNK", chunk):
        red = partial_trace(psi, Neighborhood(keep))
    expected = partial_trace_oracle(psi, keep).matrix
    assert red.matrix.shape == expected.shape
    # Bits, not values: signed zeros and roundoff must match as well.
    assert red.matrix.tobytes() == expected.tobytes()


@st.composite
def _pure_states(draw):
    """A pure state on 1-7 subsystems of dims 2 and 3: random amplitudes,
    a random MPS, or a sparse real vector whose zeros carry either sign."""
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "mps", "sparse"]))
    if kind == "mps":
        return random_mps(dims, 2, rng)
    if kind == "random":
        return random_pure_state(TensorSpace(dims), rng)
    d = math.prod(dims)
    v = rng.standard_normal(d) * (rng.random(d) < 0.3)
    v[rng.integers(d)] = 1.0
    v = np.where(v == 0.0, np.copysign(0.0, rng.standard_normal(d)), v)
    return PureState(TensorSpace(dims), v / np.linalg.norm(v))


class TestPureStatePartialTrace:
    """A pure state is traced from its amplitudes with the bits of tracing
    |psi><psi| (tests/oracles.py::partial_trace_oracle)."""

    @given(data=st.data())
    def test_bytes_equal_the_outer_product_route(self, data):
        psi = data.draw(_pure_states())
        n = psi.space.n_subsystems
        # At most four kept subsystems, so the validation stays small; the fixtures below keep every subset, the whole space too.
        keep = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True)
        )
        chunk = data.draw(st.sampled_from([1, 8, 100, tensor._TRACE_CHUNK]))
        _assert_traces_like_the_outer_product(psi, tuple(sorted(keep)), chunk)

    @pytest.mark.parametrize(
        "psi",
        [
            make_graph_state(6, [(i, i + 1) for i in range(5)]),
            make_ghz(6),
            make_w(6),
            random_mps((3,) * 5, 2, np.random.default_rng(8)),
            random_mps((2, 3, 2, 3, 2), 3, np.random.default_rng(9)),
        ],
        ids=["cluster6", "ghz6", "w6", "qutrit_mps5", "mixed_mps5"],
    )
    def test_fixtures_match_on_every_keep(self, psi):
        n = psi.space.n_subsystems
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                for chunk in (16, tensor._TRACE_CHUNK):
                    _assert_traces_like_the_outer_product(psi, keep, chunk)

    def test_wide_keep_holds_one_running_sum_per_traced_axis(self):
        """Keeping 8 of 12 qubits traces four subsystems out through sixteen
        256 x 256 chunks. One running sum is held per traced-out axis, not
        one block per chunk, so the peak stays near six blocks (a block per
        chunk would be sixteen)."""
        psi = random_pure_state(TensorSpace((2,) * 12), np.random.default_rng(3))
        d_keep = 2**8
        tracemalloc.start()
        try:
            partial_trace(psi, Neighborhood(tuple(range(2, 10))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * d_keep**2


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
            oracle = embed_oracle(op.block, space.dims, op.neighborhood.indices)
            assert np.array_equal(full, oracle)
            # Bits too: every zero off the block is +0.0, as in the oracle.
            assert full.tobytes() == (oracle + 0.0).tobytes()
            assert full.flags.c_contiguous

    def test_embed_holds_one_dense_matrix(self):
        space = qubit_space(10)
        op = QLOperator(Neighborhood((3, 4, 5)), np.ones((8, 8)))
        tracemalloc.start()
        try:
            embed(op, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * space.dim**2

    def test_embed_sum_has_the_bits_of_the_embedded_sum(self):
        # Repeated and nested neighborhoods, and blocks holding signed
        # zeros: each entry gets the additions of the oracle-embedded sum,
        # in the same order, from the same +0.0 start.
        rng = np.random.default_rng(47)
        space = TensorSpace((2, 3, 2))
        ops = []
        for hood in [(0, 2), (1,), (0, 2), (0, 1, 2), (2,)]:
            d = math.prod(space.dims[a] for a in hood)
            block = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            block[rng.random((d, d)) < 0.3] = complex(-0.0, -0.0)
            block.real[rng.random((d, d)) < 0.2] = -0.0
            ops.append(QLOperator(Neighborhood(hood), block))
        total = np.zeros((space.dim, space.dim), dtype=complex)
        for op in ops:
            total += embed_oracle(op.block, space.dims, op.neighborhood.indices)
        assert embed_sum(ops, space).tobytes() == total.tobytes()
        assert not embed_sum([], space).any()

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

    def test_rejects_nan_unitary(self):
        psi = basis_state(qubit_space(1), 0)
        with pytest.raises(ValueError, match="subsystem 0 is not unitary"):
            apply_local_unitary(psi, [np.array([[math.nan, 0], [0, 1]])])


class TestCheckHermitian:
    def test_bound_is_inclusive_and_a_nan_fails(self):
        mat = np.array([[0.0, 1e-9], [0.0, 0.0]])
        check_hermitian(mat, 1e-9, "block")
        with pytest.raises(ValueError, match=r"^block is not Hermitian \(asymmetry"):
            check_hermitian(mat, 5e-10, "block")
        nan = np.diag([math.nan, 0.0])
        with pytest.raises(ArithmeticError, match=r"\(asymmetry nan\)$"):
            check_hermitian(nan, math.inf, "block", ArithmeticError)
