"""Stabilizability verdicts, parent Hamiltonians, frustration-freeness, factoring."""

import math

import numpy as np
import pytest

from qlstab import analysis, synthesis
from qlstab.analysis import (
    check_dqls,
    factorize_pure_state,
    is_frustration_free,
    parent_hamiltonian,
)
from qlstab.subspaces import (
    NumericalRankWarning,
    Subspace,
    equals,
    intersect,
    projector,
    span,
    support,
)
from qlstab.tensor import (
    CoverageWarning,
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
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
    random_pure_state,
)

from oracles import haar_unitary

SZ = np.diag([1.0, -1.0]).astype(complex)


def pattern_of(space, hoods):
    return LocalityPattern(space, tuple(Neighborhood(h) for h in hoods))


def dicke_pattern():
    psi = make_dicke_4_2()
    return psi, pattern_of(psi.space, [(0, 1, 2), (1, 2, 3)])


class TestCheckDqls:
    def test_ghz3_fails_with_pair_neighborhoods(self):
        ghz = make_ghz(3)
        report = check_dqls(ghz, pattern_of(ghz.space, [(0, 1), (1, 2)]))
        assert not report.verdict
        assert report.intersection_dim == 2
        expected = np.zeros((8, 2), dtype=complex)
        expected[0, 0] = expected[7, 1] = 1.0
        assert equals(report.intersection, Subspace(8, expected))

    def test_w4_fails_with_sliding_neighborhoods(self):
        w = make_w(4)
        report = check_dqls(w, pattern_of(w.space, [(0, 1, 2), (1, 2, 3)]))
        assert not report.verdict
        # The intersection keeps both the all-zeros state and the target.
        assert report.intersection.contains(basis_state(w.space, 0).amplitudes)
        assert report.intersection.contains(w.amplitudes)

    def test_dicke_passes(self):
        psi, pattern = dicke_pattern()
        report = check_dqls(psi, pattern)
        assert report.verdict
        assert report.intersection_dim == 1
        assert equals(report.intersection, span(psi.amplitudes))

    def test_product_state_with_singletons(self):
        psi = basis_state(qubit_space(4), 0)
        report = check_dqls(psi, pattern_of(psi.space, [(0,), (1,), (2,), (3,)]))
        assert report.verdict

    def test_single_full_neighborhood_always_passes(self):
        rng = np.random.default_rng(0)
        psi = random_pure_state(TensorSpace((2, 3, 2)), rng)
        report = check_dqls(psi, pattern_of(psi.space, [(0, 1, 2)]))
        assert report.verdict
        assert report.intersection_dim == 1

    def test_linear_cluster_state_passes(self):
        cluster = make_graph_state(4, [(0, 1), (1, 2), (2, 3)])
        pattern = pattern_of(cluster.space, [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)])
        report = check_dqls(cluster, pattern)
        assert report.verdict
        assert report.intersection_dim == 1

    def test_space_mismatch_rejected(self):
        psi = make_ghz(2)
        with pytest.warns(UserWarning):
            pattern = pattern_of(qubit_space(3), [(0, 1)])
        with pytest.raises(DimensionMismatchError):
            check_dqls(psi, pattern)

    def test_report_carries_per_neighborhood_data(self):
        psi, pattern = dicke_pattern()
        report = check_dqls(psi, pattern)
        assert len(report.per_neighborhood) == 2
        for item in report.per_neighborhood:
            assert item.support.dim == 2
            assert item.reduced_state.space.dim == 8

    def test_uncovered_pattern_is_reported(self):
        ghz = make_ghz(3)
        with pytest.warns(UserWarning):
            pattern = pattern_of(ghz.space, [(0, 1)])
        report = check_dqls(ghz, pattern)
        assert not report.verdict
        assert any("uncovered" in w for w in report.warnings)

    def test_target_always_inside_intersection(self):
        import warnings as _warnings

        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            space = qubit_space(n)
            psi = random_pure_state(space, rng)
            hoods = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, n + 1))
                hoods.append(
                    tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                )
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", CoverageWarning)
                report = check_dqls(psi, pattern_of(space, hoods))
            assert report.intersection.contains(psi.amplitudes, tol=1e-8)


def _oracle_fixtures():
    import warnings as _warnings

    cases = []
    for n in range(3, 7):
        ghz = make_ghz(n)
        cases.append((f"ghz{n}", ghz, [(i, i + 1) for i in range(n - 1)]))
    cases.append(("w5", make_w(5), [(0, 1, 2, 3), (1, 2, 3, 4)]))
    cases.append(("dicke", make_dicke_4_2(), [(0, 1, 2), (1, 2, 3)]))
    chain = [(i, i + 1) for i in range(4)]
    cases.append(
        (
            "cluster5",
            make_graph_state(5, chain),
            [(i, i + 1, i + 2) for i in range(3)],
        )
    )
    cases.append(
        (
            "ring5",
            make_graph_state(5, chain + [(4, 0)]),
            [tuple(sorted({(i - 1) % 5, i, (i + 1) % 5})) for i in range(5)],
        )
    )
    rng = np.random.default_rng(11)
    mixed = random_pure_state(TensorSpace((3, 2, 3)), rng)
    cases.append(("qutrit_qubit", mixed, [(0, 1), (1, 2)]))
    left = random_pure_state(TensorSpace((3, 2)), rng).amplitudes
    right = random_pure_state(TensorSpace((2, 3)), rng).amplitudes
    pairs = PureState(TensorSpace((3, 2, 2, 3)), np.kron(left, right))
    cases.append(("qutrit_pairs", pairs, [(0, 1), (1, 2), (2, 3)]))
    for k in range(4):
        n = int(rng.integers(3, 6))
        hole = int(rng.integers(n))
        others = [a for a in range(n) if a != hole]
        hoods = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, len(others) + 1))
            picked = rng.choice(others, size, replace=False)
            hoods.append(tuple(sorted(picked.tolist())))
        cases.append((f"uncovered{k}", random_pure_state(qubit_space(n), rng), hoods))
    out = []
    for name, psi, hoods in cases:
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", CoverageWarning)
            out.append(pytest.param(psi, pattern_of(psi.space, hoods), id=name))
    return out


class TestDenseOracleAgreement:
    """check_dqls against the explicit embedded-frame intersection route."""

    @pytest.mark.parametrize("psi, pattern", _oracle_fixtures())
    def test_matches_embedded_frame_intersection(self, psi, pattern):
        rho = psi.density_matrix()
        embedded = [
            Subspace(
                psi.space.dim,
                embed_frame(
                    support(partial_trace(rho, hood)).frame, hood, psi.space
                ),
            )
            for hood in pattern.neighborhoods
        ]
        oracle = intersect(embedded)
        oracle_verdict = oracle.dim == 1 and equals(oracle, span(psi.amplitudes))

        report = check_dqls(psi, pattern)
        assert report.verdict == oracle_verdict
        assert report.intersection_dim == oracle.dim
        np.testing.assert_allclose(
            projector(report.intersection), projector(oracle), atol=1e-9
        )
        assert parent_hamiltonian(psi, pattern).kernel().dim == report.intersection_dim
        if pattern.uncovered():
            assert any("uncovered" in w for w in report.warnings)


def _cluster5():
    return make_graph_state(5, [(i, i + 1) for i in range(4)])


class TestPureTargetPipeline:
    """The pipeline traces the target vector itself and embeds each term once."""

    @pytest.mark.parametrize(
        "psi, hoods",
        [
            pytest.param(make_ghz(5), [(1, 2, 3), (0, 4)], id="ghz5"),
            pytest.param(_cluster5(), [(0, 1, 2), (1, 3, 4)], id="cluster5"),
            pytest.param(
                random_pure_state(TensorSpace((3, 2, 3, 2)), np.random.default_rng(13)),
                [(0, 1), (0, 2), (1, 2, 3)],
                id="qutrit_qubit",
            ),
        ],
    )
    def test_partial_trace_of_vector_matches_density_matrix(self, psi, hoods):
        rho = psi.density_matrix()
        for hood in map(Neighborhood, hoods):
            assert np.array_equal(
                partial_trace(psi, hood).matrix, partial_trace(rho, hood).matrix
            )

    def test_each_neighborhood_embedded_once(self, monkeypatch):
        calls = []

        def counting_embed(op, space):
            calls.append(op.neighborhood)
            return embed(op, space)

        monkeypatch.setattr(analysis, "embed", counting_embed)
        monkeypatch.setattr(synthesis, "embed", counting_embed, raising=False)
        psi = _cluster5()
        pattern = pattern_of(psi.space, [(i, i + 1, i + 2) for i in range(3)])
        check_dqls(psi, pattern)
        assert calls == list(pattern.neighborhoods)
        calls.clear()
        synthesis.synthesize_stabilizers(psi, pattern)
        assert calls == list(pattern.neighborhoods)

    def test_no_full_space_density_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("built the D x D density matrix of a pure target")

        monkeypatch.setattr(PureState, "density_matrix", refuse)
        psi, pattern = dicke_pattern()
        assert check_dqls(psi, pattern).verdict
        assert parent_hamiltonian(psi, pattern).kernel().dim == 1
        assert len(synthesis.synthesize_stabilizers(psi, pattern).operators) == 2


class TestTieBreaking:
    def test_borderline_rank_downgrades_verdict(self):
        import warnings as _warnings

        # A Schmidt weight of 5e-9 sits inside the audit band around the
        # 1e-10 relative support cutoff: the full neighborhood alone proves
        # the state stabilizable, but the singleton rank calls are
        # borderline, so the verdict resolves conservatively to false.
        amps = np.zeros(4, dtype=complex)
        amps[0] = math.sqrt(1 - 5e-9)
        amps[3] = math.sqrt(5e-9)
        psi = PureState(qubit_space(2), amps)
        pattern = pattern_of(psi.space, [(0, 1), (0,), (1,)])
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            report = check_dqls(psi, pattern)
        assert not report.verdict
        assert report.intersection_dim == 1
        assert any("downgraded" in w for w in report.warnings)
        assert any("borderline" in w for w in report.warnings)
        assert report.borderline

    def test_clean_instance_has_no_borderline_warnings(self):
        psi, pattern = dicke_pattern()
        report = check_dqls(psi, pattern)
        assert not any("borderline" in w for w in report.warnings)
        assert not report.borderline


def _borderline_two_qubit():
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(1 - 5e-9)
    amps[3] = math.sqrt(5e-9)
    psi = PureState(qubit_space(2), amps)
    return psi, pattern_of(psi.space, [(0, 1), (0,), (1,)])


class TestBorderlineNotesAsData:
    """Borderline rank calls reach DqlsReport, ParentHamiltonian and
    StabilizerSet as returned notes without process-global warning capture;
    the public support-level functions still warn."""

    def test_no_warning_capture_in_check_dqls(self, monkeypatch):
        import warnings as _warnings

        def refuse(*args, **kwargs):
            raise AssertionError("warnings.catch_warnings was called")

        psi, pattern = _borderline_two_qubit()
        with monkeypatch.context() as m:
            m.setattr(_warnings, "catch_warnings", refuse)
            report = check_dqls(psi, pattern)
            forced = synthesis.synthesize_stabilizers(psi, pattern, force=True)
        assert report.borderline
        assert not report.verdict
        # The support notes, in neighborhood order, then the downgrade.
        with pytest.warns(NumericalRankWarning) as rec:
            for hood in ((0,), (1,)):
                support(partial_trace(psi, Neighborhood(hood)))
        expected = [f"borderline rank decision: {w.message}" for w in rec]
        assert len(expected) == 2
        assert list(report.warnings[:2]) == expected
        assert len(report.warnings) == 3
        assert report.warnings[2].startswith("verdict downgraded to false")
        assert len(forced.operators) == 3
        # Both singleton supports fill their qubit, so each adds a
        # degenerate-neighborhood note after the report's own.
        assert forced.warnings == report.warnings + tuple(
            f"neighborhood {hood}: reduced support fills the whole factor; "
            "contributing the zero operator"
            for hood in ((0,), (1,))
        )

    def test_public_functions_still_warn(self):
        psi, pattern = _borderline_two_qubit()
        # parent_hamiltonian returns its support notes instead of warning.
        ham = parent_hamiltonian(psi, pattern)
        with pytest.warns(NumericalRankWarning) as rec:
            for hood in ((0,), (1,)):
                support(partial_trace(psi, Neighborhood(hood)))
        assert ham.warnings == tuple(str(w.message) for w in rec)
        assert all("support rank decision" in w for w in ham.warnings)
        # Two lines at angle theta: the smallest eigenvalue of the summed
        # complement projectors, 1 - cos(theta) ~ 1e-7, sits just above the
        # 1e-8 intersection cutoff.
        theta = math.sqrt(2e-7)
        lines = [span(np.array([1.0, 0.0])),
                 span(np.array([math.cos(theta), math.sin(theta)]))]
        with pytest.warns(NumericalRankWarning, match="intersection rank decision"):
            assert intersect(lines).dim == 0


class TestLocalUnitaryInvariance:
    def test_verdicts_survive_local_rotations(self):
        rng = np.random.default_rng(2)
        fixtures = []
        ghz = make_ghz(3)
        fixtures.append((ghz, pattern_of(ghz.space, [(0, 1), (1, 2)])))
        psi, pattern = dicke_pattern()
        fixtures.append((psi, pattern))
        cluster = make_graph_state(4, [(0, 1), (1, 2), (2, 3)])
        fixtures.append(
            (cluster, pattern_of(cluster.space, [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)]))
        )
        for state, pat in fixtures:
            base = check_dqls(state, pat).verdict
            for _ in range(8):
                locals_ = [haar_unitary(2, rng) for _ in range(state.space.n_subsystems)]
                rotated = apply_local_unitary(state, locals_)
                assert check_dqls(rotated, pat).verdict == base


class TestMonotonicity:
    def test_enlarging_a_neighborhood_preserves_true(self):
        psi, _ = dicke_pattern()
        grown = pattern_of(psi.space, [(0, 1, 2, 3), (1, 2, 3)])
        assert check_dqls(psi, grown).verdict

    def test_enlarging_random_true_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            psi = random_pure_state(qubit_space(3), rng)
            base = pattern_of(psi.space, [(0, 1, 2)])
            assert check_dqls(psi, base).verdict
            richer = pattern_of(psi.space, [(0, 1, 2), (0, 1), (1, 2)])
            # Adding neighborhoods only shrinks the intersection toward the
            # target, never away from it.
            assert check_dqls(psi, richer).verdict == check_dqls(psi, base).verdict


class TestParentHamiltonian:
    def test_dicke_kernel_is_target_span(self):
        psi, pattern = dicke_pattern()
        ham = parent_hamiltonian(psi, pattern)
        evals, evecs = np.linalg.eigh(ham.total)
        kernel_dim = int(np.sum(evals < 1e-8))
        assert kernel_dim == 1
        assert abs(abs(np.vdot(evecs[:, 0], psi.amplitudes)) - 1.0) < 1e-8

    def test_ghz3_kernel_dimension_two(self):
        ghz = make_ghz(3)
        ham = parent_hamiltonian(ghz, pattern_of(ghz.space, [(0, 1), (1, 2)]))
        evals = np.linalg.eigvalsh(ham.total)
        assert int(np.sum(evals < 1e-8)) == 2

    def test_full_neighborhood_gives_rank_one_projector(self):
        rng = np.random.default_rng(4)
        psi = random_pure_state(qubit_space(2), rng)
        ham = parent_hamiltonian(psi, pattern_of(psi.space, [(0, 1)]))
        expected = np.eye(4) - np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(ham.total, expected, atol=1e-10)

    def test_terms_are_projectors_and_annihilate_target(self):
        psi, pattern = dicke_pattern()
        ham = parent_hamiltonian(psi, pattern)
        for term in ham.terms:
            np.testing.assert_allclose(
                term.block @ term.block, term.block, atol=1e-9
            )
            np.testing.assert_allclose(term.block, term.block.conj().T, atol=1e-12)
            full = embed(term, psi.space)
            assert np.linalg.norm(full @ psi.amplitudes) < 1e-8

    def test_kernel_method_matches_eigensolve(self):
        psi, pattern = dicke_pattern()
        ham = parent_hamiltonian(psi, pattern)
        assert ham.kernel().dim == 1


class TestFrustrationFree:
    def test_parent_hamiltonian_is_frustration_free(self):
        psi, pattern = dicke_pattern()
        ham = parent_hamiltonian(psi, pattern)
        assert is_frustration_free(psi, ham.terms)

    def test_sigma_z_cases(self):
        zero = basis_state(qubit_space(1), 0)
        one = basis_state(qubit_space(1), 1)
        term = QLOperator(Neighborhood((0,)), SZ)
        # <1|sz|1> = -1 equals the minimum; <0|sz|0> = +1 does not.
        assert is_frustration_free(one, [term])
        assert not is_frustration_free(zero, [term])

    def test_random_hermitian_terms_against_dense_minimum(self):
        rng = np.random.default_rng(5)
        space = qubit_space(3)
        psi = random_pure_state(space, rng)
        for _ in range(10):
            size = int(rng.integers(1, 3))
            hood = tuple(sorted(rng.choice(3, size=size, replace=False).tolist()))
            d = 2 ** len(hood)
            raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            herm = (raw + raw.conj().T) / 2
            term = QLOperator(Neighborhood(hood), herm)
            full = embed(term, space)
            expectation = np.real(np.vdot(psi.amplitudes, full @ psi.amplitudes))
            lam_min = np.linalg.eigvalsh(full)[0]
            expected = abs(expectation - lam_min) <= 1e-8
            assert is_frustration_free(psi, [term]) == expected

    def test_non_hermitian_term_rejected(self):
        psi = basis_state(qubit_space(1), 0)
        with pytest.raises(ValueError):
            is_frustration_free(psi, [QLOperator(Neighborhood((0,)), np.array([[0, 1], [0, 0]]))])


class TestFactorization:
    def test_product_basis_state_splits_completely(self):
        psi = basis_state(qubit_space(2), 1)  # |01>
        factors = factorize_pure_state(psi)
        assert [idx for idx, _ in factors] == [(0,), (1,)]
        np.testing.assert_allclose(np.abs(factors[0][1].amplitudes), [1, 0])
        np.testing.assert_allclose(np.abs(factors[1][1].amplitudes), [0, 1])

    def test_ghz_is_one_block(self):
        factors = factorize_pure_state(make_ghz(3))
        assert [idx for idx, _ in factors] == [(0, 1, 2)]

    def test_bell_times_zero(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        amps = np.kron(bell, np.array([1.0, 0.0]))
        psi = PureState(qubit_space(3), amps)
        factors = factorize_pure_state(psi)
        assert [idx for idx, _ in factors] == [(0, 1), (2,)]
        np.testing.assert_allclose(
            np.abs(factors[0][1].amplitudes), np.abs(bell), atol=1e-12
        )

    def test_purity_of_marginals_oracle(self):
        # Every returned factor must have a pure marginal, and unions of
        # partial factors must not (checked on an entangled-pair product).
        rng = np.random.default_rng(6)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        single /= np.linalg.norm(single)
        psi = PureState(qubit_space(3), np.kron(single, bell))
        factors = factorize_pure_state(psi)
        assert [idx for idx, _ in factors] == [(0,), (1, 2)]

    def test_reconstruction_up_to_phase(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b /= np.linalg.norm(b)
        psi = PureState(qubit_space(3), np.kron(a, b))
        factors = factorize_pure_state(psi)
        rebuilt = np.array([1.0 + 0j])
        for _, factor in factors:
            rebuilt = np.kron(rebuilt, factor.amplitudes)
        assert abs(abs(np.vdot(rebuilt, psi.amplitudes)) - 1.0) < 1e-10

    def test_non_contiguous_factors_without_density_matrix(self, monkeypatch):
        rng = np.random.default_rng(8)
        pair = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        trits = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pair /= np.linalg.norm(pair)
        trits /= np.linalg.norm(trits)
        amps = np.einsum("ik,jl->ijkl", pair, trits).reshape(-1)
        psi = PureState(TensorSpace((2, 3, 2, 3)), amps)
        rho = psi.density_matrix()

        def refuse(self):
            raise AssertionError("built the D x D density matrix of a pure target")

        monkeypatch.setattr(PureState, "density_matrix", refuse)
        factors = factorize_pure_state(psi)
        assert [idx for idx, _ in factors] == [(0, 2), (1, 3)]
        for (idx, factor), block in zip(factors, (pair, trits)):
            assert abs(abs(np.vdot(factor.amplitudes, block.reshape(-1))) - 1) < 1e-12
            np.testing.assert_allclose(
                np.outer(factor.amplitudes, factor.amplitudes.conj()),
                partial_trace(rho, Neighborhood(idx)).matrix,
                atol=1e-12,
            )

    def test_two_entangled_blocks(self):
        ghz = make_ghz(2).amplitudes
        bell = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        psi = PureState(qubit_space(4), np.kron(ghz, bell))
        factors = factorize_pure_state(psi)
        assert [idx for idx, _ in factors] == [(0, 1), (2, 3)]
        for _, factor in factors:
            assert factor.space.dim == 4
