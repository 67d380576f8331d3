"""Stabilizability verdicts, parent Hamiltonians, frustration-freeness, factoring."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlstab import analysis, instances, synthesis
from qlstab.analysis import (
    check_dqls,
    is_frustration_free,
    parent_hamiltonian,
)
from qlstab.subspaces import (
    INTERSECT_TOL,
    ORTH_TOL,
    Subspace,
    borderline_notes,
    equals,
    intersect,
    projector,
    support,
)
from qlstab.tensor import (
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    apply_local_unitary,
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

from oracles import (
    basis_state,
    haar_unitary,
    operator_file_oracle,
    parent_total_oracle,
    partial_trace_oracle,
    random_mps,
    residual_oracle,
)

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
        assert equals(report.intersection, Subspace(expected))

    def test_w4_fails_with_sliding_neighborhoods(self):
        w = make_w(4)
        report = check_dqls(w, pattern_of(w.space, [(0, 1, 2), (1, 2, 3)]))
        assert not report.verdict
        # The intersection keeps both the all-zeros state and the target.
        zeros = basis_state(w.space, 0).amplitudes
        assert residual_oracle(report.intersection, zeros) <= ORTH_TOL
        assert residual_oracle(report.intersection, w.amplitudes) <= ORTH_TOL

    def test_dicke_passes(self):
        psi, pattern = dicke_pattern()
        report = check_dqls(psi, pattern)
        assert report.verdict
        assert report.intersection_dim == 1
        target = Subspace(psi.amplitudes.reshape(-1, 1))
        assert equals(report.intersection, target)

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
        pattern = pattern_of(qubit_space(3), [(0, 1)])
        with pytest.raises(DimensionMismatchError):
            check_dqls(psi, pattern)

    def test_report_carries_per_neighborhood_data(self):
        psi, pattern = dicke_pattern()
        report = check_dqls(psi, pattern)
        assert len(report.supports) == 2
        for sub in report.supports:
            assert sub.dim == 2
            assert sub.ambient_dim == 8

    def test_uncovered_pattern_is_reported(self):
        ghz = make_ghz(3)
        pattern = pattern_of(ghz.space, [(0, 1)])
        assert pattern.uncovered() == (2,)
        report = check_dqls(ghz, pattern)
        assert not report.verdict
        note = "uncovered subsystems [2]: no neighborhood acts on them"
        assert report.warnings == (note,)
        # The same note, first, in the parent Hamiltonian; it is not a rank
        # call, so it never makes the verdict borderline.
        assert parent_hamiltonian(ghz, pattern).warnings == (note,)
        assert not report.borderline

    def test_target_always_inside_intersection(self):
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
            report = check_dqls(psi, pattern_of(space, hoods))
            assert residual_oracle(report.intersection, psi.amplitudes) <= 1e-8


def dense_intersection(psi, pattern):
    """The dense route: embedded support frames intersected by ``intersect``."""
    rho = psi.density_matrix()
    embedded = [
        Subspace(
            embed_frame(
                support(partial_trace_oracle(rho, hood.indices))[0].frame,
                hood,
                psi.space,
            )
        )
        for hood in pattern.neighborhoods
    ]
    oracle, _ = intersect(embedded)
    target = Subspace(psi.amplitudes.reshape(-1, 1))
    return oracle, oracle.dim == 1 and equals(oracle, target)


def _oracle_fixtures():
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
    chain8 = [(i, i + 1) for i in range(7)]
    cases.append(
        ("cluster8", make_graph_state(8, chain8), [(i, i + 1, i + 2) for i in range(6)])
    )
    cases.append(("ghz8_pairs", make_ghz(8), chain8))
    cases.append(("w8", make_w(8), [tuple(range(7)), tuple(range(1, 8))]))
    mps6 = random_mps((3,) * 6, 2, np.random.default_rng(17))
    cases.append(("qutrit_mps6", mps6, [(i, i + 1, i + 2) for i in range(4)]))
    # Non-contiguous neighborhoods: the sweep's frame spans subsystems that
    # are not adjacent until the last neighborhood joins them.
    interleaved = [(0, 4), (1, 5), (2, 6), (3, 7), (0, 1, 2, 3)]
    cases.append(("interleaved_ghz8", make_ghz(8), interleaved))
    bell = np.zeros((2, 2), dtype=complex)
    bell[0, 0] = bell[1, 1] = 1 / math.sqrt(2)
    # Bell pairs on (0, 4), (1, 5), (2, 6), (3, 7).
    bells = np.einsum("ae,bf,cg,dh->abcdefgh", bell, bell, bell, bell)
    cases.append(
        ("interleaved_bells8", PureState(qubit_space(8), bells.reshape(-1)), interleaved)
    )
    full = random_pure_state(qubit_space(4), rng)
    cases.append(("full_supports", full, [(0, 1), (2, 3), (1, 2)]))
    cases.append(
        ("duplicated", make_dicke_4_2(), [(0, 1, 2), (1, 2, 3), (0, 1, 2)])
    )
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
    return [
        pytest.param(psi, pattern_of(psi.space, hoods), id=name)
        for name, psi, hoods in cases
    ]


class TestDenseOracleAgreement:
    """check_dqls against the explicit embedded-frame intersection route."""

    @pytest.mark.parametrize("psi, pattern", _oracle_fixtures())
    def test_matches_embedded_frame_intersection(self, psi, pattern, tmp_path):
        oracle, oracle_verdict = dense_intersection(psi, pattern)
        report = check_dqls(psi, pattern)
        assert report.verdict == oracle_verdict
        assert report.intersection_dim == oracle.dim
        np.testing.assert_allclose(
            projector(report.intersection), projector(oracle), atol=1e-9
        )
        ham = parent_hamiltonian(psi, pattern)
        np.testing.assert_allclose(
            projector(ham.kernel()), projector(oracle), atol=1e-9
        )
        # The dense eigendecomposition of the parent Hamiltonian agrees too,
        # and parent_total.json holds that dense sum byte for byte.
        total = parent_total_oracle(ham)
        dense_kernel = np.linalg.eigvalsh(total) < INTERSECT_TOL
        assert int(np.sum(dense_kernel)) == oracle.dim
        instances.write_parent_hamiltonian(tmp_path, ham.space, ham.terms)
        meta = {"kind": "parent_hamiltonian_total", "dims": list(psi.space.dims)}
        written = (tmp_path / "parent_total.json").read_text()
        assert written == operator_file_oracle(total, meta)
        if pattern.uncovered():
            assert any("uncovered" in w for w in report.warnings)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_random_mixed_dimension_patterns(self, data):
        dims = tuple(data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5)))
        n = len(dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            psi = random_mps(dims, 2, rng)
        else:
            psi = random_pure_state(TensorSpace(dims), rng)
        hood = st.sets(st.integers(0, n - 1), min_size=1).map(lambda h: tuple(sorted(h)))
        pattern = pattern_of(psi.space, data.draw(st.lists(hood, min_size=1, max_size=4)))
        oracle, oracle_verdict = dense_intersection(psi, pattern)
        report = check_dqls(psi, pattern)
        assert report.verdict == oracle_verdict
        assert report.intersection_dim == oracle.dim
        np.testing.assert_allclose(
            projector(report.intersection), projector(oracle), atol=1e-9
        )


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
                partial_trace(psi, hood).matrix,
                partial_trace_oracle(rho, hood.indices).matrix,
            )

    def test_each_neighborhood_embedded_once(self, monkeypatch, tmp_path):
        """The verdict, parent-Hamiltonian and synthesis paths embed nothing
        and diagonalize no ambient-size matrix; the writer of
        parent_total.json embeds nothing either, as it sums the terms in
        place."""
        calls = []
        sizes = []
        eigh = np.linalg.eigh

        def counting_embed(op, space):
            calls.append(op.neighborhood)
            return embed(op, space)

        def sized_eigh(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(analysis, "embed", counting_embed, raising=False)
        monkeypatch.setattr(synthesis, "embed", counting_embed, raising=False)
        monkeypatch.setattr(instances, "embed", counting_embed, raising=False)
        monkeypatch.setattr(np.linalg, "eigh", sized_eigh)
        psi = _cluster5()
        pattern = pattern_of(psi.space, [(i, i + 1, i + 2) for i in range(3)])
        check_dqls(psi, pattern)
        synthesis.synthesize_stabilizers(psi, pattern)
        ham = parent_hamiltonian(psi, pattern)
        ham.kernel()
        assert is_frustration_free(psi, ham.terms)
        assert calls == []
        assert sizes and max(sizes) < psi.space.dim
        instances.write_parent_hamiltonian(tmp_path, ham.space, ham.terms)
        assert calls == []

    def test_no_full_space_density_matrix(self, monkeypatch):
        """Neither |psi><psi| nor any other outer product is formed: the
        reduced states come from the amplitudes."""

        def refuse(*args, **kwargs):
            raise AssertionError("built the D x D density matrix of a pure target")

        ring6 = make_graph_state(6, [(i, (i + 1) % 6) for i in range(6)])
        cases = [
            (make_dicke_4_2(), [(0, 1, 2), (1, 2, 3)], 1),
            (ring6, [sorted({(i - 1) % 6, i, (i + 1) % 6}) for i in range(6)], 1),
            (random_mps((3,) * 5, 2, np.random.default_rng(4)),
             [(i, i + 1, i + 2) for i in range(3)], 1),
            (make_ghz(5), [(i, i + 1) for i in range(4)], 2),
        ]
        monkeypatch.setattr(PureState, "density_matrix", refuse)
        monkeypatch.setattr(np, "outer", refuse)
        for psi, hoods, kernel_dim in cases:
            pattern = pattern_of(psi.space, hoods)
            assert check_dqls(psi, pattern).intersection_dim == kernel_dim
            assert parent_hamiltonian(psi, pattern).kernel().dim == kernel_dim
            stabilizers = synthesis.synthesize_stabilizers(psi, pattern, force=True)
            assert len(stabilizers.operators) == len(hoods)

    @pytest.mark.parametrize("n", [9, 10])
    def test_wide_windows_hold_about_six_hood_arrays(self, n):
        """On W(n) with its two (n-1)-site windows, check_dqls peaks at about
        six complex d_hood x d_hood arrays, in the first sweep step's Gram
        product: the two terms, the identity the step widens to, its
        conjugate, the applied block and the Gram matrix. The step frees all
        but the Gram matrix before its Hermitian part and eigh."""
        psi = make_w(n)
        windows = [tuple(range(n - 1)), tuple(range(1, n))]
        pattern = pattern_of(psi.space, windows)
        d_hood = 2 ** (n - 1)
        tracemalloc.start()
        try:
            report = check_dqls(psi, pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.verdict and report.intersection_dim == 2
        assert peak <= 6.2 * 16 * d_hood**2


class TestSweepDiagnostics:
    def test_cluster5_basis_is_the_target(self):
        psi = _cluster5()
        pattern = pattern_of(psi.space, [(i, i + 1, i + 2) for i in range(3)])
        basis = check_dqls(psi, pattern).intersection.frame[:, 0]
        assert abs(np.vdot(psi.amplitudes, basis) - 1.0) < 1e-12

    def test_phase_anchor_ignores_roundoff(self):
        # Every cluster amplitude has the same magnitude; the anchor must not
        # follow 1e-15 noise to an entry of the other sign.
        psi = _cluster5().amplitudes
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        np.testing.assert_allclose(
            analysis._fix_phase(-psi + 1e-15 * noise),
            analysis._fix_phase(psi),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "psi, hoods",
        [
            pytest.param(make_dicke_4_2(), [(0, 1, 2), (1, 2, 3)], id="dicke"),
            pytest.param(_cluster5(), [(i, i + 1, i + 2) for i in range(3)], id="cluster5"),
            pytest.param(
                random_mps((3,) * 5, 2, np.random.default_rng(5)),
                [(i, i + 1, i + 2) for i in range(3)],
                id="mps5",
            ),
        ],
    )
    def test_margins_clear_the_cutoff(self, psi, hoods):
        margins = check_dqls(psi, pattern_of(psi.space, hoods)).margins
        assert len(margins) == len(hoods)
        assert min(margins) >= 0.5

    def test_repeated_neighborhood_rejects_nothing(self):
        psi, _ = dicke_pattern()
        pattern = pattern_of(psi.space, [(0, 1, 2), (1, 2, 3), (0, 1, 2)])
        margins = check_dqls(psi, pattern).margins
        assert margins[2] == math.inf
        assert min(margins[:2]) >= 0.5


class TestTieBreaking:
    def test_borderline_rank_downgrades_verdict(self):
        # A Schmidt weight of 5e-9 sits inside the audit band around the
        # 1e-10 relative support cutoff: the full neighborhood alone proves
        # the state stabilizable, but the singleton rank calls are
        # borderline, so the verdict resolves conservatively to false.
        amps = np.zeros(4, dtype=complex)
        amps[0] = math.sqrt(1 - 5e-9)
        amps[3] = math.sqrt(5e-9)
        psi = PureState(qubit_space(2), amps)
        pattern = pattern_of(psi.space, [(0, 1), (0,), (1,)])
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
    the public support-level functions return the same notes."""

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
        expected = [
            f"borderline rank decision: {note}"
            for hood in ((0,), (1,))
            for note in support(partial_trace(psi, Neighborhood(hood)))[1]
        ]
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

    def test_public_functions_return_notes(self):
        # The parent Hamiltonian carries check_dqls's notes: the support
        # notes in neighborhood order, then the downgrade.
        psi, pattern = _borderline_two_qubit()
        ham = parent_hamiltonian(psi, pattern)
        notes = [
            f"borderline rank decision: {note}"
            for hood in ((0,), (1,))
            for note in support(partial_trace(psi, Neighborhood(hood)))[1]
        ]
        assert len(notes) == 2
        assert ham.warnings == check_dqls(psi, pattern).warnings
        assert ham.warnings[:2] == tuple(notes)
        assert all("support rank decision" in w for w in ham.warnings[:2])
        assert ham.warnings[2].startswith("verdict downgraded to false")
        # Two lines at angle theta: the smallest eigenvalue of the summed
        # complement projectors, 1 - cos(theta) ~ 1e-7, sits just above the
        # 1e-8 intersection cutoff.
        theta = math.sqrt(2e-7)
        lines = [Subspace(np.array([[1.0], [0.0]])),
                 Subspace(np.array([[math.cos(theta)], [math.sin(theta)]]))]
        sub, notes = intersect(lines)
        assert sub.dim == 0
        assert len(notes) == 1
        assert notes[0].startswith("intersection rank decision is borderline")


    def test_borderline_annihilation_failures_are_notes(self):
        # At rtol 1e-6 the singleton supports drop the 5e-9 weight, so no
        # term annihilates the target; the sweep's Gram eigenvalues sit in
        # the borderline band, so the containment failure is a note. Both
        # builders carry check_dqls's notes and add no annihilation note of
        # their own; the synthesized residuals keep their computed values.
        psi, pattern = _borderline_two_qubit()
        report = check_dqls(psi, pattern, 1e-6)
        ham = parent_hamiltonian(psi, pattern, 1e-6)
        evals = analysis._sweep(psi.space, ham.terms)[1]
        sweep_notes = borderline_notes(evals, INTERSECT_TOL, "intersection")
        assert len(sweep_notes) == 1
        assert ham.warnings == report.warnings
        assert ham.warnings == (
            f"borderline rank decision: {sweep_notes[0]}",
            "intersection failed its containment check: a returned basis "
            "vector sits 7.071e-05 outside an input subspace, after a "
            "borderline rank decision",
            "verdict downgraded to false: a rank decision fell at its "
            "tolerance boundary",
        )
        stabs = synthesis.synthesize_stabilizers(psi, pattern, force=True, rtol=1e-6)
        assert stabs.warnings[:3] == report.warnings
        assert not any("fails to annihilate" in w for w in stabs.warnings)
        for k in (1, 2):
            assert f"{stabs.residuals[k]:.3e}" == "2.121e-04"

    @example(weight_exponent=math.log10(5e-12), hoods=((0,), (1,)))
    @example(weight_exponent=-13.0, hoods=((0, 1), (0,), (1,)))
    @example(weight_exponent=-math.inf, hoods=((0, 1), (0,), (1,)))  # w = 0
    @example(weight_exponent=math.log10(2e-18), hoods=((0, 1), (0,), (1,)))
    @example(weight_exponent=math.log10(5e-17), hoods=((0,), (1,)))
    @example(weight_exponent=-16.0, hoods=((0,), (1,)))
    @given(
        weight_exponent=st.floats(-18.0, -8.0),
        hoods=st.sampled_from([((0,), (1,)), ((0, 1), (0,), (1,))]),
    )
    def test_builders_raise_together(self, weight_exponent, hoods):
        # sqrt(1 - w)|00> + sqrt(w)|11> at the default tolerance: from w = 1e-8
        # down to about 1e-12 each singleton support drops w in a borderline
        # rank call, so every failed check is a note; below that band the drop
        # is no borderline call and the builders raise or pass together,
        # because one analysis decides for all three. The dropped amplitude
        # sqrt(w) crosses ORTH_TOL near w = 1e-18 and ANNIHILATION_TOL at
        # w = 1e-16; the examples pin both crossings and w = 0.
        w = 10.0**weight_exponent
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = math.sqrt(1 - w), math.sqrt(w)
        psi = PureState(qubit_space(2), amps)
        pattern = pattern_of(psi.space, hoods)

        def raises(build):
            try:
                build(psi, pattern)
            except ArithmeticError:
                return True
            return False

        def forced(psi, pattern):
            return synthesis.synthesize_stabilizers(psi, pattern, force=True)

        outcomes = {raises(check_dqls), raises(parent_hamiltonian), raises(forced)}
        assert len(outcomes) == 1


def _draw_mps_and_windows(data):
    """A random bond-2 MPS on n <= 5 subsystems of dimension 2 or 3 with its
    sliding windows of a drawn width; about half such instances pass."""
    dims = tuple(data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5)))
    n = len(dims)
    psi = random_mps(dims, 2, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    width = data.draw(st.integers(1, n))
    return psi, [tuple(range(i, i + width)) for i in range(n - width + 1)]


class TestJointPermutation:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_relabelling_subsystems_keeps_the_report(self, data):
        psi, hoods = _draw_mps_and_windows(data)
        dims = psi.space.dims
        # Subsystem j of the relabelled instance is subsystem perm[j] here.
        perm = data.draw(st.permutations(range(len(dims))))
        space = TensorSpace(tuple(dims[a] for a in perm))
        moved = PureState(space, psi.amplitudes.reshape(dims).transpose(perm).reshape(-1))
        new_index = {old: new for new, old in enumerate(perm)}
        moved_hoods = [tuple(new_index[a] for a in hood) for hood in hoods]
        base = check_dqls(psi, pattern_of(psi.space, hoods))
        relabelled = check_dqls(moved, pattern_of(space, moved_hoods))
        assert relabelled.verdict == base.verdict
        assert relabelled.borderline == base.borderline
        assert relabelled.intersection_dim == base.intersection_dim
        assert [sup.dim for sup in relabelled.supports] == [
            sup.dim for sup in base.supports
        ]


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

    @settings(max_examples=100)
    @given(data=st.data())
    def test_random_local_rotations_keep_the_report(self, data):
        psi, hoods = _draw_mps_and_windows(data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rotated = apply_local_unitary(
            psi, [haar_unitary(d, rng) for d in psi.space.dims]
        )
        pattern = pattern_of(psi.space, hoods)
        base, moved = check_dqls(psi, pattern), check_dqls(rotated, pattern)
        assert moved.verdict == base.verdict
        assert moved.intersection_dim == base.intersection_dim
        assert [sup.dim for sup in moved.supports] == [
            sup.dim for sup in base.supports
        ]


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

    @settings(max_examples=100)
    @given(data=st.data())
    def test_growing_a_neighborhood_never_widens_the_intersection(self, data):
        psi, hoods = _draw_mps_and_windows(data)
        k = data.draw(st.integers(0, len(hoods) - 1))
        extra = data.draw(st.sets(st.integers(0, psi.space.n_subsystems - 1)))
        grown = list(hoods)
        grown[k] = tuple(sorted(set(hoods[k]) | extra))
        base = check_dqls(psi, pattern_of(psi.space, hoods))
        richer = check_dqls(psi, pattern_of(psi.space, grown))
        assume(not base.borderline and not richer.borderline)
        assert richer.intersection_dim <= base.intersection_dim
        assert richer.verdict or not base.verdict


def closed_neighborhoods(n, edges):
    """Each vertex with its graph neighbours, as sorted index tuples."""
    hoods = [{v} for v in range(n)]
    for u, v in edges:
        hoods[u].add(v)
        hoods[v].add(u)
    return [tuple(sorted(h)) for h in hoods]


class TestAnalyticFamilies:
    """Families whose verdicts and intersection dimensions are known in
    closed form, past the sizes of the worked examples. Every neighborhood
    stays small: one global neighborhood at n >= 12 would need a D x D
    reduced state."""

    @pytest.mark.parametrize("n", [12, 14])
    def test_ring_graph_states_pass_with_their_closed_neighborhoods(self, n):
        edges = [(v, (v + 1) % n) for v in range(n)]
        psi = make_graph_state(n, edges)
        report = check_dqls(psi, pattern_of(psi.space, closed_neighborhoods(n, edges)))
        assert report.verdict and not report.borderline
        assert report.intersection_dim == 1

    def test_grid_graph_state_passes_with_its_closed_neighborhoods(self):
        side = 4
        edges = [(r * side + c, r * side + c + 1)
                 for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c)
                  for r in range(side - 1) for c in range(side)]
        psi = make_graph_state(side * side, edges)
        hoods = closed_neighborhoods(side * side, edges)
        report = check_dqls(psi, pattern_of(psi.space, hoods))
        assert report.verdict and not report.borderline
        assert report.intersection_dim == 1

    @pytest.mark.parametrize("n", [10, 14])
    def test_ghz_fails_on_nearest_neighbour_pairs(self, n):
        # |0...0> and |1...1> both lie in every pair's support.
        psi = make_ghz(n)
        report = check_dqls(psi, pattern_of(psi.space, [(i, i + 1) for i in range(n - 1)]))
        assert not report.verdict and not report.borderline
        assert report.intersection_dim == 2

    @pytest.mark.parametrize("n", [8, 10])
    def test_w_fails_on_its_two_largest_windows(self, n):
        # The intersection is span(|0...0>, W_n).
        psi = make_w(n)
        windows = [tuple(range(n - 1)), tuple(range(1, n))]
        report = check_dqls(psi, pattern_of(psi.space, windows))
        assert not report.verdict and not report.borderline
        assert report.intersection_dim == 2

    def test_mixed_dimension_product_state_passes_on_single_sites(self):
        space = TensorSpace((3, 2, 3))
        factors = [np.array([1.0, 2.0, 2.0]) / 3.0, np.array([0.6, 0.8j]),
                   np.array([0.0, 1.0, 0.0])]
        psi = PureState(space, np.kron(np.kron(factors[0], factors[1]), factors[2]))
        report = check_dqls(psi, pattern_of(space, [(0,), (1,), (2,)]))
        assert report.verdict and not report.borderline
        assert report.intersection_dim == 1

    def test_mixed_dimension_ghz_like_state_fails_on_pairs(self):
        # (|0,0,0> + |2,1,2>)/sqrt(2): both branches lie in both pair supports.
        space = TensorSpace((3, 2, 3))
        amps = np.zeros(space.dim, dtype=complex)
        amps[0] = amps[np.ravel_multi_index((2, 1, 2), space.dims)] = 1 / math.sqrt(2)
        report = check_dqls(PureState(space, amps), pattern_of(space, [(0, 1), (1, 2)]))
        assert not report.verdict and not report.borderline
        assert report.intersection_dim == 2


class TestParentHamiltonian:
    def test_dicke_kernel_is_target_span(self):
        psi, pattern = dicke_pattern()
        ham = parent_hamiltonian(psi, pattern)
        evals, evecs = np.linalg.eigh(parent_total_oracle(ham))
        kernel_dim = int(np.sum(evals < 1e-8))
        assert kernel_dim == 1
        assert abs(abs(np.vdot(evecs[:, 0], psi.amplitudes)) - 1.0) < 1e-8

    def test_ghz3_kernel_dimension_two(self):
        ghz = make_ghz(3)
        ham = parent_hamiltonian(ghz, pattern_of(ghz.space, [(0, 1), (1, 2)]))
        evals = np.linalg.eigvalsh(parent_total_oracle(ham))
        assert int(np.sum(evals < 1e-8)) == 2

    def test_full_neighborhood_gives_rank_one_projector(self):
        rng = np.random.default_rng(4)
        psi = random_pure_state(qubit_space(2), rng)
        ham = parent_hamiltonian(psi, pattern_of(psi.space, [(0, 1)]))
        expected = np.eye(4) - np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(parent_total_oracle(ham), expected, atol=1e-10)

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

    def test_nan_term_rejected(self):
        term = QLOperator(Neighborhood((0,)), np.diag([np.nan, 0.0]))
        with pytest.raises(ValueError, match="term 0 is not Hermitian"):
            is_frustration_free(make_ghz(2), [term])

