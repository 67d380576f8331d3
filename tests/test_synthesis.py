"""Noise-operator synthesis: block structure, spectra, residuals."""

import json
import math

import numpy as np
import pytest

from qlstab import synthesis
from qlstab.cli import main
from qlstab.instances import load_instance
from qlstab.dynamics import (
    LindbladGenerator,
    gas_certificate,
    stabilizer_generator,
    vectorize,
)
from qlstab.subspaces import Subspace
from qlstab.synthesis import (
    NotStabilizableError,
    gains_for,
    synthesize_block,
    synthesize_stabilizers,
)
from qlstab.tensor import (
    LocalityPattern,
    Neighborhood,
    TensorSpace,
    embed,
    make_dicke_4_2,
    make_ghz,
    make_graph_state,
    qubit_space,
    random_pure_state,
)

from oracles import basis_state

SZ = np.diag([1.0, -1.0]).astype(complex)


def axis_subspace(ambient, indices):
    frame = np.zeros((ambient, len(indices)), dtype=complex)
    for col, idx in enumerate(indices):
        frame[idx, col] = 1.0
    return Subspace(ambient, frame)


def random_subspace(ambient, dim, rng):
    raw = rng.standard_normal((ambient, dim)) + 1j * rng.standard_normal((ambient, dim))
    return Subspace(ambient, np.linalg.qr(raw)[0])


class TestGainPolicies:
    def test_uniform(self):
        assert gains_for("uniform", 3) == (1.0, 1.0, 1.0)
        assert gains_for("uniform", 2, scale=2.0) == (2.0, 2.0)

    def test_graded(self):
        assert gains_for("graded", 4) == (1.0, 2.0, 3.0, 4.0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            gains_for("steeper", 2)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            gains_for("uniform", 2, scale=0.0)
        for scale in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                gains_for("uniform", 2, scale=scale)

    def test_negative_count(self):
        with pytest.raises(ValueError) as info:
            gains_for("uniform", -1)
        assert str(info.value) == "gain count must be non-negative"


class TestSynthesizeBlock:
    def test_smallest_instance_is_lowering_operator(self):
        block = synthesize_block(axis_subspace(2, [0]), (1.0,))
        np.testing.assert_allclose(block, np.array([[0, 1], [0, 0]]))

    def test_dim_four_shift_chain(self):
        block = synthesize_block(axis_subspace(4, [0]), (1.0, 1.0, 1.0))
        expected = np.diag([1.0, 1.0, 1.0], k=1)
        np.testing.assert_allclose(block, expected)

    def test_gains_land_on_the_chain(self):
        block = synthesize_block(axis_subspace(4, [0, 1]), (5.0, 7.0))
        expected = np.zeros((4, 4))
        expected[1, 2] = 5.0
        expected[2, 3] = 7.0
        np.testing.assert_allclose(block, expected)

    def test_kernel_contains_support(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            ambient = int(rng.integers(2, 9))
            dim = int(rng.integers(1, ambient))
            sub = random_subspace(ambient, dim, rng)
            block = synthesize_block(sub, gains_for("uniform", ambient - dim))
            # Dense kernel via SVD: the support must sit inside it.
            residual = np.linalg.norm(block @ sub.frame)
            assert residual < 1e-10
            _, svals, _ = np.linalg.svd(block)
            assert int(np.sum(svals < 1e-10)) == dim

    def test_rejects_full_support(self):
        with pytest.raises(ValueError):
            synthesize_block(axis_subspace(3, [0, 1, 2]), ())

    def test_rejects_the_zero_subspace(self):
        with pytest.raises(ValueError) as info:
            synthesize_block(Subspace(3, np.zeros((3, 0))), (1.0, 1.0, 1.0))
        assert str(info.value) == "cannot stabilize the zero subspace"

    def test_rejects_zero_gain_and_bad_count(self):
        sub = axis_subspace(3, [0])
        with pytest.raises(ValueError):
            synthesize_block(sub, (1.0, 0.0))
        with pytest.raises(ValueError):
            synthesize_block(sub, (1.0,))

    def test_nilpotent_for_one_dimensional_support(self):
        rng = np.random.default_rng(1)
        ambient = 5
        sub = random_subspace(ambient, 1, rng)
        block = synthesize_block(sub, gains_for("uniform", ambient - 1))
        power = np.eye(ambient)
        for _ in range(ambient - 1):
            power = power @ block
        assert np.linalg.norm(power) > 1e-12
        assert np.linalg.norm(power @ block) < 1e-12

    def test_no_eigenvector_hides_in_the_complement(self):
        # Brute-force invariant-subspace search: every eigenvector of the
        # block must stick out of the complement, otherwise the complement
        # would trap an invariant direction.
        rng = np.random.default_rng(2)
        for _ in range(6):
            ambient = int(rng.integers(2, 9))
            dim = int(rng.integers(1, ambient))
            sub = random_subspace(ambient, dim, rng)
            block = synthesize_block(sub, gains_for("uniform", ambient - dim))
            proj_support = sub.frame @ sub.frame.conj().T
            _, vecs = np.linalg.eig(block)
            for k in range(ambient):
                v = vecs[:, k]
                assert np.linalg.norm(proj_support @ v) > 1e-8

    def test_single_operator_liouvillian_spectrum_law(self):
        # The one-operator vectorized generator is triangular in the
        # synthesis product basis ordered by falling chain position, so its
        # eigenvalues are the diagonal entries -(mu_i + mu_j)/2, where mu are
        # the eigenvalues of D^dag D. Reading the diagonal of the triangular
        # form is exact, unlike eigensolving the (defective) matrix.
        rng = np.random.default_rng(3)
        for _ in range(5):
            ambient = int(rng.integers(2, 7))
            dim = int(rng.integers(1, ambient))
            sub = random_subspace(ambient, dim, rng)
            gains = gains_for("uniform", ambient - dim)
            block = synthesize_block(sub, gains)
            gen = LindbladGenerator(TensorSpace((ambient,)), None, (block,))
            lhat = vectorize(gen)

            from qlstab.subspaces import complete_frame

            basis = complete_frame(sub.frame, ambient)
            w = np.kron(basis.conj(), basis)
            rotated = w.conj().T @ lhat @ w
            # Order product-basis pairs (i, j) by ascending i + j: the chain
            # only moves indices down, so the rotated matrix is upper
            # triangular in this order.
            pairs = [(i, j) for j in range(ambient) for i in range(ambient)]
            order = sorted(range(len(pairs)), key=lambda k: pairs[k][0] + pairs[k][1])
            tri = rotated[np.ix_(order, order)]
            assert np.max(np.abs(np.tril(tri, k=-1))) < 1e-12
            mu = np.zeros(ambient)
            mu[dim:] = np.asarray(gains) ** 2
            law = np.sort(np.array([-(a + b) / 2 for a in mu for b in mu]))
            np.testing.assert_allclose(np.sort(np.diag(tri).real), law, atol=1e-12)
            assert np.max(np.abs(np.diag(tri).imag)) < 1e-12
            # Cross-check mu against a dense eigensolve of D^dag D.
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(block.conj().T @ block)),
                np.sort(mu),
                atol=1e-12,
            )


class TestSynthesizeStabilizers:
    def test_dicke_operators_annihilate_target(self):
        psi = make_dicke_4_2()
        pattern = LocalityPattern(
            psi.space, (Neighborhood((0, 1, 2)), Neighborhood((1, 2, 3)))
        )
        stabs = synthesize_stabilizers(psi, pattern)
        assert len(stabs.operators) == 2
        for op in stabs.operators:
            assert op.block.shape == (8, 8)
            residual = np.linalg.norm(embed(op, psi.space) @ psi.amplitudes)
            assert residual < 1e-10

    def test_nan_residual_fails_the_annihilation_check(self, monkeypatch):
        psi = make_dicke_4_2()
        pattern = LocalityPattern(
            psi.space, (Neighborhood((0, 1, 2)), Neighborhood((1, 2, 3)))
        )
        monkeypatch.setattr(
            synthesis, "synthesize_block", lambda sup, gains: np.full((8, 8), np.nan)
        )
        with pytest.raises(ArithmeticError, match="fails to annihilate"):
            synthesize_stabilizers(psi, pattern)

    def test_product_state_gets_lowering_type_operators(self):
        psi = basis_state(qubit_space(2), 0)
        pattern = LocalityPattern(psi.space, (Neighborhood((0,)), Neighborhood((1,))))
        stabs = synthesize_stabilizers(psi, pattern, gain_scale=1.0)
        for op in stabs.operators:
            np.testing.assert_allclose(op.block, np.array([[0, 1], [0, 0]]), atol=1e-12)

    def test_bell_state_full_neighborhood(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        from qlstab.tensor import PureState

        psi = PureState(qubit_space(2), amps)
        pattern = LocalityPattern(psi.space, (Neighborhood((0, 1)),))
        stabs = synthesize_stabilizers(psi, pattern, gain_scale=1.0)
        (op,) = stabs.operators
        assert op.block.shape == (4, 4)
        assert np.linalg.norm(op.block @ amps) < 1e-10
        _, svals, _ = np.linalg.svd(op.block)
        assert int(np.sum(svals < 1e-10)) == 1

    def test_refuses_non_stabilizable_targets(self):
        ghz = make_ghz(3)
        pattern = LocalityPattern(ghz.space, (Neighborhood((0, 1)), Neighborhood((1, 2))))
        with pytest.raises(NotStabilizableError) as err:
            synthesize_stabilizers(ghz, pattern)
        assert err.value.report is not None
        assert err.value.report.intersection_dim == 2

    def test_force_overrides_refusal(self):
        ghz = make_ghz(3)
        pattern = LocalityPattern(ghz.space, (Neighborhood((0, 1)), Neighborhood((1, 2))))
        stabs = synthesize_stabilizers(ghz, pattern, force=True)
        for op in stabs.operators:
            assert np.linalg.norm(embed(op, ghz.space) @ ghz.amplitudes) < 1e-10

    def test_degenerate_neighborhood_contributes_zero_operator(self):
        rng = np.random.default_rng(4)
        psi = random_pure_state(qubit_space(4), rng)
        pattern = LocalityPattern(
            psi.space, (Neighborhood((0, 1, 2, 3)), Neighborhood((0, 1)))
        )
        # A generic 4-qubit state's reduced state on 2 qubits is full rank
        # (its rank equals the Schmidt rank across the bipartition, which is
        # 4 generically), so that neighborhood has nothing left to damp.
        stabs = synthesize_stabilizers(psi, pattern, gain_scale=1.0)
        assert stabs.warnings == (
            "neighborhood (0, 1): reduced support fills the whole factor; "
            "contributing the zero operator",
        )
        assert np.linalg.norm(stabs.operators[1].block) == 0.0
        assert stabs.gains[1] == ()

    def test_cluster5_certificate_gap_is_pinned(self):
        # The 3-site reduced states of the cluster state have degenerate
        # spectra, so the support frame (and with it every synthesized
        # block) shifts by O(1) under 1e-17 changes to the reduced state;
        # the gap pins the frame that the density-matrix partial trace gives.
        psi = make_graph_state(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        pattern = LocalityPattern(
            psi.space, tuple(Neighborhood((i, i + 1, i + 2)) for i in range(3))
        )
        stabs = synthesize_stabilizers(psi, pattern)
        cert = gas_certificate(stabilizer_generator(stabs.operators, psi.space), psi)
        assert cert.certified
        assert cert.kernel_dim == 1
        assert cert.gap == pytest.approx(1.026177178305575, rel=1e-6)

    def test_gains_recorded(self):
        psi = make_dicke_4_2()
        pattern = LocalityPattern(
            psi.space, (Neighborhood((0, 1, 2)), Neighborhood((1, 2, 3)))
        )
        stabs = synthesize_stabilizers(psi, pattern, "graded", gain_scale=1.0)
        assert stabs.gains[0] == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


class TestReportedResiduals:
    @pytest.mark.parametrize(
        "instance",
        [
            {"dims": [2] * 4, "state": "psi_t", "neighborhoods": [[0, 1, 2], [1, 2, 3]]},
            {
                "dims": [2] * 5,
                "state": {"name": "graph", "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
                "neighborhoods": [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
            },
        ],
        ids=["dicke", "cluster5"],
    )
    def test_cli_reports_the_checked_residuals(self, instance, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        code = main(["synthesize", str(path), "--out", str(tmp_path / "ops")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        loaded = load_instance(path)
        stabs = synthesize_stabilizers(loaded.state, loaded.pattern)
        assert len(stabs.residuals) == len(stabs.operators)
        assert all(r <= 1e-12 for r in stabs.residuals)
        # The report rounds every number to 12 significant digits.
        assert report["annihilation_residuals"] == [
            float(f"{r:.12g}") for r in stabs.residuals
        ]

