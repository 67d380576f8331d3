"""Subspace algebra: supports, frame completions, intersections, projector identities."""

import numpy as np
import pytest

from qlstab.subspaces import (
    ORTH_TOL,
    Subspace,
    complete_frame,
    equals,
    intersect,
    note_or_raise,
    projector,
    support,
)
from qlstab.tensor import (
    DensityMatrix,
    DimensionMismatchError,
    Neighborhood,
    TensorSpace,
    embed_frame,
    make_dicke_4_2,
    make_ghz,
    partial_trace,
    random_pure_state,
)

from oracles import haar_unitary, partial_trace_oracle, ptrace_oracle, residual_oracle


def no_notes(result):
    """The subspace of a ``(subspace, notes)`` result that carries no note."""
    sub, notes = result
    assert notes == []
    return sub


def random_subspace(ambient, dim, rng):
    raw = rng.standard_normal((ambient, dim)) + 1j * rng.standard_normal((ambient, dim))
    return Subspace(ambient, np.linalg.qr(raw)[0])


def coordinate_span(ambient, indices):
    frame = np.zeros((ambient, len(indices)), dtype=complex)
    for col, idx in enumerate(indices):
        frame[idx, col] = 1.0
    return Subspace(ambient, frame)


class TestSubspaceType:
    def test_rejects_non_orthonormal_frame(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan_frame(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(2, np.array([[np.nan], [0.0]]))

    def test_zero_dimensional_is_legal(self):
        sub = Subspace(3, np.zeros((3, 0)))
        assert sub.dim == 0
        np.testing.assert_allclose(projector(sub), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "ambient, frame, error, message",
        [
            (0, np.zeros((0, 0)), ValueError, "ambient dimension must be positive"),
            (3, np.eye(2), DimensionMismatchError,
             "frame has 2 rows, ambient dimension is 3"),
            (2, np.ones((2, 3)) / 2, DimensionMismatchError,
             "frame has 3 columns in ambient dimension 2"),
            (2, np.array([1.0, 0.0]), DimensionMismatchError,
             "frame must be 2-D, got shape (2,)"),
        ],
        ids=["ambient-zero", "row-count", "too-many-columns", "one-dimensional"],
    )
    def test_rejects_malformed_frames(self, ambient, frame, error, message):
        with pytest.raises(error) as info:
            Subspace(ambient, frame)
        assert str(info.value) == message


class TestNoteOrRaise:
    def test_raises_without_a_borderline_decision(self):
        notes = ["earlier"]
        with pytest.raises(ArithmeticError) as info:
            note_or_raise("check failed", False, notes, "; cause")
        assert str(info.value) == "check failed; cause"
        assert notes == ["earlier"]

    def test_notes_after_a_borderline_decision(self):
        notes = ["earlier"]
        assert note_or_raise("check failed", True, notes, "; cause") is None
        assert notes == ["earlier", "check failed, after a borderline rank decision"]


class TestSupport:
    def test_pure_state_support_is_its_span(self):
        psi = make_ghz(3)
        sub = no_notes(support(psi.density_matrix()))
        assert sub.dim == 1
        assert residual_oracle(sub, psi.amplitudes) <= ORTH_TOL

    def test_maximally_mixed_support_is_everything(self):
        d = 6
        sub = no_notes(support(DensityMatrix(TensorSpace((d,)), np.eye(d) / d)))
        assert sub.dim == d

    def test_ghz_reduced_support(self):
        red = partial_trace(make_ghz(3), Neighborhood((0, 1)))
        sub = no_notes(support(red))
        assert sub.dim == 2
        expected = coordinate_span(4, [0, 3])
        assert equals(sub, expected)

    def test_borderline_rank_note(self):
        rho = DensityMatrix(TensorSpace((3,)), np.diag([1.0, 1e-10, 0.0]))
        sub, notes = support(rho, rtol=1e-10)
        assert sub.dim == 1
        assert len(notes) == 1
        assert notes[0].startswith("support rank decision is borderline")


def completion(sub):
    """The orthogonal complement of ``sub``: the columns that
    ``complete_frame`` appends to its frame."""
    basis = complete_frame(sub.frame, sub.ambient_dim)
    return Subspace(sub.ambient_dim, basis[:, sub.dim:])


class TestComplementAndProjector:
    def test_double_complement_recovers_projector(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            sub = random_subspace(6, int(rng.integers(0, 7)), rng)
            back = completion(completion(sub))
            np.testing.assert_allclose(projector(back), projector(sub), atol=1e-10)

    def test_complement_projector_identity(self):
        rng = np.random.default_rng(8)
        sub = random_subspace(5, 2, rng)
        np.testing.assert_allclose(
            projector(completion(sub)), np.eye(5) - projector(sub), atol=1e-9
        )

    def test_projector_is_hermitian_idempotent(self):
        rng = np.random.default_rng(6)
        sub = random_subspace(7, 3, rng)
        p = projector(sub)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-9)

    def test_full_space_projector_is_identity(self):
        np.testing.assert_allclose(projector(Subspace(3, np.eye(3))), np.eye(3))

    def test_complete_frame_is_unitary_and_keeps_input(self):
        rng = np.random.default_rng(10)
        sub = random_subspace(6, 2, rng)
        basis = complete_frame(sub.frame, 6)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(basis[:, :2], sub.frame)

    def test_complete_frame_deterministic(self):
        rng = np.random.default_rng(12)
        sub = random_subspace(5, 2, rng)
        a = complete_frame(sub.frame, 5)
        b = complete_frame(sub.frame.copy(), 5)
        assert np.array_equal(a, b)


class TestIntersect:
    def test_with_full_space_is_identity(self):
        rng = np.random.default_rng(14)
        sub = random_subspace(5, 3, rng)
        out = no_notes(intersect([sub, Subspace(5, np.eye(5))]))
        assert equals(out, sub)

    def test_coordinate_planes(self):
        a = coordinate_span(3, [0, 1])
        b = coordinate_span(3, [1, 2])
        out = no_notes(intersect([a, b]))
        assert out.dim == 1
        assert equals(out, coordinate_span(3, [1]))

    def test_dicke_embedded_supports_intersect_to_target(self):
        # Build the embedded reduced-support subspaces through the
        # independent partial-trace oracle, then intersect.
        psi = make_dicke_4_2()
        rho = psi.density_matrix().matrix
        embedded = []
        for hood in ((0, 1, 2), (1, 2, 3)):
            red = ptrace_oracle(rho, [2] * 4, list(hood))
            sub = no_notes(support(DensityMatrix(TensorSpace((2, 2, 2)), red)))
            frame = embed_frame(sub.frame, Neighborhood(hood), psi.space)
            embedded.append(Subspace(16, frame))
        out = no_notes(intersect(embedded))
        assert out.dim == 1
        assert equals(out, Subspace(16, psi.amplitudes.reshape(-1, 1)))

    def test_disjoint_subspaces_intersect_to_zero(self):
        halves = [coordinate_span(4, [0, 1]), coordinate_span(4, [2, 3])]
        out = no_notes(intersect(halves))
        assert out.dim == 0

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            intersect([Subspace(2, np.eye(2)), Subspace(3, np.eye(3))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            intersect([])

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            a = random_subspace(8, 6, rng)
            b = random_subspace(8, 6, rng)
            c = random_subspace(8, 7, rng)
            ab = no_notes(intersect([a, b]))
            ba = no_notes(intersect([b, a]))
            np.testing.assert_allclose(projector(ab), projector(ba), atol=1e-8)
            abc = no_notes(intersect([a, b, c]))
            nested = no_notes(intersect([ab, c]))
            np.testing.assert_allclose(projector(abc), projector(nested), atol=1e-7)

    def test_nearly_parallel_lines_fail_the_containment_check(self):
        # 1 - cos(theta) = 5e-11 sits below INTERSECT_TOL, so the bisector of
        # the two lines is kept, yet it lies sin(theta / 2) = 5e-6 outside
        # each of them.
        theta = 1e-5
        line = Subspace(2, np.array([[np.cos(theta)], [np.sin(theta)]]))
        with pytest.raises(ArithmeticError) as exc:
            intersect([coordinate_span(2, [0]), line])
        assert str(exc.value) == (
            "intersection failed its containment check: a returned basis "
            "vector sits 5.000e-06 outside an input subspace "
            "(ill-conditioned inputs near the rank threshold)"
        )

    def test_dimension_lower_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            ambient = int(rng.integers(3, 9))
            da = int(rng.integers(1, ambient + 1))
            db = int(rng.integers(1, ambient + 1))
            a = random_subspace(ambient, da, rng)
            b = random_subspace(ambient, db, rng)
            assert no_notes(intersect([a, b])).dim >= da + db - ambient


class TestEquals:
    def test_same_subspace(self):
        rng = np.random.default_rng(20)
        sub = random_subspace(4, 2, rng)
        assert equals(sub, sub)

    def test_different_axes(self):
        assert not equals(coordinate_span(2, [0]), coordinate_span(2, [1]))

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(22)
        sub = random_subspace(6, 3, rng)
        mixed = Subspace(6, sub.frame @ haar_unitary(3, rng))
        assert equals(sub, mixed)

    def test_unequal_dimensions_differ(self):
        assert not equals(coordinate_span(3, [0]), coordinate_span(3, [0, 1]))

    def test_different_ambient_spaces_are_rejected(self):
        with pytest.raises(DimensionMismatchError) as info:
            equals(coordinate_span(2, [0]), coordinate_span(3, [0]))
        assert str(info.value) == "ambient dimensions differ: 2 vs 3"


class TestSupportContainmentProperty:
    def test_reduced_support_contains_global_support(self):
        # For any state and any pattern, the embedded reduced supports
        # contain the global support; their intersection therefore does too.
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
            space = TensorSpace(dims)
            if rng.random() < 0.5:
                rho = random_pure_state(space, rng).density_matrix()
            else:
                d = space.dim
                g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
                mat = g @ g.conj().T
                rho = DensityMatrix(space, mat / np.trace(mat).real)
            hoods = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, n + 1))
                hoods.append(
                    Neighborhood(
                        tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                    )
                )
            global_support = no_notes(support(rho))
            embedded = []
            for hood in hoods:
                red = partial_trace_oracle(rho, hood.indices)
                sub = no_notes(support(red))
                embedded.append(
                    Subspace(space.dim, embed_frame(sub.frame, hood, space))
                )
            inter = no_notes(intersect(embedded))
            residual = global_support.frame - projector(inter) @ global_support.frame
            assert float(np.max(np.abs(residual))) < 1e-8
