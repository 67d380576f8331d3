"""Acceptance suite: the package's promised behaviors at their stated tolerances.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output section); a failing criterion also fails its test.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

from qlstab.analysis import check_dqls, parent_hamiltonian
from qlstab.dynamics import (
    EIG_TOL,
    STEADY_STATE_TOL,
    LindbladGenerator,
    SwitchingSchedule,
    evolve,
    fidelity,
    gas_certificate,
    simulate_switched,
    stabilizer_generator,
    stabilizer_generators,
    switched_map,
    trace_distance,
    vectorize,
)
from qlstab.subspaces import complete_frame
from qlstab.synthesis import synthesize_stabilizers
from qlstab.tensor import (
    DensityMatrix,
    LocalityPattern,
    Neighborhood,
    PureState,
    TensorSpace,
    apply_local_unitary,
    make_dicke_4_2,
    make_ghz,
    make_graph_state,
    make_w,
    qubit_space,
    random_density_matrix,
    random_pure_state,
)

from oracles import (
    basis_state,
    haar_unitary,
    parent_total_oracle,
    partial_trace_oracle,
    ptrace_oracle,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def pattern_of(space, hoods):
    return LocalityPattern(space, tuple(Neighborhood(h) for h in hoods))


def fixture_states():
    """The worked-example states with their natural locality patterns."""
    ghz = make_ghz(3)
    w = make_w(4)
    dicke = make_dicke_4_2()
    cluster = make_graph_state(4, [(0, 1), (1, 2), (2, 3)])
    return [
        ("ghz3", ghz, pattern_of(ghz.space, [(0, 1), (1, 2)]), False),
        ("w4", w, pattern_of(w.space, [(0, 1, 2), (1, 2, 3)]), False),
        ("dicke", dicke, pattern_of(dicke.space, [(0, 1, 2), (1, 2, 3)]), True),
        (
            "cluster4",
            cluster,
            pattern_of(cluster.space, [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)]),
            True,
        ),
    ]


def dicke_pattern():
    psi = make_dicke_4_2()
    return psi, pattern_of(psi.space, [(0, 1, 2), (1, 2, 3)])


def test_criterion_01_worked_example_verdicts():
    with criterion(1, "worked-example verdicts (GHZ/W families, Dicke, cluster) < 5 s"):
        started = time.perf_counter()
        for n in (3, 4, 5, 6):
            ghz = make_ghz(n)
            pairs = [(i, i + 1) for i in range(n - 1)]
            report = check_dqls(ghz, pattern_of(ghz.space, pairs))
            assert not report.verdict
            assert report.intersection_dim == 2
        for n in (3, 4, 5, 6):
            w = make_w(n)
            windows = [tuple(range(0, n - 1)), tuple(range(1, n))]
            report = check_dqls(w, pattern_of(w.space, windows))
            assert not report.verdict
            assert report.intersection_dim >= 2
        dicke, pattern = dicke_pattern()
        report = check_dqls(dicke, pattern)
        assert report.verdict and report.intersection_dim == 1
        cluster = make_graph_state(4, [(0, 1), (1, 2), (2, 3)])
        report = check_dqls(
            cluster, pattern_of(cluster.space, [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)])
        )
        assert report.verdict and report.intersection_dim == 1
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"verdict suite took {elapsed:.2f}s"


def test_criterion_02_partial_trace_oracle_agreement():
    with criterion(2, "partial trace matches index-contraction oracle <= 1e-12 (100 cases)"):
        rng = np.random.default_rng(12)
        worst = 0.0
        for case in range(100):
            n = int(rng.integers(2, 6))
            dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
            space = TensorSpace(dims)
            # Pure states take the library's route; mixed ones have none, so
            # they check the np.trace reference that the other tests use.
            if case % 2 == 0:
                psi = random_pure_state(space, rng)
                rho = psi.density_matrix()
            else:
                rho = random_density_matrix(space, rng)
            size = int(rng.integers(1, n + 1))
            keep = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            from qlstab.tensor import partial_trace

            if case % 2 == 0:
                reduced = partial_trace(psi, Neighborhood(keep))
            else:
                reduced = partial_trace_oracle(rho, keep)
            expected = ptrace_oracle(rho.matrix, list(dims), list(keep))
            worst = max(worst, float(np.max(np.abs(reduced.matrix - expected))))
        assert worst <= 1e-12, f"worst deviation {worst:.3e}"


def test_criterion_03_target_containment_property():
    with criterion(3, "target span always inside the embedded-support intersection (200 cases)"):
        rng = np.random.default_rng(34)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            dims = tuple(int(d) for d in rng.choice([2, 2, 3], size=n))
            space = TensorSpace(dims)
            psi = random_pure_state(space, rng)
            hoods = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, n + 1))
                hoods.append(
                    tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                )
            report = check_dqls(psi, pattern_of(space, hoods))
            frame = report.intersection.frame
            residual = float(
                np.linalg.norm(
                    psi.amplitudes - frame @ (frame.conj().T @ psi.amplitudes)
                )
            )
            worst = max(worst, residual)
        assert worst <= 1e-8, f"worst containment residual {worst:.3e}"


def test_criterion_04_local_unitary_invariance():
    with criterion(4, "verdicts invariant under 50 local-unitary rotations per fixture"):
        rng = np.random.default_rng(56)
        for _, state, pattern, expected in fixture_states():
            for _ in range(50):
                locals_ = [
                    haar_unitary(2, rng) for _ in range(state.space.n_subsystems)
                ]
                rotated = apply_local_unitary(state, locals_)
                assert check_dqls(rotated, pattern).verdict == expected


def test_criterion_05_parent_hamiltonian_loop_closure():
    with criterion(5, "parent Hamiltonian kernels: dim 1 on passing fixtures, dim 2 for GHZ(3)"):
        passing = [f for f in fixture_states() if f[3]]
        product = basis_state(qubit_space(4), 0)
        passing.append(
            ("product", product, pattern_of(product.space, [(0,), (1,), (2,), (3,)]), True)
        )
        for _, state, pattern, _ in passing:
            total = parent_total_oracle(parent_hamiltonian(state, pattern))
            assert float(np.linalg.norm(total @ state.amplitudes)) <= 1e-8
            evals, evecs = np.linalg.eigh(total)
            kernel_dim = int(np.sum(evals < 1e-8))
            assert kernel_dim == 1
            overlap = abs(np.vdot(evecs[:, 0], state.amplitudes))
            assert abs(overlap - 1.0) <= 1e-8
        ghz = make_ghz(3)
        ham = parent_hamiltonian(ghz, pattern_of(ghz.space, [(0, 1), (1, 2)]))
        evals = np.linalg.eigvalsh(parent_total_oracle(ham))
        assert int(np.sum(evals < 1e-8)) == 2


def test_criterion_06_spectral_certificate():
    with criterion(6, "spectral certificate for the Dicke target (256x256, gap > 0) < 10 s"):
        started = time.perf_counter()
        psi, pattern = dicke_pattern()
        stabs = synthesize_stabilizers(psi, pattern)
        gen = stabilizer_generator(stabs.operators, psi.space)
        assert (EIG_TOL, STEADY_STATE_TOL) == (1e-8, 1e-7)
        cert = gas_certificate(gen, psi)
        assert cert.certified
        assert cert.kernel_dim == 1
        nonzero = cert.eigenvalues[np.abs(cert.eigenvalues) > 1e-8]
        assert np.min(np.abs(nonzero.real)) > 1e-8
        assert cert.gap > 0.0
        assert (
            float(np.max(np.abs(cert.steady_state - psi.density_matrix().matrix)))
            <= 1e-7
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"certificate took {elapsed:.2f}s"


def test_criterion_07_single_operator_spectrum_law():
    with criterion(7, "unit-gain block Liouvillian spectra follow the pairwise-rate law"):
        from qlstab.subspaces import support as subspace_support
        from qlstab.synthesis import synthesize_block
        from qlstab.tensor import partial_trace

        bell = PureState(
            qubit_space(2), np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        )
        product = basis_state(qubit_space(2), 0)
        dicke, dicke_pat = dicke_pattern()
        fixtures = [
            (dicke, dicke_pat),
            (product, pattern_of(product.space, [(0,), (1,)])),
            (bell, pattern_of(bell.space, [(0, 1)])),
        ]
        checked = 0
        for state, pattern in fixtures:
            for hood in pattern.neighborhoods:
                reduced = partial_trace(state, hood)
                sub, _ = subspace_support(reduced)
                dim = sub.ambient_dim
                assert dim <= 8
                gains = (1.0,) * (dim - sub.dim)
                block = synthesize_block(sub, gains)
                gen = LindbladGenerator(TensorSpace((dim,)), None, (block,))
                lhat = vectorize(gen)
                # Exact route: in the synthesis basis with the product basis
                # ordered by chain position the generator is triangular, so
                # its diagonal is the spectrum with multiplicity.
                basis = complete_frame(sub.frame, dim)
                w = np.kron(basis.conj(), basis)
                rotated = w.conj().T @ lhat @ w
                pairs = [(i, j) for j in range(dim) for i in range(dim)]
                order = sorted(
                    range(len(pairs)), key=lambda k: pairs[k][0] + pairs[k][1]
                )
                tri = rotated[np.ix_(order, order)]
                assert np.max(np.abs(np.tril(tri, k=-1))) < 1e-10
                mu = np.zeros(dim)
                mu[sub.dim:] = 1.0
                law = np.sort(np.array([-(a + b) / 2 for a in mu for b in mu]))
                np.testing.assert_allclose(np.sort(np.diag(tri).real), law, atol=1e-10)
                assert np.max(np.abs(np.diag(tri).imag)) < 1e-10
                assert set(np.round(law, 9)) <= {0.0, -0.5, -1.0}
                # Cross-check the rate parameters against a dense eigensolve.
                np.testing.assert_allclose(
                    np.sort(np.linalg.eigvalsh(block.conj().T @ block)),
                    np.sort(mu),
                    atol=1e-12,
                )
                checked += 1
        assert checked == 5


def test_criterion_08_convergence_dynamics():
    with criterion(8, "20 random states reach fidelity > 1-1e-6 by t=40; damping closed form"):
        psi, pattern = dicke_pattern()
        stabs = synthesize_stabilizers(psi, pattern)
        gen = stabilizer_generator(stabs.operators, psi.space)
        rng = np.random.default_rng(78)
        for _ in range(20):
            rho0 = random_pure_state(psi.space, rng).density_matrix()
            trajectory = list(evolve(gen, rho0, 40.0, dt=0.01, record_every=10**9))
            assert fidelity(psi, trajectory[-1][1]) > 1.0 - 1e-6

        q1 = TensorSpace((2,))
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        damping = LindbladGenerator(q1, None, (lower,))
        rho0 = DensityMatrix(q1, np.diag([0.0, 1.0]))
        by_time = dict(evolve(damping, rho0, 2.0, dt=0.01))
        for t in (0.5, 1.0, 2.0):
            expected = 1.0 - math.exp(-t)
            assert abs(by_time[t].matrix[0, 0].real - expected) <= 1e-6


def test_criterion_09_switched_cycle():
    with criterion(9, "switched cycle: simple unit eigenvalue, 30-cycle convergence, monotone"):
        psi, pattern = dicke_pattern()
        stabs = synthesize_stabilizers(psi, pattern)
        gens = tuple(stabilizer_generators(stabs.operators, psi.space))
        schedule = SwitchingSchedule(1.0, gens)
        total = switched_map(schedule)
        eigenvalues = np.linalg.eigvals(total)
        unit = np.abs(eigenvalues - 1.0) <= 1e-9
        assert int(np.sum(unit)) == 1
        assert float(np.max(np.abs(eigenvalues[~unit]))) < 1.0 - 1e-6

        target = psi.density_matrix()
        rng = np.random.default_rng(90)
        for _ in range(10):
            rho0 = random_pure_state(psi.space, rng).density_matrix()
            trajectory = list(simulate_switched(schedule, rho0, 30, dt=0.01))
            assert fidelity(psi, trajectory[-1][1]) > 1.0 - 1e-5
            cycle_states = [state for _, state in trajectory][:: len(gens)]
            dists = [trace_distance(state, target) for state in cycle_states]
            for earlier, later in zip(dists, dists[1:]):
                assert later <= earlier + 1e-12


def test_criterion_10_conjugation_identity():
    with criterion(10, "generator conjugation identity at t in {0.1, 1} for 20 random triples"):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(2, 9))
            space = TensorSpace((d,))
            raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ham = (raw + raw.conj().T) / 2
            ops = tuple(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(int(rng.integers(1, 3)))
            )
            gen = LindbladGenerator(space, ham, ops)
            u = haar_unitary(d, rng)
            rotated = LindbladGenerator(
                space,
                u @ ham @ u.conj().T,
                tuple(u @ op @ u.conj().T for op in ops),
            )
            uhat = np.kron(u.conj(), u)
            for t in (0.1, 1.0):
                lhs = uhat @ expm(t * vectorize(gen)) @ uhat.conj().T
                rhs = expm(t * vectorize(rotated))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-8, f"worst conjugation mismatch {worst:.3e}"
