"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written from first principles (digit
arithmetic and explicit loops), not via the library's reshape/kron paths,
so the tests compare two independent routes to the same values. The
byte oracles (those whose docstrings promise the library's last bit)
instead keep a plainer whole-array route with the same floating-point
operations, so a test can hold a faster route to the same bits. The
random matrix-product states are a fixture family shared by the same tests.
"""

import json
from types import SimpleNamespace

import numpy as np

from qlstab.dynamics import INVARIANCE_TOL
from qlstab.subspaces import complete_frame
from qlstab.tensor import DensityMatrix, PureState, TensorSpace


def digits_of(index, dims):
    """Big-endian digit decomposition of a composite basis index."""
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return list(reversed(out))


def index_of(digits, dims):
    """Inverse of :func:`digits_of`."""
    idx = 0
    for g, d in zip(digits, dims):
        idx = idx * d + g
    return idx


def ptrace_oracle(mat, dims, keep):
    """Partial trace by explicit index summation."""
    n = len(dims)
    keep = sorted(keep)
    drop = [a for a in range(n) if a not in keep]
    dims_keep = [dims[a] for a in keep]
    dims_drop = [dims[a] for a in drop]
    d_keep = int(np.prod(dims_keep)) if keep else 1
    d_drop = int(np.prod(dims_drop)) if drop else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for i in range(d_keep):
        gi = digits_of(i, dims_keep)
        for j in range(d_keep):
            gj = digits_of(j, dims_keep)
            acc = 0.0 + 0.0j
            for e in range(d_drop):
                ge = digits_of(e, dims_drop)
                full_i = [0] * n
                full_j = [0] * n
                for pos, a in enumerate(keep):
                    full_i[a] = gi[pos]
                    full_j[a] = gj[pos]
                for pos, a in enumerate(drop):
                    full_i[a] = ge[pos]
                    full_j[a] = ge[pos]
                acc += mat[index_of(full_i, dims), index_of(full_j, dims)]
            out[i, j] = acc
    return out


def embed_oracle(block, dims, hood):
    """Neighborhood-operator embedding by explicit matrix elements: entry
    (i, j) is block[bi, bj] when i and j agree on every digit outside the
    neighborhood, where bi and bj index their neighborhood digits; every
    other entry is zero."""
    hood = sorted(hood)
    dims_hood = [dims[a] for a in hood]
    d = int(np.prod(dims))
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        gi = digits_of(i, dims)
        bi = index_of([gi[a] for a in hood], dims_hood)
        for bj in range(int(np.prod(dims_hood))):
            gj = list(gi)
            for a, g in zip(hood, digits_of(bj, dims_hood)):
                gj[a] = g
            out[i, index_of(gj, dims)] = block[bi, bj]
    return out


def parent_total_oracle(ham):
    """The dense D x D parent Hamiltonian: the sum of the terms of ``ham``
    embedded by :func:`embed_oracle`, in term order, from a zero matrix."""
    total = np.zeros((ham.space.dim, ham.space.dim), dtype=complex)
    for term in ham.terms:
        total += embed_oracle(term.block, ham.space.dims, term.neighborhood.indices)
    return total


def residual_oracle(sub, vector):
    """Norm of the part of ``vector`` outside the subspace ``sub``:
    |v - F F^dagger v| for its orthonormal frame F."""
    frame = sub.frame
    return float(np.linalg.norm(vector - frame @ (frame.conj().T @ vector)))


def density_matrix_oracle(mat, herm_tol, trace_tol, psd_tol):
    """The message ``DensityMatrix`` raises for ``mat``, or None if it
    accepts: Hermiticity, then the trace, then positivity, decided from the
    smallest eigenvalue of the Hermitian part that ``eigvalsh`` computes
    (the check before the Cholesky certificate, kept here as its oracle)."""
    mat = np.array(mat, dtype=complex)
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if not asym <= herm_tol:
        return f"matrix is not Hermitian (asymmetry {asym:.3e})"
    tr = np.trace(mat)
    if not abs(tr - 1.0) <= trace_tol:
        return f"trace {tr!r} is not 1 within {trace_tol}"
    lam_min = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
    if not lam_min >= -psd_tol:
        return f"matrix has negative eigenvalue {lam_min:.3e}"
    return None


def basis_state(space, index):
    """Computational basis state with the given big-endian composite index."""
    if not (0 <= index < space.dim):
        raise ValueError(f"basis index {index} out of range for dim {space.dim}")
    amps = np.zeros(space.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(space, amps)


def haar_unitary(d, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mps(dims, bond, rng):
    """Random open-boundary matrix product state with the given bond dimension."""
    psi = np.ones((1, 1), dtype=complex)
    for site, d in enumerate(dims):
        right = 1 if site == len(dims) - 1 else bond
        shape = (psi.shape[1], d, right)
        tensor = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psi = np.tensordot(psi, tensor, axes=([-1], [0])).reshape(-1, right)
    psi = psi.reshape(-1)
    return PureState(TensorSpace(dims), psi / np.linalg.norm(psi))


def operator_file_oracle(matrix, meta):
    """The text of an operator file by the standard-library encoder: the
    nested [re, im] list of ``matrix`` under "matrix", dumped with indent 1."""
    matrix = np.asarray(matrix, dtype=complex)
    pairs = np.stack([matrix.real, matrix.imag], axis=-1).tolist()
    return json.dumps({"meta": meta, "matrix": pairs}, indent=1) + "\n"


def graph_state_oracle(n, edges):
    """Graph-state amplitudes by index arithmetic: ``(-1)**c / 2**(n/2)``,
    where ``c`` counts the edges whose two qubits are both 1 in the
    big-endian basis index."""
    idx = np.arange(2**n)
    signs = np.zeros(2**n, dtype=np.int64)
    for u, v in edges:
        bit_u = (idx >> (n - 1 - u)) & 1
        bit_v = (idx >> (n - 1 - v)) & 1
        signs += bit_u * bit_v
    return np.where(signs % 2 == 0, 1.0, -1.0).astype(complex) / 2 ** (n / 2.0)


def cz_matrix_oracle(n, u, v):
    """Full-space controlled-Z on qubits (u, v) as I - 2 P1_u P1_v."""
    eye2 = np.eye(2)
    p1 = np.diag([0.0, 1.0])
    chain = np.array([[1.0]])
    for a in range(n):
        chain = np.kron(chain, p1 if a in (u, v) else eye2)
    return np.eye(2**n) - 2.0 * chain


def vectorize_oracle(hamiltonian, noise_ops):
    """Column-stacking Lindblad superoperator from one Kronecker product per
    term: -i(I kron H - H^T kron I) + sum_k conj(L_k) kron L_k
    - (1/2)(I kron Q + Q^T kron I), with Q = sum_k L_k^dag L_k."""
    d = noise_ops[0].shape[0] if noise_ops else hamiltonian.shape[0]
    eye = np.eye(d, dtype=complex)
    out = np.zeros((d * d, d * d), dtype=complex)
    if hamiltonian is not None:
        out += -1j * (np.kron(eye, hamiltonian) - np.kron(hamiltonian.T, eye))
    quad = np.zeros((d, d), dtype=complex)
    for op in noise_ops:
        out += np.kron(op.conj(), op)
        quad += op.conj().T @ op
    out -= 0.5 * (np.kron(eye, quad) + np.kron(quad.T, eye))
    return out


def vectorize_kron_oracle(gen):
    """The column-stacking generator matrix with one whole Kronecker product
    per noise operator: zeros, then the drift K = -iH - (1/2) sum_k L_k^dag L_k
    as I kron K + conj(K) kron I block by block, then conj(L_k) kron L_k added
    in operator order. Each entry gets the same products in the same order
    as the library's row-at-a-time build, so the two agree to the last bit."""
    d = gen.space.dim
    drift = -0.5 * gen._quad
    if gen.hamiltonian is not None:
        drift = drift - 1j * gen.hamiltonian
    out = np.zeros((d * d, d * d), dtype=complex)
    blocks = out.reshape(d, d, d, d)
    for i in range(d):
        blocks[i, :, i, :] += drift
        blocks[:, i, :, i] += drift.conj()
    for op in gen.noise_ops:
        out += np.kron(op.conj(), op)
    return out


def real_form_oracle(lhat, d):
    """Real form T lhat T^dag of a superoperator by whole-array pair mixing:
    the rows at the stacked slots of (i, j) and (j, i), i < j, are gathered
    into two arrays, mixed as (a, b) -> (a + b, -i (a - b)) / sqrt 2 and
    written back; then the columns the same way with phase +i. Each element
    sees the same operations as in the library's in-place chunks."""
    lhat = np.array(lhat, dtype=complex)
    i, j = np.triu_indices(d, 1)
    upper, lower = i + j * d, j + i * d
    scale = 1.0 / np.sqrt(2.0)
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
    return np.ascontiguousarray(lhat.real)


def bordered_real_form(gen):
    """The whole real form of ``gen`` (:func:`real_form_oracle` of
    :func:`vectorize_kron_oracle`) with its first row replaced by the trace
    functional: 1 on every diagonal slot i + i d."""
    d = gen.space.dim
    real = real_form_oracle(vectorize_kron_oracle(gen), d)
    real[0] = 0.0
    real[0, :: d + 1] = 1.0
    return real


def whole_form_steady_state(gen):
    """Trace-one stationary state of ``gen`` by one solve of
    :func:`bordered_real_form` against e_0. The solution's real coordinates
    map back entry by entry: X_ii from slot (i, i), and X_ij,
    X_ji = (x_ij +- i x_ji) / sqrt 2 from slots (i, j) and (j, i), i < j.
    Returns None when the system is singular."""
    d = gen.space.dim
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(bordered_real_form(gen), rhs)
    except np.linalg.LinAlgError:
        return None
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        out[i, i] = vec[i + i * d]
        for j in range(i + 1, d):
            x, y = vec[i + j * d], vec[j + i * d]
            out[i, j] = (x + 1j * y) / np.sqrt(2.0)
            out[j, i] = (x - 1j * y) / np.sqrt(2.0)
    return out


def apply_generator_oracle(gen, rho):
    """The Lindblad generator on a matrix, one operator at a time: zeros, then
    -i[H, rho], then L_k rho L_k^dag in order, then -(1/2){Q, rho} with
    Q = sum_k L_k^dag L_k accumulated from zeros. Each product is the same
    two-operand matrix product as in the library's batched kernel, so the
    two agree to the last bit."""
    mat = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho, complex)
    d = gen.space.dim
    quad = np.zeros((d, d), dtype=complex)
    for op in gen.noise_ops:
        quad += op.conj().T @ op
    out = np.zeros((d, d), dtype=complex)
    if gen.hamiltonian is not None:
        out += -1j * (gen.hamiltonian @ mat - mat @ gen.hamiltonian)
    for op in gen.noise_ops:
        out += op @ mat @ op.conj().T
    out -= 0.5 * (quad @ mat + mat @ quad)
    return out


def invariance_oracle(gen, psi):
    """Stationarity of a pure target by two routes, as ``check_invariance``
    once computed it. The basis route completes psi to a unitary basis
    (``complete_frame``) and rotates every noise operator and the
    Hamiltonian into it: the columns under psi give the offdiagonal
    residual, the Hamiltonian row minus half the noise cross terms the
    Hamiltonian residual. The generator route is the Frobenius norm of the
    generator applied to |psi><psi|. ``invariant`` needs every residual at
    most ``INVARIANCE_TOL``."""
    d = gen.space.dim
    basis = complete_frame(psi.amplitudes.reshape(-1, 1), d)
    ham = gen.hamiltonian
    ham_rot = basis.conj().T @ ham @ basis if ham is not None else np.zeros((d, d))
    cross = np.zeros(d - 1, dtype=complex)
    offdiag = 0.0
    for op in gen.noise_ops:
        rot = basis.conj().T @ op @ basis
        offdiag = max(offdiag, float(np.linalg.norm(rot[1:, 0])))
        cross += np.conj(rot[0, 0]) * rot[0, 1:]
    ham_residual = float(np.linalg.norm(1j * ham_rot[0, 1:] - 0.5 * cross))
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    gen_residual = float(np.linalg.norm(apply_generator_oracle(gen, rho)))
    residuals = (offdiag, ham_residual, gen_residual)
    return SimpleNamespace(
        invariant=all(r <= INVARIANCE_TOL for r in residuals),
        offdiagonal_residual=offdiag,
        hamiltonian_residual=ham_residual,
        generator_residual=gen_residual,
    )


def partial_trace_oracle(state, keep):
    """Reduced state on the subsystems ``keep`` by tracing the density matrix
    one subsystem at a time with ``np.trace``, the last subsystem first. A
    ``PureState`` is traced from its outer product |psi><psi|, a
    ``DensityMatrix`` from its matrix."""
    dims = state.space.dims
    if isinstance(state, PureState):
        mat = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        mat = state.matrix
    t = mat.reshape(dims * 2)
    m = len(dims)
    for a in sorted(set(range(m)) - set(keep), reverse=True):
        t = np.trace(t, axis1=a, axis2=a + m)
        m -= 1
    keep_dims = tuple(dims[a] for a in sorted(keep))
    d_keep = int(np.prod(keep_dims))
    return DensityMatrix(
        TensorSpace(keep_dims), np.ascontiguousarray(t.reshape(d_keep, d_keep))
    )


def round12_oracle(value):
    """A report tree with floats rounded to 12 significant digits, non-finite
    floats as strings, complex numbers as [re, im] and arrays as lists."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        if not np.isfinite(value):
            return str(value)
        return float(f"{value:.12g}")
    if isinstance(value, complex):
        return [round12_oracle(value.real), round12_oracle(value.imag)]
    if isinstance(value, dict):
        return {k: round12_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12_oracle(v) for v in value]
    if isinstance(value, np.generic):
        return round12_oracle(value.item())
    if isinstance(value, np.ndarray):
        return round12_oracle(value.tolist())
    return value


def _text_lines_oracle(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines_oracle(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text_oracle(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines_oracle(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text_oracle(v)}")
    else:
        lines.append(f"{pad}{_scalar_text_oracle(value)}")
    return lines


def _scalar_text_oracle(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def report_oracle(report, fmt):
    """A CLI report as printed, by the standard-library encoder (``fmt`` "json",
    indent 2) or the recursive text walk, over :func:`round12_oracle`."""
    tree = round12_oracle(report)
    if fmt == "json":
        return json.dumps(tree, indent=2) + "\n"
    return "\n".join(_text_lines_oracle(tree)) + "\n"
