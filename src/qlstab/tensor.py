"""Multipartite tensor algebra: states, neighborhoods, local operators, partial traces.

Value types for composite finite-dimensional quantum systems, factories for
the standard entangled fixture states, and partial traces. One kernel,
:func:`apply_local`, applies a neighborhood operator to full-space vectors;
:func:`embed` forms the dense D x D matrix only for callers that need it, and
:func:`embed_sum` adds a list of blocks into one dense matrix in place.

Composite basis indexing is big-endian: subsystem 0 is the most significant
digit of a computational-basis index, matching the ordering produced by
``numpy.kron``. All subsystem indices are 0-based.

A locality pattern may leave subsystems uncovered; that is data
(:meth:`LocalityPattern.uncovered`), not a warning. Every value is immutable
after construction and every operation is a pure function, so everything in
this module is safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-9
HERM_TOL = 1e-9
PSD_TOL = 1e-9
# Entries of the block of amplitude products that partial_trace forms and
# sums at a time (1 MB of complex values).
_TRACE_CHUNK = 2**16

__all__ = [
    "NORM_TOL",
    "HERM_TOL",
    "PSD_TOL",
    "DimensionMismatchError",
    "check_hermitian",
    "TensorSpace",
    "PureState",
    "DensityMatrix",
    "Neighborhood",
    "LocalityPattern",
    "QLOperator",
    "qubit_space",
    "make_ghz",
    "make_w",
    "make_graph_state",
    "make_dicke_4_2",
    "random_pure_state",
    "random_density_matrix",
    "apply_local_unitary",
    "apply_local",
    "partial_trace",
    "embed",
    "embed_sum",
    "embed_frame",
]


class DimensionMismatchError(ValueError):
    """Operands live on incompatible spaces or have inconsistent shapes."""


def _as_complex_matrix(mat, shape=None) -> np.ndarray:
    out = np.array(mat, dtype=complex)
    if shape is not None and out.shape != shape:
        raise DimensionMismatchError(
            f"expected array of shape {shape}, got {out.shape}"
        )
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def check_hermitian(
    mat, bound: float, what: str, error=ValueError, adjoint=None
) -> None:
    """The one Hermiticity guard: raise ``error``, naming ``what``, unless
    max |A - A^dag| <= ``bound``. A NaN entry fails it. ``adjoint``, when
    given, is A^dag already formed."""
    if adjoint is None:
        adjoint = mat.conj().T
    asym = float(np.max(np.abs(mat - adjoint)))
    if not asym <= bound:
        raise error(f"{what} is not Hermitian (asymmetry {asym:.3e})")


@dataclass(frozen=True)
class TensorSpace:
    """Shape of a multipartite Hilbert space: one dimension per subsystem."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("a tensor space needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        """Total dimension, the product of all subsystem dimensions."""
        return math.prod(self.dims)

    def subspace_dims(self, indices: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.dims[a] for a in indices)


def qubit_space(n: int) -> TensorSpace:
    """Space of ``n`` qubits."""
    return TensorSpace((2,) * n)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on a multipartite space."""

    space: TensorSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = _as_complex_matrix(self.amplitudes).reshape(-1)
        if amps.shape != (self.space.dim,):
            raise DimensionMismatchError(
                f"amplitude vector has length {amps.size}, "
                f"space has dimension {self.space.dim}"
            )
        # The squared norm is the trace of every state derived from this one.
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"squared norm {norm2!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(
            self.space, np.outer(self.amplitudes, self.amplitudes.conj())
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a space.

    Tolerances are per-instance so that integrator snapshots, which carry
    discretization error, can be validated against looser bounds than
    freshly constructed states. The matrix is stored exactly as given;
    nothing is symmetrized or renormalized silently.

    The checks run in order: Hermiticity (``herm_tol``), trace
    (``trace_tol``), positivity (``psd_tol``). A matrix is positive enough
    when the smallest eigenvalue of its Hermitian part, as ``eigvalsh``
    computes it, is at least -psd_tol. That is first decided by one
    Cholesky factorization of the Hermitian part shifted by psd_tol/2,
    which is a proof when a rounding-error guard holds (see
    ``_cholesky_certifies``); when the guard or the factorization fails,
    ``eigvalsh`` decides, and its value is the one an error reports.
    """

    space: TensorSpace
    matrix: np.ndarray = field(repr=False)
    herm_tol: InitVar[float] = HERM_TOL
    trace_tol: InitVar[float] = NORM_TOL
    psd_tol: InitVar[float] = PSD_TOL

    def __post_init__(self, herm_tol, trace_tol, psd_tol):
        d = self.space.dim
        mat = _as_complex_matrix(self.matrix, (d, d))
        # One conjugate transpose serves all three checks.
        adjoint = mat.conj().T
        check_hermitian(mat, herm_tol, "matrix", adjoint=adjoint)
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= trace_tol:
            raise ValueError(f"trace {tr!r} is not 1 within {trace_tol}")
        if not _cholesky_certifies(mat, tr, psd_tol, adjoint):
            lam_min = float(np.linalg.eigvalsh((mat + adjoint) / 2.0)[0])
            if not lam_min >= -psd_tol:
                raise ValueError(f"matrix has negative eigenvalue {lam_min:.3e}")
        object.__setattr__(self, "matrix", _freeze(mat))


def _cholesky_certifies(
    mat: np.ndarray, trace: complex, psd_tol: float, adjoint: np.ndarray
) -> bool:
    """True if one Cholesky factorization proves that the smallest eigenvalue
    of H = (mat + mat^dag)/2, as ``eigvalsh`` computes it, is >= -psd_tol.

    ``mat`` is n x n and has passed the Hermiticity and trace checks;
    ``trace`` is its computed trace and ``adjoint`` is mat^dag. Let
    s = psd_tol/2, u = 2^-53 and let A be H with s added to its stored
    diagonal, so A = H + sI + E with E diagonal and |E_ii| <= u |H_ii + s|.

    - If Cholesky runs to completion on A, the computed factor satisfies
      R^dag R = A + dA with |dA| <= g |R^dag| |R| (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., Thm 10.3, for any
      ordering of the inner products), g = k u / (1 - k u), where
      k = n + 3 covers complex multiplication (Higham Sec. 3.6).
    - Every pivot, hence every A_ii, is then positive, so |H_ii| <= H_ii + 2s
      and T = 2 (|trace| + n s) bounds tr(A) and tr(H + sI), hence ||E||_2
      <= u T: the computed trace and the shift carry relative errors of
      order n u only.
    - With || |R^dag| |R| ||_2 <= ||R||_F^2 = tr(A + dA) and
      |tr dA| <= g ||R||_F^2, ||dA||_2 <= e_c = g T / (1 - n g).
    - R^dag R is positive semidefinite, so by Weyl's inequality
      lambda_min(H) >= -s - e_c - u T.
    - ``eigvalsh`` is backward stable: its smallest eigenvalue lies within
      p(n) u ||H||_2 of the exact one (LAPACK Users' Guide, 3rd ed.,
      Sec. 4.7), with p(n) taken as n and
      ||H||_2 <= ||R||_F^2 + e_c + u T + s <= T / (1 - n g) + e_c + u T + s.

    The certificate is used only when n g < 1 and

        e_c + u T + n u (T / (1 - n g) + e_c + u T + s) <= s/2,

    so every matrix it accepts has a computed smallest eigenvalue of at
    least -3s/2 = -(3/4) psd_tol and passes the ``eigvalsh`` check too.
    After the trace check T is about 2 + 2 n s, and the guard holds for
    every n up to about 5 * 10^5 at psd_tol = 1e-9 and 3 * 10^7 at 1e-5.
    It fails for a zero, negative, NaN or infinite psd_tol; the NaN case
    matters, as OpenBLAS factorizes a NaN-shifted matrix without error.
    A failed guard or factorization returns False, and the caller decides
    with ``eigvalsh``.
    """
    n = mat.shape[0]
    s = psd_tol / 2.0
    u = 2.0**-53
    g = (n + 3) * u / (1.0 - (n + 3) * u)
    total = 2.0 * (abs(trace) + n * s)
    chol_err = g * total / (1.0 - n * g) + u * total
    eig_err = n * u * (total / (1.0 - n * g) + chol_err + s)
    if not (n * g < 1.0 and chol_err + eig_err <= s / 2.0 < math.inf):
        return False
    shifted = mat + adjoint
    shifted /= 2.0
    shifted.flat[:: n + 1] += s
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class Neighborhood:
    """Set of subsystem indices on which an operator may act non-trivially.

    Indices are normalized to a strictly increasing tuple; duplicates are
    rejected. Validity against a concrete space is checked where the two
    meet (embedding, partial traces, pattern construction).
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(a) for a in self.indices)
        if len(idx) == 0:
            raise ValueError("a neighborhood must contain at least one subsystem")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate subsystem indices in {idx}")
        if any(a < 0 for a in idx):
            raise ValueError(f"negative subsystem index in {idx}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def complement(self, n_subsystems: int) -> tuple[int, ...]:
        """Indices outside the neighborhood, in increasing order."""
        inside = set(self.indices)
        return tuple(a for a in range(n_subsystems) if a not in inside)


@dataclass(frozen=True)
class LocalityPattern:
    """A fixed quasi-locality constraint: the list of allowed neighborhoods.

    Subsystems outside every neighborhood are legal; :meth:`uncovered` lists
    them, and the analysis reports them as a note.
    """

    space: TensorSpace
    neighborhoods: tuple[Neighborhood, ...]

    def __post_init__(self):
        hoods = tuple(
            h if isinstance(h, Neighborhood) else Neighborhood(tuple(h))
            for h in self.neighborhoods
        )
        if len(hoods) < 1:
            raise ValueError("a locality pattern needs at least one neighborhood")
        n = self.space.n_subsystems
        for h in hoods:
            if h.indices[-1] >= n:
                raise DimensionMismatchError(
                    f"neighborhood {h.indices} references subsystems outside "
                    f"a {n}-subsystem space"
                )
        object.__setattr__(self, "neighborhoods", hoods)

    def uncovered(self) -> tuple[int, ...]:
        """Subsystems that no neighborhood acts on, in increasing order."""
        covered = set()
        for h in self.neighborhoods:
            covered.update(h.indices)
        return tuple(a for a in range(self.space.n_subsystems) if a not in covered)


@dataclass(frozen=True, eq=False)
class QLOperator:
    """Operator given by a matrix block on one neighborhood's tensor factor."""

    neighborhood: Neighborhood
    block: np.ndarray = field(repr=False)

    def __post_init__(self):
        blk = _as_complex_matrix(self.block)
        if blk.ndim != 2 or blk.shape[0] != blk.shape[1]:
            raise DimensionMismatchError(f"block must be square, got {blk.shape}")
        object.__setattr__(self, "block", _freeze(blk))


# ---------------------------------------------------------------------------
# State factories
# ---------------------------------------------------------------------------

def make_ghz(n: int) -> PureState:
    """GHZ state on n qubits: equal superposition of all-zeros and all-ones."""
    if n < 1:
        raise ValueError("GHZ state needs n >= 1 qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(qubit_space(n), amps)


def make_w(n: int) -> PureState:
    """W state on n qubits: equal superposition of the weight-one basis states."""
    if n < 2:
        raise ValueError("W state needs n >= 2 qubits")
    amps = np.zeros(2**n, dtype=complex)
    for a in range(n):
        amps[1 << (n - 1 - a)] = 1.0 / math.sqrt(n)
    return PureState(qubit_space(n), amps)


def make_graph_state(n: int, edges: Iterable[tuple[int, int]]) -> PureState:
    """Graph state: controlled-Z on each edge applied to the uniform superposition.

    Amplitudes are ``(-1)**c / 2**(n/2)`` where ``c`` counts edges whose two
    qubits are both 1 in the basis index. CZ gates commute, so the edge order
    does not matter; duplicate edges and self-loops are rejected.
    """
    if n < 1:
        raise ValueError("graph state needs n >= 1 qubits")
    edge_list = []
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop edge ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references vertices outside 0..{n-1}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        edge_list.append(key)
    # One axis per qubit; CZ on (u, v) flips the sign where both are 1.
    signs = np.ones((2,) * n)
    for u, v in edge_list:
        corner = [slice(None)] * n
        corner[u] = corner[v] = 1
        signs[tuple(corner)] *= -1.0
    amps = signs.reshape(-1).astype(complex)
    del signs
    amps /= 2 ** (n / 2.0)
    return PureState(qubit_space(n), amps)


def make_dicke_4_2() -> PureState:
    """Four-qubit Dicke state with two excitations.

    Equal superposition of the six weight-two computational basis states,
    i.e. amplitude 1/sqrt(6) at indices 3, 5, 6, 9, 10, 12. This is the
    standard non-graph-state fixture that passes the quasi-local
    stabilizability test on the two 3-body neighborhoods of a 4-qubit chain.
    """
    amps = np.zeros(16, dtype=complex)
    for i in (3, 5, 6, 9, 10, 12):
        amps[i] = 1.0 / math.sqrt(6.0)
    return PureState(qubit_space(4), amps)


def random_pure_state(space: TensorSpace, rng: np.random.Generator) -> PureState:
    """Haar-uniform pure state: normalized complex Gaussian vector."""
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return PureState(space, v / np.linalg.norm(v))


def random_density_matrix(
    space: TensorSpace, rng: np.random.Generator
) -> DensityMatrix:
    """Random mixed state from a normalized Wishart-style construction."""
    d = space.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return DensityMatrix(space, mat / np.trace(mat).real)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def apply_local_unitary(
    psi: PureState, locals_: Sequence[np.ndarray]
) -> PureState:
    """Apply a tensor product of per-subsystem unitaries to a pure state.

    Args:
        psi: input state.
        locals_: one unitary per subsystem, each matching that subsystem's
            dimension. Non-unitary matrices are rejected.
    """
    dims = psi.space.dims
    n = len(dims)
    if len(locals_) != n:
        raise DimensionMismatchError(
            f"need {n} local unitaries, got {len(locals_)}"
        )
    v = psi.amplitudes
    for a, u in enumerate(locals_):
        u = _as_complex_matrix(u, (dims[a], dims[a]))
        defect = np.max(np.abs(u.conj().T @ u - np.eye(dims[a])))
        if not defect <= HERM_TOL:
            raise ValueError(
                f"matrix for subsystem {a} is not unitary (defect {defect:.3e})"
            )
        v = apply_local(QLOperator(Neighborhood((a,)), u), psi.space, v)
    return PureState(psi.space, v)


def partial_trace(psi: PureState, keep: Neighborhood) -> DensityMatrix:
    """Trace out every subsystem outside ``keep``.

    Returns the reduced state on the space whose dims are the kept
    subsystems' dims in increasing index order. The state is traced from its
    amplitudes in at most d_keep * D memory; |psi><psi| is never formed,
    and the result has the same bits as tracing that outer product.
    """
    keep_dims, rest_dims = _factor_dims(keep, psi.space)
    d_keep = math.prod(keep_dims)
    m = psi.space.n_subsystems
    rest = keep.complement(m)
    amps = np.moveaxis(psi.amplitudes.reshape(psi.space.dims),
                       rest + keep.indices, range(m))
    amps = amps.reshape(rest_dims + (d_keep,))
    # The products psi_i conj(psi_j) that the outer product holds, one
    # d_keep x d_keep block per rest index, are formed and summed in chunks
    # of at most _TRACE_CHUNK entries over the leading rest indices, so each
    # chunk stays in cache.
    rows = _TRACE_CHUNK // d_keep**2
    lead = 0
    while lead < len(rest) and math.prod(rest_dims[lead:]) > rows:
        lead += 1
    # Each leading rest axis has one running sum, begun from +0.0 at its
    # index 0 and added to in index order; a finished sum is added into the
    # running sum of the axis before it. These are the additions _sum_out
    # makes over the leading axes, with one block per axis held instead of
    # one per leading index.
    sums = [None] * lead
    for index in np.ndindex(*rest_dims[:lead]):
        chunk = amps[index]
        products = chunk[..., :, None] * chunk[..., None, :].conj()
        block = _sum_out(products, len(rest) - lead)
        for axis in reversed(range(lead)):
            if index[axis] == 0:
                sums[axis] = block + 0.0
            else:
                sums[axis] += block
            if index[axis] + 1 < rest_dims[axis]:
                break
            block, sums[axis] = sums[axis], None
    # Free the work arrays before validation allocates its own.
    del chunk, products
    return DensityMatrix(TensorSpace(keep_dims), block)


def _sum_out(t: np.ndarray, count: int) -> np.ndarray:
    """Sum out the ``count`` axes before the last two of ``t``, the last one
    first, each slice by slice in index order from +0.0: the additions that
    np.trace makes when it traces the outer product."""
    for _ in range(count):
        acc = t[..., 0, :, :] + 0.0
        for k in range(1, t.shape[-3]):
            acc += t[..., k, :, :]
        t = acc
    return t


def _factor_dims(neighborhood: Neighborhood, space: TensorSpace, block=None):
    """Dims of the neighborhood's subsystems, then of the others (the layout of
    ``kron(block, identity)``). Raises if the neighborhood or ``block`` does not fit."""
    n = space.n_subsystems
    if neighborhood.indices[-1] >= n:
        raise DimensionMismatchError(
            f"neighborhood {neighborhood.indices} does not fit a {n}-subsystem space"
        )
    hood_dims = space.subspace_dims(neighborhood.indices)
    d_block = math.prod(hood_dims)
    if block is not None and block.shape != (d_block, d_block):
        raise DimensionMismatchError(
            f"block shape {block.shape} does not match neighborhood dimension {d_block}"
        )
    return hood_dims, space.subspace_dims(neighborhood.complement(n))


def _to_global(t: np.ndarray, neighborhood: Neighborhood, offset: int = 0):
    """Reorder the subsystem axes of ``t`` that start at ``offset`` from
    neighborhood first (each group in increasing index order) to subsystem
    order; axes before and after them keep their places."""
    hood = neighborhood.indices
    return np.moveaxis(t, range(offset, offset + len(hood)), [offset + a for a in hood])


def apply_local(op: QLOperator, space: TensorSpace, vectors: np.ndarray) -> np.ndarray:
    """Return ``embed(op, space) @ vectors`` without forming the D x D matrix.

    ``vectors`` is a (D,) vector or a (D, k) block of columns. The block is
    contracted against the neighborhood's subsystem axes only; this is the
    one kernel that applies a neighborhood operator on the full space.
    """
    hood_dims, _ = _factor_dims(op.neighborhood, space, op.block)
    vectors = np.asarray(vectors)
    if vectors.ndim not in (1, 2) or vectors.shape[0] != space.dim:
        raise DimensionMismatchError(
            f"expected {space.dim} rows of vectors, got shape {vectors.shape}"
        )
    m = len(hood_dims)
    t = np.tensordot(
        op.block.reshape(hood_dims * 2),
        vectors.reshape(space.dims + vectors.shape[1:]),
        axes=(range(m, 2 * m), op.neighborhood.indices),
    )
    return _to_global(t, op.neighborhood).reshape(vectors.shape)


def embed(op: QLOperator, space: TensorSpace) -> np.ndarray:
    """Extend a neighborhood block to the full space by identity elsewhere.

    The result acts as ``op.block`` on the neighborhood factor and as the
    identity on every other subsystem, respecting the global big-endian
    subsystem ordering (a permuted Kronecker product for non-contiguous
    neighborhoods). Only for callers that need the dense D x D matrix
    itself; :func:`apply_local` applies the operator to vectors.
    """
    hood_dims, rest_dims = _factor_dims(op.neighborhood, space, op.block)
    full = np.kron(op.block, np.eye(math.prod(rest_dims), dtype=complex))
    t = full.reshape((hood_dims + rest_dims) * 2)
    t = _to_global(_to_global(t, op.neighborhood), op.neighborhood, space.n_subsystems)
    return np.ascontiguousarray(t.reshape(space.dim, space.dim))


def embed_sum(ops: Iterable[QLOperator], space: TensorSpace) -> np.ndarray:
    """The dense sum of ``embed(op, space)`` over ``ops``, formed in place.

    Each block is added, in operator order, into a strided view of one zero
    D x D matrix: the view's axes are the neighborhood's row and column
    subsystems and, for every other subsystem, its diagonal. No embedded
    matrix is formed. Every entry receives the nonzero additions of the
    ``embed`` sum in the same order, and the zeros ``embed`` adds leave a
    sum that starts at +0.0 unchanged, so the result has the same bits.
    Raises as :func:`embed` does for an operator that does not fit.
    """
    n = space.n_subsystems
    total = np.zeros((space.dim, space.dim), dtype=complex)
    grid = total.reshape(space.dims * 2)
    row_strides, col_strides = grid.strides[:n], grid.strides[n:]
    for op in ops:
        hood_dims, rest_dims = _factor_dims(op.neighborhood, space, op.block)
        hood, rest = op.neighborhood.indices, op.neighborhood.complement(n)
        strides = ([row_strides[a] for a in hood] + [col_strides[a] for a in hood]
                   + [row_strides[a] + col_strides[a] for a in rest])
        view = np.lib.stride_tricks.as_strided(
            grid, hood_dims * 2 + rest_dims, strides, writeable=True
        )
        view += op.block.reshape(hood_dims * 2 + (1,) * len(rest))
    return total


def embed_frame(
    frame: np.ndarray, neighborhood: Neighborhood, space: TensorSpace
) -> np.ndarray:
    """Embed columns on a neighborhood factor as columns on the full space.

    Maps a (neighborhood-dim x k) frame to the (D x k*d_rest) frame whose
    span is (span of frame) tensor (everything on the other subsystems).
    Orthonormal input columns stay orthonormal.
    """
    hood_dims, rest_dims = _factor_dims(neighborhood, space)
    d_block = math.prod(hood_dims)
    frame = _as_complex_matrix(frame)
    if frame.ndim != 2 or frame.shape[0] != d_block:
        raise DimensionMismatchError(
            f"frame has {frame.shape[0]} rows, neighborhood dimension is {d_block}"
        )
    full = np.kron(frame, np.eye(math.prod(rest_dims), dtype=complex))
    t = _to_global(full.reshape(hood_dims + rest_dims + full.shape[1:]), neighborhood)
    return np.ascontiguousarray(t.reshape(space.dim, full.shape[1]))
