"""Multipartite tensor algebra: states, neighborhoods, local operators, partial traces.

Value types for composite finite-dimensional quantum systems, factories for
the standard entangled fixture states, and partial traces. One kernel,
:func:`apply_local`, applies a neighborhood operator to full-space vectors;
:func:`embed` forms the dense D x D matrix only for callers that need it.

Composite basis indexing is big-endian: subsystem 0 is the most significant
digit of a computational-basis index, matching the ordering produced by
``numpy.kron``. All subsystem indices are 0-based.

Every value is immutable after construction and every operation is a pure
function, so everything in this module is safe to use concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-9
HERM_TOL = 1e-9
PSD_TOL = 1e-9

__all__ = [
    "NORM_TOL",
    "HERM_TOL",
    "PSD_TOL",
    "DimensionMismatchError",
    "CoverageWarning",
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
    "basis_state",
    "random_pure_state",
    "random_density_matrix",
    "apply_local_unitary",
    "apply_local",
    "partial_trace",
    "embed",
    "embed_frame",
]


class DimensionMismatchError(ValueError):
    """Operands live on incompatible spaces or have inconsistent shapes."""


class CoverageWarning(UserWarning):
    """A locality pattern leaves some subsystems outside every neighborhood."""


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
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {nrm!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(
            self.space, np.outer(self.amplitudes, self.amplitudes.conj())
        )

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.space != other.space:
            raise DimensionMismatchError("states live on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a space.

    Tolerances are per-instance so that integrator snapshots, which carry
    discretization error, can be validated against looser bounds than
    freshly constructed states. The matrix is stored exactly as given;
    nothing is symmetrized or renormalized silently.
    """

    space: TensorSpace
    matrix: np.ndarray = field(repr=False)
    herm_tol: InitVar[float] = HERM_TOL
    trace_tol: InitVar[float] = NORM_TOL
    psd_tol: InitVar[float] = PSD_TOL

    def __post_init__(self, herm_tol, trace_tol, psd_tol):
        d = self.space.dim
        mat = _as_complex_matrix(self.matrix, (d, d))
        asym = np.max(np.abs(mat - mat.conj().T))
        if not asym <= herm_tol:
            raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e}")
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= trace_tol:
            raise ValueError(f"trace {tr!r} is not 1 within {trace_tol}")
        lam_min = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
        if not lam_min >= -psd_tol:
            raise ValueError(f"matrix has negative eigenvalue {lam_min:.3e}")
        object.__setattr__(self, "matrix", _freeze(mat))


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
    """A fixed quasi-locality constraint: the list of allowed neighborhoods."""

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
        unc = self.uncovered()
        if unc:
            warnings.warn(
                f"subsystems {list(unc)} are not covered by any neighborhood; "
                "the stabilizability test is still well defined but generic "
                "entangled targets cannot pass",
                CoverageWarning,
                stacklevel=2,
            )

    def uncovered(self) -> tuple[int, ...]:
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
    idx = np.arange(2**n)
    signs = np.zeros(2**n, dtype=np.int64)
    for u, v in edge_list:
        bit_u = (idx >> (n - 1 - u)) & 1
        bit_v = (idx >> (n - 1 - v)) & 1
        signs += bit_u * bit_v
    amps = np.where(signs % 2 == 0, 1.0, -1.0).astype(complex) / 2 ** (n / 2.0)
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


def basis_state(space: TensorSpace, index: int) -> PureState:
    """Computational basis state with the given big-endian composite index."""
    if not (0 <= index < space.dim):
        raise ValueError(f"basis index {index} out of range for dim {space.dim}")
    amps = np.zeros(space.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(space, amps)


def random_pure_state(space: TensorSpace, rng: np.random.Generator) -> PureState:
    """Haar-uniform pure state: normalized complex Gaussian vector."""
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return PureState(space, v / np.linalg.norm(v))


def random_density_matrix(
    space: TensorSpace, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random mixed state from a normalized Wishart-style construction."""
    d = space.dim
    r = d if rank is None else int(rank)
    if not (1 <= r <= d):
        raise ValueError(f"rank must be in 1..{d}, got {r}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
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
        if defect > HERM_TOL:
            raise ValueError(
                f"matrix for subsystem {a} is not unitary (defect {defect:.3e})"
            )
        v = apply_local(QLOperator(Neighborhood((a,)), u), psi.space, v)
    return PureState(psi.space, v)


def partial_trace(rho: DensityMatrix | PureState, keep: Neighborhood) -> DensityMatrix:
    """Trace out every subsystem outside ``keep``.

    Returns the reduced state on the space whose dims are the kept
    subsystems' dims in increasing index order. A pure state is traced as
    its outer product, without validating that D x D matrix.
    """
    keep_dims, _ = _factor_dims(keep, rho.space)
    pure = isinstance(rho, PureState)
    matrix = np.outer(rho.amplitudes, rho.amplitudes.conj()) if pure else rho.matrix
    t = matrix.reshape(rho.space.dims * 2)
    m = rho.space.n_subsystems
    for a in sorted(keep.complement(m), reverse=True):
        t = np.trace(t, axis1=a, axis2=a + m)
        m -= 1
    d_keep = math.prod(keep_dims)
    reduced = np.ascontiguousarray(t.reshape(d_keep, d_keep))
    return DensityMatrix(TensorSpace(keep_dims), reduced)


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
