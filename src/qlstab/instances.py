"""JSON wire formats: problem instances and operator matrix files.

A problem instance carries the subsystem dimensions, the target state
(either a named factory or an explicit amplitude list), the neighborhoods,
and optional tolerance / gains-policy overrides. Complex numbers are always
[re, im] pairs; subsystem indices are 0-based.

Example instance::

    {
      "dims": [2, 2, 2, 2],
      "state": "psi_t",
      "neighborhoods": [[0, 1, 2], [1, 2, 3]],
      "tolerance": 1e-10,
      "gains_policy": "uniform"
    }

``state`` may be a name ("ghz", "w", "psi_t"), an object such as
{"name": "graph", "edges": [[0, 1], [1, 2]]}, or a list of [re, im]
amplitude pairs of length prod(dims), bare or as the object
{"amplitudes": [[re, im], ...]}.

Operator matrix files are {"meta": {...}, "matrix": [[[re, im], ...], ...]},
named ``{stem}_{k:02d}.json`` in operator order (``parent_term``,
``noise_op``); this module owns their names, keys, writing and reading back.
``parent_total.json`` holds the one dense D x D matrix: the parent
Hamiltonian's terms summed in place by :func:`~qlstab.tensor.embed_sum`,
whose +0.0 entries, most of it, are written from one fixed token.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .tensor import (
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    embed_sum,
    make_dicke_4_2,
    make_ghz,
    make_graph_state,
    make_w,
)

__all__ = [
    "InstanceFormatError",
    "ProblemInstance",
    "parse_instance",
    "load_instance",
    "pairs_to_array",
    "parse_tolerance",
    "write_operator_file",
    "read_operator_file",
    "write_parent_hamiltonian",
    "write_noise_operators",
    "read_noise_operators",
]


class InstanceFormatError(ValueError):
    """The instance or matrix file is structurally malformed."""


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Parsed problem data ready for the analysis pipeline."""

    state: PureState
    pattern: LocalityPattern
    tolerance: float | None
    gains_policy: str
    gain_scale: float | None
    state_label: str

    @property
    def space(self) -> TensorSpace:
        return self.pattern.space


def pairs_to_array(pairs: Any, what: str = "value") -> np.ndarray:
    """Convert nested [re, im] pairs to a complex array (1-D or 2-D).

    Every entry must be a number; booleans and numeric strings, which numpy
    would silently convert, are malformed.
    """
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{what}: expected [re, im] pairs: {exc}") from exc
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise InstanceFormatError(
            f"{what}: expected [re, im] pairs, got shape {arr.shape}"
        )
    leaves = np.asarray(pairs, dtype=object)
    # One pass over the leaf types; JSON numbers are int or float. Any other
    # type gets the per-leaf check, which names the first offending leaf.
    if not set(map(type, leaves.flat)) <= {float, int}:
        for leaf in leaves.flat:
            _number(leaf, what)
    # Assigned, not summed as re + 1j * im, which turns -0.0 into 0.0.
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out


def _require(data: dict, key: str):
    if key not in data:
        raise InstanceFormatError(f"instance is missing the required key {key!r}")
    return data[key]


def _integer(value: Any, what: str) -> int:
    """An int or an integral float; booleans and everything else are malformed."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise InstanceFormatError(f"{what}: expected an integer, got {value!r}")
    return int(value)


def _number(value: Any, what: str) -> None:
    """Reject booleans, strings and everything else that is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InstanceFormatError(f"{what}: expected a number, got {value!r}")


def _finite(value: Any, what: str) -> float:
    """A finite real number; booleans, strings and NaN or infinities are malformed."""
    _number(value, what)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InstanceFormatError(f"{what} must be finite, got {value!r}")
    return number


def parse_tolerance(value: Any) -> float:
    """A support tolerance: a finite number strictly between 0 and 1."""
    tolerance = _finite(value, "tolerance")
    if not 0.0 < tolerance < 1.0:
        raise InstanceFormatError("tolerance must lie strictly between 0 and 1")
    return tolerance


def _neighborhood(entry: Any) -> Neighborhood:
    """A neighborhood from a JSON list of distinct subsystem indices."""
    if not isinstance(entry, list):
        raise InstanceFormatError(f"malformed neighborhood {entry!r}: not a list")
    indices = tuple(_integer(a, "neighborhood index") for a in entry)
    try:
        return Neighborhood(indices)
    except ValueError as exc:
        raise InstanceFormatError(f"malformed neighborhood {entry!r}: {exc}") from exc


def _build_state(space: TensorSpace, descriptor: Any) -> tuple[PureState, str]:
    dims = space.dims
    n = space.n_subsystems

    def require_qubits(name: str):
        if any(d != 2 for d in dims):
            raise DimensionMismatchError(
                f"state {name!r} needs all subsystem dimensions equal to 2, "
                f"got {list(dims)}"
            )

    if isinstance(descriptor, str):
        name, extra = descriptor, {}
    elif isinstance(descriptor, dict):
        if "amplitudes" in descriptor:
            return _explicit_state(space, descriptor["amplitudes"]), "amplitudes"
        name = descriptor.get("name")
        if not isinstance(name, str):
            raise InstanceFormatError("state object needs a string 'name' field")
        extra = descriptor
    elif isinstance(descriptor, list):
        return _explicit_state(space, descriptor), "amplitudes"
    else:
        raise InstanceFormatError(f"unsupported state descriptor {descriptor!r}")

    if name == "ghz":
        require_qubits(name)
        return make_ghz(n), name
    if name == "w":
        require_qubits(name)
        return make_w(n), name
    if name == "psi_t":
        if dims != (2, 2, 2, 2):
            raise DimensionMismatchError(
                f"state 'psi_t' is a 4-qubit state; dims are {list(dims)}"
            )
        return make_dicke_4_2(), name
    if name == "graph":
        require_qubits(name)
        edges = extra.get("edges")
        if edges is None:
            raise InstanceFormatError("graph state needs an 'edges' list")
        try:
            edge_pairs = [(_integer(u, "edge"), _integer(v, "edge")) for u, v in edges]
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"malformed edge list: {exc}") from exc
        return make_graph_state(n, edge_pairs), name
    raise InstanceFormatError(
        f"unknown state name {name!r} (use ghz, w, graph, psi_t, or amplitudes)"
    )


def _explicit_state(space: TensorSpace, amplitudes: Any) -> PureState:
    amps = pairs_to_array(amplitudes, "state amplitudes")
    if amps.ndim != 1:
        raise InstanceFormatError("state amplitudes must be a flat list of pairs")
    if amps.size != space.dim:
        raise DimensionMismatchError(
            f"amplitude list has length {amps.size}, but prod(dims) is {space.dim}"
        )
    try:
        return PureState(space, amps)
    except ValueError as exc:
        raise InstanceFormatError(f"invalid state amplitudes: {exc}") from exc


def parse_instance(data: Any) -> ProblemInstance:
    """Validate raw JSON data and construct the typed problem instance.

    Structural problems raise :class:`InstanceFormatError`; size and index
    inconsistencies raise :class:`DimensionMismatchError` so callers can
    distinguish the two failure classes. Integer fields (dims, neighborhood
    indices, graph edges) accept integers and integral floats only, and
    ``tolerance`` and ``gain_scale`` must be finite numbers.
    """
    if not isinstance(data, dict):
        raise InstanceFormatError("instance must be a JSON object")
    raw_dims = _require(data, "dims")
    if not isinstance(raw_dims, list):
        raise InstanceFormatError("dims must be a list of integers")
    dims = tuple(_integer(d, "dims") for d in raw_dims)
    # The one translation site: any other ValueError from the tensor layer
    # (a dimension rule, a factory's argument or size) is a malformed instance.
    try:
        space = TensorSpace(dims)
        state, label = _build_state(space, _require(data, "state"))
    except (InstanceFormatError, DimensionMismatchError):
        raise
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc

    raw_hoods = _require(data, "neighborhoods")
    if not isinstance(raw_hoods, list) or not raw_hoods:
        raise InstanceFormatError("neighborhoods must be a non-empty list of lists")
    hoods = tuple(_neighborhood(entry) for entry in raw_hoods)
    pattern = LocalityPattern(space, hoods)

    tolerance = data.get("tolerance")
    if tolerance is not None:
        tolerance = parse_tolerance(tolerance)

    gains_policy = data.get("gains_policy", "uniform")
    if gains_policy not in ("uniform", "graded"):
        raise InstanceFormatError(
            f"unknown gains_policy {gains_policy!r} (use 'uniform' or 'graded')"
        )
    gain_scale = data.get("gain_scale")
    if gain_scale is not None:
        gain_scale = _finite(gain_scale, "gain_scale")
        if gain_scale <= 0.0:
            raise InstanceFormatError("gain_scale must be strictly positive")
    return ProblemInstance(state, pattern, tolerance, gains_policy, gain_scale, label)


def load_instance(path: str | Path) -> ProblemInstance:
    """Read and parse an instance file; JSON errors keep their location info."""
    text = Path(path).read_text()
    data = json.loads(text)
    return parse_instance(data)


# An entry of +0.0 real and imaginary parts, as write_operator_file renders it.
_ZERO_PAIR = "0.0,\n    0.0"
# Entries, in whole rows, that write_operator_file renders at a time.
_RENDER_CHUNK = 2**12


def write_operator_file(path: str | Path, matrix: np.ndarray, meta: dict) -> None:
    """Write ``{"meta": meta, "matrix": [[[re, im], ...], ...]}``.

    The bytes equal ``json.dumps(payload, indent=1) + "\\n"``. Only ``meta``
    goes through the encoder; the matrix is rendered a few rows
    (``_RENDER_CHUNK`` entries) at a time, so no temporary grows with the
    matrix. An entry whose real and imaginary parts are both +0.0 is the one
    fixed token ``_ZERO_PAIR``; every other float goes through
    ``float.__repr__``, as the encoder formats finite floats, so -0.0 keeps
    its sign.

    Raises:
        ValueError: if the matrix is not two-dimensional and non-empty.
        ArithmeticError: if an entry is NaN or infinite (which
            :func:`read_operator_file` rejects); no file is opened.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or not matrix.size:
        raise ValueError(
            f"operator matrix must be 2-D and non-empty, got shape {matrix.shape}"
        )
    if not np.isfinite(matrix).all():
        raise ArithmeticError(f"{path}: operator matrix entries must be finite")
    # '{\n "meta": ...\n}' without its closing '\n}'.
    head = json.dumps({"meta": meta}, indent=1)[:-2]
    with open(path, "w") as out:
        out.write(head + ',\n "matrix": [')
        separator = "\n"
        width = matrix.shape[1]
        step = max(1, _RENDER_CHUNK // width)
        for start in range(0, len(matrix), step):
            pairs = _pair_texts(matrix[start:start + step].ravel())
            for k in range(0, len(pairs), width):
                # Rows sit at depth 2, [re, im] pairs at depth 3, floats at depth 4.
                body = "\n   ],\n   [\n    ".join(pairs[k:k + width])
                out.write(f"{separator}  [\n   [\n    {body}\n   ]\n  ]")
                separator = ",\n"
        out.write("\n ]\n}\n")


def _pair_texts(values: np.ndarray) -> list[str]:
    """The text inside the [re, im] pair of each entry of the 1-D ``values``:
    ``_ZERO_PAIR`` where both parts are +0.0 (every bit zero), otherwise
    each float by ``float.__repr__``."""
    rep = float.__repr__
    nonzero = np.flatnonzero(values.real.view(np.uint64) | values.imag.view(np.uint64))
    dense = len(nonzero) == len(values)
    picked = values if dense else values[nonzero]
    texts = map(",\n    ".join, zip(map(rep, picked.real.tolist()),
                                     map(rep, picked.imag.tolist())))
    if dense:
        return list(texts)
    pairs = [_ZERO_PAIR] * len(values)
    for k, text in zip(nonzero.tolist(), texts):
        pairs[k] = text
    return pairs


def read_operator_file(path: str | Path) -> tuple[np.ndarray, dict]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "matrix" not in data:
        raise InstanceFormatError(f"{path}: not an operator file (no 'matrix' key)")
    matrix = pairs_to_array(data["matrix"], "matrix")
    if matrix.ndim != 2:
        raise InstanceFormatError(f"{path}: matrix must be two-dimensional")
    if not np.isfinite(matrix).all():
        raise InstanceFormatError(f"{path}: matrix entries must be finite")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise InstanceFormatError(f"{path}: 'meta' must be an object")
    return matrix, meta


def _write_operators(directory: Path, stem, kind, operators, extras, dims) -> list[str]:
    """Write ``{stem}_{k:02d}.json`` per operator into ``directory``, creating it;
    the metadata keys are kind, neighborhood, the keys of ``extras[k]``, dims.
    Then delete every other ``{stem}_<digits>.json`` there, so that an earlier,
    longer write leaves no operator behind for a reader of the directory."""
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for k, (op, extra) in enumerate(zip(operators, extras)):
        path = directory / f"{stem}_{k:02d}.json"
        hood = list(op.neighborhood.indices)
        meta = {"kind": kind, "neighborhood": hood, **extra, "dims": list(dims)}
        write_operator_file(path, op.block, meta)
        files.append(str(path))
    for path in _numbered_files(directory, stem):
        if str(path) not in files:
            path.unlink()
    return files


def _numbered_files(directory: Path, stem: str) -> list[Path]:
    """The ``{stem}_<digits>.json`` files in ``directory``, in name order."""
    numbered = re.compile(rf"{stem}_[0-9]+\.json")
    paths = directory.glob(f"{stem}_*.json")
    return sorted(p for p in paths if numbered.fullmatch(p.name))


def write_parent_hamiltonian(
    directory: str | Path, space: TensorSpace, terms
) -> list[str]:
    """Write the parent Hamiltonian ``terms`` on ``space`` as one
    ``parent_term_{k:02d}.json`` per term, then ``parent_total.json``: the
    dense sum of the embedded terms, formed here and only here, in place by
    :func:`~qlstab.tensor.embed_sum`."""
    directory, dims = Path(directory), space.dims
    extras = [{}] * len(terms)
    kind = "parent_hamiltonian_term"
    files = _write_operators(directory, "parent_term", kind, terms, extras, dims)
    total = embed_sum(terms, space)
    path = directory / "parent_total.json"
    meta = {"kind": "parent_hamiltonian_total", "dims": list(dims)}
    write_operator_file(path, total, meta)
    return files + [str(path)]


def write_noise_operators(
    directory: str | Path, operators, gains, policy: str, dims
) -> list[str]:
    """Write one ``noise_op_{k:02d}.json`` per operator, with its gains (one
    tuple per operator) and ``policy``."""
    extras = [{"gains": list(g), "gains_policy": policy} for g in gains]
    kind = "noise_operator"
    return _write_operators(Path(directory), "noise_op", kind, operators, extras, dims)


def read_noise_operators(directory: str | Path) -> list[QLOperator]:
    """The operators of the ``noise_op_<digits>.json`` files in ``directory``,
    the names :func:`write_noise_operators` writes, in name order; other files
    are ignored. A malformed file raises :class:`InstanceFormatError` naming
    it."""
    paths = _numbered_files(Path(directory), "noise_op")
    if not paths:
        raise InstanceFormatError(f"no noise_op_<digits>.json files in {directory}")
    operators = []
    for path in paths:
        matrix, meta = read_operator_file(path)
        if meta.get("neighborhood") is None:
            raise InstanceFormatError(f"{path}: missing 'neighborhood' metadata")
        try:
            hood = _neighborhood(meta["neighborhood"])
        except InstanceFormatError as exc:
            raise InstanceFormatError(f"{path}: {exc}") from exc
        operators.append(QLOperator(hood, matrix))
    return operators
