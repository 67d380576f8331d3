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
amplitude pairs of length prod(dims).

Operator matrix files are {"meta": {...}, "matrix": [[[re, im], ...], ...]}.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .tensor import (
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    TensorSpace,
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
    "array_to_pairs",
    "write_operator_file",
    "read_operator_file",
]


class InstanceFormatError(ValueError):
    """The instance or matrix file is structurally malformed."""


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Parsed problem data ready for the analysis pipeline."""

    space: TensorSpace
    state: PureState
    pattern: LocalityPattern
    tolerance: float | None
    gains_policy: str
    gain_scale: float | None
    state_label: str


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
    for leaf in np.asarray(pairs, dtype=object).flat:
        _number(leaf, what)
    return arr[..., 0] + 1j * arr[..., 1]


def array_to_pairs(arr: np.ndarray) -> list:
    """Inverse of :func:`pairs_to_array`."""
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


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
        try:
            return make_w(n), name
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
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
        try:
            return make_graph_state(n, edge_pairs), name
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
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
    except DimensionMismatchError:
        raise
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
    try:
        space = TensorSpace(dims)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc

    state, label = _build_state(space, _require(data, "state"))

    raw_hoods = _require(data, "neighborhoods")
    if not isinstance(raw_hoods, list) or not raw_hoods:
        raise InstanceFormatError("neighborhoods must be a non-empty list of lists")
    hoods = tuple(_neighborhood(entry) for entry in raw_hoods)
    pattern = LocalityPattern(space, hoods)

    tolerance = data.get("tolerance")
    if tolerance is not None:
        tolerance = _finite(tolerance, "tolerance")
        if not (0.0 < tolerance < 1.0):
            raise InstanceFormatError("tolerance must lie strictly between 0 and 1")

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
    return ProblemInstance(
        space, state, pattern, tolerance, gains_policy, gain_scale, label
    )


def load_instance(path: str | Path) -> ProblemInstance:
    """Read and parse an instance file; JSON errors keep their location info."""
    text = Path(path).read_text()
    data = json.loads(text)
    return parse_instance(data)


def write_operator_file(path: str | Path, matrix: np.ndarray, meta: dict) -> None:
    payload = {"meta": meta, "matrix": array_to_pairs(np.asarray(matrix, complex))}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


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
