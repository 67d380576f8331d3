"""Instance parsing: any JSON-like value parses or fails with a format error."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qlstab.instances import InstanceFormatError, ProblemInstance, parse_instance
from qlstab.tensor import DimensionMismatchError

# Scalars a JSON document can hold that are never a valid integer.
ODD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None, "2", ""]),
    st.booleans(),
    st.floats(-5, 5).filter(lambda x: not x.is_integer()),
)
SMALL_INT = st.one_of(st.integers(-1, 4), st.sampled_from([2.0, 3.0]))
SCALAR = st.one_of(SMALL_INT, ODD)
NESTED = st.recursive(ODD, lambda inner: st.lists(inner, max_size=3), max_leaves=6)

# At most three entries up to 4, or at most six qubits: prod(dims) <= 64, so
# no named state allocates more than 64 amplitudes.
DIMS = st.one_of(
    st.lists(st.sampled_from([2, 3, 2.0]), min_size=1, max_size=3),
    st.lists(st.sampled_from([2, 2.0]), min_size=4, max_size=6),
    st.lists(SCALAR, max_size=3),
    NESTED,
)
PAIR = st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans()),
    min_size=1,
    max_size=3,
)
AMPLITUDES = st.one_of(
    st.lists(PAIR, max_size=8),
    st.integers(1, 16).map(lambda k: [[1.0, 0.0]] + [[0.0, 0.0]] * (k - 1)),
    NESTED,
)
STATE = st.one_of(
    st.sampled_from(["ghz", "w", "psi_t", "graph", "bell"]),
    st.fixed_dictionaries(
        {"name": st.sampled_from(["graph", "ghz"])},
        optional={"edges": st.one_of(st.lists(st.lists(SCALAR, max_size=3)), NESTED)},
    ),
    st.fixed_dictionaries({"amplitudes": AMPLITUDES}),
    AMPLITUDES,
)
INDICES = st.lists(st.integers(0, 5), min_size=1, max_size=3)
HOODS = st.one_of(
    st.lists(INDICES, min_size=1, max_size=4),
    st.lists(st.lists(SCALAR, min_size=1, max_size=3), max_size=4),
    NESTED,
)
OPTIONAL = {
    "tolerance": st.one_of(SCALAR, st.floats(), NESTED),
    "gains_policy": st.one_of(st.sampled_from(["uniform", "graded", "steep"]), NESTED),
    "gain_scale": st.one_of(SCALAR, st.floats(), NESTED),
}
KEYS = {"dims": DIMS, "state": STATE, "neighborhoods": HOODS, **OPTIONAL}
# A valid GHZ chain with optional keys added, or with one key replaced.
NEAR_VALID = st.tuples(
    st.integers(2, 6).map(
        lambda n: {
            "dims": [2] * n,
            "state": "ghz",
            "neighborhoods": [[i, i + 1] for i in range(n - 1)],
        }
    ),
    st.one_of(
        st.fixed_dictionaries({}, optional=OPTIONAL),
        st.sampled_from(sorted(KEYS)).flatmap(lambda k: KEYS[k].map(lambda v: {k: v})),
    ),
).map(lambda pair: {**pair[0], **pair[1]})
INSTANCES = st.one_of(
    NEAR_VALID,
    st.fixed_dictionaries(
        {"dims": DIMS, "state": STATE, "neighborhoods": HOODS}, optional=OPTIONAL
    ),
    st.fixed_dictionaries({}, optional=KEYS),
    NESTED,
)


@given(INSTANCES)
def test_parse_instance_returns_an_instance_or_a_format_error(data):
    try:
        instance = parse_instance(data)
    except (InstanceFormatError, DimensionMismatchError):
        return
    assert isinstance(instance, ProblemInstance)
    assert np.all(np.isfinite(instance.state.amplitudes))
    for value in (instance.tolerance, instance.gain_scale):
        assert value is None or math.isfinite(value)
