"""Instance parsing: any JSON-like value parses or fails with a format error.
Operator files: the writer's bytes equal the standard-library encoder's, and
reading a file back returns the written matrix bit for bit."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qlstab import instances
from qlstab.analysis import parent_hamiltonian
from qlstab.cli import main
from qlstab.instances import (
    InstanceFormatError,
    ProblemInstance,
    parse_instance,
    read_operator_file,
    write_operator_file,
)
from qlstab.tensor import (
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    QLOperator,
    TensorSpace,
    make_graph_state,
)

from oracles import operator_file_oracle, parent_total_oracle, random_mps

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


# Finite doubles, with the ones whose text is easy to get wrong sampled often:
# signed zeros, subnormals, the switch to exponent notation at 1e16 and
# below 1e-4, and integral values (printed with ".0").
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
               -1e16, 9999999999999998.0, 1e-7, 1e-4, 1.0, -3.0, 1e22, 0.1]
FLOAT = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
SHAPE = st.tuples(st.integers(1, 9), st.integers(1, 9))
# Mostly +0.0 + 0.0j entries, which the writer renders as one fixed token,
# beside the entries it must still render by repr: a signed zero in either
# part or both, subnormals, and any finite pair.
SPARSE_ENTRY = st.one_of(
    st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                     complex(5e-324, 0.0), complex(0.0, -5e-324),
                     complex(-1e-310, -0.0), complex(0.0, 2.5e-320)]),
    st.builds(complex, FLOAT, FLOAT),
)
MATRIX = st.one_of(
    SHAPE.flatmap(
        lambda shape: arrays(np.float64, (*shape, 2), elements=FLOAT)
    ).map(lambda pairs: pairs.view(np.complex128)[..., 0]),
    SHAPE.flatmap(
        lambda shape: arrays(np.complex128, shape, elements=SPARSE_ENTRY, fill=st.just(0j))
    ),
)
META = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        st.one_of(st.integers(-9, 9), FLOAT, st.text(max_size=3), st.booleans()),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=5,
    ),
    max_size=4,
)


@given(MATRIX, META)
def test_operator_file_bytes_equal_the_encoder(tmp_path_factory, matrix, meta):
    path = tmp_path_factory.mktemp("ops") / "op.json"
    write_operator_file(path, matrix, meta)
    assert path.read_bytes() == operator_file_oracle(matrix, meta).encode()


@given(MATRIX)
@example(np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                   [complex(-0.0, -0.0), complex(-0.0, 1.0)]]))
def test_operator_file_round_trip_keeps_every_bit(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("ops") / "op.json"
    write_operator_file(path, matrix, {"kind": "test"})
    back, meta = read_operator_file(path)
    assert meta == {"kind": "test"}
    assert back.shape == matrix.shape
    assert back.tobytes() == matrix.tobytes()


SQUARE_PAIRS = st.integers(1, 4).flatmap(
    lambda d: arrays(np.float64, (d, d, 2), elements=FLOAT)
).map(lambda pairs: pairs.tolist())
HOOD = st.one_of(INDICES, st.lists(SCALAR, max_size=3), NESTED)
# A well-formed file, or one with each key missing or replaced.
OPERATOR_FILE = st.one_of(
    st.fixed_dictionaries(
        {"meta": st.fixed_dictionaries({"neighborhood": INDICES}), "matrix": SQUARE_PAIRS}
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "meta": st.one_of(NESTED, st.fixed_dictionaries({}, optional={"neighborhood": HOOD})),
            "matrix": st.one_of(
                SQUARE_PAIRS, st.lists(st.lists(PAIR, max_size=3), max_size=3), NESTED
            ),
        },
    ),
    NESTED,
)


@given(st.lists(OPERATOR_FILE, max_size=2))
def test_noise_operator_files_read_as_operators_or_fail_as_input(files):
    # The CLI maps both errors to its input exit codes: 2 for a malformed
    # file, 3 for a matrix that is not square.
    with tempfile.TemporaryDirectory() as directory:
        for k, payload in enumerate(files):
            Path(directory, f"noise_op_{k:02d}.json").write_text(json.dumps(payload))
        try:
            operators = instances.read_noise_operators(directory)
        except (InstanceFormatError, DimensionMismatchError):
            return
    assert len(operators) == len(files)
    for op in operators:
        assert isinstance(op, QLOperator)
        assert op.block.ndim == 2 and op.block.shape[0] == op.block.shape[1]
        assert np.isfinite(op.block).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("imaginary", [False, True])
def test_non_finite_matrix_is_refused_before_the_file_opens(tmp_path, bad, imaginary):
    matrix = np.eye(3, dtype=complex)
    matrix[1, 2] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
    path = tmp_path / "op.json"
    with pytest.raises(ArithmeticError, match="must be finite"):
        write_operator_file(path, matrix, {})
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 0), (2, 0), (3,), (1, 1, 1)])
def test_empty_or_non_matrix_is_refused(tmp_path, shape):
    path = tmp_path / "op.json"
    with pytest.raises(ValueError, match="2-D and non-empty"):
        write_operator_file(path, np.zeros(shape, dtype=complex), {})
    assert not path.exists()


def test_matrix_skips_the_encoder_and_the_nested_pairs(tmp_path, monkeypatch):
    dumps = json.dumps

    def meta_only(obj, **kwargs):
        assert "matrix" not in obj
        return dumps(obj, **kwargs)

    monkeypatch.setattr(instances.json, "dumps", meta_only)
    write_operator_file(tmp_path / "op.json", np.eye(4), {"kind": "test"})


def _chain(n):
    return [[i, i + 1] for i in range(n - 1)]


def _mps_amplitudes():
    psi = random_mps((3,) * 5, 2, np.random.default_rng(5))
    return [[z.real, z.imag] for z in psi.amplitudes.tolist()]


CLI_INSTANCES = {
    "cluster7": {"dims": [2] * 7, "state": {"name": "graph", "edges": _chain(7)},
                 "neighborhoods": [[i, i + 1, i + 2] for i in range(5)]},
    # Wrap-around windows such as [0, 4, 5] are not contiguous.
    "ring6": {"dims": [2] * 6,
              "state": {"name": "graph", "edges": _chain(6) + [[5, 0]]},
              "neighborhoods": [sorted({(i - 1) % 6, i, (i + 1) % 6})
                                for i in range(6)]},
    "qutrit_mps5": {"dims": [3] * 5, "state": _mps_amplitudes(),
                    "neighborhoods": [[i, i + 1, i + 2] for i in range(3)]},
    "ghz5": {"dims": [2] * 5, "state": "ghz", "neighborhoods": _chain(5)},
}


@pytest.mark.parametrize("name", sorted(CLI_INSTANCES))
def test_cli_operator_files_equal_the_encoder(tmp_path, monkeypatch, capsys, name):
    written = []
    real_writer = instances.write_operator_file

    def recording_writer(path, matrix, meta):
        written.append((path, np.array(matrix), meta))
        real_writer(path, matrix, meta)

    monkeypatch.setattr(instances, "write_operator_file", recording_writer)
    inst = tmp_path / f"{name}.json"
    inst.write_text(json.dumps(CLI_INSTANCES[name]))
    assert main(["parent-ham", str(inst), "--out", str(tmp_path / "ham")]) == 0
    argv = ["synthesize", str(inst), "--out", str(tmp_path / "ops"), "--force"]
    assert main(argv) == 0
    capsys.readouterr()
    n_hoods = len(CLI_INSTANCES[name]["neighborhoods"])
    assert len(written) == 2 * n_hoods + 1
    for path, matrix, meta in written:
        assert path.read_bytes() == operator_file_oracle(matrix, meta).encode()


def test_writers_take_plain_operator_lists(tmp_path):
    # A list of QLOperator and a list of gain tuples are all the writers
    # read; no analysis or synthesis result is needed.
    rng = np.random.default_rng(4)
    space = TensorSpace((2, 3, 2))
    ops = [
        QLOperator(Neighborhood(hood), rng.standard_normal((d, d))
                   + 1j * rng.standard_normal((d, d)))
        for hood, d in (((0, 1), 6), ((2,), 2))
    ]
    gains = [(1.0, 2.0, 3.0, 4.0, 5.0), (2.5,)]
    files = instances.write_noise_operators(
        tmp_path / "ops", ops, gains, "graded", space.dims
    )
    files += instances.write_parent_hamiltonian(tmp_path / "ham", space, ops)
    dims = list(space.dims)
    expected = [
        (op.block, {"kind": "noise_operator", "neighborhood": list(op.neighborhood.indices),
                    "gains": list(g), "gains_policy": "graded", "dims": dims})
        for op, g in zip(ops, gains)
    ] + [
        (op.block, {"kind": "parent_hamiltonian_term",
                    "neighborhood": list(op.neighborhood.indices), "dims": dims})
        for op in ops
    ] + [
        (parent_total_oracle(SimpleNamespace(space=space, terms=ops)),
         {"kind": "parent_hamiltonian_total", "dims": dims})
    ]
    assert len(files) == len(expected)
    for path, (matrix, meta) in zip(files, expected):
        assert Path(path).read_bytes() == operator_file_oracle(matrix, meta).encode()


def test_parent_total_is_written_within_one_total_of_memory(tmp_path):
    # The total is summed in place and rendered row by row, so at cluster
    # n = 10 (D = 1024) the writer's traced peak stays within 1.25 times
    # the 16 D^2 bytes of the total itself. Summing embedded terms held two
    # more D x D matrices at a time.
    n = 10
    psi = make_graph_state(n, [(i, i + 1) for i in range(n - 1)])
    hoods = tuple(Neighborhood((i, i + 1, i + 2)) for i in range(n - 2))
    ham = parent_hamiltonian(psi, LocalityPattern(psi.space, hoods))
    tracemalloc.start()
    try:
        instances.write_parent_hamiltonian(tmp_path, ham.space, ham.terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 16 * psi.space.dim**2


def _nest(leaves, shape):
    """The flat ``leaves`` as nested lists of ``shape``."""
    for size in reversed(shape[1:]):
        leaves = [leaves[i:i + size] for i in range(0, len(leaves), size)]
    return leaves


def _amplitudes_error(leaves):
    """The message of parsing 8 amplitudes (16 leaves) as a 3-qubit state."""
    data = {"dims": [2, 2, 2], "state": _nest(leaves, (8, 2)),
            "neighborhoods": [[0, 1], [1, 2]]}
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(data)
    return str(info.value)


def _matrix_error(tmp_path, leaves):
    """The message of reading a 3 x 3 operator file (18 leaves)."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"meta": {}, "matrix": _nest(leaves, (3, 3, 2))}))
    with pytest.raises(InstanceFormatError) as info:
        read_operator_file(path)
    return str(info.value)


class TestPairsToArrayLeaves:
    """Amplitude and operator-file leaves are checked by their set of types;
    a leaf that is not an int or a float still gets the message that names
    the first offending leaf in flat order."""

    @staticmethod
    def _messages(tmp_path, bad, where):
        """(what, message) of an amplitude list and of an operator matrix
        whose leaf at ``where`` (first, middle or last) is ``bad``."""
        for size, error, what in ((16, _amplitudes_error, "state amplitudes"),
                                  (18, lambda v: _matrix_error(tmp_path, v), "matrix")):
            leaves = [0.5] * size
            leaves[{"first": 0, "middle": size // 2 - 1, "last": -1}[where]] = bad
            yield what, error(leaves)

    @pytest.mark.parametrize("bad", [True, "1.5", None], ids=["bool", "string", "none"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_bad_leaf_is_named(self, tmp_path, bad, where):
        for what, message in self._messages(tmp_path, bad, where):
            assert message == f"{what}: expected a number, got {bad!r}"

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_nested_list_leaf_is_not_a_pair(self, tmp_path, where):
        for what, message in self._messages(tmp_path, [0.5], where):
            assert message.startswith(
                f"{what}: expected [re, im] pairs: setting an array element with a "
                "sequence."
            )

    def test_first_of_several_bad_leaves_is_named(self, tmp_path):
        leaves = [0.5] * 18
        leaves[3], leaves[9], leaves[17] = None, "2", False
        assert _matrix_error(tmp_path, leaves) == "matrix: expected a number, got None"
        assert _amplitudes_error(leaves[:16]) == (
            "state amplitudes: expected a number, got None"
        )

    def test_int_and_float_leaves_are_accepted(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"matrix": [[[1, 0], [0.5, -2]], [[0, 0.0], [-0.0, 3]]]}))
        matrix, _ = read_operator_file(path)
        assert matrix.tobytes() == np.array(
            [[1, 0.5 - 2j], [0, complex(-0.0, 3)]]
        ).tobytes()
        amps = [[0, 0]] * 7 + [[1, -0.0]]
        state = parse_instance({"dims": [2, 2, 2], "state": amps,
                                "neighborhoods": [[0, 1], [1, 2]]}).state
        assert state.amplitudes.tolist() == [0j] * 7 + [complex(1, -0.0)]

    def test_all_number_leaves_skip_the_per_leaf_check(self, tmp_path, monkeypatch):
        def refuse(value, what):
            raise AssertionError("per-leaf check ran")

        monkeypatch.setattr(instances, "_number", refuse)
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"matrix": _nest([0.25, 1] * 9, (3, 3, 2))}))
        assert read_operator_file(path)[0].shape == (3, 3)
        with pytest.raises(AssertionError, match="per-leaf check ran"):
            instances.pairs_to_array([[0.5, True]])
