"""Properties of the package source itself."""

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qlstab
import qlstab.cli
from qlstab import analysis, dynamics, tensor

from oracles import invariance_oracle

SOURCES = sorted(Path(qlstab.__file__).parent.glob("*.py"))


def test_no_module_imports_warnings():
    # Every diagnostic is a returned note, so no module may reach for the
    # process-global warnings machinery.
    assert SOURCES
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "warnings" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# The package modules each module may import from; None allows any. A layer
# reads only the layers below it, so results cross layers as plain data.
LAYERS = {
    "tensor": set(),
    "subspaces": {"tensor"},
    "instances": {"tensor"},
    "analysis": {"subspaces", "tensor"},
    "synthesis": {"analysis", "subspaces", "tensor"},
    "dynamics": {"subspaces", "tensor"},
    "cli": None,
    "__init__": None,
}


def _internal_imports(path):
    """The package modules that ``path`` imports from by relative import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_modules_import_only_their_lower_layers():
    assert sorted(path.stem for path in SOURCES) == sorted(LAYERS)
    wrong = {
        path.stem: sorted(_internal_imports(path))
        for path in SOURCES
        if LAYERS[path.stem] is not None
        and _internal_imports(path) != LAYERS[path.stem]
    }
    assert wrong == {}


def _module(path):
    return qlstab if path.stem == "__init__" else importlib.import_module(f"qlstab.{path.stem}")


def _public_names(path):
    return getattr(_module(path), "__all__", ())


def test_every_all_entry_resolves():
    # A stale entry breaks ``from qlstab.<module> import *``.
    missing = [
        f"{path.stem}.{name}" for path in SOURCES for name in _public_names(path)
        if not hasattr(_module(path), name)
    ]
    assert missing == []


# The modules whose ``__all__`` the package re-exports, in import order.
REEXPORTED = ("tensor", "subspaces", "analysis", "synthesis", "dynamics")


def test_package_reexports_only_module_public_names():
    exported = {
        name for stem in REEXPORTED
        for name in importlib.import_module(f"qlstab.{stem}").__all__
    }
    reexports = {
        name for name, value in vars(qlstab).items()
        if not name.startswith("_") and not isinstance(value, type(qlstab))
    }
    assert reexports
    assert sorted(reexports ^ exported) == []


def _cross_module_uses(path):
    """(module, name, line) for each name that ``path`` takes from another
    package module: ``from .m import x`` and ``m.x`` where ``from . import m``
    binds ``m``."""
    tree = ast.parse(path.read_text(), str(path))
    bound, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module and alias.name != "*":
                    uses.append((node.module, alias.name, node.lineno))
                elif not node.module and alias.name != "__version__":
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            uses.append((bound[node.value.id], node.attr, node.lineno))
    return uses


def test_modules_use_only_each_others_public_names():
    # ``__all__`` is the one declaration of what a module shares.
    private = [
        f"{path.name}:{line}:{module}.{name}"
        for path in SOURCES
        for module, name, line in _cross_module_uses(path)
        if name not in importlib.import_module(f"qlstab.{module}").__all__
    ]
    assert private == []


def test_no_module_imports_an_unused_name():
    # The package's __init__ exists to re-export, so it is exempt; elsewhere
    # a name counts as used when the code reads it or ``__all__`` lists it.
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_public_names(path))
        unused += [
            f"{path.name}:{line}:{name}" for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def _adjoint_operand(node):
    """X when ``node`` spells X^dag as ``X.conj().T``, ``np.conj(X).T`` or
    ``X.T.conj()``; otherwise None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            if call.func.attr == "conj":
                return call.args[0] if call.args else call.func.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        inner = node.func.value
        if node.func.attr == "conj" and isinstance(inner, ast.Attribute):
            return inner.value if inner.attr == "T" else None
    return None


def _enclosing_functions(tree):
    """Map id(node) -> name of the innermost function that encloses it."""
    enclosing = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing.update((id(node), func.name) for node in ast.walk(func))
    return enclosing


def _adjoint_bindings(tree):
    """Map id(node) -> {name: dump of X} over the names that the innermost
    function enclosing the node assigns X^dag to."""
    bindings = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = {}
            for node in ast.walk(func):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    operand = _adjoint_operand(node.value)
                    if operand is not None:
                        names[node.targets[0].id] = ast.dump(operand)
            bindings.update((id(node), names) for node in ast.walk(func))
    return bindings


def test_only_check_hermitian_computes_the_asymmetry():
    # max |A - A^dag| has one owner, so no Hermiticity check can drift from
    # the NaN-safe comparison in tensor.check_hermitian. A^dag may be spelled
    # out or be a name that the same function assigned it to.
    owners = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        enclosing = _enclosing_functions(tree)
        bindings = _adjoint_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                operand = _adjoint_operand(node.right)
                if operand is not None:
                    adjoint_of = ast.dump(operand)
                elif isinstance(node.right, ast.Name):
                    adjoint_of = bindings.get(id(node), {}).get(node.right.id)
                else:
                    adjoint_of = None
                if adjoint_of is not None and adjoint_of == ast.dump(node.left):
                    owners.append(f"{path.name}:{enclosing.get(id(node), '<module>')}")
    assert owners == ["tensor.py:check_hermitian"]


def test_one_function_notes_a_failed_check_after_a_borderline_call():
    # subspaces.note_or_raise alone decides what a failed rank-dependent
    # check means, so no check can drift from the rule.
    owners = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        enclosing = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and ", after a borderline rank decision" in node.value):
                owners.append(f"{path.name}:{enclosing.get(id(node), '<module>')}")
    assert owners == ["subspaces.py:note_or_raise"]


def test_rank_dependent_checks_raise_only_through_note_or_raise():
    raises = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.stem in ("analysis", "synthesis")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ArithmeticError"
    ]
    assert raises == []


def test_one_analysis_traces_and_sweeps():
    # check_dqls and parent_hamiltonian share analysis._analyse, so a second
    # partial-trace loop or sweep would let their decisions fork again.
    callers = {"_sweep": [], "partial_trace": []}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        enclosing = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in callers:
                callers[name].append(f"{path.name}:{enclosing.get(id(node), '<module>')}")
    assert callers == {
        "_sweep": ["analysis.py:_analyse"],
        "partial_trace": ["analysis.py:_analyse"],
    }


def test_outer_products_only_where_a_density_matrix_is_the_product():
    # A pure target is handled through its amplitudes; |psi><psi| is formed
    # only when a caller asks for the density matrix, and by the spectral
    # certificate, which compares it with the D x D stationary state.
    owners = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        enclosing = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "outer"
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                owners.append(f"{path.name}:{enclosing.get(id(node), '<module>')}")
    assert sorted(owners) == ["dynamics.py:gas_certificate", "tensor.py:density_matrix"]


def test_check_invariance_works_on_the_state_vector(monkeypatch):
    # Six qubits with two dense noise operators and a Hamiltonian: no outer
    # product, basis completion, density matrix or generator evaluation.
    rng = np.random.default_rng(6)
    space = tensor.qubit_space(6)
    d = space.dim
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ops = tuple(
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(2)
    )
    gen = dynamics.LindbladGenerator(space, (raw + raw.conj().T) / 2, ops)
    psi = tensor.random_pure_state(space, rng)
    want = invariance_oracle(gen, psi)

    def refuse(*args, **kwargs):
        raise AssertionError("check_invariance left the state vector")

    monkeypatch.setattr(np, "outer", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(tensor.PureState, "density_matrix", refuse)
    monkeypatch.setattr(dynamics, "apply_generator", refuse)
    diag = dynamics.check_invariance(gen, psi)
    assert not diag.invariant
    for name in ("offdiagonal_residual", "hamiltonian_residual"):
        value = getattr(want, name)
        assert abs(getattr(diag, name) - value) <= 1e-12 * max(1.0, value)


def test_cli_import_leaves_scipy_linalg_unloaded():
    # Only switched_map needs scipy.linalg; every other process would pay
    # its import time and memory for nothing.
    env = dict(os.environ, PYTHONPATH=str(Path(qlstab.__file__).parents[1]))
    probe = "import sys, qlstab.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout == "False\n"


def test_certify_leaves_scipy_unloaded(tmp_path):
    # The certificate needs numpy alone; a scipy import anywhere on this
    # path would add its import time to every certify process.
    env = dict(os.environ, PYTHONPATH=str(Path(qlstab.__file__).parents[1]))
    instance = tmp_path / "dicke.json"
    instance.write_text(json.dumps({
        "dims": [2, 2, 2, 2],
        "state": "psi_t",
        "neighborhoods": [[0, 1, 2], [1, 2, 3]],
    }))
    probe = (
        "import sys, qlstab.cli; code = qlstab.cli.main(['certify', sys.argv[1]]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(instance)], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"
    assert '"certified": true' in out.stdout


def test_benchmark_tracer_installs_on_the_package():
    # The benchmark's tracer rebinds its target names by lookup, so a traced
    # function that is renamed or deleted must fail here, not only in a
    # traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves its module
    try:
        spec.loader.exec_module(module)
        original = tensor.partial_trace
        tracer = module.Tracer()
        tracer.install()
        try:
            assert tensor.partial_trace is not original
            psi = tensor.make_dicke_4_2()
            hoods = (tensor.Neighborhood((0, 1, 2)), tensor.Neighborhood((1, 2, 3)))
            analysis.check_dqls(psi, tensor.LocalityPattern(psi.space, hoods))
        finally:
            tracer.uninstall()
        assert tensor.partial_trace is original
        assert analysis.partial_trace is original
        assert tracer.stats["analysis.check_dqls"].calls == 1
        assert tracer.stats["tensor.partial_trace"].calls == 2
    finally:
        del sys.modules[spec.name]


def _function(path, name):
    tree = ast.parse(path.read_text(), str(path))
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _args_reads(node, attr):
    return [
        sub for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == attr
        and isinstance(sub.value, ast.Name) and sub.value.id == "args"
    ]


def test_each_dynamics_command_decides_its_route_once():
    # simulate picks its runner, mode and trailing keys in one branch on
    # --switched, and certify decides refusal or certificate from one
    # comparison of the dimension with --dim-cap.
    path = Path(qlstab.cli.__file__)
    assert len(_args_reads(_function(path, "_cmd_simulate"), "switched")) == 1
    certify = _function(path, "_cmd_certify")
    comparisons = [
        node for node in ast.walk(certify)
        if isinstance(node, ast.Compare) and _args_reads(node, "dim_cap")
    ]
    assert len(comparisons) == 1


def test_certify_takes_only_its_own_flags():
    # certify only certifies: trajectory evidence is simulate's, so certify
    # has no trajectory flags and cli keeps no evidence threshold.
    parser = qlstab.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def options(command):
        return {o for a in sub.choices[command]._actions for o in a.option_strings}

    common = options("check-dqls")
    assert {"--tolerance", "--output", "--seed"} <= common
    assert options("certify") == common | {"--operators", "--force", "--dim-cap"}
    assert [name for name in vars(qlstab.cli) if name.startswith("EVIDENCE_")] == []


THRESHOLD_SUFFIXES = ("_TOL", "_RTOL", "_LIMIT", "_CAP", "_MARGIN", "_FIDELITY")


def test_every_threshold_constant_has_a_readme_row():
    # Each threshold is one module constant, documented by one row of the
    # README's constant table. Exit codes (cli.EXIT_DIM_CAP) are no threshold.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip() for line in readme.splitlines()
            if line.startswith("| `")}
    constants = [
        f"`{path.stem}.{target.id}`"
        for path in SOURCES
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith(THRESHOLD_SUFFIXES)
        and not target.id.startswith("EXIT_")
    ]
    assert len(constants) >= 17
    assert sorted(set(constants) - rows) == []
