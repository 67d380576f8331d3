"""Command-line front end with stable exit codes for scripting.

Commands: check-dqls, parent-ham, synthesize, certify, simulate. Reports go
to stdout as JSON (default) or text, with all numerics at 12 significant
digits; operator matrices and trajectory CSVs are written to caller-chosen
paths. Identical instance and seed give bit-identical reports and CSVs,
except for the "timings" section of the report, at a fixed BLAS thread
count; certify's "eigenvalues" inside defective clusters move with it.

Exit codes: 0 success, 2 unparseable input or a simulate flag of the
route not taken, 3 dimension mismatch, 4 refusal to synthesize for an
unstabilizable target, 5 certify above the dense dimension cap (simulate
gives trajectory evidence there) or an array too large to allocate,
6 integrator abort, 7 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, dynamics, subspaces, synthesis
from .instances import (
    InstanceFormatError,
    ProblemInstance,
    load_instance,
    parse_tolerance,
    read_noise_operators,
    write_noise_operators,
    write_parent_hamiltonian,
)
from .tensor import DimensionMismatchError, random_density_matrix, random_pure_state

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NOT_STABILIZABLE = 4
EXIT_DIM_CAP = 5
EXIT_INTEGRATION = 6
EXIT_NUMERICAL = 7

# (exception class, exit code, stderr prefix); the first matching row wins,
# so subclasses come before their bases.
_EXITS = (
    (json.JSONDecodeError, EXIT_PARSE, "malformed JSON: "),
    (InstanceFormatError, EXIT_PARSE, ""),
    (OSError, EXIT_PARSE, ""),
    (argparse.ArgumentError, EXIT_PARSE, ""),
    (DimensionMismatchError, EXIT_DIMENSION, "dimension mismatch: "),
    (synthesis.NotStabilizableError, EXIT_NOT_STABILIZABLE, ""),
    (dynamics.DimensionCapError, EXIT_DIM_CAP, ""),
    (MemoryError, EXIT_DIM_CAP, "out of memory: "),
    (dynamics.IntegrationError, EXIT_INTEGRATION, "integrator aborted: "),
    (ArithmeticError, EXIT_NUMERICAL, "numerical failure: "),
)

__all__ = ["main", "run", "build_parser"]


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

# A report is a tree of dicts, lists and scalars. Every float is rounded to
# 12 significant digits, float(f"{v:.12g}"); NaN and infinities become the
# strings "nan", "inf" and "-inf"; complex numbers are [re, im] pairs; tuples
# and arrays are lists. JSON output is json.dumps(indent=2) of that rounded
# tree, so a float prints as float.__repr__ of its rounded value. Text output
# prints a float as f"{v:.12g}", which a 12-digit value survives unchanged.
# Float and complex arrays are rendered row by row without building the
# rounded tree for them: each row's floats (a complex row's through its
# interleaved real view) are formatted by "%.12g" in one %-operation.


def _tree(value):
    """The rounded report tree, with float and complex arrays of rank >= 1
    left as arrays for the renderers."""
    if isinstance(value, np.ndarray) and value.ndim and value.dtype.kind in "fc":
        return value
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else str(value)
    if isinstance(value, complex):
        return [_tree(value.real), _tree(value.imag)]
    if isinstance(value, dict):
        return {k: _tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_tree(v) for v in value]
    return value


def _floats(row: np.ndarray) -> tuple[float, ...]:
    """The values of a 1-D float array, or the real and imaginary parts,
    interleaved, of a complex one."""
    if row.dtype.kind == "c":
        row = np.ascontiguousarray(row).view(row.real.dtype)
    return tuple(row.tolist())


def _json_numbers(row: np.ndarray) -> list[str]:
    """JSON tokens of the values of a 1-D float or complex array (interleaved).

    The tokens are f"{v:.12g}". One in positional form with a fraction already
    equals float.__repr__ of its rounded value; integral and exponent-form
    tokens ("0", "-0", "1e-05") are passed through float and repr.
    """
    values = _floats(row)
    tokens = ("%.12g " * len(values) % values).split()
    if not np.isfinite(row).all():
        return [json.dumps(_tree(float(t))) for t in tokens]
    return [t if "." in t and "e" not in t else repr(float(t)) for t in tokens]


def _json(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` of a rounded tree, entered at ``depth``."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json(v, depth + 1)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, list) or (isinstance(value, np.ndarray) and value.ndim > 1):
        items = [_json(v, depth + 1) for v in value]
        brackets = "[]"
    elif isinstance(value, np.ndarray):
        items = _json_numbers(value)
        if value.dtype.kind == "c" and items:
            # Each complex entry is a [re, im] list one level deeper; all are
            # filled in by one %-operation.
            pair = f"[{inner}  %s,{inner}  %s{inner}]"
            items = [("," + inner).join([pair] * len(value)) % tuple(items)]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{'  ' * depth}{brackets[1]}"


def _text(value, indent: int = 0) -> list[str]:
    """Text lines of a rounded tree: "key: value" and "- item" lines, each
    nested dict or list indented two spaces under its own "key:" or "-" line.
    A line may hold several joined lines."""
    pad = "  " * indent
    if isinstance(value, dict):
        entries = [(f"{pad}{k}:", v) for k, v in value.items()]
    elif isinstance(value, list) or (isinstance(value, np.ndarray) and value.ndim > 1):
        entries = [(f"{pad}-", v) for v in value]
    else:
        # A 1-D array: one line per float, or three per complex entry,
        # filled in by one %-operation.
        if value.dtype.kind == "f":
            entry = f"{pad}- %.12g"
        else:
            entry = f"{pad}-\n{pad}  - %.12g\n{pad}  - %.12g"
        return ["\n".join([entry] * len(value)) % _floats(value)] if len(value) else []
    lines: list[str] = []
    for head, v in entries:
        if isinstance(v, (dict, list, np.ndarray)):
            lines.append(head)
            lines.extend(_text(v, indent + 1))
        else:
            lines.append(f"{head} {_scalar_text(v)}")
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(report: dict, fmt: str) -> None:
    """Print the report, rendered in full first, so that a failure while
    rendering prints nothing."""
    tree = _tree(report)
    print(_json(tree) if fmt == "json" else "\n".join(_text(tree)))


def _verdict_string(report: analysis.DqlsReport) -> str:
    if report.borderline:
        return "indeterminate"
    return "true" if report.verdict else "false"


def _base_report(args, instance: ProblemInstance, rtol: float) -> dict:
    return {
        "command": args.subcommand,
        "instance": str(args.instance),
        "state": instance.state_label,
        "dims": list(instance.space.dims),
        "neighborhoods": [list(h.indices) for h in instance.pattern.neighborhoods],
        "seed": args.seed,
        "tolerances": {
            "support_rtol": rtol,
            "intersection_tol": subspaces.INTERSECT_TOL,
            "orthonormality_tol": subspaces.ORTH_TOL,
            "eigenvalue_tol": dynamics.EIG_TOL,
        },
    }


def _load(args) -> tuple[ProblemInstance, float]:
    """The instance and its support tolerance: flag, else instance, else default."""
    instance = load_instance(args.instance)
    if args.tolerance is not None:
        return instance, args.tolerance
    if instance.tolerance is not None:
        return instance, instance.tolerance
    return instance, subspaces.SUPPORT_RTOL


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_check_dqls(args, instance: ProblemInstance, rtol: float) -> dict:
    report = analysis.check_dqls(instance.state, instance.pattern, rtol)
    return {
        "verdict": _verdict_string(report),
        "intersection_dim": report.intersection_dim,
        "intersection_basis": report.intersection.frame.T,
        "per_neighborhood": [
            {
                "neighborhood": list(hood.indices),
                "support_dim": support.dim,
                "reduced_dim": support.ambient_dim,
            }
            for hood, support in zip(instance.pattern.neighborhoods, report.supports)
        ],
        "warnings": list(report.warnings),
    }


def _cmd_parent_ham(args, instance: ProblemInstance, rtol: float) -> dict:
    ham = analysis.parent_hamiltonian(instance.state, instance.pattern, rtol)
    files = write_parent_hamiltonian(args.out, ham.space, ham.terms)
    kernel = ham.kernel()
    frustration_free = analysis.is_frustration_free(instance.state, ham.terms)
    return {
        "kernel_dim": kernel.dim,
        "frustration_free": frustration_free,
        "files": files,
        "warnings": list(ham.warnings),
    }


def _synthesize(instance: ProblemInstance, rtol: float, force: bool):
    scale = (
        instance.gain_scale
        if instance.gain_scale is not None
        else synthesis.DEFAULT_GAIN_SCALE
    )
    return synthesis.synthesize_stabilizers(
        instance.state,
        instance.pattern,
        instance.gains_policy,
        gain_scale=scale,
        force=force,
        rtol=rtol,
    )


def _cmd_synthesize(args, instance: ProblemInstance, rtol: float) -> dict:
    stabilizers = _synthesize(instance, rtol, args.force)
    ops, gains = stabilizers.operators, stabilizers.gains
    files = write_noise_operators(
        args.out, ops, gains, instance.gains_policy, instance.space.dims
    )
    forced = (
        "synthesis was forced; if the target is not stabilizable the "
        "certificate kernel dimension will exceed 1"
    )
    return {
        "gains_policy": instance.gains_policy,
        "annihilation_residuals": list(stabilizers.residuals),
        "files": files,
        "warnings": list(stabilizers.warnings) + ([forced] if args.force else []),
    }


def _cmd_certify(args, instance: ProblemInstance, rtol: float) -> dict:
    dim = instance.space.dim
    # Refuse before any analysis or operator file read, and any D x D build.
    if dim > args.dim_cap:
        raise dynamics.DimensionCapError(
            f"dimension {dim} exceeds the dense spectral cap {args.dim_cap}; "
            "run simulate for trajectory evidence"
        )
    if args.operators:
        ops = read_noise_operators(args.operators)
        notes = [f"operators loaded from {args.operators}"]
    else:
        stabilizers = _synthesize(instance, rtol, args.force)
        ops = stabilizers.operators
        notes = list(stabilizers.warnings)
    gen = dynamics.stabilizer_generator(ops, instance.space)
    started = time.perf_counter()
    cert = dynamics.gas_certificate(gen, instance.state, dim_cap=args.dim_cap)
    certificate_s = time.perf_counter() - started
    return {
        "mode": "certificate",
        "certified": cert.certified,
        "kernel_dim": cert.kernel_dim,
        "gap": cert.gap,
        "eigenvalues": cert.eigenvalues,
        "warnings": notes + list(cert.messages),
        "timings": {"certificate_s": certificate_s},
    }


def _route_flags(args, route: str, own: dict, other: tuple[str, ...]) -> dict:
    """Refuse any flag named in ``other``, which only the route not taken
    reads (exit 2), and return the flags named in ``own``, each one left out
    at its default there."""
    for name in other:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise argparse.ArgumentError(None, f"argument {flag}: not allowed {route}")
    return {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in own.items()
    }


def _cmd_simulate(args, instance: ProblemInstance, rtol: float) -> dict:
    # One decision refuses the other route's flags, before any analysis runs,
    # and fixes the trajectory runner, the mode and the trailing keys.
    if args.switched:
        settings = _route_flags(
            args, "with --switched", {"tau": 1.0, "cycles": 30},
            ("t_final", "record_every"),
        )
        stabilizers = _synthesize(instance, rtol, args.force)
        ops, notes = stabilizers.operators, list(stabilizers.warnings)
        schedule = dynamics.SwitchingSchedule(
            settings["tau"],
            tuple(dynamics.stabilizer_generators(ops, instance.space)),
        )
        if len(schedule.generators) == 1:
            notes.append("single-generator schedule degenerates to a fixed generator")
        run_trajectory = functools.partial(
            dynamics.simulate_switched, schedule, cycles=settings["cycles"],
            dt=args.dt,
        )
        mode = "switched"
    else:
        flags = _route_flags(
            args, "without --switched", {"t_final": 40.0, "record_every": 1},
            ("tau", "cycles"),
        )
        stabilizers = _synthesize(instance, rtol, args.force)
        ops, notes = stabilizers.operators, list(stabilizers.warnings)
        gen = dynamics.stabilizer_generator(ops, instance.space)
        run_trajectory = functools.partial(dynamics.evolve, gen, dt=args.dt, **flags)
        mode, settings = "simultaneous", {"t_final": flags["t_final"]}
    rng = np.random.default_rng(args.seed)
    target_rho = instance.state.density_matrix()
    # Each CSV row is written as its snapshot arrives, so no past state or row
    # is kept, and a run that fails part-way leaves the rows written so far.
    csv_path = Path(args.csv)
    rows, finals = 0, []
    with csv_path.open("w") as fh:
        fh.write("trajectory_id,t,fidelity,trace_distance,purity\n")
        for traj_id in range(args.trajectories):
            if args.mixed:
                rho0 = random_density_matrix(instance.space, rng)
            else:
                rho0 = random_pure_state(instance.space, rng).density_matrix()
            for t, state in run_trajectory(rho0):
                fid = dynamics.fidelity(instance.state, state)
                dist = dynamics.trace_distance(state, target_rho)
                pur = dynamics.purity(state)
                fh.write(f"{traj_id},{t:.12g},{fid:.12g},{dist:.12g},{pur:.12g}\n")
                rows += 1
            finals.append(fid)
    return {
        "mode": mode,
        "trajectories": args.trajectories,
        "csv": str(csv_path),
        "rows": rows,
        "final_fidelities": finals,
        "min_final_fidelity": min(finals),
        "warnings": notes,
        **settings,
    }


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def _flag(kind, check):
    """argparse type: convert the text with ``kind``, whose ValueError argparse
    reports as usual, then pass the value through ``check``, whose ValueError
    message names the rule the value breaks."""

    def parse(text: str):
        value = kind(text)
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = kind.__name__
    return parse


def _rule(rule: str, ok):
    """A ``check`` for :func:`_flag` that rejects values failing ``ok``."""

    def check(value):
        if not ok(value):
            raise ValueError(f"must be {rule}, got {value}")
        return value

    return check


# Same rule as an instance's "tolerance" field.
_TOLERANCE = _flag(float, parse_tolerance)
_TIME = _flag(float, _rule("finite and >= 0", lambda v: 0.0 <= v < math.inf))
_STEP = _flag(float, _rule("finite and > 0", lambda v: 0.0 < v < math.inf))
_COUNT = _flag(int, _rule(">= 1", lambda v: v >= 1))
_SEED = _flag(int, _rule(">= 0", lambda v: v >= 0))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("instance", help="instance JSON file")
    common.add_argument(
        "--tolerance",
        type=_TOLERANCE,
        default=None,
        help="relative support eigenvalue threshold (overrides the instance)",
    )
    common.add_argument(
        "--output", choices=("json", "text"), default="json", help="report format"
    )
    common.add_argument("--seed", type=_SEED, default=0, help="random seed")

    parser = argparse.ArgumentParser(
        prog="qlstab",
        description=(
            "Decide whether a target pure state can be stabilized by "
            "neighborhood-restricted dissipation, and synthesize, certify, "
            "and simulate the stabilizing dynamics."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "check-dqls",
        parents=[common],
        help="run the reduced-state support intersection test",
    )
    p.set_defaults(func=_cmd_check_dqls)

    p = sub.add_parser(
        "parent-ham",
        parents=[common],
        help="build the quasi-local parent Hamiltonian and write its terms",
    )
    p.add_argument("--out", required=True, help="directory for matrix files")
    p.set_defaults(func=_cmd_parent_ham)

    p = sub.add_parser(
        "synthesize",
        parents=[common],
        help="synthesize stabilizing noise operators and write them",
    )
    p.add_argument("--out", required=True, help="directory for matrix files")
    p.add_argument(
        "--force",
        action="store_true",
        help="synthesize even if the stabilizability verdict is false",
    )
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "certify",
        parents=[common],
        help="spectral stability certificate for the synthesized dynamics",
    )
    p.add_argument("--operators", default=None, help="load noise_op_*.json from here")
    p.add_argument("--force", action="store_true")
    p.add_argument("--dim-cap", type=_COUNT, default=dynamics.DEFAULT_DIM_CAP)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="integrate the stabilizing dynamics from random initial states",
    )
    p.add_argument("--csv", required=True, help="trajectory CSV output path")
    # The route flags default to None so that _cmd_simulate can refuse those
    # of the route not taken; it fills in the defaults (40, 1, 1.0, 30).
    p.add_argument("--t-final", type=_TIME, default=None)
    p.add_argument("--dt", type=_STEP, default=None)
    p.add_argument("--record-every", type=_COUNT, default=None)
    p.add_argument("--switched", action="store_true", help="cyclic switching")
    p.add_argument("--tau", type=_TIME, default=None, help="switching interval")
    p.add_argument("--cycles", type=_COUNT, default=None)
    p.add_argument("--trajectories", type=_COUNT, default=10)
    p.add_argument("--mixed", action="store_true", help="mixed initial states")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call shares, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # Each command returns its notes in the "warnings" field, its result's
        # first; nothing in qlstab warns, so stderr carries errors only.
        instance, rtol = _load(args)
        fields = args.func(args, instance, rtol)
        report = _base_report(args, instance, rtol)
        report.update(fields)
        report.setdefault("timings", {})["total_s"] = time.perf_counter() - started
        # Rendering a large report can run out of memory too.
        _emit(report, args.output)
    except tuple(row[0] for row in _EXITS) as exc:
        code, prefix = next((c, p) for cls, c, p in _EXITS if isinstance(exc, cls))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
