"""Command-line front end with stable exit codes for scripting.

Commands: check-dqls, parent-ham, synthesize, certify, simulate. Reports go
to stdout as JSON (default) or text, with all numerics at 12 significant
digits; operator matrices and trajectory CSVs are written to caller-chosen
paths. Identical instance and seed give bit-identical reports and CSVs,
except for the "timings" section of the report.

Exit codes: 0 success, 2 unparseable input, 3 dimension mismatch,
4 refusal to synthesize for an unstabilizable target, 5 dense-path
dimension cap exceeded, 6 integrator abort, 7 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, dynamics, subspaces, synthesis
from .instances import (
    InstanceFormatError,
    ProblemInstance,
    _neighborhood,
    array_to_pairs,
    load_instance,
    read_operator_file,
    write_operator_file,
)
from .tensor import (
    DimensionMismatchError,
    QLOperator,
    random_density_matrix,
    random_pure_state,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NOT_STABILIZABLE = 4
EXIT_DIM_CAP = 5
EXIT_INTEGRATION = 6
EXIT_NUMERICAL = 7

EVIDENCE_FIDELITY = 1e-5

__all__ = ["main", "run", "build_parser"]


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _round12(value):
    """Recursively round floats to 12 significant digits for stable output.

    Non-finite values become strings so the emitted JSON stays standard.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        if not np.isfinite(value):
            return str(value)
        return float(f"{value:.12g}")
    if isinstance(value, complex):
        return [_round12(value.real), _round12(value.imag)]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    if isinstance(value, np.generic):
        return _round12(value.item())
    if isinstance(value, np.ndarray):
        return _round12(value.tolist())
    return value


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(report: dict, fmt: str) -> None:
    report = _round12(report)
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render_text(report)))


def _pairs(values) -> list:
    return [_round12(complex(z)) for z in values]


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
        "intersection_basis": array_to_pairs(report.intersection.frame.T),
        "per_neighborhood": [
            {
                "neighborhood": list(a.neighborhood.indices),
                "support_dim": a.support.dim,
                "reduced_dim": a.reduced_state.space.dim,
            }
            for a in report.per_neighborhood
        ],
        "warnings": list(report.warnings),
    }


def _cmd_parent_ham(args, instance: ProblemInstance, rtol: float) -> dict:
    ham = analysis.parent_hamiltonian(instance.state, instance.pattern, rtol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for k, term in enumerate(ham.terms):
        path = out_dir / f"parent_term_{k:02d}.json"
        write_operator_file(
            path,
            term.block,
            {
                "kind": "parent_hamiltonian_term",
                "neighborhood": list(term.neighborhood.indices),
                "dims": list(instance.space.dims),
            },
        )
        files.append(str(path))
    total_path = out_dir / "parent_total.json"
    write_operator_file(
        total_path,
        ham.total,
        {"kind": "parent_hamiltonian_total", "dims": list(instance.space.dims)},
    )
    files.append(str(total_path))
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for k, (op, gains) in enumerate(zip(stabilizers.operators, stabilizers.gains)):
        path = out_dir / f"noise_op_{k:02d}.json"
        write_operator_file(
            path,
            op.block,
            {
                "kind": "noise_operator",
                "neighborhood": list(op.neighborhood.indices),
                "gains": list(gains),
                "gains_policy": instance.gains_policy,
                "dims": list(instance.space.dims),
            },
        )
        files.append(str(path))
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


def _load_operators(directory: str, instance: ProblemInstance):
    paths = sorted(Path(directory).glob("noise_op_*.json"))
    if not paths:
        raise InstanceFormatError(f"no noise_op_*.json files in {directory}")
    ops = []
    for path in paths:
        matrix, meta = read_operator_file(path)
        if meta.get("neighborhood") is None:
            raise InstanceFormatError(f"{path}: missing 'neighborhood' metadata")
        try:
            hood = _neighborhood(meta["neighborhood"])
        except InstanceFormatError as exc:
            raise InstanceFormatError(f"{path}: {exc}") from exc
        ops.append(QLOperator(hood, matrix))
    gains = tuple(() for _ in ops)
    return synthesis.StabilizerSet(tuple(ops), gains, ())


def _cmd_certify(args, instance: ProblemInstance, rtol: float) -> dict:
    if args.operators:
        stabilizers = _load_operators(args.operators, instance)
        notes = [f"operators loaded from {args.operators}"]
    else:
        stabilizers = _synthesize(instance, rtol, args.force)
        notes = list(stabilizers.warnings)
    gen = dynamics.stabilizer_generator(stabilizers, instance.space)
    dim = instance.space.dim
    if dim <= args.dim_cap:
        started = time.perf_counter()
        cert = dynamics.gas_certificate(gen, instance.state, dim_cap=args.dim_cap)
        certificate_s = time.perf_counter() - started
        return {
            "mode": "certificate",
            "certified": cert.certified,
            "kernel_dim": cert.spectrum.kernel_dim,
            "spectral_abscissa_nonzero": cert.spectrum.spectral_abscissa_nonzero,
            "gap": cert.spectrum.gap,
            "eigenvalues": _pairs(cert.spectrum.eigenvalues),
            "warnings": notes + list(cert.messages),
            "timings": {"certificate_s": certificate_s},
        }
    if not args.evidence_fallback:
        raise dynamics.DimensionCapError(
            f"dimension {dim} exceeds the dense spectral cap {args.dim_cap}; "
            "rerun with --evidence-fallback for trajectory evidence"
        )
    rng = np.random.default_rng(args.seed)
    finals = []
    for _ in range(args.trajectories):
        rho0 = random_pure_state(instance.space, rng).density_matrix()
        trajectory = dynamics.evolve(
            gen, rho0, args.t_final, args.dt, record_every=10**9
        )
        finals.append(dynamics.fidelity(instance.state, trajectory[-1][1]))
    supported = all(f > 1.0 - EVIDENCE_FIDELITY for f in finals)
    return {
        "mode": "evidence",
        "evidence_supported": supported,
        "final_fidelities": finals,
        "t_final": args.t_final,
        "trajectories": args.trajectories,
        "warnings": notes
        + [
            "trajectory evidence only: no spectral certificate above the "
            "dimension cap"
        ],
    }


def _cmd_simulate(args, instance: ProblemInstance, rtol: float) -> dict:
    stabilizers = _synthesize(instance, rtol, args.force)
    notes = list(stabilizers.warnings)
    rng = np.random.default_rng(args.seed)
    if args.switched:
        schedule = dynamics.SwitchingSchedule(
            args.tau,
            tuple(dynamics.stabilizer_generators(stabilizers, instance.space)),
        )
        if len(schedule.generators) == 1:
            notes.append("single-generator schedule degenerates to a fixed generator")
    else:
        gen = dynamics.stabilizer_generator(stabilizers, instance.space)
    target_rho = instance.state.density_matrix()
    rows: list[tuple] = []
    finals = []
    for traj_id in range(args.trajectories):
        if args.mixed:
            rho0 = random_density_matrix(instance.space, rng)
        else:
            rho0 = random_pure_state(instance.space, rng).density_matrix()
        if args.switched:
            trajectory = dynamics.simulate_switched(
                schedule, rho0, args.cycles, args.dt
            )
        else:
            trajectory = dynamics.evolve(
                gen, rho0, args.t_final, args.dt, record_every=args.record_every
            )
        for t, state in trajectory:
            rows.append(
                (
                    traj_id,
                    t,
                    dynamics.fidelity(instance.state, state),
                    dynamics.trace_distance(state, target_rho),
                    dynamics.purity(state),
                )
            )
        finals.append(dynamics.fidelity(instance.state, trajectory[-1][1]))
    csv_path = Path(args.csv)
    with csv_path.open("w") as fh:
        fh.write("trajectory_id,t,fidelity,trace_distance,purity\n")
        for row in rows:
            fh.write(
                f"{row[0]},{row[1]:.12g},{row[2]:.12g},{row[3]:.12g},{row[4]:.12g}\n"
            )
    out = {
        "mode": "switched" if args.switched else "simultaneous",
        "trajectories": args.trajectories,
        "csv": str(csv_path),
        "rows": len(rows),
        "final_fidelities": finals,
        "min_final_fidelity": min(finals) if finals else None,
        "warnings": notes,
    }
    if args.switched:
        out["tau"] = args.tau
        out["cycles"] = args.cycles
    else:
        out["t_final"] = args.t_final
    return out


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative support eigenvalue threshold (overrides the instance)",
    )
    common.add_argument(
        "--output", choices=("json", "text"), default="json", help="report format"
    )
    common.add_argument("--seed", type=int, default=0, help="random seed")

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
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=_cmd_check_dqls)

    p = sub.add_parser(
        "parent-ham",
        parents=[common],
        help="build the quasi-local parent Hamiltonian and write its terms",
    )
    p.add_argument("instance")
    p.add_argument("--out", required=True, help="directory for matrix files")
    p.set_defaults(func=_cmd_parent_ham)

    p = sub.add_parser(
        "synthesize",
        parents=[common],
        help="synthesize stabilizing noise operators and write them",
    )
    p.add_argument("instance")
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
    p.add_argument("instance")
    p.add_argument("--operators", default=None, help="load noise_op_*.json from here")
    p.add_argument("--force", action="store_true")
    p.add_argument("--dim-cap", type=int, default=dynamics.DEFAULT_DIM_CAP)
    p.add_argument(
        "--evidence-fallback",
        action="store_true",
        help="above the cap, fall back to trajectory evidence",
    )
    p.add_argument("--trajectories", type=int, default=20)
    p.add_argument("--t-final", type=float, default=40.0)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="integrate the stabilizing dynamics from random initial states",
    )
    p.add_argument("instance")
    p.add_argument("--csv", required=True, help="trajectory CSV output path")
    p.add_argument("--t-final", type=float, default=40.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--switched", action="store_true", help="cyclic switching")
    p.add_argument("--tau", type=float, default=1.0, help="switching interval")
    p.add_argument("--cycles", type=int, default=30)
    p.add_argument("--trajectories", type=int, default=10)
    p.add_argument("--mixed", action="store_true", help="mixed initial states")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        # Each command returns its notes in the "warnings" field, its result's
        # first; a CoverageWarning from loading still goes to stderr.
        instance, rtol = _load(args)
        fields = args.func(args, instance, rtol)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatchError as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except synthesis.NotStabilizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_STABILIZABLE
    except dynamics.DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIM_CAP
    except dynamics.IntegrationError as exc:
        print(f"error: integrator aborted: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = _base_report(args, instance, rtol)
    report.update(fields)
    report.setdefault("timings", {})["total_s"] = time.perf_counter() - started
    _emit(report, args.output)
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
