"""Benchmark of the qlstab command line, run in-process through cli.main.

Usage (from the repository root):

    python3 benchmarks/run.py --workload dqls --seed 0 --seconds 30 --trace 0

One process plays one client in a closed loop: it runs the workload's
command list (a "pass") back to back until ``--seconds`` is used up, at
least twice, checks every command's exit code, report and files against
the oracle in workloads.py, and requires every pass to reproduce the first
byte for byte. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
plus the tracing overhead. End-to-end times are scaled to a nominal host
speed measured by a fixed reference loop run between commands (see
``reference_s``); the raw wall times go to the record beside them. The
last line of stdout is one JSON object; a fuller record, with the machine
and settings, goes to
``.bench_work/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

import os
import time

# Pin BLAS/OpenMP before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 2
SETUP_REPS = 5
# Stop starting passes after this long, whatever --seconds says.
HARD_LIMIT_S = 120.0

# Host-speed reference: REF_LOOPS iterations of a fixed pure-Python loop,
# best of REF_REPS. REF_NOMINAL_S is the time it is scaled to.
REF_LOOPS = 60_000
REF_REPS = 3
REF_NOMINAL_S = 0.005

# (metric, span, statistic, unit) reported by --trace 1.
LAYER_METRICS = (
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("instances.write_operator_file.busy_s", "instances.write_operator_file", "busy_s", "s"),
    ("instances.write_operator_file.bytes", "instances.write_operator_file", "bytes", "bytes"),
    ("instances.read_operator_file.busy_s", "instances.read_operator_file", "busy_s", "s"),
    ("tensor.partial_trace.calls", "tensor.partial_trace", "calls", "count"),
    ("tensor.partial_trace.busy_s", "tensor.partial_trace", "busy_s", "s"),
    ("tensor.embed_frame.busy_s", "tensor.embed_frame", "busy_s", "s"),
    ("tensor.embed.calls", "tensor.embed", "calls", "count"),
    ("tensor.embed.busy_s", "tensor.embed", "busy_s", "s"),
    ("tensor.PureState.density_matrix.busy_s", "tensor.PureState.density_matrix", "busy_s", "s"),
    ("tensor.DensityMatrix.validate.busy_s", "tensor.DensityMatrix.validate", "busy_s", "s"),
    ("subspaces.support.busy_s", "subspaces.support", "busy_s", "s"),
    ("subspaces.intersect.busy_s", "subspaces.intersect", "busy_s", "s"),
    ("subspaces.equals.busy_s", "subspaces.equals", "busy_s", "s"),
    ("analysis.check_dqls.calls", "analysis.check_dqls", "calls", "count"),
    ("analysis.check_dqls.self_s", "analysis.check_dqls", "self_s", "s"),
    ("analysis.parent_hamiltonian.self_s", "analysis.parent_hamiltonian", "self_s", "s"),
    ("analysis.ParentHamiltonian.kernel.busy_s", "analysis.ParentHamiltonian.kernel", "busy_s", "s"),
    ("analysis.is_frustration_free.busy_s", "analysis.is_frustration_free", "busy_s", "s"),
    ("synthesis.synthesize_stabilizers.self_s", "synthesis.synthesize_stabilizers", "self_s", "s"),
    ("synthesis.synthesize_block.calls", "synthesis.synthesize_block", "calls", "count"),
    ("dynamics.stabilizer_generator.busy_s", "dynamics.stabilizer_generator", "busy_s", "s"),
    ("dynamics.vectorize.busy_s", "dynamics.vectorize", "busy_s", "s"),
    ("dynamics.vectorize.bytes_computed", "dynamics.vectorize", "bytes", "bytes"),
    ("dynamics.gas_certificate.self_s", "dynamics.gas_certificate", "self_s", "s"),
    ("dynamics.evolve.calls", "dynamics.evolve", "calls", "count"),
    ("dynamics.evolve.self_s", "dynamics.evolve", "self_s", "s"),
    ("dynamics.apply_generator.calls", "dynamics.apply_generator", "calls", "count"),
    ("dynamics.apply_generator.busy_s", "dynamics.apply_generator", "busy_s", "s"),
    ("dynamics.simulate_switched.busy_s", "dynamics.simulate_switched", "busy_s", "s"),
    ("dynamics.fidelity.busy_s", "dynamics.fidelity", "busy_s", "s"),
    ("dynamics.trace_distance.busy_s", "dynamics.trace_distance", "busy_s", "s"),
    ("dynamics.purity.busy_s", "dynamics.purity", "busy_s", "s"),
)


def import_package():
    """Import qlstab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qlstab.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import qlstab from {src}: {exc}")
    where = Path(qlstab.__file__).resolve().parent
    if where != (src / "qlstab").resolve():
        raise SystemExit(f"error: qlstab was imported from {where}, not {src}")
    return qlstab.cli


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def reference_s() -> float:
    """Time of a fixed interpreter-bound loop that does not touch qlstab.

    The shared host runs this process up to ~1.5x slower for stretches of
    seconds to minutes. Interpreter-bound code slows by about as much as
    the qlstab commands do, so a command's wall time times
    REF_NOMINAL_S / (reference time around it) removes most of that drift
    while still moving one for one with the program's own speed.
    """
    best = float("inf")
    for _ in range(REF_REPS):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall time rescaled to the host speed at which the reference takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / (ref_before * ref_after) ** 0.5


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    def __init__(self, cli, workload: str, seed: int, run_dir: Path):
        self.cli = cli
        self.seed = seed
        self.insts = workloads.instances(seed)
        self.commands = workloads.commands(workload)
        used = {c.instance for c in self.commands}
        self.inst_dir = run_dir / "instances"
        self.out_dir = run_dir / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        workloads.write_instances(
            {k: v for k, v in self.insts.items() if k in used}, self.inst_dir
        )

    def call(self, cmd):
        """Run one command; returns (seconds, exit code, report, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        argv = cmd.argv(self.inst_dir, self.out_dir, self.seed)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed command, not a dead run
                rc = None
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        report = None
        if rc == 0:
            with contextlib.suppress(json.JSONDecodeError):
                report = json.loads(out.getvalue())
        return elapsed, rc, report, err.getvalue()

    def warm_up(self) -> None:
        """Run the probe once; its outputs are checked in every pass."""
        for cmd in workloads.PROBE:
            self.call(cmd)

    def fingerprint(self, rc, report, err) -> str:
        """Everything a command produced except the report's timings."""
        h = hashlib.sha256(f"{rc}\n{err}\n".encode())
        if report is not None:
            kept = {k: v for k, v in report.items() if k != "timings"}
            h.update(json.dumps(kept, sort_keys=True).encode())
            written = list(report.get("files", []))
            if "csv" in report:
                written.append(report["csv"])
            for path in written:
                h.update(_digest(path).encode())
        return h.hexdigest()

    def run_pass(self, tracer: Tracer | None) -> dict:
        results = []
        refs = [reference_s()]
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for cmd in self.commands:
                results.append((cmd, *self.call(cmd)))
                refs.append(reference_s())
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        commands = []
        for k, (cmd, elapsed, rc, report, err) in enumerate(results):
            problems = workloads.check_output(cmd, rc, report, self.insts)
            commands.append({
                "label": cmd.label, "kind": cmd.kind, "largest": cmd.largest,
                "seconds": elapsed, "scaled_s": scaled(elapsed, refs[k], refs[k + 1]),
                "rc": rc, "problems": problems,
                "fingerprint": self.fingerprint(rc, report, err),
            })
        return {"traced": tracer is not None, "wall_s": wall, "refs_s": refs,
                "scaled_s": sum(c["scaled_s"] for c in commands),
                "commands": commands}


def check_determinism(passes: list[dict]) -> None:
    first = passes[0]["commands"]
    for p in passes[1:]:
        for ref, cmd in zip(first, p["commands"]):
            if cmd["fingerprint"] != ref["fingerprint"]:
                cmd["problems"].append("output differs from the first pass")


def check_trace(stats, expected: dict) -> list[str]:
    return [
        f"{name}.calls = {stats[name].calls}, expected {want}"
        for name, want in sorted(expected.items())
        if stats[name].calls != want
    ]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_once(workload: str, seed: int, run_dir: Path) -> Runner:
    """Imports, instance generation and warm-up."""
    runner = Runner(import_package(), workload, seed, run_dir)
    runner.warm_up()
    return runner


def time_setups(workload: str, seed: int, run_dir: Path) -> tuple[list, list]:
    """Wall and scaled times of complete set-ups, each in a fresh interpreter."""
    samples, scaled_samples = [], []
    for k in range(SETUP_REPS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed),
                "--dir", str(run_dir / f"setup{k}")]
        ref_before = reference_s()
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        samples.append(time.perf_counter() - start)
        scaled_samples.append(scaled(samples[-1], ref_before, reference_s()))
        if done.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{done.stderr}")
    return samples, scaled_samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setups, key="scaled_s") -> dict:
    """``key`` "scaled_s" gives the reported metrics, "seconds" raw wall times."""
    med = statistics.median
    largest = [sum(c[key] for c in p["commands"] if c["largest"]) for p in passes]
    return {
        "setup_s": (med(setups), "s"),
        "pass_s": (med(sum(c[key] for c in p["commands"]) for p in passes), "s"),
        "largest_case_s": (med(largest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def command_sums(workload, passes) -> dict:
    out = {}
    for kind in workloads.COMMAND_METRICS[workload]:
        per_pass = [sum(c["scaled_s"] for c in p["commands"] if c["kind"] == kind)
                    for p in passes]
        out[kind.replace("-", "_") + "_s"] = (statistics.median(per_pass), "s")
    return out


def layer_metrics(traced_stats, plain, traced) -> dict:
    out = {}
    for metric, span, stat, unit in LAYER_METRICS:
        values = [getattr(stats[span], stat) for stats in traced_stats]
        out[metric] = (statistics.median(values), unit)
    overhead = (statistics.median(p["scaled_s"] for p in traced)
                - statistics.median(p["scaled_s"] for p in plain))
    out["tracing_overhead_s"] = (overhead, "s")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up (imports, instances, warm-up), then exit")
    parser.add_argument("--dir", type=Path, help="set-up directory for --setup-probe")
    return parser.parse_args(argv)


def measure(args, run_dir: Path) -> dict:
    runner = setup_once(args.workload, args.seed, run_dir / "main")
    setup_wall, setups = time_setups(args.workload, args.seed, run_dir)
    expected = workloads.expected_counts(args.workload, runner.insts)
    tracer = Tracer()
    passes, traced_stats, trace_problems = [], [], []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        passes.append(runner.run_pass(tracer if traced else None))
        if traced:
            traced_stats.append(dict(tracer.stats))
            trace_problems += check_trace(tracer.stats, expected)
        # Start another pass only if it should end less than half a pass
        # past the deadline, so runs last --seconds on average.
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and (
            elapsed + typical / 2 > args.seconds or elapsed > HARD_LIMIT_S
        ):
            break
    check_determinism(passes)

    commands = [c for p in passes for c in p["commands"]]
    failures = [f"{c['label']}: {c['problems']}" for c in commands if c["problems"]]
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = layer_metrics(traced_stats, plain, [p for p in passes if p["traced"]])
        extra, raw = {}, {}
    else:
        metrics = end_to_end(plain, setups)
        extra = command_sums(args.workload, plain)
        raw = end_to_end(plain, setup_wall, key="seconds")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "clients": 1, "loop": "closed",
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "setup_samples_s": setups, "setup_wall_s": setup_wall,
        "reference": {"loops": REF_LOOPS, "reps": REF_REPS, "nominal_s": REF_NOMINAL_S,
                      "median_s": statistics.median(r for p in passes for r in p["refs_s"])},
        "attempted": len(commands), "failed": len(failures),
        "failed_frac": len(failures) / len(commands),
        "failures": failures + trace_problems,
        "metrics": metrics, "command_metrics": extra, "wall_metrics": raw,
        "expected_counts": expected,
        "pass_detail": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "scaled_s": p["scaled_s"],
             "refs_s": p["refs_s"],
             "commands": {c["label"]: c["seconds"] for c in p["commands"]},
             "scaled": {c["label"]: c["scaled_s"] for c in p["commands"]}}
            for p in passes
        ],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_once(args.workload, args.seed, args.dir)
        return 0
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    (WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )

    m = result["machine"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"nproc {m['nproc']}, BLAS {m['blas']['name']} {m['blas']['version']} "
          f"threads {m['blas']['threads']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}")
    n = result["passes"]
    print(f"# passes: {n['untraced']} untraced, {n['traced']} traced; "
          f"failed_frac {result['failed']}/{result['attempted']} = {result['failed_frac']:g}")
    how = {
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "peak_rss_mb": "peak over the run",
        "tracing_overhead_s": f"median of {n['traced']} traced minus "
                              f"median of {n['untraced']} untraced passes",
    }
    passes = n["traced" if args.trace else "untraced"]
    ref = result["reference"]
    print(f"# times scaled to a reference loop of {ref['nominal_s']:g} s; "
          f"its median in this run: {ref['median_s']:.6g} s")
    for name, (value, unit) in {**result["metrics"], **result["command_metrics"]}.items():
        wall = result["wall_metrics"].get(name)
        wall = f"; wall {wall[0]:.6g} {unit}" if wall and unit == "s" else ""
        print(f"{name} = {value:.6g} {unit} "
              f"({how.get(name, f'median of {passes} passes')}{wall})")
    for problem in result["failures"]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
