"""Workload definitions: seeded instances, command lists and output oracles.

Each workload is a fixed list of CLI commands run back to back in one
process (one client, closed loop). Every workload also ends with the same
small probe on the 4-qubit Dicke instance, which calls every traced layer
once, so no per-layer time reads as a constant zero.

Reference values for seed-independent instances were recorded at the
package's initial commit with one BLAS thread.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Relative tolerance on reference spectral gaps. The dense eig is
# reproducible to ~1e-12 across BLAS thread counts; reports carry 12 digits.
GAP_RTOL = 1e-6
# Absolute slack on trace distance increases between CSV rows: CSV values
# carry 12 significant digits and RK4 is not exactly contractive.
TD_SLACK = 1e-10
# Synthesized operators must annihilate the target (synthesis.ANNIHILATION_TOL).
RESIDUAL_TOL = 1e-8

VERDICT_KINDS = ("check-dqls", "synthesize", "simulate", "certify")


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def _chain(n):
    return [[i, i + 1] for i in range(n - 1)]


def _windows(n, k):
    return [list(range(i, i + k)) for i in range(n - k + 1)]


def _ring_windows(n):
    return [sorted({(i - 1) % n, i, (i + 1) % n}) for i in range(n)]


def _cluster(n):
    return {
        "dims": [2] * n,
        "state": {"name": "graph", "edges": _chain(n)},
        "neighborhoods": _windows(n, 3),
    }


def _ring_cluster(n):
    return {
        "dims": [2] * n,
        "state": {"name": "graph", "edges": _chain(n) + [[n - 1, 0]]},
        "neighborhoods": _ring_windows(n),
    }


def _ghz_pairs(n):
    return {"dims": [2] * n, "state": "ghz", "neighborhoods": _chain(n)}


def _qutrit_mps(n, seed):
    """Random open-boundary MPS, physical dimension 3, bond dimension 2."""
    rng = np.random.default_rng([seed, n])
    d, bond = 3, 2
    psi = np.ones((1, 1), dtype=complex)
    for site in range(n):
        left = 1 if site == 0 else bond
        right = 1 if site == n - 1 else bond
        shape = (left, d, right)
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psi = np.tensordot(psi, tensor, axes=([-1], [0])).reshape(-1, right)
    psi = psi.reshape(-1)
    psi /= np.linalg.norm(psi)
    return {
        "dims": [d] * n,
        "state": [[float(z.real), float(z.imag)] for z in psi],
        "neighborhoods": _windows(n, 3),
    }


def instances(seed: int) -> dict[str, dict]:
    """Every instance any workload uses; only the MPS states depend on the seed."""
    return {
        "dicke": {
            "dims": [2, 2, 2, 2],
            "state": "psi_t",
            "neighborhoods": [[0, 1, 2], [1, 2, 3]],
        },
        "cluster9": _cluster(9),
        "cluster8": _cluster(8),
        "cluster5": _cluster(5),
        "ring9": _ring_cluster(9),
        "ring4": _ring_cluster(4),
        "ghz9": _ghz_pairs(9),
        "ghz5": _ghz_pairs(5),
        "w9": {"dims": [2] * 9, "state": "w", "neighborhoods": _windows(9, 8)},
        "mps6": _qutrit_mps(6, seed),
        "mps5": _qutrit_mps(5, seed),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI invocation with what its output must satisfy.

    ``args`` holds the CLI words after the instance file; ``{out}`` in them
    is replaced by the run's output directory. ``largest`` marks the
    workload's largest instance, timed as largest_case_s. ``expect`` keys: ``rc``,
    report fields compared exactly, ``gap`` (relative to GAP_RTOL),
    ``files`` (count written), ``fidelity_floor``. ``sim`` holds the
    integration settings (t_final, dt, trajectories, switched, tau, cycles)
    from which the CSV shape and call counts follow.
    """

    kind: str
    instance: str
    args: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)
    sim: dict | None = None
    largest: bool = False

    @property
    def label(self) -> str:
        words = [a.replace("{out}/", "") for a in self.args]
        return " ".join([self.kind, self.instance, *words])

    def argv(self, inst_dir: Path, out_dir: Path, seed: int) -> list[str]:
        words = [a.replace("{out}", str(out_dir)) for a in self.args]
        return [self.kind, str(inst_dir / f"{self.instance}.json"), *words,
                "--seed", str(seed)]


def _simulate(instance, out, t_final=None, dt=0.0025, trajectories=1,
              switched=False, tau=1.0, cycles=1, floor=0.0, largest=False):
    args = ["--csv", f"{{out}}/{out}.csv", "--dt", repr(dt),
            "--trajectories", str(trajectories)]
    if switched:
        args += ["--switched", "--tau", repr(tau), "--cycles", str(cycles)]
    else:
        args += ["--t-final", repr(t_final)]
    sim = {"t_final": t_final, "dt": dt, "trajectories": trajectories,
           "switched": switched, "tau": tau, "cycles": cycles}
    return Command("simulate", instance, tuple(args),
                   {"fidelity_floor": floor}, sim, largest)


TRUE1 = {"verdict": "true", "intersection_dim": 1}
FALSE2 = {"verdict": "false", "intersection_dim": 2}
DICKE_GAP = 0.978195012134

PROBE = (
    Command("check-dqls", "dicke", (), TRUE1),
    Command("parent-ham", "dicke", ("--out", "{out}/probe_ham"),
            {"kernel_dim": 1, "frustration_free": True, "files": 3}),
    Command("synthesize", "dicke", ("--out", "{out}/probe_ops"), {"files": 2}),
    Command("certify", "dicke", ("--operators", "{out}/probe_ops"),
            {"certified": True, "kernel_dim": 1, "gap": DICKE_GAP}),
    _simulate("dicke", "probe_sim", t_final=0.5),
    _simulate("dicke", "probe_sw", switched=True, tau=0.25),
)

WORKLOADS = {
    "dqls": (
        Command("check-dqls", "mps6", (), TRUE1, largest=True),
        Command("check-dqls", "cluster9", (), TRUE1),
        Command("check-dqls", "ring9", (), TRUE1),
        Command("check-dqls", "ghz9", (), FALSE2),
        Command("check-dqls", "w9", (), FALSE2),
        Command("parent-ham", "cluster8", ("--out", "{out}/ham_cluster8"),
                {"kernel_dim": 1, "frustration_free": True, "files": 7}),
        Command("parent-ham", "mps5", ("--out", "{out}/ham_mps5"),
                {"kernel_dim": 1, "frustration_free": True, "files": 4}),
        Command("synthesize", "ring9", ("--out", "{out}/ops_ring9"), {"files": 9}),
        Command("synthesize", "ghz9", ("--out", "{out}/ops_ghz9"), {"rc": 4}),
    ),
    "certify": (
        Command("synthesize", "cluster5", ("--out", "{out}/ops_cluster5"),
                {"files": 3}),
        Command("certify", "cluster5", ("--operators", "{out}/ops_cluster5"),
                {"certified": True, "kernel_dim": 1, "gap": 1.02617717831},
                largest=True),
        Command("certify", "ring4", (),
                {"certified": True, "kernel_dim": 1, "gap": 1.60546559313}),
        Command("certify", "ghz5", ("--force",),
                {"certified": False, "kernel_dim": 4, "gap": 4.5}),
        Command("certify", "dicke", (),
                {"certified": True, "kernel_dim": 1, "gap": DICKE_GAP}),
    ),
    "simulate": (
        _simulate("dicke", "dicke_sim", t_final=10.0, trajectories=2,
                  floor=0.999),
        _simulate("dicke", "dicke_sw", switched=True, tau=1.0, cycles=8,
                  dt=0.005, trajectories=4, floor=0.9),
        _simulate("cluster5", "cluster5_sim", t_final=3.0, dt=0.002,
                  floor=0.9, largest=True),
    ),
}

# Per-command sums reported per workload: those taking >= ~0.5 s per pass.
COMMAND_METRICS = {
    "dqls": ("check-dqls", "parent-ham", "synthesize"),
    "certify": ("certify",),
    "simulate": ("simulate",),
}


def commands(workload: str) -> tuple[Command, ...]:
    return WORKLOADS[workload] + PROBE


# ---------------------------------------------------------------------------
# Expected trace counts
# ---------------------------------------------------------------------------

def _steps(t_final: float, dt: float) -> int:
    """Step count of the fixed-step integrator for an explicit dt."""
    return max(1, math.ceil(t_final / dt - 1e-12))


def _segments(cmd: Command, n_hoods: int) -> list[int]:
    """Step count of every evolve call a simulate command makes."""
    s = cmd.sim
    if s["switched"]:
        per = _steps(s["tau"], s["dt"])
        return [per] * (s["trajectories"] * s["cycles"] * n_hoods)
    return [_steps(s["t_final"], s["dt"])] * s["trajectories"]


def expected_counts(workload: str, insts: dict[str, dict]) -> dict[str, int]:
    """Exact call counts per pass that a complete trace must show."""
    counts: dict[str, int] = defaultdict(int)
    for cmd in commands(workload):
        hoods = len(insts[cmd.instance]["neighborhoods"])
        ok = cmd.expect.get("rc", 0) == 0
        from_files = "--operators" in cmd.args
        counts["cli.main"] += 1
        if cmd.kind == "parent-ham" or (cmd.kind in VERDICT_KINDS and not from_files):
            counts["tensor.partial_trace"] += hoods
        if cmd.kind in VERDICT_KINDS and not from_files:
            counts["analysis.check_dqls"] += 1
        if ok and cmd.kind in ("synthesize", "simulate", "certify") and not from_files:
            counts["synthesis.synthesize_block"] += hoods
        if ok and cmd.kind == "synthesize":
            counts["instances.write_operator_file"] += hoods
        if cmd.kind == "parent-ham":
            counts["instances.write_operator_file"] += hoods + 1
        if from_files:
            counts["instances.read_operator_file"] += hoods
        if cmd.kind == "certify":
            counts["dynamics.vectorize"] += 1
        if cmd.kind == "simulate":
            segments = _segments(cmd, hoods)
            counts["dynamics.evolve"] += len(segments)
            counts["dynamics.apply_generator"] += 4 * sum(segments)
    return dict(counts)


# ---------------------------------------------------------------------------
# Output oracle
# ---------------------------------------------------------------------------

def check_output(cmd: Command, rc: int | None, report: dict | None,
                 insts: dict[str, dict]) -> list[str]:
    """Problems with one command's exit code, report and written files."""
    want_rc = cmd.expect.get("rc", 0)
    if rc != want_rc:
        return [f"exit code {rc}, expected {want_rc}"]
    if rc != 0:
        return []
    if report is None:
        return ["no JSON report on stdout"]
    problems = []
    for key, want in cmd.expect.items():
        if key in ("rc", "gap", "files", "fidelity_floor"):
            continue
        if report.get(key) != want:
            problems.append(f"{key}={report.get(key)!r}, expected {want!r}")
    if "gap" in cmd.expect:
        gap, want = report.get("gap"), cmd.expect["gap"]
        if not isinstance(gap, float) or abs(gap - want) > GAP_RTOL * abs(want):
            problems.append(f"gap={gap!r}, expected {want!r} (rtol {GAP_RTOL:g})")
    if "files" in cmd.expect:
        files = report.get("files", [])
        if len(files) != cmd.expect["files"] or not all(Path(f).is_file() for f in files):
            problems.append(f"wrote {files!r}, expected {cmd.expect['files']} files")
    if cmd.kind == "synthesize":
        worst = max(report.get("annihilation_residuals", [math.inf]))
        if not worst <= RESIDUAL_TOL:
            problems.append(f"annihilation residual {worst!r} > {RESIDUAL_TOL:g}")
    if cmd.kind == "simulate":
        hoods = len(insts[cmd.instance]["neighborhoods"])
        problems += _check_trajectories(cmd, report, hoods)
    return problems


def _check_trajectories(cmd: Command, report: dict, n_hoods: int) -> list[str]:
    """CSV shape against the step settings, contractivity, final fidelity."""
    s = cmd.sim
    if s["switched"]:
        per_traj = 1 + s["cycles"] * n_hoods
        t_end = s["cycles"] * n_hoods * s["tau"]
    else:
        per_traj = 1 + _steps(s["t_final"], s["dt"])
        t_end = s["t_final"]
    by_traj = defaultdict(list)
    with open(report["csv"], newline="") as fh:
        for row in csv.DictReader(fh):
            by_traj[int(row["trajectory_id"])].append(
                (float(row["t"]), float(row["trace_distance"]), float(row["fidelity"]))
            )
    problems = []
    n_rows = sum(len(v) for v in by_traj.values())
    if sorted(by_traj) != list(range(s["trajectories"])) or report.get("rows") != n_rows:
        problems.append(f"CSV has trajectories {sorted(by_traj)} and {n_rows} rows "
                        f"(report says {report.get('rows')})")
    for tid, rows in sorted(by_traj.items()):
        if len(rows) != per_traj:
            problems.append(f"trajectory {tid}: {len(rows)} rows, expected {per_traj}")
        if abs(rows[-1][0] - t_end) > 1e-9 * max(1.0, t_end):
            problems.append(f"trajectory {tid} ends at t={rows[-1][0]}, expected {t_end}")
        rise = max((b[1] - a[1] for a, b in zip(rows, rows[1:])), default=0.0)
        if rise > TD_SLACK:
            problems.append(f"trajectory {tid}: trace distance rose by {rise:.3e}")
        if rows[-1][2] < cmd.expect["fidelity_floor"]:
            problems.append(f"trajectory {tid}: final fidelity {rows[-1][2]} "
                            f"< floor {cmd.expect['fidelity_floor']}")
    return problems


def write_instances(insts: dict[str, dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in insts.items():
        (directory / f"{name}.json").write_text(json.dumps(data))
