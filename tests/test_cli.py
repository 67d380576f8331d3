"""Command-line interface: verdicts, exit codes, file outputs, determinism."""

import json

import numpy as np
import pytest

from qlstab.cli import main
from qlstab.instances import load_instance, read_operator_file


def write_instance(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def ghz3_instance(tmp_path):
    return write_instance(
        tmp_path / "ghz3.json",
        {"dims": [2, 2, 2], "state": "ghz", "neighborhoods": [[0, 1], [1, 2]]},
    )


def dicke_instance(tmp_path, **extra):
    data = {
        "dims": [2, 2, 2, 2],
        "state": "psi_t",
        "neighborhoods": [[0, 1, 2], [1, 2, 3]],
    }
    data.update(extra)
    return write_instance(tmp_path / "dicke.json", data)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestCheckDqls:
    def test_ghz3_fails_with_dim_two(self, tmp_path, capsys):
        code, report, _ = run_cli(capsys, ["check-dqls", ghz3_instance(tmp_path)])
        assert code == 0
        assert report["verdict"] == "false"
        assert report["intersection_dim"] == 2
        assert report["per_neighborhood"][0]["support_dim"] == 2

    def test_dicke_passes(self, tmp_path, capsys):
        code, report, _ = run_cli(capsys, ["check-dqls", dicke_instance(tmp_path)])
        assert code == 0
        assert report["verdict"] == "true"
        assert report["intersection_dim"] == 1
        assert len(report["intersection_basis"]) == 1

    def test_dicke_intersection_basis_is_the_target(self, tmp_path, capsys):
        code, report, _ = run_cli(capsys, ["check-dqls", dicke_instance(tmp_path)])
        assert code == 0
        (basis,) = report["intersection_basis"]
        vec = np.array([complex(re, im) for re, im in basis])
        target = load_instance(tmp_path / "dicke.json").state.amplitudes
        np.testing.assert_allclose(vec, target, rtol=0, atol=1e-12)

    def test_explicit_amplitudes_product_state(self, tmp_path, capsys):
        amps = [[0.0, 0.0]] * 4
        amps[0] = [1.0, 0.0]
        inst = write_instance(
            tmp_path / "prod.json",
            {"dims": [2, 2], "state": amps, "neighborhoods": [[0], [1]]},
        )
        code, report, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        assert report["verdict"] == "true"

    def test_report_echoes_tolerances(self, tmp_path, capsys):
        code, report, _ = run_cli(
            capsys, ["check-dqls", dicke_instance(tmp_path), "--tolerance", "1e-9"]
        )
        assert code == 0
        assert report["tolerances"]["support_rtol"] == pytest.approx(1e-9)

    def test_text_output(self, tmp_path, capsys):
        code = main(["check-dqls", dicke_instance(tmp_path), "--output", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: true" in out


class TestExitCodes:
    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2,')
        code, _, err = run_cli(capsys, ["check-dqls", str(bad)])
        assert code == 2
        assert "line" in err  # location-bearing message

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, ["check-dqls", str(tmp_path / "nope.json")])
        assert code == 2

    def test_out_path_collision_is_parse_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, _ = run_cli(
            capsys,
            ["synthesize", dicke_instance(tmp_path), "--out", str(blocker)],
        )
        assert code == 2

    def test_unknown_state_name(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "odd.json",
            {"dims": [2, 2], "state": "bell", "neighborhoods": [[0, 1]]},
        )
        code, _, err = run_cli(capsys, ["check-dqls", inst])
        assert code == 2
        assert "bell" in err

    def test_amplitude_length_mismatch_is_dimension_error(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "short.json",
            {
                "dims": [2, 2],
                "state": [[1.0, 0.0], [0.0, 0.0]],
                "neighborhoods": [[0, 1]],
            },
        )
        code, _, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 3

    def test_neighborhood_out_of_range_is_dimension_error(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "range.json",
            {"dims": [2, 2], "state": "ghz", "neighborhoods": [[0, 7]]},
        )
        code, _, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 3

    def test_unnormalized_amplitudes_rejected(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "unnorm.json",
            {
                "dims": [2, 2],
                "state": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                "neighborhoods": [[0, 1]],
            },
        )
        code, _, err = run_cli(capsys, ["check-dqls", inst])
        assert code == 2
        assert "norm" in err

    def test_synthesize_refuses_non_stabilizable(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["synthesize", ghz3_instance(tmp_path), "--out", str(tmp_path / "ops")],
        )
        assert code == 4
        assert "force" in err

    def test_certify_cap_exceeded(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "big.json",
            {
                "dims": [2] * 7,
                "state": [[1.0, 0.0]] + [[0.0, 0.0]] * 127,
                "neighborhoods": [[a] for a in range(7)],
                "gain_scale": 0.5,
            },
        )
        code, _, err = run_cli(capsys, ["certify", inst])
        assert code == 5
        assert "cap" in err

    def test_simulate_integrator_abort(self, tmp_path, capsys):
        inst = dicke_instance(tmp_path, gain_scale=8.0)
        code, _, err = run_cli(
            capsys,
            [
                "simulate",
                inst,
                "--csv",
                str(tmp_path / "t.csv"),
                "--t-final",
                "5",
                "--dt",
                "0.5",
                "--trajectories",
                "1",
            ],
        )
        assert code == 6
        assert "step size" in err


class TestSynthesizeCommand:
    def test_writes_operator_files_with_metadata(self, tmp_path, capsys):
        out_dir = tmp_path / "ops"
        code, report, _ = run_cli(
            capsys, ["synthesize", dicke_instance(tmp_path), "--out", str(out_dir)]
        )
        assert code == 0
        assert len(report["files"]) == 2
        assert all(r < 1e-10 for r in report["annihilation_residuals"])
        matrix, meta = read_operator_file(out_dir / "noise_op_00.json")
        assert matrix.shape == (8, 8)
        assert meta["neighborhood"] == [0, 1, 2]
        assert len(meta["gains"]) == 6

    def test_force_writes_with_warning(self, tmp_path, capsys):
        out_dir = tmp_path / "ops"
        code, report, _ = run_cli(
            capsys,
            ["synthesize", ghz3_instance(tmp_path), "--out", str(out_dir), "--force"],
        )
        assert code == 0
        assert any("forced" in w for w in report["warnings"])


class TestParentHamCommand:
    def test_dicke_kernel_dim_one(self, tmp_path, capsys):
        out_dir = tmp_path / "ham"
        code, report, _ = run_cli(
            capsys, ["parent-ham", dicke_instance(tmp_path), "--out", str(out_dir)]
        )
        assert code == 0
        assert report["kernel_dim"] == 1
        assert report["frustration_free"] is True
        total, meta = read_operator_file(out_dir / "parent_total.json")
        assert total.shape == (16, 16)
        evals = np.linalg.eigvalsh(total)
        assert int(np.sum(evals < 1e-8)) == 1

    def test_ghz3_kernel_dim_two_still_frustration_free(self, tmp_path, capsys):
        out_dir = tmp_path / "ham"
        code, report, _ = run_cli(
            capsys, ["parent-ham", ghz3_instance(tmp_path), "--out", str(out_dir)]
        )
        assert code == 0
        assert report["kernel_dim"] == 2
        assert report["frustration_free"] is True

    def test_full_neighborhood_writes_rank_one_projector_complement(
        self, tmp_path, capsys
    ):
        inst = write_instance(
            tmp_path / "full.json",
            {"dims": [2, 2], "state": "ghz", "neighborhoods": [[0, 1]]},
        )
        out_dir = tmp_path / "ham"
        code, report, _ = run_cli(capsys, ["parent-ham", inst, "--out", str(out_dir)])
        assert code == 0
        total, _ = read_operator_file(out_dir / "parent_total.json")
        inst_data = load_instance(inst)
        psi = inst_data.state.amplitudes
        np.testing.assert_allclose(
            total, np.eye(4) - np.outer(psi, psi.conj()), atol=1e-10
        )


class TestCertifyCommand:
    def test_dicke_certificate(self, tmp_path, capsys):
        code, report, _ = run_cli(capsys, ["certify", dicke_instance(tmp_path)])
        assert code == 0
        assert report["mode"] == "certificate"
        assert report["certified"] is True
        assert report["kernel_dim"] == 1
        assert report["gap"] > 0
        assert len(report["eigenvalues"]) == 256

    def test_certificate_timings_beside_total(self, tmp_path, capsys):
        code, report, _ = run_cli(capsys, ["certify", dicke_instance(tmp_path)])
        assert code == 0
        timings = report["timings"]
        assert set(timings) == {"certificate_s", "total_s"}
        for value in timings.values():
            assert isinstance(value, float) and value >= 0.0

    def test_certify_from_written_operators(self, tmp_path, capsys):
        out_dir = tmp_path / "ops"
        inst = dicke_instance(tmp_path)
        assert main(["synthesize", inst, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        code, report, _ = run_cli(
            capsys, ["certify", inst, "--operators", str(out_dir)]
        )
        assert code == 0
        assert report["certified"] is True

    def test_evidence_fallback_above_cap(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "big.json",
            {
                "dims": [2] * 7,
                "state": [[1.0, 0.0]] + [[0.0, 0.0]] * 127,
                "neighborhoods": [[a] for a in range(7)],
                "gain_scale": 0.5,
            },
        )
        code, report, _ = run_cli(
            capsys,
            [
                "certify",
                inst,
                "--evidence-fallback",
                "--trajectories",
                "1",
                "--t-final",
                "0.5",
                "--dt",
                "0.01",
            ],
        )
        assert code == 0
        assert report["mode"] == "evidence"
        assert "evidence_supported" in report
        assert any("evidence" in w for w in report["warnings"])


class TestCertifySmallSystems:
    def test_single_qubit_damping_gap(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "qubit.json",
            {
                "dims": [2],
                "state": [[1.0, 0.0], [0.0, 0.0]],
                "neighborhoods": [[0]],
                "gain_scale": 1.0,
            },
        )
        code, report, _ = run_cli(capsys, ["certify", inst])
        assert code == 0
        assert report["certified"] is True
        assert report["gap"] == pytest.approx(0.5, abs=1e-9)

    def test_zero_operator_yields_valid_json_report(self, tmp_path, capsys):
        # A zero noise operator leaves no nonzero eigenvalues, so the gap is
        # infinite; the report must still be standard JSON.
        from qlstab.instances import write_operator_file

        inst = write_instance(
            tmp_path / "qubit.json",
            {
                "dims": [2],
                "state": [[1.0, 0.0], [0.0, 0.0]],
                "neighborhoods": [[0]],
            },
        )
        ops_dir = tmp_path / "zops"
        ops_dir.mkdir()
        write_operator_file(
            ops_dir / "noise_op_00.json",
            np.zeros((2, 2), dtype=complex),
            {"kind": "noise_operator", "neighborhood": [0]},
        )
        code = main(["certify", inst, "--operators", str(ops_dir)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out, parse_constant=lambda s: pytest.fail(f"non-standard JSON token {s}"))
        assert report["certified"] is False
        assert report["gap"] == "inf"

    def test_dephasing_operators_fail_certification(self, tmp_path, capsys):
        from qlstab.instances import write_operator_file

        inst = write_instance(
            tmp_path / "qubit.json",
            {
                "dims": [2],
                "state": [[1.0, 0.0], [0.0, 0.0]],
                "neighborhoods": [[0]],
            },
        )
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        write_operator_file(
            ops_dir / "noise_op_00.json",
            np.diag([1.0, -1.0]).astype(complex),
            {"kind": "noise_operator", "neighborhood": [0]},
        )
        code, report, _ = run_cli(
            capsys, ["certify", inst, "--operators", str(ops_dir)]
        )
        assert code == 0
        assert report["certified"] is False
        assert report["kernel_dim"] >= 2


class TestInstanceFormats:
    def test_indeterminate_verdict_on_borderline_instance(self, tmp_path, capsys):
        import math

        big = math.sqrt(1 - 5e-9)
        small = math.sqrt(5e-9)
        inst = write_instance(
            tmp_path / "border.json",
            {
                "dims": [2, 2],
                "state": [[big, 0.0], [0.0, 0.0], [0.0, 0.0], [small, 0.0]],
                "neighborhoods": [[0, 1], [0], [1]],
            },
        )
        code, report, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        assert report["verdict"] == "indeterminate"
        assert any("borderline" in w for w in report["warnings"])

    def test_qutrit_product_instance(self, tmp_path, capsys):
        amps = [[0.0, 0.0]] * 6
        amps[0] = [1.0, 0.0]
        inst = write_instance(
            tmp_path / "qutrit.json",
            {"dims": [3, 2], "state": amps, "neighborhoods": [[0], [1]]},
        )
        code, report, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        assert report["verdict"] == "true"
        assert report["per_neighborhood"][0]["reduced_dim"] == 3

    def test_mixed_initial_states_simulation(self, tmp_path, capsys):
        csv_path = tmp_path / "mixed.csv"
        code, report, _ = run_cli(
            capsys,
            [
                "simulate",
                dicke_instance(tmp_path),
                "--csv",
                str(csv_path),
                "--t-final",
                "1",
                "--trajectories",
                "2",
                "--record-every",
                "100",
                "--mixed",
            ],
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        # Mixed initial states start with purity well below 1.
        first = lines[1].split(",")
        assert float(first[4]) < 0.9

    def test_graph_state_with_edges(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "cluster.json",
            {
                "dims": [2, 2, 2, 2],
                "state": {"name": "graph", "edges": [[0, 1], [1, 2], [2, 3]]},
                "neighborhoods": [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3]],
            },
        )
        code, report, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        assert report["verdict"] == "true"

    def test_graded_gains_policy_recorded(self, tmp_path, capsys):
        inst = dicke_instance(tmp_path, gains_policy="graded", gain_scale=1.0)
        out_dir = tmp_path / "ops"
        code, report, _ = run_cli(
            capsys, ["synthesize", inst, "--out", str(out_dir)]
        )
        assert code == 0
        _, meta = read_operator_file(out_dir / "noise_op_00.json")
        assert meta["gains"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert meta["gains_policy"] == "graded"


class TestSimulateCommand:
    def test_short_run_produces_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        code, report, _ = run_cli(
            capsys,
            [
                "simulate",
                dicke_instance(tmp_path),
                "--csv",
                str(csv_path),
                "--t-final",
                "2",
                "--trajectories",
                "2",
                "--record-every",
                "50",
            ],
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trajectory_id,t,fidelity,trace_distance,purity"
        assert len(lines) == 1 + report["rows"]
        assert report["min_final_fidelity"] > 0.5

    def test_zero_time_keeps_initial_rows_only(self, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        code, report, _ = run_cli(
            capsys,
            [
                "simulate",
                dicke_instance(tmp_path),
                "--csv",
                str(csv_path),
                "--t-final",
                "0",
                "--trajectories",
                "3",
                "--seed",
                "5",
            ],
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one initial row per trajectory
        # The fidelity column must be the initial overlap with the target,
        # reproducible from the documented seeding scheme.
        from qlstab.dynamics import fidelity
        from qlstab.tensor import make_dicke_4_2, random_pure_state

        rng = np.random.default_rng(5)
        target = make_dicke_4_2()
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[1]) == 0.0
            drawn = random_pure_state(target.space, rng).density_matrix()
            assert float(cols[2]) == pytest.approx(
                fidelity(target, drawn), abs=1e-11
            )

    def test_switched_short_run(self, tmp_path, capsys):
        csv_path = tmp_path / "sw.csv"
        code, report, _ = run_cli(
            capsys,
            [
                "simulate",
                dicke_instance(tmp_path),
                "--csv",
                str(csv_path),
                "--switched",
                "--tau",
                "0.5",
                "--cycles",
                "3",
                "--trajectories",
                "2",
            ],
        )
        assert code == 0
        assert report["mode"] == "switched"
        lines = csv_path.read_text().strip().splitlines()
        # header + (2 segments * 3 cycles + initial) per trajectory
        assert len(lines) == 1 + 2 * 7


class TestDeterminism:
    def test_same_seed_bit_identical_outputs(self, tmp_path, capsys):
        inst = dicke_instance(tmp_path)
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate",
            inst,
            "--t-final",
            "1",
            "--trajectories",
            "2",
            "--record-every",
            "20",
            "--seed",
            "11",
        ]
        code_a = main(args + ["--csv", str(csv_a)])
        out_a = capsys.readouterr().out
        code_b = main(args + ["--csv", str(csv_b)])
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()
        rep_a, rep_b = json.loads(out_a), json.loads(out_b)
        rep_a.pop("timings")
        rep_b.pop("timings")
        rep_a["csv"] = rep_b["csv"] = ""
        assert rep_a == rep_b

    def test_different_seed_changes_trajectories(self, tmp_path, capsys):
        inst = dicke_instance(tmp_path)
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", inst, "--t-final", "0.5", "--trajectories", "1"]
        assert main(base + ["--csv", str(csv_a), "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(base + ["--csv", str(csv_b), "--seed", "2"]) == 0
        capsys.readouterr()
        assert csv_a.read_bytes() != csv_b.read_bytes()
