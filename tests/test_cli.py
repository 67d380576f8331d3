"""Command-line interface: verdicts, exit codes, file outputs, determinism."""

import contextlib
import importlib.util
import io
import json
import tempfile
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qlstab import analysis, cli, dynamics, synthesis
from qlstab.cli import main
from qlstab.instances import load_instance, read_operator_file
from qlstab.subspaces import Subspace, support
from qlstab.tensor import NORM_TOL

from oracles import apply_generator_oracle, partial_trace_oracle, report_oracle


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


def two_qubit_instance(tmp_path, weight):
    """sqrt(1 - w)|00> + sqrt(w)|11> with neighborhoods {0, 1}, {0}, {1}."""
    big, small = np.sqrt(1 - weight), np.sqrt(weight)
    return write_instance(
        tmp_path / "two_qubit.json",
        {
            "dims": [2, 2],
            "state": [[big, 0.0], [0.0, 0.0], [0.0, 0.0], [small, 0.0]],
            "neighborhoods": [[0, 1], [0], [1]],
        },
    )


def escape_instances(tmp_path):
    """Two instances whose target escapes the intersection after a borderline
    support rank call, with their extra flags: A is sqrt(1 - 5e-12)|00> +
    sqrt(5e-12)|11> on {0}, {1}; B is sqrt(1 - 5e-7)|01> + sqrt(5e-7)|10> on
    {0, 1}, {0}, {1} at tolerance 1e-6."""
    a, b = np.sqrt(1 - 5e-12), np.sqrt(5e-12)
    inst_a = write_instance(
        tmp_path / "escape_a.json",
        {"dims": [2, 2], "state": [[a, 0.0], [0.0, 0.0], [0.0, 0.0], [b, 0.0]],
         "neighborhoods": [[0], [1]]},
    )
    a, b = np.sqrt(1 - 5e-7), np.sqrt(5e-7)
    inst_b = write_instance(
        tmp_path / "escape_b.json",
        {"dims": [2, 2], "state": [[0.0, 0.0], [a, 0.0], [b, 0.0], [0.0, 0.0]],
         "neighborhoods": [[0, 1], [0], [1]]},
    )
    return [inst_a], [inst_b, "--tolerance", "1e-6"]


def uncovered_ghz3_instance(tmp_path):
    """GHZ(3) with the one neighborhood {0, 1}: qubit 2 is uncovered."""
    return write_instance(
        tmp_path / "ghz3_uncovered.json",
        {"dims": [2, 2, 2], "state": "ghz", "neighborhoods": [[0, 1]]},
    )


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
        inst = dicke_instance(tmp_path, tolerance=1e-7)
        code, report, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        assert report["tolerances"]["support_rtol"] == 1e-7
        code, report, _ = run_cli(capsys, ["check-dqls", inst, "--tolerance", "1e-9"])
        assert code == 0
        assert report["tolerances"]["support_rtol"] == pytest.approx(1e-9)

    def test_text_output(self, tmp_path, capsys):
        code = main(["check-dqls", dicke_instance(tmp_path), "--output", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: true" in out


    def test_false_verdict_from_the_target_distance_is_explained(
        self, tmp_path, capsys
    ):
        # The singleton supports drop the weight 5e-17, far below the
        # borderline band; the target then lies sqrt(5e-17) from the
        # one-dimensional intersection, above ORTH_TOL but below the escape
        # check's ANNIHILATION_TOL.
        w = 5e-17
        inst = write_instance(
            tmp_path / "tiny_weight.json",
            {"dims": [2, 2],
             "state": [[math.sqrt(1 - w), 0.0], [0.0, 0.0], [0.0, 0.0],
                       [math.sqrt(w), 0.0]],
             "neighborhoods": [[0], [1]]},
        )
        code, report, err = run_cli(capsys, ["check-dqls", inst])
        assert (code, err) == (0, "")
        assert (report["verdict"], report["intersection_dim"]) == ("false", 1)
        assert report["warnings"] == [
            "verdict false: the target lies 7.071e-09 from the one-dimensional "
            "intersection, above ORTH_TOL 1.000e-09"
        ]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-dqls"],
            ["parent-ham", "--out", "ham"],
            ["synthesize", "--out", "ops", "--force"],
            ["certify", "--force"],
            ["simulate", "--csv", "t.csv", "--force", "--t-final", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_numerical_failure_exit_code(self, tmp_path, capsys, argv):
        # A Schmidt weight of 1e-13 sits below the support cutoff on the
        # singletons but not on the pair, so the containment checks fail.
        inst = two_qubit_instance(tmp_path, 1e-13)
        words = [str(tmp_path / w) if w in ("ham", "ops", "t.csv") else w
                 for w in argv[1:]]
        code, report, err = run_cli(capsys, [argv[0], inst, *words])
        assert code == 7
        assert report is None
        assert err.startswith("error: numerical failure: ")

    def test_array_too_large_to_allocate_exits_5(self, tmp_path, capsys):
        # 2**50 complex amplitudes need 16 PiB, more than a 64-bit address
        # space holds, so the allocation fails at once and allocates nothing.
        inst = write_instance(
            tmp_path / "huge.json",
            {"dims": [2] * 50, "state": "ghz", "neighborhoods": [[0, 1]]},
        )
        code, report, err = run_cli(capsys, ["check-dqls", inst])
        assert code == 5
        assert report is None
        assert err.startswith("error: out of memory: ")
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_borderline_containment_failure_is_indeterminate(self, tmp_path, capsys):
        # With --tolerance 1e-6 the singleton supports drop the 5e-9 Schmidt
        # weight and the intersection misses them by 7.1e-5. The sweep's
        # Gram eigenvalues of 5e-9 already sit in the borderline band, so
        # the failure is a note; without that flag (the 1e-13 instance
        # above) it still exits 7.
        inst = two_qubit_instance(tmp_path, 5e-9)
        argv = ["check-dqls", inst, "--tolerance", "1e-6"]
        code, report, err = run_cli(capsys, argv)
        assert code == 0
        assert err == ""
        assert report["verdict"] == "indeterminate"
        assert report["intersection_dim"] == 1
        notes = report["warnings"]
        assert notes[0].startswith("borderline rank decision: intersection")
        assert notes[1] == (
            "intersection failed its containment check: a returned basis "
            "vector sits 7.071e-05 outside an input subspace, after a "
            "borderline rank decision"
        )
        assert notes[2].startswith("verdict downgraded to false")
        argv = ["synthesize", inst, "--tolerance", "1e-6", "--out",
                str(tmp_path / "ops")]
        code, _, err = run_cli(capsys, argv)
        assert code == 4
        assert "indeterminate because of a borderline rank decision" in err

    def test_borderline_annihilation_failures_are_notes(self, tmp_path, capsys):
        # The instance check-dqls calls indeterminate above: parent-ham and
        # the forced commands carry check-dqls's notes, the containment
        # failure after the borderline rank decision among them, and exit 0.
        # The 1e-13 default-tolerance instance of
        # test_numerical_failure_exit_code has no borderline rank call and
        # still exits 7 on every command.
        inst = two_qubit_instance(tmp_path, 5e-9)
        code, report, err = run_cli(capsys, ["check-dqls", inst, "--tolerance", "1e-6"])
        assert (code, err) == (0, "")
        shared = report["warnings"]
        assert len(shared) == 3
        argv = ["parent-ham", inst, "--tolerance", "1e-6", "--out",
                str(tmp_path / "ham")]
        code, report, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert report["kernel_dim"] == 1
        assert report["warnings"] == shared
        for words in (
            ["synthesize", "--out", str(tmp_path / "ops")],
            ["certify"],
            ["simulate", "--csv", str(tmp_path / "t.csv"), "--t-final", "0.1",
             "--trajectories", "1"],
        ):
            argv = [words[0], inst, "--tolerance", "1e-6", "--force", *words[1:]]
            code, report, err = run_cli(capsys, argv)
            assert (code, err) == (0, ""), words[0]
            notes = report["warnings"]
            assert notes[:3] == shared
            assert not any(n.startswith("synthesized") for n in notes)
            if words[0] == "certify":
                assert report["certified"] is False
                assert "stationary state differs from the target by 6.667e-05" in notes

    def test_escaped_target_after_a_borderline_call_is_indeterminate(
        self, tmp_path, capsys
    ):
        # Each support drops a Schmidt weight inside the borderline band, so
        # the target escapes the intersection (by sqrt(5e-12) on A, entirely
        # on B, whose intersection is empty). That is a note on every
        # command; with no borderline call it would exit 7.
        after = ", after a borderline rank decision"
        for (inst, *flags), dim, escape in zip(
            escape_instances(tmp_path), (1, 0), ("2.236e-06", "1.000e+00")
        ):
            code, report, err = run_cli(capsys, ["check-dqls", inst, *flags])
            assert (code, err) == (0, "")
            assert report["verdict"] == "indeterminate"
            assert report["intersection_dim"] == dim
            assert report["warnings"][-1] == (
                f"target escaped the intersection subspace by {escape}{after}"
            )
            argv = ["synthesize", inst, *flags, "--out", str(tmp_path / "ops")]
            code, _, err = run_cli(capsys, argv)
            assert code == 4
            assert "indeterminate because of a borderline rank decision" in err
            argv = ["parent-ham", inst, *flags, "--out", str(tmp_path / "ham")]
            code, report, err = run_cli(capsys, argv)
            assert (code, err, report["kernel_dim"]) == (0, "", dim)

    def test_forced_commands_on_an_escaped_target_note_the_failures(
        self, tmp_path, capsys
    ):
        # The escape note of check-dqls is the one annihilation failure the
        # forced commands report; the blocks themselves annihilate their
        # supports.
        (inst,), _ = escape_instances(tmp_path)
        code, report, err = run_cli(capsys, ["check-dqls", inst])
        assert (code, err) == (0, "")
        shared = report["warnings"]
        assert shared[-1] == (
            "target escaped the intersection subspace by 2.236e-06, after a "
            "borderline rank decision"
        )
        for words in (
            ["synthesize", "--out", str(tmp_path / "ops")],
            ["certify"],
            ["simulate", "--csv", str(tmp_path / "t.csv"), "--t-final", "0.1",
             "--trajectories", "1"],
        ):
            code, report, err = run_cli(capsys, [words[0], inst, "--force", *words[1:]])
            assert (code, err) == (0, ""), words[0]
            notes = report["warnings"]
            assert notes[:len(shared)] == shared
            assert not any(n.startswith("synthesized") for n in notes)
            if words[0] == "certify":
                assert report["certified"] is False
                assert notes[-1] == "stationary state differs from the target by 3.162e-06"

    @pytest.mark.parametrize(
        "hoods, weight, codes",
        [
            ([[0], [1]], 0.0, (0, 0, 0, 0, 0)),
            ([[0], [1]], 1e-18, (0, 0, 0, 0, 0)),
            ([[0], [1]], 2e-18, (0, 0, 4, 0, 0)),
            ([[0], [1]], 5e-17, (0, 0, 4, 0, 0)),
            ([[0], [1]], 1e-16, (0, 0, 4, 0, 0)),
            ([[0], [1]], 5e-16, (7, 7, 7, 7, 7)),
            ([[0, 1], [0], [1]], 0.0, (0, 0, 0, 0, 0)),
            ([[0, 1], [0], [1]], 2e-18, (7, 7, 7, 7, 7)),
            ([[0, 1], [0], [1]], 2e-17, (7, 7, 7, 7, 7)),
            ([[0, 1], [0], [1]], 1e-14, (7, 7, 7, 7, 7)),
        ],
    )
    def test_commands_agree_where_the_dropped_amplitude_meets_a_tolerance(
        self, tmp_path, capsys, hoods, weight, codes
    ):
        # sqrt(1 - w)|00> + sqrt(w)|11> at the default tolerance: no rank call
        # is borderline, and the dropped amplitude sqrt(w) crosses ORTH_TOL
        # (verdict false, so plain synthesize refuses with 4) and then
        # ANNIHILATION_TOL (the target escapes: exit 7). One analysis makes
        # that call for every command.
        big, small = np.sqrt(1 - weight), np.sqrt(weight)
        inst = write_instance(
            tmp_path / "escape.json",
            {"dims": [2, 2], "state": [[big, 0.0], [0.0, 0.0], [0.0, 0.0],
                                       [small, 0.0]], "neighborhoods": hoods},
        )
        runs = [
            run_cli(capsys, [*words[:1], inst, *words[1:]])
            for words in (
                ["check-dqls"],
                ["parent-ham", "--out", str(tmp_path / "ham")],
                ["synthesize", "--out", str(tmp_path / "ops")],
                ["synthesize", "--force", "--out", str(tmp_path / "forced")],
                ["certify", "--force"],
            )
        ]
        assert tuple(code for code, _, _ in runs) == codes
        if codes[0] == codes[1] == cli.EXIT_NUMERICAL:
            assert runs[0][2].startswith("error: numerical failure: ")
            assert runs[1][2] == runs[0][2]

    def test_empty_intersection_renders_an_empty_basis(self, tmp_path, capsys):
        _, (inst, *flags) = escape_instances(tmp_path)
        assert main(["check-dqls", inst, *flags]) == 0
        assert '\n  "intersection_basis": [],\n' in capsys.readouterr().out
        assert main(["check-dqls", inst, *flags, "--output", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("intersection_basis:")
        assert lines[at + 1] == "per_neighborhood:"


    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("dims", [2, math.inf], "expected an integer"),
            ("dims", [2, 2.7], "expected an integer"),
            ("dims", [2, True], "expected an integer"),
            ("neighborhoods", [[0, math.inf]], "expected an integer"),
            ("neighborhoods", [[0, 1.9]], "expected an integer"),
            ("neighborhoods", [[0, True]], "expected an integer"),
            ("state", {"name": "graph", "edges": [[0, 1.5]]}, "expected an integer"),
            ("state", {"name": "graph", "edges": [[0, True]]}, "expected an integer"),
            ("state", [[1.0, 0.0], [math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]], "norm"),
            ("state", [[True, False]] + [[0.0, 0.0]] * 3,
             "state amplitudes: expected a number"),
            ("state", [["1", "0"]] + [[0.0, 0.0]] * 3,
             "state amplitudes: expected a number"),
            ("dims", [2], "W state needs n >= 2"),
        ],
        ids=["dims-inf", "dims-2.7", "dims-true", "hood-inf", "hood-1.9",
             "hood-true", "edge-1.5", "edge-true", "nan-amplitude",
             "bool-amplitude", "string-amplitude", "w-one-qubit"],
    )
    def test_malformed_numbers_are_parse_errors(
        self, tmp_path, capsys, key, value, fragment
    ):
        data = {"dims": [2, 2], "state": "w", "neighborhoods": [[0, 1]]}
        data[key] = value
        inst = write_instance(tmp_path / "odd.json", data)
        code, report, err = run_cli(capsys, ["check-dqls", inst])
        assert code == 2
        assert report is None
        assert fragment in err

    @pytest.mark.parametrize("scale", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_gain_scale_is_parse_error(self, tmp_path, capsys, scale):
        inst = dicke_instance(tmp_path, gain_scale=scale)
        out = tmp_path / "ops"
        code, report, err = run_cli(capsys, ["synthesize", inst, "--out", str(out)])
        assert code == 2
        assert report is None
        assert "gain_scale must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "--out", "ops"],
            ["certify"],
            ["simulate", "--csv", "t.csv", "--t-final", "0.1"],
            ["simulate", "--csv", "t.csv", "--switched", "--cycles", "1"],
        ],
        ids=["synthesize", "certify", "simulate", "simulate-switched"],
    )
    @pytest.mark.parametrize(
        "policy, scale",
        [("uniform", 1e300), ("graded", 1e308), ("uniform", 1e8)],
        ids=["uniform", "graded", "uniform-1e8"],
    )
    def test_huge_gain_scale_is_one_numerical_error(
        self, tmp_path, capsys, argv, policy, scale
    ):
        # The suite turns warnings into errors, so a numpy overflow or
        # invalid-value warning on the way would fail this test. At 1e8 the
        # block is finite but its annihilation defect, roundoff that grows
        # with the gains, exceeds ANNIHILATION_TOL; at 1e300 its norm
        # overflows; at 1e308 graded the block itself does.
        inst = dicke_instance(tmp_path, gains_policy=policy, gain_scale=scale)
        words = [str(tmp_path / w) if w in ("ops", "t.csv") else w for w in argv[1:]]
        code, report, err = run_cli(capsys, [argv[0], inst, *words])
        assert code == 7
        assert report is None
        assert err.startswith("error: numerical failure: ")
        assert f"gain_scale {scale:g} is too large" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "ops").exists()

    @pytest.mark.parametrize(
        "key, value, code, message",
        [
            ("tolerance", 10**400, 2, f"tolerance must be finite, got {10**400}"),
            ("state", {"edges": []}, 2, "state object needs a string 'name' field"),
            ("state", 5, 2, "unsupported state descriptor 5"),
            ("state", "psi_t", 3,
             "dimension mismatch: state 'psi_t' is a 4-qubit state; dims are [2, 2]"),
            ("state", {"name": "graph", "edges": [[0, 0]]}, 2,
             "self-loop edge (0, 0) is not allowed"),
            ("state", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], 2,
             "state amplitudes must be a flat list of pairs"),
            ("neighborhoods", [], 2, "neighborhoods must be a non-empty list of lists"),
            ("gain_scale", 0, 2, "gain_scale must be strictly positive"),
        ],
        ids=["tolerance-overflow", "state-without-name", "state-number",
             "psi_t-two-qubits", "graph-self-loop", "amplitudes-2d",
             "no-neighborhoods", "gain-scale-zero"],
    )
    def test_instance_rejections_name_the_rule(
        self, tmp_path, capsys, key, value, code, message
    ):
        data = {"dims": [2, 2], "state": "ghz", "neighborhoods": [[0, 1]]}
        data[key] = value
        inst = write_instance(tmp_path / "odd.json", data)
        assert run_cli(capsys, ["check-dqls", inst]) == (code, None, f"error: {message}\n")


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

    def test_shorter_rewrite_leaves_no_stale_operator_files(self, tmp_path, capsys):
        # |1111> on single sites writes four operators, then |0000> on one
        # 4-site neighborhood writes one into the same directory: certify
        # must read that one alone, as it would synthesize it.
        def basis_state(name, index, hoods):
            amps = [[float(k == index), 0.0] for k in range(16)]
            data = {"dims": [2] * 4, "state": amps, "neighborhoods": hoods}
            return write_instance(tmp_path / name, data)

        ones = basis_state("ones.json", 15, [[0], [1], [2], [3]])
        zeros = basis_state("zeros.json", 0, [[0, 1, 2, 3]])
        out_dir = tmp_path / "ops"
        (out_dir / "keep").mkdir(parents=True)
        (out_dir / "noise_op_notes.txt").write_text("kept")
        for inst, count in ((ones, 4), (zeros, 1)):
            code, report, _ = run_cli(
                capsys, ["synthesize", inst, "--out", str(out_dir)]
            )
            assert (code, len(report["files"])) == (0, count)
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "keep", "noise_op_00.json", "noise_op_notes.txt"
        ]
        _, loaded, _ = run_cli(capsys, ["certify", zeros, "--operators", str(out_dir)])
        _, synthesized, _ = run_cli(capsys, ["certify", zeros])
        for report in (loaded, synthesized):
            assert (report["certified"], report["gap"]) == (True, 4.5)
        assert loaded["eigenvalues"] == synthesized["eigenvalues"]

    def test_certify_reads_only_numbered_operator_files(self, tmp_path, capsys):
        # A hand-made copy of a noise operator under another name is not one
        # of the files synthesize writes, so it adds no operator.
        amps = [[float(k == 0), 0.0] for k in range(16)]
        data = {"dims": [2] * 4, "state": amps, "neighborhoods": [[0, 1, 2, 3]]}
        inst = write_instance(tmp_path / "zeros.json", data)
        out_dir = tmp_path / "ops"
        assert run_cli(capsys, ["synthesize", inst, "--out", str(out_dir)])[0] == 0
        copy = (out_dir / "noise_op_00.json").read_text()
        (out_dir / "noise_op_copy.json").write_text(copy)
        code, report, err = run_cli(
            capsys, ["certify", inst, "--operators", str(out_dir)]
        )
        assert (code, err) == (0, "")
        assert (report["certified"], report["gap"]) == (True, 4.5)


def two_product_superposition(dims, seed):
    """Amplitude pairs of (a + b) / |a + b| for random product states a, b,
    so that every reduced state has rank at most 2."""
    rng = np.random.default_rng(seed)
    products = []
    for _ in range(2):
        product = np.ones(1, dtype=complex)
        for d in dims:
            product = np.kron(product, rng.normal(size=d) + 1j * rng.normal(size=d))
        products.append(product / np.linalg.norm(product))
    amps = products[0] + products[1]
    amps /= np.linalg.norm(amps)
    return [[z.real, z.imag] for z in amps.tolist()]


class TestSupportsFollowTheNeighborhoods:
    """Row k of the check-dqls report and noise operator k belong to
    neighborhood k, on mixed dimensions, neighborhoods that are not
    contiguous or sorted, and a subsystem that no neighborhood covers."""

    @pytest.mark.parametrize(
        "dims, hoods",
        [([2, 3, 2, 3], [[0, 2], [1, 3]]), ([3, 2, 3, 2], [[2, 3], [0]])],
        ids=["interleaved", "uncovered"],
    )
    def test_rows_and_operators_match_their_neighborhood(
        self, tmp_path, capsys, dims, hoods
    ):
        amps = two_product_superposition(dims, seed=0)
        inst = write_instance(
            tmp_path / "mixed.json",
            {"dims": dims, "state": amps, "neighborhoods": hoods},
        )
        psi = load_instance(inst).state
        code, report, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        out_dir = tmp_path / "ops"
        assert main(["synthesize", inst, "--out", str(out_dir), "--force"]) == 0
        capsys.readouterr()
        rows = report["per_neighborhood"]
        assert len(rows) == len(hoods)
        for k, (row, hood) in enumerate(zip(rows, hoods)):
            reduced_dim = math.prod(dims[a] for a in hood)
            sub, _ = support(partial_trace_oracle(psi, hood))
            assert row == {
                "neighborhood": hood,
                "support_dim": sub.dim,
                "reduced_dim": reduced_dim,
            }
            assert sub.dim < reduced_dim
            matrix, meta = read_operator_file(out_dir / f"noise_op_{k:02d}.json")
            assert matrix.shape == (reduced_dim, reduced_dim)
            assert meta["neighborhood"] == hood


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

    def test_rerun_with_fewer_neighborhoods_leaves_no_stale_terms(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "ham"
        for hoods in ([[0, 1, 2], [1, 2, 3]], [[0, 1, 2, 3]]):
            inst = dicke_instance(tmp_path, neighborhoods=hoods)
            code, report, _ = run_cli(
                capsys, ["parent-ham", inst, "--out", str(out_dir)]
            )
            assert code == 0
        assert report["files"] == [
            str(out_dir / "parent_term_00.json"), str(out_dir / "parent_total.json")
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "parent_term_00.json", "parent_total.json"
        ]

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


    def test_uncovered_note_comes_first(self, tmp_path, capsys):
        code, report, err = run_cli(
            capsys,
            ["parent-ham", uncovered_ghz3_instance(tmp_path), "--out",
             str(tmp_path / "ham")],
        )
        assert code == 0
        assert err == ""
        assert report["warnings"] == [
            "uncovered subsystems [2]: no neighborhood acts on them"
        ]

    def test_borderline_rank_calls_are_reported(self, tmp_path, capsys):
        inst = two_qubit_instance(tmp_path, 5e-9)
        code, report, err = run_cli(
            capsys, ["parent-ham", inst, "--out", str(tmp_path / "ham")]
        )
        assert code == 0
        assert err == ""
        notes = report["warnings"]
        assert len(notes) == 3
        assert all(
            w.startswith("borderline rank decision: support rank decision is "
                         "borderline: ")
            for w in notes[:2]
        )
        assert notes[2].startswith("verdict downgraded to false")
        assert run_cli(capsys, ["check-dqls", inst])[1]["warnings"] == notes

    def test_one_sweep_per_command(self, tmp_path, capsys, monkeypatch):
        # The kernel is the analysis's intersection, not a second sweep.
        calls = []
        sweep = analysis._sweep

        def counted(space, terms):
            calls.append(len(terms))
            return sweep(space, terms)

        monkeypatch.setattr(analysis, "_sweep", counted)
        code, report, _ = run_cli(
            capsys, ["parent-ham", dicke_instance(tmp_path), "--out", str(tmp_path / "ham")]
        )
        assert (code, report["kernel_dim"]) == (0, 1)
        assert calls == [2]


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

    @pytest.mark.parametrize("name", ["dicke", "ghz5_pairs"])
    def test_kernel_is_the_square_of_the_intersection(self, tmp_path, capsys, name):
        # The source paper's theorem across two commands: forced synthesis
        # leaves exactly the operators on check-dqls's intersection (of
        # dimension m) stationary, so certify's kernel has dimension m^2,
        # and the certificate holds exactly when the verdict is true.
        if name == "dicke":
            inst = dicke_instance(tmp_path)
        else:
            inst = write_instance(
                tmp_path / "ghz5.json",
                {"dims": [2] * 5, "state": "ghz",
                 "neighborhoods": [[i, i + 1] for i in range(4)]},
            )
        code, dqls, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        code, cert, _ = run_cli(capsys, ["certify", inst, "--force"])
        assert code == 0
        assert (dqls["verdict"], dqls["intersection_dim"]) == {
            "dicke": ("true", 1), "ghz5_pairs": ("false", 2)
        }[name]
        assert cert["kernel_dim"] == dqls["intersection_dim"] ** 2
        assert cert["certified"] is (dqls["verdict"] == "true")

    def test_above_cap_certify_refuses_and_simulate_gives_evidence(
        self, tmp_path, capsys
    ):
        inst = write_instance(
            tmp_path / "big.json",
            {
                "dims": [2] * 7,
                "state": [[1.0, 0.0]] + [[0.0, 0.0]] * 127,
                "neighborhoods": [[a] for a in range(7)],
                "gain_scale": 0.5,
            },
        )
        code, report, err = run_cli(capsys, ["certify", inst])
        assert (code, report) == (cli.EXIT_DIM_CAP, None)
        assert err == (
            "error: dimension 128 exceeds the dense spectral cap 64; run "
            "simulate for trajectory evidence\n"
        )
        # Trajectory evidence: with --record-every at least the step count
        # (0.5 / 0.01 = 50), each trajectory writes its first and last rows.
        csv_path = tmp_path / "evidence.csv"
        code, report, _ = run_cli(
            capsys,
            ["simulate", inst, "--csv", str(csv_path), "--t-final", "0.5",
             "--dt", "0.01", "--record-every", "50", "--trajectories", "2"],
        )
        assert code == 0
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["0", "0"], ["0", "0.5"], ["1", "0"], ["1", "0.5"]
        ]
        assert report["rows"] == 4
        assert report["min_final_fidelity"] == min(report["final_fidelities"])


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

    @pytest.mark.parametrize(
        "entry, message",
        [
            (1e200, "noise operators are too large: sum of L^dag L overflows"),
            (1e154, "generator is too large: its real form overflows"),
        ],
    )
    def test_overflowing_operator_file_exits_7(
        self, tmp_path, capsys, entry, message
    ):
        from qlstab.instances import write_operator_file

        inst = write_instance(
            tmp_path / "ghz2.json",
            {"dims": [2, 2], "state": "ghz", "neighborhoods": [[0, 1]]},
        )
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        write_operator_file(
            ops_dir / "noise_op_00.json",
            np.array([[0.0, 0.0], [entry, 0.0]], dtype=complex),
            {"kind": "noise_operator", "neighborhood": [0]},
        )
        code, report, err = run_cli(
            capsys, ["certify", inst, "--operators", str(ops_dir)]
        )
        assert code == 7
        assert report is None
        assert err == f"error: numerical failure: {message}\n"

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

    def test_zero_operators_take_the_default_step(self, tmp_path, capsys):
        # A Bell pair on {0}, {1}: both supports fill their qubit, so forced
        # synthesis gives two zero operators. Their generator's norm bound is
        # 0, so the default step is 0.01.
        amp = 1 / math.sqrt(2)
        inst = write_instance(
            tmp_path / "bell.json",
            {"dims": [2, 2], "state": [[amp, 0.0], [0.0, 0.0], [0.0, 0.0], [amp, 0.0]],
             "neighborhoods": [[0], [1]]},
        )
        csv_path = tmp_path / "traj.csv"
        code, report, err = run_cli(
            capsys,
            ["simulate", inst, "--force", "--csv", str(csv_path), "--t-final", "0.05",
             "--trajectories", "2"],
        )
        assert (code, err, report["rows"]) == (0, "", 12)
        rows = csv_path.read_text().splitlines()[1:]
        times = [row.split(",")[1] for row in rows]
        assert times == ["0", "0.01", "0.02", "0.03", "0.04", "0.05"] * 2

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


def cluster5_instance(tmp_path):
    """Linear 5-qubit cluster state with sliding 3-site windows."""
    return write_instance(
        tmp_path / "cluster5.json",
        {
            "dims": [2] * 5,
            "state": {"name": "graph", "edges": [[a, a + 1] for a in range(4)]},
            "neighborhoods": [[a, a + 1, a + 2] for a in range(3)],
        },
    )


def load_benchmark_workloads():
    """The benchmark's workload module, whose call-count formula the traced
    benchmark runs check."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # Registered before it runs: its dataclasses resolve their module.
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def count_calls(monkeypatch, *names):
    """Wrap the named ``dynamics`` module globals and count their calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(dynamics, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    return counts


class TestSimulateStreaming:
    @pytest.mark.parametrize("instance", [dicke_instance, cluster5_instance],
                             ids=["dicke", "cluster5"])
    @pytest.mark.parametrize(
        "words",
        [
            ["--t-final", "0.3", "--dt", "0.01"],
            ["--switched", "--tau", "0.1", "--cycles", "2", "--dt", "0.01"],
        ],
        ids=["plain", "switched"],
    )
    def test_csv_bytes_match_per_operator_oracle(
        self, tmp_path, capsys, monkeypatch, instance, words
    ):
        inst = instance(tmp_path)
        argv = ["simulate", inst, "--trajectories", "2", *words]
        assert main(argv + ["--csv", str(tmp_path / "fast.csv")]) == 0
        calls = []

        def oracle(gen, rho):
            calls.append(1)
            return apply_generator_oracle(gen, rho)

        monkeypatch.setattr(dynamics, "apply_generator", oracle)
        assert main(argv + ["--csv", str(tmp_path / "oracle.csv")]) == 0
        capsys.readouterr()
        assert calls
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "oracle.csv").read_bytes()
        assert fast.count(b"\n") > 3

    def test_memory_does_not_grow_with_recorded_steps(self, tmp_path, capsys):
        # Rows go to the file as they are formatted, so a recorded step adds
        # neither its state nor its CSV line. Both runs write more than the
        # file object's fixed buffers hold.
        inst = dicke_instance(tmp_path)
        csv_path = tmp_path / "t.csv"

        def peak(t_final):
            argv = ["simulate", inst, "--csv", str(csv_path), "--t-final", t_final,
                    "--dt", "0.01", "--trajectories", "1"]
            tracemalloc.start()
            try:
                code, report, _ = run_cli(capsys, argv)
                assert code == 0
                return tracemalloc.get_traced_memory()[1], report["rows"]
            finally:
                tracemalloc.stop()

        peak("0.1")
        (short, short_rows), (long, long_rows) = peak("3.0"), peak("6.0")
        line = min(map(len, csv_path.read_text().splitlines(keepends=True)[1:]))
        assert (long - short) / (long_rows - short_rows) < line

    def test_bad_csv_path_exits_before_any_trajectory(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a trajectory ran before the CSV was opened")

        monkeypatch.setattr(dynamics, "evolve", refuse)
        monkeypatch.setattr(dynamics, "simulate_switched", refuse)
        csv_path = tmp_path / "missing" / "t.csv"
        for words in (["--t-final", "1"], ["--switched"]):
            code, report, err = run_cli(
                capsys,
                ["simulate", dicke_instance(tmp_path), "--csv", str(csv_path), *words],
            )
            assert (code, report) == (cli.EXIT_PARSE, None), words
            assert err == f"error: [Errno 2] No such file or directory: '{csv_path}'\n"

    def test_call_counts_follow_the_benchmark_formula(
        self, tmp_path, capsys, monkeypatch
    ):
        # The traced benchmark counts calls to these module globals; a path
        # that bypasses them must fail here, not only in a traced run.
        workloads = load_benchmark_workloads()
        insts = workloads.instances(0)
        workloads.write_instances(insts, tmp_path)
        commands = [c for c in workloads.PROBE if c.kind == "simulate"]
        assert {c.sim["switched"] for c in commands} == {False, True}
        for cmd in commands:
            with monkeypatch.context() as patch:
                counts = count_calls(patch, "evolve", "apply_generator")
                assert main(cmd.argv(tmp_path, tmp_path, 0)) == 0
            capsys.readouterr()
            segments = workloads._segments(
                cmd, len(insts[cmd.instance]["neighborhoods"])
            )
            assert counts == {
                "evolve": len(segments),
                "apply_generator": 4 * sum(segments),
            }, cmd.label

        # One superoperator build per certify command, as the formula counts;
        # the probe's certify reads the operator files its synthesize writes.
        synth, certify = (
            next(c for c in workloads.PROBE if c.kind == kind)
            for kind in ("synthesize", "certify")
        )
        assert main(synth.argv(tmp_path, tmp_path, 0)) == 0
        with monkeypatch.context() as patch:
            counts = count_calls(patch, "vectorize")
            assert main(certify.argv(tmp_path, tmp_path, 0)) == 0
        capsys.readouterr()
        assert counts == {"vectorize": 1}
        certifies = [c for c in workloads.commands("certify") if c.kind == "certify"]
        formula = workloads.expected_counts("certify", insts)["dynamics.vectorize"]
        assert formula == len(certifies)


def count_eigvalsh(monkeypatch):
    """Count calls of ``np.linalg.eigvalsh``, which every module looks up
    on ``np.linalg`` when it calls it."""
    calls = []
    original = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestPositivityFastPath:
    """States are validated by the Cholesky certificate, so the only dense
    eigendecompositions left are the ones whose values are used."""

    def test_simulate_takes_one_eigvalsh_per_row(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "out.csv"
        argv = ["simulate", dicke_instance(tmp_path), "--t-final", "0.25",
                "--dt", "0.0025", "--trajectories", "2", "--csv", str(csv_path)]
        calls = count_eigvalsh(monkeypatch)
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        rows = len(csv_path.read_text().strip().splitlines()) - 1
        # Per trajectory the initial state and 100 steps; each row's trace
        # distance takes the only eigvalsh.
        assert rows == 2 * 101
        assert len(calls) == rows

    def test_check_dqls_on_wide_windows_takes_none(self, tmp_path, capsys, monkeypatch):
        inst = write_instance(
            tmp_path / "w9.json",
            {"dims": [2] * 9, "state": "w",
             "neighborhoods": [list(range(8)), list(range(1, 9))]},
        )
        calls = count_eigvalsh(monkeypatch)
        code, report, _ = run_cli(capsys, ["check-dqls", inst])
        assert code == 0
        assert (report["verdict"], report["intersection_dim"]) == ("false", 2)
        assert calls == []


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


class TestReportSchema:
    BASE = ["command", "instance", "state", "dims", "neighborhoods", "seed",
            "tolerances"]
    SIM = ["mode", "trajectories", "csv", "rows", "final_fidelities",
           "min_final_fidelity", "warnings"]

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["check-dqls"],
             ["verdict", "intersection_dim", "intersection_basis",
              "per_neighborhood", "warnings"]),
            (["parent-ham", "--out", "ham"],
             ["kernel_dim", "frustration_free", "files", "warnings"]),
            (["synthesize", "--out", "ops"],
             ["gains_policy", "annihilation_residuals", "files", "warnings"]),
            (["certify"],
             ["mode", "certified", "kernel_dim", "gap", "eigenvalues",
              "warnings"]),
            (["simulate", "--csv", "s.csv", "--t-final", "0.1",
              "--trajectories", "1"],
             SIM + ["t_final"]),
            (["simulate", "--csv", "s.csv", "--switched", "--cycles", "1",
              "--trajectories", "1"],
             SIM + ["tau", "cycles"]),
        ],
        ids=["check-dqls", "parent-ham", "synthesize", "certify-certificate",
             "simulate-simultaneous", "simulate-switched"],
    )
    def test_top_level_key_order(self, tmp_path, capsys, argv, keys):
        words = [str(tmp_path / w) if w in ("ham", "ops", "s.csv") else w
                 for w in argv[1:]]
        code, report, _ = run_cli(
            capsys, [argv[0], dicke_instance(tmp_path), *words]
        )
        assert code == 0
        assert list(report) == self.BASE + keys + ["timings"]


def ghz2_instance(tmp_path):
    """Two-qubit GHZ with the one full neighborhood: a single generator."""
    return write_instance(
        tmp_path / "ghz2.json",
        {"dims": [2, 2], "state": "ghz", "neighborhoods": [[0, 1]]},
    )


FORCED = {
    "synthesize": ["--out", "ops", "--force"],
    "certify": ["--force"],
    "simulate": ["--csv", "t.csv", "--force", "--t-final", "0.1",
                 "--trajectories", "1"],
}


class TestDiagnosticsAsData:
    """Every note reaches the report as a returned value; no command warns
    or relies on process-global warning capture."""

    def test_no_command_captures_warnings(self, tmp_path, capsys, monkeypatch):
        import warnings

        def refuse(*args, **kwargs):
            raise AssertionError("warnings.catch_warnings or warn was called")

        runs = [["check-dqls"], ["parent-ham", "--out", str(tmp_path / "ham")]]
        runs += [
            [cmd] + [str(tmp_path / w) if w in ("ops", "t.csv") else w
                     for w in words]
            for cmd, words in FORCED.items()
        ]
        instances = [
            two_qubit_instance(tmp_path, 5e-9),
            uncovered_ghz3_instance(tmp_path),
        ]
        # The patch is undone before any assertion, since pytest itself
        # captures warnings around each test phase.
        with monkeypatch.context() as m:
            m.setattr(warnings, "catch_warnings", refuse)
            m.setattr(warnings, "warn", refuse)
            results = [
                (argv, run_cli(capsys, [argv[0], inst, *argv[1:]]))
                for inst in instances
                for argv in runs
            ]
        for argv, (code, report, err) in results:
            assert code == 0, argv
            assert err == ""
            assert report["warnings"], argv

    def test_uncovered_instance_runs_repeat_identically(self, tmp_path, capsys):
        inst = uncovered_ghz3_instance(tmp_path)
        outputs = []
        for _ in range(2):
            code, report, err = run_cli(capsys, ["check-dqls", inst])
            assert code == 0
            report.pop("timings")
            outputs.append((report, err))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] == ""
        assert outputs[0][0]["warnings"] == [
            "uncovered subsystems [2]: no neighborhood acts on them"
        ]

    @pytest.mark.parametrize("cmd", sorted(FORCED))
    def test_forced_commands_list_dqls_notes_first(self, tmp_path, capsys, cmd):
        inst = two_qubit_instance(tmp_path, 5e-9)
        _, dqls, _ = run_cli(capsys, ["check-dqls", inst])
        assert dqls["verdict"] == "indeterminate"
        notes = dqls["warnings"]
        assert len(notes) == 3
        assert all(n.startswith("borderline rank decision: ") for n in notes[:2])
        assert notes[2].startswith("verdict downgraded to false")
        words = [str(tmp_path / w) if w in ("ops", "t.csv") else w
                 for w in FORCED[cmd]]
        code, report, err = run_cli(capsys, [cmd, inst, *words])
        assert code == 0
        assert err == ""
        assert report["warnings"][:3] == notes
        # Then one note per singleton neighborhood whose support fills its qubit.
        assert [w for w in report["warnings"] if "fills the whole" in w] == [
            f"neighborhood ({a},): reduced support fills the whole factor; "
            "contributing the zero operator"
            for a in (0, 1)
        ]

    def test_forced_uncovered_instance_reports_coverage(self, tmp_path, capsys):
        code, report, err = run_cli(
            capsys,
            ["synthesize", uncovered_ghz3_instance(tmp_path), "--out",
             str(tmp_path / "o"), "--force"],
        )
        assert code == 0
        assert err == ""
        assert report["warnings"][0].startswith("uncovered subsystems [2]")
        assert report["warnings"][-1].startswith("synthesis was forced")

    def test_single_generator_schedule_is_reported(self, tmp_path, capsys):
        argv = ["simulate", ghz2_instance(tmp_path), "--csv",
                str(tmp_path / "s.csv"), "--switched", "--cycles", "1",
                "--trajectories", "1"]
        code, report, err = run_cli(capsys, argv)
        assert code == 0
        assert err == ""
        assert report["warnings"] == [
            "single-generator schedule degenerates to a fixed generator"
        ]

    def test_borderline_refusal_says_indeterminate(self, tmp_path, capsys):
        inst = two_qubit_instance(tmp_path, 5e-9)
        code, report, err = run_cli(
            capsys, ["synthesize", inst, "--out", str(tmp_path / "ops")]
        )
        assert code == 4
        assert report is None
        assert "indeterminate because of a borderline rank decision" in err
        assert "force" in err


class TestMalformedOperatorFiles:
    """Operator files are outside input: a malformed one exits 2."""

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda d: d["meta"].update(neighborhood=5), "not a list"),
            (lambda d: d["meta"].update(neighborhood=[True, 1.9]),
             "expected an integer"),
            (lambda d: d["meta"].update(neighborhood=[1, 1]), "duplicate"),
            (lambda d: d.update(meta=[1]), "'meta' must be an object"),
            (lambda d: d["matrix"][0].__setitem__(0, [math.nan, 0.0]),
             "matrix entries must be finite"),
            (lambda d: d["matrix"][0].__setitem__(0, [True, "0"]),
             "expected a number"),
        ],
        ids=["hood-int", "hood-bool-float", "hood-duplicate", "meta-list",
             "nan-entry", "bool-string-entry"],
    )
    def test_certify_rejects(self, tmp_path, capsys, edit, fragment):
        from qlstab.instances import write_operator_file

        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        path = ops_dir / "noise_op_00.json"
        write_operator_file(
            path,
            np.array([[0, 1, 0, 0]] + [[0, 0, 0, 0]] * 3, dtype=complex),
            {"kind": "noise_operator", "neighborhood": [0, 1]},
        )
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        code, report, err = run_cli(
            capsys, ["certify", ghz2_instance(tmp_path), "--operators", str(ops_dir)]
        )
        assert code == 2
        assert report is None
        assert fragment in err


    @pytest.mark.parametrize(
        "payload, message",
        [
            (None, "no noise_op_<digits>.json files in {dir}"),
            ({"meta": {"neighborhood": [0, 1]}},
             "{path}: not an operator file (no 'matrix' key)"),
            ({"meta": {"neighborhood": [0, 1]}, "matrix": [[[[1.0, 0.0]]]]},
             "{path}: matrix must be two-dimensional"),
            ({"meta": {"kind": "noise_operator"}, "matrix": [[[0.0, 0.0]]]},
             "{path}: missing 'neighborhood' metadata"),
        ],
        ids=["empty-directory", "no-matrix", "three-dimensional", "no-neighborhood"],
    )
    def test_certify_rejects_the_directory(self, tmp_path, capsys, payload, message):
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        path = ops_dir / "noise_op_00.json"
        if payload is not None:
            path.write_text(json.dumps(payload))
        code, report, err = run_cli(
            capsys, ["certify", ghz2_instance(tmp_path), "--operators", str(ops_dir)]
        )
        assert (code, report) == (2, None)
        assert err == f"error: {message.format(dir=ops_dir, path=path)}\n"


class TestSafetyBranches:
    """Each guard against a numerical failure, reached by patching the step
    that feeds it, exits with its code and its exact message."""

    def test_target_escaping_the_intersection_exits_7(
        self, tmp_path, capsys, monkeypatch
    ):
        # The odd GHZ vector lies in both embedded supports, so it passes the
        # containment check, but it is orthogonal to the target.
        sweep = analysis._sweep

        def odd_kernel(space, terms):
            _, evals, margins = sweep(space, terms)
            odd = np.zeros(space.dim, dtype=complex)
            odd[0], odd[-1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
            return Subspace(odd[:, None]), evals, margins

        monkeypatch.setattr(analysis, "_sweep", odd_kernel)
        code, report, err = run_cli(capsys, ["check-dqls", ghz3_instance(tmp_path)])
        assert (code, report) == (cli.EXIT_NUMERICAL, None)
        assert err == (
            "error: numerical failure: target escaped the intersection "
            "subspace by 1.000e+00; support thresholds are inconsistent with "
            "this input\n"
        )

    def test_spectrum_in_the_right_half_plane_exits_7(
        self, tmp_path, capsys, monkeypatch
    ):
        vectorize = dynamics.vectorize

        def shifted(gen):
            lhat = vectorize(gen)
            lhat += 1e-3 * np.eye(lhat.shape[0])
            return lhat

        monkeypatch.setattr(dynamics, "vectorize", shifted)
        code, report, err = run_cli(capsys, ["certify", dicke_instance(tmp_path)])
        assert (code, report) == (cli.EXIT_NUMERICAL, None)
        assert err == (
            "error: numerical failure: generator spectrum reaches into the "
            "right half plane (1.000e-03); the input is not a valid "
            "dissipative generator\n"
        )

    def test_singular_steady_state_solve_is_a_traceless_kernel(
        self, tmp_path, capsys, monkeypatch
    ):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        code, report, err = run_cli(capsys, ["certify", dicke_instance(tmp_path)])
        assert (code, err) == (cli.EXIT_OK, "")
        assert report["certified"] is False
        assert report["kernel_dim"] == 1
        assert report["warnings"] == [
            "kernel vector is traceless; no stationary state in it"
        ]

    def test_nan_steady_state_does_not_certify(self, tmp_path, capsys, monkeypatch):
        def nan_state(block, slots, d):
            return np.full((d, d), math.nan, dtype=complex)

        monkeypatch.setattr(dynamics, "_steady_state", nan_state)
        code, report, err = run_cli(capsys, ["certify", dicke_instance(tmp_path)])
        assert (code, err) == (cli.EXIT_OK, "")
        assert report["certified"] is False
        assert report["warnings"] == ["stationary state differs from the target by nan"]

    def test_trace_drift_aborts_the_integrator_with_exit_6(
        self, tmp_path, capsys, monkeypatch
    ):
        step = dynamics._rk4_step

        def drifting(gen, mat, dt):
            out = step(gen, mat, dt)
            out[0, 0] += 2e-6
            return out

        monkeypatch.setattr(dynamics, "_rk4_step", drifting)
        csv_path = tmp_path / "t.csv"
        code, report, err = run_cli(
            capsys,
            ["simulate", dicke_instance(tmp_path), "--csv", str(csv_path),
             "--t-final", "0.1", "--dt", "0.01", "--trajectories", "1"],
        )
        assert (code, report) == (cli.EXIT_INTEGRATION, None)
        assert err == (
            "error: integrator aborted: trace drifted by 2.000e-06 at t=0.01 "
            "(dt=1.000e-02); reduce the step size\n"
        )
        # The rows written before the failure stay: the header and t = 0.
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trajectory_id,t,fidelity,trace_distance,purity"
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "0"]]


class TestFlagValidation:
    """Numeric flags come from outside the program: a bad value exits 2 with
    a message that names the flag, before any work starts."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--t-final", "-1"], "--t-final"),
            (["simulate", "--t-final", "nan"], "--t-final"),
            (["simulate", "--t-final", "inf", "--dt", "0.1"], "--t-final"),
            (["simulate", "--dt", "0"], "--dt"),
            (["simulate", "--record-every", "0"], "--record-every"),
            (["simulate", "--switched", "--cycles", "0"], "--cycles"),
            (["simulate", "--switched", "--tau", "-1"], "--tau"),
            (["simulate", "--seed", "-1"], "--seed"),
            (["certify", "--dim-cap", "0"], "--dim-cap"),
            (["certify", "--dim-cap", "-1"], "--dim-cap"),
            (["check-dqls", "--tolerance", "nan"], "--tolerance"),
            (["check-dqls", "--tolerance", "2"], "--tolerance"),
            (["check-dqls", "--tolerance", "-1"], "--tolerance"),
        ],
        ids=["t-final-negative", "t-final-nan", "t-final-inf", "dt-zero",
             "record-every-zero", "cycles-zero", "tau-negative", "seed-negative",
             "dim-cap-zero", "dim-cap-negative", "tolerance-nan", "tolerance-two", "tolerance-negative"],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, argv, flag):
        extra = ["--csv", str(tmp_path / "t.csv")] if argv[0] == "simulate" else []
        with pytest.raises(SystemExit) as exc:
            main([argv[0], dicke_instance(tmp_path), *extra, *argv[1:]])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err

    @pytest.mark.parametrize(
        "words",
        [["--evidence-fallback"], ["--trajectories", "2"], ["--t-final", "5"],
         ["--dt", "0.5"]],
        ids=lambda words: words[0],
    )
    def test_certify_takes_no_trajectory_flags(self, tmp_path, capsys, words):
        with pytest.raises(SystemExit) as exc:
            main(["certify", dicke_instance(tmp_path), *words])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(words)}" in captured.err

    @pytest.mark.parametrize(
        "words, message",
        [
            (["--switched", "--t-final", "5"],
             "argument --t-final: not allowed with --switched"),
            (["--switched", "--t-final", "40"],
             "argument --t-final: not allowed with --switched"),
            (["--switched", "--record-every", "7"],
             "argument --record-every: not allowed with --switched"),
            (["--switched", "--record-every", "7", "--t-final", "99"],
             "argument --t-final: not allowed with --switched"),
            (["--tau", "0.5"], "argument --tau: not allowed without --switched"),
            (["--tau", "1"], "argument --tau: not allowed without --switched"),
            (["--cycles", "2"], "argument --cycles: not allowed without --switched"),
        ],
        ids=["t-final-switched", "t-final-default-switched", "record-every-switched",
             "both-switched", "tau", "tau-default", "cycles"],
    )
    def test_simulate_refuses_the_flags_of_the_other_route(
        self, tmp_path, capsys, words, message
    ):
        # Before any analysis: GHZ(3) on pairs, which is not stabilizable,
        # must not exit 4 first.
        csv_path = tmp_path / "t.csv"
        for inst in (dicke_instance(tmp_path), ghz3_instance(tmp_path)):
            code, report, err = run_cli(
                capsys, ["simulate", inst, "--csv", str(csv_path), *words]
            )
            assert (code, report, err) == (cli.EXIT_PARSE, None, f"error: {message}\n")
            assert not csv_path.exists()

    def test_simulate_route_flags_left_out_take_their_defaults(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def evolve(gen, rho0, **kwargs):
            calls.append(kwargs)
            yield 0.0, rho0

        def simulate_switched(schedule, rho0, **kwargs):
            calls.append({"tau": schedule.tau, **kwargs})
            yield 0.0, rho0

        monkeypatch.setattr(dynamics, "evolve", evolve)
        monkeypatch.setattr(dynamics, "simulate_switched", simulate_switched)
        inst = dicke_instance(tmp_path)
        for words in ([], ["--switched"]):
            argv = ["simulate", inst, "--csv", str(tmp_path / "t.csv"),
                    "--trajectories", "1", *words]
            code, report, _ = run_cli(capsys, argv)
            assert code == 0
        assert calls == [
            {"dt": None, "t_final": 40.0, "record_every": 1},
            {"tau": 1.0, "cycles": 30, "dt": None},
        ]
        assert (report["tau"], report["cycles"]) == (1.0, 30)


# Floats whose rendering is easy to get wrong: signed zeros, non-finite
# values (printed as strings), subnormals, the switch to exponent notation
# (1e16, 1e-7 in repr; 1e12 in 12 significant digits) and integral floats.
# Values where the 12-digit text switches between positional, integral and
# exponent form: 999999999999.5 rounds to 1e+12, 9.99999999999995e-5 to
# 0.0001.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                  -2.5e-320, 1e16, -1e16, 1e-7, 1e-5, 1e12, 123456789012.5,
                  2.0, -3.0, 1.0 / 3.0, 0.1 + 0.2, 999999999999.5, 1e15 + 0.5,
                  9.99999999999995e15, 1e-4, 9.99999999999995e-5, 0.0001234]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
COMPLEX = st.builds(complex, FLOATS, FLOATS)
# Rows of up to 64 entries, so that one row mixes every kind of token.
SHAPES = st.one_of(
    st.tuples(st.integers(0, 64)), st.tuples(st.integers(0, 3), st.integers(0, 64))
)
ARRAYS = st.one_of(
    arrays(np.float64, SHAPES, elements=FLOATS),
    arrays(np.complex128, SHAPES, elements=COMPLEX),
)
SCALARS = st.one_of(
    FLOATS, COMPLEX, st.integers(), st.booleans(), st.none(), st.text(max_size=5),
    FLOATS.map(np.float64), st.integers(-5, 5).map(np.int64), st.booleans().map(np.bool_),
)
REPORTS = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)


def emitted(report, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(report, fmt)
    return out.getvalue()


class TestReportRendering:
    """Reports print as json.dumps(indent=2), or the text walk, of the tree
    rounded to 12 significant digits (tests/oracles.py::report_oracle)."""

    @given(report=st.dictionaries(st.text(max_size=6), REPORTS, max_size=5))
    @example(report={
        "basis": np.array([[1 + 0j, -0.0 - 0.0j, complex(math.nan, -math.inf)]]),
        "empty": np.zeros((0, 4), dtype=complex),
        "one": np.array([[5e-324]]),
        "values": np.array([1e16, 1e-7, 2.0, -0.0]),
        "nested": {"list": [1.5, [np.array([1j]), {}], []], "pair": (1, True, None)},
    })
    def test_bytes_equal_the_old_route(self, report):
        for fmt in ("json", "text"):
            assert emitted(report, fmt) == report_oracle(report, fmt)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "command, instance",
        [("check-dqls", dicke_instance), ("check-dqls", ghz3_instance),
         ("certify", dicke_instance)],
        ids=["check-dqls", "check-dqls-ghz3", "certify"],
    )
    def test_cli_reports_equal_the_old_route(self, tmp_path, capsys, monkeypatch,
                                             command, instance, fmt):
        reports = []
        emit = cli._emit

        def recording_emit(report, fmt):
            reports.append(report)
            emit(report, fmt)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        assert main([command, instance(tmp_path), "--output", fmt]) == 0
        (report,) = reports
        assert any(isinstance(v, np.ndarray) for v in report.values())
        assert capsys.readouterr().out == report_oracle(report, fmt)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           max_size=64))
    @example(values=[v for v in SPECIAL_FLOATS if math.isfinite(v)])
    def test_json_tokens_are_the_repr_of_the_rounded_value(self, values):
        row = np.array(values, dtype=float)
        expected = [repr(float(f"{v:.12g}")) for v in values]
        assert cli._json_numbers(row) == expected
        assert cli._json_numbers(row.astype(complex))[0::2] == expected

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_cluster12_report_equals_the_old_route(self, tmp_path, capsys, monkeypatch,
                                                   fmt):
        reports = []
        emit = cli._emit

        def recording_emit(report, fmt):
            reports.append(report)
            emit(report, fmt)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        n = 12
        inst = write_instance(tmp_path / "cluster12.json", {
            "dims": [2] * n,
            "state": {"name": "graph", "edges": [[i, i + 1] for i in range(n - 1)]},
            "neighborhoods": [[i, i + 1, i + 2] for i in range(n - 2)],
        })
        assert main(["check-dqls", inst, "--output", fmt]) == 0
        (report,) = reports
        assert report["intersection_basis"].shape == (1, 2**n)
        assert capsys.readouterr().out == report_oracle(report, fmt)

    @pytest.mark.parametrize("fmt, renderer", [("json", "_json"), ("text", "_text")])
    def test_out_of_memory_while_rendering_exits_5(self, tmp_path, capsys, monkeypatch,
                                                   fmt, renderer):
        def exhausted(*args):
            raise MemoryError("rendering")

        monkeypatch.setattr(cli, renderer, exhausted)
        assert main(["check-dqls", ghz3_instance(tmp_path), "--output", fmt]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: rendering\n"

    def test_check_dqls_builds_no_pair_lists(self, tmp_path, capsys):
        code, report, _ = run_cli(capsys, ["check-dqls", ghz3_instance(tmp_path)])
        assert code == 0
        assert np.shape(report["intersection_basis"]) == (2, 8, 2)


class TestParserReuse:
    ARGVS = [
        ["check-dqls", "--tolerance", "1e-7", "--output", "text"],
        ["synthesize", "--out", "ops", "--force", "--seed", "3"],
        ["check-dqls"],
        ["certify", "--operators", "ops"],
        ["simulate", "--csv", "s.csv", "--t-final", "0.1", "--trajectories", "1"],
        ["certify", "--output", "text"],
    ]

    def _outputs(self, tmp_path, capsys):
        inst = dicke_instance(tmp_path)
        outputs = []
        for argv in self.ARGVS:
            words = [str(tmp_path / w) if w in ("ops", "s.csv") else w for w in argv]
            assert main([words[0], inst, *words[1:]]) == 0
            out = capsys.readouterr().out
            # Timings differ from run to run; drop them.
            outputs.append(out.split('"timings"')[0].split("timings:")[0])
        return outputs

    def test_shared_parser_gives_the_reports_of_fresh_parsers(
        self, tmp_path, capsys, monkeypatch
    ):
        shared = self._outputs(tmp_path, capsys)
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert self._outputs(tmp_path, capsys) == shared

    def test_main_builds_the_parser_once(self, tmp_path, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        inst = dicke_instance(tmp_path)
        assert main(["check-dqls", inst]) == 0
        assert main(["check-dqls", inst, "--output", "text"]) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_parser_is_not_built_at_import(self):
        code = (
            "import qlstab.cli as cli; "
            "assert cli._parser.cache_info().currsize == 0"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


def run_module(*argv):
    """``python -m qlstab.cli`` in a child process: the console script's
    entry point, ``cli.run``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "qlstab.cli", *argv], env=env, capture_output=True,
        text=True,
    )


class TestEntryPoint:
    def test_version(self):
        out = run_module("--version")
        assert (out.returncode, out.stdout, out.stderr) == (0, "0.1.0\n", "")

    def test_exit_code_reaches_the_shell(self, tmp_path):
        # cli.run hands main's code to sys.exit: the refusal is exit 4.
        out = run_module("synthesize", ghz3_instance(tmp_path), "--out",
                         str(tmp_path / "ops"))
        assert out.returncode == 4
        assert out.stdout == ""
        assert out.stderr.startswith("error: target failed the stabilizability test")
        assert out.stderr.count("\n") == 1
        assert not (tmp_path / "ops").exists()


# The exit codes of the README's table.
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}


def near_norm_instance(tmp_path, shortfall):
    """GHZ(2) amplitudes of norm 1 - shortfall (squared norm about 1 -
    2 shortfall) on {0, 1}, {0}, {1}."""
    a = math.sqrt(0.5) * (1 - shortfall)
    return write_instance(
        tmp_path / f"near_norm_{shortfall:g}.json",
        {"dims": [2, 2], "state": [[a, 0.0], [0.0, 0.0], [0.0, 0.0], [a, 0.0]],
         "neighborhoods": [[0, 1], [0], [1]]},
    )


@st.composite
def boundary_instances(draw):
    """Instances on at most 3 qubits whose amplitudes have a squared norm off
    by up to 2 NORM_TOL, with random neighborhoods and optional tolerance,
    gain_scale and gains_policy."""
    n = draw(st.integers(1, 3))
    parts = arrays(float, (2, 2**n), elements=st.floats(-1, 1))
    re, im = draw(parts)
    amps = re + 1j * im
    amps[0] += 2.0
    off = draw(st.floats(-2 * NORM_TOL, 2 * NORM_TOL))
    amps *= math.sqrt(1 + off) / np.linalg.norm(amps)
    hood = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    data = {
        "dims": [2] * n,
        "state": [[v.real, v.imag] for v in amps.tolist()],
        "neighborhoods": draw(st.lists(hood, min_size=1, max_size=3)),
    }
    optional = {
        "tolerance": st.floats(1e-12, 0.5),
        "gain_scale": st.floats(1e-3, 1e3),
        "gains_policy": st.sampled_from(["uniform", "graded"]),
    }
    for key, values in optional.items():
        value = draw(st.none() | values)
        if value is not None:
            data[key] = value
    return data


class TestBoundary:
    """The input boundary refuses what the pipeline cannot take, once, with
    an exit code from the README's table."""

    @settings(max_examples=200)
    @given(data=boundary_instances())
    @example(data={
        "dims": [2, 2],
        "state": [[math.sqrt(0.5) * (1 - 0.9e-9), 0.0], [0.0, 0.0], [0.0, 0.0],
                  [math.sqrt(0.5) * (1 - 0.9e-9), 0.0]],
        "neighborhoods": [[0, 1], [0], [1]],
    })
    def test_every_command_exits_with_a_table_code(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            inst = write_instance(Path(tmp) / "instance.json", data)
            runs = [
                ["check-dqls", inst],
                ["parent-ham", inst, "--out", str(Path(tmp) / "ham")],
                ["synthesize", inst, "--out", str(Path(tmp) / "ops"), "--force"],
                ["certify", inst, "--force"],
                # An explicit --dt: gain_scale reaches 1e3, where the default
                # step would be tiny.
                ["simulate", inst, "--csv", str(Path(tmp) / "t.csv"), "--force",
                 "--t-final", "0.001", "--dt", "0.001", "--trajectories", "1"],
            ]
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in EXIT_CODES, argv

    def test_oversized_named_states_are_malformed(self, tmp_path, capsys):
        # numpy refuses 70 axes or 2^70 entries before it allocates anything.
        for state in ("ghz", "w", {"name": "graph", "edges": [[0, 1]]}):
            inst = write_instance(
                tmp_path / "big.json",
                {"dims": [2] * 70, "state": state, "neighborhoods": [[0, 1]]},
            )
            code, report, err = run_cli(capsys, ["check-dqls", inst])
            assert (code, report) == (cli.EXIT_PARSE, None), state
            assert err.startswith("error: ")

    def test_certify_refuses_above_the_cap_before_building(
        self, tmp_path, capsys, monkeypatch
    ):
        # The instance alone decides the refusal: no synthesis, no operator
        # file and no generator, whether the target is stabilizable or not
        # and whatever the --operators directory holds.
        def refuse(*args, **kwargs):
            raise AssertionError("work was done before the refusal")

        monkeypatch.setattr(synthesis, "synthesize_stabilizers", refuse)
        monkeypatch.setattr(cli, "read_noise_operators", refuse)
        monkeypatch.setattr(dynamics, "stabilizer_generator", refuse)
        ghz7 = write_instance(
            tmp_path / "ghz7.json",
            {"dims": [2] * 7, "state": "ghz",
             "neighborhoods": [[i, i + 1] for i in range(6)]},
        )
        malformed = tmp_path / "bad_ops"
        malformed.mkdir()
        (malformed / "noise_op_00.json").write_text("{")
        runs = [
            (["certify", dicke_instance(tmp_path), "--dim-cap", "8"], 16, 8),
            (["certify", ghz7], 128, 64),
            (["certify", ghz7, "--operators", str(malformed)], 128, 64),
            (["certify", ghz7, "--operators", str(tmp_path / "missing")], 128, 64),
        ]
        for argv, dim, cap in runs:
            code, report, err = run_cli(capsys, argv)
            assert (code, report) == (cli.EXIT_DIM_CAP, None), argv
            assert err == (
                f"error: dimension {dim} exceeds the dense spectral cap {cap}; run "
                "simulate for trajectory evidence\n"
            )

    def test_near_norm_amplitudes_are_refused_at_parse(self, tmp_path, capsys):
        inst = near_norm_instance(tmp_path, 0.9e-9)
        runs = [
            ["check-dqls", inst],
            ["parent-ham", inst, "--out", str(tmp_path / "ham")],
            ["synthesize", inst, "--out", str(tmp_path / "ops")],
            ["certify", inst],
            ["simulate", inst, "--csv", str(tmp_path / "t.csv"), "--t-final", "0.1",
             "--trajectories", "1"],
        ]
        for argv in runs:
            code, report, err = run_cli(capsys, argv)
            assert (code, report) == (cli.EXIT_PARSE, None), argv[0]
            assert err == (
                "error: invalid state amplitudes: squared norm 0.9999999982000003 "
                "is not 1 within 1e-09\n"
            )
        inst = near_norm_instance(tmp_path, 0.4e-9)
        code, report, err = run_cli(capsys, ["check-dqls", inst])
        assert (code, err, report["verdict"]) == (0, "", "true")
