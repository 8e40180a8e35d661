"""Command-line interface: flags, outputs, exit codes, error envelopes."""
import hashlib
import importlib.metadata
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: the tomli that pytest depends on there
    import tomli as tomllib

import numpy as np
import pytest

from qsuperpose import analysis, cli, linalg, nmr
from qsuperpose.cli import main

from helpers import TABLE1_MODES, golden_table1, runs_sequence

# Exact stdout of reference, enhanced, qudit, pulse and verify runs.
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
# SHA-256 of `pulse --dataset k --checkpoint c --epsilon e` stdout, keyed "k c e",
# for datasets 1-11, checkpoints (i)-(v) and epsilon 1 and 0.3.
PULSE_DIGESTS = json.loads((Path(__file__).parent / "golden_pulse.json").read_text())
# SHA-256 of `verify --trials t --seed s` stdout, keyed "t s", for trials
# 1, 2, 3, 7, 20, 1030 and 2100 (two and three chunks) and seeds 0-5.
VERIFY_DIGESTS = json.loads((Path(__file__).parent / "golden_verify.json").read_text())
INV_SQRT2 = 1.0 / math.sqrt(2.0)
HALF = f"{INV_SQRT2:.17g}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def state_amps(obj):
    return np.array([complex(re, im) for re, im in obj["amps"]])


class TestRunDirect:
    def test_json_output(self, capsys):
        code, out, err = run_cli(
            capsys,
            "run-direct",
            "--psi1", "0,0",
            "--psi2", f"{math.pi / 2},0",
            "--a", HALF,
            "--b", HALF,
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["success_prob"] == pytest.approx(0.8535533905932738, abs=1e-9)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert payload["final_state"]["dims"] == [2]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run-direct",
            "--psi1", "0,0",
            "--psi2", f"{math.pi / 2},0",
            "--a", HALF,
            "--b", HALF,
            "--csv",
        )
        assert code == 0
        header, values = out.strip().splitlines()
        assert header.split(",")[:3] == ["success_prob", "norm_sq", "fidelity"]
        assert float(values.split(",")[0]) == pytest.approx(0.853553391, abs=1e-9)

    def test_gamma_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run-direct",
            "--psi1", f"{2 * math.pi / 3},0",
            "--psi2", f"{math.pi / 3},0,{2 * math.pi / 3}",
            "--a", HALF,
            "--b", HALF,
        )
        assert code == 0
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_malformed_angles(self, capsys):
        code, _, err = run_cli(
            capsys, "run-direct", "--psi1", "oops", "--psi2", "0,0",
            "--a", "1", "--b", "0",
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "argument"

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            # Beyond INPUT_TOL of [0, pi]; 3.1415927 is clamped to pi.
            ("--psi1", "3.1416,0", "--psi1: theta must lie in [0, pi], got 3.1416"),
            ("--psi1", "x,0", "--psi1: could not convert string to float: 'x'"),
            ("--psi2", "1", "--psi2: expects 'theta,phi[,gamma]', got '1'"),
            ("--a", "1,2,3", "--a: expects 'RE[,IM]', got '1,2,3'"),
            ("--b", "0.8,y", "--b: could not convert string to float: 'y'"),
            # phi and gamma are reduced mod 2 pi, which would turn inf into nan.
            ("--psi1", "inf,0", "--psi1: angles must be finite, got 'inf,0'"),
            ("--psi2", "0,inf", "--psi2: angles must be finite, got '0,inf'"),
            ("--psi1", "nan,0", "--psi1: angles must be finite, got 'nan,0'"),
            ("--psi2", "0,nan", "--psi2: angles must be finite, got '0,nan'"),
        ],
    )
    def test_flag_errors_name_the_rule(self, capsys, flag, value, message):
        flags = {"--psi1": "0,0", "--psi2": "1,0", "--a": "0.6", "--b": "0.8"}
        flags[flag] = value
        argv = [arg for item in flags.items() for arg in item]
        code, out, err = run_cli(capsys, "run-direct", *argv)
        error = json.loads(err)["error"]
        assert code == 2 and out == "" and error["type"] == "argument"
        assert error["message"] == f"argument {message}"

    def test_no_chi_flag(self, capsys):
        # The declared phases refer to |0>: run-direct reads no reference.
        code, out, err = run_cli(
            capsys, "run-direct", "--psi1", "0,0", "--psi2", "1,0",
            "--a", "0.6", "--b", "0.8", "--chi", "0,0",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "argument"

    def test_zero_overlap_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run-direct",
            "--psi1", f"{math.pi},0",
            "--psi2", "0,0",
            "--a", HALF,
            "--b", HALF,
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "zero-overlap"

    def test_unnormalized_weights(self, capsys):
        code, _, err = run_cli(
            capsys, "run-direct", "--psi1", "0,0", "--psi2", "1,0",
            "--a", "1", "--b", "1",
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"


class TestInputTolerance:
    """Weight flags that miss unit norm by at most cli.INPUT_TOL are rescaled,
    and polar angles that miss [0, pi] by at most it are clamped."""

    STATES = ("--psi1", "2.0943951,0", "--psi2", "1.0471976,0")

    @pytest.mark.parametrize(
        "command,key",
        [("run-direct", "success_prob"), ("run-reference", "success_prob"),
         ("enhanced", "p_total")],
    )
    def test_eight_digit_weights_match_full_precision(self, capsys, command, key):
        mode = ("--mode", "reduced") if command == "run-reference" else ()
        results = []
        for w in ("0.70710678", HALF):
            argv = (command, *mode, *self.STATES, "--a", w, "--b", w)
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            results.append(json.loads(out)[key])
        assert abs(results[0] - results[1]) <= 1e-12

    def test_beyond_the_tolerance_rejected(self, capsys):
        weights = ("--a", "0.7071", "--b", "0.7071")
        code, _, err = run_cli(capsys, "run-direct", *self.STATES, *weights)
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "argument"
        assert "weights must have sum |a_k|^2 = 1, got 0.99998" in error["message"]

    @pytest.mark.parametrize("weight,code", [("0.57735027", 0), ("0.577", 1)])
    def test_qudit_weights(self, capsys, tmp_path, weight, code):
        states = [[1.0, 0.0], [0.6, 0.8], [0.8, 0.6]]
        path = tmp_path / "states.json"
        path.write_text(json.dumps([{"dims": [2], "amps": [[x, 0.0] for x in amps]}
                                    for amps in states]))
        argv = ["qudit", "--n", "3", "--d", "2", "--states", str(path), "--chi-index", "0"]
        assert run_cli(capsys, *argv, "--weights", ",".join([weight] * 3))[0] == code

    @pytest.mark.parametrize("typed,exact", [("3.1415927", repr(math.pi)), ("-0.0000001", "0")])
    def test_polar_angle_within_the_tolerance_clamped(self, capsys, typed, exact):
        # chi = |+> overlaps |0> and |1>: the clamped run is the exact run.
        outs = []
        for theta in (typed, exact):
            argv = ("run-reference", "--mode", "reduced", "--psi1", f"{theta},0",
                    "--psi2", "1.0471976,0", "--chi", "1.5707963267948966,0",
                    "--a", HALF, "--b", HALF)
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_eight_digit_pi_reaches_the_overlap_rule(self, capsys):
        # theta = 3.1415927 runs as pi, the state |1>, which run-direct's
        # reference |0> does not overlap: a zero-overlap error, not a range error.
        argv = ("--psi2", "1.5707963,0", "--a", "0.70710678", "--b", "0.70710678")
        code, out, err = run_cli(capsys, "run-direct", "--psi1", "3.1415927,0", *argv)
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "zero-overlap"
        assert error["message"].startswith("psi1 has a zero overlap")

    def test_run_direct_zero_overlap_names_ket0(self, capsys):
        # run-direct has no chi: its declared phases, and its overlap rule, refer to |0>.
        argv = ("--psi1", "3.1415927,0", "--psi2", "1.5707963,0",
                "--a", "0.70710678", "--b", "0.70710678")
        code, out, err = run_cli(capsys, "run-direct", *argv)
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "zero-overlap"
        assert error["message"].startswith(
            "psi1 has a zero overlap with the reference 0: |<0|psi1>| = 6.123e-17 is below"
        )
        assert "chi" not in error["message"]

    @staticmethod
    def qudit_with_plus(capsys, tmp_path, flag, x):
        """qudit with |+> typed as amplitudes (x, x): an input state (--states)
        or the reference (--chi)."""
        plus = {"dims": [2], "amps": [[x, 0.0], [x, 0.0]]}
        first = plus if flag == "--states" else {"dims": [2], "amps": [[1.0, 0.0], [0.0, 0.0]]}
        states = [first, {"dims": [2], "amps": [[0.6, 0.0], [0.8, 0.0]]}]
        (tmp_path / "s.json").write_text(json.dumps(states))
        (tmp_path / "chi.json").write_text(json.dumps(plus))
        chi = ("--chi", str(tmp_path / "chi.json")) if flag == "--chi" else ("--chi-index", "0")
        argv = ("qudit", "--n", "2", "--d", "2", "--states", str(tmp_path / "s.json"),
                "--weights", "0.6,0.8", *chi)
        return run_cli(capsys, *argv)

    @pytest.mark.parametrize("flag", ["--states", "--chi"])
    def test_eight_digit_state_files_match_full_precision(self, capsys, tmp_path, flag):
        results = []
        for x in (0.70710678, INV_SQRT2):
            code, out, err = self.qudit_with_plus(capsys, tmp_path, flag, x)
            assert code == 0, err
            results.append(json.loads(out))
        assert abs(results[0]["success_prob"] - results[1]["success_prob"]) <= 1e-12
        final = [state_amps(r["final_state"]) for r in results]
        assert np.max(np.abs(final[0] - final[1])) <= 1e-12

    @pytest.mark.parametrize("flag", ["--states", "--chi"])
    def test_state_beyond_the_tolerance_rejected(self, capsys, tmp_path, flag):
        # 0.7071 misses unit norm by 2e-5, beyond INPUT_TOL: the spec's check stands.
        code, out, err = self.qudit_with_plus(capsys, tmp_path, flag, 0.7071)
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "argument"
        assert error["message"] == "input and reference states must be finite and normalized"

    def test_weights_within_atol_kept_as_typed(self):
        weights = (INV_SQRT2, 1j * INV_SQRT2)
        assert cli._unit_weights(weights) == weights
        rescaled = cli._unit_weights((0.70710678, 0.70710678))
        assert rescaled != (0.70710678, 0.70710678)
        assert abs(sum(abs(w) ** 2 for w in rescaled) - 1.0) <= 1e-15


class TestRunReference:
    # Equal weights make P2 = P3 (the "same value" special case).
    @pytest.mark.parametrize("mode,expected", [("three-qubit", 0.34987976320958236),
                                               ("reduced", 0.34987976320958236)])
    def test_modes(self, capsys, mode, expected):
        code, out, _ = run_cli(
            capsys,
            "run-reference",
            "--mode", mode,
            "--psi1", f"{2 * math.pi / 3},0",
            "--psi2", f"{math.pi / 3},0",
            "--a", HALF,
            "--b", HALF,
        )
        assert code == 0
        assert json.loads(out)["success_prob"] == pytest.approx(expected, abs=1e-9)

    def test_missing_mode(self, capsys):
        code, _, err = run_cli(
            capsys, "run-reference", "--psi1", "0,0", "--psi2", "1,0",
            "--a", "1", "--b", "0",
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "argument"

    @pytest.mark.parametrize(
        "value,message",
        [
            ("4,0", "theta must lie in [0, pi], got 4.0"),
            ("0,0,inf", "angles must be finite, got '0,0,inf'"),
            ("0,0,nan", "angles must be finite, got '0,0,nan'"),
        ],
        ids=["4,0", "0,0,inf", "0,0,nan"],
    )
    def test_chi_flag_errors_name_the_rule(self, capsys, value, message):
        code, out, err = run_cli(
            capsys, "run-reference", "--mode", "reduced", "--psi1", "0,0",
            "--psi2", "1,0", "--a", "0.6", "--b", "0.8", "--chi", value,
        )
        error = json.loads(err)["error"]
        assert code == 2 and out == "" and error["type"] == "argument"
        assert error["message"] == f"argument --chi: {message}"


class TestQudit:
    def write_states(self, tmp_path, states):
        path = tmp_path / "states.json"
        path.write_text(json.dumps(states))
        return str(path)

    def qubit_json(self, amps):
        return {"dims": [2], "amps": [[a.real, a.imag] for a in np.asarray(amps, complex)]}

    def test_basis_reference(self, capsys, tmp_path):
        states = [
            self.qubit_json([0.5, math.sqrt(3) / 2]),
            self.qubit_json([math.sqrt(3) / 2, 0.5]),
        ]
        code, out, _ = run_cli(
            capsys,
            "qudit",
            "--n", "2",
            "--d", "2",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2},{INV_SQRT2}",
            "--chi-index", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["success_prob"] == pytest.approx(0.34987976320958236, abs=1e-9)
        assert len(payload["branches"]) == 2

    def test_chi_from_file(self, capsys, tmp_path):
        states = [self.qubit_json([1, 0]), self.qubit_json([INV_SQRT2, INV_SQRT2])]
        chi_path = tmp_path / "chi.json"
        chi_path.write_text(json.dumps(self.qubit_json([INV_SQRT2, INV_SQRT2])))
        code, out, _ = run_cli(
            capsys,
            "qudit",
            "--n", "2",
            "--d", "2",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2},{INV_SQRT2}",
            "--chi", str(chi_path),
        )
        assert code == 0
        assert json.loads(out)["success_prob"] > 0.0

    def test_complex_weights(self, capsys, tmp_path):
        states = [self.qubit_json([1, 0]), self.qubit_json([INV_SQRT2, INV_SQRT2])]
        code, out, _ = run_cli(
            capsys,
            "qudit",
            "--n", "2",
            "--d", "2",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2}+0j,0+{INV_SQRT2}j",
            "--chi-index", "0",
        )
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys,
            "qudit", "--n", "2", "--d", "2",
            "--states", "/definitely/not/here.json",
            "--weights", "1,0",
            "--chi-index", "0",
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"

    def test_unnormalized_state_rejected(self, capsys, tmp_path):
        states = [self.qubit_json([1, 1]), self.qubit_json([1, 0])]
        code, _, err = run_cli(
            capsys,
            "qudit", "--n", "2", "--d", "2",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2},{INV_SQRT2}",
            "--chi-index", "0",
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"

    @pytest.mark.parametrize("dims", [2, ["x"], [2.7]])
    def test_malformed_dims(self, capsys, tmp_path, dims):
        states = [{"dims": dims, "amps": [[1.0, 0.0], [0.0, 0.0]]}, self.qubit_json([1, 0])]
        code, _, err = run_cli(
            capsys,
            "qudit", "--n", "2", "--d", "2",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2},{INV_SQRT2}",
            "--chi-index", "0",
        )
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "argument" and repr(dims) in error["message"]

    @pytest.mark.parametrize("value", [True, "1", pytest.param(10**400, id="int_past_float")])
    def test_non_number_amplitude_rejected(self, capsys, tmp_path, value):
        # JSON true would otherwise load as the amplitude 1, and no float can
        # hold 10**400.
        states = [{"dims": [2], "amps": [[value, 0.0], [0.0, 0.0]]}, self.qubit_json([1, 0])]
        code, out, err = run_cli(
            capsys,
            "qudit", "--n", "2", "--d", "2",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2},{INV_SQRT2}",
            "--chi-index", "0",
        )
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "argument"
        assert "amps" in error["message"] and repr(value) in error["message"]

    def test_dimension_checked_before_chi_is_built(self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("chi built before --d was checked")

        monkeypatch.setattr(cli, "basis_state", refuse)
        states = [self.qubit_json([1, 0]), self.qubit_json([INV_SQRT2, INV_SQRT2])]
        code, _, err = run_cli(
            capsys,
            "qudit", "--n", "2", "--d", "100000",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2},{INV_SQRT2}",
            "--chi-index", "0",
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"

    def test_vanished_outcome_branch(self, capsys, tmp_path):
        # Equal states with opposite weights cancel the outcome-0 branch.
        states = [self.qubit_json([1, 0]), self.qubit_json([1, 0])]
        code, _, err = run_cli(
            capsys,
            "qudit", "--n", "2", "--d", "2",
            "--states", self.write_states(tmp_path, states),
            "--weights", f"{INV_SQRT2},-{INV_SQRT2}",
            "--chi-index", "0",
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "degenerate-input"


class TestEnhanced:
    def test_equatorial_pair(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enhanced",
            "--psi1", f"{math.pi / 2},0",
            "--psi2", f"{math.pi / 2},{math.pi}",
            "--a", HALF,
            "--b", HALF,
            "--geometry-report",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_total"] == pytest.approx(0.5, abs=1e-9)
        assert payload["coherent"] is True
        assert payload["geometry_report"]["geometry"] == "transverse_antipodal"

    def test_antipodal_report_gives_the_harvested_p2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enhanced",
            "--psi1", "1,0",
            "--psi2", f"1,{math.pi}",
            "--a", "0.6",
            "--b", "0.8",
            "--geometry-report",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["geometry"] == "transverse_antipodal"
        report = payload["geometry_report"]
        assert report["p2_closed_form"] == pytest.approx(payload["p2"], abs=1e-12)

    def test_zero_overlap(self, capsys):
        code, _, err = run_cli(
            capsys,
            "enhanced",
            "--psi1", "0,0",
            "--psi2", f"{math.pi / 2},0",
            "--a", HALF,
            "--b", HALF,
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "zero-overlap"

    def test_zero_chi_perp_overlap_names_state_and_reference(self, capsys):
        code, _, err = run_cli(
            capsys, "enhanced", "--psi1", "0,0", "--psi2", "1.0,0", "--a", "0.6", "--b", "0.8"
        )
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "zero-overlap"
        assert error["message"].startswith(
            "psi1 has a zero overlap with the reference chi_perp: "
            "|<chi_perp|psi1>| = 0.000e+00"
        )


class TestPulse:
    def test_checkpoint_iv_payload(self, capsys):
        code, out, _ = run_cli(capsys, "pulse", "--dataset", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["checkpoint"] == "iv"
        assert payload["normalization"] == pytest.approx(0.8535533905932738, abs=1e-6)
        assert payload["rho"]["dims"] == [2, 2]
        assert payload["qubit_state"]["dims"] == [2]

    def test_other_checkpoint_and_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "pulse", "--dataset", "9", "--checkpoint", "ii",
            "--j", "120", "--epsilon", "0.8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["checkpoint"] == "ii"
        assert "qubit_state" not in payload

    def test_bad_dataset(self, capsys):
        code, _, err = run_cli(capsys, "pulse", "--dataset", "12")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"

    def test_sequence_round_trip(self, capsys, tmp_path):
        # Every dataset's emitted sequence JSON can be fed back in: it replays to
        # the same state and is echoed as read. Dataset 1 skips the theta1
        # encoding and z-composite blocks, so its JSON holds only the events the
        # compiled program marks as emitted.
        seq_path = tmp_path / "seq.json"
        for k in range(1, 12):
            for checkpoint in ("iv", "v"):
                code, out, _ = run_cli(
                    capsys, "pulse", "--dataset", str(k), "--checkpoint", checkpoint)
                assert code == 0
                first = json.loads(out)
                seq_path.write_text(json.dumps(first["sequence"]))
                code, out, _ = run_cli(
                    capsys, "pulse", "--sequence", str(seq_path), "--checkpoint", checkpoint)
                assert code == 0
                replayed = json.loads(out)
                # No dataset was given, so the payload names none.
                assert first["dataset"] == k and "dataset" not in replayed
                if checkpoint == "iv":
                    assert replayed["normalization"] == pytest.approx(
                        first["normalization"], abs=1e-12
                    )
                assert replayed["rho"] == first["rho"]
                assert replayed["sequence"] == json.loads(seq_path.read_text())

    def test_sequence_replays_at_the_coupling_it_was_compiled_at(self, capsys, tmp_path):
        # A loaded program runs at the J it is loaded with: dataset 6 compiled at
        # J = 200 Hz and its echoed sequence replayed at 200 Hz agree, and at the
        # default 215 Hz they do not.
        argv = ("--checkpoint", "v", "--j", "200")
        code, out, _ = run_cli(capsys, "pulse", "--dataset", "6", *argv)
        assert code == 0
        first = json.loads(out)
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(first["sequence"]))
        code, out, _ = run_cli(capsys, "pulse", "--sequence", str(seq_path), *argv)
        assert code == 0 and json.loads(out)["rho"] == first["rho"]
        code, out, _ = run_cli(capsys, "pulse", "--sequence", str(seq_path), *argv[:2])
        assert code == 0 and json.loads(out)["rho"] != first["rho"]

    def test_integer_numbers_echoed_as_floats(self, capsys, tmp_path):
        pulse = {"kind": "rf", "spin": "A", "flip_angle": 1, "axis_phase": 0}
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"events": [pulse], "checkpoints": {"iv": 1}}))
        code, out, _ = run_cli(capsys, "pulse", "--sequence", str(seq_path))
        assert code == 0
        assert '"flip_angle": 1.0, "axis_phase": 0.0' in out

    @pytest.mark.parametrize("checkpoint,checks", [("iv", 2), ("v", 1)])
    def test_each_state_checked_once(self, capsys, monkeypatch, checkpoint, checks):
        # run_sequence checks rho; only the normalized (iv) block is checked again
        # (a DensityMatrix build runs check_states, then its eigvalsh).
        calls, check = [], linalg.check_states

        def counted(mats):
            calls.append(len(mats))
            return check(mats)

        monkeypatch.setattr(nmr, "check_states", counted)
        monkeypatch.setattr(linalg, "check_states", counted)
        code, _, _ = run_cli(capsys, "pulse", "--dataset", "6", "--checkpoint", checkpoint)
        assert code == 0 and len(calls) == checks

    def test_sequence_past_the_certified_runs_is_refused(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(runs_sequence(nmr._CERTIFIED_RUNS + 1)))
        code, out, err = run_cli(capsys, "pulse", "--sequence", str(seq_path), "--checkpoint", "v")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "argument",
            "message": f"checkpoint 'v' comes after {nmr._CERTIFIED_RUNS + 1} gradient-separated "
            f"runs; the unitarity certificate covers at most {nmr._CERTIFIED_RUNS}",
        }

    @pytest.mark.parametrize("value", ["-215", "1e-310"])
    def test_coupling_without_a_positive_finite_delay(self, capsys, value):
        # --dataset compiles 1/(2J) delays: J must be positive and not tiny.
        code, out, err = run_cli(capsys, "pulse", "--dataset", "3", "--j", value)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "argument"
        assert f"J = {value} Hz" in error["message"] and "delay duration" not in error["message"]

    def test_sequence_runs_at_negative_coupling(self, capsys, tmp_path):
        program = nmr.compile_sequence(cli.dataset(3).spec().batch, nmr.SpinSystem())
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(program.to_json()))
        code, out, _ = run_cli(capsys, "pulse", "--sequence", str(seq_path), "--j", "-215")
        assert code == 0 and json.loads(out)["rho"]["dims"] == [2, 2]

    def test_overflowing_delay_named(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.json"
        delay = {"kind": "delay", "duration": 1e308}
        seq_path.write_text(json.dumps({"events": [delay], "checkpoints": {"iv": 1}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "pulse", "--sequence", str(seq_path))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "argument"
        assert "delay of 1e+308 s" in error["message"]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_coupling(self, capsys, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "pulse", "--dataset", "1", "--j", value)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "argument"
        assert "coupling J" in error["message"] and value in error["message"]

    def test_overflowing_coupling_names_the_typed_value(self, capsys):
        # J is finite and nonzero but 2 pi J overflows to inf: the message names
        # that rule and reports the Hz value typed.
        for value, shown in (("3e307", "3e+307"), ("1e308", "1e+308")):
            code, out, err = run_cli(capsys, "pulse", "--dataset", "1", "--j", value)
            assert code == 1 and out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "argument"
            assert "coupling J" in error["message"] and f"got {shown} Hz" in error["message"]
            assert "2 pi J finite" in error["message"] and "2.86e307 Hz" in error["message"]
            assert "inf" not in error["message"]

    def test_fractional_checkpoint_cut(self, capsys, tmp_path):
        pulse = {"kind": "rf", "spin": "A", "flip_angle": 1.0, "axis_phase": 0.0}
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(
            json.dumps({"events": [pulse, pulse], "checkpoints": {"iv": 1.9}})
        )
        code, out, err = run_cli(capsys, "pulse", "--sequence", str(seq_path))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "argument"
        assert "'iv'" in error["message"] and "1.9" in error["message"]

    @pytest.mark.parametrize(
        "event,field",
        [
            ({"kind": "delay", "duration": True}, "duration"),
            ({"kind": "delay", "duration": "0.001"}, "duration"),
            ({"kind": "rf", "spin": "A", "flip_angle": True, "axis_phase": 0.0}, "flip_angle"),
            ({"kind": "rf", "spin": "A", "flip_angle": 1.0, "axis_phase": "0"}, "axis_phase"),
            # JSON loads these integers exactly; no float can hold them.
            ({"kind": "delay", "duration": 10**400}, "duration"),
            ({"kind": "rf", "spin": "A", "flip_angle": 1.0, "axis_phase": -(10**400)}, "axis_phase"),
        ],
    )
    def test_non_number_event_field_rejected(self, capsys, tmp_path, event, field):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"events": [event], "checkpoints": {"iv": 1}}))
        code, out, err = run_cli(capsys, "pulse", "--sequence", str(seq_path))
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "argument"
        assert field in error["message"] and repr(event[field]) in error["message"]

    def test_integer_past_digit_limit_rejected(self, capsys, tmp_path):
        # Python refuses to parse an integer of more than 4300 digits.
        seq_path = tmp_path / "seq.json"
        delay = '{"kind": "delay", "duration": 1' + "0" * 5000 + "}"
        seq_path.write_text('{"events": [' + delay + '], "checkpoints": {"iv": 1}}')
        code, out, err = run_cli(capsys, "pulse", "--sequence", str(seq_path))
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "argument"
        assert "is not valid JSON" in error["message"]

    def test_missing_checkpoint_in_custom_sequence(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps({"events": [], "checkpoints": {"i": 0}}))
        code, _, err = run_cli(
            capsys, "pulse", "--sequence", str(seq_path), "--checkpoint", "iv"
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"


class TestSweepRp:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep-rp",
            "--rc-min", "0.5",
            "--rc-max", "3.0",
            "--rc-steps", "6",
            "--bsq", "0.1,0.2",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "r_c,b_sq,r_p,regime"
        assert len(lines) == 1 + 6 * 2
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(3.0)
        # CSV carries 9 significant digits.
        assert float(last[2]) == pytest.approx(10.0 / 7.0, abs=1e-8)

    def test_repeat_identical(self, capsys, tmp_path):
        args = [
            "sweep-rp", "--rc-min", "0.25", "--rc-max", "4.0",
            "--rc-steps", "16", "--bsq", "0.1,0.5,0.9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep-rp", "--rc-min", "-1", "--rc-max", "2",
            "--rc-steps", "3", "--bsq", "0.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"

    @pytest.mark.parametrize(
        "grid,digest",
        [
            # The README's line.
            (["--rc-min", "0.1", "--rc-max", "10", "--rc-steps", "100",
              "--bsq", "0.1,0.2,0.5,0.8"],
             "c4c08ecbd1a606782dc8e80f50c35c2412659d818d4fd53fba3d1dbba1057fe3"),
            # 100 x 50: b_sq = 0.01, 0.03, ..., 0.99.
            (["--rc-min", "0.01", "--rc-max", "50", "--rc-steps", "100",
              "--bsq", ",".join(f"{0.01 + 0.02 * k:.2f}" for k in range(50))],
             "fcb27bf0e0ec2ea13586f29a19c6fea133f835a0bb18d22774c9fe0532a30108"),
        ],
    )
    def test_pinned_csv(self, capsys, tmp_path, grid, digest):
        out_path = tmp_path / "sweep.csv"
        assert run_cli(capsys, "sweep-rp", *grid, "--out", str(out_path))[0] == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "rc_min,bsq,message",
        [
            # r_c = 1, 0, -1: the point (1, 1.5) comes first in row-major order.
            ("1", "0.5,1.5", "b_sq must lie in (0, 1), got 1.5"),
            ("1", "0.5,0.7", "r_c must be positive and finite, got 0.0"),
            # At one point r_c is checked before b_sq.
            ("-1", "1.5", "r_c must be positive and finite, got -1.0"),
        ],
    )
    def test_first_bad_grid_point_is_named(self, capsys, tmp_path, rc_min, bsq, message):
        code, out, err = run_cli(
            capsys,
            "sweep-rp", "--rc-min", rc_min, "--rc-max", "-1",
            "--rc-steps", "3", "--bsq", bsq, "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": {"type": "argument", "message": message}}

    def test_one_step_is_rc_min_as_typed(self, capsys, tmp_path):
        # The grid is rc_min alone, even when rc_max - rc_min overflows.
        out_path = tmp_path / "x.csv"
        argv = ["sweep-rp", "--rc-max", "-1.7e308", "--rc-steps", "1", "--bsq", "0.5"]
        assert run_cli(capsys, *argv, "--rc-min", "1e308", "--out", str(out_path))[0] == 0
        assert out_path.read_text().splitlines()[1] == "1e+308,0.5,1,tie"
        code, _, err = run_cli(capsys, *argv, "--rc-min", "-0.0", "--out", str(out_path))
        assert code == 1
        assert json.loads(err)["error"]["message"] == "r_c must be positive and finite, got -0.0"

    @pytest.mark.parametrize(
        "rc_min,rc_max,flag,typed",
        [("nan", "10", "--rc-min", "nan"), ("1", "inf", "--rc-max", "inf")],
    )
    def test_non_finite_bound(self, capsys, tmp_path, rc_min, rc_max, flag, typed):
        # The grid starts at rc_min + 0 * step: an infinite bound would make it nan.
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys,
            "sweep-rp", "--rc-min", rc_min, "--rc-max", rc_max,
            "--rc-steps", "3", "--bsq", "0.5", "--out", str(out_path),
        )
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "argument"
        assert error["message"] == f"{flag} must be finite, got {typed}"
        assert not out_path.exists()

    def test_unallocatable_grid_is_an_argument_error(self, capsys, tmp_path):
        # 10**15 steps need petabytes: numpy refuses them before allocating.
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys,
            "sweep-rp", "--rc-min", "0.1", "--rc-max", "10",
            "--rc-steps", str(10**15), "--bsq", "0.5", "--out", str(out_path),
        )
        error = json.loads(err)["error"]
        assert code == 1 and out == "" and error["type"] == "argument"
        assert "Unable to allocate" in error["message"]
        assert not out_path.exists()


class TestTable1:
    def test_gate_csv(self, capsys, tmp_path):
        out_path = tmp_path / "table1.csv"
        code, _, _ = run_cli(capsys, "table1", "--mode", "gate", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 12
        row1 = lines[1].split(",")
        assert float(row1[-1]) == pytest.approx(0.853553391, abs=1e-9)

    @pytest.mark.parametrize("mode,blank", TABLE1_MODES)
    def test_out_file_matches_golden(self, capsys, tmp_path, mode, blank):
        out_path = tmp_path / "table1.csv"
        assert run_cli(capsys, "table1", "--mode", mode, "--out", str(out_path)) == (0, "", "")
        assert out_path.read_bytes() == golden_table1(blank).encode()


class TestVerify:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert max(payload["max_deviation"].values()) < 1e-9

    def test_zero_trials(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0", "--seed", "0")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "argument"

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "3", "--seed", "-1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "argument",
            "message": "seed must be a non-negative integer, got -1",
        }

    def test_failed_report_exits_one(self, capsys, monkeypatch):
        report = analysis.VerifyReport(trials=1, seed=0, failures=[{"check": "x"}])
        monkeypatch.setattr(analysis, "verify_probability_formulas", lambda *a: report)
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--seed", "0")
        assert code == 1 and err == ""
        assert json.loads(out) == report.to_json()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pinned_stdout(capsys, tmp_path, name):
    case = GOLDEN[name]
    states = tmp_path / "states.json"
    states.write_text(json.dumps(case.get("states")))
    argv = [str(states) if a == "{states}" else a for a in case["argv"]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == case["stdout"]


@pytest.mark.parametrize("k", range(1, 12))
def test_pulse_stdout_digests(capsys, k):
    digests = {}
    for c in nmr.CHECKPOINT_LABELS:
        for e in ("1", "0.3"):
            code, out, err = run_cli(
                capsys, "pulse", "--dataset", str(k), "--checkpoint", c, "--epsilon", e
            )
            assert code == 0 and err == ""
            digests[f"{k} {c} {e}"] = hashlib.sha256(out.encode()).hexdigest()
    assert len(PULSE_DIGESTS) == 110
    assert digests == {key: v for key, v in PULSE_DIGESTS.items() if key.split()[0] == str(k)}


def test_verify_stdout_digests(capsys):
    digests = {}
    for t in (1, 2, 3, 7, 20, 1030, 2100):
        for seed in range(6):
            code, out, err = run_cli(capsys, "verify", "--trials", str(t), "--seed", str(seed))
            assert code == 0 and err == ""
            digests[f"{t} {seed}"] = hashlib.sha256(out.encode()).hexdigest()
    assert len(VERIFY_DIGESTS) == 42 and digests == VERIFY_DIGESTS


class TestParsing:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "argument"

    @pytest.mark.parametrize(
        "argv",
        [("--psi1", "0,0", "--psi2", "1,0", "--a", "-0.6,0", "--b", "0.8"),
         ("--psi1", "-0.0000001,0", "--psi2", "1,0", "--a", "0.6", "--b", "0.8")],
    )
    def test_negative_value_with_a_comma(self, capsys, argv):
        # No option starts with "-<digit>": each runs as its "--flag=value" form.
        code, out, err = run_cli(capsys, "run-direct", *argv)
        assert code == 0, err
        joined = [f"{flag}={value}" for flag, value in zip(argv[::2], argv[1::2])]
        assert run_cli(capsys, "run-direct", *joined) == (0, out, "")

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-NaN"])
    def test_negative_non_finite_value_reaches_its_rule(self, capsys, value):
        # "-inf" and "-nan" are values, not flags: the coupling rule and the
        # weight rule answer with their own errors, each naming the value read.
        for argv, message in (
            (("pulse", "--dataset", "1", "--j", value),
             "the scalar coupling J (--j) must be nonzero with 2 pi J finite "
             f"(|J| <= about 2.86e307 Hz), got {float(value)!r} Hz"),
            (("run-direct", "--psi1", "1,0", "--psi2", "2,0", "--a", f"{value},0", "--b", "1"),
             f"weights must have sum |a_k|^2 = 1, got {abs(float(value))!r}"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == {"type": "argument", "message": message}

    def test_broken_stdout_pipe_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "qsuperpose.cli", "verify", "--trials", "2",
                 "--seed", "1"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == ""

    @staticmethod
    def run_verify(*command):
        result = subprocess.run(
            [*command, "verify", "--trials", "2", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["ok"] is True

    def test_module_entry_point_runs(self):
        self.run_verify(sys.executable, "-m", "qsuperpose.cli")

    def test_console_script_target_is_cli_main(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = scripts["qsuperpose"].partition(":")
        assert getattr(importlib.import_module(module), name) is main

    def test_installed_console_script_runs(self):
        try:
            dist = importlib.metadata.distribution("qsuperpose")
        except importlib.metadata.PackageNotFoundError:
            pytest.skip("the qsuperpose distribution is not installed")
        (script,) = dist.entry_points.select(group="console_scripts")
        assert (script.name, script.value) == ("qsuperpose", "qsuperpose.cli:main")
        (path,) = [dist.locate_file(f) for f in dist.files if f.name == script.name]
        self.run_verify(str(path))
