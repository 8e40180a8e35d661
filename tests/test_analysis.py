"""Sweeps, the experiment-table driver, and the verification harness."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qsuperpose import analysis, kernel
from qsuperpose.analysis import (
    REGIME_THREE_QUBIT,
    REGIME_TIE,
    REGIME_TWO_QUBIT,
    fmt9,
    reproduce_table1,
    success_ratio,
    sweep_csv,
    sweep_rp,
    table1_csv,
    verify_probability_formulas,
)
from qsuperpose.datasets import TABLE1, dataset
from qsuperpose.direct import run_direct
from qsuperpose.errors import ArgumentError
from qsuperpose.linalg import (
    QubitParams,
    StateVector,
    basis_state,
    make_qubit,
    overlap_decompose,
    phase_equivalent,
)
from qsuperpose.reference import (
    ReferenceSpec,
    closed_form_p3,
    kappa_weighted_sum,
    run_three_qubit,
)

GOLDEN_TABLE1 = Path(__file__).resolve().parents[1] / "bench" / "golden_table1.csv"

# Gate-level success probabilities for all 11 datasets, frozen from the
# ||a psi1 + b psi2||^2 / 2 oracle.
EXPECTED_SUCCESS = {
    1: 0.8535533905932738,
    2: 0.8535533905932738,
    3: 0.8535533905932738,
    4: 0.8535533905932738,
    5: 0.9330127018922193,
    6: 0.7725423179566129,
    7: 0.8464101615137756,
    8: 0.7598076211353315,
    9: 0.9330127018922193,
    10: 0.7725423179566129,
    11: 0.5435778713738288,
}


class TestSuccessRatio:
    def test_equal_overlaps(self):
        for b_sq in (0.1, 0.5, 0.9):
            assert success_ratio(1.0, b_sq) == pytest.approx(1.0, abs=1e-15)

    def test_equal_weights(self):
        for r_c in (0.2, 1.0, 7.0):
            assert success_ratio(r_c, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_figure_points(self):
        assert success_ratio(3.0, 0.2) == pytest.approx(10.0 / 7.0, abs=1e-12)
        assert success_ratio(3.0, 0.1) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_relabeling_symmetry(self, rng):
        for _ in range(100):
            r_c = float(rng.uniform(0.05, 20.0))
            b_sq = float(rng.uniform(0.01, 0.99))
            assert success_ratio(r_c, b_sq) == pytest.approx(
                success_ratio(1.0 / r_c, 1.0 - b_sq), rel=1e-12
            )

    def test_no_overflow_near_float_maximum(self, rng):
        # r_p tends to 1 / (2 b_sq) as r_c grows.
        assert success_ratio(1.7e308, 0.9) == pytest.approx(5.0 / 9.0, rel=1e-12)
        # Below the overflow the old form, which doubled the denominator, agrees
        # bit for bit.
        for r_c, b_sq in zip(rng.uniform(0.01, 1e3, 200), rng.uniform(0.01, 0.99, 200)):
            old = (r_c + 1.0) / (2.0 * (1.0 + b_sq * (r_c - 1.0)))
            assert success_ratio(float(r_c), float(b_sq)) == old

    @pytest.mark.parametrize(
        "r_c,b_sq",
        [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (math.inf, 0.5), (math.nan, 0.5)],
    )
    def test_domain(self, r_c, b_sq):
        with pytest.raises(ArgumentError):
            success_ratio(r_c, b_sq)


class TestSweep:
    def test_examples(self):
        rows = sweep_rp((0.5, 2.0), (0.8,))
        assert rows[0].r_p == pytest.approx(1.25, abs=1e-12)
        assert rows[0].regime == REGIME_TWO_QUBIT
        assert rows[1].r_p == pytest.approx(3.0 / (2 * 1.8), abs=1e-12)
        assert rows[1].regime == REGIME_THREE_QUBIT

    def test_tie_lines(self):
        rows = sweep_rp((1.0,), (0.1, 0.3, 0.9))
        assert all(r.regime == REGIME_TIE for r in rows)
        rows = sweep_rp((0.2, 5.0), (0.5,))
        assert all(r.regime == REGIME_TIE for r in rows)

    def test_advantage_regions(self, rng):
        for _ in range(200):
            b_sq = float(rng.uniform(0.51, 0.99))
            r_c = float(rng.uniform(0.01, 0.99))
            assert success_ratio(r_c, b_sq) > 1.0
            b_sq = float(rng.uniform(0.01, 0.49))
            r_c = float(rng.uniform(1.01, 50.0))
            assert success_ratio(r_c, b_sq) > 1.0

    def test_grid_validation(self):
        # success_ratio holds the one domain rule of every grid point.
        with pytest.raises(ArgumentError):
            sweep_rp((0.0,), (0.5,))
        with pytest.raises(ArgumentError):
            sweep_rp((1.0,), (1.0,))
        for r_c in (math.inf, math.nan):
            with pytest.raises(ArgumentError, match="finite"):
                sweep_rp((1.0, r_c), (0.5,))

    def test_csv_deterministic(self):
        grid = (np.linspace(0.1, 4.0, 7), (0.1, 0.2, 0.8))
        assert sweep_csv(sweep_rp(*grid)) == sweep_csv(sweep_rp(*grid))
        header = sweep_csv(sweep_rp(*grid)).splitlines()[0]
        assert header == "r_c,b_sq,r_p,regime"


class TestReproduceTable1:
    def test_gate_mode(self):
        rows = reproduce_table1("gate")
        assert len(rows) == 11
        for row in rows:
            assert row.sim_fidelity_gate >= 1.0 - 1e-9
            assert row.success_prob == pytest.approx(
                EXPECTED_SUCCESS[row.dataset_id], abs=1e-9
            )

    def test_both_mode(self):
        rows = reproduce_table1("both")
        for row in rows:
            assert row.sim_fidelity_pulse >= 1.0 - 1e-6
            assert row.reported_fidelity == TABLE1[row.dataset_id - 1].reported_fidelity

    def test_phase_pairs_equivalent(self):
        for base_id, phased_id in ((5, 9), (6, 10)):
            base = run_direct(dataset(base_id).spec())
            phased = run_direct(dataset(phased_id).spec())
            assert phase_equivalent(base.final_state, phased.final_state, 1e-9)

    def test_csv_bit_identical(self):
        first = table1_csv(reproduce_table1("gate"))
        second = table1_csv(reproduce_table1("gate"))
        assert first == second
        assert first.splitlines()[0].startswith("dataset,theta1")

    def test_bad_mode(self):
        with pytest.raises(ArgumentError):
            reproduce_table1("experimental")

    @pytest.mark.parametrize("mode,blank", [("both", None), ("gate", 9), ("pulse", 8)])
    def test_csv_matches_golden(self, mode, blank):
        # The benchmark's golden CSV; a mode without one pipeline leaves that
        # fidelity column empty.
        lines = GOLDEN_TABLE1.read_text(encoding="utf-8").splitlines(keepends=True)
        expected = lines[:1]
        for line in lines[1:]:
            fields = line.split(",")
            if blank is not None:
                fields[blank] = ""
            expected.append(",".join(fields))
        assert table1_csv(reproduce_table1(mode)) == "".join(expected)

    def test_batched_gate_rows_match_run_direct(self):
        for row, ds in zip(reproduce_table1("gate"), TABLE1):
            result = run_direct(ds.spec())
            assert abs(row.success_prob - result.success_prob) <= 1e-12
            assert abs(row.sim_fidelity_gate - result.fidelity_to_target) <= 1e-12


ALL_CHECKS = {
    "direct_success",
    "p2_reduced",
    "p3_three_qubit",
    "hybrid_eq8",
    "enhanced_p1",
    "enhanced_p2",
    "enhanced_ptotal_longitudinal",
    "enhanced_ptotal_antipodal",
}


class TestVerifyHarness:
    def test_small_run_passes(self):
        report = verify_probability_formulas(trials=50, seed=0)
        assert report.ok
        assert report.max_deviation
        assert max(report.max_deviation.values()) < 1e-9
        expected_checks = {
            "direct_success",
            "p2_reduced",
            "p3_three_qubit",
            "hybrid_eq8",
            "enhanced_p1",
            "enhanced_p2",
            "enhanced_ptotal_longitudinal",
            "enhanced_ptotal_antipodal",
        }
        assert expected_checks <= set(report.max_deviation)

    def test_deterministic(self):
        a = verify_probability_formulas(trials=10, seed=7).to_json()
        b = verify_probability_formulas(trials=10, seed=7).to_json()
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(ArgumentError):
            verify_probability_formulas(trials=0, seed=0)

    def test_negative_seed_rejected(self):
        message = "seed must be a non-negative integer, got -1"
        with pytest.raises(ArgumentError, match=message):
            verify_probability_formulas(trials=3, seed=-1)

    def test_one_kernel_pass_per_qubit_pair_step(self, monkeypatch):
        # Per chunk: validate once over every qubit-pair row plus once per
        # larger hybrid shape; Eq. 8 once over the qubit pairs plus once per
        # larger shape; one closed_form_mu and one enhanced pass.
        calls = dict.fromkeys(
            ("validate", "closed_form_fourier", "closed_form_mu", "enhanced"), 0
        )
        for name in calls:
            def counted(*args, _name=name, _f=getattr(kernel, name)):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(kernel, name, counted)
        assert verify_probability_formulas(trials=20, seed=0).ok
        assert calls == {"validate": 4, "closed_form_fourier": 4, "closed_form_mu": 1,
                         "enhanced": 1}

    def test_nan_deviation_counts_as_the_worst(self):
        report = analysis.VerifyReport(trials=4, seed=0)
        report.record("x", np.arange(3), np.array([1e-3, np.nan, 2e-16]), lambda i: {})
        assert report.max_deviation == {"x": math.inf}
        assert [f["trial"] for f in report.failures] == [0, 1]
        # Across chunks: a later finite chunk does not lower it, and a later
        # NaN raises a finite maximum.
        report.record("x", np.arange(3, 4), np.array([0.5]), lambda i: {})
        assert report.max_deviation == {"x": math.inf}
        report.record("y", np.arange(2), np.array([1e-3, 2e-16]), lambda i: {})
        report.record("y", np.arange(2, 3), np.array([np.nan]), lambda i: {})
        assert report.max_deviation["y"] == math.inf

    def test_run_spanning_chunks_records_every_check(self):
        trials = analysis.VERIFY_CHUNK + 5
        first = verify_probability_formulas(trials=trials, seed=4).to_json()
        assert first == verify_probability_formulas(trials=trials, seed=4).to_json()
        assert first["ok"] and set(first["max_deviation"]) == ALL_CHECKS
        assert first != verify_probability_formulas(trials=trials, seed=5).to_json()

    def test_injected_fault_names_its_trial_and_replays(self, monkeypatch):
        true_mu = kernel.closed_form_mu
        marked = []

        def off_on_one_trial(weights, states, chi):
            # The first call is the P3 check over the whole chunk: mark its
            # trial 3, then skew the closed form wherever those inputs recur.
            if not marked:
                marked.extend((weights[3].copy(), states[3].copy(), chi[3].copy()))
            w, s, c = marked
            hit = (weights == w).all(1) & (states == s).all((1, 2)) & (chi == c).all(1)
            return true_mu(weights, states, chi) + 1e-6 * hit

        monkeypatch.setattr(kernel, "closed_form_mu", off_on_one_trial)
        report = verify_probability_formulas(trials=20, seed=3)
        assert [(f["check"], f["trial"]) for f in report.failures] == [
            ("p3_three_qubit", 3)
        ]
        failure = json.loads(json.dumps(report.failures[0]))
        assert set(failure) == {"check", "trial", "deviation", "spec"}
        assert failure["deviation"] == pytest.approx(1e-6, abs=1e-12)

        spec = failure["spec"]
        weights = tuple(complex(re, im) for re, im in spec["weights"])
        states = tuple(StateVector.from_json(obj) for obj in spec["states"])
        chi = StateVector.from_json(spec["chi"])

        def replay():
            pair = ReferenceSpec(n=2, d=2, weights=weights, states=states, chi=chi)
            sim = run_three_qubit(pair).success_prob
            return abs(sim - closed_form_p3(pair))

        assert replay() == pytest.approx(failure["deviation"], abs=1e-12)
        monkeypatch.undo()
        assert replay() <= 1e-12

    def test_sensitivity_to_tampered_overlap(self):
        # Perturbing c1 by 1e-3 in the closed form must break the match.
        psi1 = make_qubit(QubitParams(2 * math.pi / 3, 0.0))
        psi2 = make_qubit(QubitParams(math.pi / 3, 0.0))
        chi = basis_state(2, 0)
        a = b = 1.0 / math.sqrt(2.0)
        spec = ReferenceSpec(n=2, d=2, weights=(a, b), states=(psi1, psi2), chi=chi)
        sim = run_three_qubit(spec).success_prob
        c1 = overlap_decompose(psi1, chi).c + 1e-3
        c2 = overlap_decompose(psi2, chi).c
        tampered = c1 * c2 / (c1 + c2) * kappa_weighted_sum(spec).norm_sq
        assert abs(sim - tampered) > 1e-9


class TestCsvFormat:
    def test_nine_significant_digits(self):
        assert fmt9(0.8535533905932738) == "0.853553391"
        assert fmt9(1.0) == "1"
        assert fmt9(1.0 / 3.0) == "0.333333333"
