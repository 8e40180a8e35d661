"""Sweeps, the experiment-table driver, and the verification harness."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsuperpose import analysis, direct, kernel, nmr
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
from qsuperpose.direct import SuperpositionSpec, run_direct
from qsuperpose.errors import ArgumentError
from qsuperpose.linalg import (
    ATOL,
    QubitParams,
    StateVector,
    basis_state,
    bloch,
    fidelity_batch,
    make_qubit,
    overlap_decompose,
    pure_density_batch,
    unit_rows,
)
from qsuperpose.reference import (
    ReferenceSpec,
    closed_form_p3,
    kappa_weighted_sum,
    run_three_qubit,
    run_two_qubit_reduced,
)

from helpers import TABLE1_MODES, golden_table1, phase_equivalent


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
        _, _, r_p, regime = sweep_rp((0.5, 2.0), (0.8,))
        assert r_p[0] == pytest.approx(1.25, abs=1e-12)
        assert regime[0] == REGIME_TWO_QUBIT
        assert r_p[1] == pytest.approx(3.0 / (2 * 1.8), abs=1e-12)
        assert regime[1] == REGIME_THREE_QUBIT

    def test_tie_lines(self):
        regime = sweep_rp((1.0,), (0.1, 0.3, 0.9))[3]
        assert all(r == REGIME_TIE for r in regime)
        regime = sweep_rp((0.2, 5.0), (0.5,))[3]
        assert all(r == REGIME_TIE for r in regime)

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

    def test_first_bad_point_in_row_major_order_names_its_value(self):
        # (1, 1.5) comes before (0, 0.5); at one point r_c is checked first.
        with pytest.raises(ArgumentError, match=re.escape("b_sq must lie in (0, 1), got 1.5")):
            sweep_rp((1.0, 0.0, -1.0), (0.5, 1.5))
        with pytest.raises(ArgumentError, match="r_c must be positive and finite, got 0.0"):
            sweep_rp((1.0, 0.0, -1.0), (0.5, 0.7))
        with pytest.raises(ArgumentError, match="r_c must be positive and finite, got -1.0"):
            sweep_rp((-1.0,), (1.5,))

    def test_csv_deterministic(self):
        grid = (np.linspace(0.1, 4.0, 7), (0.1, 0.2, 0.8))
        assert sweep_csv(sweep_rp(*grid)) == sweep_csv(sweep_rp(*grid))
        header = sweep_csv(sweep_rp(*grid)).splitlines()[0]
        assert header == "r_c,b_sq,r_p,regime"


def sweep_per_point(r_c_values, b_sq_values):
    """The sweep as (r_c, b_sq, r_p, regime) rows, one grid point at a time in
    float arithmetic."""
    rows = []
    for r_c in r_c_values:
        for b_sq in b_sq_values:
            r_p = (r_c + 1.0) / 2.0 / (1.0 + b_sq * (r_c - 1.0))
            if abs(r_p - 1.0) <= analysis.TIE_TOL:
                regime = REGIME_TIE
            elif r_p > 1.0:
                regime = REGIME_TWO_QUBIT
            else:
                regime = REGIME_THREE_QUBIT
            rows.append((r_c, b_sq, r_p, regime))
    return rows


# r_c = 1 and b_sq = 1/2 are the tie lines; 1.7e308 is near the float maximum.
R_C = st.one_of(
    st.floats(0.0, 1.7e308, exclude_min=True),
    st.floats(1.0 - 1e-9, 1.0 + 1e-9),
    st.sampled_from([1.0, 1.7e308, 1.0 - 1e-12, 1.0 + 1e-12, 5e-324]),
)
B_SQ = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(0.5))


@settings(max_examples=60, deadline=None)
@given(st.lists(R_C, min_size=1, max_size=8), st.lists(B_SQ, min_size=1, max_size=8))
def test_array_sweep_equals_the_per_point_loop(r_c_values, b_sq_values):
    columns = [column.tolist() for column in sweep_rp(r_c_values, b_sq_values)]
    assert list(zip(*columns)) == sweep_per_point(r_c_values, b_sq_values)


def table1_by_separate_passes(mode):
    """reproduce_table1 as it was before its one fidelity pass, kept as its
    reference: the gate outcomes (branches and targets normalized apart, the
    fidelity range-checked and clipped), then a second fidelity pass for the
    pulse blocks; each pass's fidelity from its own fidelity_batch call."""
    batch = direct.spec_batch([ds.weights() for ds in TABLE1], [ds.angles() for ds in TABLE1])
    rows, targets = direct.run_direct_batch(batch)
    final, goal = unit_rows(rows[:, 0]), unit_rows(targets)
    gate_fid = fidelity_batch(pure_density_batch(final), pure_density_batch(goal))
    assert np.all((-ATOL <= gate_fid) & (gate_fid <= 1.0 + ATOL))
    success, gate_fid = kernel.norm_sq(rows[:, 0]), np.clip(gate_fid, 0.0, 1.0).tolist()
    pulse_fid = [None] * len(TABLE1)
    if mode != "gate":
        program = nmr.compile_sequence(batch, nmr.SpinSystem())
        blocks, norms = nmr.partial_tomography(nmr.run_sequence(program, "iv"))
        pulse_fid = fidelity_batch(blocks, pure_density_batch(goal)).tolist()
        if mode == "pulse":
            gate_fid, success = [None] * len(TABLE1), norms
    return [
        analysis.Table1Row(ds.dataset_id, gate, pulse, float(p))
        for ds, gate, pulse, p in zip(TABLE1, gate_fid, pulse_fid, success)
    ]


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

    @pytest.mark.parametrize("mode,blank", TABLE1_MODES)
    def test_csv_matches_golden(self, mode, blank):
        assert table1_csv(reproduce_table1(mode)) == golden_table1(blank)

    @pytest.mark.parametrize("mode", ["gate", "pulse", "both"])
    def test_same_values_as_separate_passes(self, mode):
        # One unit_rows and one fidelity_batch pass give every field of the
        # separate gate and pulse passes.
        rows = reproduce_table1(mode)
        assert [type(row.success_prob) for row in rows] == [float] * len(TABLE1)
        assert rows == table1_by_separate_passes(mode)

    def test_gate_fidelities_keep_the_outcomes_rule(self, monkeypatch):
        # Within ATOL past 1 the gate fidelity is clipped and the pulse one is
        # not; further out the gate half raises in every mode, as outcomes does.
        def shifted(shift):
            return lambda a, b: fidelity_batch(a, b) + shift

        monkeypatch.setattr(analysis, "fidelity_batch", shifted(ATOL / 2))
        rows = reproduce_table1("both")
        assert [row.sim_fidelity_gate for row in rows] == [1.0] * len(TABLE1)
        assert min(row.sim_fidelity_pulse for row in rows) > 1.0
        monkeypatch.setattr(analysis, "fidelity_batch", shifted(2 * ATOL))
        for mode in ("gate", "pulse", "both"):
            with pytest.raises(ArgumentError, match="^fidelity out of range$"):
                reproduce_table1(mode)

    def test_batched_gate_rows_match_run_direct(self):
        for row, ds in zip(reproduce_table1("gate"), TABLE1):
            result = run_direct(ds.spec())
            assert abs(row.success_prob - result.success_prob) <= 1e-12
            assert abs(row.sim_fidelity_gate - result.fidelity_to_target) <= 1e-12


ALL_CHECKS = {
    "direct_success",
    "p2_reduced",
    "p3_three_qubit",
    "ratio_rp",
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
        report.record_all([("x", np.arange(3), np.array([1e-3, np.nan, 2e-16]), lambda i: {})])
        assert report.max_deviation == {"x": math.inf}
        assert [f["trial"] for f in report.failures] == [0, 1]
        # Across chunks: a later finite chunk does not lower it, and a later
        # NaN raises a finite maximum.
        report.record_all([("x", np.arange(3, 4), np.array([0.5]), lambda i: {})])
        assert report.max_deviation == {"x": math.inf}
        report.record_all([("y", np.arange(2), np.array([1e-3, 2e-16]), lambda i: {})])
        report.record_all([("y", np.arange(2, 3), np.array([np.nan]), lambda i: {})])
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

        def off_on_one_trial(weights, states, ip):
            # The first call is the P3 check over the whole chunk: mark its
            # trial 3, then skew the closed form wherever those inputs recur.
            if not marked:
                marked.extend((weights[3].copy(), states[3].copy(), ip[3].copy()))
            w, s, c = marked
            hit = (weights == w).all(1) & (states == s).all((1, 2)) & (ip == c).all(1)
            return true_mu(weights, states, ip) + 1e-6 * hit

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

    def test_injected_ratio_fault_names_its_trial_and_replays(self, monkeypatch):
        true_ratio = analysis.success_ratio
        marked = []

        def off_on_one_trial(r_c, b_sq):
            # The first call holds every trial of the chunk: mark trial 3, then
            # skew the ratio wherever that point recurs.
            if not marked:
                marked.extend((r_c[3], b_sq[3]))
            hit = (r_c == marked[0]) & (b_sq == marked[1])
            return true_ratio(r_c, b_sq) * (1.0 + 1e-6 * hit)

        monkeypatch.setattr(analysis, "success_ratio", off_on_one_trial)
        report = verify_probability_formulas(trials=20, seed=3)
        assert [(f["check"], f["trial"]) for f in report.failures] == [("ratio_rp", 3)]
        failure = json.loads(json.dumps(report.failures[0]))
        assert failure["deviation"] == pytest.approx(1e-6, rel=1e-5)

        spec = failure["spec"]
        weights = tuple(complex(re, im) for re, im in spec["weights"])
        states = tuple(StateVector.from_json(obj) for obj in spec["states"])
        chi = StateVector.from_json(spec["chi"])

        def replay():
            pair = ReferenceSpec(n=2, d=2, weights=weights, states=states, chi=chi)
            p2 = run_two_qubit_reduced(pair).success_prob
            p3 = run_three_qubit(pair).success_prob
            c = np.abs(pair.batch[3]) ** 2
            r_p = analysis.success_ratio(c[:, 1] / c[:, 0], np.abs(pair.batch[0][:, 1]) ** 2)
            return abs(p2 / p3 / r_p[0] - 1.0)

        assert replay() == pytest.approx(failure["deviation"], abs=1e-12)
        monkeypatch.undo()
        assert replay() <= 1e-12

    def test_injected_direct_fault_names_its_trial_and_replays(self, monkeypatch):
        true_run = direct.run_direct_batch
        marked = []

        def off_on_one_trial(batch):
            # The first call holds every trial of the chunk: mark trial 3, then
            # skew the branch wherever those inputs recur.
            if not marked:
                marked.extend((batch.weights[3].copy(), batch.angles[3].copy()))
            hit = (batch.weights == marked[0]).all(1) & (batch.angles == marked[1]).all((1, 2))
            rows, targets = true_run(batch)
            return rows * np.where(hit, 1.0 + 1e-6, 1.0)[:, None, None], targets

        # analysis runs the verify check, direct the scalar replay below.
        for module in (analysis, direct):
            monkeypatch.setattr(module, "run_direct_batch", off_on_one_trial)
        report = verify_probability_formulas(trials=20, seed=3)
        assert [(f["check"], f["trial"]) for f in report.failures] == [("direct_success", 3)]
        failure = json.loads(json.dumps(report.failures[0]))
        assert failure["deviation"] > analysis.FORMULA_TOL

        spec = failure["spec"]
        weights = [complex(re, im) for re, im in spec["weights"]]
        psi1, psi2 = (QubitParams(*angles) for angles in spec["angles"])

        def replay():
            result = run_direct(SuperpositionSpec(*weights, psi1, psi2))
            return abs(result.success_prob - result.norm_sq / 2.0)

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


# --- Fused draws and one-pass bookkeeping against their sequential forms ----

PROPERTY = settings(max_examples=60, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


def unit(rng, rows, d):
    """One unit-vector array drawn alone: each amplitude's real, then imaginary part."""
    x = rng.normal(size=(rows, d, 2))
    amps = x[..., 0] + 1j * x[..., 1]
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def bloch_pair(chi, polar, azimuth, antipodal):
    """psi_k = cos(theta_k / 2) chi + e^{i phi_k} sin(theta_k / 2) chi^perp, theta_k = 2 polar:
    antipodal pairs share the polar angle, pi apart in azimuth; longitudinal ones the azimuth."""
    t = len(chi)
    coords = bloch(np.broadcast_to(2 * polar, (t, 2)), azimuth + [0, math.pi * antipodal],
                   np.zeros((t, 2)))
    return coords[..., :1] * chi[:, None] + coords[..., 1:] * kernel.chi_perp(chi)[:, None]


def sequential_draws(rng, trials):
    """One chunk's inputs drawn one array at a time, in the documented order:
    the 2-vectors (weights, chi, states), the 3-vectors, the angles, then the
    overlap floor over the d = 2 states and then the d = 3 ones, in row order.
    Returned as the chunk's kernel.validate arguments: the qubit-pair stack
    (direct, hybrid (2, 2), ref, enh, lon, anti), then the larger hybrid groups."""
    t = len(trials)
    r0, r1, r2, r3 = (int(np.sum(trials % 4 == k)) for k in range(4))
    w, lon_w, anti_w, w0, w2 = (unit(rng, rows, 2) for rows in (t, t, t, r0, r2))
    chi, chi0, chi1, lon_chi, anti_chi = (unit(rng, rows, 2) for rows in (t, r0, r1, t, t))
    ref, s0, s1, pair = (unit(rng, rows * n, 2).reshape(rows, n, 2)
                         for rows, n in ((t, 2), (r0, 2), (r1, 3), (t, 2)))
    w1, w3, chi2, chi3 = (unit(rng, rows, 3) for rows in (r1, r3, r2, r3))
    s2, s3 = (unit(rng, rows * n, 3).reshape(rows, n, 3) for rows, n in ((r2, 2), (r3, 3)))
    angles = rng.uniform(0.0, [math.pi, 2 * math.pi, 2 * math.pi], size=(t, 2, 3))
    lon_polar, anti_polar = (rng.uniform(0.2, math.pi / 2 - 0.2, size=(t, k)) for k in (2, 1))
    lon_azimuth, anti_azimuth = (rng.uniform(0.0, 2 * math.pi, size=(t, 1)) for _ in range(2))
    for floored in ([(ref, chi), (s0, chi0), (s1, chi1), (pair, chi)], [(s2, chi2), (s3, chi3)]):
        while True:
            bad = [np.abs(kernel.overlaps(s, c)) < analysis.OVERLAP_FLOOR for s, c in floored]
            if not any(mask.any() for mask in bad):
                break
            for (states, _), mask in zip(floored, bad):
                states[mask] = unit(rng, int(mask.sum()), states.shape[2])
    direct = (w, bloch(*np.moveaxis(angles, -1, 0)), np.tile([1.0 + 0j, 0.0], (t, 1)))
    ok = np.all(np.abs(kernel.overlaps(pair, kernel.chi_perp(chi))) >= analysis.OVERLAP_FLOOR, 1)
    lon = (lon_w, bloch_pair(lon_chi, lon_polar, lon_azimuth, False), lon_chi)
    anti = (anti_w, bloch_pair(anti_chi, anti_polar, anti_azimuth, True), anti_chi)
    hybrid = [(w0, s0, chi0), (w1, s1, chi1), (w2, s2, chi2), (w3, s3, chi3)]
    pairs = (direct, hybrid[0], (w, ref, chi), (w[ok], pair[ok], chi[ok]), lon, anti)
    return [tuple(np.concatenate(x) for x in zip(*pairs)), *hybrid[1:]]


GROUPS = st.lists(st.tuples(st.integers(1, 4), st.lists(st.integers(0, 12), max_size=4)),
                  min_size=1, max_size=4)


@PROPERTY
@given(SEEDS, GROUPS)
def test_fused_draws_equal_one_draw_per_array(seed, groups):
    fused_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fused = analysis._unit_block(fused_rng, *((d, *rows) for d, rows in groups))
    for arrays, (d, rows) in zip(fused, groups, strict=True):
        for got, n in zip(arrays, rows, strict=True):
            assert np.array_equal(got, unit(rng, n, d))
    assert fused_rng.normal() == rng.normal()  # the stream goes on at the same place


def validated_chunks(monkeypatch, trials, seed):
    """Run verify, and return each chunk's trials with its kernel.validate arguments."""
    seen = []
    true_validate = kernel.validate
    monkeypatch.setattr(kernel, "validate",
                        lambda *args: seen.append(args) or true_validate(*args))
    report = verify_probability_formulas(trials=trials, seed=seed)
    starts = range(0, trials, analysis.VERIFY_CHUNK)
    assert len(seen) == 4 * len(starts)
    chunks = [np.arange(start, min(trials, start + analysis.VERIFY_CHUNK)) for start in starts]
    return report, [(chunk, seen[4 * i : 4 * i + 4]) for i, chunk in enumerate(chunks)]


@pytest.mark.parametrize("trials", [1, 3, 20, 1030])
def test_chunk_inputs_equal_sequential_draws(monkeypatch, trials):
    report, chunks = validated_chunks(monkeypatch, trials, seed=trials)
    assert report.ok
    rng = np.random.default_rng(trials)
    for chunk, seen in chunks:
        for got, want in zip(seen, sequential_draws(rng, chunk), strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def floored_groups(chunk, validated):
    """The (states, chi) groups the overlap floor applies to: hybrid (2, 2), ref
    and enh rows of the qubit-pair stack, then the larger hybrid groups."""
    (_, states, chi), *larger = validated
    t, r0 = len(chunk), int(np.sum(chunk % 4 == 0))
    m = len(states) - 4 * t - r0  # the enh rows
    rows = slice(t, 2 * t + r0 + m)
    return [(states[rows], chi[rows]), *((s, c) for _, s, c in larger)]


def test_forced_redraws_meet_the_floor_and_repeat(monkeypatch):
    # At a floor of 0.5 a quarter of the qubit states and 7/16 of the qutrit
    # states fall below it on their first draw (|<chi|psi>|^2 < 1/4).
    monkeypatch.setattr(analysis, "OVERLAP_FLOOR", 0.5)
    blocks = []
    true_block = analysis._unit_block
    monkeypatch.setattr(analysis, "_unit_block",
                        lambda *args: blocks.append(args[1:]) or true_block(*args))
    report, chunks = validated_chunks(monkeypatch, trials=20, seed=6)
    assert report.ok
    # The chunk draw, then redraws of qubit states and of qutrit states.
    assert {groups[0][0] for groups in blocks[1:]} == {2, 3}
    for chunk, validated in chunks:
        for states, chi in floored_groups(chunk, validated):
            assert (np.abs(kernel.overlaps(states, chi)) >= 0.5).all()
    again = verify_probability_formulas(trials=20, seed=6).to_json()
    assert again == report.to_json()


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.one_of(st.integers(1, 40), st.sampled_from([1025, 2100])))
@example(seed=0, trials=1)
@example(seed=1, trials=2)
@example(seed=2, trials=3)
@example(seed=3, trials=2100)
def test_drawn_inputs_are_units_meet_the_floor_and_cover_their_trials(seed, trials):
    with pytest.MonkeyPatch.context() as monkeypatch:
        covered = {}
        true_record = analysis.VerifyReport.record_all

        def record_all(report, checks):
            checks = list(checks)
            for name, rows, *_ in checks:
                covered.setdefault(name, []).extend(rows.tolist())
            return true_record(report, checks)

        monkeypatch.setattr(analysis.VerifyReport, "record_all", record_all)
        report, chunks = validated_chunks(monkeypatch, trials, seed)
    assert report.ok
    for chunk, validated in chunks:
        for weights, states, chi in validated:
            for vectors in (weights, states.reshape(-1, states.shape[2]), chi):
                assert (np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= ATOL).all()
        for states, chi in floored_groups(chunk, validated):
            assert (np.abs(kernel.overlaps(states, chi)) >= analysis.OVERLAP_FLOOR).all()
    every = list(range(trials))
    for name in ALL_CHECKS - {"enhanced_p1", "enhanced_p2", "hybrid_eq8"}:
        assert covered[name] == every, name
    assert sorted(covered["hybrid_eq8"]) == every
    ran = covered.get("enhanced_p1", [])
    assert ran == sorted(set(ran)) and set(covered.get("enhanced_p2", [])) <= set(ran)


def record_one(report, name, trials, deviation, spec):
    """The per-check bookkeeping: one abs, max and failure scan per check."""
    if len(trials):
        deviation = np.abs(deviation)
        worst = float(np.max(deviation))
        worst = math.inf if math.isnan(worst) else worst
        report.max_deviation[name] = max(report.max_deviation.get(name, 0.0), worst)
        for i in np.flatnonzero(~(deviation <= analysis.FORMULA_TOL)):
            failure = {"check": name, "trial": int(trials[i])}
            failure.update(deviation=float(deviation[i]), spec=spec(i))
            report.failures.append(failure)


DEVIATIONS = st.lists(st.one_of(
    st.just(math.nan), st.floats(-2e-9, 2e-9), st.floats(-10.0, 10.0), st.just(math.inf),
), max_size=6)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from("xyz"), DEVIATIONS), max_size=8), st.integers(0, 1))
def test_one_pass_bookkeeping_equals_per_check_records(checks, chunks):
    checks = [
        (name, np.arange(len(dev)) + 100 * k, np.array(dev, dtype=float),
         lambda i, name=name, k=k: {"from": [name, k, int(i)]})
        for k, (name, dev) in enumerate(checks)
    ]
    one, each = (analysis.VerifyReport(trials=0, seed=0) for _ in range(2))
    for _ in range(chunks + 1):
        one.record_all(checks)
        for check in checks:
            record_one(each, *check)
    assert one.max_deviation == each.max_deviation
    # Through JSON, where a NaN deviation compares equal to itself.
    assert json.dumps(one.failures) == json.dumps(each.failures)


class TestCsvFormat:
    def test_nine_significant_digits(self):
        assert fmt9(0.8535533905932738) == "0.853553391"
        assert fmt9(1.0) == "1"
        assert fmt9(1.0 / 3.0) == "0.333333333"
