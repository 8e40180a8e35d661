"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line after its assertions hold at the
stated tolerance (run with ``pytest -s tests/test_acceptance.py`` to see
them). Runtime budgets are asserted with wall-clock measurements.
"""
import json
import math
import time

import numpy as np
import pytest

from qsuperpose import kernel
from qsuperpose.analysis import (
    sweep_csv,
    sweep_rp,
    reproduce_table1,
    success_ratio,
    table1_csv,
    verify_probability_formulas,
)
from qsuperpose.cli import main
from qsuperpose.datasets import TABLE1, dataset
from qsuperpose.direct import run_direct
from qsuperpose.enhanced import run_enhanced
from qsuperpose.hybrid import fourier
from qsuperpose.linalg import (
    DensityMatrix,
    QubitParams,
    StateVector,
    basis_state,
    make_qubit,
    partial_trace,
    phase_equivalent,
    pure_density,
    tensor,
)
from qsuperpose.nmr import SpinSystem, compile_sequence, partial_tomography, run_sequence
from qsuperpose.reference import ReferenceSpec, closed_form_p3

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SYS = SpinSystem()


def principal_state(rho: DensityMatrix) -> StateVector:
    vals, vecs = np.linalg.eigh(rho.mat)
    return StateVector(rho.dims, vecs[:, -1], normalized=True)


def pulse_final(dataset_id: int) -> tuple[StateVector, float]:
    mats = run_sequence([compile_sequence(dataset(dataset_id).spec(), SYS)], SYS, "iv")
    blocks, norms = partial_tomography(mats)
    return principal_state(DensityMatrix((2,), blocks[0])), float(norms[0])


def test_criterion_1_table1_ideal_reproduction():
    start = time.perf_counter()
    rows = reproduce_table1("gate")
    elapsed = time.perf_counter() - start
    assert len(rows) == 11
    for row in rows:
        assert row.sim_fidelity_gate >= 1.0 - 1e-9, row
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: 11/11 gate fidelities >= 1-1e-9 ({elapsed:.3f}s)")


def test_criterion_2_gate_pulse_equivalence():
    start = time.perf_counter()
    for ds in TABLE1:
        gate = run_direct(ds.spec())
        state, norm = pulse_final(ds.dataset_id)
        overlap = abs(np.vdot(state.amps, gate.final_state.amps))
        assert overlap**2 >= 1.0 - 1e-6, ds.dataset_id
        assert abs(norm - gate.success_prob) <= 1e-6, ds.dataset_id
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: pulse checkpoint-(iv) matches gate level ({elapsed:.3f}s)")


def test_criterion_3_formula_oracle():
    start = time.perf_counter()
    report = verify_probability_formulas(trials=1000, seed=0)
    elapsed = time.perf_counter() - start
    assert report.ok, report.failures[:3]
    worst = max(report.max_deviation.values())
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(
        "PASS criterion 3: verify --trials 1000 --seed 0, "
        f"max deviation {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_4_figure_points():
    assert abs(success_ratio(3.0, 0.2) - 10.0 / 7.0) <= 1e-12
    assert abs(success_ratio(3.0, 0.1) - 5.0 / 3.0) <= 1e-12
    for b_sq in np.linspace(0.05, 0.95, 19):
        assert abs(success_ratio(1.0, float(b_sq)) - 1.0) <= 1e-12
    for r_c in np.linspace(0.1, 10.0, 34):
        assert abs(success_ratio(float(r_c), 0.5) - 1.0) <= 1e-12
    print("PASS criterion 4: r_p figure points and tie lines exact to 1e-12")


def test_criterion_5_enhanced_claims():
    # (a) c1 = c2_perp longitudinal pair doubles P3 (dataset-5 states).
    psi1 = make_qubit(QubitParams(2 * math.pi / 3, 0.0))
    psi2 = make_qubit(QubitParams(math.pi / 3, 0.0))
    chi = basis_state(2, 0)
    spec = ReferenceSpec(
        n=2, d=2, weights=(INV_SQRT2, INV_SQRT2), states=(psi1, psi2), chi=chi
    )
    result = run_enhanced(spec)
    p3 = closed_form_p3(spec)
    assert abs(result.p_total - 2.0 * p3) <= 1e-9
    # (b) equatorial antipodal pair reaches 1/2.
    plus = make_qubit(QubitParams(math.pi / 2, 0.0))
    minus = make_qubit(QubitParams(math.pi / 2, math.pi))
    eq = run_enhanced(
        ReferenceSpec(
            n=2, d=2, weights=(INV_SQRT2, INV_SQRT2), states=(plus, minus), chi=chi
        )
    )
    assert abs(eq.p_total - 0.5) <= 1e-9
    # (c) longitudinal coherent harvest is pure.
    assert result.harvest_purity >= 1.0 - 1e-9
    print("PASS criterion 5: p_total = 2 P3, equatorial 1/2, harvest purity >= 1-1e-9")


def test_criterion_6_phase_invariance():
    for base_id, phased_id in ((5, 9), (6, 10)):
        gate_base = run_direct(dataset(base_id).spec()).final_state
        gate_phased = run_direct(dataset(phased_id).spec()).final_state
        assert phase_equivalent(gate_base, gate_phased, 1e-9)
        pulse_base, _ = pulse_final(base_id)
        pulse_phased, _ = pulse_final(phased_id)
        assert phase_equivalent(pulse_base, pulse_phased, 1e-9)
    print("PASS criterion 6: datasets 5~9 and 6~10 agree for gate and pulse")


def test_criterion_7_hybrid_reduction(tmp_path, capsys):
    states = [
        {"dims": [2], "amps": [[0.5, 0.0], [math.sqrt(3) / 2, 0.0]]},
        {"dims": [2], "amps": [[math.sqrt(3) / 2, 0.0], [0.5, 0.0]]},
    ]
    states_path = tmp_path / "states.json"
    states_path.write_text(json.dumps(states))
    a = 2.0 / math.sqrt(5.0)
    b = 1.0 / math.sqrt(5.0)
    assert main([
        "qudit", "--n", "2", "--d", "2",
        "--states", str(states_path),
        "--weights", f"{a:.17g},{b:.17g}",
        "--chi-index", "0",
    ]) == 0
    qudit_out = json.loads(capsys.readouterr().out)
    assert main([
        "run-reference", "--mode", "reduced",
        "--psi1", f"{2 * math.pi / 3},0",
        "--psi2", f"{math.pi / 3},0",
        "--a", f"{a:.17g}",
        "--b", f"{b:.17g}",
    ]) == 0
    ref_out = json.loads(capsys.readouterr().out)
    assert abs(qudit_out["success_prob"] - ref_out["success_prob"]) <= 1e-9
    u = np.array([complex(re, im) for re, im in qudit_out["final_state"]["amps"]])
    v = np.array([complex(re, im) for re, im in ref_out["final_state"]["amps"]])
    assert abs(np.vdot(u, v)) ** 2 >= 1.0 - 1e-9
    print("PASS criterion 7: qudit n=2 d=2 equals run-reference --mode reduced")


def test_criterion_8_small_overlap_robustness():
    result = run_direct(dataset(11).spec())
    overlap = math.sin(math.pi / 36.0)
    assert abs(overlap - 0.08715574274765817) <= 1e-12
    assert result.fidelity_to_target >= 1.0 - 1e-9
    print(f"PASS criterion 8: dataset 11 (overlap {overlap:.4f}) fidelity >= 1-1e-9")


def test_criterion_9_structural_suite(rng):
    for n in range(1, 9):
        f = fourier(n)
        assert np.max(np.abs(f.conj().T @ f - np.eye(n))) <= 1e-12
    c1, c2 = rng.uniform(0.01, 1.0, size=(100, 2)).T
    for u in (kernel.u_chi(c1, c2), kernel.u_chi(1.0 - c1 + 1e-3, 1.0 - c2 + 1e-3)):
        assert np.max(np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(2))) <= 1e-12
    # Probability conservation over the Fourier branches.
    from qsuperpose.hybrid import run_hybrid

    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    chi3 = StateVector((3,), amps / np.linalg.norm(amps), normalized=True)
    states = []
    while len(states) < 3:
        s = rng.normal(size=3) + 1j * rng.normal(size=3)
        s /= np.linalg.norm(s)
        if abs(np.vdot(chi3.amps, s)) > 0.2:
            states.append(StateVector((3,), s, normalized=True))
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    w /= np.linalg.norm(w)
    spec = ReferenceSpec(
        n=3, d=3, weights=tuple(complex(v) for v in w), states=tuple(states), chi=chi3
    )
    branches = run_hybrid(spec).branches
    assert abs(sum(br.norm_sq for br in branches) - 1.0) <= 1e-12
    # Tensor / partial-trace algebra identities.
    u = StateVector((2,), [0.5, math.sqrt(3) / 2], normalized=True)
    v = StateVector((3,), [0.5, 0.5, INV_SQRT2], normalized=True)
    w3 = StateVector((2,), [INV_SQRT2, INV_SQRT2], normalized=True)
    left = tensor(tensor(u, v), w3)
    right = tensor(u, tensor(v, w3))
    assert np.max(np.abs(left.amps - right.amps)) <= 1e-12
    rho = pure_density(left)
    reduced = partial_trace(rho, [1])
    assert np.max(np.abs(reduced.mat - pure_density(v).mat)) <= 1e-12
    assert abs(partial_trace(rho, []).mat[0, 0].real - 1.0) <= 1e-12
    # Deterministic, bit-identical CSV artifacts.
    grid = (np.linspace(0.2, 5.0, 25), (0.1, 0.2, 0.5, 0.8))
    assert sweep_csv(sweep_rp(*grid)) == sweep_csv(sweep_rp(*grid))
    assert table1_csv(reproduce_table1("gate")) == table1_csv(reproduce_table1("gate"))
    print("PASS criterion 9: structural identities within 1e-12, CSV bit-stable")
