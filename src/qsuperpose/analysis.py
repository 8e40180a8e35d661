"""Closed-form probability analysis, sweeps, and the verification harness.

Everything here is deterministic: sweeps follow grid order, the
verification harness derives every random draw from its seed, and CSV
output uses a fixed 9-significant-digit format so repeated runs are
bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import kernel, nmr
from .datasets import TABLE1
from .direct import outcomes, run_direct_batch
from .errors import ArgumentError
from .linalg import QubitParams, StateVector, bloch, fidelity_batch, pure_density_batch

TIE_TOL = 1e-12

REGIME_TWO_QUBIT = "two_qubit_wins"
REGIME_TIE = "tie"
REGIME_THREE_QUBIT = "three_qubit_wins"


def fmt9(x: float) -> str:
    """9-significant-digit decimal format used by every CSV emitter."""
    return format(float(x), ".9g")


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid over the overlap ratio r_c and weight |b|^2."""

    r_c_values: tuple[float, ...]
    b_sq_values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "r_c_values", tuple(float(v) for v in self.r_c_values))
        object.__setattr__(
            self, "b_sq_values", tuple(float(v) for v in self.b_sq_values)
        )
        if not all(0.0 < v < math.inf for v in self.r_c_values):
            raise ArgumentError("all r_c values must be positive and finite")
        if any(not 0.0 < v < 1.0 for v in self.b_sq_values):
            raise ArgumentError("all b^2 values must lie in (0, 1)")


def success_ratio(r_c: float, b_sq: float) -> float:
    """r_p = (r_c + 1) / (2 (1 + b_sq (r_c - 1)))."""
    if not 0.0 < r_c < math.inf:
        raise ArgumentError(f"r_c must be positive and finite, got {r_c}")
    if not 0.0 < b_sq < 1.0:
        raise ArgumentError(f"b_sq must lie in (0, 1), got {b_sq}")
    return (r_c + 1.0) / (2.0 * (1.0 + b_sq * (r_c - 1.0)))


@dataclass(frozen=True)
class SweepRow:
    r_c: float
    b_sq: float
    r_p: float
    regime: str


def sweep_rp(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate r_p over the grid, row-major (r_c outer, b_sq inner)."""
    rows = []
    for r_c in grid.r_c_values:
        for b_sq in grid.b_sq_values:
            r_p = success_ratio(r_c, b_sq)
            if abs(r_p - 1.0) <= TIE_TOL:
                regime = REGIME_TIE
            elif r_p > 1.0:
                regime = REGIME_TWO_QUBIT
            else:
                regime = REGIME_THREE_QUBIT
            rows.append(SweepRow(r_c, b_sq, r_p, regime))
    return rows


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    lines = ["r_c,b_sq,r_p,regime"]
    for row in rows:
        lines.append(f"{fmt9(row.r_c)},{fmt9(row.b_sq)},{fmt9(row.r_p)},{row.regime}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Table1Row:
    """Simulation results for one dataset; the reported fidelity is metadata."""

    dataset_id: int
    psi1: QubitParams
    psi2: QubitParams
    weight_ratio: float
    gamma2: float
    reported_fidelity: float
    sim_fidelity_gate: Optional[float]
    sim_fidelity_pulse: Optional[float]
    success_prob: float


def reproduce_table1(mode: str = "gate") -> list[Table1Row]:
    """Run the gate and/or pulse pipeline over all eleven datasets at once:
    one kernel batch, and one propagation per pulse-sequence skeleton."""
    if mode not in ("gate", "pulse", "both"):
        raise ArgumentError(f"mode must be gate, pulse or both, got {mode!r}")
    specs = [ds.spec() for ds in TABLE1]
    rows, targets = run_direct_batch(specs)
    _, goal, gate_fid = outcomes(rows[:, 0], targets)
    success, gate_fid = kernel.norm_sq(rows[:, 0]), gate_fid.tolist()
    pulse_fid = [None] * len(specs)
    if mode != "gate":
        sys = nmr.SpinSystem()
        seqs = [nmr.compile_sequence(spec, sys) for spec in specs]
        readout = nmr.run_sequence_batch(seqs, sys)["iv"]
        blocks, norms = nmr.partial_tomography_batch(readout)
        pulse_fid = fidelity_batch(blocks, pure_density_batch(goal)).tolist()
        if mode == "pulse":
            gate_fid, success = [None] * len(specs), norms
    return [
        Table1Row(ds.dataset_id, ds.psi1, ds.psi2, ds.weight_ratio, ds.gamma2,
                  ds.reported_fidelity, gate, pulse, float(p))
        for ds, gate, pulse, p in zip(TABLE1, gate_fid, pulse_fid, success)
    ]


def table1_csv(rows: Iterable[Table1Row]) -> str:
    lines = [
        "dataset,theta1,phi1,theta2,phi2,weight_ratio,gamma2,reported_fidelity,"
        "sim_fidelity_gate,sim_fidelity_pulse,success_prob"
    ]
    for r in rows:
        gate = fmt9(r.sim_fidelity_gate) if r.sim_fidelity_gate is not None else ""
        pulse = fmt9(r.sim_fidelity_pulse) if r.sim_fidelity_pulse is not None else ""
        lines.append(
            ",".join(
                [
                    str(r.dataset_id),
                    fmt9(r.psi1.theta),
                    fmt9(r.psi1.phi),
                    fmt9(r.psi2.theta),
                    fmt9(r.psi2.phi),
                    fmt9(r.weight_ratio),
                    fmt9(r.gamma2),
                    fmt9(r.reported_fidelity),
                    gate,
                    pulse,
                    fmt9(r.success_prob),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# --- Randomized formula verification --------------------------------------

FORMULA_TOL = 1e-9
# Drawn states keep |<chi|psi>| at least this far from the zero-overlap case.
OVERLAP_FLOOR = 0.05
# Trials per kernel batch: the working set stays fixed however many trials run.
VERIFY_CHUNK = 1024

_HYBRID_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3))


@dataclass
class VerifyReport:
    """Outcome of the randomized closed-form verification run."""

    trials: int
    seed: int
    max_deviation: dict[str, float] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, trials, deviation, spec: Callable[[int], dict]):
        """Fold one check into the report; ``spec(i)`` runs for failed rows only."""
        if len(trials):
            deviation = np.abs(deviation)
            worst = float(np.max(deviation))
            self.max_deviation[name] = max(self.max_deviation.get(name, 0.0), worst)
            for i in np.flatnonzero(~(deviation <= FORMULA_TOL)):
                failure = {"check": name, "trial": int(trials[i])}
                failure.update(deviation=float(deviation[i]), spec=spec(i))
                self.failures.append(failure)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "max_deviation": dict(sorted(self.max_deviation.items())),
            "failures": self.failures,
        }


def _unit(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    """Random unit vectors (rows, d); also the weights."""
    amps = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _overlapping(rng: np.random.Generator, chi: np.ndarray, n: int) -> np.ndarray:
    """(T, n, d) random states with |<chi|psi>| >= OVERLAP_FLOOR, redrawing failures."""
    t, d = chi.shape
    states = _unit(rng, t * n, d).reshape(t, n, d)
    while (bad := np.abs(kernel.overlaps(states, chi)) < OVERLAP_FLOOR).any():
        states[bad] = _unit(rng, int(bad.sum()), d)
    return states


def _bloch_pairs(rng: np.random.Generator, rows: int, antipodal: bool):
    """(psi1, psi2) pairs in a fixed geometry relative to a random chi.

    Antipodal pairs share the polar angle and sit pi apart in azimuth;
    longitudinal pairs share the azimuth.
    """
    chi = _unit(rng, rows, 2)
    polar = rng.uniform(0.2, math.pi / 2 - 0.2, size=(rows, 1 if antipodal else 2))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, size=(rows, 1)) + [0, math.pi * antipodal]
    coords = bloch(np.broadcast_to(2 * polar, (rows, 2)), azimuth, np.zeros((rows, 2)))
    return coords @ np.stack([chi, kernel.chi_perp(chi)], axis=1), chi


def _spec(weights: np.ndarray, states: np.ndarray, chi: np.ndarray, **extra):
    """Replay context of row i: the fields of a ReferenceSpec (plus extras)."""
    return lambda i: {
        "weights": [[float(z.real), float(z.imag)] for z in weights[i]],
        "states": [StateVector(s.shape, s).to_json() for s in states[i]],
        "chi": StateVector(chi[i].shape, chi[i]).to_json(),
        **{key: value[i].tolist() for key, value in extra.items()},
    }


def _verify_chunk(rng: np.random.Generator, trials: np.ndarray, report: VerifyReport):
    """Draw one batch of trials and run every check once over all of it."""
    t = len(trials)
    w = _unit(rng, t, 2)

    # Direct protocol: operational probability vs the weighted-sum norm.
    angles = rng.uniform(0.0, [math.pi, 2 * math.pi, 2 * math.pi], size=(t, 2, 3))
    theta, phi, gamma = np.moveaxis(angles, -1, 0)
    states = bloch(theta, phi, gamma)
    chi = np.tile([1.0 + 0j, 0.0], (t, 1))
    kernel.validate(w, states, chi)
    sim = kernel.norm_sq(kernel.direct(w, states, gamma)[:, 0])
    closed = kernel.norm_sq(kernel.weighted_sum(w, bloch(theta, phi, 0 * gamma))) / 2
    spec = _spec(w, states, chi, angles=angles)
    report.record("direct_success", trials, sim - closed, spec)

    # Reference protocols on random states with comfortable overlaps.
    chi = _unit(rng, t, 2)
    pair = _overlapping(rng, chi, 2)
    kernel.validate(w, pair, chi)
    sim = kernel.norm_sq(kernel.fourier_rows(kernel.reduced(w, pair, chi))[:, 0])
    closed = kernel.closed_form_fourier(w, pair, chi)
    report.record("p2_reduced", trials, sim - closed, _spec(w, pair, chi))
    sim = kernel.norm_sq(kernel.three_qubit(w, pair, chi))
    closed = kernel.closed_form_mu(w, pair, chi)
    report.record("p3_three_qubit", trials, sim - closed, _spec(w, pair, chi))

    # Hybrid protocol, trial t on shape t mod 4, one batch per shape.
    for k, (n, d) in enumerate(_HYBRID_SHAPES):
        rows = trials % len(_HYBRID_SHAPES) == k
        chi_d = _unit(rng, int(rows.sum()), d)
        states = _overlapping(rng, chi_d, n)
        w_d = _unit(rng, len(chi_d), n)
        kernel.validate(w_d, states, chi_d)
        block = kernel.reduced(w_d, states, chi_d)
        sim = kernel.norm_sq(kernel.fourier_rows(block)[:, 0])
        closed = kernel.closed_form_fourier(w_d, states, chi_d)
        spec = _spec(w_d, states, chi_d)
        report.record("hybrid_eq8", trials[rows], sim - closed, spec)

    # Enhanced protocol: both sector probabilities, on the trials whose
    # states also overlap chi^perp comfortably.
    pair = _overlapping(rng, chi, 2)
    chip = kernel.chi_perp(chi)
    ok = np.all(np.abs(kernel.overlaps(pair, chip)) >= OVERLAP_FLOOR, axis=1)
    w_e, pair, chi, chip, ran = w[ok], pair[ok], chi[ok], chip[ok], trials[ok]
    kernel.validate(w_e, pair, chi)
    res = kernel.enhanced(w_e, pair, chi)
    closed = kernel.closed_form_mu(w_e, pair, chi)
    report.record("enhanced_p1", ran, res.p1 - closed, _spec(w_e, pair, chi))
    g = res.geometry != kernel.GEOMETRY_TRANSVERSE_ANTIPODAL
    closed = kernel.closed_form_mu(w_e[g], pair[g], chip[g])
    spec = _spec(w_e[g], pair[g], chi[g])
    report.record("enhanced_p2", ran[g], res.p2[g] - closed, spec)

    # Geometry-specific totals on constructed pairs.
    for geometry in ("longitudinal", "antipodal"):
        pair, chi = _bloch_pairs(rng, t, antipodal=geometry == "antipodal")
        w = _unit(rng, t, 2)
        kernel.validate(w, pair, chi)
        if geometry == "antipodal":
            closed = kernel.norm_sq(kernel.target(w, pair, chi)) / 2.0
        else:
            chip = kernel.chi_perp(chi)
            closed = kernel.closed_form_mu(w, pair, chi)
            closed = closed + kernel.closed_form_mu(w, pair, chip)
        deviation = kernel.enhanced(w, pair, chi).p_total - closed
        spec = _spec(w, pair, chi)
        report.record(f"enhanced_ptotal_{geometry}", trials, deviation, spec)


def verify_probability_formulas(trials: int, seed: int) -> VerifyReport:
    """Check every simulated probability against its closed form.

    The trials run in batches of VERIFY_CHUNK through the kernel that the
    scalar pipelines view; a failure names its trial and the replay context.
    """
    if trials < 1:
        raise ArgumentError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    report = VerifyReport(trials=trials, seed=seed)
    for start in range(0, trials, VERIFY_CHUNK):
        _verify_chunk(rng, np.arange(start, min(trials, start + VERIFY_CHUNK)), report)
    return report
