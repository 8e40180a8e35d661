"""Closed-form probability analysis, sweeps, and the verification harness.

Everything here is deterministic: sweeps follow grid order, the
verification harness derives every random draw from its seed, and CSV
output uses a fixed 9-significant-digit format so repeated runs are
bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import kernel, nmr
from .datasets import TABLE1
from .direct import outcomes, run_direct_batch, spec_batch
from .errors import ArgumentError
from .linalg import QubitParams, StateVector, bloch, fidelity_batch, pure_density_batch

TIE_TOL = 1e-12

REGIME_TWO_QUBIT = "two_qubit_wins"
REGIME_TIE = "tie"
REGIME_THREE_QUBIT = "three_qubit_wins"


def fmt9(x: float) -> str:
    """9-significant-digit decimal format used by every CSV emitter."""
    return format(float(x), ".9g")


def success_ratio(r_c: float, b_sq: float) -> float:
    """r_p = (r_c + 1) / (2 (1 + b_sq (r_c - 1)))."""
    if not 0.0 < r_c < math.inf:
        raise ArgumentError(f"r_c must be positive and finite, got {r_c}")
    if not 0.0 < b_sq < 1.0:
        raise ArgumentError(f"b_sq must lie in (0, 1), got {b_sq}")
    # Halve the numerator (exact) rather than double the denominator (may overflow).
    return (r_c + 1.0) / 2.0 / (1.0 + b_sq * (r_c - 1.0))


@dataclass(frozen=True)
class SweepRow:
    r_c: float
    b_sq: float
    r_p: float
    regime: str


def sweep_rp(r_c_values: Sequence[float], b_sq_values: Sequence[float]) -> list[SweepRow]:
    """Evaluate r_p over the grid, row-major (r_c outer, b_sq inner)."""
    rows = []
    for r_c in r_c_values:
        for b_sq in b_sq_values:
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
    """Run the gate and/or pulse pipeline over all eleven datasets at once: one
    validated spec batch through the kernel and one compiled pulse program."""
    if mode not in ("gate", "pulse", "both"):
        raise ArgumentError(f"mode must be gate, pulse or both, got {mode!r}")
    batch = spec_batch([ds.weights() for ds in TABLE1], [ds.angles() for ds in TABLE1])
    rows, targets = run_direct_batch(batch)
    _, goal, gate_fid = outcomes(rows[:, 0], targets)
    success, gate_fid = kernel.norm_sq(rows[:, 0]), gate_fid.tolist()
    pulse_fid = [None] * len(TABLE1)
    if mode != "gate":
        sys = nmr.SpinSystem()
        program = nmr.compile_sequence(batch, sys)
        blocks, norms = nmr.partial_tomography(nmr.run_sequence(program, sys, "iv"))
        pulse_fid = fidelity_batch(blocks, pure_density_batch(goal)).tolist()
        if mode == "pulse":
            gate_fid, success = [None] * len(TABLE1), norms
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
            # np.max returns NaN when any row is NaN: count it as +inf, so it
            # cannot hide a finite deviation.
            worst = float(np.max(deviation))
            worst = math.inf if math.isnan(worst) else worst
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
    """(weights, (psi1, psi2) pairs, chi), the pairs in a fixed geometry
    relative to a random chi and the weights drawn last.

    Antipodal pairs share the polar angle and sit pi apart in azimuth;
    longitudinal pairs share the azimuth.
    """
    chi = _unit(rng, rows, 2)
    polar = rng.uniform(0.2, math.pi / 2 - 0.2, size=(rows, 1 if antipodal else 2))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, size=(rows, 1)) + [0, math.pi * antipodal]
    coords = bloch(np.broadcast_to(2 * polar, (rows, 2)), azimuth, np.zeros((rows, 2)))
    pair = coords @ np.stack([chi, kernel.chi_perp(chi)], axis=1)
    return _unit(rng, rows, 2), pair, chi


def _spec(weights: np.ndarray, states: np.ndarray, chi: np.ndarray, **extra):
    """Replay context of row i: the fields of a ReferenceSpec (plus extras)."""
    return lambda i: {
        "weights": [[float(z.real), float(z.imag)] for z in weights[i]],
        "states": [StateVector(s.shape, s).to_json() for s in states[i]],
        "chi": StateVector(chi[i].shape, chi[i]).to_json(),
        **{key: value[i].tolist() for key, value in extra.items()},
    }


def _stack(*groups):
    """Row-concatenate (weights, states, chi) groups; ``split`` cuts a per-row
    result back into the groups. Kernel steps are row-independent, so a row's
    bits do not depend on the rows stacked beside it."""
    cuts = np.cumsum([len(g[0]) for g in groups])[:-1]
    return [np.concatenate(x) for x in zip(*groups)], lambda a: np.split(a, cuts)


def _eq8_deviation(weights: np.ndarray, states: np.ndarray, chi: np.ndarray):
    """Fourier post-selection probability minus its closed form, Eq. 8."""
    sim = kernel.norm_sq(kernel.fourier_rows(kernel.reduced(weights, states, chi))[:, 0])
    return sim - kernel.closed_form_fourier(weights, states, chi)


def _verify_chunk(rng: np.random.Generator, trials: np.ndarray, report: VerifyReport):
    """Draw every input of one batch of trials, run each kernel step once over
    all the qubit-pair rows that need it, then record the checks in order."""
    t = len(trials)
    w = _unit(rng, t, 2)
    # Direct protocol: operational probability vs the weighted-sum norm.
    angles = rng.uniform(0.0, [math.pi, 2 * math.pi, 2 * math.pi], size=(t, 2, 3))
    theta, phi, gamma = np.moveaxis(angles, -1, 0)
    direct = (w, bloch(theta, phi, gamma), np.tile([1.0 + 0j, 0.0], (t, 1)))
    # Reference protocols on random states with comfortable overlaps.
    chi = _unit(rng, t, 2)
    ref = (w, _overlapping(rng, chi, 2), chi)
    # Hybrid protocol, trial t on shape t mod 4.
    shape_of, hybrid = trials % len(_HYBRID_SHAPES), []
    for k, (n, d) in enumerate(_HYBRID_SHAPES):
        chi_d = _unit(rng, int(np.sum(shape_of == k)), d)
        states = _overlapping(rng, chi_d, n)
        hybrid.append((_unit(rng, len(chi_d), n), states, chi_d))
    # Enhanced protocol, on the trials whose states also overlap chi^perp
    # comfortably; then geometry-specific totals on constructed pairs.
    pair = _overlapping(rng, chi, 2)
    ok = np.all(np.abs(kernel.overlaps(pair, kernel.chi_perp(chi))) >= OVERLAP_FLOOR, 1)
    enh, ran = (w[ok], pair[ok], chi[ok]), trials[ok]
    lon, anti = [_bloch_pairs(rng, t, antipodal) for antipodal in (False, True)]

    # One kernel pass per step over the qubit-pair rows; the larger hybrid
    # shapes keep their own.
    kernel.validate(*_stack(direct, ref, hybrid[0], enh, lon, anti)[0])
    for group in hybrid[1:]:
        kernel.validate(*group)
    rows, split = _stack(ref, hybrid[0])
    p2_dev, *eq8_dev = split(_eq8_deviation(*rows))
    eq8_dev += [_eq8_deviation(*group) for group in hybrid[1:]]
    rows, split = _stack(enh, lon, anti)
    res = kernel.enhanced(*rows)
    p1, p2, geometry = (split(x)[0] for x in (res.p1, res.p2, res.geometry))
    _, lon_total, anti_total = split(res.p_total)
    g = geometry != kernel.GEOMETRY_TRANSVERSE_ANTIPODAL
    enh_perp = (enh[0][g], enh[1][g], kernel.chi_perp(enh[2])[g])
    lon_perp = (*lon[:2], kernel.chi_perp(lon[2]))
    rows, split = _stack(ref, enh, enh_perp, lon, lon_perp)
    p3_mu, p1_mu, p2_mu, lon_mu, lon_perp_mu = split(kernel.closed_form_mu(*rows))

    sim = kernel.norm_sq(kernel.direct(w, direct[1], gamma)[:, 0])
    closed = kernel.norm_sq(kernel.weighted_sum(w, bloch(theta, phi, 0 * gamma))) / 2
    report.record("direct_success", trials, sim - closed, _spec(*direct, angles=angles))
    report.record("p2_reduced", trials, p2_dev, _spec(*ref))
    sim = kernel.norm_sq(kernel.three_qubit(*ref))
    report.record("p3_three_qubit", trials, sim - p3_mu, _spec(*ref))
    for k, (deviation, group) in enumerate(zip(eq8_dev, hybrid)):
        report.record("hybrid_eq8", trials[shape_of == k], deviation, _spec(*group))
    report.record("enhanced_p1", ran, p1 - p1_mu, _spec(*enh))
    report.record("enhanced_p2", ran[g], p2[g] - p2_mu, _spec(*(x[g] for x in enh)))
    deviation = lon_total - (lon_mu + lon_perp_mu)
    report.record("enhanced_ptotal_longitudinal", trials, deviation, _spec(*lon))
    deviation = anti_total - kernel.norm_sq(kernel.target(*anti)) / 2.0
    report.record("enhanced_ptotal_antipodal", trials, deviation, _spec(*anti))


def verify_probability_formulas(trials: int, seed: int) -> VerifyReport:
    """Check every simulated probability against its closed form.

    The trials run in batches of VERIFY_CHUNK through the kernel that the
    scalar pipelines view; a failure names its trial and the replay context.
    """
    if trials < 1:
        raise ArgumentError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ArgumentError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    report = VerifyReport(trials=trials, seed=seed)
    for start in range(0, trials, VERIFY_CHUNK):
        _verify_chunk(rng, np.arange(start, min(trials, start + VERIFY_CHUNK)), report)
    return report
