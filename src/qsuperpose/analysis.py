"""Closed-form probability analysis, sweeps, and the verification harness.

Everything here is deterministic: sweeps follow grid order, the
verification harness derives every random draw from its seed, and CSV
output uses a fixed 9-significant-digit format so repeated runs are
bit-identical. A verification chunk draws every unit vector in one normal
call (2-vectors, then 3-vectors), every angle in one uniform call, then
redraws the d = 2, then the d = 3, states below OVERLAP_FLOOR in row order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import kernel, nmr
from .datasets import TABLE1
from .direct import KET0, SpecBatch, run_direct_batch, spec_batch
from .errors import ArgumentError
from .linalg import (StateVector, bloch, clamp_fidelity, fidelity_batch, pure_density_batch,
                     require_overlaps, unit_rows)

TIE_TOL = 1e-12

REGIME_TWO_QUBIT = "two_qubit_wins"
REGIME_TIE = "tie"
REGIME_THREE_QUBIT = "three_qubit_wins"


def fmt9(x: float) -> str:
    """9-significant-digit decimal format used by every CSV emitter."""
    return format(float(x), ".9g")


def success_ratio(r_c, b_sq):
    """r_p = P2 / P3 = (r_c + 1) / (2 (1 + b_sq (r_c - 1))), elementwise: the reduced scheme's
    success over the prior three-qubit scheme's, where r_c = c2 / c1 with c_k = |<chi|psi_k>|^2
    and b_sq = |b|^2, b the weight of psi2. The first point in row-major order that breaks
    0 < r_c < inf, then 0 < b_sq < 1, raises naming its value."""
    r_c, b_sq = np.broadcast_arrays(np.asarray(r_c, dtype=float), np.asarray(b_sq, dtype=float))
    good_r_c = (0.0 < r_c) & (r_c < math.inf)
    if (bad := ~(good_r_c & (0.0 < b_sq) & (b_sq < 1.0))).any():
        i = np.argmax(bad)
        if not good_r_c.flat[i]:
            raise ArgumentError(f"r_c must be positive and finite, got {float(r_c.flat[i])}")
        raise ArgumentError(f"b_sq must lie in (0, 1), got {float(b_sq.flat[i])}")
    # Halve the numerator (exact) rather than double the denominator (may overflow).
    return (r_c + 1.0) / 2.0 / (1.0 + b_sq * (r_c - 1.0))


def sweep_rp(r_c_values, b_sq_values):
    """r_p over the grid as flat row-major (r_c outer) columns: r_c, b_sq, r_p, regime."""
    r_c, b_sq = (x.ravel() for x in np.meshgrid(r_c_values, b_sq_values, indexing="ij"))
    r_p = success_ratio(r_c, b_sq)
    regime = np.select([np.abs(r_p - 1.0) <= TIE_TOL, r_p > 1.0],
                       [REGIME_TIE, REGIME_TWO_QUBIT], REGIME_THREE_QUBIT)
    return r_c, b_sq, r_p, regime


def sweep_csv(columns) -> str:
    """The (r_c, b_sq, r_p, regime) columns of ``sweep_rp`` as CSV."""
    rows = zip(*(column.tolist() for column in columns))
    lines = [f"{fmt9(x)},{fmt9(y)},{fmt9(z)},{g}" for x, y, z, g in rows]
    return "\n".join(["r_c,b_sq,r_p,regime", *lines]) + "\n"


class Table1Row(NamedTuple):
    """Simulation results for one dataset; its inputs are TABLE1[dataset_id - 1]."""

    dataset_id: int
    sim_fidelity_gate: Optional[float]
    sim_fidelity_pulse: Optional[float]
    success_prob: float


def reproduce_table1(mode: str) -> list[Table1Row]:
    """Run the gate and/or pulse pipeline over all eleven datasets at once: one
    validated spec batch through the kernel and one compiled pulse program, and
    one fidelity pass over the gate's final states and the pulse's (iv) blocks."""
    if mode not in ("gate", "pulse", "both"):
        raise ArgumentError(f"mode must be gate, pulse or both, got {mode!r}")
    t = len(TABLE1)
    batch = spec_batch([ds.weights() for ds in TABLE1], [ds.angles() for ds in TABLE1])
    rows, targets = run_direct_batch(batch)
    success = kernel.norm_sq(rows[:, 0])
    pure = pure_density_batch(unit_rows(np.concatenate([rows[:, 0], targets])))
    states, goal = pure[:t], pure[t:]
    if mode != "gate":
        program = nmr.compile_sequence(batch, nmr.SpinSystem())
        blocks, norms = nmr.partial_tomography(nmr.run_sequence(program, "iv"))
        states, goal = np.concatenate([states, blocks]), np.concatenate([goal, goal])
    fid = fidelity_batch(states, goal)
    gate_fid = clamp_fidelity(fid[:t]).tolist()
    pulse_fid = [None] * t if mode == "gate" else fid[t:].tolist()
    if mode == "pulse":
        gate_fid, success = [None] * t, norms
    return [
        Table1Row(ds.dataset_id, gate, pulse, p)
        for ds, gate, pulse, p in zip(TABLE1, gate_fid, pulse_fid, success.tolist())
    ]


def table1_csv(rows: Iterable[Table1Row]) -> str:
    """Each row's dataset inputs and its results as CSV; a result not run is empty."""
    lines = [
        "dataset,theta1,phi1,theta2,phi2,weight_ratio,gamma2,reported_fidelity,"
        "sim_fidelity_gate,sim_fidelity_pulse,success_prob"
    ]
    for r in rows:
        ds = TABLE1[r.dataset_id - 1]
        values = (ds.psi1.theta, ds.psi1.phi, ds.psi2.theta, ds.psi2.phi, ds.weight_ratio,
                  ds.psi2.gamma, ds.reported_fidelity, r.sim_fidelity_gate, r.sim_fidelity_pulse,
                  r.success_prob)
        cells = ["" if x is None else fmt9(x) for x in values]
        lines.append(",".join([str(r.dataset_id), *cells]))
    return "\n".join(lines) + "\n"


# --- Randomized formula verification --------------------------------------

FORMULA_TOL = 1e-9
# Drawn states keep |<chi|psi>| at least this far from the zero-overlap case.
OVERLAP_FLOOR = 0.05
# Trials per kernel batch: the working set stays fixed however many trials run.
VERIFY_CHUNK = 1024

_HYBRID_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3))
# uniform(low, high) is low + (high - low) * random(), bit for bit: the direct
# angles on [0, pi) x [0, 2 pi)^2, the pair polar angles on [0.2, pi/2 - 0.2).
_ANGLE_HIGH = np.array([math.pi, 2 * math.pi, 2 * math.pi])
_POLAR_LOW, _POLAR_SPAN = 0.2, (math.pi / 2 - 0.2) - 0.2


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

    def record_all(self, checks):
        """Fold (name, trials, deviation, spec) checks into the report in order,
        in one pass over their stacked |deviation|; ``spec(i)`` runs for failed
        rows only."""
        checks = [check for check in checks if len(check[1])]
        if not checks:
            return
        starts = np.cumsum([0] + [len(check[1]) for check in checks[:-1]])
        deviation = np.abs(np.concatenate([check[2] for check in checks]))
        # maximum.reduceat gives NaN where a check has a NaN row: count it as
        # +inf, so it cannot hide a finite deviation.
        for (name, *_), worst in zip(checks, np.maximum.reduceat(deviation, starts).tolist()):
            worst = math.inf if math.isnan(worst) else worst
            self.max_deviation[name] = max(self.max_deviation.get(name, 0.0), worst)
        failed = np.flatnonzero(~(deviation <= FORMULA_TOL))
        for i, k in zip(failed, np.searchsorted(starts, failed, "right") - 1):
            name, trials, _, spec = checks[k]
            row = i - starts[k]
            self.failures.append({"check": name, "trial": int(trials[row]),
                                  "deviation": float(deviation[i]), "spec": spec(row)})

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "max_deviation": dict(sorted(self.max_deviation.items())),
            "failures": self.failures,
        }


def _unit_block(rng: np.random.Generator, *groups: tuple[int, ...]) -> list[list[np.ndarray]]:
    """Unit vectors from one normal draw: per (d, rows...) group in turn, one
    (rows, d) array per row count. Each amplitude takes two consecutive values,
    its real then its imaginary part."""
    sizes = [d * sum(rows) for d, *rows in groups]
    z = rng.normal(size=2 * sum(sizes)).view(complex)
    amps = [block.reshape(-1, d) for (d, *_), block in zip(groups, _cut(z, *sizes))]
    # np.linalg.norm's formula, bit for bit.
    return [_cut(v / np.sqrt(np.add.reduce((v.conj() * v).real, 1, keepdims=True)), *rows)
            for v, (_, *rows) in zip(amps, groups)]


def _spec(weights: np.ndarray, states: np.ndarray, chi: np.ndarray, **extra):
    """Replay context of row i: the fields of a ReferenceSpec (plus extras)."""
    return lambda i: {
        "weights": [[float(z.real), float(z.imag)] for z in weights[i]],
        "states": [StateVector(s.shape, s).to_json() for s in states[i]],
        "chi": StateVector(chi[i].shape, chi[i]).to_json(),
        **{key: value[i].tolist() for key, value in extra.items()},
    }


def _cut(a: np.ndarray, *sizes: int) -> list[np.ndarray]:
    """Consecutive slices of a, of the given lengths."""
    return [a[end - n : end] for n, end in zip(sizes, accumulate(sizes))]


def _eq8_deviation(weights: np.ndarray, states: np.ndarray, chi: np.ndarray, ip: np.ndarray):
    """Fourier post-selection probability, and its deviation from the closed form,
    Eq. 8; ``ip`` is <chi|Psi_k>."""
    sim = kernel.norm_sq(kernel.fourier_rows(kernel.reduced(weights, states, chi, ip))[:, 0])
    return sim, sim - kernel.closed_form_fourier(weights, states, ip)


def _verify_chunk(rng: np.random.Generator, trials: np.ndarray, report: VerifyReport):
    """Draw every input of one batch of trials (the stream of the module
    docstring), run each kernel step once over all the qubit-pair rows that
    need it, then record the checks in order."""
    t, n_shapes = len(trials), len(_HYBRID_SHAPES)
    # Hybrid protocol: trial i on shape i mod 4.
    hyb_trials = [trials[(k - trials[0]) % n_shapes :: n_shapes] for k in range(n_shapes)]
    r0, r1, r2, r3 = map(len, hyb_trials)
    # Unit vectors, 2-vectors then 3-vectors. Weights: w, lon | anti, then the
    # hybrid shapes in order; chi: ref and enh, the hybrid shapes, lon | anti; the
    # states held to the floor: ref, hybrid (2, 2), (3, 2), enh; (2, 3), (3, 3).
    (w, w_la, w0, w2, chis, chi_la, low2), (w1, w3, chis3, low3) = _unit_block(
        rng, (2, t, 2 * t, r0, r2, t + r0 + r1, 2 * t, 4 * t + 2 * r0 + 3 * r1),
        (3, r1, r3, r2 + r3, 2 * r2 + 3 * r3))
    (chi, chi0, chi1), (chi2, chi3) = _cut(chis, t, r0, r1), _cut(chis3, r2, r3)
    # Angles: direct (theta, phi, gamma) per qubit; the polar angles of lon (two
    # per pair) and anti (one per pair); their azimuths, anti's second state pi on.
    u = rng.random(11 * t)
    angles = u[: 6 * t].reshape(t, 2, 3) * _ANGLE_HIGH
    polar = np.empty((2 * t, 2))
    polar[:t], polar[t:] = u[6 * t : 8 * t].reshape(t, 2), u[8 * t : 9 * t, None]
    phi = np.repeat(2 * math.pi * u[9 * t :, None], 2, 1)
    phi[t:, 1] += math.pi
    coords = bloch(2 * (_POLAR_LOW + _POLAR_SPAN * polar), phi, 0.0)[..., None]
    perp = kernel.chi_perp(np.concatenate([chi, chi_la]))
    pairs = coords[:, :, 0] * chi_la[:, None] + coords[:, :, 1] * perp[t:, None]
    # The overlap floor: each floored state against its chi, conjugated.
    conj = (np.repeat(np.concatenate([chis, chi]).conj(), np.repeat([2, 3, 2], [t + r0, r1, t]), 0),
            np.repeat(chis3.conj(), np.repeat([2, 3], [r2, r3]), 0))
    for states, c in zip((low2, low3), conj):
        while len(bad := np.flatnonzero(abs(np.einsum("ij,ij->i", states, c)) < OVERLAP_FLOOR)):
            states[bad] = _unit_block(rng, (states.shape[1], len(bad)))[0][0]
    ref_states, s0, s1, pair = _cut(low2, 2 * t, 2 * r0, 3 * r1, 2 * t)
    hybrid = [(wk, s.reshape(len(c), n, d), c) for (n, d), wk, s, c in zip(
        _HYBRID_SHAPES, (w0, w1, w2, w3), (s0, s1, *_cut(low3, 2 * r2, 3 * r3)),
        (chi0, chi1, chi2, chi3))]
    # Direct protocol: operational probability vs the weighted-sum norm.
    batch = SpecBatch(w, bloch(*angles.transpose(2, 0, 1)), angles)
    direct = (w, batch.states, np.repeat(KET0, t, axis=0))
    # Reference protocols; the enhanced protocol on the trials whose states also
    # overlap chi^perp comfortably, then geometry-specific totals. <chi^perp|Psi_k>
    # is formed once over pair | lon | anti, and checked on the harvested rows.
    ref, pair = (w, ref_states.reshape(t, 2, 2), chi), pair.reshape(t, 2, 2)
    ipp = kernel.overlaps(np.concatenate([pair, pairs]), perp)
    ok = (np.abs(ipp[:t]) >= OVERLAP_FLOOR).all(1)
    enh, ran, m = (w[ok], pair[ok], chi[ok]), trials[ok], int(ok.sum())
    require_overlaps(np.abs(ipp := np.concatenate([ipp[:t][ok], ipp[t:]])), "chi_perp")
    lon, anti = (w_la[:t], pairs[:t], chi_la[:t]), (w_la[t:], pairs[t:], chi_la[t:])

    # One kernel pass per step over the qubit-pair rows, stacked once as
    # direct | hybrid (2, 2) | ref | enh | lon | anti, each step on a slice: mu
    # on ref | enh | lon, then enh | lon with chi^perp. The larger hybrid shapes
    # keep their own passes.
    W, S, C = (np.concatenate(x) for x in zip(direct, hybrid[0], ref, enh, lon, anti))
    r = t + r0
    e, a = r + t, r + 2 * t + m
    # Each <chi|Psi_k> once: validation checks them, the steps read them.
    W, S, C, ip = kernel.validate(W, S, C)
    p2_sim, eq8 = _eq8_deviation(W[t:e], S[t:e], C[t:e], ip[t:e])
    *eq8_dev, p2_dev = _cut(eq8, r - t, t)
    eq8_dev += [_eq8_deviation(*kernel.validate(*group))[1] for group in hybrid[1:]]
    res = kernel.enhanced(W[e:], S[e:], C[e:], ip[e:], ipp)
    p1, p2, g = res.p1[:m], res.p2[:m], res.geometry[:m] != kernel.CODE_ANTIPODAL
    _, lon_total, anti_total = _cut(res.p_total, m, t, t)
    rows = (np.concatenate([X[r:a], X[e:a]]) for X in (W, S))
    mu = kernel.closed_form_mu(*rows, np.concatenate([ip[r:a], ipp[: a - e]]))
    p3_mu, p1_mu, lon_mu, p2_mu, lon_perp_mu = _cut(mu, t, m, t, m, t)

    branches, targets = run_direct_batch(batch)
    sim, closed = kernel.norm_sq(branches[:, 0]), kernel.norm_sq(targets) / 2
    p3 = kernel.norm_sq(kernel.three_qubit(*ref, ip[r:e]))
    c = np.abs(ip[r:e]) ** 2
    ratio = p2_sim[r - t :] / p3 / success_ratio(c[:, 1] / c[:, 0], np.abs(w[:, 1]) ** 2)
    anti_closed = kernel.norm_sq(kernel.target(*anti[:2], ip[a:])) / 2.0
    report.record_all([
        ("direct_success", trials, sim - closed, _spec(*direct, angles=angles)),
        ("p2_reduced", trials, p2_dev, _spec(*ref)),
        ("p3_three_qubit", trials, p3 - p3_mu, _spec(*ref)),
        ("ratio_rp", trials, ratio - 1.0, _spec(*ref)),
        *(("hybrid_eq8", k, dev, _spec(*group))
          for k, dev, group in zip(hyb_trials, eq8_dev, hybrid)),
        ("enhanced_p1", ran, p1 - p1_mu, _spec(*enh)),
        ("enhanced_p2", ran[g], p2[g] - p2_mu[g], _spec(*(x[g] for x in enh))),
        ("enhanced_ptotal_longitudinal", trials, lon_total - (lon_mu + lon_perp_mu),
         _spec(*lon)),
        ("enhanced_ptotal_antipodal", trials, anti_total - anti_closed, _spec(*anti)),
    ])


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
