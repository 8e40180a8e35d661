"""Batched gate-level kernel: the one implementation of every gate-level step.

Arrays carry a leading trial axis T: weights or ancilla amplitudes (T, n),
input states (T, n, d), the reference chi (T, d). The scalar pipelines in
``direct``, ``reference``, ``hybrid`` and ``enhanced`` are T = 1 views of
these functions; ``analysis.verify_probability_formulas`` runs them over all
its trials at once. The steps trust their inputs: ``validate`` (``one`` for
a single instance) checks each batch once before it enters them.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, ZeroOverlapError
from .linalg import ATOL, EPS_OVERLAP

# Dense pipelines build n * d^n amplitudes; cap keeps them desk-sized.
MAX_PIPELINE_DIM = 4096
# Branch norms below this leave a branch undefined.
BRANCH_NORM_FLOOR = 1e-12

GEOMETRY_LONGITUDINAL = "longitudinal"
GEOMETRY_TRANSVERSE_ANTIPODAL = "transverse_antipodal"
GEOMETRY_GENERIC = "generic"
GEOMETRY_TOL = 1e-9

# e^{2 pi i q / 4} for q = 0..3, exact.
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def norm_sq(amps: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis."""
    return np.einsum("...i,...i->...", amps.conj(), amps).real


def overlaps(states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """<chi|Psi_k> for every trial and state: (T, n)."""
    return (states @ chi.conj()[:, :, None])[..., 0]


def overlap_c(states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """c_k = |<chi|Psi_k>|^2: (T, n)."""
    return np.abs(overlaps(states, chi)) ** 2


def validate(weights: np.ndarray, states: np.ndarray, chi: np.ndarray) -> None:
    """Check a whole batch at once, with the bounds of the scalar API.

    NaN fails every comparison, so a non-finite entry fails its norm check.
    """
    _, n, d = states.shape
    if n * d**n > MAX_PIPELINE_DIM:
        raise ArgumentError(
            f"n*d^n = {n * d ** n} exceeds the dense-pipeline cap {MAX_PIPELINE_DIM}"
        )
    unit = norm_sq(np.concatenate([states.reshape(-1, d), chi]))
    if not (np.abs(unit - 1.0) <= ATOL).all():
        raise ArgumentError("input and reference states must be finite and normalized")
    total = norm_sq(weights)
    bad = ~(np.abs(total - 1.0) <= ATOL)
    if bad.any():
        raise ArgumentError(f"weights must have sum |a_k|^2 = 1, got {total[bad][0]}")
    mag = float(np.min(np.abs(overlaps(states, chi)), initial=np.inf))
    if mag < EPS_OVERLAP:
        raise ZeroOverlapError(
            "overlap with the referential state is zero; the protocol requires "
            f"known nonzero overlaps (|<chi|psi>| = {mag:.3e})"
        )


def one(weights, states, chi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A validated T = 1 batch from scalar weights and StateVectors."""
    if len({s.dims for s in (*states, chi)}) != 1 or len(chi.dims) != 1:
        raise ArgumentError("all states must be single systems of one dimension")
    amps = np.array([[s.amps for s in states]])
    batch = (np.array([weights], dtype=complex), amps, chi.amps[None])
    validate(*batch)
    return batch


def _leave_one_out(x: np.ndarray) -> np.ndarray:
    """prod_{j != k} x_j for every k: (T, n)."""
    n = x.shape[1]
    return np.prod(np.where(np.eye(n, dtype=bool), 1.0, x[:, None, :]), axis=2)


def primed(weights: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a_k' = a_k / sqrt(prod_{j != k} c_j), unnormalized."""
    return weights / np.sqrt(_leave_one_out(c))


def encode(anc: np.ndarray, states: np.ndarray) -> np.ndarray:
    """anc (x) Psi_1 (x) ... (x) Psi_n, flattened big-endian: (T, n d^n)."""
    t, n, d = states.shape
    out = anc
    for k in range(n):
        out = (out[:, :, None] * states[:, k, None, :]).reshape(t, out.shape[1] * d)
    return out


def cascade(amps: np.ndarray, n: int, d: int) -> np.ndarray:
    """Swap qudit 1 with qudit k+1 on the ancilla-|k> branch (k >= 1)."""
    a = amps.reshape((len(amps), n) + (d,) * n)
    out = np.empty_like(a)
    for k in range(n):
        out[:, k] = np.swapaxes(a[:, k], 1, k + 1)
    return out.reshape(amps.shape)


def project(
    amps: np.ndarray, chi: np.ndarray, n: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project qudits 2..n onto chi: the (T, n, d) block and chi^(n-1); the
    projected state is block (x) chi^(n-1), with the block's norm^2."""
    t = len(chi)
    aux = encode(np.ones((t, 1)), np.broadcast_to(chi[:, None, :], (t, n - 1, d)))
    block = amps.reshape(t, n * d, d ** (n - 1)) @ aux.conj()[:, :, None]
    return block.reshape(t, n, d), aux


def cascade_block(anc: np.ndarray, states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Encode, controlled-SWAP cascade, chi-projection: the (T, n, d) block."""
    _, n, d = states.shape
    return project(cascade(encode(anc, states), n, d), chi, n, d)[0]


def fourier(n: int) -> np.ndarray:
    """F[j][k] = f^{jk} / sqrt(n) with f = e^{2 pi i / n}.

    Powers of f at quarter turns are exactly 1, i, -1, -i, so fourier(2)
    is the Hadamard bit for bit."""
    if n < 1:
        raise ArgumentError(f"Fourier dimension must be positive, got {n}")
    roots = np.exp(2j * math.pi * np.arange(n) / n)
    for q in range(4):
        if q * n % 4 == 0:
            roots[q * n // 4] = _QUARTER_TURNS[q]
    return roots[np.outer(np.arange(n), np.arange(n)) % n] / math.sqrt(n)


def fourier_rows(block: np.ndarray) -> np.ndarray:
    """F_n (the Hadamard at n = 2) on the ancilla: row j is outcome |j>."""
    return fourier(block.shape[1]) @ block


def encode_branches(anc: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_k anc_k |k>|Psi_k>, the direct scheme's (T, n, d) register."""
    return anc[:, :, None] * states


def phase_gate(block: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Ancilla z-rotation by theta_z = (gamma1 - gamma2)/2: branch |0> gains
    e^{-i theta_z}, |1> e^{+i theta_z}, so the declared phases become global."""
    half = (gammas[:, 0] - gammas[:, 1]) / 2.0
    return block * np.exp(1j * np.stack([-half, half], axis=1))[:, :, None]


def direct(weights: np.ndarray, states: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Encode, cancel the declared phases, Hadamard: outcome rows (T, 2, d)."""
    return fourier_rows(phase_gate(encode_branches(weights, states), gammas))


def reduced(weights: np.ndarray, states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Primed-weight cascade block (T, n, d) of the reduced and hybrid schemes:
    its norm^2 is the chi-projection probability, its ``fourier_rows`` the
    outcome branches."""
    anc = primed(weights, overlap_c(states, chi))
    return cascade_block(anc / np.sqrt(norm_sq(anc))[:, None], states, chi)


def three_qubit(weights: np.ndarray, states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """The prior scheme's branch (T, d): plain weights, cascade, chi, then the
    ancilla onto mu = sum_k sqrt(c_k)|k> / sqrt(sum c)."""
    c = overlap_c(states, chi)
    mu = np.sqrt(c) / np.sqrt(np.sum(c, axis=1, keepdims=True))
    return (mu[:, None, :] @ cascade_block(weights, states, chi))[:, 0]


def chi_perp(chi: np.ndarray) -> np.ndarray:
    """Canonical orthogonal qubit: alpha|0> + beta|1> -> -beta*|0> + alpha*|1>."""
    return np.stack([-chi[:, 1].conj(), chi[:, 0].conj()], axis=1)


def u_chi(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """(1/N1) [[1/sqrt(c1), 1/sqrt(c2)], [1/sqrt(c2), -1/sqrt(c1)]]: (T, 2, 2)."""
    for c, name in ((c1, "c1"), (c2, "c2")):
        if np.any(c < EPS_OVERLAP):
            raise ZeroOverlapError(
                f"{name} = {np.min(c):.3e} is below the zero-overlap threshold"
            )
        if np.any(c > 1.0 + ATOL):
            raise ArgumentError(f"{name} must lie in (0, 1], got {np.max(c)}")
    s1, s2 = 1.0 / np.sqrt(c1), 1.0 / np.sqrt(c2)
    u = np.stack([np.stack([s1, s2], -1), np.stack([s2, -s1], -1)], -2)
    return u / np.sqrt((c1 + c2) / (c1 * c2))[:, None, None]


def geometry(states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Each qubit pair's GEOMETRY_* relative to the chi axis: (T,)."""
    ip, ipp = overlaps(states, chi), overlaps(states, chi_perp(chi))
    zero = np.any((np.abs(ip) < EPS_OVERLAP) | (np.abs(ipp) < EPS_OVERLAP), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # e^{i phi_j}: azimuth of Psi_j around the chi axis.
        az = ipp / np.abs(ipp) * (ip / np.abs(ip)).conj()
    c = np.abs(ip) ** 2
    longitudinal = np.abs(az[:, 0] - az[:, 1]) <= GEOMETRY_TOL
    antipodal = (np.abs(c[:, 0] - c[:, 1]) <= GEOMETRY_TOL) & (
        np.abs(az[:, 0] + az[:, 1]) <= GEOMETRY_TOL
    )
    return np.select(
        [zero, longitudinal, antipodal],
        [GEOMETRY_GENERIC, GEOMETRY_LONGITUDINAL, GEOMETRY_TRANSVERSE_ANTIPODAL],
        GEOMETRY_GENERIC,
    )


class Harvest(NamedTuple):
    """Per-trial outcome of the enhanced scheme; rows are (T, 2, d) ancilla rows."""

    rows: np.ndarray
    rows_perp: np.ndarray
    geometry: np.ndarray
    coherent: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p_total: np.ndarray


def enhanced(weights: np.ndarray, states: np.ndarray, chi: np.ndarray) -> Harvest:
    """Cascade, the sector-controlled rotation, and the dual harvest.

    The reference qubit's {chi, chi^perp} sector picks the ancilla rotation
    U_chi(c2, c1) or U_chi_perp(c2', c1'), so that U|0> = (|0>/sqrt(c2) +
    |1>/sqrt(c1))/N. The chi^perp outcome adds to P(1) when both sector
    states agree up to a phase: in the ancilla-|0> row for longitudinal
    pairs, in the ancilla-|1> row for transverse antipodal pairs.
    """
    chip = chi_perp(chi)
    c, cp = overlap_c(states, chi), overlap_c(states, chip)
    rows = u_chi(c[:, 1], c[:, 0]) @ cascade_block(weights, states, chi)
    rows_perp = u_chi(cp[:, 1], cp[:, 0]) @ cascade_block(weights, states, chip)
    w, p1 = rows[:, 0], norm_sq(rows[:, 0])

    def agrees(v: np.ndarray) -> np.ndarray:
        pv = norm_sq(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            fid = np.abs(np.sum(w.conj() * v, axis=1)) / np.sqrt(p1 * pv)
        return (np.sqrt(pv) >= BRANCH_NORM_FLOOR) & (fid >= 1.0 - GEOMETRY_TOL)

    geom = geometry(states, chi)
    antipodal = (geom == GEOMETRY_TRANSVERSE_ANTIPODAL) & agrees(rows_perp[:, 1])
    coherent = antipodal | ((geom == GEOMETRY_LONGITUDINAL) & agrees(rows_perp[:, 0]))
    p2 = norm_sq(np.where(antipodal[:, None], rows_perp[:, 1], rows_perp[:, 0]))
    p_total = np.where(coherent, p1 + p2, p1)
    return Harvest(rows, rows_perp, geom, coherent, p1, p2, p_total)


# --- Closed forms: functions of the drawn inputs alone ------------------------


def weighted_sum(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_k a_k Psi_k: (T, d)."""
    return (weights[:, None, :] @ states)[:, 0]


def target(weights: np.ndarray, states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """sum_k a_k (prod_{j != k} kappa_j) Psi_k, unnormalized: (T, d)."""
    ip = overlaps(states, chi)
    return weighted_sum(weights * _leave_one_out(ip / np.abs(ip)), states)


def closed_form_fourier(weights: np.ndarray, states: np.ndarray, chi: np.ndarray):
    """Eq. 8, prod(c_j) / sum(|a_j|^2 c_j) * ||target||^2 / n; P2 at n = 2."""
    c = overlap_c(states, chi)
    weight_term = np.sum(np.abs(weights) ** 2 * c, axis=1)
    nsq = norm_sq(target(weights, states, chi))
    return np.prod(c, axis=1) / weight_term * nsq / states.shape[1]


def closed_form_mu(weights: np.ndarray, states: np.ndarray, chi: np.ndarray):
    """P3 = c1 c2 ||target||^2 / (c1 + c2); also the enhanced P(1), and with
    chi^perp in place of chi the enhanced P(2)."""
    c = overlap_c(states, chi)
    nsq = norm_sq(target(weights, states, chi))
    return np.prod(c, axis=1) / np.sum(c, axis=1) * nsq
