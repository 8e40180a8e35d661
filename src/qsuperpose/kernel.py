"""Batched gate-level kernel: the one implementation of every gate-level step.

Arrays carry a leading trial axis T: weights or ancilla amplitudes (T, n),
input states (T, n, d), the reference chi (T, d). The scalar pipelines in
``direct``, ``reference``, ``hybrid`` and ``enhanced`` are T = 1 views of
these functions. ``analysis.verify_probability_formulas`` runs them over all
its trials at once, and stacks the qubit-pair rows of every check that needs a
step into one call of it. That is exact because every step is row-independent:
a row's bits do not depend on the rows beside it. ``enhanced`` stacks its
chi and chi^perp sectors the same way. The steps trust their inputs, and only
read them: ``validate`` returns the read-only batch it checked, with <chi|Psi_k>
as ``ip``. The enhanced harvest takes <chi^perp|Psi_k> as ``ipp``, and
``geometry``, which it calls first, checks it.
F_n, the leave-one-out mask and the cascade's gather index are cached per shape.
Every contraction is a two-operand ``np.einsum``, run by numpy's loops, not BLAS.
"""
from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError
from .linalg import ATOL, norm_sq, require_overlaps

# Dense pipelines build n * d^n amplitudes; cap keeps them desk-sized.
MAX_PIPELINE_DIM = 4096

GEOMETRY_LONGITUDINAL = "longitudinal"
GEOMETRY_TRANSVERSE_ANTIPODAL = "transverse_antipodal"
GEOMETRY_GENERIC = "generic"
GEOMETRY_TOL = 1e-9
# ``geometry`` returns codes: GEOMETRIES[code] is the name.
GEOMETRIES = (GEOMETRY_GENERIC, GEOMETRY_LONGITUDINAL, GEOMETRY_TRANSVERSE_ANTIPODAL)
CODE_LONGITUDINAL, CODE_ANTIPODAL = 1, 2


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only."""
    arr.flags.writeable = False
    return arr


def overlaps(states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """<chi|Psi_k> for every trial and state: (T, n)."""
    return np.einsum("tnd,td->tn", states, chi.conj())


def branch_survives(amps: np.ndarray) -> np.ndarray:
    """False where a branch (last axis) has vanished: norm below ATOL, as unit_rows refuses."""
    return np.sqrt(norm_sq(amps)) >= ATOL


def validate(weights: np.ndarray, states: np.ndarray, chi: np.ndarray, ref="chi") -> tuple:
    """Check a whole batch at once, with the bounds of the scalar API; a zero
    overlap names the reference ``ref``. NaN fails every comparison, so a
    non-finite entry fails its norm check. Returns the checked batch, read-only:
    views of weights, states and chi, and the overlaps <ref|Psi_k> (T, n)."""
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
    require_overlaps(np.abs(ip := overlaps(states, chi)), ref)
    return tuple(_frozen(x.view()) for x in (weights, states, chi, ip))


@cache
def _eye(n: int) -> np.ndarray:
    """The leave-one-out mask: the (n, n) boolean identity."""
    return _frozen(np.eye(n, dtype=bool))


def _leave_one_out(x: np.ndarray) -> np.ndarray:
    """prod_{j != k} x_j for every k: (T, n)."""
    return np.multiply.reduce(np.where(_eye(x.shape[1]), 1.0, x[:, None, :]), axis=2)


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


@cache
def _cascade_index(n: int, d: int) -> np.ndarray:
    """The cascade as a gather index into the n d^n amplitudes."""
    a = np.arange(n * d**n).reshape((n,) + (d,) * n)
    return _frozen(np.concatenate([np.swapaxes(a[k], 0, k).reshape(-1) for k in range(n)]))


def cascade(amps: np.ndarray, n: int, d: int) -> np.ndarray:
    """Swap qudit 1 with qudit k+1 on the ancilla-|k> branch (k >= 1): one
    gather through an index built once per (n, d)."""
    return np.take(amps, _cascade_index(n, d), axis=1)


def project(
    amps: np.ndarray, chi: np.ndarray, n: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project qudits 2..n onto chi: the (T, n, d) block and chi^(n-1); the
    projected state is block (x) chi^(n-1), with the block's norm^2."""
    t = len(chi)
    # Repeated outer products of chi; n = 1 gives the empty product.
    aux = chi if n > 1 else np.ones((t, 1))
    for _ in range(n - 2):
        aux = (aux[:, :, None] * chi[:, None, :]).reshape(t, aux.shape[1] * d)
    block = np.einsum("tij,tj->ti", amps.reshape(t, n * d, d ** (n - 1)), aux.conj())
    return block.reshape(t, n, d), aux


def cascade_block(anc: np.ndarray, states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Encode, controlled-SWAP cascade, chi-projection: the (T, n, d) block."""
    _, n, d = states.shape
    return project(cascade(encode(anc, states), n, d), chi, n, d)[0]


@cache
def fourier(n: int) -> np.ndarray:
    """F[j][k] = f^{jk} / sqrt(n) with f = e^{2 pi i / n}.

    Powers of f at quarter turns are exactly 1, i, -1, -i, so fourier(2)
    is the Hadamard bit for bit. Built once per n, and read-only."""
    if n < 1:
        raise ArgumentError(f"Fourier dimension must be positive, got {n}")
    roots = np.exp(2j * math.pi * np.arange(n) / n)
    for q in range(4):
        if q * n % 4 == 0:
            roots[q * n // 4] = (1, 1j, -1, -1j)[q]
    return _frozen(roots[np.outer(np.arange(n), np.arange(n)) % n] / math.sqrt(n))


def fourier_rows(block: np.ndarray) -> np.ndarray:
    """F_n (the Hadamard at n = 2) on the ancilla: row j is outcome |j>."""
    return np.einsum("jk,tkd->tjd", fourier(block.shape[1]), block)


def encode_branches(anc: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_k anc_k |k>|Psi_k>, the direct scheme's (T, n, d) register."""
    return anc[:, :, None] * states


def phase_gate(block: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Ancilla z-rotation by theta_z = (gamma1 - gamma2)/2: branch |0> gains
    e^{-i theta_z}, |1> e^{+i theta_z}, so the declared phases become global."""
    half = (gammas[:, 0] - gammas[:, 1]) / 2.0
    return block * np.exp(1j * (half[:, None] * [-1.0, 1.0]))[:, :, None]


def direct(weights: np.ndarray, states: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Encode, cancel the declared phases, Hadamard: outcome rows (T, 2, d)."""
    return fourier_rows(phase_gate(encode_branches(weights, states), gammas))


def reduced(weights: np.ndarray, states: np.ndarray, chi: np.ndarray,
            ip: np.ndarray) -> np.ndarray:
    """Primed-weight cascade block (T, n, d) of the reduced and hybrid schemes:
    its norm^2 is the chi-projection probability, its ``fourier_rows`` the
    outcome branches."""
    anc = primed(weights, np.abs(ip) ** 2)
    return cascade_block(anc / np.sqrt(norm_sq(anc))[:, None], states, chi)


def three_qubit(weights: np.ndarray, states: np.ndarray, chi: np.ndarray,
                ip: np.ndarray) -> np.ndarray:
    """The prior scheme's branch (T, d): plain weights, cascade, chi, then the
    ancilla onto mu = sum_k sqrt(c_k)|k> / sqrt(sum c)."""
    c = np.abs(ip) ** 2
    mu = np.sqrt(c) / np.sqrt(np.sum(c, axis=1, keepdims=True))
    return weighted_sum(mu, cascade_block(weights, states, chi))


def chi_perp(chi: np.ndarray) -> np.ndarray:
    """Canonical orthogonal qubit: alpha|0> + beta|1> -> -beta*|0> + alpha*|1>."""
    if chi.shape[1] != 2:
        raise ArgumentError("chi must be a single qubit state")
    return np.concatenate([-chi[:, 1:].conj(), chi[:, :1].conj()], axis=1)


def u_chi(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """(1/N1) [[1/sqrt(c1), 1/sqrt(c2)], [1/sqrt(c2), -1/sqrt(c1)]]: (T, 2, 2)."""
    s1, s2 = 1.0 / np.sqrt(c1), 1.0 / np.sqrt(c2)
    u = np.array([s1, s2, s2, -s1]).T.reshape(-1, 2, 2)
    return u / np.sqrt((c1 + c2) / (c1 * c2))[:, None, None]


def geometry(ip: np.ndarray, ipp: np.ndarray, mag: np.ndarray, magp: np.ndarray) -> np.ndarray:
    """Each qubit pair's geometry relative to the chi axis, from its overlaps
    <chi|Psi_j> (checked), <chi^perp|Psi_j> and their magnitudes: (T,) codes into
    GEOMETRIES. A zero <chi^perp|Psi_j> raises ZeroOverlapError naming chi_perp."""
    require_overlaps(magp, "chi_perp")
    # e^{i phi_j}: azimuth of Psi_j around the chi axis.
    az = ipp / magp * (ip / mag).conj()
    c = mag**2
    longitudinal = np.abs(az[:, 0] - az[:, 1]) <= GEOMETRY_TOL
    antipodal = (np.abs(c[:, 0] - c[:, 1]) <= GEOMETRY_TOL) & (
        np.abs(az[:, 0] + az[:, 1]) <= GEOMETRY_TOL
    )
    return np.where(longitudinal, CODE_LONGITUDINAL, CODE_ANTIPODAL * antipodal)


class Harvest(NamedTuple):
    """Per-trial outcome of the enhanced scheme; rows are (T, 2, d) ancilla rows."""

    rows: np.ndarray
    rows_perp: np.ndarray
    geometry: np.ndarray  # codes into GEOMETRIES
    coherent: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p_total: np.ndarray


def enhanced(weights: np.ndarray, states: np.ndarray, chi: np.ndarray, ip: np.ndarray,
             ipp: np.ndarray) -> Harvest:
    """Cascade, the sector-controlled rotation, and the dual harvest.

    The reference qubit's {chi, chi^perp} sector picks the ancilla rotation
    U_chi(c2, c1) or U_chi_perp(c2', c1'), so that U|0> = (|0>/sqrt(c2) +
    |1>/sqrt(c1))/N. The chi^perp outcome adds to P(1) when both sector
    states agree up to a phase: in the ancilla-|0> row for longitudinal
    pairs, in the ancilla-|1> row for transverse antipodal pairs. Both sectors
    run as one stack of rows, [chi; chi^perp]; ``ipp`` is <chi^perp|Psi_k>.
    """
    t, chip = len(chi), chi_perp(chi)
    mag, magp = np.abs(ip), np.abs(ipp)
    # First, so a zero <chi^perp|Psi_k> raises before u_chi divides by it.
    geom = geometry(ip, ipp, mag, magp)
    c = np.concatenate([mag**2, magp**2])
    block = cascade_block(
        *(np.concatenate([x, x]) for x in (weights, states)), np.concatenate([chi, chip]))
    both = np.einsum("tij,tjd->tid", u_chi(c[:, 1], c[:, 0]), block)
    rows, rows_perp = both[:t], both[t:]
    p1, nsq = norm_sq(rows[:, 0]), norm_sq(rows_perp)
    # Whether each chi^perp row agrees with the chi outcome up to a phase: (T, 2).
    with np.errstate(divide="ignore", invalid="ignore"):
        fid = np.abs(np.sum(rows[:, :1].conj() * rows_perp, axis=2)) / np.sqrt(p1[:, None] * nsq)
    agrees = branch_survives(rows_perp) & (fid >= 1.0 - GEOMETRY_TOL)
    antipodal = (geom == CODE_ANTIPODAL) & agrees[:, 1]
    coherent = antipodal | ((geom == CODE_LONGITUDINAL) & agrees[:, 0])
    p2 = np.where(antipodal, nsq[:, 1], nsq[:, 0])
    p_total = np.where(coherent, p1 + p2, p1)
    return Harvest(rows, rows_perp, geom, coherent, p1, p2, p_total)


# --- Closed forms: functions of the drawn inputs alone ------------------------


def weighted_sum(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_k a_k Psi_k: (T, d)."""
    return np.einsum("tk,tkd->td", weights, states)


def target(weights: np.ndarray, states: np.ndarray, ip: np.ndarray) -> np.ndarray:
    """sum_k a_k (prod_{j != k} kappa_j) Psi_k with kappa_j = ip_j / |ip_j|,
    unnormalized: (T, d)."""
    return weighted_sum(weights * _leave_one_out(ip / np.abs(ip)), states)


def closed_form_fourier(weights: np.ndarray, states: np.ndarray, ip: np.ndarray):
    """Eq. 8, prod(c_j) / sum(|a_j|^2 c_j) * ||target||^2 / n; P2 at n = 2."""
    c = np.abs(ip) ** 2
    weight_term = np.add.reduce(np.abs(weights) ** 2 * c, axis=1)
    nsq = norm_sq(target(weights, states, ip))
    return np.multiply.reduce(c, axis=1) / weight_term * nsq / states.shape[1]


def closed_form_mu(weights: np.ndarray, states: np.ndarray, ip: np.ndarray):
    """P3 = c1 c2 ||target||^2 / (c1 + c2); also the enhanced P(1), and with
    <chi^perp|Psi_k> in place of ip the enhanced P(2)."""
    c, nsq = np.abs(ip) ** 2, norm_sq(target(weights, states, ip))
    return np.multiply.reduce(c, axis=1) / np.add.reduce(c, axis=1) * nsq
