"""Exact complex linear algebra for small composite Hilbert spaces.

States and density matrices carry the list of subsystem dimensions
(ancilla first). Flattening is big-endian over ``dims``: the basis ket
|j>_n ⊗ |k>_d sits at flat index ``j*d + k``, which is exactly numpy's
Kronecker-product convention.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, DegenerateInputError, ZeroOverlapError

# Normalization / Hermiticity checks; the dense pipelines hold at most 4096
# amplitudes, so double precision leaves ample headroom.
ATOL = 1e-12
# Eigenvalue floor tolerating roundoff from channel compositions.
PSD_FLOOR = -1e-10
# |<chi|psi>| below this counts as a zero overlap.
EPS_OVERLAP = 1e-9


def zero_overlap(mag: np.ndarray) -> np.ndarray:
    """The zero-overlap rule: True where a magnitude |<ref|psi>| < EPS_OVERLAP."""
    return mag < EPS_OVERLAP


def require_overlaps(mag: np.ndarray, ref: str = "chi") -> None:
    """Raise ZeroOverlapError at the first zero |<ref|psi_k>|, k on the last axis."""
    mag = np.asarray(mag)
    zero = np.argwhere(zero_overlap(mag))
    if len(zero):
        k = zero[0][-1] + 1 if mag.shape[-1] > 1 else ""
        raise ZeroOverlapError(
            f"psi{k} has a zero overlap with the reference {ref}: "
            f"|<{ref}|psi{k}>| = {mag[tuple(zero[0])]:.3e} is below {EPS_OVERLAP:g}; "
            "the protocols require known nonzero overlaps"
        )


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if any(d < 1 for d in out):
        raise ArgumentError(f"subsystem dimensions must be positive, got {out}")
    return out


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.view(float))):
        raise ArgumentError(f"{what} contains NaN or Inf")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a composite Hilbert space."""

    dims: tuple[int, ...]
    amps: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        dims = _as_dims(self.dims)
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        _check_finite(amps, "state amplitudes")
        if amps.size != math.prod(dims):
            raise ArgumentError(
                f"amplitude count {amps.size} does not match dims {dims}"
            )
        if self.normalized and abs(np.vdot(amps, amps).real - 1.0) > ATOL:
            raise ArgumentError("state flagged normalized but has unit-norm defect")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def normalize(self) -> "StateVector":
        return StateVector(self.dims, unit_rows(self.amps[None])[0], normalized=True)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "amps": [[float(a.real), float(a.imag)] for a in self.amps],
        }

    @staticmethod
    def from_json(obj: dict) -> "StateVector":
        try:
            dims = obj["dims"]
            if not isinstance(dims, list) or not all(type(d) is int for d in dims):
                raise ArgumentError(f"dims must be a list of integers, got {dims!r}")
            amps = np.array([complex(re, im) for re, im in obj["amps"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed state JSON: {exc}") from exc
        normed = abs(float(np.vdot(amps, amps).real) - 1.0) <= ATOL
        return StateVector(dims, amps, normalized=normed)


def unit_rows(amps: np.ndarray) -> np.ndarray:
    """Rows (T, d) scaled to unit norm; a (numerically) zero row raises. The
    norms are summed as np.vdot sums them."""
    n = np.sqrt((amps.conj()[:, None, :] @ amps[:, :, None])[:, 0, 0].real)
    if np.any(n < ATOL):
        raise DegenerateInputError("cannot normalize a (numerically) zero state")
    return amps / n[:, None]


def check_densities(mats: np.ndarray) -> np.ndarray:
    """Validate density matrices (T, d, d) at once, with one eigvalsh; return the
    traces. A bad row raises the error a DensityMatrix built from it would."""
    _check_finite(mats, "density matrix entries")
    if np.max(np.abs(mats - mats.conj().swapaxes(-1, -2)), initial=0.0) > ATOL:
        raise ArgumentError("density matrix is not Hermitian within tolerance")
    if np.min(np.linalg.eigvalsh(mats), initial=0.0) < PSD_FLOOR:
        raise ArgumentError("density matrix has a negative eigenvalue")
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    if np.any(tr <= ATOL):
        raise DegenerateInputError("density matrix has (numerically) zero trace")
    if np.any(tr > 1.0 + ATOL):
        raise ArgumentError(f"density matrix trace {tr[tr > 1.0 + ATOL][0]} exceeds 1")
    return tr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix, possibly sub-normalized (block after projection)."""

    dims: tuple[int, ...]
    mat: np.ndarray
    trace: float = field(init=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = np.array(self.mat, dtype=complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ArgumentError(f"matrix shape {mat.shape} does not match dims {dims}")
        tr = float(check_densities(mat[None])[0])
        mat.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "trace", tr)

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "rows": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.mat
            ],
        }


@dataclass(frozen=True)
class QubitParams:
    """Bloch angles plus an overall phase: e^{i gamma}(cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>)."""

    theta: float
    phi: float
    gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ArgumentError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ArgumentError(f"phi must lie in [0, 2pi), got {self.phi}")
        if not 0.0 <= self.gamma < 2.0 * math.pi:
            raise ArgumentError(f"gamma must lie in [0, 2pi), got {self.gamma}")


@dataclass(frozen=True)
class OverlapInfo:
    """Squared overlap magnitude and unit-modulus phase factor of <chi|psi>."""

    c: float
    kappa: complex

    def __post_init__(self):
        if self.c <= 0.0:
            raise ArgumentError("overlap magnitude c must be positive")
        if abs(abs(self.kappa) - 1.0) > ATOL:
            raise ArgumentError("kappa must have unit modulus")


def bloch(theta, phi, gamma) -> np.ndarray:
    """e^{i gamma}(cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>), elementwise: (..., 2)."""
    amps = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], -1)
    return np.exp(1j * gamma)[..., None] * amps


def make_qubit(p: QubitParams) -> StateVector:
    return StateVector((2,), bloch(p.theta, p.phi, p.gamma), normalized=True)


def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise ArgumentError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector((dim,), amps, normalized=True)


def tensor(u: StateVector, v: StateVector) -> StateVector:
    return StateVector(
        u.dims + v.dims,
        np.kron(u.amps, v.amps),
        normalized=u.normalized and v.normalized,
    )


def pure_density_batch(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of each unit row (T, d): (T, d, d)."""
    return psi[:, :, None] * psi.conj()[:, None, :]


def pure_density(state: StateVector) -> DensityMatrix:
    psi = state.amps if state.normalized else state.normalize().amps
    return DensityMatrix(state.dims, pure_density_batch(psi[None])[0])


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix over the subsystems listed in ``keep``."""
    n = len(rho.dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ArgumentError(f"keep indices {keep} invalid for dims {rho.dims}")
    kept = set(keep)
    t = rho.mat.reshape(rho.dims + rho.dims)
    row = list(range(n))
    col = [n + i if i in kept else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row + col, out)
    d = math.prod(rho.dims[i] for i in keep) if keep else 1
    new_dims = tuple(rho.dims[i] for i in keep) if keep else (1,)
    return DensityMatrix(new_dims, reduced.reshape(d, d))


def fidelity_batch(rho_e: np.ndarray, rho_t: np.ndarray) -> np.ndarray:
    """Tr(rho_e rho_t) / sqrt(Tr(rho_e^2) Tr(rho_t^2)) over (T, d, d) stacks."""
    ee, tt, et = (np.trace(a @ b, axis1=1, axis2=2).real for a, b in
                  ((rho_e, rho_e), (rho_t, rho_t), (rho_e, rho_t)))
    return et / np.sqrt(ee * tt)


def fidelity(rho_e: DensityMatrix, rho_t: DensityMatrix) -> float:
    """Tr(rho_e rho_t) / sqrt(Tr(rho_e^2) Tr(rho_t^2))."""
    if rho_e.dims != rho_t.dims:
        raise ArgumentError(f"dimension mismatch: {rho_e.dims} vs {rho_t.dims}")
    if rho_e.trace <= ATOL or rho_t.trace <= ATOL:
        raise DegenerateInputError("fidelity of a zero-trace state is undefined")
    return float(fidelity_batch(rho_e.mat[None], rho_t.mat[None])[0])


def overlap_decompose(psi: StateVector, chi: StateVector) -> OverlapInfo:
    """Split <chi|psi> into squared magnitude c and unit phase kappa."""
    if psi.dims != chi.dims:
        raise ArgumentError(f"dimension mismatch: {psi.dims} vs {chi.dims}")
    ip = complex(np.vdot(chi.amps, psi.amps))
    mag = abs(ip)
    require_overlaps([mag])
    return OverlapInfo(c=mag * mag, kappa=ip / mag)


def phase_equivalent(u: StateVector, v: StateVector, tol: float = 1e-9) -> bool:
    """True iff u and v are the same state up to a global phase."""
    if u.dims != v.dims:
        raise ArgumentError(f"dimension mismatch: {u.dims} vs {v.dims}")
    nu = math.sqrt(u.norm_sq)
    nv = math.sqrt(v.norm_sq)
    if nu < ATOL or nv < ATOL:
        raise DegenerateInputError("phase comparison of a zero state is undefined")
    return abs(np.vdot(u.amps, v.amps)) / (nu * nv) >= 1.0 - tol
