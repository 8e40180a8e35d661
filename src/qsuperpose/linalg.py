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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, DegenerateInputError, ZeroOverlapError

# Normalization / Hermiticity checks, and the one vanished-row floor (norm or trace);
# the dense pipelines hold at most 4096 amplitudes, so double precision has headroom.
ATOL = 1e-12
# Least eigenvalue a density matrix may have: DensityMatrix tests it by eigvalsh,
# nmr.run_sequence proves it by a unitarity certificate.
PSD_FLOOR = -1e-10
# |<chi|psi>| below this counts as a zero overlap.
EPS_OVERLAP = 1e-9
# Exclusive upper bounds of the Bloch angles (theta, phi, gamma): theta <= pi.
_ANGLE_BOUND = np.array([math.nextafter(math.pi, math.inf), 2.0 * math.pi, 2.0 * math.pi])


def require_overlaps(mag: np.ndarray, ref: str = "chi") -> None:
    """The zero-overlap rule: raise ZeroOverlapError at the first magnitude
    |<ref|psi_k>| < EPS_OVERLAP, k on the last axis."""
    mag = np.asarray(mag)
    if (zero := mag < EPS_OVERLAP).any():
        zero = np.argwhere(zero)
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


def require_number(value, what: str):
    """value, if it is an int or a float; a bool (JSON true/false), a str, None or
    an int past the float range is an ArgumentError naming what and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ArgumentError(f"{what} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ArgumentError(f"{what} is too large for a float, got {value!r}") from None
    return value


def norm_sq(amps: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis."""
    return np.einsum("...i,...i->...", amps.conj(), amps).real


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr.view(float)).all():
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
        if self.normalized and abs(norm_sq(amps) - 1.0) > ATOL:
            raise ArgumentError("state flagged normalized but has unit-norm defect")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def norm_sq(self) -> float:
        return float(norm_sq(self.amps))

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
            pairs = [[require_number(v, "an amps entry") for v in p] for p in obj["amps"]]
            amps = np.array([complex(re, im) for re, im in pairs])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed state JSON: {exc}") from exc
        normed = abs(float(norm_sq(amps)) - 1.0) <= ATOL
        return StateVector(dims, amps, normalized=normed)


def result_json(result: NamedTuple) -> dict:
    """A protocol result as JSON: one key per field, in field order. A state is its
    state JSON, a tuple of states a list of them; None and numbers stay as they are."""

    def value(v):
        if isinstance(v, StateVector):
            return v.to_json()
        return [value(x) for x in v] if isinstance(v, tuple) else v

    return {name: value(v) for name, v in zip(result._fields, result)}


def unit_rows(amps: np.ndarray) -> np.ndarray:
    """Rows (T, d) scaled to unit norm; a (numerically) zero row raises."""
    n = np.sqrt(norm_sq(amps))
    if (n < ATOL).any():
        raise DegenerateInputError("cannot normalize a (numerically) zero state")
    return amps / n[:, None]


def unit_state(amps: np.ndarray) -> StateVector:
    """amps scaled to unit norm as ``unit_rows`` scales a row; its shape is the dims."""
    return StateVector(amps.shape, unit_rows(amps.reshape(1, -1))[0], normalized=True)


def check_states(mats: np.ndarray) -> np.ndarray:
    """Check matrices (T, d, d) finite, Hermitian within ATOL, and of traces in
    (ATOL, 1 + ATOL]; return the traces. Positivity is left to the caller: the
    certificate of nmr.run_sequence, or the eigvalsh of a DensityMatrix build."""
    _check_finite(mats, "density matrix entries")
    if np.abs(mats - mats.conj().swapaxes(-1, -2)).max(initial=0.0) > ATOL:
        raise ArgumentError("density matrix is not Hermitian within tolerance")
    tr = mats.trace(axis1=-2, axis2=-1).real
    if (tr <= ATOL).any():
        raise DegenerateInputError("density matrix has (numerically) zero trace")
    if (tr > 1.0 + ATOL).any():
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
        tr = float(check_states(mat[None])[0])
        if np.min(np.linalg.eigvalsh(mat)) < PSD_FLOOR:
            raise ArgumentError("density matrix has a negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "trace", tr)

    def to_json(self) -> dict:
        return density_json(self.dims, self.mat)


def density_json(dims: Sequence[int], mat: np.ndarray) -> dict:
    """The JSON form {"dims", "rows"} of a density matrix, entries as [re, im]."""
    return {"dims": list(dims), "rows": [[[v.real, v.imag] for v in row] for row in mat.tolist()]}


def check_angles(angles: np.ndarray) -> None:
    """Raise at the first Bloch triple (..., 3) = (theta, phi, gamma) outside
    theta in [0, pi], phi and gamma in [0, 2pi); NaN lies outside every range.
    theta is checked over every triple first, then phi, then gamma."""
    inside = (0.0 <= angles) & (angles < _ANGLE_BOUND)
    if not inside.all():
        k = int(np.argmin(inside.reshape(-1, 3).all(axis=0)))
        shown = "[0, pi]" if k == 0 else "[0, 2pi)"
        bad = float(angles[..., k][~inside[..., k]][0])
        raise ArgumentError(f"{('theta', 'phi', 'gamma')[k]} must lie in {shown}, got {bad}")


@dataclass(frozen=True)
class QubitParams:
    """Bloch angles plus an overall phase: e^{i gamma}(cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>)."""

    theta: float
    phi: float
    gamma: float = 0.0

    def __post_init__(self):
        check_angles(np.array([self.theta, self.phi, self.gamma], dtype=float))


class OverlapInfo(NamedTuple):
    """Squared overlap magnitude and unit-modulus phase factor of <chi|psi>."""

    c: float
    kappa: complex


def bloch(theta, phi, gamma) -> np.ndarray:
    """e^{i gamma}(cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>), elementwise: (..., 2)."""
    amps = np.empty(np.shape(theta) + (2,), complex)
    amps[..., 0], amps[..., 1] = np.cos(half := theta / 2), np.exp(1j * phi) * np.sin(half)
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
    psi = state.amps if state.normalized else unit_state(state.amps.reshape(state.dims)).amps
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
    """Tr(rho_e rho_t) / sqrt(Tr(rho_e^2) Tr(rho_t^2)) over (T, d, d) stacks,
    each Tr(AB) the elementwise sum of A_ij B_ji, so no bit depends on the BLAS kernel."""
    ee, tt, et = (np.einsum("tij,tji->t", a, b).real
                  for a, b in ((rho_e, rho_e), (rho_t, rho_t), (rho_e, rho_t)))
    return et / np.sqrt(ee * tt)


def clamp_fidelity(fid: np.ndarray) -> np.ndarray:
    """Fidelities clamped into [0, 1]; one more than ATOL outside it raises."""
    if not ((-ATOL <= fid) & (fid <= 1.0 + ATOL)).all():
        raise ArgumentError("fidelity out of range")
    return fid.clip(0.0, 1.0)


def fidelity(rho_e: DensityMatrix, rho_t: DensityMatrix) -> float:
    """Tr(rho_e rho_t) / sqrt(Tr(rho_e^2) Tr(rho_t^2))."""
    if rho_e.dims != rho_t.dims:
        raise ArgumentError(f"dimension mismatch: {rho_e.dims} vs {rho_t.dims}")
    return float(fidelity_batch(rho_e.mat[None], rho_t.mat[None])[0])


def overlap_decompose(psi: StateVector, chi: StateVector) -> OverlapInfo:
    """Split <chi|psi> into squared magnitude c and unit phase kappa."""
    if psi.dims != chi.dims:
        raise ArgumentError(f"dimension mismatch: {psi.dims} vs {chi.dims}")
    ip = complex(np.einsum("i,i->", chi.amps.conj(), psi.amps))
    mag = abs(ip)
    require_overlaps([mag])
    return OverlapInfo(c=mag * mag, kappa=ip / mag)
