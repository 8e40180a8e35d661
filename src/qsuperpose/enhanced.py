"""Enhanced-success-probability protocol using both reference outcomes.

Instead of discarding the |chi^perp> outcome of the reference
measurement, a controlled unitary (U_chi or U_chi_perp on the ancilla,
conditioned on the third qubit) rotates each outcome so that the
ancilla-|0> projection yields a weighted superposition in both sectors.
When the two sector states agree up to a global phase the probabilities
add; two Bloch-sphere geometries guarantee that:

* longitudinal pairs (common azimuth relative to the chi axis): the
  |0>-ancilla, chi^perp sector state equals the chi one, and tracing the
  reference qubit leaves a pure superposed state;
* transverse antipodal pairs (equal polar angle, azimuths pi apart):
  the matching harvest uses the |1>-ancilla, chi^perp sector, whose
  state is again proportional to the desired superposition.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import kernel
from .errors import ArgumentError
from .linalg import (
    ATOL,
    StateVector,
    overlap_decompose,  # noqa: F401  (bound here for the benchmark's tracer tests)
    require_overlaps,
    unit_rows,
    unit_state,
)
from .reference import ReferenceSpec, pair_batch


def chi_perp(chi: StateVector) -> StateVector:
    """Canonical orthogonal companion: alpha|0> + beta|1> -> -beta*|0> + alpha*|1>."""
    return StateVector((2,), kernel.chi_perp(chi.amps[None])[0], normalized=True)


class EnhancedResult(NamedTuple):
    """Both sector states (the chi^perp one None when it vanished), their
    probabilities and total, and the purity of the combined harvest."""

    branch_chi: StateVector
    branch_chi_perp: Optional[StateVector]
    p1: float
    p2: float
    p_total: float
    coherent: bool
    geometry: str
    harvest_purity: float

    def to_json(self) -> dict:
        return {
            "branch_chi": self.branch_chi.to_json(),
            "branch_chi_perp": self.branch_chi_perp and self.branch_chi_perp.to_json(),
            "p1": self.p1,
            "p2": self.p2,
            "p_total": self.p_total,
            "coherent": self.coherent,
            "geometry": self.geometry,
        }


def geometry_classify(psi1: StateVector, psi2: StateVector, chi: StateVector) -> str:
    """longitudinal, transverse_antipodal, or generic relative to the chi axis."""
    if not psi1.dims == psi2.dims == chi.dims == (2,):
        raise ArgumentError("geometry needs three single-qubit states")
    states, chi = np.array([[psi1.amps, psi2.amps]]), chi.amps[None]
    ip, ipp = kernel.overlaps(states, chi), kernel.overlaps(states, kernel.chi_perp(chi))
    require_overlaps(mag := np.abs(ip))
    require_overlaps(magp := np.abs(ipp), "chi_perp")
    return kernel.GEOMETRIES[kernel.geometry(ip, ipp, mag, magp)[0]]


def closed_form_p2(spec: ReferenceSpec) -> float:
    """P(2) as harvested: P3's expression in the chi^perp sector, but ||target||^2 / 2
    - P3 for transverse antipodal pairs (the ancilla-|1> row). P(1): closed_form_p3."""
    weights, states, chi, ip = pair_batch(spec)
    ipp = kernel.overlaps(states, kernel.chi_perp(chi))
    require_overlaps(magp := np.abs(ipp), "chi_perp")
    if kernel.geometry(ip, ipp, np.abs(ip), magp)[0] != kernel.CODE_ANTIPODAL:
        return float(kernel.closed_form_mu(weights, states, ipp)[0])
    p3 = kernel.closed_form_mu(weights, states, ip)[0]
    return float(kernel.norm_sq(kernel.target(weights, states, ip))[0] / 2 - p3)


def run_enhanced(spec: ReferenceSpec) -> EnhancedResult:
    """Controlled-SWAP, sector-controlled U, ancilla-|0> projection, harvest."""
    chip = chi_perp(spec.chi).amps
    batch = pair_batch(spec)
    require_overlaps(np.abs(ipp := kernel.overlaps(batch[1], chip[None])), "chi_perp")
    h = kernel.enhanced(*batch, ipp)
    w_chi, w_perp = h.rows[0, 0], h.rows_perp[0, 0]
    # Combined harvest: project the ancilla onto |0> only, keep system and
    # reference qubits, trace the reference. Pure for longitudinal pairs.
    joint = np.outer(w_chi, spec.chi.amps) + np.outer(w_perp, chip)
    joint = unit_rows(joint.reshape(1, 4))[0]
    rho = np.einsum("ijkj->ik", np.outer(joint, joint.conj()).reshape(2, 2, 2, 2))
    # p1 and p2 are squared norms, and p_total is p1 + p2 or p1 by construction.
    if h.p_total[0] > 1.0 + ATOL:
        raise ArgumentError("total probability exceeds 1")
    return EnhancedResult(
        unit_state(w_chi), unit_state(w_perp) if kernel.branch_survives(w_perp) else None,
        float(h.p1[0]), float(h.p2[0]), float(h.p_total[0]), bool(h.coherent[0]),
        kernel.GEOMETRIES[h.geometry[0]], float(np.einsum("ij,ji->", rho, rho).real),
    )
