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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel
from .errors import ArgumentError
from .kernel import (
    GEOMETRY_GENERIC,
    GEOMETRY_LONGITUDINAL,
    GEOMETRY_TRANSVERSE_ANTIPODAL,
)
from .linalg import (
    ATOL,
    DensityMatrix,
    StateVector,
    overlap_decompose,  # noqa: F401  (bound here for the benchmark's tracer tests)
    partial_trace,
    require_overlaps,
)
from .reference import ReferenceSpec, pair_batch


def chi_perp(chi: StateVector) -> StateVector:
    """Canonical orthogonal companion: alpha|0> + beta|1> -> -beta*|0> + alpha*|1>."""
    if chi.dims != (2,):
        raise ArgumentError("chi must be a single qubit state")
    return StateVector((2,), kernel.chi_perp(chi.amps[None])[0], normalized=True)


@dataclass(frozen=True, eq=False)
class EnhancedResult:
    """Both sector states, their probabilities, and the combined harvest."""

    branch_chi: StateVector
    branch_chi_perp: Optional[StateVector]
    p1: float
    p2: float
    p_total: float
    coherent: bool
    geometry: str
    harvest_state: DensityMatrix
    harvest_purity: float

    def __post_init__(self):
        # p1 and p2 are squared norms, and p_total is p1 + p2 or p1 by construction.
        if self.p_total > 1.0 + ATOL:
            raise ArgumentError("total probability exceeds 1")

    def to_json(self) -> dict:
        return {
            "branch_chi": self.branch_chi.to_json(),
            "branch_chi_perp": (
                self.branch_chi_perp.to_json() if self.branch_chi_perp else None
            ),
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
    return str(kernel.geometry(np.array([[psi1.amps, psi2.amps]]), chi.amps[None])[0])


def closed_form_p2(spec: ReferenceSpec) -> float:
    """P(2): P3's expression in the chi^perp sector. P(1) is ``closed_form_p3``."""
    weights, states, _ = pair_batch(spec)
    chip = chi_perp(spec.chi).amps[None]
    require_overlaps(np.abs(kernel.overlaps(states, chip)), "chi_perp")
    return float(kernel.closed_form_mu(weights, states, chip)[0])


def run_enhanced(spec: ReferenceSpec) -> EnhancedResult:
    """Controlled-SWAP, sector-controlled U, ancilla-|0> projection, harvest."""
    chip = chi_perp(spec.chi)
    h = kernel.enhanced(*pair_batch(spec))
    w_chi, w_perp = h.rows[0, 0], h.rows_perp[0, 0]
    branch_chi = StateVector((2,), w_chi).normalize()
    perp = StateVector((2,), w_perp)
    branch_chi_perp = perp.normalize() if kernel.branch_survives(w_perp) else None

    # Combined harvest: project the ancilla onto |0> only, keep system and
    # reference qubits, trace the reference. Pure for longitudinal pairs.
    joint = np.outer(w_chi, spec.chi.amps) + np.outer(w_perp, chip.amps)
    joint = StateVector((2, 2), joint.reshape(-1)).normalize()
    harvest = partial_trace(
        DensityMatrix((2, 2), np.outer(joint.amps, joint.amps.conj())), [0]
    )
    return EnhancedResult(
        branch_chi=branch_chi,
        branch_chi_perp=branch_chi_perp,
        p1=float(h.p1[0]),
        p2=float(h.p2[0]),
        p_total=float(h.p_total[0]),
        coherent=bool(h.coherent[0]),
        geometry=str(h.geometry[0]),
        harvest_state=harvest,
        harvest_purity=harvest.purity(),
    )
