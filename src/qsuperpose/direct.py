"""Gate-level two-qubit superposition protocol.

Pipeline: encode the pair on an ancilla-system register, cancel the
declared overall phases with an ancilla z-rotation, apply a Hadamard on
the ancilla and post-select outcome |0>. The surviving branch is
proportional to a|psi1> + b|psi2>; outcome |1> carries the difference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernel
from .errors import ArgumentError
from .linalg import (
    ATOL,
    QubitParams,
    StateVector,
    bloch,
    fidelity,
    overlap_decompose,  # noqa: F401  (bound here for the benchmark's tracer tests)
    pure_density,
)


@dataclass(frozen=True)
class SuperpositionSpec:
    """A full problem instance: weights, inputs with assumed phases, reference."""

    weight_a: complex
    weight_b: complex
    psi1: QubitParams
    psi2: QubitParams
    chi: QubitParams = QubitParams(0.0, 0.0, 0.0)
    # The spec as a validated T = 1 kernel batch: weights, states, declared phases.
    batch: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        angles = np.array([[p.theta, p.phi, p.gamma] for p in (self.psi1, self.psi2)])
        weights = np.array([[self.weight_a, self.weight_b]], dtype=complex)
        batch = (weights, bloch(*angles.T)[None], angles[None, :, 2])
        chi = bloch(self.chi.theta, self.chi.phi, self.chi.gamma)
        # Raises ZeroOverlapError when a prior overlap with chi vanishes.
        kernel.validate(*batch[:2], chi[None])
        object.__setattr__(self, "batch", batch)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Final state plus the probability bookkeeping of one protocol run."""

    final_state: StateVector
    branch_unnormalized: StateVector
    success_prob: float
    norm_sq: float
    target_state: StateVector
    fidelity_to_target: float
    difference_branch: Optional[StateVector] = None

    def __post_init__(self):
        if abs(self.success_prob - self.branch_unnormalized.norm_sq) > ATOL:
            raise ArgumentError("success_prob must equal the projected branch norm")
        if not -ATOL <= self.fidelity_to_target <= 1.0 + ATOL:
            raise ArgumentError("fidelity out of range")

    @staticmethod
    def of(
        branch: np.ndarray, target: np.ndarray, difference: Optional[np.ndarray] = None
    ) -> "ProtocolResult":
        """From a post-selected branch, its unnormalized target and, optionally,
        the difference branch (dropped when its norm is below the floor)."""
        d = branch.size
        branch_sv, target_sv = StateVector((d,), branch), StateVector((d,), target)
        final, goal = branch_sv.normalize(), target_sv.normalize()
        diff = None
        if difference is not None and kernel.branch_survives(difference):
            diff = StateVector((d,), difference).normalize()
        return ProtocolResult(
            final_state=final,
            branch_unnormalized=branch_sv,
            success_prob=branch_sv.norm_sq,
            norm_sq=target_sv.norm_sq,
            target_state=goal,
            fidelity_to_target=fidelity(pure_density(final), pure_density(goal)),
            difference_branch=diff,
        )

    def to_json(self) -> dict:
        return {
            "final_state": self.final_state.to_json(),
            "success_prob": self.success_prob,
            "norm_sq": self.norm_sq,
            "fidelity": self.fidelity_to_target,
        }


def _require_two_qubit(state: StateVector) -> None:
    if state.dims != (2, 2):
        raise ArgumentError(f"expected a two-qubit state, got dims {state.dims}")


def encode_two_qubit(spec: SuperpositionSpec) -> StateVector:
    """a |0>(e^{i gamma1} psi1) + b |1>(e^{i gamma2} psi2)."""
    weights, states, _ = spec.batch
    amps = kernel.encode_branches(weights, states)
    return StateVector((2, 2), amps.reshape(-1), normalized=True)


def phase_gate(state: StateVector, gamma1: float, gamma2: float) -> StateVector:
    """Ancilla z-rotation that turns the branch phases into a global one.

    Multiplies the ancilla-|0> branch by e^{-i theta_z} and the |1>
    branch by e^{+i theta_z}, theta_z = (gamma1 - gamma2)/2.  Acting on
    the encoded state this leaves e^{i(gamma1+gamma2)/2} (a|0>psi1 + b|1>psi2).
    """
    _require_two_qubit(state)
    amps = kernel.phase_gate(state.amps.reshape(1, 2, 2), np.array([[gamma1, gamma2]]))
    return StateVector(state.dims, amps.reshape(-1), normalized=state.normalized)


def ancilla_hadamard(state: StateVector) -> StateVector:
    _require_two_qubit(state)
    m = kernel.fourier_rows(state.amps.reshape(1, 2, 2))
    return StateVector(state.dims, m.reshape(-1), normalized=state.normalized)


def measure_ancilla(state: StateVector, outcome: int) -> tuple[StateVector, float]:
    """Unnormalized system branch for the given ancilla outcome, with its probability."""
    _require_two_qubit(state)
    if outcome not in (0, 1):
        raise ArgumentError(f"ancilla outcome must be 0 or 1, got {outcome}")
    branch = state.amps.reshape(2, 2)[outcome]
    sv = StateVector((2,), branch, normalized=False)
    return sv, sv.norm_sq


def run_direct(spec: SuperpositionSpec) -> ProtocolResult:
    """Encode, phase-correct, Hadamard, post-select ancilla |0>."""
    weights, states, gammas = spec.batch
    rows = kernel.direct(weights, states, gammas)[0]
    theta, phi = np.array([[q.theta, q.phi] for q in (spec.psi1, spec.psi2)]).T
    weighted = kernel.weighted_sum(weights, bloch(theta, phi, 0.0)[None])
    return ProtocolResult.of(rows[0], weighted[0], difference=rows[1])
