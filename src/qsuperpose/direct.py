"""Gate-level two-qubit superposition protocol.

Pipeline: encode the pair on an ancilla-system register, cancel the
declared overall phases with an ancilla z-rotation, apply a Hadamard on
the ancilla and post-select outcome |0>. The surviving branch is
proportional to a|psi1> + b|psi2>; outcome |1> carries the difference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import ArgumentError
from .linalg import (
    QubitParams,
    StateVector,
    bloch,
    check_angles,
    clamp_fidelity,
    fidelity_batch,
    norm_sq,
    overlap_decompose,  # noqa: F401  (bound here for the benchmark's tracer tests)
    pure_density_batch,
    unit_rows,
)


# The basis the declared phases refer to: each input must overlap it.
KET0 = np.array([[1.0 + 0j, 0.0]])


class SpecBatch(NamedTuple):
    """T validated, read-only problems as kernel arrays: weights (T, 2), the
    states psi1, psi2 (T, 2, 2) and their Bloch angles (theta, phi, gamma) (T, 2, 3)."""

    weights: np.ndarray
    states: np.ndarray
    angles: np.ndarray


def spec_batch(weights, angles) -> SpecBatch:
    """Validate weights (T, 2) and Bloch angles (T, 2, 3) as T SuperpositionSpecs
    would, in one pass: the QubitParams ranges, and ``kernel.validate`` against |0>
    (ZeroOverlapError when an input is orthogonal to |0>)."""
    weights = np.array(weights, dtype=complex)
    angles = np.array(angles, dtype=float)
    if angles.ndim != 3 or angles.shape[1:] != (2, 3) or weights.shape != angles.shape[:2]:
        raise ArgumentError(
            "expected weights (T, 2) and angles (T, 2, 3), "
            f"got {weights.shape} and {angles.shape}"
        )
    check_angles(angles)
    batch = kernel.validate(weights, bloch(*angles.transpose(2, 0, 1)), KET0, ref="0")
    angles.flags.writeable = False
    return SpecBatch(*batch[:2], angles)


@dataclass(frozen=True)
class SuperpositionSpec:
    """One problem: weights, and inputs with phases declared relative to |0>."""

    weight_a: complex
    weight_b: complex
    psi1: QubitParams
    psi2: QubitParams
    # The spec as a T = 1 SpecBatch.
    batch: SpecBatch = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        angles = [[(q.theta, q.phi, q.gamma) for q in (self.psi1, self.psi2)]]
        batch = spec_batch([[self.weight_a, self.weight_b]], angles)
        object.__setattr__(self, "batch", batch)


def outcomes(branch: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, ...]:
    """Post-selected branches (T, d) and their targets, normalized, and the
    fidelities between them, clamped into [0, 1]. A vanished row, or a fidelity
    more than ATOL outside [0, 1], raises."""
    final, goal = unit_rows(branch), unit_rows(target)
    fid = fidelity_batch(pure_density_batch(final), pure_density_batch(goal))
    return final, goal, clamp_fidelity(fid)


class ProtocolResult(NamedTuple):
    """The post-selected state of one protocol run, its success probability (the
    branch's norm^2), its target's norm^2, and its fidelity to the target."""

    final_state: StateVector
    success_prob: float
    norm_sq: float
    fidelity_to_target: float

    @staticmethod
    def of(branch: np.ndarray, target: np.ndarray) -> "ProtocolResult":
        """From a post-selected branch (d,) and its unnormalized target."""
        final, _, fid = outcomes(branch[None], target[None])
        return ProtocolResult(
            StateVector(branch.shape, final[0], normalized=True),
            float(norm_sq(branch)),
            float(norm_sq(target)),
            float(fid[0]),
        )

    def to_json(self) -> dict:
        return {
            "final_state": self.final_state.to_json(),
            "success_prob": self.success_prob,
            "norm_sq": self.norm_sq,
            "fidelity": self.fidelity_to_target,
        }


def encode_two_qubit(spec: SuperpositionSpec) -> StateVector:
    """a |0>(e^{i gamma1} psi1) + b |1>(e^{i gamma2} psi2)."""
    weights, states = spec.batch[:2]
    amps = kernel.encode_branches(weights, states)
    return StateVector((2, 2), amps.reshape(-1), normalized=True)


def run_direct_batch(batch: SpecBatch) -> tuple[np.ndarray, np.ndarray]:
    """A spec batch through the kernel: the outcome rows (T, 2, 2) of encode,
    phase correction and Hadamard, and the targets a psi1 + b psi2 (T, 2)."""
    theta, phi, gamma = batch.angles.transpose(2, 0, 1)
    rows = kernel.direct(batch.weights, batch.states, gamma)
    return rows, kernel.weighted_sum(batch.weights, bloch(theta, phi, 0.0))


def run_direct(spec: SuperpositionSpec) -> ProtocolResult:
    """Encode, phase-correct, Hadamard, post-select ancilla |0>."""
    rows, targets = run_direct_batch(spec.batch)
    return ProtocolResult.of(rows[0, 0], targets[0])
