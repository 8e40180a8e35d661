"""Gate-level two-qubit superposition protocol.

Pipeline: encode the pair on an ancilla-system register, cancel the
declared overall phases with an ancilla z-rotation, apply a Hadamard on
the ancilla and post-select outcome |0>. The surviving branch is
proportional to a|psi1> + b|psi2>; outcome |1> carries the difference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kernel
from .errors import ArgumentError
from .linalg import (
    ATOL,
    QubitParams,
    StateVector,
    bloch,
    fidelity_batch,
    overlap_decompose,  # noqa: F401  (bound here for the benchmark's tracer tests)
    pure_density_batch,
    unit_rows,
)


@dataclass(frozen=True)
class SuperpositionSpec:
    """A full problem instance: weights, inputs with assumed phases, reference."""

    weight_a: complex
    weight_b: complex
    psi1: QubitParams
    psi2: QubitParams
    chi: QubitParams = QubitParams(0.0, 0.0, 0.0)
    # The spec as a validated, read-only T = 1 kernel batch: weights, states,
    # declared phases, the states with those phases stripped, chi.
    batch: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qubits = (self.psi1, self.psi2, self.chi)
        angles = [(q.theta, q.phi, q.gamma) for q in qubits]
        angles = np.array(angles + [(q.theta, q.phi, 0.0) for q in qubits[:2]])
        weights = np.array([[self.weight_a, self.weight_b]], dtype=complex)
        # psi1, psi2, chi, then psi1 and psi2 with their phases stripped.
        states = bloch(*angles.T)[None]
        pair, chi = states[:, :2], states[:, 2]
        # Raises ZeroOverlapError when a prior overlap with chi vanishes.
        kernel.validate(weights, pair, chi)
        batch = (weights, pair, angles[None, :2, 2], states[:, 3:], chi)
        for arr in batch:
            arr.flags.writeable = False
        object.__setattr__(self, "batch", batch)


def outcomes(branch: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, ...]:
    """Post-selected branches (T, d) and their targets, normalized, and the
    fidelities between them. A vanished row, or a fidelity outside [0, 1], raises."""
    final, goal = unit_rows(branch), unit_rows(target)
    fid = fidelity_batch(pure_density_batch(final), pure_density_batch(goal))
    if not np.all((-ATOL <= fid) & (fid <= 1.0 + ATOL)):
        raise ArgumentError("fidelity out of range")
    return final, goal, fid


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

    @staticmethod
    def of(
        branch: np.ndarray, target: np.ndarray, difference: Optional[np.ndarray] = None
    ) -> "ProtocolResult":
        """From a post-selected branch, its unnormalized target and, optionally,
        the difference branch (dropped when its norm is below the floor)."""
        d = branch.size
        branch_sv, target_sv = StateVector((d,), branch), StateVector((d,), target)
        final, goal, fid = outcomes(branch[None], target[None])
        diff = None
        if difference is not None and kernel.branch_survives(difference):
            diff = StateVector((d,), difference).normalize()
        return ProtocolResult(
            final_state=StateVector((d,), final[0], normalized=True),
            branch_unnormalized=branch_sv,
            success_prob=branch_sv.norm_sq,
            norm_sq=target_sv.norm_sq,
            target_state=StateVector((d,), goal[0], normalized=True),
            fidelity_to_target=float(fid[0]),
            difference_branch=diff,
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


def run_direct_batch(specs: Sequence[SuperpositionSpec]) -> tuple[np.ndarray, np.ndarray]:
    """Many specs as one kernel batch: the outcome rows (T, 2, 2) of encode,
    phase correction and Hadamard, and the targets a psi1 + b psi2 (T, 2)."""
    # Each spec validated its (read-only) rows when it was built.
    parts = zip(*[spec.batch[:4] for spec in specs])
    weights, states, gammas, stripped = [np.concatenate(p) for p in parts]
    return kernel.direct(weights, states, gammas), kernel.weighted_sum(weights, stripped)


def run_direct(spec: SuperpositionSpec) -> ProtocolResult:
    """Encode, phase-correct, Hadamard, post-select ancilla |0>."""
    rows, targets = run_direct_batch([spec])
    return ProtocolResult.of(rows[0, 0], targets[0], difference=rows[0, 1])
