"""Hybrid qunit-qudit protocol: superpose n pure qudit states.

The encoded qunit-qudit state (kappa phases supplied by the reference
projections) is Fourier-transformed on the ancilla; outcome |0>_n
carries the desired superposition. For n = 2 the Fourier gate is the
Hadamard and the pipeline is the reduced two-qubit scheme: ``run_hybrid``
reads the outcome row ``reference.run_two_qubit_reduced`` reads, so it gives
that scheme's success probability and final state bit for bit and refuses,
with the same message, the same inputs: those whose raw outcome-0 row has a
norm below ATOL, unit_rows' floor. From n = 3 on that raw row shrinks as the
(n-1)th power of the overlaps <chi|psi_k>, with no loss of relative accuracy,
so the vanishing test and the final state read the outcome-0 row of the
normalized encoded state instead.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import kernel
from .errors import ArgumentError
from .kernel import fourier  # noqa: F401  (bound here for the benchmark's tracer)
from .linalg import StateVector, norm_sq, unit_state
from .reference import ReferenceSpec


class HybridResult(NamedTuple):
    """Encoded state, all Fourier branches, and the post-selected outcome."""

    encoded_state: StateVector
    branches: tuple[StateVector, ...]
    success_prob: float
    final_state: StateVector
    target_state: StateVector


def closed_form_hybrid(spec: ReferenceSpec) -> float:
    """Success probability prod(c_j) / sum(|a_j|^2 c_j) * ||target||^2 / n."""
    weights, states, _, ip = spec.batch
    return float(kernel.closed_form_fourier(weights, states, ip)[0])


def run_hybrid(spec: ReferenceSpec) -> HybridResult:
    """Encode, Fourier the qunit, post-select outcome |0>_n."""
    if spec.n < 2:
        raise ArgumentError("the hybrid protocol needs at least two states")
    # The chi-projected block is the sub-normalized encoded qunit-qudit
    # state; its norm^2 is the reference-projection probability. The success
    # probability is read from the raw outcome-0 row, as verify reads it.
    weights, states, _, ip = spec.batch
    block = kernel.reduced(*spec.batch)[0]
    p_ref = float(norm_sq(block.reshape(-1)))
    raw = kernel.fourier_rows(block[None])[0]
    rows = raw / math.sqrt(p_ref)
    # At n = 2 this is run_two_qubit_reduced's circuit: normalize the row it
    # reads, refusing it below the same floor. From n = 3 on p_ref falls as the
    # (n-1)th power of the overlaps, so a valid raw row can lie below the
    # floor: use the rescaled one.
    out = raw[0] if spec.n == 2 else rows[0]
    return HybridResult(
        encoded_state=unit_state(block),
        branches=tuple(StateVector((spec.d,), row) for row in rows),
        success_prob=float(norm_sq(raw[0])),
        final_state=unit_state(out),
        target_state=unit_state(kernel.target(weights, states, ip)[0]),
    )
