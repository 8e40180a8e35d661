"""Reference-state protocols built on the controlled-SWAP cascade.

Two pipelines produce the same superposed state but with different
success probabilities:

* ``run_three_qubit``: the prior three-qubit scheme — plain weights on
  the ancilla, controlled-SWAP, projection of the auxiliary onto the
  reference |chi>, then projection of the ancilla onto
  mu = (sqrt(c1)|0> + sqrt(c2)|1>)/sqrt(c1+c2).
* ``run_two_qubit_reduced``: the reduced scheme — primed weights absorb
  the overlap magnitudes into the ancilla preparation, a single
  chi-projection supplies the kappa phases, and a Hadamard plus
  ancilla-|0> projection harvests the sum branch.

Intermediate states stay unnormalized so projection probabilities
accumulate multiplicatively without renormalization error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernel
from .direct import ProtocolResult
from .errors import ArgumentError, ZeroOverlapError
from .linalg import (
    EPS_OVERLAP,
    OverlapInfo,
    StateVector,
    overlap_decompose,  # noqa: F401  (bound here for the benchmark's tracer tests)
)


@dataclass(frozen=True, eq=False)
class ReferenceSpec:
    """n states of a d-level system, weights, and the referential state."""

    n: int
    d: int
    weights: tuple[complex, ...]
    states: tuple[StateVector, ...]
    chi: StateVector
    primed_weights: tuple[complex, ...] = field(init=False)
    norm_N: float = field(init=False)
    # The spec as a T = 1 kernel batch: weights, states, chi.
    batch: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(complex(w) for w in self.weights))
        object.__setattr__(self, "states", tuple(self.states))
        if self.n < 1 or self.d < 1:
            raise ArgumentError("n and d must be positive")
        if len(self.weights) != self.n or len(self.states) != self.n:
            raise ArgumentError("need exactly n weights and n states")
        if any(s.dims != (self.d,) for s in self.states) or self.chi.dims != (self.d,):
            raise ArgumentError(f"all states must be single {self.d}-level systems")
        batch = kernel.one(self.weights, self.states, self.chi)
        primed = kernel.primed(batch[0], kernel.overlap_c(*batch[1:]))[0]
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "primed_weights", tuple(complex(p) for p in primed))
        object.__setattr__(self, "norm_N", math.sqrt(kernel.norm_sq(primed)))


def primed_weights(
    weights: Sequence[complex], overlaps: Sequence[OverlapInfo]
) -> tuple[list[complex], float]:
    """a_k' = a_k / sqrt(prod_{j != k} c_j) and N = sqrt(sum |a_k'|^2)."""
    cs = np.array([[o.c for o in overlaps]])
    if np.any(cs < EPS_OVERLAP):
        raise ZeroOverlapError("an overlap magnitude is below the zero threshold")
    if len(weights) != cs.shape[1]:
        raise ArgumentError("need one overlap per weight")
    primed = kernel.primed(np.array([weights], dtype=complex), cs)[0]
    return [complex(p) for p in primed], math.sqrt(kernel.norm_sq(primed))


def build_initial(spec: ReferenceSpec) -> StateVector:
    """(1/N) sum_k a_k' |k>_n  tensored with Psi_1 ... Psi_n."""
    anc = np.array([spec.primed_weights]) / spec.norm_N
    amps = kernel.encode(anc, spec.batch[1])[0]
    return StateVector((spec.n,) + (spec.d,) * spec.n, amps, normalized=True)


def _require_cascade_dims(state: StateVector, n: int, d: int) -> None:
    if state.dims != (n,) + (d,) * n:
        raise ArgumentError(
            f"expected dims {(n,) + (d,) * n} for the cascade, got {state.dims}"
        )


def controlled_swap_cascade(state: StateVector, n: int, d: int) -> StateVector:
    """Swap qudit 1 with qudit k+1 on the ancilla-|k> branch (k >= 1)."""
    _require_cascade_dims(state, n, d)
    amps = kernel.cascade(state.amps[None], n, d)[0]
    return StateVector(state.dims, amps, normalized=state.normalized)


def project_onto_reference(
    state: StateVector, chi: StateVector, n: int, d: int
) -> tuple[StateVector, float]:
    """Apply I_n x I_d x |chi><chi|^(n-1); returns the projected state and its norm^2."""
    _require_cascade_dims(state, n, d)
    if chi.dims != (d,):
        raise ArgumentError(f"reference state must have dimension {d}")
    block, aux = kernel.project(state.amps[None], chi.amps[None], n, d)
    out = block[0, :, :, None] * aux[0]
    projected = StateVector(state.dims, out.reshape(-1), normalized=False)
    return projected, projected.norm_sq


def kappa_weighted_sum(
    a: complex, b: complex, psi1: StateVector, psi2: StateVector, chi: StateVector
) -> StateVector:
    """a kappa_2 |psi1> + b kappa_1 |psi2>, the (unnormalized) protocol target."""
    target = kernel.target(*kernel.one((a, b), (psi1, psi2), chi))
    return StateVector(psi1.dims, target[0])


def closed_form_p3(
    a: complex, b: complex, psi1: StateVector, psi2: StateVector, chi: StateVector
) -> float:
    """P3 = c1 c2 ||a kappa2 psi1 + b kappa1 psi2||^2 / (c1 + c2)."""
    return float(kernel.closed_form_mu(*kernel.one((a, b), (psi1, psi2), chi))[0])


def closed_form_p2(
    a: complex, b: complex, psi1: StateVector, psi2: StateVector, chi: StateVector
) -> float:
    """P2 = c1 c2 ||a kappa2 psi1 + b kappa1 psi2||^2 / (2 (c1 |a|^2 + c2 |b|^2))."""
    return float(kernel.closed_form_fourier(*kernel.one((a, b), (psi1, psi2), chi))[0])


def run_three_qubit(
    a: complex, b: complex, psi1: StateVector, psi2: StateVector, chi: StateVector
) -> ProtocolResult:
    """The prior three-qubit protocol: plain weights plus the mu-projection."""
    batch = kernel.one((a, b), (psi1, psi2), chi)
    return ProtocolResult.of(kernel.three_qubit(*batch)[0], kernel.target(*batch)[0])


def run_two_qubit_reduced(
    a: complex, b: complex, psi1: StateVector, psi2: StateVector, chi: StateVector
) -> ProtocolResult:
    """The reduced protocol: primed weights, one chi-projection, Hadamard."""
    batch = kernel.one((a, b), (psi1, psi2), chi)
    rows = kernel.fourier_rows(kernel.reduced(*batch))[0]
    return ProtocolResult.of(rows[0], kernel.target(*batch)[0], difference=rows[1])
