"""Reference-state protocols built on the controlled-SWAP cascade.

Every pipeline here takes one ``ReferenceSpec``: weights a_k, n states of
a d-level system and the reference |chi>. Two pair pipelines produce the
same superposed state but with different success probabilities:

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

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .direct import ProtocolResult
from .errors import ArgumentError
from .linalg import (
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
    # The spec as a validated, read-only T = 1 kernel batch: weights, states, chi.
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
        amps = np.array([[s.amps for s in self.states]])
        batch = (np.array([self.weights]), amps, self.chi.amps[None])
        kernel.validate(*batch)
        for arr in batch:
            arr.flags.writeable = False
        object.__setattr__(self, "batch", batch)


def pair_batch(spec: ReferenceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch of a two-state spec; the pair pipelines take no other."""
    if spec.n != 2:
        raise ArgumentError(f"this protocol superposes two states, got n = {spec.n}")
    return spec.batch


def build_initial(spec: ReferenceSpec) -> StateVector:
    """(1/N) sum_k a_k' |k>_n  tensored with Psi_1 ... Psi_n."""
    weights, states, chi = spec.batch
    anc = kernel.primed(weights, kernel.overlap_c(states, chi))
    amps = kernel.encode(anc / np.sqrt(kernel.norm_sq(anc))[:, None], states)[0]
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


def kappa_weighted_sum(spec: ReferenceSpec) -> StateVector:
    """sum_k a_k (prod_{j != k} kappa_j) |Psi_k>, the (unnormalized) protocol
    target; a kappa_2 |psi1> + b kappa_1 |psi2> for a pair."""
    return StateVector((spec.d,), kernel.target(*spec.batch)[0])


def closed_form_p3(spec: ReferenceSpec) -> float:
    """P3 = c1 c2 ||a kappa2 psi1 + b kappa1 psi2||^2 / (c1 + c2)."""
    return float(kernel.closed_form_mu(*pair_batch(spec))[0])


def run_three_qubit(spec: ReferenceSpec) -> ProtocolResult:
    """The prior three-qubit protocol: plain weights plus the mu-projection."""
    batch = pair_batch(spec)
    return ProtocolResult.of(kernel.three_qubit(*batch)[0], kernel.target(*batch)[0])


def run_two_qubit_reduced(spec: ReferenceSpec) -> ProtocolResult:
    """The reduced protocol: primed weights, one chi-projection, Hadamard."""
    batch = pair_batch(spec)
    rows = kernel.fourier_rows(kernel.reduced(*batch))[0]
    return ProtocolResult.of(rows[0], kernel.target(*batch)[0], difference=rows[1])
