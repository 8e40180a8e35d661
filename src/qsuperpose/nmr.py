"""Pulse-level simulation of the two-spin superposition sequence.

Two J-coupled spins (ancilla A, system X) evolve under

    H = -Omega_A A_z x I - Omega_X I x X_z + J A_z x X_z

with everything in angular units (hbar = 1). Pulses are hard
(instantaneous, J off while they run) rotations
R_n(theta) = exp(-i theta n.sigma / 2) about an axis in the xy plane;
``axis_phase`` is measured from +x. z-rotations are compiled as x-y-x
composites. The sequence has three blocks (initial, encoding,
superposition) followed by the readout gradient, with checkpoints
(i)-(v) recorded as cut positions between events.

The compiled encoding uses the half-angle / 1/(2J) delay / conjugate-axis
half-angle construction plus a spin-echo refocusing block, so each
controlled rotation nets the exact gate-level operation up to a global
phase. On-resonance operation (Omega_A = Omega_X = 0) is assumed by the
compiler, matching the experiment.

``run_sequence`` compiles each event once (rf pulse: a 4x4 unitary; delay:
the phases of the diagonal exp(-i H t); gradient: the coherence-order mask),
multiplies the unitaries between cuts and validates only checkpoint states.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .direct import SuperpositionSpec
from .errors import ArgumentError, DegenerateInputError
from .linalg import DensityMatrix

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)

CHECKPOINT_LABELS = ("i", "ii", "iii", "iv", "v")

# Rotation angles below this compile to no pulse at all.
_ANGLE_TOL = 1e-12

# A_z and X_z eigenvalues per basis state |00>..|11>.
_AZ = np.array([0.5, 0.5, -0.5, -0.5])
_XZ = np.array([0.5, -0.5, 0.5, -0.5])
# The gradient keeps the elements of zero total coherence order.
_COHERENCE_MASK = np.equal.outer(_AZ + _XZ, _AZ + _XZ)

# The SpinSystem fields and the terms of H they set.
_SPIN_FIELDS = {
    "omega_a": "offset Omega_A",
    "omega_x": "offset Omega_X",
    "j_coupling": "scalar coupling J",
}
# The fields each event kind carries, in Python and in JSON.
_EVENT_FIELDS = {"rf": ("spin", "flip_angle", "axis_phase"), "delay": ("duration",)}


@dataclass(frozen=True)
class SpinSystem:
    """Two-spin parameters, angular frequencies in rad/s."""

    omega_a: float = 0.0
    omega_x: float = 0.0
    j_coupling: float = 2.0 * math.pi * 215.0

    def __post_init__(self):
        for name, what in _SPIN_FIELDS.items():
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ArgumentError(f"the {what} ({name}) must be finite, got {value}")
        if self.j_coupling == 0.0:
            raise ArgumentError("the scalar coupling J must be nonzero")

    @property
    def j_hz(self) -> float:
        return self.j_coupling / (2.0 * math.pi)


@dataclass(frozen=True)
class PulseEvent:
    """One sequence event: an rf pulse, a free-evolution delay, or a gradient."""

    kind: str
    spin: Optional[str] = None
    flip_angle: Optional[float] = None
    axis_phase: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self):
        if self.kind == "rf":
            if self.spin not in ("A", "X", "both"):
                raise ArgumentError(f"rf spin must be A, X or both, got {self.spin}")
            if self.flip_angle is None or not 0.0 < self.flip_angle <= 2.0 * math.pi:
                raise ArgumentError("rf flip angle must lie in (0, 2pi]")
            if self.axis_phase is None or not math.isfinite(self.axis_phase):
                raise ArgumentError("rf pulses need a finite axis phase")
        elif self.kind == "delay":
            if self.duration is None or not 0.0 <= self.duration < math.inf:
                raise ArgumentError("delay duration must be finite and nonnegative")
        elif self.kind != "gradient":
            raise ArgumentError(f"unknown event kind {self.kind!r}")

    def to_json(self) -> dict:
        fields = _EVENT_FIELDS.get(self.kind, ())
        return {"kind": self.kind, **{key: getattr(self, key) for key in fields}}

    @staticmethod
    def from_json(obj: dict) -> "PulseEvent":
        try:
            fields = _EVENT_FIELDS.get(obj["kind"], ())
            return PulseEvent(obj["kind"], **{key: obj.get(key) for key in fields})
        except (KeyError, TypeError) as exc:
            raise ArgumentError(f"malformed pulse event JSON: {exc}") from exc


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Ordered events plus checkpoint cut positions (events applied so far)."""

    events: tuple[PulseEvent, ...]
    checkpoints: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "checkpoints", dict(self.checkpoints))
        unknown = set(self.checkpoints) - set(CHECKPOINT_LABELS)
        if unknown:
            raise ArgumentError(f"unknown checkpoint labels {sorted(unknown)}")
        cuts = [self.checkpoints[k] for k in CHECKPOINT_LABELS if k in self.checkpoints]
        if not all(0 <= cut <= len(self.events) for cut in cuts):
            raise ArgumentError(f"checkpoint cuts {cuts} out of range")
        if cuts != sorted(cuts):
            raise ArgumentError("checkpoint cuts must be non-decreasing")

    def to_json(self) -> dict:
        events = [e.to_json() for e in self.events]
        return {"events": events, "checkpoints": dict(self.checkpoints)}

    @staticmethod
    def from_json(obj: dict) -> "PulseSequence":
        try:
            events = tuple(PulseEvent.from_json(e) for e in obj["events"])
            checkpoints = {str(k): int(v) for k, v in obj["checkpoints"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed pulse sequence JSON: {exc}") from exc
        return PulseSequence(events, checkpoints)


def _energies(sys: SpinSystem) -> np.ndarray:
    """Diagonal of H over |00>, |01>, |10>, |11> (A_z, X_z = +-1/2)."""
    return -sys.omega_a * _AZ - sys.omega_x * _XZ + sys.j_coupling * (_AZ * _XZ)


def hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Diagonal two-spin Hamiltonian in the computational basis."""
    return np.diag(_energies(sys)).astype(complex)


def _delay_phases(sys: SpinSystem, t: float) -> np.ndarray:
    """Diagonal of exp(-i H t), the compiled form of a delay."""
    return np.exp(-1j * _energies(sys) * t)


def _require_two_spin(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise ArgumentError(f"expected a two-spin density matrix, got dims {rho.dims}")


def _conjugate(u: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return u @ mat @ u.conj().T


def evolve_free(rho: DensityMatrix, sys: SpinSystem, t: float) -> DensityMatrix:
    """Conjugation by exp(-i H t); H is diagonal so this is a phase mask."""
    _require_two_spin(rho)
    if t < 0.0:
        raise ArgumentError("evolution time must be nonnegative")
    phases = _delay_phases(sys, t)
    return DensityMatrix((2, 2), phases[:, None] * rho.mat * phases.conj()[None, :])


def rotation_matrix(flip_angle: float, axis_phase: float) -> np.ndarray:
    """exp(-i flip_angle (cos(axis) sigma_x + sin(axis) sigma_y) / 2)."""
    c, s = math.cos(flip_angle / 2.0), -1j * math.sin(flip_angle / 2.0)
    tilt = complex(math.cos(axis_phase), math.sin(axis_phase))
    return np.array([[c, s * tilt.conjugate()], [s * tilt, c]])


def pulse_unitary(spin: str, flip_angle: float, axis_phase: float) -> np.ndarray:
    """Kronecker product of the per-spin rotations, as a broadcast outer product."""
    r = rotation_matrix(flip_angle, axis_phase)
    factors = {"A": (r, EYE2), "X": (EYE2, r), "both": (r, r)}.get(spin)
    if factors is None:
        raise ArgumentError(f"rf spin must be A, X or both, got {spin}")
    left, right = factors
    return (left[:, None, :, None] * right[None, :, None, :]).reshape(4, 4)


def rf_pulse(
    rho: DensityMatrix, spin: str, flip_angle: float, axis_phase: float
) -> DensityMatrix:
    """Instantaneous rotation of the addressed spin(s)."""
    _require_two_spin(rho)
    u = pulse_unitary(spin, flip_angle, axis_phase)
    return DensityMatrix((2, 2), _conjugate(u, rho.mat))


def gradient_crush(rho: DensityMatrix) -> DensityMatrix:
    """Zero every element whose total coherence order is nonzero."""
    _require_two_spin(rho)
    return DensityMatrix((2, 2), np.where(_COHERENCE_MASK, rho.mat, 0.0))


def _composite_z(events: list[PulseEvent], spin: str, angle: float) -> None:
    """R_z(angle) as the x-y-x composite R_x(pi/2) R_y(angle) R_x(-pi/2)."""
    angle = math.remainder(angle, 2.0 * math.pi)
    if abs(angle) < _ANGLE_TOL:
        return
    events.append(PulseEvent("rf", spin=spin, flip_angle=math.pi / 2, axis_phase=math.pi))
    y_axis = math.pi / 2 if angle > 0 else 3 * math.pi / 2
    events.append(PulseEvent("rf", spin=spin, flip_angle=abs(angle), axis_phase=y_axis))
    events.append(PulseEvent("rf", spin=spin, flip_angle=math.pi / 2, axis_phase=0.0))


def _norm_axis(axis: float) -> float:
    return axis % (2.0 * math.pi)


def _controlled_rotation(
    events: list[PulseEvent], theta: float, axis: float, control: int, tau: float
) -> None:
    """Rotate the system qubit by theta iff the ancilla is |control>.

    Half-angle pulse, 1/(2J) delay, conjugate-axis half-angle (axes
    pi/2 apart as in the sequence diagram), then a spin-echo refocusing
    block that cancels the leftover conditional z-rotation.
    """
    if abs(theta) < _ANGLE_TOL:
        return
    conj_axis = axis + (math.pi / 2 if control == 0 else -math.pi / 2)
    half = {"spin": "X", "flip_angle": theta / 2}
    echo = PulseEvent("rf", spin="A", flip_angle=math.pi, axis_phase=0.0)
    delay = PulseEvent("delay", duration=tau)
    events += [
        PulseEvent("rf", **half, axis_phase=_norm_axis(axis)),
        delay,
        PulseEvent("rf", **half, axis_phase=_norm_axis(conj_axis)),
        echo,
        delay,
        echo,
    ]


def compile_sequence(spec: SuperpositionSpec, sys: SpinSystem) -> PulseSequence:
    """Emit the initial / encoding / superposition blocks for one instance.

    Complex weight phases fold into the effective encoded phases, so the
    pulse program always prepares (cos d)|0> + e^{i(g2-g1)}(sin d)|1> on
    the ancilla and corrects the relative phase in the superposition
    block, exactly as the gate-level pipeline does.
    """
    mag_a, mag_b = abs(spec.weight_a), abs(spec.weight_b)
    delta = math.atan2(mag_b, mag_a)
    g1 = spec.psi1.gamma + (cmath.phase(spec.weight_a) if mag_a > 0 else 0.0)
    g2 = spec.psi2.gamma + (cmath.phase(spec.weight_b) if mag_b > 0 else 0.0)
    rel = g2 - g1
    tau = 1.0 / (2.0 * sys.j_hz)

    events: list[PulseEvent] = []
    checkpoints: dict[str, int] = {}

    # Initial block: 2 delta rotation, axis offset by the relative phase.
    if abs(delta) >= _ANGLE_TOL:
        axis = _norm_axis(math.pi / 2 + rel)
        events.append(PulseEvent("rf", spin="A", flip_angle=2 * delta, axis_phase=axis))
    checkpoints["i"] = len(events)

    # Encoding block: one controlled rotation per input state.
    for control, psi in enumerate((spec.psi1, spec.psi2)):
        _controlled_rotation(events, psi.theta, psi.phi + math.pi / 2, control, tau)
    checkpoints["ii"] = len(events)

    # Superposition block: phase correction, pseudo-Hadamard, compensation.
    # Only the declared gammas are removed; weight phases stay in the target.
    _composite_z(events, "A", spec.psi1.gamma - spec.psi2.gamma)
    checkpoints["iii"] = len(events)
    events.append(
        PulseEvent("rf", spin="A", flip_angle=math.pi / 2, axis_phase=3 * math.pi / 2)
    )
    _composite_z(events, "A", math.pi)
    checkpoints["iv"] = len(events)

    # Readout gradient for the normalization measurement.
    events.append(PulseEvent("gradient"))
    checkpoints["v"] = len(events)
    return PulseSequence(tuple(events), checkpoints)


def initial_state(epsilon: float = 1.0) -> DensityMatrix:
    """Pseudo-pure |00><00| blended with identity: (1-eps) I/4 + eps |00><00|."""
    if not 0.0 <= epsilon <= 1.0:
        raise ArgumentError(f"purity epsilon must lie in [0, 1], got {epsilon}")
    mat = (1.0 - epsilon) * np.eye(4) / 4.0
    mat[0, 0] += epsilon
    return DensityMatrix((2, 2), mat)


def _propagators(events: tuple, sys: SpinSystem) -> Iterator[Optional[np.ndarray]]:
    """Yield the net unitary of each gradient-free run, and None at each gradient."""
    u = np.eye(4, dtype=complex)
    for event in events:
        if event.kind == "rf":
            u = pulse_unitary(event.spin, event.flip_angle, event.axis_phase) @ u
        elif event.kind == "delay":
            u = _delay_phases(sys, event.duration)[:, None] * u
        else:
            yield u
            yield None
            u = np.eye(4, dtype=complex)
    yield u


def run_sequence(
    seq: PulseSequence, sys: SpinSystem, epsilon: float = 1.0
) -> dict[str, DensityMatrix]:
    """Apply the sequence to the pseudo-pure start, recording checkpoint states:
    one U rho U^dagger per gradient-free run, one validation per cut."""
    rho = initial_state(epsilon)
    recorded: dict[str, DensityMatrix] = {}
    done = 0
    for label, cut in sorted(seq.checkpoints.items(), key=lambda item: item[1]):
        if cut > done:
            mat = rho.mat
            for u in _propagators(seq.events[done:cut], sys):
                if u is None:
                    mat = np.where(_COHERENCE_MASK, mat, 0.0)
                else:
                    mat = _conjugate(u, mat)
            rho = DensityMatrix((2, 2), mat)
            done = cut
        recorded[label] = rho
    return recorded


def sequence_unitary(seq: PulseSequence, sys: SpinSystem) -> np.ndarray:
    """Net unitary of a gradient-free sequence (for equivalence checks)."""
    u, *rest = _propagators(seq.events, sys)
    if rest:
        raise ArgumentError("gradients have no unitary representation")
    return u


def partial_tomography(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Extract the {|00>, |01>} block; its trace is the success probability."""
    _require_two_spin(rho)
    block = rho.mat[:2, :2]
    norm = float(np.trace(block).real)
    if norm < 1e-12:
        raise DegenerateInputError("the ancilla-|0> block has vanishing population")
    return DensityMatrix((2,), block / norm), norm


# --- Tomography modelling -------------------------------------------------
#
# The full two-spin state is reconstructed from four experiments
# {II, IX, IY, XX} (spin-selective pi/2 pulses), observing the four
# single-quantum coherences after each. The identity component is not
# observable; the unit-trace constraint completes the linear system.

TOMOGRAPHY_EXPERIMENTS: dict[str, tuple[tuple[str, float], ...]] = {
    "II": (),
    "IX": (("X", 0.0),),
    "IY": (("X", math.pi / 2),),
    "XX": (("A", 0.0), ("X", 0.0)),
}

_SQ_ELEMENTS = ((0, 1), (2, 3), (0, 2), (1, 3))

_PAULI_BASIS = [
    np.kron(p, q)
    for p in (EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z)
    for q in (EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z)
]


def _experiment_unitary(pulses: tuple[tuple[str, float], ...]) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    for spin, axis in pulses:
        u = pulse_unitary(spin, math.pi / 2, axis) @ u
    return u


def tomography_observables(rho: DensityMatrix) -> dict[str, tuple[complex, ...]]:
    """Single-quantum coherences observed after each tomography experiment."""
    _require_two_spin(rho)
    out = {}
    for name, pulses in TOMOGRAPHY_EXPERIMENTS.items():
        u = _experiment_unitary(pulses)
        r = _conjugate(u, rho.mat)
        out[name] = tuple(complex(r[i, j]) for i, j in _SQ_ELEMENTS)
    return out


def _tomography_design() -> np.ndarray:
    rows = []
    for pulses in TOMOGRAPHY_EXPERIMENTS.values():
        u = _experiment_unitary(pulses)
        for i, j in _SQ_ELEMENTS:
            rows.append([_conjugate(u, basis)[i, j] for basis in _PAULI_BASIS])
    m = np.array(rows)
    trace_row = np.array([np.trace(b) for b in _PAULI_BASIS])
    return np.vstack([m.real, m.imag, trace_row.real[None, :]])


_TOMOGRAPHY_DESIGN = _tomography_design()


def reconstruct_two_spin(
    observables: dict[str, tuple[complex, ...]], trace: float = 1.0
) -> DensityMatrix:
    """Least-squares inversion of the tomography observables."""
    try:
        obs = np.array(
            [v for name in TOMOGRAPHY_EXPERIMENTS for v in observables[name]]
        )
    except KeyError as exc:
        raise ArgumentError(f"missing tomography experiment {exc}") from exc
    rhs = np.concatenate([obs.real, obs.imag, [trace]])
    coef, *_ = np.linalg.lstsq(_TOMOGRAPHY_DESIGN, rhs, rcond=None)
    mat = sum(c * basis for c, basis in zip(coef, _PAULI_BASIS))
    return DensityMatrix((2, 2), mat)


def subspace_readout(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """The experimental partial readout: {I, G_z Y} plus the normalization scan.

    Direct readout supplies the |00>-|01> coherence; a gradient followed
    by a system-selective pi/2 y-pulse supplies the population
    difference; a gradient followed by an ancilla-selective pi/2 y-pulse
    supplies the subspace normalization. Equals ``partial_tomography``
    exactly for ideal simulated data.
    """
    _require_two_spin(rho)
    coherence = complex(rho.mat[0, 1])
    crushed = gradient_crush(rho)
    pop_x = rf_pulse(crushed, "X", math.pi / 2, math.pi / 2)
    pop_diff = 2.0 * float(pop_x.mat[0, 1].real)
    pop_a = rf_pulse(crushed, "A", math.pi / 2, math.pi / 2)
    anc_diff = 2.0 * float((pop_a.mat[0, 2] + pop_a.mat[1, 3]).real)
    normalization = 0.5 * (rho.trace + anc_diff)
    if normalization < 1e-12:
        raise DegenerateInputError("the ancilla-|0> block has vanishing population")
    p00 = (normalization + pop_diff) / 2.0
    p01 = (normalization - pop_diff) / 2.0
    block = np.array([[p00, coherence], [coherence.conjugate(), p01]])
    return DensityMatrix((2,), block / normalization), normalization
