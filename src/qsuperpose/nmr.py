"""Pulse-level simulation of the two-spin superposition sequence.

Two J-coupled spins (ancilla A, system X) evolve on resonance, as in the
experiment, under

    H = J A_z x X_z

with J in angular units (hbar = 1). Pulses are hard
(instantaneous, J off while they run) rotations
R_n(theta) = exp(-i theta n.sigma / 2) about an axis in the xy plane;
``axis_phase`` is measured from +x. z-rotations are compiled as x-y-x
composites. The sequence has three blocks (initial, encoding,
superposition) followed by the readout gradient, with checkpoints
(i)-(v) recorded as cut positions between events.

The compiled encoding uses the half-angle / 1/(2J) delay / conjugate-axis
half-angle construction plus a spin-echo refocusing block, so each
controlled rotation nets the exact gate-level operation up to a global
phase.

``run_sequence`` propagates a batch of sequences to one checkpoint. Sequences
whose events up to it share a skeleton (event kinds and spins) run as one
group: each event compiles once over the group (rf: unitaries; delay: the
phases of the diagonal exp(-i H t)), the unitaries between gradients multiply
into one U rho U^dagger, and one check validates every state.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .direct import SuperpositionSpec
from .errors import ArgumentError, DegenerateInputError
from .linalg import DensityMatrix, check_densities, require_number

EYE2 = np.eye(2, dtype=complex)

CHECKPOINT_LABELS = ("i", "ii", "iii", "iv", "v")

# Rotation angles below this compile to no pulse at all.
_ANGLE_TOL = 1e-12

# A_z and X_z eigenvalues per basis state |00>..|11>.
_AZ = np.array([0.5, 0.5, -0.5, -0.5])
_XZ = np.array([0.5, -0.5, 0.5, -0.5])
# The gradient keeps the elements of zero total coherence order.
_COHERENCE_MASK = np.equal.outer(_AZ + _XZ, _AZ + _XZ)

# The fields each event kind carries, in Python and in JSON.
_EVENT_FIELDS = {"rf": ("spin", "flip_angle", "axis_phase"), "delay": ("duration",)}


@dataclass(frozen=True)
class SpinSystem:
    """The scalar coupling J of the two spins, in rad/s."""

    j_coupling: float = 2.0 * math.pi * 215.0

    def __post_init__(self):
        if not math.isfinite(self.j_coupling):
            raise ArgumentError(
                f"the scalar coupling J (j_coupling) must be finite, got {self.j_coupling}"
            )
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
            # true/false would pass the range checks as 1/0, a str fail them obscurely.
            for key in fields:
                if key != "spin" and obj.get(key) is not None:
                    require_number(obj[key], key)
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
        for label, cut in self.checkpoints.items():
            if isinstance(cut, bool) or not isinstance(cut, numbers.Integral):
                raise ArgumentError(
                    f"checkpoint {label!r} must be an integer cut, got {cut!r}"
                )
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
            checkpoints = {str(k): v for k, v in obj["checkpoints"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise ArgumentError(f"malformed pulse sequence JSON: {exc}") from exc
        return PulseSequence(events, checkpoints)


def _energies(sys: SpinSystem) -> np.ndarray:
    """Diagonal of H over |00>, |01>, |10>, |11> (A_z, X_z = +-1/2)."""
    return sys.j_coupling * (_AZ * _XZ)


def _delay_phases(sys: SpinSystem, t) -> np.ndarray:
    """Diagonal of exp(-i H t), the compiled form of a delay, elementwise: (..., 4)."""
    return np.exp(-1j * _energies(sys) * np.asarray(t)[..., None])


def _require_two_spin(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise ArgumentError(f"expected a two-spin density matrix, got dims {rho.dims}")


def _conjugate(u: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return u @ mat @ u.conj().swapaxes(-1, -2)


def evolve_free(rho: DensityMatrix, sys: SpinSystem, t: float) -> DensityMatrix:
    """Conjugation by exp(-i H t); H is diagonal so this is a phase mask."""
    _require_two_spin(rho)
    if t < 0.0:
        raise ArgumentError("evolution time must be nonnegative")
    phases = _delay_phases(sys, t)
    return DensityMatrix((2, 2), phases[:, None] * rho.mat * phases.conj()[None, :])


def rotation_matrix(flip_angle, axis_phase) -> np.ndarray:
    """exp(-i flip_angle (cos(axis) sigma_x + sin(axis) sigma_y) / 2), elementwise."""
    c, s = np.cos(flip_angle / 2.0), -1j * np.sin(flip_angle / 2.0)
    tilt = np.cos(axis_phase) + 1j * np.sin(axis_phase)
    return np.stack([np.stack([c, s * tilt.conj()], -1), np.stack([s * tilt, c], -1)], -2)


def _on_spin(spin: str, r: np.ndarray) -> np.ndarray:
    """Kronecker forms (..., 4, 4) of rotations r on a spin, as outer products."""
    factors = {"A": (r, EYE2), "X": (EYE2, r), "both": (r, r)}.get(spin)
    if factors is None:
        raise ArgumentError(f"rf spin must be A, X or both, got {spin}")
    left, right = factors
    kron = left[..., :, None, :, None] * right[..., None, :, None, :]
    return kron.reshape(r.shape[:-2] + (4, 4))


def pulse_unitary(spin: str, flip_angle, axis_phase) -> np.ndarray:
    """Kronecker product of the per-spin rotations, elementwise over the angles."""
    return _on_spin(spin, rotation_matrix(flip_angle, axis_phase))


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


def _operators(group: Sequence[tuple], sys: SpinSystem) -> list[tuple]:
    """(kind, operator) of each event over event lists of one skeleton: (T, 4, 4)
    rf unitaries, (T, 4, 1) delay phases, None for a gradient."""
    columns = list(zip(*group))
    rf = [[(e.flip_angle, e.axis_phase) for e in c] for c in columns if c[0].kind == "rf"]
    angles = np.array(rf, dtype=float).reshape(-1, len(group), 2)
    rotations = iter(rotation_matrix(angles[..., 0], angles[..., 1]))
    ops = []
    for col in columns:
        kind, op = col[0].kind, None
        if kind == "rf":
            op = _on_spin(col[0].spin, next(rotations))
        elif kind == "delay":
            op = _delay_phases(sys, [e.duration for e in col])[..., None]
        ops.append((kind, op))
    return ops


def _propagators(ops: Sequence[tuple]) -> Iterator[Optional[np.ndarray]]:
    """Yield the net unitary of each gradient-free run, and None at each gradient."""
    u = np.eye(4, dtype=complex)
    for kind, op in ops:
        if kind == "gradient":
            yield u
            yield None
            u = np.eye(4, dtype=complex)
        else:
            u = op @ u if kind == "rf" else op * u
    yield u


def run_sequence(
    seqs: Sequence[PulseSequence], sys: SpinSystem, checkpoint: str, epsilon: float = 1.0
) -> np.ndarray:
    """States (T, 4, 4) at ``checkpoint``, row t from seqs[t]; the events after it
    are not simulated."""
    groups: dict[tuple, list] = {}
    for t, seq in enumerate(seqs):
        if checkpoint not in seq.checkpoints:
            raise ArgumentError(f"the sequence has no checkpoint {checkpoint!r}")
        events = seq.events[: seq.checkpoints[checkpoint]]
        # tuple() of a list, not of a generator: CPython sizes a generator's
        # tuple by guess and resizes it, and the resized tuples pile up in
        # its free lists (about 1 MB more peak RSS over a long run).
        skeleton = tuple([(e.kind, e.spin) for e in events])
        groups.setdefault(skeleton, []).append((t, events))
    out = np.empty((len(seqs), 4, 4), complex)
    out[:] = initial_state(epsilon).mat
    for group in groups.values():
        rows, events = (list(x) for x in zip(*group))
        mat = out[rows]
        for u in _propagators(_operators(events, sys)):
            mat = np.where(_COHERENCE_MASK, mat, 0.0) if u is None else _conjugate(u, mat)
        out[rows] = mat
    check_densities(out)
    return out


def sequence_unitary(seq: PulseSequence, sys: SpinSystem) -> np.ndarray:
    """Net unitary of a gradient-free sequence (for equivalence checks)."""
    u, *rest = _propagators(_operators([seq.events], sys))
    if rest:
        raise ArgumentError("gradients have no unitary representation")
    return u.reshape(4, 4)


def partial_tomography(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized {|00>, |01>} blocks of states (T, 4, 4), and their traces: the
    success probabilities."""
    block = mats[:, :2, :2]
    norm = np.trace(block, axis1=1, axis2=2).real
    if np.any(norm < 1e-12):
        raise DegenerateInputError("the ancilla-|0> block has vanishing population")
    return block / norm[:, None, None], norm
