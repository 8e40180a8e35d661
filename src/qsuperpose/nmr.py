"""Pulse-level simulation of the two-spin superposition sequence.

Two J-coupled spins (ancilla A, system X) evolve on resonance, as in the
experiment, under

    H = J A_z x X_z

with J in angular units (hbar = 1). Pulses are hard
(instantaneous, J off while they run) rotations
R_n(theta) = exp(-i theta n.sigma / 2) about an axis in the xy plane;
``axis_phase`` is measured from +x. z-rotations are compiled as x-y-x
composites. The sequence has three stages (initial, encoding,
superposition) followed by the readout gradient, with checkpoints
(i)-(v) recorded as cut positions between events.

The compiled encoding uses the half-angle / 1/(2J) delay / conjugate-axis
half-angle construction plus a spin-echo refocusing block, so each
controlled rotation nets the exact gate-level operation up to a global
phase.

The fixed 21-event program is one read-only table, ``_PROGRAM``: each event's
block, kind, spin and the angles no input sets. ``compile_sequence`` compiles
a spec batch to one ``PulseProgram`` whose (T, E) flip angles, axis phases and
delays copy the table's values, each row's own written over them. A block that
a spec skips keeps its events with flip angle 0 and duration 0, both exact
identities, and ``emitted`` marks the events each row really has.
``run_sequence`` propagates the program to one checkpoint: each spin's
rotations between two delays multiply as 2 x 2 matrices, the unitaries between
gradients into one U rho U^dagger, every product the einsum ``_PRODUCT``. Each
such U is certified unitary within ATOL, which proves every state positive
without an eigvalsh (see ``run_sequence``); a checkpoint after more runs than
the proof covers is refused. ``check_states`` then checks the states'
finiteness, Hermiticity and traces. A program runs at the spin system it was
built for.
``PulseProgram.to_json`` writes one row's emitted events as sequence JSON and
``PulseProgram.from_json`` checks a sequence file into a one-row program.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .direct import SpecBatch
from .errors import ArgumentError, DegenerateInputError
from .linalg import ATOL, DensityMatrix, check_states, require_number

EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)

CHECKPOINT_LABELS = ("i", "ii", "iii", "iv", "v")

# Gradient-separated runs whose rounding the unitarity certificate bounds
# within PSD_FLOOR (see run_sequence); a checkpoint after more is refused.
_CERTIFIED_RUNS = 6000
# Rotation angles below this compile to no pulse at all.
_ANGLE_TOL = 1e-12
_TWO_PI = 2.0 * math.pi

# A_z and X_z eigenvalues per basis state |00>..|11>.
_AZ = np.array([0.5, 0.5, -0.5, -0.5])
_XZ = np.array([0.5, -0.5, 0.5, -0.5])
# The gradient keeps the elements of zero total coherence order.
_COHERENCE_MASK = np.equal.outer(_AZ + _XZ, _AZ + _XZ)

# The one matrix product: a two-operand einsum runs in numpy's loops, not BLAS.
_PRODUCT = "...ij,...jk->...ik"

# The fields each event kind carries in sequence JSON.
_EVENT_FIELDS = {"rf": ("spin", "flip_angle", "axis_phase"), "delay": ("duration",)}
# The numeric fields, each a (T, E) array of a PulseProgram.
_VALUE_FIELDS = ("flip_angle", "axis_phase", "duration")


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


class PulseProgram(NamedTuple):
    """Compiled programs of T specs on one event list: row k is spec k's program.

    ``system`` is the spin system the program runs at, the one it was built
    for. ``events`` holds each event's (kind, spin) and ``cuts`` the number of
    events applied at each checkpoint label. The (T, E) bool ``emitted`` marks
    the events row k really has; the others are identities (flip angle and
    duration 0). The (T, E) arrays hold each event's flip angle, axis phase and
    duration, 0 where its kind has none."""

    system: SpinSystem
    events: tuple[tuple[str, Optional[str]], ...]
    cuts: dict[str, int]
    emitted: np.ndarray
    flip_angle: np.ndarray
    axis_phase: np.ndarray
    duration: np.ndarray

    def to_json(self, k: int = 0) -> dict:
        """Row k as sequence JSON: each emitted event's kind and its fields, and
        the cuts counted over the emitted events."""
        emitted = self.emitted[k].tolist()
        values = zip(*(getattr(self, key)[k].tolist() for key in _VALUE_FIELDS))
        events = []
        for (kind, spin), row, on in zip(self.events, values, emitted):
            if on:
                fields = dict(zip(_VALUE_FIELDS, row), spin=spin)
                keys = _EVENT_FIELDS.get(kind, ())
                events.append({"kind": kind, **{key: fields[key] for key in keys}})
        ends = list(accumulate(emitted, initial=0))
        return {"events": events, "checkpoints": {c: ends[cut] for c, cut in self.cuts.items()}}

    @staticmethod
    def from_json(obj: dict, sys: SpinSystem) -> "PulseProgram":
        """A pulse sequence file, checked, as a one-row program of spin system sys."""
        try:
            events = [_event_from_json(e) for e in obj["events"]]
            cuts = {str(k): v for k, v in obj["checkpoints"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise ArgumentError(f"malformed pulse sequence JSON: {exc}") from exc
        unknown = set(cuts) - set(CHECKPOINT_LABELS)
        if unknown:
            raise ArgumentError(f"unknown checkpoint labels {sorted(unknown)}")
        for label, cut in cuts.items():
            if isinstance(cut, bool) or not isinstance(cut, numbers.Integral):
                raise ArgumentError(f"checkpoint {label!r} must be an integer cut, got {cut!r}")
        ordered = [cuts[k] for k in CHECKPOINT_LABELS if k in cuts]
        if not all(0 <= cut <= len(events) for cut in ordered):
            raise ArgumentError(f"checkpoint cuts {ordered} out of range")
        if ordered != sorted(ordered):
            raise ArgumentError("checkpoint cuts must be non-decreasing")
        arrays = [np.array([[e.get(key, 0.0) for e in events]], float) for key in _VALUE_FIELDS]
        skeleton = tuple([(e["kind"], e.get("spin")) for e in events])
        return PulseProgram(sys, skeleton, cuts, np.ones((1, len(events)), bool), *arrays)


def _event_from_json(obj: dict) -> dict:
    """One event of a sequence file, checked: its kind and its fields."""
    try:
        kind = obj["kind"]
        fields = {key: obj.get(key) for key in _EVENT_FIELDS.get(kind, ())}
        # true/false would pass the range checks as 1/0, a str fail them obscurely.
        for key, value in fields.items():
            if key != "spin" and value is not None:
                require_number(value, key)
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"malformed pulse event JSON: {exc}") from exc
    if kind == "rf":
        if fields["spin"] not in ("A", "X", "both"):
            raise ArgumentError(f"rf spin must be A, X or both, got {fields['spin']}")
        if fields["flip_angle"] is None or not 0.0 < fields["flip_angle"] <= _TWO_PI:
            raise ArgumentError("rf flip angle must lie in (0, 2pi]")
        if fields["axis_phase"] is None or not math.isfinite(fields["axis_phase"]):
            raise ArgumentError("rf pulses need a finite axis phase")
    elif kind == "delay":
        if fields["duration"] is None or not 0.0 <= fields["duration"] < math.inf:
            raise ArgumentError("delay duration must be finite and nonnegative")
    elif kind != "gradient":
        raise ArgumentError(f"unknown event kind {kind!r}")
    return {"kind": kind, **fields}


def _delay_phases(sys: SpinSystem, t) -> np.ndarray:
    """Diagonal of exp(-i H t) over |00>, |01>, |10>, |11>, the compiled form of
    a delay, elementwise: (..., 4)."""
    return np.exp(-1j * (sys.j_coupling * (_AZ * _XZ)) * np.asarray(t)[..., None])


def _require_two_spin(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise ArgumentError(f"expected a two-spin density matrix, got dims {rho.dims}")


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
    r = np.empty(np.broadcast(s, tilt).shape + (2, 2), complex)
    r[..., 0, 0] = r[..., 1, 1] = c
    r[..., 0, 1], r[..., 1, 0] = s * tilt.conj(), s * tilt
    return r


def _kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Kronecker products (..., 4, 4) of 2 x 2 factors, as outer products."""
    kron = left[..., :, None, :, None] * right[..., None, :, None, :]
    return kron.reshape(kron.shape[:-4] + (4, 4))


def pulse_unitary(spin: str, flip_angle, axis_phase) -> np.ndarray:
    """Kronecker product of the per-spin rotations, elementwise over the angles."""
    r = rotation_matrix(flip_angle, axis_phase)
    factors = {"A": (r, EYE2), "X": (EYE2, r), "both": (r, r)}.get(spin)
    if factors is None:
        raise ArgumentError(f"rf spin must be A, X or both, got {spin}")
    return _kron(*factors)


def rf_pulse(
    rho: DensityMatrix, spin: str, flip_angle: float, axis_phase: float
) -> DensityMatrix:
    """Instantaneous rotation of the addressed spin(s)."""
    _require_two_spin(rho)
    u = pulse_unitary(spin, flip_angle, axis_phase)
    mat = np.einsum(_PRODUCT, u, rho.mat)
    return DensityMatrix((2, 2), np.einsum(_PRODUCT, mat, u.conj().swapaxes(-1, -2)))


def gradient_crush(rho: DensityMatrix) -> DensityMatrix:
    """Zero every element whose total coherence order is nonzero."""
    _require_two_spin(rho)
    return DensityMatrix((2, 2), np.where(_COHERENCE_MASK, rho.mat, 0.0))


# The fixed program, one row per event in order: (block, kind, spin, flip angle,
# axis phase), the angles that no input sets. Blocks: 0 the 2 delta rotation, 1
# and 2 psi1's and psi2's echoed encodings (theta/2, tau, theta/2, then the echo),
# 3 the x-y-x z-composite, 4 the pseudo-Hadamard, 5 the R_z(pi) composite (R_y(pi)
# about pi/2), 6 the gradient. Blocks 0-3 are emitted only where their test holds
# (2 delta, theta1, theta2 and z nonzero), blocks 4-6 always.
_PROGRAM = (
    (0, "rf", "A", 0.0, 0.0),
    *((b, kind, spin, flip, 0.0) for b in (1, 2) for kind, spin, flip in (
        ("rf", "X", 0.0), ("delay", None, 0.0), ("rf", "X", 0.0),
        ("rf", "A", math.pi), ("delay", None, 0.0), ("rf", "A", math.pi))),
    (3, "rf", "A", math.pi / 2, math.pi), (3, "rf", "A", 0.0, 0.0),
    (3, "rf", "A", math.pi / 2, 0.0),
    (4, "rf", "A", math.pi / 2, 3 * math.pi / 2),
    (5, "rf", "A", math.pi / 2, math.pi), (5, "rf", "A", math.pi, math.pi / 2),
    (5, "rf", "A", math.pi / 2, 0.0),
    (6, "gradient", None, 0.0, 0.0),
)
_BLOCK_OF = [row[0] for row in _PROGRAM]
_EVENTS = tuple([row[1:3] for row in _PROGRAM])
# Checkpoints (i)-(v) fall after blocks 0, 2, 3, 5 and 6.
_CUTS = {label: sum(b <= last for b in _BLOCK_OF)
         for label, last in zip(CHECKPOINT_LABELS, (0, 2, 3, 5, 6))}
# The (flip angle, axis phase, duration) rows (3, E), read only, and the columns
# compile_sequence writes over its copy besides 2 delta: theta/2, tau and R_y(|z|).
_TEMPLATE = np.array([(flip, phase, 0.0) for *_, flip, phase in _PROGRAM]).T
_TEMPLATE.flags.writeable = False
_HALVES = np.flatnonzero([event == ("rf", "X") for event in _EVENTS])
_TAUS = np.flatnonzero([kind == "delay" for kind, _ in _EVENTS])
_R_Y = _BLOCK_OF.index(3) + 1
# Each event's column of the block tests: blocks 4-6 share the last, always met.
_BLOCK_TEST = np.minimum(_BLOCK_OF, 4)


def compile_sequence(batch: SpecBatch, sys: SpinSystem) -> PulseProgram:
    """Emit the initial / encoding / superposition blocks for every spec of a
    batch, as one program: row k is spec k's.

    Complex weight phases fold into the effective encoded phases, so the
    pulse program always prepares (cos d)|0> + e^{i(g2-g1)}(sin d)|1> on
    the ancilla and corrects the relative phase in the superposition
    block, exactly as the gate-level pipeline does.

    Each encoding rotates the system qubit by theta iff the ancilla is in its
    control state: half-angle pulse, 1/(2J) delay, half-angle pulse about an
    axis pi/2 away (as in the sequence diagram), then a spin-echo block that
    cancels the leftover conditional z-rotation. R_z(z), z in [-pi, pi], is the
    x-y-x composite R_x(pi/2) R_y(z) R_x(-pi/2).
    """
    theta, phi, gamma = batch.angles.transpose(2, 0, 1)
    mag = np.abs(batch.weights)
    delta = np.arctan2(mag[:, 1], mag[:, 0])
    g = gamma + np.where(mag > 0, np.angle(batch.weights), 0.0)
    rel = g[:, 1] - g[:, 0]
    tau = 1.0 / (2.0 * sys.j_hz)
    if not 0.0 < tau < math.inf:
        raise ArgumentError(
            "the scalar coupling J must be positive with a finite 1/(2J) delay, "
            f"got J = {sys.j_hz:g} Hz"
        )
    # Only the declared gammas are removed; weight phases stay in the target.
    # z lies in (-2 pi, 2 pi), so its remainder mod 2 pi takes one exact subtraction.
    z = gamma[:, 0] - gamma[:, 1]
    z = np.where(np.abs(z) > math.pi, z - np.copysign(_TWO_PI, z), z)
    # psi1 is rotated on ancilla |0>, psi2 on ancilla |1>: the second pulse's
    # axis lies pi/2 past the first's for psi1, pi/2 short of it for psi2.
    axes = (phi + math.pi / 2)[:, :, None] + [[0.0, math.pi / 2], [0.0, -math.pi / 2]]

    flip, axis_phase, duration = _TEMPLATE[:, None].repeat(len(delta), axis=1)
    # Initial block: 2 delta rotation, axis offset by the relative phase.
    flip[:, 0], axis_phase[:, 0] = 2 * delta, (math.pi / 2 + rel) % _TWO_PI
    flip[:, _HALVES] = (theta / 2).repeat(2, axis=1)
    axis_phase[:, _HALVES] = (axes % _TWO_PI).reshape(-1, 4)
    duration[:, _TAUS] = tau
    flip[:, _R_Y], axis_phase[:, _R_Y] = np.abs(z), np.where(z > 0, math.pi / 2, 3 * math.pi / 2)

    # The block tests (2 delta, theta1, theta2, z nonzero), and inf for blocks 4-6.
    tests = np.full((len(delta), 5), math.inf)
    tests[:, 0], tests[:, 1:3], tests[:, 3] = delta, theta, z
    emitted = (np.abs(tests) >= _ANGLE_TOL)[:, _BLOCK_TEST]
    # R(0, phi) is exactly 1, and so are a zero delay's phases.
    skipped = ~emitted
    flip[skipped] = duration[skipped] = 0.0
    return PulseProgram(sys, _EVENTS, dict(_CUTS), emitted, flip, axis_phase, duration)


def initial_state(epsilon: float) -> np.ndarray:
    """Pseudo-pure |00><00| blended with identity: (1-eps) I/4 + eps |00><00|, (4, 4)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ArgumentError(f"purity epsilon must lie in [0, 1], got {epsilon}")
    mat = (1.0 - epsilon) * EYE4 / 4.0
    mat[0, 0] += epsilon
    return mat


def _propagators(program: PulseProgram, cut: int) -> list[np.ndarray]:
    """The net unitary (T, 4, 4) of each gradient-free run of the program's
    first ``cut`` events: a gradient ends one run and starts the next.

    Rotations of the two spins commute, so each spin's rotations multiply as
    2 x 2 matrices until the next delay or gradient; their Kronecker product
    then joins the run."""
    events, sys = program.events[:cut], program.system
    rf = [k for k, (kind, _) in enumerate(events) if kind == "rf"]
    delays = [k for k, (kind, _) in enumerate(events) if kind == "delay"]
    angles = program.flip_angle[:, rf], program.axis_phase[:, rf]
    rotations = iter(rotation_matrix(*angles).swapaxes(0, 1))
    durations = program.duration[:, delays]
    longest = float(np.abs(durations).max(initial=0.0))
    # A J t past the float range would warn and turn every phase to NaN.
    if not math.isfinite(longest * sys.j_coupling):
        raise ArgumentError(f"a delay of {longest!r} s overflows J t at J = {sys.j_hz:g} Hz")
    phases = iter(_delay_phases(sys, durations).swapaxes(0, 1))
    runs, u, pending = [], EYE4, {}
    # The closing None flushes the rotations after the last delay or gradient.
    for kind, spin in events + ((None, None),):
        if kind == "rf":
            r = next(rotations)
            for s in ("A", "X") if spin == "both" else (spin,):
                pending[s] = np.einsum(_PRODUCT, r, pending[s]) if s in pending else r
            continue
        if pending:
            step = _kron(pending.pop("A", EYE2), pending.pop("X", EYE2))
            u = step if u is EYE4 else np.einsum(_PRODUCT, step, u)
        if kind == "delay":
            u = next(phases)[..., None] * u
        else:  # a gradient, or the end
            runs.append(u)
            u = EYE4
    return runs


def run_sequence(program: PulseProgram, checkpoint: str, epsilon: float = 1.0) -> np.ndarray:
    """States (T, 4, 4) at ``checkpoint``, row k from row k of the program, at
    the program's own spin system. The events after the checkpoint are not
    simulated.

    Each net propagator U is certified, max |U^dagger U - I| <= ATOL, in place
    of an eigvalsh on the states; their finiteness, Hermiticity and traces are
    still checked. The certificate proves the eigvalsh bound, every eigenvalue
    >= PSD_FLOOR (-1e-10):

    * In exact arithmetic every state is positive. The start state is diagonal
      and nonnegative for epsilon in [0, 1]; U rho U^dagger is a congruence,
      positive for any U; the gradient is a pinching (np.where is exact).
    * So only rounding goes negative. fl(U rho U^dagger) is off by at most
      2 sqrt(2) gamma_6 |U| |rho| |U^dagger| entrywise (gamma_6 ~ 6u, u =
      2^-53), and || |A| ||_2 <= 2 ||A||_2 at n = 4: at most 1.5e-14 ||U||_2^2
      ||rho||_2 in 2-norm, where ||U||_2^2 <= 1 + 4 ATOL and ||rho||_2 <= tr
      rho, about 1. By Weyl's inequality each conjugation lowers the least
      eigenvalue of the Hermitian part by at most about 1.5e-14, and the
      pinching by nothing; eigvalsh's lower triangle is within 2 ATOL of it.
    * K gradient-separated runs thus end above -(K 1.5e-14 + 2e-12), inside
      PSD_FLOOR for K <= _CERTIFIED_RUNS. A compiled program has K <= 2; a
      checkpoint after more runs is refused.
    """
    if checkpoint not in program.cuts:
        raise ArgumentError(f"the sequence has no checkpoint {checkpoint!r}")
    runs = _propagators(program, program.cuts[checkpoint])
    if len(runs) > _CERTIFIED_RUNS:
        raise ArgumentError(
            f"checkpoint {checkpoint!r} comes after {len(runs)} gradient-separated runs; "
            f"the unitarity certificate covers at most {_CERTIFIED_RUNS}"
        )
    mat = initial_state(epsilon)[None].repeat(len(program.emitted), axis=0)
    for k, u in enumerate(runs):
        if k:  # the gradient between two runs
            mat = np.where(_COHERENCE_MASK, mat, 0.0)
        u_dag = u.conj().swapaxes(-1, -2)
        residual = np.abs(np.einsum(_PRODUCT, u_dag, u) - EYE4).max()
        if not residual <= ATOL:  # NaN fails too
            raise ArgumentError(
                f"a pulse propagator is not unitary: max |U^dagger U - I| = {residual:.3g}"
            )
        mat = np.einsum(_PRODUCT, np.einsum(_PRODUCT, u, mat), u_dag)
    check_states(mat)
    return mat


def partial_tomography(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized {|00>, |01>} blocks of states (T, 4, 4), and their traces: the
    success probabilities."""
    block = mats[:, :2, :2]
    norm = block.trace(axis1=1, axis2=2).real
    if (norm < 1e-12).any():
        raise DegenerateInputError("the ancilla-|0> block has vanishing population")
    return block / norm[:, None, None], norm
