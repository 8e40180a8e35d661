"""Pulse-level simulation: Hamiltonian, pulses, compiler, readout."""
import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsuperpose import kernel, nmr
from qsuperpose.datasets import TABLE1, dataset
from qsuperpose.direct import (
    SuperpositionSpec,
    encode_two_qubit,
    outcomes,
    run_direct,
    run_direct_batch,
    spec_batch,
)
from qsuperpose.errors import ArgumentError, DegenerateInputError
from qsuperpose.linalg import (
    ATOL,
    PSD_FLOOR,
    DensityMatrix,
    QubitParams,
    StateVector,
    fidelity,
    fidelity_batch,
    pure_density,
    pure_density_batch,
    unit_rows,
)
from qsuperpose.nmr import (
    CHECKPOINT_LABELS,
    PulseProgram,
    SpinSystem,
    compile_sequence,
    evolve_free,
    gradient_crush,
    initial_state,
    partial_tomography,
    pulse_unitary,
    rf_pulse,
    rotation_matrix,
    run_sequence,
)

from helpers import runs_sequence

SYS = SpinSystem()
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ground() -> DensityMatrix:
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    return DensityMatrix((2, 2), mat)


def random_density(rng) -> DensityMatrix:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = a @ a.conj().T
    return DensityMatrix((2, 2), mat / np.trace(mat).real)


VALUE_FIELDS = ("flip_angle", "axis_phase", "duration")
ARRAY_FIELDS = ("emitted", *VALUE_FIELDS)


def table1_batch():
    return spec_batch([ds.weights() for ds in TABLE1], [ds.angles() for ds in TABLE1])


def sequence(spec) -> PulseProgram:
    """A spec's compiled one-row program."""
    return compile_sequence(spec.batch, SYS)


def row_sequences(program) -> list[dict]:
    """Row t of the program as sequence JSON, for every row t."""
    return [program.to_json(t) for t in range(len(program.emitted))]


def stack(seqs, sys=SYS) -> PulseProgram:
    """Sequence JSON objects of one skeleton and cuts as one program of spin
    system sys; row t is seqs[t]."""
    programs = [PulseProgram.from_json(seq, sys) for seq in seqs]
    first = programs[0]
    assert all(p.events == first.events and p.cuts == first.cuts for p in programs)
    arrays = {key: np.concatenate([getattr(p, key) for p in programs]) for key in ARRAY_FIELDS}
    return first._replace(**arrays)


def state(program, label, epsilon=1.0) -> DensityMatrix:
    """A one-row program's state at one checkpoint, as a DensityMatrix."""
    return DensityMatrix((2, 2), run_sequence(program, label, epsilon)[0])


def readout(spec) -> tuple[DensityMatrix, float]:
    """Partial tomography of a spec's compiled program at (iv)."""
    mats = run_sequence(compile_sequence(spec.batch, SYS), "iv")
    blocks, norms = partial_tomography(mats)
    return DensityMatrix((2,), blocks[0]), float(norms[0])


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.mat @ rho.mat).real)


def gate_target(spec) -> DensityMatrix:
    """|t><t| of the gate pipeline's target t = a psi1 + b psi2, phases stripped."""
    target = run_direct_batch(spec.batch)[1][0]
    return pure_density(StateVector((2,), target))


def apply_event(rho, event, sys):
    """One event dict of sequence JSON, applied by its scalar operation."""
    if event["kind"] == "rf":
        return rf_pulse(rho, event["spin"], event["flip_angle"], event["axis_phase"])
    if event["kind"] == "delay":
        return evolve_free(rho, sys, event["duration"])
    return gradient_crush(rho)


def fold(seq, sys, epsilon):
    """The event-by-event reference over sequence JSON: one validated state
    after every event."""
    rho = DensityMatrix((2, 2), initial_state(epsilon))
    cuts = seq["checkpoints"]
    states = {label: rho for label, cut in cuts.items() if cut == 0}
    for idx, event in enumerate(seq["events"], start=1):
        rho = apply_event(rho, event, sys)
        states.update({k: rho for k, cut in cuts.items() if cut == idx})
    return states


def parse(events, checkpoints=None, sys=SYS) -> PulseProgram:
    """Event dicts and cuts, read as a sequence file of spin system sys."""
    return PulseProgram.from_json({"events": events, "checkpoints": checkpoints or {}}, sys)


def rf(**fields) -> dict:
    return {"kind": "rf", "spin": "A", "flip_angle": 1.0, "axis_phase": 0.0, **fields}


def unitary(events, sys=SYS):
    """Net unitary of gradient-free event dicts: the engine's one propagator."""
    (u,) = nmr._propagators(parse(events, sys=sys), len(events))
    return u.reshape(4, 4)


def hamiltonian(sys):
    """The diagonal two-spin Hamiltonian J A_z X_z, from the engine's spin tables."""
    return np.diag(sys.j_coupling * (nmr._AZ * nmr._XZ))


def delay_unitary(sys, t):
    return np.diag(np.exp(-1j * (sys.j_coupling * (nmr._AZ * nmr._XZ)) * t))


def rf_events(spins=st.sampled_from(["A", "X", "both"])):
    return st.fixed_dictionaries({
        "kind": st.just("rf"),
        "spin": spins,
        "flip_angle": st.floats(1e-3, 2 * math.pi),
        "axis_phase": st.floats(0.0, 2 * math.pi),
    })


RF_EVENTS = rf_events()
DELAYS = st.fixed_dictionaries({"kind": st.just("delay"), "duration": st.floats(0.0, 1e-2)})
GRADIENTS = st.just({"kind": "gradient"})
SPIN_SYSTEMS = st.builds(SpinSystem, j_coupling=st.floats(10.0, 2e3))


@st.composite
def sequences(draw, events=st.one_of(RF_EVENTS, DELAYS, GRADIENTS)):
    """Sequence JSON: any events, with sorted (possibly repeated, possibly 0) cuts."""
    evs = draw(st.lists(events, max_size=12))
    labels = [k for k in CHECKPOINT_LABELS if draw(st.booleans())]
    cuts = sorted(draw(st.integers(0, len(evs))) for _ in labels)
    return {"events": evs, "checkpoints": dict(zip(labels, cuts))}


SKELETON_EVENTS = st.sampled_from(
    [("rf", "A"), ("rf", "X"), ("rf", "both"), ("delay", None), ("gradient", None)]
)


def event_of(kind, spin):
    if kind == "rf":
        return rf_events(st.just(spin))
    return DELAYS if kind == "delay" else GRADIENTS


@st.composite
def skeleton_batches(draw):
    """One to three skeletons (event kinds and spins, cuts), one to three
    sequences of each with their own angles and delays, in shuffled order;
    every sequence records the same checkpoint labels, and skeletons may share
    their events and differ only in their cuts, so a label may cut them at
    different events."""
    labels = [k for k in CHECKPOINT_LABELS if draw(st.booleans())]
    kinds = draw(st.lists(st.lists(SKELETON_EVENTS, max_size=10), min_size=1, max_size=2))
    seqs = []
    for _ in range(draw(st.integers(1, 3))):
        skeleton = draw(st.sampled_from(kinds))
        cuts = dict(zip(labels, sorted(draw(st.integers(0, len(skeleton))) for _ in labels)))
        for _ in range(draw(st.integers(1, 3))):
            events = [draw(event_of(*kind)) for kind in skeleton]
            seqs.append({"events": events, "checkpoints": cuts})
    return draw(st.permutations(seqs))


def assert_equal_up_to_phase(u, v, atol=1e-12):
    k = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = v[k] / u[k]
    assert abs(abs(phase) - 1.0) <= atol
    np.testing.assert_allclose(u * phase, v, atol=atol)


class TestHamiltonian:
    def test_pure_coupling(self):
        h = hamiltonian(SpinSystem(4.0))
        np.testing.assert_allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)

    @given(SPIN_SYSTEMS)
    def test_diagonal_for_any_parameters(self, sys):
        h = hamiltonian(sys)
        np.testing.assert_array_equal(h, np.diag(np.diag(h)))

    def test_ground_state_energy(self):
        assert hamiltonian(SpinSystem(4.0))[0, 0] == pytest.approx(4.0 / 4)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ArgumentError):
            SpinSystem(0.0)

    # SpinSystem has one field; the parameter keeps the case names stable.
    @pytest.mark.parametrize("field", ["j_coupling"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ArgumentError, match=f"{field}.*must be finite"):
            SpinSystem(**{field: value})

    @given(SPIN_SYSTEMS)
    def test_matches_kronecker_form(self, sys):
        az = np.diag([0.5, -0.5])
        np.testing.assert_array_equal(hamiltonian(sys), sys.j_coupling * np.kron(az, az))


class TestEvolveFree:
    def test_zero_time_identity(self, rng):
        rho = random_density(rng)
        np.testing.assert_array_equal(evolve_free(rho, SYS, 0.0).mat, rho.mat)

    def test_zz_quarter_turn(self):
        # |0>|+> evolved for t = pi/J: the 00-01 coherence picks up -i.
        plus = np.array([1.0, 1.0]) * INV_SQRT2
        amps = np.kron([1.0, 0.0], plus)
        rho = DensityMatrix((2, 2), np.outer(amps, amps.conj()))
        out = evolve_free(rho, SYS, math.pi / SYS.j_coupling)
        assert out.mat[0, 1] == pytest.approx(0.5 * np.exp(-1j * math.pi / 2), abs=1e-12)

    def test_purity_conserved(self, rng):
        rho = random_density(rng)
        out = evolve_free(rho, SYS, 1.7e-3)
        assert purity(out) == pytest.approx(purity(rho), abs=1e-12)
        assert out.trace == pytest.approx(rho.trace, abs=1e-12)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ArgumentError):
            evolve_free(random_density(rng), SYS, -1e-6)


class TestRfPulse:
    def test_pi_about_x_flips(self):
        out = rf_pulse(ground(), "A", math.pi, 0.0)
        np.testing.assert_allclose(np.diag(out.mat).real, [0, 0, 1, 0], atol=1e-14)

    def test_two_delta_population_split(self):
        delta = 0.61
        out = rf_pulse(ground(), "A", 2 * delta, math.pi / 2)
        pops = np.diag(out.mat).real
        assert pops[0] == pytest.approx(math.cos(delta) ** 2, abs=1e-12)
        assert pops[2] == pytest.approx(math.sin(delta) ** 2, abs=1e-12)

    def test_two_half_pi_pulses_compose(self, rng):
        rho = random_density(rng)
        once = rf_pulse(rf_pulse(rho, "X", math.pi / 2, 0.7), "X", math.pi / 2, 0.7)
        direct = rf_pulse(rho, "X", math.pi, 0.7)
        np.testing.assert_allclose(once.mat, direct.mat, atol=1e-13)

    def test_both_addresses_both_spins(self):
        u = pulse_unitary("both", math.pi / 2, 0.0)
        expected = np.kron(
            rotation_matrix(math.pi / 2, 0.0), rotation_matrix(math.pi / 2, 0.0)
        )
        np.testing.assert_allclose(u, expected, atol=1e-15)


class TestGradientCrush:
    def test_diagonal_unchanged(self):
        rho = DensityMatrix((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))
        np.testing.assert_array_equal(gradient_crush(rho).mat, rho.mat)

    def test_single_quantum_killed(self):
        plus = np.array([1.0, 1.0]) * INV_SQRT2
        amps = np.kron(plus, [1.0, 0.0])
        rho = DensityMatrix((2, 2), np.outer(amps, amps))
        out = gradient_crush(rho)
        expected = np.kron(np.eye(2) / 2.0, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out.mat, expected, atol=1e-14)

    def test_zero_quantum_survives(self):
        # (|01> + |10>)/sqrt(2) has a zero-quantum coherence.
        amps = np.zeros(4)
        amps[1] = amps[2] = INV_SQRT2
        rho = DensityMatrix((2, 2), np.outer(amps, amps))
        out = gradient_crush(rho)
        assert out.mat[1, 2] == pytest.approx(0.5, abs=1e-14)

    def test_purity_never_increases(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            out = gradient_crush(rho)
            assert purity(out) <= purity(rho) + 1e-12
            assert out.trace == pytest.approx(rho.trace, abs=1e-14)


class TestCompileSequence:
    def gate_level_encoding(self, spec):
        """|0><0| x R(psi1) + |1><1| x R(psi2), the compile target."""
        u = np.zeros((4, 4), dtype=complex)
        u[:2, :2] = rotation_matrix(spec.psi1.theta, spec.psi1.phi + math.pi / 2)
        u[2:, 2:] = rotation_matrix(spec.psi2.theta, spec.psi2.phi + math.pi / 2)
        return u

    def encoding_block(self, program):
        seq = program.to_json()
        return seq["events"][seq["checkpoints"]["i"] : seq["checkpoints"]["ii"]]

    @pytest.mark.parametrize("dataset_id", [1, 3, 5, 7, 9, 11])
    def test_encoding_block_matches_gate_level(self, dataset_id):
        ds = dataset(dataset_id)
        spec = ds.spec()
        seq = sequence(spec)
        net = unitary(self.encoding_block(seq), SYS)
        assert_equal_up_to_phase(net, self.gate_level_encoding(spec))

    def test_single_weight_empty_initial_block(self):
        spec = SuperpositionSpec(1.0, 0.0, QubitParams(0, 0), QubitParams(1.0, 0.0))
        seq = sequence(spec)
        assert seq.to_json()["checkpoints"]["i"] == 0
        np.testing.assert_allclose(state(seq, "i").mat, ground().mat, atol=1e-14)

    def test_dataset9_carries_branch_phase(self):
        seq = sequence(dataset(9).spec())
        rho = state(seq, "ii")
        encoded = encode_two_qubit(dataset(9).spec())
        assert fidelity(rho, pure_density(encoded)) >= 1.0 - 1e-9
        # The coherence between the branches shows the e^{i gamma2} factor.
        plain = pure_density(encode_two_qubit(dataset(5).spec()))
        assert fidelity(rho, plain) < 1.0 - 1e-3

    def test_checkpoints_cover_all_labels(self):
        seq = sequence(dataset(2).spec())
        assert list(seq.cuts) == ["i", "ii", "iii", "iv", "v"]
        assert seq.cuts["v"] == len(seq.events)


PHASES = st.floats(0.0, 2 * math.pi, exclude_max=True)
# theta = 0 drops a controlled rotation; theta <= 2.7 keeps |<0|psi>| >= 0.2.
THETAS = st.one_of(st.just(0.0), st.floats(1e-3, 2.7))


@st.composite
def spec_rows(draw):
    """Weights (T, 2) and Bloch angles (T, 2, 3) whose programs mix skeletons:
    b = 0, theta = 0 and gamma1 = gamma2 each drop a block."""
    weights, angles = [], []
    for _ in range(draw(st.integers(1, 6))):
        delta = draw(st.one_of(st.just(0.0), st.floats(0.05, math.pi / 2)))
        a, b = math.cos(delta), math.sin(delta)
        weights.append((a * cmath.exp(1j * draw(PHASES)), b * cmath.exp(1j * draw(PHASES))))
        gamma1 = draw(PHASES)
        gamma2 = draw(st.one_of(st.just(gamma1), PHASES))
        angles.append([(draw(THETAS), draw(PHASES), gamma1), (draw(THETAS), draw(PHASES), gamma2)])
    return weights, angles


def event_list(spec, sys=SYS):
    """The scalar event-list compiler that the array compiler replaced, kept as
    its reference: (kind, spin, flip angle, axis phase, duration) per event, and
    the cuts."""
    two_pi, tol = 2.0 * math.pi, 1e-12
    mag_a, mag_b = abs(spec.weight_a), abs(spec.weight_b)
    delta = math.atan2(mag_b, mag_a)
    g1 = spec.psi1.gamma + (cmath.phase(spec.weight_a) if mag_a > 0 else 0.0)
    g2 = spec.psi2.gamma + (cmath.phase(spec.weight_b) if mag_b > 0 else 0.0)
    tau = 1.0 / (2.0 * sys.j_hz)
    events, cuts = [], {}

    def composite_z(angle):
        angle = math.remainder(angle, two_pi)
        if abs(angle) >= tol:
            y_axis = math.pi / 2 if angle > 0 else 3 * math.pi / 2
            events.extend([
                ("rf", "A", math.pi / 2, math.pi, 0.0),
                ("rf", "A", abs(angle), y_axis, 0.0),
                ("rf", "A", math.pi / 2, 0.0, 0.0),
            ])

    if abs(delta) >= tol:
        events.append(("rf", "A", 2 * delta, (math.pi / 2 + (g2 - g1)) % two_pi, 0.0))
    cuts["i"] = len(events)
    for control, psi in enumerate((spec.psi1, spec.psi2)):
        if abs(psi.theta) >= tol:
            axis = psi.phi + math.pi / 2
            conj = axis + (math.pi / 2 if control == 0 else -math.pi / 2)
            echo, delay = ("rf", "A", math.pi, 0.0, 0.0), ("delay", None, 0.0, 0.0, tau)
            events.extend([
                ("rf", "X", psi.theta / 2, axis % two_pi, 0.0),
                delay,
                ("rf", "X", psi.theta / 2, conj % two_pi, 0.0),
                echo,
                delay,
                echo,
            ])
    cuts["ii"] = len(events)
    composite_z(spec.psi1.gamma - spec.psi2.gamma)
    cuts["iii"] = len(events)
    events.append(("rf", "A", math.pi / 2, 3 * math.pi / 2, 0.0))
    composite_z(math.pi)
    cuts["iv"] = len(events)
    events.append(("gradient", None, 0.0, 0.0, 0.0))
    cuts["v"] = len(events)
    return events, cuts


def assert_round_trips(program):
    """Every row's sequence JSON is a fixed point of from_json then to_json, and
    reads back as the row's emitted events, bitwise the same values."""
    for k, emitted in enumerate(program.emitted):
        seq = program.to_json(k)
        back = PulseProgram.from_json(json.loads(json.dumps(seq)), program.system)
        assert back.to_json() == seq
        assert back.events == tuple(e for e, on in zip(program.events, emitted) if on)
        assert back.emitted.all() and back.emitted.shape == (1, emitted.sum())
        for key in VALUE_FIELDS:
            column = getattr(program, key)[k, emitted]
            assert getattr(back, key)[0].tobytes() == column.tobytes(), key


def specs_of(rows) -> list[SuperpositionSpec]:
    weights, angles = rows
    return [
        SuperpositionSpec(w[0], w[1], *(QubitParams(*a) for a in pair))
        for w, pair in zip(weights, angles)
    ]


def all_block_codes():
    """16 specs, spec `code` with block b+1 (2 delta, theta1, theta2, the
    z-composite) present iff bit b of code is set."""
    weights, angles = [], []
    for code in range(16):
        on = [bool(code >> bit & 1) for bit in range(4)]
        weights.append((INV_SQRT2, INV_SQRT2) if on[0] else (1.0, 0.0))
        gamma2 = 1.0 if on[3] else 0.0
        angles.append([(0.9 * on[1], 0.3, 0.0), (1.1 * on[2], 0.2, gamma2)])
    return weights, angles


class TestArrayCompiler:
    def check_against_event_list(self, specs, program):
        assert program.flip_angle.shape == (len(specs), len(program.events))
        for k, spec in enumerate(specs):
            events, cuts = event_list(spec)
            on = program.emitted[k]
            assert program.to_json(k)["checkpoints"] == cuts
            assert tuple(e for e, keep in zip(program.events, on) if keep) == tuple(
                (kind, spin) for kind, spin, *_ in events
            )
            flip, axis, duration = (np.array([e[i] for e in events]) for i in (2, 3, 4))
            np.testing.assert_allclose(program.flip_angle[k, on], flip, rtol=0, atol=1e-14)
            np.testing.assert_allclose(program.duration[k, on], duration, rtol=0, atol=1e-14)
            # Axis phases are angles: 2 pi - 1e-16 and 0 are one axis.
            gap = np.remainder(program.axis_phase[k, on] - axis + math.pi, 2 * math.pi) - math.pi
            assert np.max(np.abs(gap), initial=0.0) <= 1e-14
            # An absent event is an exact identity.
            assert not program.flip_angle[k, ~on].any() and not program.duration[k, ~on].any()

    def test_table1_matches_event_list(self):
        program = compile_sequence(table1_batch(), SYS)
        self.check_against_event_list([ds.spec() for ds in TABLE1], program)

    @settings(max_examples=60, deadline=None)
    @given(spec_rows())
    def test_batch_matches_event_list(self, rows):
        program = compile_sequence(spec_batch(*rows), SYS)
        self.check_against_event_list(specs_of(rows), program)

    def test_block_tests_pick_emitted_events(self):
        # The four block tests pick each row's events: 16 specs, every block
        # code, in one program; row k's JSON drops exactly its absent blocks.
        weights, angles = all_block_codes()
        program = compile_sequence(spec_batch(weights, angles), SYS)
        assert program.events == nmr._EVENTS and program.emitted.shape == (16, 21)
        for code, emitted in enumerate(program.emitted):
            present = [bool(code >> bit & 1) for bit in range(4)] + [True] * 3
            assert emitted.tolist() == [present[b] for b in nmr._BLOCK_OF]
            kept = [nmr._BLOCK_OF.count(b) for b, on in enumerate(present) if on]
            assert len(program.to_json(code)["events"]) == sum(kept)
        self.check_against_event_list(specs_of((weights, angles)), program)

    @settings(max_examples=60, deadline=None)
    @given(spec_rows())
    def test_batch_matches_kernel_and_solo_runs(self, rows):
        # At (iv): the trace is the kernel's direct success probability, the
        # normalized ancilla-|0> block is the target, and each row is its own run.
        batch = spec_batch(*rows)
        branches, targets = run_direct_batch(batch)
        success = kernel.norm_sq(branches[:, 0])
        assume(np.all(success >= 1e-6))
        _, goal, _ = outcomes(branches[:, 0], targets)
        mats = run_sequence(compile_sequence(batch, SYS), "iv")
        blocks, norms = partial_tomography(mats)
        assert np.max(np.abs(norms - success)) <= 1e-9
        assert np.min(fidelity_batch(blocks, pure_density_batch(goal))) >= 1.0 - 1e-9
        for t in range(len(mats)):
            alone = spec_batch(batch.weights[t : t + 1], batch.angles[t : t + 1])
            solo = run_sequence(compile_sequence(alone, SYS), "iv")[0]
            assert np.max(np.abs(mats[t] - solo)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(PHASES, PHASES), min_size=1, max_size=8))
    @example([
        (math.pi, 0.0), (0.0, math.pi),
        (math.nextafter(math.pi, 4.0), 0.0), (math.nextafter(math.pi, 0.0), 0.0),
        (0.0, math.nextafter(math.pi, 4.0)), (0.0, math.nextafter(math.pi, 0.0)),
        (math.nextafter(2 * math.pi, 0.0), 0.0), (0.0, math.nextafter(2 * math.pi, 0.0)),
        (0.0, 0.0), (-0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324),
    ])
    def test_z_composite_angle_is_the_remainder(self, gammas):
        # gamma1 - gamma2 reduced into [-pi, pi] by math.remainder, bit for bit:
        # |z| is the flip angle and its sign picks the y axis. A z of +-0.0 has
        # no z-composite, so the sign of a zero is not visible.
        weights = [(INV_SQRT2, INV_SQRT2)] * len(gammas)
        angles = [[(0.9, 0.3, g1), (1.1, 0.2, g2)] for g1, g2 in gammas]
        program = compile_sequence(spec_batch(weights, angles), SYS)
        e = nmr._BLOCK_OF.index(3) + 1  # the composite's R_y(z)
        z = [math.remainder(g1 - g2, 2 * math.pi) for g1, g2 in gammas]
        on = program.emitted[:, e]
        assert on.tolist() == [abs(r) >= 1e-12 for r in z]
        assert program.flip_angle[on, e].tolist() == [abs(r) for r in z if abs(r) >= 1e-12]
        axes = [math.pi / 2 if r > 0 else 3 * math.pi / 2 for r in z if abs(r) >= 1e-12]
        assert program.axis_phase[on, e].tolist() == axes

    def test_table1_rows_round_trip_json(self):
        assert_round_trips(compile_sequence(table1_batch(), SYS))

    @settings(max_examples=60, deadline=None)
    @given(spec_rows(), SPIN_SYSTEMS)
    def test_rows_round_trip_json(self, rows, sys):
        assert_round_trips(compile_sequence(spec_batch(*rows), sys))


def column_fill(batch, sys):
    """The per-call column fill that compile_sequence used before its read-only
    template, kept as its reference: every event's (flip angle, axis phase,
    duration) column built and written in every call. Returns the program's
    emitted mask and its three (T, E) arrays."""
    two_pi = 2.0 * math.pi
    theta, phi, gamma = batch.angles.transpose(2, 0, 1)
    mag = np.abs(batch.weights)
    delta = np.arctan2(mag[:, 1], mag[:, 0])
    g = gamma + np.where(mag > 0, np.angle(batch.weights), 0.0)
    rel = g[:, 1] - g[:, 0]
    tau = 1.0 / (2.0 * sys.j_hz)
    z = gamma[:, 0] - gamma[:, 1]
    z = np.where(np.abs(z) > math.pi, z - np.copysign(two_pi, z), z)
    axis = phi + math.pi / 2
    conj_axis = axis + [math.pi / 2, -math.pi / 2]

    def controlled_rotation(theta, axis, conj_axis):
        echo, delay, half = (math.pi, 0.0, 0.0), (0.0, 0.0, tau), theta / 2
        pulses = [(half, axis % two_pi, 0.0), (half, conj_axis % two_pi, 0.0)]
        return [pulses[0], delay, pulses[1], echo, delay, echo]

    def composite_z(angle):
        y_axis = np.where(angle > 0, math.pi / 2, 3 * math.pi / 2)
        quarter = math.pi / 2
        return [(quarter, math.pi, 0.0), (np.abs(angle), y_axis, 0.0), (quarter, 0.0, 0.0)]

    columns = [(2 * delta, (math.pi / 2 + rel) % two_pi, 0.0)]
    for k in range(2):
        columns += controlled_rotation(theta[:, k], axis[:, k], conj_axis[:, k])
    columns += composite_z(z)
    columns += [(math.pi / 2, 3 * math.pi / 2, 0.0)]
    columns += composite_z(math.remainder(math.pi, two_pi))
    columns += [(0.0, 0.0, 0.0)]
    flip, axis_phase, duration = np.empty((3, len(delta), len(nmr._EVENTS)))
    for e, (f, p, d) in enumerate(columns):
        flip[:, e], axis_phase[:, e], duration[:, e] = f, p, d
    tests = np.abs(np.stack([delta, theta[:, 0], theta[:, 1], z], axis=1)) >= 1e-12
    emitted = np.concatenate([tests, np.ones((len(tests), 3), bool)], axis=1)[:, nmr._BLOCK_OF]
    skipped = ~emitted
    flip[skipped] = duration[skipped] = 0.0
    return emitted, flip, axis_phase, duration


@st.composite
def gamma_pairs(draw):
    """(gamma1, gamma2): equal (no z-composite), any, or |gamma1 - gamma2| within
    an ulp of pi, where the remainder's sign and the R_y axis turn over."""
    kind = draw(st.sampled_from(["equal", "any", "near_pi"]))
    if kind != "near_pi":
        gamma1 = draw(PHASES)
        return gamma1, gamma1 if kind == "equal" else draw(PHASES)
    low = draw(st.floats(0.0, math.pi - 1e-6))
    high = low + math.pi
    high = draw(st.sampled_from([math.nextafter(high, 0.0), high, math.nextafter(high, 7.0)]))
    return (low, high) if draw(st.booleans()) else (high, low)


@st.composite
def compile_rows(draw):
    """Weights (T, 2) and Bloch angles (T, 2, 3) with skipped blocks (delta = 0,
    theta_k = 0, z = 0) and |z| near pi."""
    weights, angles = [], []
    for _ in range(draw(st.integers(1, 8))):
        delta = draw(st.one_of(st.just(0.0), st.floats(0.05, math.pi / 2)))
        a, b = math.cos(delta), math.sin(delta)
        weights.append((a * cmath.exp(1j * draw(PHASES)), b * cmath.exp(1j * draw(PHASES))))
        gamma1, gamma2 = draw(gamma_pairs())
        angles.append([(draw(THETAS), draw(PHASES), gamma1), (draw(THETAS), draw(PHASES), gamma2)])
    return weights, angles


class TestTemplateCompiler:
    """compile_sequence writes only the row-dependent columns over a read-only
    template; every field keeps the bits of the per-call column fill."""

    def assert_same_bits(self, batch, sys):
        program = compile_sequence(batch, sys)
        assert program.events == nmr._EVENTS and program.cuts == nmr._CUTS
        for key, want in zip(ARRAY_FIELDS, column_fill(batch, sys)):
            got = getattr(program, key)
            assert got.dtype == want.dtype and np.array_equal(got, want), key
            assert np.array_equal(np.signbit(got), np.signbit(want)), key

    def test_table1_same_bits(self):
        self.assert_same_bits(table1_batch(), SYS)

    def test_all_block_codes_same_bits(self):
        self.assert_same_bits(spec_batch(*all_block_codes()), SYS)

    @settings(max_examples=150, deadline=None)
    @given(compile_rows(), SPIN_SYSTEMS)
    def test_batch_same_bits(self, rows, sys):
        self.assert_same_bits(spec_batch(*rows), sys)

    def test_table_places_the_written_columns(self):
        # The X pulses are exactly the four half-angle pulses, psi1's two in
        # block 1 and then psi2's two in block 2; the delays are exactly the
        # four tau, two in each; R_y(|z|) is block 3's middle event; blocks 4-6
        # are gated by the always-true test.
        events, block_of = nmr._EVENTS, np.array(nmr._BLOCK_OF)
        x_pulses = [e for e, event in enumerate(events) if event == ("rf", "X")]
        delays = [e for e, (kind, _) in enumerate(events) if kind == "delay"]
        assert nmr._HALVES.tolist() == x_pulses and block_of[x_pulses].tolist() == [1, 1, 2, 2]
        assert nmr._TAUS.tolist() == delays and block_of[delays].tolist() == [1, 1, 2, 2]
        for b in (1, 2):
            block = np.flatnonzero(block_of == b)
            assert [events[e] for e in block[[0, 2]]] == [("rf", "X")] * 2
        composite = np.flatnonzero(block_of == 3).tolist()
        assert len(composite) == 3 and nmr._R_Y == composite[1]
        gated = block_of < 4
        assert np.array_equal(nmr._BLOCK_TEST[gated], block_of[gated])
        assert set(nmr._BLOCK_TEST[~gated].tolist()) == {4}

    def test_template_is_read_only(self):
        assert nmr._TEMPLATE.shape == (3, len(nmr._EVENTS))
        assert not nmr._TEMPLATE.flags.writeable
        with pytest.raises(ValueError):
            nmr._TEMPLATE[0, 0] = 1.0
        # A compiled program's arrays are its own, not the template.
        program = compile_sequence(table1_batch(), SYS)
        program.flip_angle[:] = 7.0
        assert not np.any(nmr._TEMPLATE == 7.0)


class TestRunSequence:
    @pytest.mark.parametrize("dataset_id", [1, 4, 6, 9])
    def test_checkpoint_ii_matches_encoded_state(self, dataset_id):
        spec = dataset(dataset_id).spec()
        rho = state(sequence(spec), "ii")
        assert fidelity(rho, pure_density(encode_two_qubit(spec))) >= 1.0 - 1e-9

    @pytest.mark.parametrize("dataset_id", [1, 4, 6, 9])
    def test_checkpoint_iv_matches_preselection_state(self, dataset_id):
        spec = dataset(dataset_id).spec()
        rho = state(sequence(spec), "iv")
        batch = spec.batch
        rows = kernel.direct(batch.weights, batch.states, batch.angles[:, :, 2])
        gate = StateVector((2, 2), rows.reshape(-1))
        assert fidelity(rho, pure_density(gate)) >= 1.0 - 1e-9

    def test_no_pulses_keeps_ground_state(self):
        # No rf events: every checkpoint stays |00><00| (delays act trivially).
        for events in ([], [{"kind": "delay", "duration": 1e-3}]):
            cuts = {label: len(events) for label in ("i", "ii", "iii", "iv", "v")}
            seq = {"events": events, "checkpoints": cuts}
            for label in ("i", "ii", "iii", "iv", "v"):
                states = run_sequence(stack([seq] * 2), label)
                np.testing.assert_allclose(states, [ground().mat] * 2, atol=1e-14)

    def test_checkpoint_v_is_crushed_iv(self):
        seq = sequence(dataset(3).spec())
        np.testing.assert_allclose(
            state(seq, "v").mat, gradient_crush(state(seq, "iv")).mat, atol=1e-14
        )

    def test_mixed_start_blends_linearly(self):
        seq = sequence(dataset(5).spec())
        eps = 0.9
        for label in ("ii", "iv"):
            mixed = run_sequence(seq, label, epsilon=eps)[0]
            blended = eps * state(seq, label).mat + (1 - eps) * np.eye(4) / 4.0
            np.testing.assert_allclose(mixed, blended, atol=1e-12)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ArgumentError):
            initial_state(1.5)

    @pytest.mark.parametrize("epsilon", [1.0, 0.3])
    @pytest.mark.parametrize("ds", TABLE1, ids=lambda d: f"dataset{d.dataset_id}")
    def test_datasets_match_event_fold(self, ds, epsilon):
        program = compile_sequence(ds.spec().batch, SYS)
        reference = fold(row_sequences(program)[0], SYS, epsilon)
        assert list(reference) == list(CHECKPOINT_LABELS)
        for label, rho in reference.items():
            mat = run_sequence(program, label, epsilon)[0]
            assert np.max(np.abs(mat - rho.mat)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(sequences(), SPIN_SYSTEMS, st.floats(0.0, 1.0))
    def test_propagators_match_event_fold(self, seq, sys, epsilon):
        reference = fold(seq, sys, epsilon)
        program = PulseProgram.from_json(seq, sys)
        assert sorted(reference) == sorted(seq["checkpoints"])
        for label in CHECKPOINT_LABELS:
            if label not in seq["checkpoints"]:
                with pytest.raises(ArgumentError, match=f"no checkpoint '{label}'"):
                    run_sequence(program, label, epsilon)
                continue
            mats = run_sequence(program, label, epsilon)
            assert mats.shape == (1, 4, 4)
            assert np.max(np.abs(mats[0] - reference[label].mat)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(skeleton_batches(), SPIN_SYSTEMS, st.floats(0.0, 1.0))
    def test_batch_rows_match_run_sequence(self, seqs, sys, epsilon):
        # Mixed skeletons, each skeleton's rows run as one program: each row
        # equals its own run and the event fold.
        groups: dict = {}
        for seq in seqs:
            program = PulseProgram.from_json(seq, sys)
            groups.setdefault((program.events, tuple(program.cuts.items())), []).append(seq)
        for group in groups.values():
            folds = [fold(seq, sys, epsilon) for seq in group]
            for label in group[0]["checkpoints"]:
                batch = run_sequence(stack(group, sys), label, epsilon)
                assert batch.shape == (len(group), 4, 4)
                for t, seq in enumerate(group):
                    alone = run_sequence(stack([seq], sys), label, epsilon)[0]
                    assert np.max(np.abs(batch[t] - alone)) <= 1e-12
                    assert np.max(np.abs(batch[t] - folds[t][label].mat)) <= 1e-12

    @pytest.mark.parametrize("epsilon", [1.0, 0.3])
    def test_table1_batch_matches_event_fold(self, epsilon):
        program = compile_sequence(table1_batch(), SYS)
        assert sorted(program.emitted.sum(axis=1).tolist()) == [12] * 5 + [18] * 4 + [21] * 2
        folds = [fold(seq, SYS, epsilon) for seq in row_sequences(program)]
        for label in CHECKPOINT_LABELS:
            batch = run_sequence(program, label, epsilon)
            for t, reference in enumerate(folds):
                assert np.max(np.abs(batch[t] - reference[label].mat)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(sequences(), SPIN_SYSTEMS, st.floats(0.0, 1.0))
    def test_certified_states_are_positive(self, seq, sys, epsilon):
        # What the certificate proves, checked here instead of at run time.
        program = PulseProgram.from_json(seq, sys)
        for label in seq["checkpoints"]:
            mat = run_sequence(program, label, epsilon)[0]
            assert np.max(np.abs(mat - mat.conj().T)) <= ATOL
            assert np.min(np.linalg.eigvalsh(mat)) >= PSD_FLOOR

    @pytest.mark.parametrize("events", [[], [{"kind": "gradient"}] * 2], ids=["empty", "gradients"])
    def test_start_state_gets_fresh_rows(self, events):
        # No rotation or delay gives the start state its row axis.
        program = stack([{"events": events, "checkpoints": {"v": len(events)}}] * 3)
        start = np.tile(initial_state(0.3), (3, 1, 1))
        mats, again = (run_sequence(program, "v", 0.3) for _ in range(2))
        assert mats.shape == (3, 4, 4) and mats.flags.writeable
        assert np.array_equal(mats, start) and not np.shares_memory(mats, again)
        mats[0] = 0.0
        assert np.array_equal(again, start)

    def test_every_sequence_needs_the_checkpoint(self):
        # Gradients only: no rf pulse or delay gives the states a row axis.
        seq = {"events": [{"kind": "gradient"}], "checkpoints": {"ii": 1}}
        assert run_sequence(stack([seq] * 2), "ii").shape == (2, 4, 4)
        with pytest.raises(ArgumentError, match="the sequence has no checkpoint 'i'"):
            run_sequence(stack([seq] * 2), "i")

    def test_batch_validates_its_states(self, monkeypatch):
        # A defect in the propagation is caught by the propagators' certificate.
        program = compile_sequence(table1_batch(), SYS)
        phases = nmr._delay_phases
        monkeypatch.setattr(nmr, "_delay_phases", lambda sys, t: 1.1 * phases(sys, t))
        with pytest.raises(ArgumentError, match="propagator is not unitary"):
            run_sequence(program, "iv")

    def test_certificate_refuses_nan(self):
        # NaN fails every comparison, the certificate's too.
        program = sequence(dataset(6).spec())
        axis_phase = program.axis_phase.copy()
        axis_phase[0, 0] = math.nan
        with pytest.raises(ArgumentError, match="a pulse propagator is not unitary"):
            run_sequence(program._replace(axis_phase=axis_phase), "iv")

    @staticmethod
    def scale_one_rotation(monkeypatch, scale, row=3):
        """Make the first rotation of one row non-unitary: scaled by ``scale``."""
        rotation = nmr.rotation_matrix

        def scaled(*angles):
            r = rotation(*angles)
            r[row, 0] *= scale
            return r

        monkeypatch.setattr(nmr, "rotation_matrix", scaled)

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    @pytest.mark.parametrize("label", CHECKPOINT_LABELS)
    def test_certificate_refuses_a_scaled_rotation(self, monkeypatch, scale, label):
        program = compile_sequence(table1_batch(), SYS)
        self.scale_one_rotation(monkeypatch, scale)
        with pytest.raises(ArgumentError, match="propagator is not unitary"):
            run_sequence(program, label)

    def test_certificate_sees_what_eigvalsh_does_not(self, monkeypatch):
        # Shrinking a rotation keeps the state positive; only its trace, 0.81
        # of a unit trace, is wrong, and no state check can know that.
        program = compile_sequence(table1_batch(), SYS)
        self.scale_one_rotation(monkeypatch, 0.9)
        monkeypatch.setattr(nmr, "ATOL", math.inf)
        traces = [DensityMatrix((2, 2), m).trace for m in run_sequence(program, "iv")]
        assert traces[3] == pytest.approx(0.81, abs=1e-12)

    def test_certificate_replaces_eigvalsh(self, monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
        program = compile_sequence(table1_batch(), SYS)
        for label in CHECKPOINT_LABELS:
            run_sequence(program, label, 0.3)
        # Up to the runs whose rounding the certificate bounds.
        program = PulseProgram.from_json(runs_sequence(nmr._CERTIFIED_RUNS), SYS)
        assert run_sequence(program, "v").shape == (1, 4, 4)
        assert calls == []

    def test_refuses_past_the_certified_runs(self):
        runs = nmr._CERTIFIED_RUNS + 1
        program = PulseProgram.from_json(runs_sequence(runs), SYS)
        with pytest.raises(ArgumentError) as refused:
            run_sequence(program, "v")
        assert str(refused.value) == (
            f"checkpoint 'v' comes after {runs} gradient-separated runs; "
            f"the unitarity certificate covers at most {nmr._CERTIFIED_RUNS}"
        )
        # The same file's checkpoint before its last run is still certified.
        assert run_sequence(program, "iv").shape == (1, 4, 4)


class TestAbsentBlocks:
    """A block a spec skips stays in its program as exact identities, so each
    row runs as its own sequence JSON does."""

    def assert_rows_run_as_their_json(self, batch, epsilons):
        program = compile_sequence(batch, SYS)
        solo = [PulseProgram.from_json(seq, SYS) for seq in row_sequences(program)]
        for epsilon in epsilons:
            for label in CHECKPOINT_LABELS:
                mats = run_sequence(program, label, epsilon)
                for k, alone in enumerate(solo):
                    gap = np.abs(mats[k] - run_sequence(alone, label, epsilon)[0])
                    assert np.max(gap) <= 1e-15, (k, label, epsilon)

    def test_table1_rows_run_as_their_json(self):
        self.assert_rows_run_as_their_json(table1_batch(), (1.0, 0.3))

    @settings(max_examples=40, deadline=None)
    @given(spec_rows(), st.floats(0.0, 1.0))
    def test_mixed_block_codes_run_as_their_json(self, rows, epsilon):
        # Every block code, then the drawn rows: b = 0, theta = 0 and
        # gamma1 = gamma2 each drop a block.
        weights, angles = all_block_codes()
        batch = spec_batch(weights + list(rows[0]), angles + list(rows[1]))
        self.assert_rows_run_as_their_json(batch, (1.0, 0.3, epsilon))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_zero_flip_is_identity(self, axis_phase):
        assert np.array_equal(rotation_matrix(0.0, axis_phase), nmr.EYE2)

    @given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    def test_zero_delay_is_identity(self, j_coupling):
        assert np.array_equal(nmr._delay_phases(SpinSystem(j_coupling), 0.0), np.ones(4))


class TestSequenceUnitary:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(RF_EVENTS, DELAYS), max_size=12), SPIN_SYSTEMS)
    def test_ordered_product_of_events(self, events, sys):
        expected = np.eye(4, dtype=complex)
        for event in events:
            if event["kind"] == "rf":
                step = pulse_unitary(event["spin"], event["flip_angle"], event["axis_phase"])
            else:
                step = delay_unitary(sys, event["duration"])
            expected = step @ expected
        np.testing.assert_allclose(unitary(events, sys), expected, rtol=0, atol=1e-12)


class TestPartialTomography:
    def test_ground_state(self):
        blocks, norms = partial_tomography(ground().mat[None])
        assert norms[0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(blocks[0], [[1, 0], [0, 0]], atol=1e-14)

    def test_dataset1_checkpoint_iv(self):
        spec = dataset(1).spec()
        qubit, norm = readout(spec)
        assert norm == pytest.approx(0.8535533905932738, abs=1e-9)
        assert fidelity(qubit, gate_target(spec)) >= 1.0 - 1e-9

    def test_dataset11_small_overlap(self):
        spec = dataset(11).spec()
        qubit, _ = readout(spec)
        assert fidelity(qubit, gate_target(spec)) >= 1.0 - 1e-9

    def test_batch_rows_match_scalar(self):
        mats = run_sequence(compile_sequence(table1_batch(), SYS), "iv")
        blocks, norms = partial_tomography(mats)
        for t in range(len(TABLE1)):
            block, norm = partial_tomography(mats[t : t + 1])
            np.testing.assert_array_equal(blocks[t], block[0])
            assert norms[t] == norm[0]

    def test_batch_rejects_one_empty_block(self):
        mats = np.stack([ground().mat] * 3)
        mats[1] = np.diag([0.0, 0.0, 1.0, 0.0])
        with pytest.raises(DegenerateInputError):
            partial_tomography(mats)

    def test_empty_block_rejected(self):
        mat = np.zeros((4, 4))
        mat[2, 2] = 1.0
        with pytest.raises(DegenerateInputError):
            partial_tomography(mat[None])


class TestGatePulseEquivalence:
    @pytest.mark.parametrize("ds", TABLE1, ids=lambda d: f"dataset{d.dataset_id}")
    def test_all_datasets(self, ds):
        gate = run_direct(ds.spec())
        qubit, norm = readout(ds.spec())
        assert fidelity(qubit, pure_density(gate.final_state)) >= 1.0 - 1e-6
        assert abs(norm - gate.success_prob) <= 1e-6

    def test_program_runs_at_the_coupling_it_was_built_for(self):
        # Compiled at J = 200 Hz, its 1/(2J) delays meet that J with no J passed
        # to run_sequence; a row read back at the same J runs the same.
        sys = SpinSystem(2.0 * math.pi * 200.0)
        program = compile_sequence(table1_batch(), sys)
        assert program.system is sys
        mats = run_sequence(program, "iv")
        blocks, norms = partial_tomography(mats)
        rows, targets = run_direct_batch(table1_batch())
        goal = pure_density_batch(unit_rows(targets))
        assert fidelity_batch(blocks, goal).min() >= 1.0 - 1e-6
        np.testing.assert_allclose(norms, kernel.norm_sq(rows[:, 0]), rtol=0, atol=1e-6)
        for k, seq in enumerate(row_sequences(program)):
            back = PulseProgram.from_json(seq, sys)
            assert back.system is sys
            assert np.max(np.abs(run_sequence(back, "iv")[0] - mats[k])) <= 1e-15


class TestPulseIdentities:
    def test_pseudo_hadamard_compensation(self):
        # R_z(pi) . R_{-y}(pi/2) equals the Hadamard up to a global phase.
        h = rotation_matrix(math.pi / 2, 3 * math.pi / 2)
        rz = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert_equal_up_to_phase(rz @ h, hadamard.astype(complex))

    def test_delay_is_conditional_z(self):
        # 1/(2J) of free evolution = |0><0| R_z(pi/2) + |1><1| R_z(-pi/2).
        tau = 1.0 / (2.0 * SYS.j_hz)
        u = delay_unitary(SYS, tau)
        cond = np.zeros((4, 4), dtype=complex)
        cond[:2, :2] = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
        cond[2:, 2:] = np.diag([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)])
        np.testing.assert_allclose(u, cond, atol=1e-12)

    def test_unitary_events_preserve_trace_and_purity(self, rng):
        rho = random_density(rng)
        seq = sequence(dataset(6).spec())
        for event in seq.to_json()["events"]:
            if event["kind"] == "gradient":
                continue
            out = apply_event(rho, event, SYS)
            assert out.trace == pytest.approx(rho.trace, abs=1e-12)
            assert purity(out) == pytest.approx(purity(rho), abs=1e-12)


class TestEventValidation:
    def test_zero_flip_angle(self):
        with pytest.raises(ArgumentError, match=r"rf flip angle must lie in \(0, 2pi\]"):
            parse([rf(flip_angle=0.0)])

    def test_flip_angle_above_two_pi(self):
        with pytest.raises(ArgumentError, match=r"rf flip angle must lie in \(0, 2pi\]"):
            parse([rf(flip_angle=7.0)])

    def test_bad_spin(self):
        with pytest.raises(ArgumentError, match="rf spin must be A, X or both, got B"):
            parse([rf(spin="B")])

    def test_negative_delay(self):
        with pytest.raises(ArgumentError, match="delay duration must be finite and nonnegative"):
            parse([{"kind": "delay", "duration": -1.0}])

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_delay_and_axis(self, value):
        with pytest.raises(ArgumentError, match="delay duration must be finite and nonnegative"):
            parse([{"kind": "delay", "duration": value}])
        with pytest.raises(ArgumentError, match="rf pulses need a finite axis phase"):
            parse([rf(axis_phase=value)])

    def test_unknown_kind(self):
        with pytest.raises(ArgumentError, match="unknown event kind 'laser'"):
            parse([{"kind": "laser"}])

    def test_checkpoint_out_of_range(self):
        with pytest.raises(ArgumentError, match=r"checkpoint cuts \[1\] out of range"):
            parse([], {"i": 1})

    def test_checkpoint_decreasing(self):
        gradients = [{"kind": "gradient"}] * 2
        with pytest.raises(ArgumentError, match="checkpoint cuts must be non-decreasing"):
            parse(gradients, {"i": 2, "ii": 1})

    def test_unknown_label(self):
        with pytest.raises(ArgumentError, match=r"unknown checkpoint labels \['vi'\]"):
            parse([], {"vi": 0})

    @pytest.mark.parametrize("cut", [1.9, 1.0, True, "1"])
    def test_non_integer_cut_rejected(self, cut):
        # A cut counts whole events; "iv": 1.9 must not run as cut 1.
        with pytest.raises(ArgumentError) as exc:
            parse([{"kind": "gradient"}] * 2, {"iv": cut})
        assert "'iv'" in str(exc.value) and repr(cut) in str(exc.value)

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([1], "malformed pulse sequence JSON"),
            ({"checkpoints": {}}, "malformed pulse sequence JSON: 'events'"),
            ({"events": [], "checkpoints": [0]}, "malformed pulse sequence JSON"),
            ({"events": [{"spin": "A"}], "checkpoints": {}}, "malformed pulse event JSON: 'kind'"),
            ({"events": [[1]], "checkpoints": {}}, "malformed pulse event JSON"),
        ],
    )
    def test_malformed_json(self, obj, message):
        with pytest.raises(ArgumentError, match=message):
            PulseProgram.from_json(obj, SYS)

    def test_json_round_trip(self):
        program = sequence(dataset(9).spec())
        back = PulseProgram.from_json(program.to_json(), SYS)
        assert back.cuts == program.cuts and back.events == program.events
        for key in VALUE_FIELDS:
            np.testing.assert_array_equal(getattr(back, key), getattr(program, key))
