"""Pulse-level simulation: Hamiltonian, pulses, compiler, readout."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsuperpose import kernel, nmr
from qsuperpose.datasets import TABLE1, dataset
from qsuperpose.direct import SuperpositionSpec, encode_two_qubit, run_direct
from qsuperpose.errors import ArgumentError, DegenerateInputError
from qsuperpose.linalg import DensityMatrix, QubitParams, StateVector, fidelity, pure_density
from qsuperpose.nmr import (
    CHECKPOINT_LABELS,
    PulseEvent,
    PulseSequence,
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
    sequence_unitary,
)

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


def state(seq, label, sys=SYS, epsilon=1.0) -> DensityMatrix:
    """One sequence's state at one checkpoint, as a DensityMatrix."""
    return DensityMatrix((2, 2), run_sequence([seq], sys, label, epsilon)[0])


def readout(spec) -> tuple[DensityMatrix, float]:
    """Partial tomography of a spec's compiled sequence at (iv)."""
    mats = run_sequence([compile_sequence(spec, SYS)], SYS, "iv")
    blocks, norms = partial_tomography(mats)
    return DensityMatrix((2,), blocks[0]), float(norms[0])


def apply_event(rho, event, sys):
    if event.kind == "rf":
        return rf_pulse(rho, event.spin, event.flip_angle, event.axis_phase)
    if event.kind == "delay":
        return evolve_free(rho, sys, event.duration)
    return gradient_crush(rho)


def fold(seq, sys, epsilon):
    """The event-by-event reference: one validated state after every event."""
    rho = initial_state(epsilon)
    states = {label: rho for label, cut in seq.checkpoints.items() if cut == 0}
    for idx, event in enumerate(seq.events, start=1):
        rho = apply_event(rho, event, sys)
        states.update({k: rho for k, cut in seq.checkpoints.items() if cut == idx})
    return states


def hamiltonian(sys):
    """The diagonal two-spin Hamiltonian, from the engine's one energy formula."""
    return np.diag(nmr._energies(sys))


def delay_unitary(sys, t):
    return np.diag(np.exp(-1j * nmr._energies(sys) * t))


RF_EVENTS = st.builds(
    PulseEvent,
    kind=st.just("rf"),
    spin=st.sampled_from(["A", "X", "both"]),
    flip_angle=st.floats(1e-3, 2 * math.pi),
    axis_phase=st.floats(0.0, 2 * math.pi),
)
DELAYS = st.builds(PulseEvent, kind=st.just("delay"), duration=st.floats(0.0, 1e-2))
GRADIENTS = st.just(PulseEvent("gradient"))
SPIN_SYSTEMS = st.builds(SpinSystem, j_coupling=st.floats(10.0, 2e3))


@st.composite
def sequences(draw, events=st.one_of(RF_EVENTS, DELAYS, GRADIENTS)):
    """Any events, with sorted (possibly repeated, possibly 0) cuts."""
    evs = draw(st.lists(events, max_size=12))
    labels = [k for k in CHECKPOINT_LABELS if draw(st.booleans())]
    cuts = sorted(draw(st.integers(0, len(evs))) for _ in labels)
    return PulseSequence(tuple(evs), dict(zip(labels, cuts)))


SKELETON_EVENTS = st.sampled_from(
    [("rf", "A"), ("rf", "X"), ("rf", "both"), ("delay", None), ("gradient", None)]
)


def event_of(kind, spin):
    if kind == "rf":
        return st.builds(
            PulseEvent,
            kind=st.just("rf"),
            spin=st.just(spin),
            flip_angle=st.floats(1e-3, 2 * math.pi),
            axis_phase=st.floats(0.0, 2 * math.pi),
        )
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
            events = tuple(draw(event_of(*kind)) for kind in skeleton)
            seqs.append(PulseSequence(events, cuts))
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
        assert out.purity() == pytest.approx(rho.purity(), abs=1e-12)
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
            assert out.purity() <= rho.purity() + 1e-12
            assert out.trace == pytest.approx(rho.trace, abs=1e-14)


class TestCompileSequence:
    def gate_level_encoding(self, spec):
        """|0><0| x R(psi1) + |1><1| x R(psi2), the compile target."""
        u = np.zeros((4, 4), dtype=complex)
        u[:2, :2] = rotation_matrix(spec.psi1.theta, spec.psi1.phi + math.pi / 2)
        u[2:, 2:] = rotation_matrix(spec.psi2.theta, spec.psi2.phi + math.pi / 2)
        return u

    def encoding_block(self, seq):
        events = seq.events[seq.checkpoints["i"] : seq.checkpoints["ii"]]
        return PulseSequence(events, {})

    @pytest.mark.parametrize("dataset_id", [1, 3, 5, 7, 9, 11])
    def test_encoding_block_matches_gate_level(self, dataset_id):
        ds = dataset(dataset_id)
        spec = ds.spec()
        seq = compile_sequence(spec, SYS)
        net = sequence_unitary(self.encoding_block(seq), SYS)
        assert_equal_up_to_phase(net, self.gate_level_encoding(spec))

    def test_single_weight_empty_initial_block(self):
        spec = SuperpositionSpec(1.0, 0.0, QubitParams(0, 0), QubitParams(1.0, 0.0))
        seq = compile_sequence(spec, SYS)
        assert seq.checkpoints["i"] == 0
        np.testing.assert_allclose(state(seq, "i").mat, ground().mat, atol=1e-14)

    def test_dataset9_carries_branch_phase(self):
        seq = compile_sequence(dataset(9).spec(), SYS)
        rho = state(seq, "ii")
        encoded = encode_two_qubit(dataset(9).spec())
        assert fidelity(rho, pure_density(encoded)) >= 1.0 - 1e-9
        # The coherence between the branches shows the e^{i gamma2} factor.
        plain = pure_density(encode_two_qubit(dataset(5).spec()))
        assert fidelity(rho, plain) < 1.0 - 1e-3

    def test_checkpoints_cover_all_labels(self):
        seq = compile_sequence(dataset(2).spec(), SYS)
        assert list(seq.checkpoints) == ["i", "ii", "iii", "iv", "v"]
        assert seq.checkpoints["v"] == len(seq.events)


class TestRunSequence:
    @pytest.mark.parametrize("dataset_id", [1, 4, 6, 9])
    def test_checkpoint_ii_matches_encoded_state(self, dataset_id):
        spec = dataset(dataset_id).spec()
        rho = state(compile_sequence(spec, SYS), "ii")
        assert fidelity(rho, pure_density(encode_two_qubit(spec))) >= 1.0 - 1e-9

    @pytest.mark.parametrize("dataset_id", [1, 4, 6, 9])
    def test_checkpoint_iv_matches_preselection_state(self, dataset_id):
        spec = dataset(dataset_id).spec()
        rho = state(compile_sequence(spec, SYS), "iv")
        gate = StateVector((2, 2), kernel.direct(*spec.batch[:3]).reshape(-1))
        assert fidelity(rho, pure_density(gate)) >= 1.0 - 1e-9

    def test_no_pulses_keeps_ground_state(self):
        # No rf events: every checkpoint stays |00><00| (delays act trivially).
        for events in ([], [PulseEvent("delay", duration=1e-3)]):
            seq = PulseSequence(
                tuple(events), {label: len(events) for label in ("i", "ii", "iii", "iv", "v")}
            )
            for label in ("i", "ii", "iii", "iv", "v"):
                states = run_sequence([seq] * 2, SYS, label)
                np.testing.assert_allclose(states, [ground().mat] * 2, atol=1e-14)

    def test_checkpoint_v_is_crushed_iv(self):
        seq = compile_sequence(dataset(3).spec(), SYS)
        np.testing.assert_allclose(
            state(seq, "v").mat, gradient_crush(state(seq, "iv")).mat, atol=1e-14
        )

    def test_mixed_start_blends_linearly(self):
        seq = compile_sequence(dataset(5).spec(), SYS)
        eps = 0.9
        for label in ("ii", "iv"):
            mixed = run_sequence([seq], SYS, label, epsilon=eps)[0]
            blended = eps * state(seq, label).mat + (1 - eps) * np.eye(4) / 4.0
            np.testing.assert_allclose(mixed, blended, atol=1e-12)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ArgumentError):
            initial_state(1.5)

    @pytest.mark.parametrize("epsilon", [1.0, 0.3])
    @pytest.mark.parametrize("ds", TABLE1, ids=lambda d: f"dataset{d.dataset_id}")
    def test_datasets_match_event_fold(self, ds, epsilon):
        seq = compile_sequence(ds.spec(), SYS)
        reference = fold(seq, SYS, epsilon)
        assert list(reference) == list(CHECKPOINT_LABELS)
        for label, rho in reference.items():
            mat = run_sequence([seq], SYS, label, epsilon)[0]
            assert np.max(np.abs(mat - rho.mat)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(sequences(), SPIN_SYSTEMS, st.floats(0.0, 1.0))
    def test_propagators_match_event_fold(self, seq, sys, epsilon):
        reference = fold(seq, sys, epsilon)
        assert sorted(reference) == sorted(seq.checkpoints)
        for label in CHECKPOINT_LABELS:
            if label not in seq.checkpoints:
                with pytest.raises(ArgumentError, match=f"no checkpoint '{label}'"):
                    run_sequence([seq], sys, label, epsilon)
                continue
            mats = run_sequence([seq], sys, label, epsilon)
            assert mats.shape == (1, 4, 4)
            assert np.max(np.abs(mats[0] - reference[label].mat)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(skeleton_batches(), SPIN_SYSTEMS, st.floats(0.0, 1.0))
    def test_batch_rows_match_run_sequence(self, seqs, sys, epsilon):
        # Mixed skeletons: each row equals its own run and the event fold.
        folds = [fold(seq, sys, epsilon) for seq in seqs]
        for label in seqs[0].checkpoints:
            batch = run_sequence(seqs, sys, label, epsilon)
            assert batch.shape == (len(seqs), 4, 4)
            for t, seq in enumerate(seqs):
                alone = run_sequence([seq], sys, label, epsilon)[0]
                assert np.max(np.abs(batch[t] - alone)) <= 1e-12
                assert np.max(np.abs(batch[t] - folds[t][label].mat)) <= 1e-12

    @pytest.mark.parametrize("epsilon", [1.0, 0.3])
    def test_table1_batch_matches_event_fold(self, epsilon):
        seqs = [compile_sequence(ds.spec(), SYS) for ds in TABLE1]
        skeletons = {tuple((e.kind, e.spin) for e in seq.events) for seq in seqs}
        assert sorted(len(s) for s in skeletons) == [12, 18, 21]
        folds = [fold(seq, SYS, epsilon) for seq in seqs]
        for label in CHECKPOINT_LABELS:
            batch = run_sequence(seqs, SYS, label, epsilon)
            for t, reference in enumerate(folds):
                assert np.max(np.abs(batch[t] - reference[label].mat)) <= 1e-12

    def test_every_sequence_needs_the_checkpoint(self):
        events = (PulseEvent("gradient"),)
        seqs = [
            PulseSequence(events, {"i": 0, "ii": 1}),
            PulseSequence(events, {"ii": 1}),
        ]
        assert run_sequence(seqs, SYS, "ii").shape == (2, 4, 4)
        with pytest.raises(ArgumentError, match="the sequence has no checkpoint 'i'"):
            run_sequence(seqs, SYS, "i")

    def test_batch_validates_its_states(self, monkeypatch):
        # A defect in the propagation is caught by the one batched check.
        seqs = [compile_sequence(ds.spec(), SYS) for ds in TABLE1[:3]]
        phases = nmr._delay_phases
        monkeypatch.setattr(nmr, "_delay_phases", lambda sys, t: 1.1 * phases(sys, t))
        with pytest.raises(ArgumentError, match="trace .* exceeds 1"):
            run_sequence(seqs, SYS, "iv")


class TestSequenceUnitary:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(RF_EVENTS, DELAYS), max_size=12), SPIN_SYSTEMS)
    def test_ordered_product_of_events(self, events, sys):
        expected = np.eye(4, dtype=complex)
        for event in events:
            if event.kind == "rf":
                step = pulse_unitary(event.spin, event.flip_angle, event.axis_phase)
            else:
                step = delay_unitary(sys, event.duration)
            expected = step @ expected
        net = sequence_unitary(PulseSequence(tuple(events), {}), sys)
        np.testing.assert_allclose(net, expected, rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.one_of(RF_EVENTS, DELAYS), max_size=6), st.data())
    def test_gradient_rejected(self, events, data):
        at = data.draw(st.integers(0, len(events)))
        events.insert(at, PulseEvent("gradient"))
        with pytest.raises(ArgumentError):
            sequence_unitary(PulseSequence(tuple(events), {}), SYS)


class TestPartialTomography:
    def test_ground_state(self):
        blocks, norms = partial_tomography(ground().mat[None])
        assert norms[0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(blocks[0], [[1, 0], [0, 0]], atol=1e-14)

    def test_dataset1_checkpoint_iv(self):
        spec = dataset(1).spec()
        qubit, norm = readout(spec)
        assert norm == pytest.approx(0.8535533905932738, abs=1e-9)
        target = pure_density(run_direct(spec).target_state)
        assert fidelity(qubit, target) >= 1.0 - 1e-9

    def test_dataset11_small_overlap(self):
        spec = dataset(11).spec()
        qubit, _ = readout(spec)
        target = pure_density(run_direct(spec).target_state)
        assert fidelity(qubit, target) >= 1.0 - 1e-9

    def test_batch_rows_match_scalar(self):
        seqs = [compile_sequence(ds.spec(), SYS) for ds in TABLE1]
        mats = run_sequence(seqs, SYS, "iv")
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
        seq = compile_sequence(dataset(6).spec(), SYS)
        for event in seq.events:
            if event.kind == "gradient":
                continue
            out = (
                rf_pulse(rho, event.spin, event.flip_angle, event.axis_phase)
                if event.kind == "rf"
                else evolve_free(rho, SYS, event.duration)
            )
            assert out.trace == pytest.approx(rho.trace, abs=1e-12)
            assert out.purity() == pytest.approx(rho.purity(), abs=1e-12)


class TestEventValidation:
    def test_zero_flip_angle(self):
        with pytest.raises(ArgumentError):
            PulseEvent("rf", spin="A", flip_angle=0.0, axis_phase=0.0)

    def test_flip_angle_above_two_pi(self):
        with pytest.raises(ArgumentError):
            PulseEvent("rf", spin="A", flip_angle=7.0, axis_phase=0.0)

    def test_bad_spin(self):
        with pytest.raises(ArgumentError):
            PulseEvent("rf", spin="B", flip_angle=1.0, axis_phase=0.0)

    def test_negative_delay(self):
        with pytest.raises(ArgumentError):
            PulseEvent("delay", duration=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_delay_and_axis(self, value):
        with pytest.raises(ArgumentError):
            PulseEvent("delay", duration=value)
        with pytest.raises(ArgumentError):
            PulseEvent("rf", spin="A", flip_angle=1.0, axis_phase=value)

    def test_unknown_kind(self):
        with pytest.raises(ArgumentError):
            PulseEvent("laser")

    def test_checkpoint_out_of_range(self):
        with pytest.raises(ArgumentError):
            PulseSequence((), {"i": 1})

    def test_checkpoint_decreasing(self):
        events = (PulseEvent("gradient"), PulseEvent("gradient"))
        with pytest.raises(ArgumentError):
            PulseSequence(events, {"i": 2, "ii": 1})

    def test_unknown_label(self):
        with pytest.raises(ArgumentError):
            PulseSequence((), {"vi": 0})

    @pytest.mark.parametrize("cut", [1.9, 1.0, True, "1"])
    def test_non_integer_cut_rejected(self, cut):
        # A cut counts whole events; "iv": 1.9 must not run as cut 1.
        events = [PulseEvent("gradient").to_json()] * 2
        with pytest.raises(ArgumentError) as exc:
            PulseSequence.from_json({"events": events, "checkpoints": {"iv": cut}})
        assert "'iv'" in str(exc.value) and repr(cut) in str(exc.value)

    def test_json_round_trip(self):
        seq = compile_sequence(dataset(9).spec(), SYS)
        back = PulseSequence.from_json(seq.to_json())
        assert back.checkpoints == seq.checkpoints
        assert len(back.events) == len(seq.events)
        for e1, e2 in zip(back.events, seq.events):
            assert e1 == e2
