"""Gate-level two-qubit protocol: encoding, phase gate, Hadamard, post-selection.

The stages after encoding are the kernel's (``kernel.phase_gate``,
``kernel.fourier_rows``, ``kernel.norm_sq``), applied to the encoded register
as a (1, 2, 2) block whose row j is the ancilla-|j> branch."""
import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsuperpose import kernel
from qsuperpose.datasets import TABLE1, dataset
from qsuperpose.direct import (
    SuperpositionSpec,
    encode_two_qubit,
    outcomes,
    run_direct,
    run_direct_batch,
    spec_batch,
)
from qsuperpose.errors import ArgumentError, DegenerateInputError, ZeroOverlapError
from qsuperpose.linalg import (
    QubitParams,
    StateVector,
    bloch,
    make_qubit,
    unit_rows,
    unit_state,
)

from helpers import phase_equivalent

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def success_oracle(a, b, psi1, psi2):
    """Brute-force ||a psi1 + b psi2||^2 / 2 from raw amplitudes."""
    v = a * psi1 + b * psi2
    return float(np.vdot(v, v).real) / 2.0


def register(spec):
    """The encoded register of a spec as a kernel block (1, 2, 2)."""
    return encode_two_qubit(spec).amps.reshape(1, 2, 2)


def stacked(specs):
    """The specs' T = 1 batches as one spec batch."""
    return spec_batch(*(np.concatenate(x) for x in zip(*[(s.batch.weights, s.batch.angles) for s in specs])))


def phase_gate(block, gamma1, gamma2):
    return kernel.phase_gate(block, np.array([[gamma1, gamma2]]))


def random_spec(rng):
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = w / np.linalg.norm(w)
    angles = lambda: QubitParams(
        float(rng.uniform(0.0, math.pi - 0.01)),
        float(rng.uniform(0.0, 2 * math.pi)),
        float(rng.uniform(0.0, 2 * math.pi)),
    )
    return SuperpositionSpec(complex(w[0]), complex(w[1]), angles(), angles())


# Polar angles keep every state more than 0.44 rad from orthogonal to |0>.
QUBITS = st.builds(
    QubitParams,
    st.floats(0.0, 2.7),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)
SPECS = st.builds(
    lambda delta, beta, psi1, psi2: SuperpositionSpec(
        math.cos(delta), math.sin(delta) * complex(math.cos(beta), math.sin(beta)),
        psi1, psi2,
    ),
    st.floats(0.05, 1.5), st.floats(0.0, 2 * math.pi), QUBITS, QUBITS,
)

PHASES = st.floats(0.0, 2 * math.pi, exclude_max=True)
# theta = 0 and b = 0 each drop a block of the compiled program, and so does
# gamma1 = gamma2; theta <= 3.1 keeps |<0|psi>| >= 0.02.
THETAS = st.one_of(st.just(0.0), st.floats(0.0, 3.1))
GAMMAS = st.one_of(st.just(0.0), PHASES)


@st.composite
def spec_rows(draw):
    """Unit weights (T, 2) and in-range Bloch angles (T, 2, 3)."""
    weights, angles = [], []
    for _ in range(draw(st.integers(1, 6))):
        delta = draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi / 2)))
        a, b = math.cos(delta), math.sin(delta)
        weights.append((a * cmath.exp(1j * draw(PHASES)), b * cmath.exp(1j * draw(PHASES))))
        gamma1 = draw(GAMMAS)
        gamma2 = draw(st.one_of(st.just(gamma1), GAMMAS))
        angles.append([(draw(THETAS), draw(PHASES), gamma1), (draw(THETAS), draw(PHASES), gamma2)])
    return weights, angles


def paired_states(angles):
    """The states, then the states with their declared phases stripped, from one
    bloch call over both (T, 4, 2): the construction SpecBatch once held both from."""
    pairs = np.concatenate([angles, angles * [1.0, 1.0, 0.0]], axis=1)
    return bloch(*pairs.transpose(2, 0, 1))


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(SPECS, min_size=1, max_size=5))
    def test_rows_match_run_direct(self, specs):
        """Row t of the batched gate pipeline is run_direct on specs[t]."""
        rows, targets = run_direct_batch(stacked(specs))
        assume(np.all(np.linalg.norm(rows[:, 0], axis=1) > 1e-6))
        assume(np.all(np.linalg.norm(targets, axis=1) > 1e-6))
        final, goal, fid = outcomes(rows[:, 0], targets)
        success = kernel.norm_sq(rows[:, 0])
        for t, spec in enumerate(specs):
            result = run_direct(spec)
            batch = spec.batch
            branch = kernel.direct(batch.weights, batch.states, batch.angles[:, :, 2])[0, 0]
            stripped = [make_qubit(replace(q, gamma=0.0)).amps for q in (spec.psi1, spec.psi2)]
            target = kernel.weighted_sum(batch.weights, np.array([stripped]))
            assert np.max(np.abs(rows[t, 0] - branch)) <= 1e-12
            assert np.max(np.abs(final[t] - result.final_state.amps)) <= 1e-12
            assert np.max(np.abs(goal[t] - unit_rows(target)[0])) <= 1e-12
            assert abs(success[t] - result.success_prob) <= 1e-12
            assert abs(fid[t] - result.fidelity) <= 1e-12

    def test_vanished_branch_raises(self):
        # a psi1 + b psi2 = 0: the post-selected branch of row 1 vanishes.
        zero = QubitParams(0.0, 0.0)
        specs = [dataset(1).spec(), SuperpositionSpec(INV_SQRT2, -INV_SQRT2, zero, zero)]
        rows, targets = run_direct_batch(stacked(specs))
        with pytest.raises(DegenerateInputError):
            outcomes(rows[:, 0], targets)


class TestSpecBatch:
    def test_rows_are_the_specs_batches(self):
        # Row t of the Table 1 batch is, bit for bit, dataset t's T = 1 batch.
        batch = spec_batch([ds.weights() for ds in TABLE1], [ds.angles() for ds in TABLE1])
        for t, ds in enumerate(TABLE1):
            for whole, one in zip(batch, ds.spec().batch):
                assert whole[t].tobytes() == one[0].tobytes()

    @pytest.mark.parametrize(
        "k,value", [(0, 3.2), (0, -0.1), (0, math.nan), (1, 2 * math.pi), (2, -0.1)]
    )
    def test_angle_ranges_are_the_qubit_ranges(self, k, value):
        angles = np.zeros((3, 2, 3))
        angles[2, 1, k] = value
        with pytest.raises(ArgumentError) as batch_error:
            spec_batch(np.tile([1.0, 0.0], (3, 1)), angles)
        with pytest.raises(ArgumentError) as qubit_error:
            QubitParams(*angles[2, 1])
        assert str(batch_error.value) == str(qubit_error.value)

    def test_zero_overlap_row(self):
        angles = np.zeros((2, 2, 3))
        angles[1, 0, 0] = math.pi
        with pytest.raises(ZeroOverlapError):
            spec_batch([[1.0, 0.0]] * 2, angles)

    @pytest.mark.parametrize("weights,angles", [((2, 2), (3, 2, 3)), ((2, 3), (2, 3, 3)), ((2,), (2, 3))])
    def test_shapes_checked(self, weights, angles):
        with pytest.raises(ArgumentError, match="expected weights"):
            spec_batch(np.ones(weights), np.zeros(angles))

    @settings(max_examples=100, deadline=None)
    @given(spec_rows())
    def test_states_and_targets_equal_the_paired_construction(self, rows):
        # bloch is elementwise, and a zero phase multiplies by exactly 1 + 0j,
        # so a call per set of angles gives the bits of the one paired call.
        batch = spec_batch(*rows)
        pairs = paired_states(batch.angles)
        assert np.array_equal(batch.states, pairs[:, :2])
        _, targets = run_direct_batch(batch)
        assert np.array_equal(targets, kernel.weighted_sum(batch.weights, pairs[:, 2:]))

    def test_batch_owns_read_only_copies(self):
        weights = np.array([[1.0, 0.0]])
        batch = spec_batch(weights, np.zeros((1, 2, 3)))
        weights[0, 0] = 5.0
        assert batch.weights[0, 0] == 1.0
        for arr in batch:
            with pytest.raises(ValueError):
                arr[...] = 0.0


class TestEncode:
    def test_single_branch(self):
        spec = SuperpositionSpec(1.0, 0.0, QubitParams(0, 0), QubitParams(math.pi / 2, 0))
        np.testing.assert_allclose(
            encode_two_qubit(spec).amps, [1, 0, 0, 0], atol=1e-15
        )

    def test_dataset1_expansion(self):
        spec = dataset(1).spec()
        np.testing.assert_allclose(
            encode_two_qubit(spec).amps, [INV_SQRT2, 0.0, 0.5, 0.5], atol=1e-15
        )

    def test_dataset9_branch_phase(self):
        enc = encode_two_qubit(dataset(9).spec())
        plain = encode_two_qubit(dataset(5).spec())
        np.testing.assert_allclose(
            enc.amps[2:], np.exp(2j * math.pi / 3) * plain.amps[2:], atol=1e-14
        )
        np.testing.assert_allclose(enc.amps[:2], plain.amps[:2], atol=1e-15)


class TestPhaseGate:
    def test_zero_angles_is_identity(self):
        state = register(dataset(1).spec())
        out = phase_gate(state, 0.0, 0.0)
        np.testing.assert_array_equal(out, state)

    def test_dataset9_matches_dataset5(self):
        nine = phase_gate(register(dataset(9).spec()), 0.0, 2 * math.pi / 3)
        five = encode_two_qubit(dataset(5).spec())
        assert phase_equivalent(StateVector((2, 2), nine.reshape(-1)), five, 1e-12)

    def test_branches_share_one_offset(self, rng):
        for _ in range(25):
            spec = random_spec(rng)
            corrected = phase_gate(
                register(spec), spec.psi1.gamma, spec.psi2.gamma
            ).reshape(-1)
            bare = (
                spec.weight_a
                * np.kron([1, 0], make_qubit(replace(spec.psi1, gamma=0.0)).amps)
                + spec.weight_b
                * np.kron([0, 1], make_qubit(replace(spec.psi2, gamma=0.0)).amps)
            )
            ratios = corrected[np.abs(bare) > 1e-9] / bare[np.abs(bare) > 1e-9]
            np.testing.assert_allclose(ratios, ratios[0], atol=1e-12)
            np.testing.assert_allclose(np.abs(ratios), 1.0, atol=1e-12)


class TestAncillaHadamard:
    def test_on_ground_state(self):
        state = np.array([[[1, 0], [0, 0]]], dtype=complex)
        np.testing.assert_allclose(
            kernel.fourier_rows(state).reshape(-1), [INV_SQRT2, 0, INV_SQRT2, 0],
            atol=1e-15,
        )

    def test_involution(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = (amps / np.linalg.norm(amps)).reshape(1, 2, 2)
        twice = kernel.fourier_rows(kernel.fourier_rows(state))
        np.testing.assert_allclose(twice, state, atol=1e-15)

    def test_dataset1_sum_block(self):
        spec = dataset(1).spec()
        out = kernel.fourier_rows(register(spec))[0]
        expected = (
            make_qubit(spec.psi1).amps + make_qubit(spec.psi2).amps
        ) / 2.0  # a = b = 1/sqrt(2) folded into the Hadamard's 1/sqrt(2)
        np.testing.assert_allclose(out[0], expected, atol=1e-15)


class TestMeasureAncilla:
    def test_identical_inputs(self):
        psi = QubitParams(1.1, 0.4)
        spec = SuperpositionSpec(INV_SQRT2, INV_SQRT2, psi, psi)
        p0, p1 = kernel.norm_sq(kernel.fourier_rows(register(spec))[0])
        assert p0 == pytest.approx(1.0, abs=1e-12)
        assert p1 == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_inputs(self):
        spec = SuperpositionSpec(
            INV_SQRT2,
            INV_SQRT2,
            QubitParams(math.pi / 2, 0.0),
            QubitParams(math.pi / 2, math.pi),
        )
        p0, p1 = kernel.norm_sq(kernel.fourier_rows(register(spec))[0])
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_dataset3_success(self):
        # Oracle: ||(psi1 + psi2)/sqrt(2)||^2 / 2 = (1 + 1/sqrt(2))/2
        spec = dataset(3).spec()
        rows = kernel.fourier_rows(register(spec))[0]
        expected = success_oracle(
            *dataset(3).weights(),
            make_qubit(spec.psi1).amps,
            make_qubit(spec.psi2).amps,
        )
        assert expected == pytest.approx(0.8535533905932738, abs=1e-12)
        assert kernel.norm_sq(rows[0]) == pytest.approx(expected, abs=1e-12)


class TestRunDirect:
    @pytest.mark.parametrize("dataset_id", range(1, 12))
    def test_table_fidelities(self, dataset_id):
        result = run_direct(dataset(dataset_id).spec())
        assert result.fidelity >= 1.0 - 1e-9

    def test_dataset11_small_overlap(self):
        result = run_direct(dataset(11).spec())
        assert result.fidelity >= 1.0 - 1e-9
        assert result.success_prob == pytest.approx(0.5435778713738288, abs=1e-12)

    def test_dataset4_success_is_sum_branch(self):
        # The |0> outcome keeps a psi1 + b psi2 even for phi = pi;
        # <psi1|psi2> = +1/sqrt(2), so the value matches datasets 1-3.
        result = run_direct(dataset(4).spec())
        assert result.success_prob == pytest.approx(0.8535533905932738, abs=1e-12)
        ds = dataset(4)
        spec = ds.spec()
        assert result.success_prob == pytest.approx(
            success_oracle(
                *ds.weights(),
                make_qubit(spec.psi1).amps,
                make_qubit(spec.psi2).amps,
            ),
            abs=1e-12,
        )

    def test_single_weight(self):
        spec = SuperpositionSpec(1.0, 0.0, QubitParams(0.9, 0.3), QubitParams(0.2, 0.1))
        result = run_direct(spec)
        assert result.success_prob == pytest.approx(0.5, abs=1e-12)
        assert phase_equivalent(result.final_state, make_qubit(spec.psi1), 1e-12)

    def test_difference_branch(self):
        # Outcome |1> of the Hadamard carries the difference branch.
        spec = dataset(1).spec()
        batch = spec.batch
        branch = kernel.direct(batch.weights, batch.states, batch.angles[:, :, 2])[0, 1]
        assert kernel.branch_survives(branch)
        diff = make_qubit(spec.psi1).amps - make_qubit(spec.psi2).amps
        assert phase_equivalent(
            StateVector((2,), branch), unit_state(diff), 1e-12
        )
        # The Hadamard is exact, so real inputs give a real difference branch.
        assert np.all(branch.imag == 0.0)
        # Identical inputs leave no difference branch.
        psi = QubitParams(0.7, 0.2)
        same = SuperpositionSpec(INV_SQRT2, INV_SQRT2, psi, psi)
        batch = same.batch
        rows = kernel.direct(batch.weights, batch.states, batch.angles[:, :, 2])
        assert not kernel.branch_survives(rows[0, 1])


class TestInvariants:
    def test_global_phase_invariance(self, rng):
        for _ in range(25):
            spec = random_spec(rng)
            stripped = SuperpositionSpec(
                spec.weight_a,
                spec.weight_b,
                replace(spec.psi1, gamma=0.0),
                replace(spec.psi2, gamma=0.0),
            )
            assert phase_equivalent(
                run_direct(spec).final_state,
                run_direct(stripped).final_state,
                1e-12,
            )

    def test_probability_conservation(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            rows = kernel.fourier_rows(
                phase_gate(register(spec), spec.psi1.gamma, spec.psi2.gamma)
            )
            total = np.sum(kernel.norm_sq(rows[0]))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_success_identity_brute_force(self, rng):
        # success = (|a|^2 + |b|^2 + 2 Re(a* b <psi1|psi2>)) / 2, phase-stripped
        for _ in range(1000):
            spec = random_spec(rng)
            p1 = make_qubit(replace(spec.psi1, gamma=0.0)).amps
            p2 = make_qubit(replace(spec.psi2, gamma=0.0)).amps
            a, b = spec.weight_a, spec.weight_b
            closed = (
                abs(a) ** 2
                + abs(b) ** 2
                + 2.0 * (np.conj(a) * b * np.vdot(p1, p2)).real
            ) / 2.0
            assert abs(run_direct(spec).success_prob - closed) <= 1e-12

    def test_swap_symmetry(self, rng):
        for _ in range(25):
            spec = random_spec(rng)
            swapped = SuperpositionSpec(
                spec.weight_b, spec.weight_a, spec.psi2, spec.psi1
            )
            assert phase_equivalent(
                run_direct(spec).final_state, run_direct(swapped).final_state, 1e-12
            )


class TestSpecValidation:
    def test_weight_normalization(self):
        with pytest.raises(ArgumentError):
            SuperpositionSpec(1.0, 1.0, QubitParams(0, 0), QubitParams(0, 0))

    def test_zero_overlap(self):
        with pytest.raises(ZeroOverlapError):
            SuperpositionSpec(
                INV_SQRT2, INV_SQRT2, QubitParams(math.pi, 0.0), QubitParams(0, 0)
            )

    def test_batch_is_read_only(self):
        # The batch was validated at construction; it must stay as validated.
        spec = dataset(9).spec()
        for arr in spec.batch:
            with pytest.raises(ValueError):
                arr[...] = 0.0


class TestConcurrency:
    def test_thread_safety(self, rng):
        # Pure functions over immutable values: concurrent runs of the same
        # specs must agree bitwise with sequential runs.
        from concurrent.futures import ThreadPoolExecutor

        specs = [random_spec(rng) for _ in range(32)]
        sequential = [run_direct(s) for s in specs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(run_direct, specs))
        for seq, conc in zip(sequential, concurrent):
            np.testing.assert_array_equal(seq.final_state.amps, conc.final_state.amps)
            assert seq.success_prob == conc.success_prob
