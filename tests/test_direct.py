"""Gate-level two-qubit protocol: encoding, phase gate, Hadamard, post-selection."""
import math

import numpy as np
import pytest

from qsuperpose.datasets import dataset
from qsuperpose.direct import (
    SuperpositionSpec,
    ancilla_hadamard,
    encode_two_qubit,
    measure_ancilla,
    phase_gate,
    run_direct,
)
from qsuperpose.errors import ArgumentError, ZeroOverlapError
from qsuperpose.linalg import (
    QubitParams,
    StateVector,
    make_qubit,
    phase_equivalent,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def success_oracle(a, b, psi1, psi2):
    """Brute-force ||a psi1 + b psi2||^2 / 2 from raw amplitudes."""
    v = a * psi1 + b * psi2
    return float(np.vdot(v, v).real) / 2.0


def random_spec(rng):
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = w / np.linalg.norm(w)
    angles = lambda: QubitParams(
        float(rng.uniform(0.0, math.pi - 0.01)),
        float(rng.uniform(0.0, 2 * math.pi)),
        float(rng.uniform(0.0, 2 * math.pi)),
    )
    return SuperpositionSpec(complex(w[0]), complex(w[1]), angles(), angles())


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
        state = encode_two_qubit(dataset(1).spec())
        out = phase_gate(state, 0.0, 0.0)
        np.testing.assert_array_equal(out.amps, state.amps)

    def test_dataset9_matches_dataset5(self):
        nine = phase_gate(encode_two_qubit(dataset(9).spec()), 0.0, 2 * math.pi / 3)
        five = encode_two_qubit(dataset(5).spec())
        assert phase_equivalent(nine, five, 1e-12)

    def test_branches_share_one_offset(self, rng):
        for _ in range(25):
            spec = random_spec(rng)
            corrected = phase_gate(
                encode_two_qubit(spec), spec.psi1.gamma, spec.psi2.gamma
            )
            bare = (
                spec.weight_a
                * np.kron([1, 0], make_qubit(spec.psi1.stripped()).amps)
                + spec.weight_b
                * np.kron([0, 1], make_qubit(spec.psi2.stripped()).amps)
            )
            ratios = corrected.amps[np.abs(bare) > 1e-9] / bare[np.abs(bare) > 1e-9]
            np.testing.assert_allclose(ratios, ratios[0], atol=1e-12)
            np.testing.assert_allclose(np.abs(ratios), 1.0, atol=1e-12)


class TestAncillaHadamard:
    def test_on_ground_state(self):
        state = StateVector((2, 2), [1, 0, 0, 0], normalized=True)
        np.testing.assert_allclose(
            ancilla_hadamard(state).amps, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15
        )

    def test_involution(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector((2, 2), amps / np.linalg.norm(amps), normalized=True)
        twice = ancilla_hadamard(ancilla_hadamard(state))
        np.testing.assert_allclose(twice.amps, state.amps, atol=1e-15)

    def test_dataset1_sum_block(self):
        spec = dataset(1).spec()
        out = ancilla_hadamard(encode_two_qubit(spec))
        expected = (
            make_qubit(spec.psi1).amps + make_qubit(spec.psi2).amps
        ) / 2.0  # a = b = 1/sqrt(2) folded into the Hadamard's 1/sqrt(2)
        np.testing.assert_allclose(out.amps[:2], expected, atol=1e-15)


class TestMeasureAncilla:
    def test_identical_inputs(self):
        psi = QubitParams(1.1, 0.4)
        spec = SuperpositionSpec(INV_SQRT2, INV_SQRT2, psi, psi)
        state = ancilla_hadamard(encode_two_qubit(spec))
        _, p0 = measure_ancilla(state, 0)
        _, p1 = measure_ancilla(state, 1)
        assert p0 == pytest.approx(1.0, abs=1e-12)
        assert p1 == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_inputs(self):
        spec = SuperpositionSpec(
            INV_SQRT2,
            INV_SQRT2,
            QubitParams(math.pi / 2, 0.0),
            QubitParams(math.pi / 2, math.pi),
        )
        state = ancilla_hadamard(encode_two_qubit(spec))
        assert measure_ancilla(state, 0)[1] == pytest.approx(0.5, abs=1e-12)
        assert measure_ancilla(state, 1)[1] == pytest.approx(0.5, abs=1e-12)

    def test_dataset3_success(self):
        # Oracle: ||(psi1 + psi2)/sqrt(2)||^2 / 2 = (1 + 1/sqrt(2))/2
        spec = dataset(3).spec()
        state = ancilla_hadamard(encode_two_qubit(spec))
        expected = success_oracle(
            *dataset(3).weights(),
            make_qubit(spec.psi1).amps,
            make_qubit(spec.psi2).amps,
        )
        assert expected == pytest.approx(0.8535533905932738, abs=1e-12)
        assert measure_ancilla(state, 0)[1] == pytest.approx(expected, abs=1e-12)

    def test_bad_outcome(self):
        state = StateVector((2, 2), [1, 0, 0, 0], normalized=True)
        with pytest.raises(ArgumentError):
            measure_ancilla(state, 2)


class TestRunDirect:
    @pytest.mark.parametrize("dataset_id", range(1, 12))
    def test_table_fidelities(self, dataset_id):
        result = run_direct(dataset(dataset_id).spec())
        assert result.fidelity_to_target >= 1.0 - 1e-9

    def test_dataset11_small_overlap(self):
        result = run_direct(dataset(11).spec())
        assert result.fidelity_to_target >= 1.0 - 1e-9
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
        spec = dataset(1).spec()
        result = run_direct(spec)
        assert result.difference_branch is not None
        diff = make_qubit(spec.psi1).amps - make_qubit(spec.psi2).amps
        assert phase_equivalent(
            result.difference_branch, StateVector((2,), diff).normalize(), 1e-12
        )
        # The Hadamard is exact, so real inputs give a real difference branch.
        assert np.all(result.difference_branch.amps.imag == 0.0)
        # Identical inputs leave no difference branch.
        psi = QubitParams(0.7, 0.2)
        same = run_direct(SuperpositionSpec(INV_SQRT2, INV_SQRT2, psi, psi))
        assert same.difference_branch is None


class TestInvariants:
    def test_global_phase_invariance(self, rng):
        for _ in range(25):
            spec = random_spec(rng)
            stripped = SuperpositionSpec(
                spec.weight_a,
                spec.weight_b,
                spec.psi1.stripped(),
                spec.psi2.stripped(),
            )
            assert phase_equivalent(
                run_direct(spec).final_state,
                run_direct(stripped).final_state,
                1e-12,
            )

    def test_probability_conservation(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            state = ancilla_hadamard(
                phase_gate(
                    encode_two_qubit(spec), spec.psi1.gamma, spec.psi2.gamma
                )
            )
            total = measure_ancilla(state, 0)[1] + measure_ancilla(state, 1)[1]
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_success_identity_brute_force(self, rng):
        # success = (|a|^2 + |b|^2 + 2 Re(a* b <psi1|psi2>)) / 2, phase-stripped
        for _ in range(1000):
            spec = random_spec(rng)
            p1 = make_qubit(spec.psi1.stripped()).amps
            p2 = make_qubit(spec.psi2.stripped()).amps
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
