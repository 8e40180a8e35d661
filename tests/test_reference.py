"""Reference-state protocols: primed weights, controlled-SWAP cascade, projections."""
import math

import numpy as np
import pytest

from qsuperpose import kernel
from qsuperpose.direct import run_direct
from qsuperpose.datasets import dataset
from qsuperpose.errors import ArgumentError, ZeroOverlapError
from qsuperpose.hybrid import closed_form_hybrid, run_hybrid
from qsuperpose.linalg import (
    QubitParams,
    StateVector,
    basis_state,
    make_qubit,
    overlap_decompose,
    phase_equivalent,
    tensor,
)
from qsuperpose.reference import (
    ReferenceSpec,
    build_initial,
    closed_form_p3,
    controlled_swap_cascade,
    kappa_weighted_sum,
    project_onto_reference,
    run_three_qubit,
    run_two_qubit_reduced,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Dataset-5 pair: c1 = 1/4, c2 = 3/4 against chi = |0>.
PSI1_D5 = make_qubit(QubitParams(2 * math.pi / 3, 0.0))
PSI2_D5 = make_qubit(QubitParams(math.pi / 3, 0.0))
CHI0 = basis_state(2, 0)


def random_state(rng, d=2, chi=None, floor=0.05):
    while True:
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps /= np.linalg.norm(amps)
        if chi is None or abs(np.vdot(chi.amps, amps)) >= floor:
            return StateVector((d,), amps, normalized=True)


def pair(a, b, psi1, psi2, chi):
    return ReferenceSpec(n=2, d=2, weights=(a, b), states=(psi1, psi2), chi=chi)


def primed_weights(weights, cs):
    """Primed weights and N from kernel.primed, on the overlaps c_k."""
    primed = kernel.primed(np.array([weights], dtype=complex), np.array([cs]))[0]
    return primed, math.sqrt(kernel.norm_sq(primed))


def random_weights(rng, n=2):
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    w /= np.linalg.norm(w)
    return tuple(complex(v) for v in w)


class TestPrimedWeights:
    def test_unit_overlaps(self):
        primed, norm_n = primed_weights([0.6, 0.8], [1.0, 1.0])
        np.testing.assert_allclose(primed, [0.6, 0.8])
        assert norm_n == pytest.approx(1.0, abs=1e-12)

    def test_dataset5_overlaps(self):
        primed, norm_n = primed_weights([INV_SQRT2, INV_SQRT2], [0.25, 0.75])
        np.testing.assert_allclose(
            primed, [0.8164965809277259, 1.4142135623730947], atol=1e-12
        )
        assert norm_n == pytest.approx(1.6329931618554518, abs=1e-12)

    def test_three_equal(self):
        primed, _ = primed_weights([1 / math.sqrt(3)] * 3, [0.5] * 3)
        np.testing.assert_allclose(primed, [1.1547005383792515] * 3, atol=1e-12)

    def test_zero_overlap(self):
        # The spec rejects the vanishing overlap before any weight is primed.
        psi = StateVector((2,), [1e-10, math.sqrt(1.0 - 1e-20)], normalized=True)
        with pytest.raises(ZeroOverlapError):
            ReferenceSpec(n=1, d=2, weights=(1.0,), states=(psi,), chi=CHI0)


class TestBuildInitial:
    def test_trivial(self):
        spec = ReferenceSpec(
            n=2, d=2, weights=(1.0, 0.0 + 0j), states=(CHI0, CHI0), chi=CHI0
        )
        # weight b = 0 still needs a nonzero overlap; states are |0> so fine
        np.testing.assert_allclose(
            build_initial(spec).amps, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-15
        )

    def test_equal_weights_equal_overlaps_symmetric(self, rng):
        psi = random_state(rng, 2, CHI0)
        mirrored = StateVector((2,), psi.amps[::-1].conj(), normalized=True)
        chi_plus = make_qubit(QubitParams(math.pi / 2, 0.0))
        spec = ReferenceSpec(
            n=2,
            d=2,
            weights=(INV_SQRT2, INV_SQRT2),
            states=(psi, mirrored),
            chi=chi_plus,
        )
        anc = build_initial(spec).amps.reshape(2, 4)
        a0 = np.linalg.norm(anc[0])
        a1 = np.linalg.norm(anc[1])
        assert a0 == pytest.approx(a1, abs=1e-12)

    def test_dataset5_ancilla_amplitudes(self):
        spec = ReferenceSpec(
            n=2,
            d=2,
            weights=(INV_SQRT2, INV_SQRT2),
            states=(PSI1_D5, PSI2_D5),
            chi=CHI0,
        )
        anc = build_initial(spec).amps.reshape(2, 4)
        assert np.linalg.norm(anc[0]) == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(anc[1]) == pytest.approx(0.8660254037844386, abs=1e-12)


class TestControlledSwapCascade:
    def test_fredkin_truth_table(self, rng):
        psi = random_state(rng)
        phi = random_state(rng)
        inp = tensor(tensor(basis_state(2, 1), psi), phi)
        out = controlled_swap_cascade(inp, 2, 2)
        expected = tensor(tensor(basis_state(2, 1), phi), psi)
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-15)

    def test_control_zero_untouched(self, rng):
        psi = random_state(rng)
        phi = random_state(rng)
        inp = tensor(tensor(basis_state(2, 0), psi), phi)
        out = controlled_swap_cascade(inp, 2, 2)
        np.testing.assert_array_equal(out.amps, inp.amps)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
    def test_permutation_unitary(self, n, d):
        dim = n * d**n
        mat = np.zeros((dim, dim), dtype=complex)
        dims = (n,) + (d,) * n
        for k in range(dim):
            basis_amps = np.zeros(dim)
            basis_amps[k] = 1.0
            mat[:, k] = controlled_swap_cascade(
                StateVector(dims, basis_amps, normalized=True), n, d
            ).amps
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(dim), atol=1e-12)

    def test_involution(self, rng):
        dims = (3,) + (2,) * 3
        amps = rng.normal(size=24) + 1j * rng.normal(size=24)
        state = StateVector(dims, amps / np.linalg.norm(amps), normalized=True)
        twice = controlled_swap_cascade(controlled_swap_cascade(state, 3, 2), 3, 2)
        np.testing.assert_array_equal(twice.amps, state.amps)

    def test_dims_mismatch(self):
        with pytest.raises(ArgumentError):
            controlled_swap_cascade(basis_state(8, 0), 2, 2)


class TestProjectOntoReference:
    def test_all_states_equal_chi(self):
        spec = ReferenceSpec(
            n=2, d=2, weights=(0.6, 0.8), states=(CHI0, CHI0), chi=CHI0
        )
        state = controlled_swap_cascade(build_initial(spec), 2, 2)
        projected, prob = project_onto_reference(state, CHI0, 2, 2)
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(projected.amps, state.amps, atol=1e-15)

    def test_orthogonal_state_kills_its_branch(self):
        # After the swap the |0> branch's auxiliary holds psi2 and the |1>
        # branch's auxiliary holds psi1; a state orthogonal to chi
        # annihilates exactly the branch whose auxiliary it occupies.
        anc = StateVector((2,), [INV_SQRT2, INV_SQRT2], normalized=True)

        def branches(psi1, psi2):
            state = tensor(tensor(anc, psi1), psi2)
            swapped = controlled_swap_cascade(state, 2, 2)
            projected, prob = project_onto_reference(swapped, CHI0, 2, 2)
            return projected.amps.reshape(2, 4), prob

        out, prob = branches(CHI0, basis_state(2, 1))  # psi2 _|_ chi
        np.testing.assert_allclose(out[0], 0.0, atol=1e-15)
        assert prob == pytest.approx(0.5, abs=1e-12)
        out, prob = branches(basis_state(2, 1), CHI0)  # psi1 _|_ chi
        np.testing.assert_allclose(out[1], 0.0, atol=1e-15)
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_dataset5_probability(self):
        spec = ReferenceSpec(
            n=2,
            d=2,
            weights=(INV_SQRT2, INV_SQRT2),
            states=(PSI1_D5, PSI2_D5),
            chi=CHI0,
        )
        state = controlled_swap_cascade(build_initial(spec), 2, 2)
        projected, prob = project_onto_reference(state, CHI0, 2, 2)
        assert prob == pytest.approx(0.375, abs=1e-12)
        # Brute-force oracle: apply the projector matrix directly.
        proj = np.kron(
            np.eye(4), np.outer(CHI0.amps, CHI0.amps.conj())
        )
        brute = proj @ state.amps
        np.testing.assert_allclose(projected.amps, brute, atol=1e-13)
        assert prob == pytest.approx(float(np.vdot(brute, brute).real), abs=1e-13)


class TestRunThreeQubit:
    def test_all_trivial(self):
        result = run_three_qubit(pair(INV_SQRT2, INV_SQRT2, CHI0, CHI0, CHI0))
        assert result.success_prob == pytest.approx(1.0, abs=1e-12)
        assert result.norm_sq == pytest.approx(2.0, abs=1e-12)

    def test_dataset5(self):
        result = run_three_qubit(pair(INV_SQRT2, INV_SQRT2, PSI1_D5, PSI2_D5, CHI0))
        assert result.success_prob == pytest.approx(0.34987976320958236, abs=1e-9)
        assert result.fidelity_to_target >= 1.0 - 1e-12

    def test_orthogonal_equatorial(self):
        psi1 = make_qubit(QubitParams(math.pi / 2, 0.0))
        psi2 = make_qubit(QubitParams(math.pi / 2, math.pi))
        result = run_three_qubit(pair(INV_SQRT2, INV_SQRT2, psi1, psi2, CHI0))
        assert result.success_prob == pytest.approx(0.25, abs=1e-9)


class TestRunTwoQubitReduced:
    def test_equal_overlaps_equal_weights_match_p3(self, rng):
        chi = random_state(rng)
        # Equal overlap magnitudes: reflect a state about the chi axis.
        psi1 = random_state(rng, 2, chi, floor=0.3)
        o1 = overlap_decompose(psi1, chi)
        # Rotate psi1 around the chi axis to get a second state with the same c.
        from qsuperpose.enhanced import chi_perp

        chip = chi_perp(chi)
        a1 = np.vdot(chi.amps, psi1.amps)
        b1 = np.vdot(chip.amps, psi1.amps)
        psi2 = StateVector(
            (2,), a1 * chi.amps + b1 * np.exp(1.3j) * chip.amps, normalized=True
        )
        assert overlap_decompose(psi2, chi).c == pytest.approx(o1.c, abs=1e-12)
        p2 = run_two_qubit_reduced(pair(INV_SQRT2, INV_SQRT2, psi1, psi2, chi))
        p3 = run_three_qubit(pair(INV_SQRT2, INV_SQRT2, psi1, psi2, chi))
        assert p2.success_prob == pytest.approx(p3.success_prob, abs=1e-12)

    def test_dataset7_p2(self):
        a, b = 2 / math.sqrt(5), 1 / math.sqrt(5)
        result = run_two_qubit_reduced(pair(a, b, PSI1_D5, PSI2_D5, CHI0))
        assert result.success_prob == pytest.approx(0.45343401509666564, abs=1e-9)

    def test_dataset7_ratio(self):
        a, b = 2 / math.sqrt(5), 1 / math.sqrt(5)
        p2 = run_two_qubit_reduced(pair(a, b, PSI1_D5, PSI2_D5, CHI0)).success_prob
        p3 = run_three_qubit(pair(a, b, PSI1_D5, PSI2_D5, CHI0)).success_prob
        assert p2 / p3 == pytest.approx(10.0 / 7.0, abs=1e-9)


class TestInvariants:
    def test_closed_forms_randomized(self, rng):
        for _ in range(200):
            chi = random_state(rng)
            psi1 = random_state(rng, 2, chi)
            psi2 = random_state(rng, 2, chi)
            a, b = random_weights(rng)
            two = run_two_qubit_reduced(pair(a, b, psi1, psi2, chi))
            three = run_three_qubit(pair(a, b, psi1, psi2, chi))
            spec = pair(a, b, psi1, psi2, chi)
            assert abs(two.success_prob - closed_form_hybrid(spec)) <= 1e-9
            assert abs(three.success_prob - closed_form_p3(spec)) <= 1e-9
            assert phase_equivalent(two.final_state, three.final_state, 1e-9)
            assert two.fidelity_to_target >= 1.0 - 1e-9
            assert three.fidelity_to_target >= 1.0 - 1e-9

    def test_kappa_cancels_input_phases(self, rng):
        for _ in range(25):
            chi = random_state(rng)
            psi1 = random_state(rng, 2, chi)
            psi2 = random_state(rng, 2, chi)
            a, b = random_weights(rng)
            base = run_two_qubit_reduced(pair(a, b, psi1, psi2, chi))
            shifted = run_two_qubit_reduced(
                pair(
                    a,
                    b,
                    StateVector((2,), np.exp(0.9j) * psi1.amps, normalized=True),
                    StateVector((2,), np.exp(-2.1j) * psi2.amps, normalized=True),
                    chi,
                )
            )
            assert phase_equivalent(base.final_state, shifted.final_state, 1e-12)
            assert shifted.success_prob == pytest.approx(
                base.success_prob, abs=1e-12
            )

    def test_direct_matches_reduced_for_standard_reference(self, rng):
        # With chi = |0> and Bloch-gauge inputs every kappa is 1, so the
        # two pipelines build the same superposition; probabilities differ.
        from qsuperpose.direct import SuperpositionSpec

        for _ in range(25):
            theta1, theta2 = rng.uniform(0.1, math.pi - 0.1, size=2)
            phi1, phi2 = rng.uniform(0.0, 2 * math.pi, size=2)
            g1, g2 = rng.uniform(0.0, 2 * math.pi, size=2)
            a, b = random_weights(rng)
            p1 = QubitParams(float(theta1), float(phi1), float(g1))
            p2 = QubitParams(float(theta2), float(phi2), float(g2))
            direct = run_direct(SuperpositionSpec(a, b, p1, p2))
            reduced = run_two_qubit_reduced(
                pair(a, b, make_qubit(p1), make_qubit(p2), CHI0)
            )
            assert phase_equivalent(
                direct.final_state, reduced.final_state, 1e-9
            )

    def test_final_state_is_kappa_weighted_sum(self, rng):
        chi = random_state(rng)
        psi1 = random_state(rng, 2, chi)
        psi2 = random_state(rng, 2, chi)
        a, b = random_weights(rng)
        expected = kappa_weighted_sum(pair(a, b, psi1, psi2, chi)).normalize()
        assert phase_equivalent(
            run_three_qubit(pair(a, b, psi1, psi2, chi)).final_state, expected, 1e-12
        )


class TestSpecValidation:
    def test_weight_normalization(self):
        with pytest.raises(ArgumentError):
            ReferenceSpec(n=2, d=2, weights=(1.0, 1.0), states=(CHI0, CHI0), chi=CHI0)

    def test_zero_overlap(self):
        with pytest.raises(ZeroOverlapError):
            ReferenceSpec(
                n=2,
                d=2,
                weights=(INV_SQRT2, INV_SQRT2),
                states=(CHI0, basis_state(2, 1)),
                chi=CHI0,
            )

    def test_batch_is_read_only(self):
        # The batch was validated at construction; it must stay as validated.
        spec = ReferenceSpec(
            n=2, d=2, weights=(INV_SQRT2, INV_SQRT2), states=(PSI1_D5, PSI2_D5), chi=CHI0
        )
        for arr in spec.batch:
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_dimension_cap(self):
        uniform = StateVector((4,), np.ones(4) / 2.0, normalized=True)
        with pytest.raises(ArgumentError):
            ReferenceSpec(
                n=5,
                d=4,
                weights=tuple([math.sqrt(0.2)] * 5),
                states=tuple([uniform] * 5),
                chi=uniform,
            )


class TestPairPipelines:
    @pytest.mark.parametrize(
        "pipeline", [run_three_qubit, run_two_qubit_reduced, closed_form_p3]
    )
    def test_reject_other_than_two_states(self, pipeline):
        third = ReferenceSpec(
            n=3,
            d=2,
            weights=tuple([1 / math.sqrt(3)] * 3),
            states=(PSI1_D5, PSI2_D5, CHI0),
            chi=CHI0,
        )
        single = ReferenceSpec(n=1, d=2, weights=(1.0,), states=(PSI1_D5,), chi=CHI0)
        for spec in (third, single):
            with pytest.raises(ArgumentError):
                pipeline(spec)

    def test_kappa_weighted_sum_takes_any_n(self, rng):
        chi = random_state(rng, 3)
        states = tuple(random_state(rng, 3, chi) for _ in range(3))
        spec = ReferenceSpec(
            n=3, d=3, weights=random_weights(rng, 3), states=states, chi=chi
        )
        assert phase_equivalent(
            run_hybrid(spec).target_state, kappa_weighted_sum(spec).normalize(), 1e-12
        )
