"""Hybrid qunit-qudit protocol: Fourier ancilla and qudit superposition."""
import math

import numpy as np
import pytest

from qsuperpose.errors import ArgumentError
from qsuperpose.hybrid import closed_form_hybrid, fourier, hybrid_target, run_hybrid
from qsuperpose.linalg import StateVector, basis_state, phase_equivalent
from qsuperpose.reference import ReferenceSpec, run_two_qubit_reduced

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def random_state(rng, d, chi=None, floor=0.05):
    while True:
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps /= np.linalg.norm(amps)
        if chi is None or abs(np.vdot(chi.amps, amps)) >= floor:
            return StateVector((d,), amps, normalized=True)


def random_spec(rng, n, d):
    chi = random_state(rng, d)
    states = tuple(random_state(rng, d, chi) for _ in range(n))
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    w /= np.linalg.norm(w)
    return ReferenceSpec(
        n=n, d=d, weights=tuple(complex(v) for v in w), states=states, chi=chi
    )


class TestFourier:
    def test_one_dimensional(self):
        np.testing.assert_array_equal(fourier(1), [[1.0]])

    def test_two_is_hadamard(self):
        # Bit for bit: the quarter-turn powers of f are exact.
        np.testing.assert_array_equal(
            fourier(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        )

    def test_four_is_exact(self):
        powers = np.array([1, 1j, -1, -1j])[np.outer(range(4), range(4)) % 4]
        np.testing.assert_array_equal(fourier(4), powers / 2)

    def test_three_entry_and_unitarity(self):
        f = fourier(3)
        assert f[1][1] == pytest.approx(np.exp(2j * math.pi / 3) / math.sqrt(3))
        np.testing.assert_allclose(f.conj().T @ f, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitarity(self, n):
        f = fourier(n)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ArgumentError):
            fourier(0)


class TestRunHybrid:
    def test_reduces_to_two_qubit(self, rng):
        for _ in range(20):
            spec = random_spec(rng, 2, 2)
            hybrid = run_hybrid(spec)
            reduced = run_two_qubit_reduced(
                spec.weights[0], spec.weights[1], *spec.states, spec.chi
            )
            assert hybrid.success_prob == pytest.approx(
                reduced.success_prob, abs=1e-12
            )
            assert phase_equivalent(
                hybrid.final_state, reduced.final_state, 1e-12
            )

    def test_all_states_equal_reference(self):
        chi = basis_state(2, 0)
        spec = ReferenceSpec(
            n=3,
            d=2,
            weights=(INV_SQRT3,) * 3,
            states=(chi, chi, chi),
            chi=chi,
        )
        result = run_hybrid(spec)
        assert result.success_prob == pytest.approx(1.0, abs=1e-12)
        assert phase_equivalent(result.final_state, chi, 1e-12)
        # Branches 1 and 2 vanish: sum_k f^{jk} = 0 for j != 0.
        assert result.branches[1].norm_sq == pytest.approx(0.0, abs=1e-12)
        assert result.branches[2].norm_sq == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_basis_states_uniform_reference(self):
        # c_j = 1/3 for all three states; pipeline and closed form give 1/27.
        chi = StateVector((3,), np.ones(3) * INV_SQRT3, normalized=True)
        spec = ReferenceSpec(
            n=3,
            d=3,
            weights=(INV_SQRT3,) * 3,
            states=tuple(basis_state(3, k) for k in range(3)),
            chi=chi,
        )
        result = run_hybrid(spec)
        assert result.success_prob == pytest.approx(1.0 / 27.0, abs=1e-12)
        expected = StateVector((3,), np.ones(3) * INV_SQRT3, normalized=True)
        assert phase_equivalent(result.final_state, expected, 1e-12)
        # Brute-force matrix pipeline oracle, built from scratch.
        assert result.success_prob == pytest.approx(
            brute_force_success(spec), abs=1e-12
        )

    def test_n_below_two_rejected(self):
        chi = basis_state(2, 0)
        spec = ReferenceSpec(n=1, d=2, weights=(1.0,), states=(chi,), chi=chi)
        with pytest.raises(ArgumentError):
            run_hybrid(spec)


def brute_force_success(spec):
    """Independent pipeline: explicit matrices, no package operators."""
    n, d = spec.n, spec.d
    primed = []
    for k, w in enumerate(spec.weights):
        prod = 1.0
        for j, s in enumerate(spec.states):
            if j != k:
                prod *= abs(np.vdot(spec.chi.amps, s.amps)) ** 2
        primed.append(w / math.sqrt(prod))
    anc = np.array(primed) / np.linalg.norm(primed)
    state = anc
    for s in spec.states:
        state = np.kron(state, s.amps)
    # controlled swap: permutation matrix on (n, d, ..., d)
    t = state.reshape((n,) + (d,) * n)
    out = np.empty_like(t)
    for k in range(n):
        out[k] = t[k] if k == 0 else np.swapaxes(t[k], 0, k)
    # chi projections on qudits 2..n
    proj = np.outer(spec.chi.amps, spec.chi.amps.conj())
    flat = out.reshape(-1)
    op = np.kron(np.eye(n * d), proj)
    for _ in range(n - 2):
        op = np.kron(op, proj)
    flat = op @ flat
    # Fourier on the ancilla, then <0|
    f = np.exp(2j * math.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    big_f = np.kron(f, np.eye(d**n))
    flat = big_f @ flat
    branch0 = flat.reshape((n,) + (d,) * n)[0]
    return float(np.vdot(branch0, branch0).real)


class TestInvariants:
    def test_branch_probabilities_sum_to_one(self, rng):
        for n, d in [(2, 2), (3, 2), (2, 3), (4, 3)]:
            spec = random_spec(rng, n, d)
            result = run_hybrid(spec)
            total = sum(b.norm_sq for b in result.branches)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_branches_match_direct_matrix_application(self, rng):
        # Entrywise check of every Fourier branch against F x I_d applied
        # to the normalized encoded state, for n <= 4, d <= 3.
        for n, d in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3)]:
            spec = random_spec(rng, n, d)
            result = run_hybrid(spec)
            f = fourier(n)
            applied = np.kron(f, np.eye(d)) @ result.encoded_state.amps
            stacked = np.concatenate([b.amps for b in result.branches])
            np.testing.assert_allclose(stacked, applied, atol=1e-12)

    def test_cyclic_permutation_matches_branchwise(self, rng):
        for _ in range(10):
            n, d = 3, 2
            spec = random_spec(rng, n, d)
            rolled = ReferenceSpec(
                n=n,
                d=d,
                weights=spec.weights[1:] + spec.weights[:1],
                states=spec.states[1:] + spec.states[:1],
                chi=spec.chi,
            )
            base = run_hybrid(spec)
            perm = run_hybrid(rolled)
            for j in range(n):
                if base.branches[j].norm_sq > 1e-12:
                    assert phase_equivalent(
                        base.branches[j].normalize(),
                        perm.branches[j].normalize(),
                        1e-9,
                    )

    def test_kappa_phase_cancellation(self, rng):
        for _ in range(10):
            spec = random_spec(rng, 3, 2)
            shifted_states = tuple(
                StateVector(
                    (2,),
                    np.exp(1j * rng.uniform(0, 2 * math.pi)) * s.amps,
                    normalized=True,
                )
                for s in spec.states
            )
            shifted = ReferenceSpec(
                n=3, d=2, weights=spec.weights, states=shifted_states, chi=spec.chi
            )
            base = run_hybrid(spec)
            out = run_hybrid(shifted)
            assert phase_equivalent(base.final_state, out.final_state, 1e-9)
            assert out.success_prob == pytest.approx(base.success_prob, abs=1e-12)

    def test_success_probability_identity(self, rng):
        # sim * n * sum|a_j'|^2 = ||sum_k a_k (prod kappa) Psi_k||^2
        for n, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            spec = random_spec(rng, n, d)
            result = run_hybrid(spec)
            lhs = result.success_prob * n * spec.norm_N**2
            rhs = hybrid_target(spec).norm_sq
            assert lhs == pytest.approx(rhs, abs=1e-9)
            assert abs(result.success_prob - closed_form_hybrid(spec)) <= 1e-9
