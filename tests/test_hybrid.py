"""Hybrid qunit-qudit protocol: Fourier ancilla and qudit superposition."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsuperpose import analysis, kernel
from qsuperpose.cli import main
from qsuperpose.errors import ArgumentError
from qsuperpose.hybrid import closed_form_hybrid, fourier, run_hybrid
from qsuperpose.linalg import QubitParams, StateVector, basis_state, make_qubit, unit_state
from qsuperpose.reference import ReferenceSpec, kappa_weighted_sum, run_two_qubit_reduced

from helpers import phase_equivalent

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_built_once_read_only_and_exact(self, n):
        f = fourier(n)
        # F_n, the leave-one-out mask and the cascade's gather index: one
        # read-only object per key.
        for build, key in ((kernel.fourier, (n,)), (kernel._eye, (n,)),
                           (kernel._cascade_index, (n, 2)), (kernel._cascade_index, (n, 3))):
            arr = build(*key)
            assert build(*key) is arr
            with pytest.raises(ValueError):
                arr.flat[0] = 0
        assert kernel.fourier(n) is f
        # Bit for bit the construction from the roots of unity, quarter turns exact.
        roots = np.exp(2j * math.pi * np.arange(n) / n)
        for q in range(4):
            if q * n % 4 == 0:
                roots[q * n // 4] = (1, 1j, -1, -1j)[q]
        assert f.tobytes() == (roots[np.outer(range(n), range(n)) % n] / math.sqrt(n)).tobytes()
        if n == 2:
            assert f.tobytes() == (np.array([[1, 1], [1, -1]], complex) / math.sqrt(2)).tobytes()


class TestRunHybrid:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reduces_to_two_qubit(self, seed):
        # At n = 2 the two schemes are one circuit, read from one outcome row.
        spec = random_spec(np.random.default_rng(seed), 2, 2)
        hybrid = run_hybrid(spec)
        reduced = run_two_qubit_reduced(spec)
        assert hybrid.success_prob == reduced.success_prob
        assert hybrid.final_state.amps.tobytes() == reduced.final_state.amps.tobytes()

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_prints_what_verify_checks(self, rng, n, d):
        # verify's hybrid_eq8 check runs one pass over a validated batch of many
        # trials of a shape; each trial's row is the number qudit prints for it.
        specs = [random_spec(rng, n, d) for _ in range(10)]
        batch = (np.concatenate(x) for x in zip(*(s.batch[:3] for s in specs)))
        sim, _ = analysis._eq8_deviation(*kernel.validate(*batch))
        assert [run_hybrid(s).success_prob for s in specs] == sim.tolist()

    def test_refuses_where_the_reduced_scheme_refuses(self, capsys, tmp_path):
        # psi1 = psi2 with <0|psi> = 2e-9 and a + b = 1e-7: the outcome-0 row has
        # norm about 1.4e-16, below the floor of its normalization, though that
        # row scaled by 1/sqrt(p_ref), as the printed branches are, is not. Both
        # commands refuse it with one message.
        theta = math.pi - 4e-9
        psi = make_qubit(QubitParams(theta, 0.0))
        states = tmp_path / "states.json"
        states.write_text(json.dumps([psi.to_json()] * 2))
        a, b = "0.70710683", "-0.70710673"
        errors = []
        for argv in (
            ["run-reference", "--mode", "reduced", "--psi1", f"{theta!r},0",
             "--psi2", f"{theta!r},0", "--a", a, "--b", b],
            ["qudit", "--n", "2", "--d", "2", "--states", str(states),
             "--weights", f"{a},{b}", "--chi-index", "0"],
        ):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err)["error"]["type"] == "degenerate-input"
            errors.append(err)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("n,eps,printed", [(3, 1.05e-6, True), (5, 1e-3, True), (3, 1e-7, False)])
    def test_small_overlaps_from_three_states(self, capsys, tmp_path, n, eps, printed):
        # Every <0|psi_k> = eps, so p_ref = eps^(2(n-1)). The first two have a raw
        # outcome-0 norm below 1e-12 (about 0.93e-12 and 0.57e-12) yet are held
        # to the rescaled row, and print; P matches Eq. 8 to 1e-9. At eps = 1e-7
        # the encoded block's own norm, 1e-14, is below the floor: it is refused.
        s = math.sqrt(1 - eps * eps)
        states = [StateVector((2,), np.array([eps, s * np.exp(1j * (0.7 * k + 0.3))]))
                  for k in range(n)]
        path = tmp_path / "states.json"
        path.write_text(json.dumps([psi.to_json() for psi in states]))
        w = repr(1 / math.sqrt(n))
        argv = ["qudit", "--n", str(n), "--d", "2", "--states", str(path),
                "--weights", ",".join([w] * n), "--chi-index", "0"]
        assert main(argv) == (0 if printed else 1)
        out, err = capsys.readouterr()
        if not printed:
            assert out == "" and json.loads(err)["error"]["type"] == "degenerate-input"
            return
        spec = ReferenceSpec(n=n, d=2, weights=(1 / math.sqrt(n),) * n,
                             states=tuple(states), chi=basis_state(2, 0))
        p = json.loads(out)["success_prob"]
        assert p < 1e-24 and p == pytest.approx(closed_form_hybrid(spec), rel=1e-9)

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
                        unit_state(base.branches[j].amps),
                        unit_state(perm.branches[j].amps),
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
            weights, _, _, ip = spec.batch
            primed = kernel.primed(weights, np.abs(ip) ** 2)
            lhs = result.success_prob * n * kernel.norm_sq(primed)[0]
            rhs = kappa_weighted_sum(spec).norm_sq
            assert lhs == pytest.approx(rhs, abs=1e-9)
            assert abs(result.success_prob - closed_form_hybrid(spec)) <= 1e-9
