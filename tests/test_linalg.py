"""Core linear-algebra layer: states, operators, traces, overlaps."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsuperpose.errors import (
    ArgumentError,
    DegenerateInputError,
    ToolkitError,
    ZeroOverlapError,
)
from qsuperpose.linalg import (
    DensityMatrix,
    OverlapInfo,
    QubitParams,
    StateVector,
    basis_state,
    bloch,
    check_angles,
    check_states,
    fidelity,
    fidelity_batch,
    make_qubit,
    overlap_decompose,
    partial_trace,
    pure_density,
    tensor,
    unit_state,
)

from helpers import phase_equivalent, three_products

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_density(rng, dims):
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityMatrix(dims, mat / np.trace(mat).real)


class TestMakeQubit:
    def test_north_pole(self):
        sv = make_qubit(QubitParams(0.0, 0.0, 0.0))
        np.testing.assert_array_equal(sv.amps, [1.0, 0.0])
        assert sv.dims == (2,) and sv.normalized

    def test_table_state(self):
        # (1/2)(|0> + sqrt(3)|1>)
        sv = make_qubit(QubitParams(2 * math.pi / 3, 0.0))
        np.testing.assert_allclose(sv.amps, [0.5, math.sqrt(3) / 2], atol=1e-15)

    def test_circular_state(self):
        sv = make_qubit(QubitParams(math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(sv.amps, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-15)

    def test_global_phase(self):
        plain = make_qubit(QubitParams(1.0, 2.0, 0.0))
        phased = make_qubit(QubitParams(1.0, 2.0, 0.7))
        np.testing.assert_allclose(phased.amps, np.exp(0.7j) * plain.amps, atol=1e-15)

    @pytest.mark.parametrize(
        "theta,phi,gamma",
        [(-0.1, 0.0, 0.0), (math.pi + 0.1, 0.0, 0.0), (0.0, -1.0, 0.0),
         (0.0, 2 * math.pi, 0.0), (0.0, 0.0, -0.5), (0.0, 0.0, 7.0)],
    )
    def test_range_enforcement(self, theta, phi, gamma):
        with pytest.raises(ArgumentError):
            QubitParams(theta, phi, gamma)


class TestTensor:
    def test_binary_kets(self):
        sv = tensor(basis_state(2, 0), basis_state(2, 1))
        np.testing.assert_array_equal(sv.amps, [0.0, 1.0, 0.0, 0.0])

    def test_superposition_times_ket(self):
        # (a|0> + b|1>) x |0> = a|00> + b|10>, expanded by hand
        a, b = 0.6, 0.8
        u = StateVector((2,), [a, b], normalized=True)
        sv = tensor(u, basis_state(2, 0))
        np.testing.assert_array_equal(sv.amps, [a, 0.0, b, 0.0])

    def test_dims_concatenate(self):
        sv = tensor(basis_state(2, 1), basis_state(3, 2))
        assert sv.dims == (2, 3) and sv.amps.size == 6

    def test_normalized_flag(self):
        u = StateVector((2,), [1.0, 1.0])
        assert not tensor(u, basis_state(2, 0)).normalized
        assert tensor(basis_state(2, 0), basis_state(2, 1)).normalized

    def test_associativity(self, rng):
        # Dyadic amplitudes make float products exact, so equality is bitwise.
        u = StateVector((2,), [0.5, 0.25])
        v = StateVector((2,), [0.75, -0.5])
        w = StateVector((3,), [0.5, 1.0, -0.25])
        left = tensor(tensor(u, v), w)
        right = tensor(u, tensor(v, w))
        assert left.dims == right.dims
        np.testing.assert_array_equal(left.amps, right.amps)
        # Random amplitudes agree to the last couple of ulps.
        for _ in range(20):
            su = StateVector((2,), rng.normal(size=2) + 1j * rng.normal(size=2))
            sv = StateVector((3,), rng.normal(size=3) + 1j * rng.normal(size=3))
            sw = StateVector((2,), rng.normal(size=2) + 1j * rng.normal(size=2))
            np.testing.assert_allclose(
                tensor(tensor(su, sv), sw).amps,
                tensor(su, tensor(sv, sw)).amps,
                rtol=1e-14,
                atol=1e-15,
            )


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_density(rng, (2,))
        rho_x = random_density(rng, (2,))
        joint = DensityMatrix((2, 2), np.kron(rho_a.mat, rho_x.mat))
        np.testing.assert_allclose(
            partial_trace(joint, [1]).mat, rho_x.mat, atol=1e-14
        )

    def test_bell_state(self):
        bell = StateVector((2, 2), np.array([1, 0, 0, 1]) * INV_SQRT2, normalized=True)
        reduced = partial_trace(pure_density(bell), [0])
        np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self, rng):
        rho = random_density(rng, (2, 3, 2))
        for keep in ([0], [1], [2], [0, 2], [0, 1, 2]):
            assert abs(partial_trace(rho, keep).trace - rho.trace) <= 1e-12

    def test_sequential_equals_union(self, rng):
        rho = random_density(rng, (2, 2, 3))
        once = partial_trace(rho, [0])
        twice = partial_trace(partial_trace(rho, [0, 2]), [0])
        np.testing.assert_allclose(once.mat, twice.mat, atol=1e-13)

    def test_trace_all_returns_scalar(self, rng):
        rho = random_density(rng, (2, 2))
        scalar = partial_trace(rho, [])
        assert scalar.mat.shape == (1, 1)
        assert abs(scalar.mat[0, 0].real - rho.trace) <= 1e-12

    def test_invalid_index(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(ArgumentError):
            partial_trace(rho, [2])


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density(rng, (2, 2))
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-12

    def test_orthogonal_pure(self):
        z0 = pure_density(basis_state(2, 0))
        z1 = pure_density(basis_state(2, 1))
        assert fidelity(z0, z1) == pytest.approx(0.0, abs=1e-15)

    def test_zero_plus(self):
        plus = pure_density(make_qubit(QubitParams(math.pi / 2, 0.0)))
        zero = pure_density(basis_state(2, 0))
        assert fidelity(zero, plus) == pytest.approx(0.5, abs=1e-14)

    def test_symmetry(self, rng):
        a = random_density(rng, (2, 2))
        b = random_density(rng, (2, 2))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)

    def test_unity_iff_proportional_for_pure(self, rng):
        psi = StateVector((2,), random_pure_amps(rng, 2), normalized=True)
        phi = StateVector((2,), random_pure_amps(rng, 2), normalized=True)
        assert fidelity(pure_density(psi), pure_density(psi)) == pytest.approx(1.0)
        overlap = abs(np.vdot(psi.amps, phi.amps)) ** 2
        assert fidelity(pure_density(psi), pure_density(phi)) == pytest.approx(
            overlap, abs=1e-12
        )

    def test_dims_mismatch(self, rng):
        with pytest.raises(ArgumentError):
            fidelity(random_density(rng, (2,)), random_density(rng, (2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 2, 17]), st.sampled_from([2, 4]), st.integers(0, 2**32 - 1))
    def test_batch_rows_same_bits_as_single_rows(self, t, d, seed):
        rng = np.random.default_rng(seed)
        rho_e, rho_t = psd_stack(rng, t, d), psd_stack(rng, t, d)
        got = fidelity_batch(rho_e, rho_t)
        want = np.array([fidelity_batch(rho_e[k:k + 1], rho_t[k:k + 1])[0] for k in range(t)])
        assert got.shape == (t,) and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 2, 17]), st.sampled_from([2, 4]), st.integers(0, 2**32 - 1))
    def test_batch_within_1e15_of_three_products(self, t, d, seed):
        rng = np.random.default_rng(seed)
        rho_e, rho_t = psd_stack(rng, t, d), psd_stack(rng, t, d)
        got, want = fidelity_batch(rho_e, rho_t), three_products(rho_e, rho_t)
        assert got.shape == (t,) and np.abs(got - want).max(initial=0.0) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(2,), (2, 2)]), st.integers(0, 2**32 - 1))
    def test_scalar_same_bits_as_batch(self, dims, seed):
        rng = np.random.default_rng(seed)
        a, b = random_density(rng, dims), random_density(rng, dims)
        assert fidelity(a, b) == float(fidelity_batch(a.mat[None], b.mat[None])[0])


def psd_stack(rng, t, d):
    """t random unit-trace PSD matrices (t, d, d), each of a random rank."""
    mats = np.empty((t, d, d), complex)
    for k in range(t):
        a = rng.normal(size=(d, rng.integers(1, d + 1))) * (1 + 0j)
        a += 1j * rng.normal(size=a.shape)
        mats[k] = a @ a.conj().T
        mats[k] /= np.trace(mats[k]).real
    return mats


def random_pure_amps(rng, d):
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return amps / np.linalg.norm(amps)


class TestOverlapDecompose:
    def test_identical(self):
        info = overlap_decompose(basis_state(2, 0), basis_state(2, 0))
        assert info.c == pytest.approx(1.0) and info.kappa == pytest.approx(1.0)

    def test_phase_extraction(self):
        # psi = e^{i pi/3}(sqrt(3)|0> + |1>)/2 against chi = |0>
        psi = make_qubit(QubitParams(math.pi / 3, 0.0, math.pi / 3))
        info = overlap_decompose(psi, basis_state(2, 0))
        assert info.c == pytest.approx(0.75, abs=1e-12)
        assert info.kappa == pytest.approx(np.exp(1j * math.pi / 3), abs=1e-12)

    def test_orthogonal_raises(self):
        with pytest.raises(ZeroOverlapError):
            overlap_decompose(basis_state(2, 1), basis_state(2, 0))

    def test_phase_rotation_rotates_kappa(self, rng):
        psi = StateVector((2,), random_pure_amps(rng, 2), normalized=True)
        chi = StateVector((2,), random_pure_amps(rng, 2), normalized=True)
        base = overlap_decompose(psi, chi)
        alpha = 1.234
        rotated = overlap_decompose(
            StateVector((2,), np.exp(1j * alpha) * psi.amps, normalized=True), chi
        )
        assert rotated.c == pytest.approx(base.c, abs=1e-14)
        assert rotated.kappa == pytest.approx(
            base.kappa * np.exp(1j * alpha), abs=1e-12
        )

    def test_dims_mismatch(self):
        with pytest.raises(ArgumentError):
            overlap_decompose(basis_state(2, 0), basis_state(3, 0))


class TestPhaseEquivalent:
    def test_global_phase(self, rng):
        u = StateVector((2,), random_pure_amps(rng, 2), normalized=True)
        v = StateVector((2,), np.exp(1j * math.pi / 3) * u.amps, normalized=True)
        assert phase_equivalent(u, v, 1e-9)

    def test_orthogonal(self):
        assert not phase_equivalent(basis_state(2, 0), basis_state(2, 1), 1e-9)


class TestValidation:
    def test_state_length_mismatch(self):
        with pytest.raises(ArgumentError):
            StateVector((2, 2), [1.0, 0.0])

    def test_state_non_finite(self):
        with pytest.raises(ArgumentError):
            StateVector((2,), [np.nan, 0.0])

    def test_normalized_flag_checked(self):
        with pytest.raises(ArgumentError):
            StateVector((2,), [1.0, 1.0], normalized=True)

    def test_state_immutable(self):
        sv = basis_state(2, 0)
        with pytest.raises(ValueError):
            sv.amps[0] = 2.0

    def test_density_not_hermitian(self):
        with pytest.raises(ArgumentError):
            DensityMatrix((2,), [[0.5, 1.0], [0.0, 0.5]])

    def test_density_negative_eigenvalue(self):
        with pytest.raises(ArgumentError):
            DensityMatrix((2,), [[0.6, 0.55], [0.55, 0.4]])

    def test_density_zero_trace(self):
        with pytest.raises(DegenerateInputError):
            DensityMatrix((2,), np.zeros((2, 2)))

    def test_density_trace_above_one(self):
        with pytest.raises(ArgumentError):
            DensityMatrix((2,), np.eye(2))

    def test_overlap_info_invariants(self, rng):
        # c > 0 and |kappa| = 1 hold by construction in overlap_decompose.
        for d in (2, 3, 5):
            psi, chi = (StateVector((d,), random_pure_amps(rng, d)) for _ in range(2))
            info = overlap_decompose(psi, chi)
            assert isinstance(info, OverlapInfo) and info.c > 0.0
            assert abs(abs(info.kappa) - 1.0) <= 1e-15


def spoil(mat, fault):
    """A copy of a density matrix that breaks one rule of DensityMatrix."""
    if fault == "hermitian":
        return mat + np.diag(np.ones(len(mat) - 1), 1) * 1e-6
    if fault == "negative":
        vals, vecs = np.linalg.eigh(mat)
        vals[0] = -1e-3
        return (vecs * vals) @ vecs.conj().T
    if fault == "trace":
        return mat * 1.5
    if fault == "zero":
        return mat * 0.0
    return np.where(np.eye(len(mat)) == 1, np.nan, mat)


def per_component_check(angles):
    """check_angles as one scan per component, its form before the one range
    comparison, kept as its reference."""
    theta, phi, gamma = (angles[..., k] for k in range(3))
    for name, x, inside in (
        ("theta", theta, (0.0 <= theta) & (theta <= math.pi)),
        ("phi", phi, (0.0 <= phi) & (phi < 2.0 * math.pi)),
        ("gamma", gamma, (0.0 <= gamma) & (gamma < 2.0 * math.pi)),
    ):
        if not inside.all():
            shown = "[0, pi]" if name == "theta" else "[0, 2pi)"
            raise ArgumentError(f"{name} must lie in {shown}, got {float(x[~inside][0])}")


ABOVE_PI = math.nextafter(math.pi, 4.0)
ANGLE_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, math.pi, ABOVE_PI, 2 * math.pi, math.nextafter(2 * math.pi, 0.0),
     -1e-300, -1.0, 7.0, math.nan, math.inf, -math.inf]
)


class TestCheckAngles:
    GOOD = np.array([[[1.0, 2.0, 3.0], [0.5, 0.0, 6.0]]] * 3)

    @pytest.mark.parametrize("row", [0, -1])
    @pytest.mark.parametrize("k,value,message", [
        (0, -0.5, "theta must lie in [0, pi], got -0.5"),
        (0, ABOVE_PI, f"theta must lie in [0, pi], got {ABOVE_PI}"),
        (0, math.nan, "theta must lie in [0, pi], got nan"),
        (1, 2 * math.pi, f"phi must lie in [0, 2pi), got {2 * math.pi}"),
        (1, -1e-300, "phi must lie in [0, 2pi), got -1e-300"),
        (1, math.nan, "phi must lie in [0, 2pi), got nan"),
        (2, 2 * math.pi, f"gamma must lie in [0, 2pi), got {2 * math.pi}"),
        (2, -2.0, "gamma must lie in [0, 2pi), got -2.0"),
        (2, math.nan, "gamma must lie in [0, 2pi), got nan"),
    ])
    def test_each_bad_position(self, row, k, value, message):
        for qubit in (0, 1):
            angles = self.GOOD.copy()
            angles[row, qubit, k] = value
            with pytest.raises(ArgumentError) as caught:
                check_angles(angles)
            assert str(caught.value) == message
            with pytest.raises(ArgumentError, match=re.escape(message)):
                per_component_check(angles)

    def test_theta_anywhere_before_phi_and_gamma(self):
        angles = self.GOOD.copy()
        angles[0, 0, 1], angles[0, 0, 2], angles[-1, -1, 0] = -1.0, -2.0, 4.0
        with pytest.raises(ArgumentError, match=r"^theta must lie in \[0, pi\], got 4.0$"):
            check_angles(angles)
        angles[-1, -1, 0] = 1.0
        with pytest.raises(ArgumentError, match=r"^phi must lie in \[0, 2pi\), got -1.0$"):
            check_angles(angles)

    def test_edges_accepted(self):
        check_angles(np.array([[0.0, -0.0, math.nextafter(2 * math.pi, 0.0)], [math.pi, 0, 0]]))
        check_angles(np.empty((0, 2, 3)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda t: st.lists(ANGLE_VALUES, min_size=6 * t, max_size=6 * t)
    ))
    def test_same_message_as_per_component_scan(self, values):
        angles = np.array(values).reshape(-1, 2, 3)
        for arr in (angles, angles[0, 0]):
            try:
                per_component_check(arr)
            except ArgumentError as exc:
                with pytest.raises(ArgumentError) as caught:
                    check_angles(arr)
                assert str(caught.value) == str(exc)
            else:
                check_angles(arr)


class TestBatchCheck:
    def test_traces_match_scalar(self, rng):
        mats = [random_density(rng, (3,)) for _ in range(4)]
        traces = check_states(np.stack([m.mat for m in mats]))
        assert traces.tolist() == [m.trace for m in mats]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(2, 4),
        st.sampled_from(["hermitian", "trace", "zero", "nan"]),
        st.integers(0, 2**32 - 1),
    )
    def test_one_bad_row_fails_as_its_scalar_build(self, t, d, fault, seed):
        rng = np.random.default_rng(seed)
        good = np.stack([random_density(rng, (d,)).mat for _ in range(t)])
        for bad in range(t):
            mats = good.copy()
            mats[bad] = spoil(mats[bad], fault)
            with pytest.raises(ToolkitError) as scalar:
                DensityMatrix((d,), mats[bad])
            with pytest.raises(ToolkitError) as batch:
                check_states(mats)
            assert type(batch.value) is type(scalar.value)
            assert str(batch.value) == str(scalar.value)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(2, 4),
        st.sampled_from(["hermitian", "negative", "trace", "zero", "nan"]),
        st.integers(0, 2**32 - 1),
    )
    def test_density_matrix_is_check_states_then_eigvalsh(self, t, d, fault, seed):
        rng = np.random.default_rng(seed)
        mats = np.stack([random_density(rng, (d,)).mat for _ in range(t)])
        assert check_states(mats).tolist() == [DensityMatrix((d,), m).trace for m in mats]
        mats[-1] = spoil(mats[-1], fault)
        with pytest.raises(ToolkitError) as full:
            DensityMatrix((d,), mats[-1])
        if fault == "negative":
            # Positivity is left to the caller's proof; the eigvalsh refuses it.
            assert check_states(mats).tolist() == np.trace(mats, axis1=1, axis2=2).real.tolist()
            assert type(full.value) is ArgumentError
            assert str(full.value) == "density matrix has a negative eigenvalue"
            return
        with pytest.raises(ToolkitError) as states:
            check_states(mats)
        assert type(states.value) is type(full.value)
        assert str(states.value) == str(full.value)


class TestJsonRoundTrip:
    def test_state(self, rng):
        sv = StateVector((2, 3), rng.normal(size=6) + 1j * rng.normal(size=6))
        back = StateVector.from_json(sv.to_json())
        assert back.dims == sv.dims
        np.testing.assert_array_equal(back.amps, sv.amps)

    def test_malformed(self):
        with pytest.raises(ArgumentError):
            StateVector.from_json({"dims": [2]})

    @pytest.mark.parametrize(
        "dims",
        [2, "2", ["x"], [2.7], [2.0], [True, 2]],
        ids=["int", "str", "text", "fraction", "float", "bool"],
    )
    def test_dims_must_be_a_list_of_integers(self, dims):
        state = {"dims": dims, "amps": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ArgumentError, match=re.escape(repr(dims))):
            StateVector.from_json(state)


class TestNormalize:
    def test_zero_state_rejected(self):
        with pytest.raises(DegenerateInputError):
            unit_state(np.array([0.0, 0.0]))

    def test_scaled_state(self):
        sv = unit_state(np.array([3.0, 4.0]))
        np.testing.assert_allclose(sv.amps, [0.6, 0.8], atol=1e-15)
        assert sv.normalized


class TestDeterminism:
    def test_bit_identical_outputs(self, rng):
        amps = random_pure_amps(rng, 4)
        sv = StateVector((2, 2), amps, normalized=True)
        first = partial_trace(pure_density(sv), [0]).mat
        second = partial_trace(pure_density(sv), [0]).mat
        np.testing.assert_array_equal(first, second)


def bloch_halving_twice(theta, phi, gamma):
    """bloch with theta halved once per amplitude, its form before one halving,
    kept as its reference."""
    amps = np.empty(np.shape(theta) + (2,), complex)
    amps[..., 0], amps[..., 1] = np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)
    return np.exp(1j * gamma)[..., None] * amps


# The poles theta = 0 and pi, and gamma = 0 (a declared phase that is absent).
THETAS = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))
TWO_PI = st.floats(0.0, 2 * math.pi, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(THETAS, TWO_PI, st.one_of(st.just(0.0), TWO_PI)), max_size=12),
       st.booleans())
def test_bloch_keeps_the_bits_of_halving_twice(triples, scalar_gamma):
    """Every amplitude, and its sign bits, as before; scalar inputs as make_qubit
    passes them, and arrays as spec_batch and verify pass them."""
    for one in triples:
        assert bloch(*one).tobytes() == bloch_halving_twice(*one).tobytes()
    theta, phi, gamma = np.array(triples, dtype=float).reshape(-1, 3).T
    if scalar_gamma:
        gamma = 0.0
    got, want = bloch(theta, phi, gamma), bloch_halving_twice(theta, phi, gamma)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
