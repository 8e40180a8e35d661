"""Dual-outcome enhanced protocol: U_chi operators, geometries, totals."""
import math

import numpy as np
import pytest

from qsuperpose import kernel
from qsuperpose.enhanced import chi_perp, closed_form_p2, geometry_classify, run_enhanced
from qsuperpose.kernel import (
    GEOMETRY_GENERIC,
    GEOMETRY_LONGITUDINAL,
    GEOMETRY_TRANSVERSE_ANTIPODAL,
)
from qsuperpose.errors import ArgumentError, ZeroOverlapError
from qsuperpose.linalg import (
    DensityMatrix,
    QubitParams,
    StateVector,
    basis_state,
    fidelity,
    make_qubit,
    partial_trace,
    pure_density,
    unit_state,
)
from qsuperpose.reference import ReferenceSpec, closed_form_p3, kappa_weighted_sum

from helpers import phase_equivalent

INV_SQRT2 = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)

PSI1_D5 = make_qubit(QubitParams(2 * math.pi / 3, 0.0))
PSI2_D5 = make_qubit(QubitParams(math.pi / 3, 0.0))
PSI1_D6 = make_qubit(QubitParams(2 * math.pi / 3, math.pi / 4))
PSI2_D6 = make_qubit(QubitParams(math.pi / 3, 2 * math.pi / 3))
CHI0 = basis_state(2, 0)
PLUS = make_qubit(QubitParams(math.pi / 2, 0.0))
MINUS = make_qubit(QubitParams(math.pi / 2, math.pi))


def pair(a, b, psi1, psi2, chi):
    return ReferenceSpec(n=2, d=2, weights=(a, b), states=(psi1, psi2), chi=chi)


def harvest(spec) -> DensityMatrix:
    """The combined harvest from the kernel rows: the ancilla-|0> rows of both
    reference sectors joined with their reference qubit, which is traced out."""
    weights, states, chi, ip = spec.batch
    ipp = kernel.overlaps(states, kernel.chi_perp(chi))
    h = kernel.enhanced(weights, states, chi, ip, ipp)
    chip = chi_perp(spec.chi).amps
    joint = np.outer(h.rows[0, 0], chi[0]) + np.outer(h.rows_perp[0, 0], chip)
    joint = unit_state(joint.reshape(2, 2))
    return partial_trace(pure_density(joint), [0])


def bloch_state(chi, polar, azimuth):
    """cos(polar) chi + e^{i azimuth} sin(polar) chi_perp."""
    perp = chi_perp(chi)
    return StateVector(
        (2,),
        math.cos(polar) * chi.amps + math.sin(polar) * np.exp(1j * azimuth) * perp.amps,
        normalized=True,
    )


def random_state(rng, chi=None, floor=0.1):
    while True:
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        ok = chi is None or (
            abs(np.vdot(chi.amps, amps)) >= floor
            and abs(np.vdot(chi_perp(chi).amps, amps)) >= floor
        )
        if ok:
            return StateVector((2,), amps, normalized=True)


def u_chi(c1, c2) -> np.ndarray:
    """kernel.u_chi over overlaps c_k = |<chi|psi_k>|^2, scalars or arrays: (T, 2, 2)."""
    return kernel.u_chi(np.atleast_1d(c1), np.atleast_1d(c2))


class TestUChi:
    def test_equal_overlaps_is_hadamard(self):
        np.testing.assert_allclose(u_chi(0.3, 0.3)[0], HADAMARD, atol=1e-12)

    def test_quarter_three_quarter(self):
        expected = np.array([[0.8660254037844387, 0.5], [0.5, -0.8660254037844387]])
        np.testing.assert_allclose(u_chi(0.25, 0.75)[0], expected, atol=1e-12)

    def test_perp_mirror(self):
        expected = np.array([[0.5, 0.8660254037844387], [0.8660254037844387, -0.5]])
        np.testing.assert_allclose(u_chi(0.75, 0.25)[0], expected, atol=1e-12)
        np.testing.assert_allclose(u_chi(0.4, 0.4)[0], HADAMARD, atol=1e-12)

    def test_real(self, rng):
        # kernel.enhanced multiplies it as a real matrix on the block's float view.
        c1, c2 = rng.uniform(0.01, 1.0, size=(5, 2)).T
        assert u_chi(c1, c2).dtype == np.float64

    def test_unitarity_random(self, rng):
        c1, c2 = rng.uniform(0.01, 1.0, size=(100, 2)).T
        u = u_chi(c1, c2)
        gram = u.conj().swapaxes(1, 2) @ u
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_zero_overlap(self):
        # The rule reads the magnitude sqrt(c) = |<chi|psi>|, and the spec applies
        # it before any U_chi is built: c1 = 1e-20 is rejected, c1 = 1e-10 is not.
        psi1 = bloch_state(CHI0, math.acos(1e-10), 0.0)
        with pytest.raises(ZeroOverlapError, match="psi1 .* = 1.000e-10"):
            run_enhanced(pair(0.6, 0.8, psi1, PLUS, CHI0))
        u = u_chi(1e-10, 0.5)[0]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


class TestChiPerp:
    def test_orthogonality(self, rng):
        for _ in range(20):
            chi = random_state(rng)
            perp = chi_perp(chi)
            assert abs(np.vdot(chi.amps, perp.amps)) <= 1e-14
            assert perp.norm_sq == pytest.approx(1.0, abs=1e-14)

    def test_any_two_amplitude_state_is_a_qubit(self):
        # The qubit rule reads the amplitude count: dims (1, 2) holds one qubit.
        chi = StateVector((1, 2), np.array([0.6, 0.8j]), normalized=True)
        perp = chi_perp(chi)
        assert perp.dims == (2,)
        assert np.array_equal(perp.amps, [0.8j, 0.6])


class TestGeometryClassify:
    def test_dataset5_longitudinal(self):
        assert geometry_classify(PSI1_D5, PSI2_D5, CHI0) == GEOMETRY_LONGITUDINAL

    def test_equatorial_antipodal(self):
        assert (
            geometry_classify(PLUS, MINUS, CHI0) == GEOMETRY_TRANSVERSE_ANTIPODAL
        )

    def test_dataset6_generic(self):
        assert geometry_classify(PSI1_D6, PSI2_D6, CHI0) == GEOMETRY_GENERIC

    def test_rotated_frame(self, rng):
        chi = random_state(rng)
        psi1 = bloch_state(chi, 0.5, 1.1)
        psi2 = bloch_state(chi, 1.0, 1.1)
        assert geometry_classify(psi1, psi2, chi) == GEOMETRY_LONGITUDINAL
        psi3 = bloch_state(chi, 0.5, 1.1 + math.pi)
        assert geometry_classify(psi1, psi3, chi) == GEOMETRY_TRANSVERSE_ANTIPODAL


class TestRunEnhanced:
    def test_equatorial_antipodal_reaches_half(self):
        result = run_enhanced(pair(INV_SQRT2, INV_SQRT2, PLUS, MINUS, CHI0))
        assert result.p1 == pytest.approx(0.25, abs=1e-9)
        assert result.p2 == pytest.approx(0.25, abs=1e-9)
        assert result.p_total == pytest.approx(0.5, abs=1e-9)
        assert result.coherent

    def test_dataset5_longitudinal_total(self):
        spec = pair(INV_SQRT2, INV_SQRT2, PSI1_D5, PSI2_D5, CHI0)
        result = run_enhanced(spec)
        p3 = closed_form_p3(spec)
        nsq = kappa_weighted_sum(spec).norm_sq
        # c1perp = 3/4, c2perp = 1/4
        expected = p3 + nsq * (0.75 * 0.25) / (0.75 + 0.25)
        assert result.coherent
        assert result.p_total == pytest.approx(expected, abs=1e-9)

    def test_c1_equals_c2perp_doubles(self):
        # Dataset-5 pair has c1 = 1/4 = 1 - c2, the doubling special case.
        result = run_enhanced(pair(INV_SQRT2, INV_SQRT2, PSI1_D5, PSI2_D5, CHI0))
        p3 = closed_form_p3(pair(INV_SQRT2, INV_SQRT2, PSI1_D5, PSI2_D5, CHI0))
        assert result.p_total == pytest.approx(2.0 * p3, abs=1e-9)
        assert result.p_total == pytest.approx(2.0 * result.p1, abs=1e-9)

    def test_branch_states_match_closed_forms(self, rng):
        for _ in range(100):
            chi = random_state(rng)
            psi1 = random_state(rng, chi)
            psi2 = random_state(rng, chi)
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            w /= np.linalg.norm(w)
            a, b = complex(w[0]), complex(w[1])
            spec = pair(a, b, psi1, psi2, chi)
            result = run_enhanced(spec)
            assert abs(result.p1 - closed_form_p3(spec)) <= 1e-9
            if result.geometry != GEOMETRY_TRANSVERSE_ANTIPODAL:
                assert abs(result.p2 - closed_form_p2(spec)) <= 1e-9
            # Each branch is the kappa-weighted superposition of its sector.
            target1 = unit_state(kappa_weighted_sum(spec).amps)
            assert phase_equivalent(result.branch_chi, target1, 1e-9)
            if result.branch_chi_perp is not None:
                target2 = unit_state(
                    kappa_weighted_sum(pair(a, b, psi1, psi2, chi_perp(chi))).amps
                )
                assert phase_equivalent(result.branch_chi_perp, target2, 1e-9)

    def test_generic_reports_p1_only(self):
        result = run_enhanced(pair(INV_SQRT2, INV_SQRT2, PSI1_D6, PSI2_D6, CHI0))
        assert result.geometry == GEOMETRY_GENERIC
        assert not result.coherent
        assert result.p_total == pytest.approx(result.p1, abs=1e-15)

    def test_longitudinal_harvest_is_pure_target(self, rng):
        for _ in range(20):
            chi = random_state(rng)
            psi1 = bloch_state(chi, float(rng.uniform(0.2, 1.3)), 0.8)
            psi2 = bloch_state(chi, float(rng.uniform(0.2, 1.3)), 0.8)
            spec = pair(INV_SQRT2, INV_SQRT2, psi1, psi2, chi)
            result = run_enhanced(spec)
            assert result.geometry == GEOMETRY_LONGITUDINAL
            assert result.harvest_purity >= 1.0 - 1e-9
            state = harvest(spec)
            assert np.einsum("ij,ji->", state.mat, state.mat).real == result.harvest_purity
            target = unit_state(kappa_weighted_sum(spec).amps)
            assert fidelity(state, pure_density(target)) >= 1.0 - 1e-9
            assert result.p_total == pytest.approx(result.p1 + result.p2, abs=1e-12)

    def test_antipodal_total_matches_seq12(self, rng):
        for _ in range(20):
            chi = random_state(rng)
            polar = float(rng.uniform(0.2, math.pi / 2 - 0.1))
            azimuth = float(rng.uniform(0, 2 * math.pi))
            psi1 = bloch_state(chi, polar, azimuth)
            psi2 = bloch_state(chi, polar, azimuth + math.pi)
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            w /= np.linalg.norm(w)
            a, b = complex(w[0]), complex(w[1])
            result = run_enhanced(pair(a, b, psi1, psi2, chi))
            assert result.geometry == GEOMETRY_TRANSVERSE_ANTIPODAL
            nsq = kappa_weighted_sum(pair(a, b, psi1, psi2, chi)).norm_sq
            assert result.p_total == pytest.approx(nsq / 2.0, abs=1e-9)

    def test_zero_overlap_either_basis(self):
        with pytest.raises(ZeroOverlapError):
            run_enhanced(pair(INV_SQRT2, INV_SQRT2, CHI0, PLUS, CHI0))
        with pytest.raises(ZeroOverlapError):
            run_enhanced(pair(INV_SQRT2, INV_SQRT2, basis_state(2, 1), PLUS, CHI0))

    def test_weight_validation(self):
        with pytest.raises(ArgumentError):
            run_enhanced(pair(1.0, 1.0, PSI1_D5, PSI2_D5, CHI0))


class TestClosedFormP2:
    def test_zero_chi_perp_overlap_names_chi_perp(self):
        # psi1 = chi = |0>: its overlap with chi is 1, with chi_perp 0.
        spec = pair(0.6, 0.8, CHI0, make_qubit(QubitParams(1.0, 0.0)), CHI0)
        with pytest.raises(ZeroOverlapError) as exc:
            closed_form_p2(spec)
        assert str(exc.value).startswith(
            "psi1 has a zero overlap with the reference chi_perp: "
            "|<chi_perp|psi1>| = 0.000e+00"
        )


    def test_antipodal_pairs_give_the_harvested_row(self, rng):
        # A transverse antipodal pair harvests its ancilla-|1> row; with unequal
        # weights that P(2) differs from the ancilla-|0> row's closed form.
        for _ in range(20):
            chi = random_state(rng)
            polar = float(rng.uniform(0.2, math.pi / 2 - 0.1))
            azimuth = float(rng.uniform(0, 2 * math.pi))
            a = float(rng.uniform(0.3, 0.6))
            psi1 = bloch_state(chi, polar, azimuth)
            psi2 = bloch_state(chi, polar, azimuth + math.pi)
            spec = pair(a, math.sqrt(1 - a * a), psi1, psi2, chi)
            result = run_enhanced(spec)
            assert result.geometry == GEOMETRY_TRANSVERSE_ANTIPODAL
            assert closed_form_p2(spec) == pytest.approx(result.p2, abs=1e-9)


class TestSpecShape:
    @pytest.mark.parametrize("pipeline", [run_enhanced, closed_form_p2])
    def test_rejects_three_states(self, pipeline):
        spec = ReferenceSpec(
            n=3,
            d=2,
            weights=tuple([1 / math.sqrt(3)] * 3),
            states=(PSI1_D5, PSI2_D5, PSI1_D6),
            chi=CHI0,
        )
        with pytest.raises(ArgumentError):
            pipeline(spec)

    @pytest.mark.parametrize("pipeline", [run_enhanced, closed_form_p2])
    def test_rejects_qutrits(self, pipeline):
        qutrit = StateVector((3,), np.ones(3) / math.sqrt(3), normalized=True)
        spec = ReferenceSpec(
            n=2, d=3, weights=(INV_SQRT2, INV_SQRT2), states=(qutrit, qutrit),
            chi=basis_state(3, 0),
        )
        with pytest.raises(ArgumentError) as exc:
            pipeline(spec)
        assert str(exc.value) == "chi must be a single qubit state"

    def test_qubit_and_pair_rules_keep_their_order(self):
        # Three qutrits break both rules: run_enhanced builds chi_perp before it
        # takes the pair, closed_form_p2 takes the pair first.
        qutrit = StateVector((3,), np.ones(3) / math.sqrt(3), normalized=True)
        spec = ReferenceSpec(
            n=3, d=3, weights=tuple([1 / math.sqrt(3)] * 3), states=(qutrit,) * 3,
            chi=basis_state(3, 0),
        )
        for pipeline, message in (
            (run_enhanced, "chi must be a single qubit state"),
            (closed_form_p2, "this protocol superposes two states, got n = 3"),
        ):
            with pytest.raises(ArgumentError) as exc:
                pipeline(spec)
            assert str(exc.value) == message
