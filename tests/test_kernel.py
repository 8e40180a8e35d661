"""Batched kernel: every row of a batch is the scalar pipeline on that instance.

The scalar pipelines are T = 1 views of the kernel, so these properties check
the batched arithmetic row by row, and the physics invariants on whole batches.
"""
import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from qsuperpose import kernel
from qsuperpose.analysis import success_ratio, verify_probability_formulas
from qsuperpose.direct import SuperpositionSpec, run_direct
from qsuperpose.enhanced import closed_form_p2, geometry_classify, run_enhanced
from qsuperpose.errors import ArgumentError, ZeroOverlapError
from qsuperpose.hybrid import closed_form_hybrid, run_hybrid
from qsuperpose.linalg import (
    EPS_OVERLAP,
    QubitParams,
    StateVector,
    basis_state,
    make_qubit,
    overlap_decompose,
    require_overlaps,
)
from qsuperpose.reference import (
    ReferenceSpec,
    build_initial,
    closed_form_p3,
    kappa_weighted_sum,
    run_three_qubit,
    run_two_qubit_reduced,
)

TOL = 1e-12
SEEDS = st.integers(0, 2**32 - 1)
ROWS = st.integers(1, 6)
SHAPES = st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)])
PROPERTY = settings(max_examples=40, deadline=None)


def unit(rng, shape):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def draw(seed, t, n, d, floor=0.05):
    """t rows of (weights, states, chi, ip) with every |<chi|psi>| >= floor: the
    read-only batch that validation returns, ip being <chi|Psi_k>."""
    rng = np.random.default_rng(seed)
    chi = unit(rng, (t, d))
    states = unit(rng, (t, n, d))
    while (bad := np.abs(kernel.overlaps(states, chi)) < floor).any():
        states[bad] = unit(rng, (int(bad.sum()), d))
    weights = unit(rng, (t, n))
    return kernel.validate(weights, states, chi)


def scalar(weights, states, chi):
    """One batch row as the scalar API's arguments."""
    d = chi.size
    return (
        [complex(w) for w in weights],
        [StateVector((d,), s, normalized=True) for s in states],
        StateVector((d,), chi, normalized=True),
    )


def fourier_p(weights, states, chi, ip):
    block = kernel.reduced(weights, states, chi, ip)
    return kernel.norm_sq(kernel.fourier_rows(block)[:, 0])


def perp_overlaps(states, chi):
    """<chi^perp|Psi_k>, the enhanced harvest's ipp."""
    return kernel.overlaps(states, kernel.chi_perp(chi))


def probabilities(weights, states, chi, ip):
    """Every gate-level success probability of a qubit-pair batch, by name."""
    harvest = kernel.enhanced(weights, states, chi, ip, perp_overlaps(states, chi))
    return {
        "p2": fourier_p(weights, states, chi, ip),
        "p3": kernel.norm_sq(kernel.three_qubit(weights, states, chi, ip)),
        "p1": harvest.p1,
        "p_perp": harvest.p2,
        "p_total": harvest.p_total,
    }


def has_perp_overlaps(states, chi, floor=1e-3):
    return bool(np.all(np.abs(perp_overlaps(states, chi)) >= floor))


@PROPERTY
@given(SEEDS, ROWS)
def test_direct_rows_equal_the_scalar_pipeline(seed, t):
    rng = np.random.default_rng(seed)
    high = [math.pi - 0.01, 2 * math.pi, 2 * math.pi]
    angles = rng.uniform(0.0, high, size=(t, 2, 3))
    weights = unit(rng, (t, 2))
    specs = [
        SuperpositionSpec(*w, *map(QubitParams, *a.T)) for w, a in zip(weights, angles)
    ]
    states = np.array([[make_qubit(p).amps for p in (s.psi1, s.psi2)] for s in specs])
    rows = kernel.direct(weights, states, angles[..., 2])
    for i, spec in enumerate(specs):
        result = run_direct(spec)
        assert abs(kernel.norm_sq(rows[i, 0]) - result.success_prob) <= TOL
        batch = spec.batch
        branch = kernel.direct(batch.weights, batch.states, batch.angles[:, :, 2])[0, 0]
        np.testing.assert_allclose(rows[i, 0], branch, atol=TOL)
    # Hadamard branches of the unit-norm encoded register sum to one.
    np.testing.assert_allclose(kernel.norm_sq(rows).sum(axis=1), 1.0, atol=TOL)


@PROPERTY
@given(SEEDS, ROWS)
def test_pair_rows_equal_the_scalar_pipelines(seed, t):
    batch = draw(seed, t, 2, 2)
    assume(has_perp_overlaps(*batch[1:3]))
    probs = probabilities(*batch)
    for i in range(t):
        weights, states, chi = scalar(*(x[i] for x in batch[:3]))
        spec = ReferenceSpec(n=2, d=2, weights=weights, states=states, chi=chi)
        reduced = run_two_qubit_reduced(spec)
        three = run_three_qubit(spec)
        enhanced = run_enhanced(spec)
        assert abs(probs["p2"][i] - reduced.success_prob) <= TOL
        assert abs(probs["p3"][i] - three.success_prob) <= TOL
        assert abs(probs["p1"][i] - enhanced.p1) <= TOL
        assert abs(probs["p_perp"][i] - enhanced.p2) <= TOL
        assert abs(probs["p_total"][i] - enhanced.p_total) <= TOL


@PROPERTY
@given(SEEDS, ROWS, SHAPES)
def test_hybrid_rows_equal_the_scalar_pipeline(seed, t, shape):
    n, d = shape
    batch = draw(seed, t, n, d)
    probs = fourier_p(*batch)
    for i in range(t):
        weights, states, chi = scalar(*(x[i] for x in batch[:3]))
        spec = ReferenceSpec(n=n, d=d, weights=weights, states=states, chi=chi)
        assert abs(probs[i] - run_hybrid(spec).success_prob) <= TOL


@PROPERTY
@given(SEEDS, ROWS, SHAPES)
def test_fourier_branches_sum_to_the_projection_probability(seed, t, shape):
    block = kernel.reduced(*draw(seed, t, *shape))
    branches = kernel.norm_sq(kernel.fourier_rows(block)).sum(axis=1)
    np.testing.assert_allclose(branches, kernel.norm_sq(block.reshape(t, -1)), atol=TOL)


@PROPERTY
@given(SEEDS, ROWS, SHAPES)
def test_probabilities_lie_in_the_unit_interval(seed, t, shape):
    batch = draw(seed, t, *shape)
    values = [fourier_p(*batch), kernel.norm_sq(kernel.three_qubit(*batch))]
    pair = draw(seed, t, 2, 2)
    if has_perp_overlaps(*pair[1:3]):
        values += probabilities(*pair).values()
    for p in values:
        assert np.all((p >= 0.0) & (p <= 1.0 + TOL))


@PROPERTY
@given(SEEDS, ROWS, st.integers(0, 2), st.floats(0.0, 2 * math.pi))
def test_global_phase_on_any_input_leaves_every_probability(seed, t, which, phase):
    weights, states, chi, _ = batch = draw(seed, t, 2, 2)
    assume(has_perp_overlaps(states, chi))
    states, chi = states.copy(), chi.copy()
    if which < 2:
        states[:, which] *= np.exp(1j * phase)
    else:
        chi *= np.exp(1j * phase)
    shifted = probabilities(weights, states, chi, kernel.validate(weights, states, chi)[3])
    base = probabilities(*batch)
    for name in base:
        np.testing.assert_allclose(shifted[name], base[name], atol=TOL, err_msg=name)


@PROPERTY
@given(SEEDS, ROWS)
def test_p2_over_p3_is_the_success_ratio(seed, t):
    weights, states, chi, ip = batch = draw(seed, t, 2, 2, floor=0.2)
    p2 = fourier_p(*batch)
    p3 = kernel.norm_sq(kernel.three_qubit(*batch))
    c = np.abs(ip) ** 2
    for i in range(t):
        ratio = success_ratio(c[i, 1] / c[i, 0], abs(weights[i, 1]) ** 2)
        assert p2[i] / p3[i] == pytest.approx(ratio, rel=1e-9)


def pair_batch(seed, t, kind):
    """t qubit-pair rows as ``draw`` gives them; a longitudinal or antipodal
    kind rebuilds each pair in that geometry about its chi."""
    weights, states, chi, ip = draw(seed, t, 2, 2)
    if kind != kernel.GEOMETRY_GENERIC:
        rng = np.random.default_rng(seed + 1)
        antipodal = kind == kernel.GEOMETRY_TRANSVERSE_ANTIPODAL
        polar = rng.uniform(0.2, 1.3, size=(t, 2))
        if antipodal:
            polar[:, 1] = polar[:, 0]
        azimuth = rng.uniform(0.0, 2 * math.pi, size=(t, 1)) + [0.0, math.pi * antipodal]
        perp = np.sin(polar) * np.exp(1j * azimuth)
        states = (np.cos(polar)[..., None] * chi[:, None, :]
                  + perp[..., None] * kernel.chi_perp(chi)[:, None, :])
        ip = kernel.validate(weights, states, chi)[3]
    return weights, states, chi, ip


# Each step of (weights, states, chi, ip, ipp), ipp = <chi^perp|Psi_k>.
ROW_STEPS = {
    "overlaps": lambda w, s, c, ip, ipp: kernel.overlaps(s, c),
    "overlaps(chi_perp)": lambda w, s, c, ip, ipp: perp_overlaps(s, c),
    "reduced+fourier_rows": lambda w, s, c, ip, ipp: kernel.fourier_rows(
        kernel.reduced(w, s, c, ip)
    ),
    "three_qubit": lambda w, s, c, ip, ipp: kernel.three_qubit(w, s, c, ip),
    "closed_form_fourier": lambda w, s, c, ip, ipp: kernel.closed_form_fourier(w, s, ip),
    "closed_form_mu": lambda w, s, c, ip, ipp: kernel.closed_form_mu(w, s, ip),
    "closed_form_mu(chi_perp)": lambda w, s, c, ip, ipp: kernel.closed_form_mu(w, s, ipp),
    "target": lambda w, s, c, ip, ipp: kernel.target(w, s, ip),
    **{
        f"enhanced.{field}": lambda *batch, f=field: getattr(kernel.enhanced(*batch), f)
        for field in kernel.Harvest._fields
    },
}
KINDS = st.sampled_from([
    kernel.GEOMETRY_GENERIC,
    kernel.GEOMETRY_LONGITUDINAL,
    kernel.GEOMETRY_TRANSVERSE_ANTIPODAL,
])


@PROPERTY
@given(SEEDS, SEEDS, ROWS, ROWS, KINDS, KINDS)
def test_kernel_steps_are_row_independent(seed_a, seed_b, ta, tb, kind_a, kind_b):
    """Each row of a step over concat(A, B) is bit for bit that row of the step
    over A or over B alone, so stacking check families cannot move a result."""
    a, b = pair_batch(seed_a, ta, kind_a), pair_batch(seed_b, tb, kind_b)
    assume(has_perp_overlaps(*a[1:3]) and has_perp_overlaps(*b[1:3]))
    a, b = (x + (perp_overlaps(*x[1:3]),) for x in (a, b))
    both = [np.concatenate(x) for x in zip(a, b)]
    for name, step in ROW_STEPS.items():
        joint = step(*both)
        assert np.array_equal(joint[:ta], step(*a)), name
        assert np.array_equal(joint[ta:], step(*b)), name


def test_closed_forms_match_the_kernel_on_a_batch(rng):
    weights, states, chi, ip = batch = draw(int(rng.integers(2**32)), 64, 2, 2, floor=0.2)
    closed = kernel.closed_form_fourier(weights, states, ip)
    np.testing.assert_allclose(fourier_p(*batch), closed, atol=1e-12)
    closed = kernel.closed_form_mu(weights, states, ip)
    p3 = kernel.norm_sq(kernel.three_qubit(*batch))
    np.testing.assert_allclose(p3, closed, atol=1e-12)


def test_validation_rejects_a_bad_row_anywhere_in_the_batch():
    weights, states, chi, _ = draw(5, 8, 2, 2)
    bad = weights.copy()
    bad[6] *= 1.5
    with pytest.raises(ArgumentError, match="sum"):
        kernel.validate(bad, states, chi)
    bad = states.copy()
    bad[3, 1] = kernel.chi_perp(chi)[3]
    with pytest.raises(ZeroOverlapError):
        kernel.validate(weights, bad, chi)
    bad = chi.copy()
    bad[7, 0] = np.nan
    with pytest.raises(ArgumentError, match="finite"):
        kernel.validate(weights, states, bad)


@pytest.mark.parametrize("d", [1, 3, 4])
def test_chi_perp_is_defined_for_qubits_only(d):
    # Swapping two amplitudes of a qutrit chi = (0.6, 0.8i, 0) would give a
    # vector whose overlap with chi is 0.48i, not zero.
    chi = np.zeros((2, d), complex)
    chi[:, 0] = 1.0
    if d > 1:
        chi[1, :2] = 0.6, 0.8j
    with pytest.raises(ArgumentError) as exc:
        kernel.chi_perp(chi)
    assert str(exc.value) == "chi must be a single qubit state"


# --- The zero-overlap rule: |<ref|psi_k>| < EPS_OVERLAP, decided in one place --

KET0, KET1 = basis_state(2, 0), basis_state(2, 1)
PLUS = make_qubit(QubitParams(math.pi / 2, 0.0))


def rejection(call):
    """The ZeroOverlapError message of call(), or None when it returns."""
    try:
        call()
    except ZeroOverlapError as exc:
        return str(exc)
    return None


@PROPERTY
@given(st.floats(-11.0, -7.0), st.integers(0, 1), st.sampled_from(["chi", "chi_perp"]))
def test_one_zero_overlap_rule(exponent, k, ref):
    """State k overlaps ref (chi = |0>, so chi_perp = |1>) with magnitude m,
    log-uniform in [1e-11, 1e-7]: the spec, overlap_decompose, run_enhanced and
    geometry_classify all reject it exactly when m < 1e-9, naming state k and
    the reference."""
    m = 10.0**exponent
    near, far = (KET0, KET1) if ref == "chi" else (KET1, KET0)
    small = StateVector((2,), m * near.amps + math.sqrt(1.0 - m * m) * far.amps)
    states = (small, PLUS) if k == 0 else (PLUS, small)

    def spec():
        return ReferenceSpec(n=2, d=2, weights=(0.6, 0.8), states=states, chi=KET0)

    found = {
        "overlap_decompose": rejection(lambda: overlap_decompose(small, near)),
        "run_enhanced": rejection(lambda: run_enhanced(spec())),
        "geometry_classify": rejection(lambda: geometry_classify(*states, KET0)),
    }
    if ref == "chi":
        found["ReferenceSpec"] = rejection(spec)
    for name, message in found.items():
        assert (message is not None) == (m < EPS_OVERLAP), name
        if message is not None:
            assert f"= {m:.3e} is below 1e-09" in message, name
    if found["run_enhanced"] is not None:
        for name in ("run_enhanced", "geometry_classify"):
            assert found[name].startswith(
                f"psi{k + 1} has a zero overlap with the reference {ref}:"
            ), name
    elif ref == "chi":
        p3 = run_three_qubit(spec()).success_prob
        assert abs(run_enhanced(spec()).p1 - p3) <= TOL


def test_enhanced_accepts_what_the_spec_accepts():
    """|<chi|psi1>| = 1e-5 passes the rule (c1 = 1e-10 does not fail it)."""
    psi1 = StateVector((2,), [1e-5, math.sqrt(1.0 - 1e-10)], normalized=True)
    spec = ReferenceSpec(n=2, d=2, weights=(0.6, 0.8), states=(psi1, PLUS), chi=KET0)
    p3 = run_three_qubit(spec).success_prob
    assert p3 == pytest.approx(1.6788e-10, rel=1e-4)
    assert abs(run_enhanced(spec).p1 - p3) <= 1e-12


# --- Fewer calls, same bits: each rewritten step against the form it replaced --

# The hybrid shapes that verify draws, and the dense-pipeline cap's extremes.
CAP_SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 45), (3, 11), (4, 5), (5, 3), (8, 2)]
BATCH_SIZES = [0, 1, 2, 17]
# No shrink phase: a failing example is reported as drawn, at once, rather
# than after minutes of shrinking each failing parametrization's seed.
SAME_BITS = settings(max_examples=4, deadline=None,
                     phases=[Phase.explicit, Phase.reuse, Phase.generate])


def cascade_by_swaps(amps, n, d):
    a = amps.reshape((len(amps), n) + (d,) * n)
    out = np.empty_like(a)
    for k in range(n):
        out[:, k] = np.swapaxes(a[:, k], 1, k + 1)
    return out.reshape(amps.shape)


def project_by_encode(amps, chi, n, d):
    t = len(chi)
    aux = kernel.encode(np.ones((t, 1)), chi[:, None, :].repeat(n - 1, axis=1))
    block = np.einsum("tij,tj->ti", amps.reshape(t, n * d, d ** (n - 1)), aux.conj())
    return block.reshape(t, n, d), aux


def enhanced_per_sector(weights, states, chi):
    """The harvest with one cascade and one rotation per sector."""

    def block(ref):
        amps = cascade_by_swaps(kernel.encode(weights, states), 2, 2)
        return project_by_encode(amps, ref, 2, 2)[0]

    chip = kernel.chi_perp(chi)
    ip, ipp = kernel.overlaps(states, chi), kernel.overlaps(states, chip)
    c, cp = np.abs(ip) ** 2, np.abs(ipp) ** 2
    rows = np.einsum("tij,tjd->tid", kernel.u_chi(c[:, 1], c[:, 0]), block(chi))
    rows_perp = np.einsum("tij,tjd->tid", kernel.u_chi(cp[:, 1], cp[:, 0]), block(chip))
    w, p1 = rows[:, 0], kernel.norm_sq(rows[:, 0])

    def agrees(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            fid = np.abs(np.sum(w.conj() * v, axis=1)) / np.sqrt(p1 * kernel.norm_sq(v))
        return kernel.branch_survives(v) & (fid >= 1.0 - kernel.GEOMETRY_TOL)

    geom = kernel.geometry(ip, ipp, np.abs(ip), np.abs(ipp))
    antipodal = (geom == kernel.CODE_ANTIPODAL) & agrees(rows_perp[:, 1])
    coherent = antipodal | ((geom == kernel.CODE_LONGITUDINAL) & agrees(rows_perp[:, 0]))
    p2 = kernel.norm_sq(np.where(antipodal[:, None], rows_perp[:, 1], rows_perp[:, 0]))
    p_total = np.where(coherent, p1 + p2, p1)
    return kernel.Harvest(rows, rows_perp, geom, coherent, p1, p2, p_total)


def amplitudes(seed, t, n, d):
    """Random (unnormalized) register amplitudes (T, n d^n) and a unit chi (T, d)."""
    rng = np.random.default_rng(seed)
    return unit(rng, (t, n * d**n)) * 3.0, unit(rng, (t, d))


@pytest.mark.parametrize("t", BATCH_SIZES)
@pytest.mark.parametrize("shape", CAP_SHAPES)
@SAME_BITS
@given(seed=SEEDS)
def test_cascade_and_projection_keep_their_bits(shape, t, seed):
    n, d = shape
    amps, chi = amplitudes(seed, t, n, d)
    swapped, by_swaps = kernel.cascade(amps, n, d), cascade_by_swaps(amps, n, d)
    assert np.array_equal(swapped, by_swaps)
    for got, want in zip(kernel.project(swapped, chi, n, d),
                         project_by_encode(by_swaps, chi, n, d)):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("t", BATCH_SIZES)
@pytest.mark.parametrize("d", [2, 3, 45])
def test_projection_of_one_qudit_is_the_empty_product(t, d):
    amps, chi = amplitudes(t, t, 1, d)
    for got, want in zip(kernel.project(amps, chi, 1, d), project_by_encode(amps, chi, 1, d)):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(kernel.project(amps, chi, 1, d)[1], np.ones((t, 1)))


@pytest.mark.parametrize("t", BATCH_SIZES)
@pytest.mark.parametrize("shape", CAP_SHAPES)
@SAME_BITS
@given(seed=SEEDS)
def test_fourier_rows_is_one_row_at_a_time(shape, t, seed):
    """Each row of a batch is that row's own product, bit for bit. One GEMM
    over the batch's columns fails this from n = 3 on."""
    n, d = shape
    block = unit(np.random.default_rng(seed), (t, n, d))
    rows = kernel.fourier_rows(block)
    assert rows.shape == (t, n, d)
    for i in range(t):
        assert np.array_equal(rows[i], kernel.fourier_rows(block[i : i + 1])[0])


# T = 1000 as well: the sector product must keep its bits at verify's row counts.
@pytest.mark.parametrize("t", BATCH_SIZES + [1000])
@PROPERTY
@given(seed=SEEDS, kind=KINDS)
def test_enhanced_keeps_every_field_of_the_per_sector_harvest(t, seed, kind):
    weights, states, chi, ip = pair_batch(seed, t, kind)
    assume(has_perp_overlaps(states, chi))
    want = enhanced_per_sector(weights, states, chi)
    got = kernel.enhanced(weights, states, chi, ip, perp_overlaps(states, chi))
    for field, a, b in zip(kernel.Harvest._fields, got, want):
        assert a.shape == b.shape and np.array_equal(a, b), field


def enhanced_forming_ipp(weights, states, chi, ip):
    """The harvest in its form before it took ipp: it formed and checked
    <chi^perp|Psi_k> itself, and took the chi^perp rows' norms twice."""
    t, chip = len(chi), kernel.chi_perp(chi)
    ipp = kernel.overlaps(states, chip)
    magp = np.abs(ipp)
    require_overlaps(magp, "chi_perp")
    c = np.concatenate([np.abs(ip) ** 2, magp**2])
    both = np.einsum("tij,tjd->tid", kernel.u_chi(c[:, 1], c[:, 0]), kernel.cascade_block(
        *(np.concatenate([x, x]) for x in (weights, states)), np.concatenate([chi, chip])))
    rows, rows_perp = both[:t], both[t:]
    p1, nsq = kernel.norm_sq(rows[:, 0]), kernel.norm_sq(rows_perp)
    with np.errstate(divide="ignore", invalid="ignore"):
        fid = np.abs(np.sum(rows[:, :1].conj() * rows_perp, axis=2)) / np.sqrt(p1[:, None] * nsq)
    agrees = kernel.branch_survives(rows_perp) & (fid >= 1.0 - kernel.GEOMETRY_TOL)
    geom = kernel.geometry(ip, ipp, np.abs(ip), np.abs(ipp))
    antipodal = (geom == kernel.CODE_ANTIPODAL) & agrees[:, 1]
    coherent = antipodal | ((geom == kernel.CODE_LONGITUDINAL) & agrees[:, 0])
    p2 = np.where(antipodal, nsq[:, 1], nsq[:, 0])
    p_total = np.where(coherent, p1 + p2, p1)
    return kernel.Harvest(rows, rows_perp, geom, coherent, p1, p2, p_total)


@pytest.mark.parametrize("t", BATCH_SIZES)
@PROPERTY
@given(seed=SEEDS, kind=KINDS)
def test_enhanced_keeps_the_bits_of_forming_ipp_itself(t, seed, kind):
    """Every field, the survival of the chi^perp rows included, as when the step
    formed <chi^perp|Psi_k> and the rows' norms itself."""
    _, states, chi, _ = batch = pair_batch(seed, t, kind)
    assume(has_perp_overlaps(states, chi))
    got = kernel.enhanced(*batch, perp_overlaps(states, chi))
    for field, a, b in zip(kernel.Harvest._fields, got, enhanced_forming_ipp(*batch)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("t", BATCH_SIZES)
@pytest.mark.parametrize("shape", CAP_SHAPES)
@SAME_BITS
@given(seed=SEEDS)
def test_validate_returns_the_overlaps_it_checked(shape, t, seed):
    """The inputs' bytes and the overlaps of ``kernel.overlaps``, all read-only."""
    n, d = shape
    batch = draw(seed, t, n, d, floor=1e-3)
    inputs = [x.copy() for x in batch[:3]]
    got = kernel.validate(*inputs)
    assert len(got) == 4
    want = [*inputs, kernel.overlaps(*inputs[1:])]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    # The caller's own arrays stay writable.
    assert all(x.flags.writeable for x in inputs)


# --- Overlaps once: a validated problem carries <chi|Psi_k> ----------------------


def test_overlaps_are_formed_once_per_problem(monkeypatch):
    """Building a spec forms <chi|Psi_k> once; the pipelines and closed forms
    read it from the spec's batch. Only the enhanced harvest and its P(2) form
    <chi^perp|Psi_k>, once each; a verify chunk forms one batch per validated
    group and one <chi^perp|Psi_k> pass."""
    calls = []
    true_overlaps = kernel.overlaps

    def counted(*args):
        calls.append(args)
        return true_overlaps(*args)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    monkeypatch.setattr(kernel, "overlaps", counted)
    psi = StateVector((2,), [0.6, 0.8j], normalized=True)
    specs = []
    states = (psi, PLUS)
    assert count(lambda: specs.append(ReferenceSpec(2, 2, (0.6, 0.8), states, KET0))) == 1
    spec = specs[0]
    steps = (run_three_qubit, run_two_qubit_reduced, run_hybrid, closed_form_hybrid,
             closed_form_p3, kappa_weighted_sum, build_initial, run_enhanced, closed_form_p2)
    counts = {step.__name__: count(lambda step=step: step(spec)) for step in steps}
    assert counts == {
        "run_three_qubit": 0, "run_two_qubit_reduced": 0, "run_hybrid": 0,
        "closed_form_hybrid": 0, "closed_form_p3": 0, "kappa_weighted_sum": 0,
        "build_initial": 0, "run_enhanced": 1, "closed_form_p2": 1,
    }
    assert count(lambda: verify_probability_formulas(trials=20, seed=0)) == 5


# --- Metamorphic relations of Eq. 8: one unitary on every input, input phases --

EQ8_SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3)]


def haar_unitary(rng, d):
    """A Haar-random d x d unitary: the QR of a complex Gaussian, R's phases put in Q."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def outcome_zero(batch, rows_of=kernel.fourier_rows):
    """Eq. 8's P (T,) and the normalized outcome-0 rows (T, d) of a validated batch."""
    row = rows_of(kernel.reduced(*batch))[:, 0]
    p = kernel.norm_sq(row)
    return p, row / np.sqrt(p)[:, None]


def infidelity(u, v):
    """1 - |<u|v>|^2 of unit rows (T, d)."""
    return 1.0 - np.abs(np.einsum("td,td->t", u.conj(), v)) ** 2


def covariance_defects(seed, t, n, d, rows_of=kernel.fourier_rows):
    """Psi_k -> U Psi_k and chi -> U chi, one Haar-random U per row: the relative
    change of P, and the infidelity of the new outcome-0 row to U times the old."""
    weights, states, chi, _ = batch = draw(seed, t, n, d)
    rng = np.random.default_rng([seed, 1])
    u = np.array([haar_unitary(rng, d) for _ in range(t)])
    moved = kernel.validate(
        weights, np.einsum("tij,tkj->tki", u, states), np.einsum("tij,tj->ti", u, chi))
    (p, row), (p_u, row_u) = outcome_zero(batch, rows_of), outcome_zero(moved, rows_of)
    return np.abs(p_u - p) / p, infidelity(np.einsum("tij,tj->ti", u, row), row_u)


@PROPERTY
@given(seed=SEEDS, t=ROWS, shape=st.sampled_from(EQ8_SHAPES))
def test_eq8_is_covariant_under_one_unitary_on_every_input(seed, t, shape):
    """P stays, and the outcome-0 row turns with the inputs."""
    rel_p, infid = covariance_defects(seed, t, *shape)
    assert rel_p.max() <= 1e-9
    assert infid.max() <= 1e-9


@PROPERTY
@given(seed=SEEDS, t=ROWS, shape=st.sampled_from(EQ8_SHAPES))
def test_eq8_output_is_blind_to_the_input_phases(seed, t, shape):
    """Psi_k -> e^{i alpha_k} Psi_k keeps P and the outcome-0 row up to one global phase."""
    n, d = shape
    weights, states, chi, _ = batch = draw(seed, t, n, d)
    alpha = np.random.default_rng([seed, 2]).uniform(0.0, 2 * math.pi, (t, n))
    rephased = kernel.validate(weights, np.exp(1j * alpha)[:, :, None] * states, chi)
    (p, row), (p_a, row_a) = outcome_zero(batch), outcome_zero(rephased)
    assert (np.abs(p_a - p) / p).max() <= 1e-9
    assert infidelity(row, row_a).max() <= 1e-9


@pytest.mark.parametrize("shape", EQ8_SHAPES)
def test_covariance_catches_a_norm_keeping_phase_fault(shape):
    """A Fourier step that multiplies amplitude j of each output row by e^{i theta_j}
    keeps every norm, so P cannot see it; the covariance relation fails on every row."""
    theta = np.array([0.0, 2.1, 4.4])

    def faulty(block):
        rows = kernel.fourier_rows(block)
        return rows * np.exp(1j * theta[: rows.shape[2]])

    rel_p, infid = covariance_defects(3, 20, *shape, rows_of=faulty)
    assert rel_p.max() <= 1e-9
    assert (infid > 1e-9).all() and infid.max() > 0.1
