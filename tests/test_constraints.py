"""Smoothing-band violations and the exterior penalty."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbopt as sb

SPEC2 = sb.SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=2)


@pytest.mark.parametrize("args", [
    (float("nan"), 5.0, 2),
    (0.33, float("nan"), 2),
    (0.33, 5.0, 2.0),  # feasible_mask would raise TypeError on the float
], ids=["alpha-nan", "beta-nan", "m-float"])
def test_smoothing_spec_rejects_impossible_settings(args):
    with pytest.raises(ValueError, match="must be"):
        sb.SmoothingSpec(*args)


def test_constant_profile_has_no_violations():
    tau = np.array([0.4, 0.4, 3.0, 3.0])
    assert np.all(sb.violations(tau, SPEC2) == 0.0)


def test_distance_jump_violation_amount():
    # jump 0.5 against a 0.33 cap leaves 0.17 excess
    tau = np.array([0.0, 0.5, 0.0, 0.0])
    v = sb.violations(tau, SPEC2)
    assert v.shape == (2,)
    assert v[0] == pytest.approx(0.17)
    assert v[1] == 0.0


def test_jump_exactly_at_cap_is_feasible():
    tau = np.array([0.0, 0.33, 0.0, 5.0])
    assert np.all(sb.violations(tau, SPEC2) == 0.0)
    assert sb.is_feasible(tau, SPEC2)


def test_delay_jump_checked_separately():
    tau = np.array([0.2, 0.2, 0.0, 6.0])
    v = sb.violations(tau, SPEC2)
    assert v[0] == 0.0
    assert v[1] == pytest.approx(1.0)


def test_seam_between_rate_kinds_unconstrained():
    # eta_m and omega_1 may differ arbitrarily
    tau = np.array([1.0, 1.0, 14.0, 14.0])
    assert np.all(sb.violations(tau, SPEC2) == 0.0)


def test_single_interval_has_no_constraints():
    spec = sb.SmoothingSpec(0.33, 5.0, 1)
    assert sb.violations(np.array([0.7, 3.0]), spec).size == 0


def test_wrong_length_rejected():
    with pytest.raises(sb.DimensionMismatch):
        sb.violations(np.zeros(3), SPEC2)


def test_penalize_arithmetic():
    tau = np.array([0.0, 0.5, 0.0, 0.0])  # violation 0.17
    got = sb.penalize(10.0, tau, SPEC2, 100.0)
    assert got == pytest.approx(10.0 + 100.0 * 0.17 ** 2)


def test_penalty_linear_in_weight():
    tau = np.array([0.0, 0.6, 0.0, 7.0])
    base = sb.penalize(0.0, tau, SPEC2, 50.0)
    double = sb.penalize(0.0, tau, SPEC2, 100.0)
    assert double == pytest.approx(2.0 * base)


def test_feasible_point_passes_through_unchanged():
    tau = np.array([0.2, 0.3, 1.0, 4.0])
    assert sb.penalize(3.25, tau, SPEC2, 1e6) == 3.25


def test_is_feasible_tolerance_semantics():
    tau = np.array([0.0, 0.5, 0.0, 0.0])
    assert not sb.is_feasible(tau, SPEC2, tol=1e-9)
    assert sb.is_feasible(tau, SPEC2, tol=0.2)


def test_penalty_weight_from_probe():
    assert sb.penalty_weight_from_probe([1.0, 2.0, 3.0]) == pytest.approx(200.0)
    assert sb.penalty_weight_from_probe([-4.0]) == pytest.approx(400.0)


def test_penalty_transform_wraps_spec_and_config():
    pt = sb.PenaltyTransform(SPEC2, 100.0)
    tau = np.array([0.0, 0.5, 0.0, 0.0])
    assert pt.apply(10.0, tau) == pytest.approx(12.89)
    with pytest.raises(ValueError, match="positive"):
        sb.PenaltyTransform(SPEC2, 0.0)


@pytest.mark.parametrize("build", [
    lambda w: sb.PenaltyTransform(SPEC2, w),
    # a feasible profile: inf * 0 would make its value NaN
    lambda w: sb.penalize(3.0, np.array([0.4, 0.4, 3.0, 3.0]), SPEC2, w),
], ids=["transform", "penalize"])
@pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_penalty_weight_must_be_finite(build, weight):
    with pytest.raises(ValueError, match="penalty weight must be positive and finite"):
        build(weight)


@given(st.integers(2, 6), st.floats(-3.0, 3.0), st.data())
@settings(max_examples=60)
def test_violations_invariant_to_level_shifts(m, shift, data):
    spec = sb.SmoothingSpec(0.33, 5.0, m)
    eta = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=m, max_size=m)))
    omega = np.array(data.draw(st.lists(
        st.floats(0.0, 15.0), min_size=m, max_size=m)))
    tau = np.concatenate([eta, omega])
    shifted = np.concatenate([eta + shift, omega + 2.0 * shift])
    assert np.allclose(sb.violations(tau, spec), sb.violations(shifted, spec),
                       atol=1e-12)


@given(st.integers(2, 5), st.data())
@settings(max_examples=60)
def test_feasibility_matches_max_violation(m, data):
    spec = sb.SmoothingSpec(0.33, 5.0, m)
    tau = np.array(data.draw(st.lists(
        st.floats(0.0, 15.0), min_size=2 * m, max_size=2 * m)))
    tol = data.draw(st.floats(0.0, 2.0))
    v = sb.violations(tau, spec)
    assert sb.is_feasible(tau, spec, tol=tol) == (v.size == 0 or v.max() <= tol)


def _edge_rows(spec):
    """Profiles whose largest jump sits exactly at a cap or one ulp above it."""
    m = spec.m_intervals
    rows = []
    for at in (1, m - 1):
        for cap, offset in ((spec.alpha_smooth, 0), (spec.beta_smooth, m)):
            for jump in (cap, np.nextafter(cap, np.inf)):
                tau = np.zeros(2 * m)
                tau[offset + at] = jump
                rows.append(tau)
    return np.array(rows)


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_feasible_mask_matches_per_point_predicate(tol):
    from sbopt.bench.problems import smoothing_band_sampler

    spec = sb.SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=8)
    bounds = sb.Bounds(np.zeros(16), np.concatenate([np.ones(8), np.full(8, 15.0)]))
    rng = np.random.default_rng(3)
    band = bounds.from_unit(smoothing_band_sampler(bounds, spec)(rng, 500, bounds))
    box = bounds.from_unit(rng.random((500, 16)))
    edges = _edge_rows(spec)
    masks = []
    for T in (band, box, edges):
        mask = sb.feasible_mask(T, spec, tol)
        assert mask.dtype == bool
        assert mask.tolist() == [sb.is_feasible(t, spec, tol) for t in T]
        masks.append(mask)
    # both outcomes occur, and the ulp above a cap only passes with tol > 0
    assert masks[0].any() and not masks[1].all()
    assert masks[2].tolist() == [True, tol > 0] * 4


def test_feasible_mask_shapes():
    one = sb.SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=1)
    assert sb.feasible_mask(np.array([[0.0, 9.0], [1.0, 0.0]]), one).tolist() == [True, True]
    spec = sb.SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=2)
    assert sb.feasible_mask(np.array([0.0, 0.5, 0.0, 0.0]), spec).shape == ()
    with pytest.raises(sb.DimensionMismatch):
        sb.feasible_mask(np.zeros((3, 5)), spec)
    with pytest.raises(sb.DimensionMismatch):
        sb.feasible_mask(np.zeros((2, 3, 4)), spec)


def test_the_problem_and_unit_cube_masks_pickle():
    # the pair helper gets rk's masks by pickle, so a round trip must keep them
    import pickle

    from sbopt.bench import get_problem
    from sbopt.kriging import _unit_mask

    problem = get_problem("complex")
    bounds = problem.bounds
    U = problem.infill_sampler(np.random.default_rng(5), 4096, bounds)
    U[::3, 1] = 1.0 - U[::3, 0]  # a jump past the cap in every third row
    box_mask = problem.feasibility_predicate()
    unit_mask = functools.partial(_unit_mask, box_mask, bounds)
    wrong_width = {box_mask: "joint toll profile needs 16 entries ([eta..., omega...]), "
                             "got shape (3, 15)",
                   unit_mask: "expected rows of dimension 16, got shape (3, 15)"}
    for mask, rows in [(box_mask, bounds.from_unit(U)), (unit_mask, U)]:
        want = mask(rows)
        assert want.any() and not want.all()
        again = pickle.loads(pickle.dumps(mask))
        assert again(rows).tobytes() == want.tobytes()
        for m in (mask, again):
            with pytest.raises(sb.DimensionMismatch) as wrong:
                m(np.zeros((3, 15)))
            assert str(wrong.value) == wrong_width[mask]
