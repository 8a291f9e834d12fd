"""Kriging model fit, prediction, re-interpolation, and diagnostics."""

import dataclasses
import functools
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrs

import sbopt as sb
from sbopt import _pair, kriging
from sbopt.kriging import _ones_y, _psi, _solve_parts, concentrated_log_likelihood


def sine_design(n=11, seed=4):
    X = sb.maximin_lhs(n, 1, seed=seed)
    y = np.sin(10 * X[:, 0]) + 2 * X[:, 0]
    return X, y


def min_pairwise_distance(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return dist[np.triu_indices(len(pts), k=1)].min()


# ---------------------------------------------------------------- LHS designs


def test_lhs_columns_hit_cell_midpoints():
    d = sb.maximin_lhs(11, 2, seed=0)
    mids = (2 * np.arange(11) + 1) / 22
    for j in range(2):
        assert np.allclose(np.sort(d[:, j]), mids)


def test_lhs_two_points_one_dim():
    d = sb.maximin_lhs(2, 1, seed=0)
    assert np.allclose(np.sort(d[:, 0]), [0.25, 0.75])


def test_lhs_deterministic_per_seed():
    a = sb.maximin_lhs(7, 3, seed=9)
    b = sb.maximin_lhs(7, 3, seed=9)
    c = sb.maximin_lhs(7, 3, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n, m_dim, message", [
    (2.5, 2, "must be integers"), (3, 2.0, "must be integers"),
    (0, 2, "must be >= 1"), (3, 0, "must be >= 1"),
])
def test_lhs_refuses_counts_that_are_not_positive_integers(n, m_dim, message):
    with pytest.raises(ValueError, match=f"n and m_dim {message}"):
        sb.maximin_lhs(n, m_dim, seed=0)
    with pytest.raises(ValueError, match=f"n and m_dim {message}"):
        sb.random_lhs(n, m_dim, np.random.default_rng(0))


def test_maximin_beats_single_random_draw():
    rng = np.random.default_rng(2)
    plain = sb.random_lhs(12, 2, rng)
    best = sb.maximin_lhs(12, 2, seed=2)
    assert min_pairwise_distance(best) >= min_pairwise_distance(plain)


# --------------------------------------------------------------- correlation


def test_correlation_at_zero_distance():
    x = np.array([[0.3, 0.7]])
    assert _psi(x, x, np.array([1.0, 4.0]))[0, 0] == 1.0


@pytest.mark.parametrize("n, m, k", [
    (100, 16, 1),
    (100, 16, 40),
    (100, 16, 4096),
    (25, 2, 1),
    (25, 2, 1310),
    (25, 2, 3001),
])
def test_blocked_psi_matches_one_shot_broadcast(n, m, k):
    # scaling by sqrt(theta) reorders the arithmetic, so the last bits differ
    rng = np.random.default_rng(n + m + k)
    X, Xq = rng.random((n, m)), rng.random((k, m))
    theta = 10.0 ** rng.uniform(-1, 1, size=m)
    broadcast = np.exp(-(((Xq[:, None, :] - X[None, :, :]) ** 2) @ theta))
    np.testing.assert_allclose(_psi(X, Xq, theta), broadcast, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, m", [(100, 16), (25, 2), (7, 1)])
def test_psi_query_at_a_sample_is_that_samples_row(n, m):
    # re-interpolation needs psi at a sample to be exactly that row of R
    rng = np.random.default_rng(n * m)
    X = rng.random((n, m))
    theta = 10.0 ** rng.uniform(-3, 2, size=m)
    R = _psi(X, X, theta)
    assert np.all(np.diag(R) == 1.0)
    for i in range(n):
        assert np.array_equal(_psi(X, X[i:i + 1], theta)[0], R[i])


def test_correlation_unit_distance_unit_theta():
    a, b = np.array([[0.0]]), np.array([[1.0]])
    assert _psi(b, a, np.array([1.0]))[0, 0] == pytest.approx(np.exp(-1.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_correlation_symmetry(u, v):
    theta = np.array([2.0, 0.5])
    a, b = np.array([u]), np.array([v])
    lhs = _psi(b, a, theta)[0, 0]
    rhs = _psi(a, b, theta)[0, 0]
    assert lhs == pytest.approx(rhs)
    assert 0.0 < lhs <= 1.0


# -------------------------------------------------------------------- fitting


def test_zero_lambda_interpolates_training_data():
    X, y = sine_design()
    model = sb.fit(X, y, sb.FitConfig(lam=0.0))
    mu, s2 = sb.predict(model, X)
    assert np.max(np.abs(mu - y)) < 1e-8
    assert np.max(np.abs(s2)) < 1e-8


def test_constant_response_gives_zero_variance():
    X = sb.maximin_lhs(8, 2, seed=1)
    y = np.full(8, 3.5)
    model = sb.fit(X, y, sb.FitConfig(theta=np.array([1.0, 1.0]), lam=1e-6))
    assert model.mu_hat == pytest.approx(3.5)
    assert model.sigma2_hat == pytest.approx(0.0, abs=1e-12)
    mu, s2 = sb.predict(model, np.array([0.42, 0.87]))
    assert mu == pytest.approx(3.5)
    assert s2 == pytest.approx(0.0, abs=1e-12)


def test_search_drives_lambda_to_floor_on_smooth_data():
    # noise-free sine: regularization only hurts the likelihood
    X, y = sine_design()
    model = sb.fit(X, y)
    assert model.lam == pytest.approx(1e-12)
    forced = sb.fit(X, y, sb.FitConfig(lam=0.1))
    assert model.log_likelihood > forced.log_likelihood


def test_duplicated_rows_with_zero_lambda_raise():
    X = np.array([[0.2], [0.2], [0.8]])
    y = np.array([1.0, 1.0, 2.0])
    with pytest.raises(sb.FitError):
        sb.fit(X, y, sb.FitConfig(theta=np.array([1.0]), lam=0.0))


@pytest.mark.parametrize("warm", [0.0, np.zeros(7), np.array([0.0, 0.0, np.nan])],
                         ids=["scalar", "seven-entries", "nan"])
def test_warm_start_needs_m_plus_one_finite_entries(warm):
    X, y = np.random.default_rng(1).random((6, 2)), np.arange(6.0)
    with pytest.raises(sb.FitError, match=r"warm_start needs m \+ 1 = 3 finite entries"):
        sb.fit(X, y, sb.FitConfig(warm_start=warm))


def test_single_point_fit_predicts_its_value():
    model = sb.fit(np.array([[0.5]]), np.array([7.0]),
                   sb.FitConfig(theta=np.array([1.0]), lam=1e-6))
    mu, _ = sb.predict(model, np.array([0.01]))
    assert mu == pytest.approx(7.0)


def test_far_field_reverts_to_process_mean():
    rng = np.random.default_rng(3)
    X = rng.random((8, 2)) * 0.15
    y = np.sin(6 * X[:, 0]) + X[:, 1]
    model = sb.fit(X, y, sb.FitConfig(theta=np.array([50.0, 50.0]), lam=0.1))
    mu, s2 = sb.predict(model, np.array([0.95, 0.95]))
    assert mu == pytest.approx(model.mu_hat)
    assert s2 == pytest.approx(model.sigma2_hat * 1.1)


def test_fitted_likelihood_equals_concentrated_likelihood():
    # the reported likelihood must be the one computed from scratch
    rng = np.random.default_rng(11)
    X = rng.random((30, 4))
    y = np.sin(3.0 * X).sum(axis=1) + 0.05 * rng.standard_normal(30)
    for cfg in (sb.FitConfig(n_starts=3, n_probe=8, max_sweeps=3, seed=1),
                sb.FitConfig(theta=np.full(4, 2.0), lam=1e-3)):
        model = sb.fit(X, y, cfg)
        assert model.log_likelihood == concentrated_log_likelihood(
            X, y, model.theta, model.lam)


def _dense_likelihood(X, y, theta, lam):
    """Concentrated log-likelihood and R^-1 (y - mu) from dense numpy solves."""
    n = y.size
    R = np.exp(-(((X[:, None, :] - X[None, :, :]) ** 2) @ theta)) + lam * np.eye(n)
    assert np.linalg.cond(R) < 1e6
    ones = np.ones(n)
    mu = (ones @ np.linalg.solve(R, y)) / (ones @ np.linalg.solve(R, ones))
    alpha = np.linalg.solve(R, y - mu)
    sigma2 = (y - mu) @ alpha / n
    sign, logdet = np.linalg.slogdet(R)
    assert sign > 0
    ll = -0.5 * (n * np.log(2 * np.pi) + n * np.log(sigma2) + logdet + n)
    return ll, mu, sigma2, alpha


@pytest.mark.parametrize("n", [25, 100])
def test_likelihood_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    X = rng.random((n, 3))
    y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n)
    theta, lam = np.array([2.0, 1.0, 3.0]), 1e-2
    ll, mu, sigma2, alpha = _dense_likelihood(X, y, theta, lam)
    assert concentrated_log_likelihood(X, y, theta, lam) == pytest.approx(ll, rel=1e-10)
    model = sb.fit(X, y, sb.FitConfig(theta=theta, lam=lam))
    assert model.log_likelihood == pytest.approx(ll, rel=1e-10)
    assert model.mu_hat == pytest.approx(mu, rel=1e-10)
    assert model.sigma2_hat == pytest.approx(sigma2, rel=1e-10)
    np.testing.assert_allclose(model.alpha, alpha, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n, m, theta, lam", [
    (25, 16, 1.0, 1e-6),
    (100, 16, 0.3, 1e-6),
    (40, 2, 5.0, 0.0),
    (7, 1, 0.02, 0.0),  # cond(R) about 8e16
    (12, 1, 1e-3, 0.0),  # cond(R) about 7e17: the factorization fails
])
def test_lapack_solve_equals_the_scipy_wrappers(n, m, theta, lam):
    """dpotrf on R.T, dtrtrs and dpotrs give the bits cho_factor,
    solve_triangular and cho_solve give."""
    if m == 1:
        X = np.linspace(0.0, 1.0, n)[:, None]
    else:
        X = np.random.default_rng(n).random((n, m))
    y = np.sin(3.0 * X).sum(axis=1)
    theta = np.full(m, theta)
    R = _psi(X, X, theta)
    R.flat[::n + 1] += lam
    parts = _solve_parts(X, _ones_y(y), theta, lam)
    try:
        L, lower = cho_factor(R, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        assert parts is None
        return
    cho, mu, resid, _, _ = parts
    assert cho[1] is True and lower is True
    assert np.array_equal(cho[0], L)
    Z = solve_triangular(L, np.column_stack([np.ones(n), y]), lower=True)
    z1, zy = Z[:, 0], Z[:, 1]
    assert mu == float((z1 @ zy) / float(z1 @ z1))
    assert np.array_equal(resid, zy - mu * z1)
    model = sb.fit(X, y, sb.FitConfig(theta=theta, lam=lam))
    assert np.array_equal(model.alpha, solve_triangular(L, resid, lower=True, trans="T"))
    # the moments solve one Fortran-ordered psi.T block at a time with dpotrs
    for cols in (1, 7, 512):
        psi = _psi(X, np.random.default_rng(cols).random((cols, m)), theta)
        x, info = dpotrs(cho[0], psi.T, lower=1)
        assert info == 0
        assert x.tobytes() == cho_solve((L, True), psi.T, check_finite=False).tobytes()


@pytest.mark.filterwarnings("error")
def test_negative_theta_gives_minus_infinity_without_warning():
    X, y = sine_design()
    assert concentrated_log_likelihood(X, y, [-1.0], 1e-6) == -np.inf
    # a large nugget would let this R factor, but it is no correlation matrix
    rng = np.random.default_rng(2)
    X2 = rng.random((10, 2))
    y2 = X2.sum(axis=1)
    assert concentrated_log_likelihood(X2, y2, [2.0, -1e-3], 1.0) == -np.inf


def test_fitted_likelihood_beats_random_probes():
    X, y = sine_design(seed=7)
    model = sb.fit(X, y)
    rng = np.random.default_rng(123)

    for _ in range(100):
        theta = 10 ** rng.uniform(-3, 2, size=1)
        lam = 10 ** rng.uniform(-12, 0)
        assert concentrated_log_likelihood(X, y, theta, lam) <= (
            model.log_likelihood + 1e-9
        )


def test_prediction_invariant_to_sample_order():
    X, y = sine_design(seed=5)
    perm = np.random.default_rng(0).permutation(len(y))
    cfg = sb.FitConfig(theta=np.array([8.0]), lam=1e-4)
    a = sb.fit(X, y, cfg)
    b = sb.fit(X[perm], y[perm], cfg)
    grid = np.linspace(0, 1, 23).reshape(-1, 1)
    mu_a, s2_a = sb.predict(a, grid)
    mu_b, s2_b = sb.predict(b, grid)
    assert np.allclose(mu_a, mu_b, atol=1e-9)
    assert np.allclose(s2_a, s2_b, atol=1e-9)


# ----------------------------------------------------------- re-interpolation


@pytest.mark.parametrize("lam", [1e-6, 1e-2, 0.1])
def test_reinterp_error_is_zero_at_samples(lam):
    X, y = sine_design()
    model = sb.fit(X, y, sb.FitConfig(lam=lam))
    s2_ri = sb.reinterp_error(model, X)
    assert np.max(np.abs(s2_ri)) < 1e-8
    # plain error variance does not vanish there once lam > 0
    _, s2 = sb.predict(model, X)
    assert np.max(s2) > 0.0


def _full_hit_reinterp(model, xq):
    """Re-interpolation variance with the hit mask over every query row."""
    psi = _psi(model.X, xq, model.theta)
    hits = np.all(xq[:, None, :] == model.X[None, :, :], axis=2)
    psi = psi + model.lam * hits
    rinv_psi = cho_solve(model.cho, psi.T)
    quad = np.einsum("ij,ji->i", psi, rinv_psi)
    return np.maximum(0.0, model.sigma2_ri * (1.0 - quad))


def test_reinterp_hit_mask_matches_full_comparison():
    rng = np.random.default_rng(5)
    X = rng.random((20, 3))
    y = np.sin(4.0 * X).sum(axis=1)
    model = sb.fit(X, y, sb.FitConfig(theta=np.array([1.0, 2.0, 0.5]), lam=1e-3))
    assert np.all(sb.reinterp_error(model, X) == 0.0)
    # one ulp off a sample: psi still rounds to 1.0, but it is not a hit
    near = X[:4].copy()
    near[:, 1] = np.nextafter(near[:, 1], 2.0)
    xq = np.vstack([near, X[4:6], rng.random((3, 3))])
    s2 = sb.reinterp_error(model, xq)
    assert np.any(_psi(model.X, near, model.theta) == 1.0)
    assert np.array_equal(s2, _full_hit_reinterp(model, xq))
    assert np.all(s2[:4] > 0.0)
    assert np.all(s2[4:6] == 0.0)


def test_reinterp_scales_plain_error_when_lambda_zero():
    X, y = sine_design(seed=2)
    model = sb.fit(X, y, sb.FitConfig(lam=0.0))
    grid = np.linspace(0.03, 0.97, 17).reshape(-1, 1)
    _, s2 = sb.predict(model, grid)
    s2_ri = sb.reinterp_error(model, grid)
    mask = s2 > 1e-12
    ratio = s2_ri[mask] / s2[mask]
    assert np.allclose(ratio, model.sigma2_ri / model.sigma2_hat, rtol=1e-6)


# ------------------------------------------------------------------ loo_cv


def test_loo_on_clean_data_flags_nothing():
    x = np.linspace(0, 1, 9).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1.0
    model = sb.fit(x, y, sb.FitConfig(theta=np.array([1.0]), lam=0.0))
    recs = sb.loo_cv(model)
    assert len(recs) == 9
    assert not any(r.outlier for r in recs)
    assert all(abs(r.standardized_residual) < 3 for r in recs if not r.degenerate)


def test_loo_flags_injected_outlier():
    rng = np.random.default_rng(3)
    X = rng.random((20, 1))
    y = np.sin(4 * X[:, 0])
    y[7] += 10.0
    recs = sb.loo_cv(sb.fit(X, y))
    assert recs[7].outlier
    assert abs(recs[7].standardized_residual) > 3.0


def test_loo_residuals_calibrated_on_gp_draws():
    rng = np.random.default_rng(0)
    theta = np.array([3.0])
    inside = total = 0
    for _ in range(20):
        X = rng.random((30, 1))
        d2 = (X[:, None, :] - X[None, :, :]) ** 2 @ theta
        cov = np.exp(-d2) + 1e-8 * np.eye(30)
        y = np.linalg.cholesky(cov) @ rng.standard_normal(30)
        recs = sb.loo_cv(sb.fit(X, y, sb.FitConfig(theta=theta, lam=1e-8)))
        inside += sum(
            not r.degenerate and abs(r.standardized_residual) <= 3 for r in recs
        )
        total += sum(not r.degenerate for r in recs)
    assert inside / total >= 0.9


def test_loo_needs_three_samples():
    with pytest.raises(sb.FitError):
        sb.loo_cv(sb.fit(np.array([[0.1], [0.9]]), np.array([0.0, 1.0]),
                         sb.FitConfig(theta=np.array([1.0]), lam=1e-6)))


# ------------------------------------------------------------- diagnostics


def test_diagnostics_csv_layout(tmp_path):
    X, y = sine_design(seed=8)
    model = sb.fit(X, y)
    recs = sb.loo_cv(model)
    path = tmp_path / "loo.csv"
    sb.write_records_csv([dataclasses.asdict(rec) for rec in recs], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("index,prediction,std_error,standardized_residual,"
                        "outlier,degenerate")
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == list(range(len(recs)))


# ------------------------------------------------- the pair helper's halves

needs_two_cpus = pytest.mark.skipif(not _pair.two_cpus(),
                                    reason="the pair helper needs two CPUs")


@needs_two_cpus
@pytest.mark.parametrize("warm", [False, True])
def test_fit_gives_the_same_model_split_or_whole(kriging_helper, monkeypatch, warm):
    rng = np.random.default_rng(4)
    X = rng.random((30, 16))
    y = np.sin(3 * X).sum(axis=1) + 0.1 * rng.standard_normal(30)
    # rk's first fit, and its later ones warm-started from the last model
    config = sb.FitConfig(seed=4) if not warm else sb.FitConfig(
        n_starts=2, n_probe=4, max_sweeps=3, seed=4,
        warm_start=np.concatenate([np.zeros(16), [-6.0]]))
    split = sb.fit(X, y, config)
    assert kriging_helper.jobs == 1
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    whole = sb.fit(X, y, config)
    assert pickle.dumps(split) == pickle.dumps(whole)


@needs_two_cpus
def test_fits_from_several_threads_share_one_helper(kriging_helper):
    # the helper takes one job at a time; a thread that finds it held runs
    # both halves itself, and every fit gets the same bits
    rng = np.random.default_rng(5)
    X = rng.random((30, 16))
    y = np.cos(2 * X).sum(axis=1)
    config = sb.FitConfig(n_starts=4, n_probe=8, max_sweeps=3, seed=5)
    want = pickle.dumps(sb.fit(X, y, config))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda _: pickle.dumps(sb.fit(X, y, config)), range(24)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 24
    assert 1 <= kriging_helper.jobs <= 25 and kriging_helper.alive


@pytest.mark.parametrize("field, value", [
    ("n_starts", 0), ("n_starts", 2.5), ("n_starts", float("nan")),
    ("max_sweeps", 0), ("max_sweeps", 3.0), ("max_sweeps", float("nan")),
    ("n_probe", -1), ("n_probe", 4.5), ("n_probe", float("nan")),
])
def test_fit_config_refuses_counts_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
        sb.FitConfig(**{field: value})


def test_fit_config_accepts_the_default_and_the_warm_search():
    sb.FitConfig()
    sb.FitConfig(n_probe=0)
    sb.FitConfig(n_starts=np.int64(2), n_probe=4, max_sweeps=3)


def test_a_fit_without_the_helper_refines_its_starts_in_one_call(monkeypatch):
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    refine, calls = kriging._refine, []
    monkeypatch.setattr(kriging, "_refine",
                        lambda search, starts: calls.append(len(starts)) or refine(search, starts))
    X, y = sine_design()
    sb.fit(X, y, sb.FitConfig(seed=4))
    assert calls == [sb.FitConfig().n_starts]


def test_kriging_halves_need_one_blas_thread(monkeypatch):
    # with a BLAS thread per core in each process, the halves contend for the
    # cores, so they go to the helper only inside rk's hold and when it took
    counts = [3, 5]
    copies = [(functools.partial(counts.__setitem__, i), functools.partial(counts.__getitem__, i))
              for i in range(2)]
    calls = []
    monkeypatch.setattr(_pair, "run_call", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(kriging, "_BLAS_HOLD", kriging._BlasHold())
    assert kriging._split(len, (), [1, 2, 3]) == 3 and calls == []
    monkeypatch.setattr(kriging, "_openblas_threads", lambda: ())  # another BLAS
    with kriging._BLAS_HOLD as held:
        assert not held and not kriging._one_blas_thread()
        assert kriging._split(len, (), [1, 2, 3]) == 3 and calls == []
    monkeypatch.setattr(kriging, "_openblas_threads", lambda: copies)
    with kriging._BLAS_HOLD as held:
        assert held and kriging._one_blas_thread() and counts == [1, 1]
        with kriging._BLAS_HOLD as nested:  # a second run, as from another thread
            assert nested and counts == [1, 1]
        assert kriging._one_blas_thread() and counts == [1, 1]
        # run_call answered None (the helper cannot take it): the whole batch here
        assert kriging._split(len, (), [1, 2, 3]) == 3 and len(calls) == 1
    assert not kriging._one_blas_thread() and counts == [3, 5]