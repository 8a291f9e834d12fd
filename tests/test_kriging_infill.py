"""Expected improvement and the feasible infill search."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import sbopt as sb
import sbopt.kriging as kriging
from sbopt import _pair
from sbopt.bench import get_problem

UNIT2 = sb.Bounds(np.zeros(2), np.ones(2))


def wavy_model(lam=1e-3):
    X = sb.maximin_lhs(14, 2, seed=3)
    y = np.sin(5 * X[:, 0]) * np.cos(3 * X[:, 1]) + 0.3 * X[:, 1]
    return sb.fit(X, y, sb.FitConfig(lam=lam)), X, y


def gauss_expectation(mu, s, y_min):
    # E[max(y_min - Y, 0)] for Y ~ N(mu, s^2), by quadrature
    val, _ = quad(
        lambda t: max(y_min - t, 0.0)
        * np.exp(-0.5 * ((t - mu) / s) ** 2) / (s * np.sqrt(2 * np.pi)),
        mu - 12 * s, y_min, limit=200,
    )
    return val


@pytest.mark.parametrize("use_reinterp", [False, True])
def test_ei_matches_quadrature(use_reinterp):
    model, X, y = wavy_model()
    y_min = float(np.median(y))
    pts = np.random.default_rng(11).random((40, 2))
    mu, _ = sb.predict(model, pts)
    if use_reinterp:
        s2 = sb.reinterp_error(model, pts)
    else:
        _, s2 = sb.predict(model, pts)
    ei = sb.expected_improvement(model, pts, y_min, use_reinterp)
    checked = 0
    for i in range(40):
        s = np.sqrt(s2[i])
        if s < 1e-12:
            continue
        want = gauss_expectation(mu[i], s, y_min)
        if want > 1e-9:
            checked += 1
            assert ei[i] == pytest.approx(want, rel=1e-6)
        else:
            assert ei[i] < 1e-8
    assert checked >= 20


def test_ei_at_process_mean_far_from_data():
    # far from every sample the predictor reverts to mu_hat, so with
    # y_min = mu_hat the improvement reduces to s / sqrt(2 pi)
    rng = np.random.default_rng(3)
    X = rng.random((8, 2)) * 0.15
    y = np.sin(6 * X[:, 0]) + X[:, 1]
    model = sb.fit(X, y, sb.FitConfig(theta=np.array([50.0, 50.0]), lam=0.1))
    ei = sb.expected_improvement(
        model, np.array([0.95, 0.95]), model.mu_hat, use_reinterp=False)
    s = np.sqrt(model.sigma2_hat * 1.1)
    assert ei == pytest.approx(s / np.sqrt(2 * np.pi), rel=1e-9)


def test_ei_never_negative():
    model, X, y = wavy_model()
    pts = np.random.default_rng(0).random((500, 2))
    for y_min in (float(y.min()) - 1.0, float(y.min()), float(y.max()) + 1.0):
        assert np.all(sb.expected_improvement(model, pts, y_min) >= 0.0)


def test_reinterp_kills_ei_at_samples_plain_does_not():
    model, X, y = wavy_model(lam=1e-3)
    y_min = float(y.min())
    assert np.all(sb.expected_improvement(model, X, y_min, True) == 0.0)
    assert sb.expected_improvement(model, X, y_min, False).max() > 0.0


def test_proposal_lands_in_unsampled_valley():
    # samples bracket the minimum of (x - 0.5)^2 with a gap around it
    xs = np.array([0.05, 0.15, 0.3, 0.42, 0.58, 0.7, 0.85, 0.95]).reshape(-1, 1)
    ys = (xs[:, 0] - 0.5) ** 2
    model = sb.fit(xs, ys, sb.FitConfig(lam=0.0))
    bounds = sb.Bounds(np.array([0.0]), np.array([1.0]))
    y_min = float(ys.min())
    prop = sb.propose_infill(model, y_min, None, bounds, seed=0)
    assert 0.42 < prop.x[0] < 0.58
    grid = np.linspace(0, 1, 20001).reshape(-1, 1)
    ei_grid = sb.expected_improvement(model, grid, y_min)
    assert prop.ei >= ei_grid.max() - 1e-12
    assert abs(prop.x[0] - grid[np.argmax(ei_grid), 0]) < 5e-3


def test_proposal_beats_dense_feasible_probe():
    model, X, y = wavy_model(lam=1e-4)
    y_min = float(y.min())
    predicate = lambda t: t[..., 0] + t[..., 1] <= 1.2
    prop = sb.propose_infill(model, y_min, predicate, UNIT2, seed=5)
    assert predicate(prop.x)
    cand = np.random.default_rng(99).random((10000, 2))
    cand = cand[cand[:, 0] + cand[:, 1] <= 1.2]
    assert prop.ei >= sb.expected_improvement(model, cand, y_min).max()


def test_infeasible_everywhere_raises():
    model, X, y = wavy_model()
    with pytest.raises(sb.InfillSearchError):
        sb.propose_infill(model, float(y.min()),
                          lambda t: np.zeros(len(t), dtype=bool), UNIT2, seed=0)


def test_per_point_predicate_is_rejected():
    # the infill search passes (k, m) arrays; a scalar answer is a contract error
    model, X, y = wavy_model()
    with pytest.raises(ValueError, match="booleans"):
        sb.propose_infill(model, float(y.min()), lambda t: True, UNIT2, seed=0)


def test_custom_sampler_feeds_candidates():
    model, X, y = wavy_model()
    calls = {"n": 0}

    def left_half(rng, n, box):
        calls["n"] += 1
        pts = box.lower + rng.random((n, box.m_dim)) * box.span
        pts[:, 0] *= 0.5
        return pts

    prop = sb.propose_infill(model, float(y.min()), lambda t: t[..., 0] <= 0.5,
                             UNIT2, seed=2, sampler=left_half)
    assert calls["n"] >= 1
    assert prop.x[0] <= 0.5


def test_proposal_deterministic_per_seed():
    model, X, y = wavy_model()
    a = sb.propose_infill(model, float(y.min()), None, UNIT2, seed=7)
    b = sb.propose_infill(model, float(y.min()), None, UNIT2, seed=7)
    assert np.array_equal(a.x, b.x)
    assert a.ei == b.ei


# ------------------------------------------------- batch-independent EI rows


def band_model(n, seed=0):
    # a 16-D model on points of the complex problem's smoothing band, with
    # its unit-coordinate row mask and band sampler
    problem = get_problem("complex")
    mask = problem.feasibility_predicate()
    sampler = problem.infill_sampler
    X = sampler(np.random.default_rng(seed), n, problem.bounds)
    y = np.sin(3 * X[:, :8]).sum(axis=1) - ((X[:, 8:] - 0.4) * (X[:, 8:] - 0.6)).sum(axis=1)
    model = sb.fit(X, y, sb.FitConfig(theta=np.full(16, 0.8), lam=1e-4))
    unit_mask = lambda U: mask(problem.bounds.from_unit(U))
    return model, y, unit_mask, sampler


@pytest.mark.parametrize("m, n", [(16, 25), (16, 60), (16, 100), (2, 14)])
def test_ei_rows_do_not_depend_on_their_batch(m, n):
    if m == 16:
        model, y, _, _ = band_model(n)
    else:
        model, _, y = wavy_model()
    rng = np.random.default_rng(n)
    # sample rows in the stack take the re-interpolation hit path
    Q = np.vstack([rng.random((150, m)), model.X[: n // 2]])
    Q = Q[rng.permutation(len(Q))]
    y_min = float(np.min(y))
    full_pred = sb.predict(model, Q)
    for use_reinterp in (True, False):
        full_ei = sb.expected_improvement(model, Q, y_min, use_reinterp)
        for k in (1, 2, 7, 40, 120, len(Q) - 1):
            idx = np.sort(rng.choice(len(Q), size=k, replace=False))
            ei = sb.expected_improvement(model, Q[idx], y_min, use_reinterp)
            assert ei.tobytes() == full_ei[idx].tobytes()
            for got, want in zip(sb.predict(model, Q[idx]), full_pred):
                assert got.tobytes() == want[idx].tobytes()


_BLOCK = kriging._MOMENT_BLOCK


@pytest.mark.parametrize("m", [16, 2])
def test_moment_blocks_give_the_bits_of_single_rows(m):
    if m == 16:
        model, y, _, _ = band_model(100)
    else:
        model, _, y = wavy_model()
    n = model.n_samples
    rng = np.random.default_rng(m)
    Q = rng.random((4096, m))
    # sample rows at the first row of the second block and spread after it,
    # so the re-interpolation hit path runs in later blocks; one more in the first
    at = np.concatenate([[3, _BLOCK],
                         np.sort(rng.choice(np.arange(_BLOCK + 1, 4096), n - 2,
                                            replace=False))])
    Q[at] = model.X
    y_min = float(np.min(y))
    funcs = {
        "predict": lambda q: np.concatenate(sb.predict(model, q)),
        "reinterp_error": lambda q: sb.reinterp_error(model, q),
        "ei_reinterp": lambda q: sb.expected_improvement(model, q, y_min, True),
        "ei_plain": lambda q: sb.expected_improvement(model, q, y_min, False),
    }
    for name, f in funcs.items():
        one = [f(Q[i:i + 1]) for i in range(len(Q))]
        for k in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7, 4096):
            if name == "predict":
                want = np.concatenate([[r[0] for r in one[:k]], [r[1] for r in one[:k]]])
            else:
                want = np.concatenate(one[:k])
            assert f(Q[:k]).tobytes() == want.tobytes(), (name, k)
    assert np.all(sb.reinterp_error(model, Q[at]) == 0.0)


def test_ei_working_set_is_one_block():
    model, y, _, _ = band_model(100)
    Q = np.random.default_rng(1).random((4096, 16))
    y_min = float(np.min(y))
    sb.expected_improvement(model, Q[:1], y_min)  # loads scipy outside the trace
    tracemalloc.start()
    try:
        sb.expected_improvement(model, Q, y_min)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


# ---------------------------------------------- the sweep against a reference

_ei = kriging.expected_improvement


def reference_propose_infill(model, y_min, predicate, bounds, seed, sampler=None):
    """The sweep before the predicate moved ahead of EI: EI on every changed
    candidate, the predicate only on the improving ones, per-row argsort.

    Returns the proposal and the sweep candidate counts: changed, changed
    and feasible, and of those the steps back to a start's point before its
    last move.
    """
    rng = np.random.default_rng(seed)
    m = bounds.m_dim
    starts, start_ei = [], []
    for _ in range(kriging._INFILL_RESTARTS):
        if sampler is not None:
            cand = np.asarray(sampler(rng, kriging._INFILL_PROBE, bounds), dtype=float)
        else:
            cand = bounds.lower + rng.random((kriging._INFILL_PROBE, m)) * bounds.span
        ei_cand = _ei(model, cand, y_min)
        order = np.argsort(ei_cand)[::-1]
        if predicate is not None:
            order = order[predicate(cand)[order]]
        for i in order[: kriging._INFILL_STARTS - len(starts)]:
            starts.append(cand[i])
            start_ei.append(ei_cand[i])
        if len(starts) >= kriging._INFILL_STARTS:
            break
    pts, vals = np.array(starts), np.array(start_ei, dtype=float)
    k = pts.shape[0]
    steps = np.full(k, 0.25)
    dim = np.repeat(np.flatnonzero(bounds.span > 0), 2)
    sgn = np.tile([1.0, -1.0], dim.size // 2)
    n_dir = dim.size
    counts = {"changed": 0, "feasible": 0, "back": 0}
    prev = np.full_like(pts, np.nan)
    for _ in range(kriging._INFILL_SWEEPS):
        live = np.where(steps >= kriging._INFILL_MIN_STEP)[0]
        if live.size == 0:
            break
        base = pts[live]
        cols = np.clip(base[:, dim] + sgn * steps[live, None] * bounds.span[dim],
                       bounds.lower[dim], bounds.upper[dim])
        cand = np.repeat(base[:, None, :], n_dir, axis=1)
        cand[:, np.arange(n_dir), dim] = cols
        changed = cols != base[:, dim]
        ei_mat = np.full((live.size, n_dir), -np.inf)
        if np.any(changed):
            ei_mat[changed] = _ei(model, cand[changed], y_min)
        counts["changed"] += int(changed.sum())
        feasible = changed.copy()
        if predicate is not None and np.any(changed):
            feasible[changed] = predicate(cand[changed])
        counts["feasible"] += int(feasible.sum())
        counts["back"] += int((feasible & (cand == prev[live, None]).all(axis=2)).sum())
        ok = ~(ei_mat <= vals[live, None] + 1e-15)
        if predicate is not None and np.any(ok):
            ok[ok] = predicate(cand[ok])
        moved = np.zeros(k, dtype=bool)
        for row in np.flatnonzero(np.any(ok, axis=1)):
            order = np.argsort(ei_mat[row])[::-1]
            d = order[ok[row, order]][0]
            i = live[row]
            prev[i] = pts[i]
            pts[i], vals[i], moved[i] = cand[row, d], ei_mat[row, d], True
        steps[~moved] *= 0.5
    best = int(np.argmax(vals))
    return sb.EIProposal(x=pts[best].copy(), ei=float(vals[best])), counts


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", ["band16", "plain2"])
def test_sweep_matches_reference_and_skips_wasted_ei(case, seed, monkeypatch):
    if case == "band16":
        model, y, predicate, sampler = band_model(40, seed)
        bounds = sb.Bounds.unit(16)
    else:
        model, _, y = wavy_model()
        predicate, sampler, bounds = None, None, UNIT2
    y_min = float(np.min(y))
    want, counts = reference_propose_infill(model, y_min, predicate, bounds, seed,
                                            sampler)

    batches = []

    def counting_ei(model, x, y_min, use_reinterp=True):
        batches.append(np.array(x))
        return _ei(model, x, y_min, use_reinterp)

    monkeypatch.setattr(kriging, "expected_improvement", counting_ei)
    # the batches are counted in this process, so the pair helper takes no half
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    got = sb.propose_infill(model, y_min, predicate, bounds, seed=seed,
                            sampler=sampler)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.ei == want.ei

    sweeps = [b for b in batches if len(b) != kriging._INFILL_PROBE]
    # every row reaching EI in a sweep is a feasible changed candidate, and
    # every such candidate does but the step back to a start's previous point
    assert sum(map(len, sweeps)) == counts["feasible"] - counts["back"]
    assert counts["back"] > 0
    if predicate is not None:
        assert all(predicate(b).all() for b in sweeps)
        assert counts["feasible"] < counts["changed"]


def every_step_pattern_search(model, y_min, use_reinterp, predicate, bounds, pts, vals):
    """``kriging._pattern_search`` as it was before it skipped the step back:
    EI on every changed feasible candidate.  Returns the ends, their EI and
    the EI rows asked for."""
    pts, vals = np.array(pts, dtype=float), np.array(vals, dtype=float)
    k = pts.shape[0]
    steps = np.full(k, 0.25)
    dim = np.repeat(np.flatnonzero(bounds.span > 0), 2)
    sgn = np.tile([1.0, -1.0], dim.size // 2)
    n_dir = dim.size
    rows_asked = 0
    for _ in range(kriging._INFILL_SWEEPS):
        live = np.where(steps >= kriging._INFILL_MIN_STEP)[0]
        if live.size == 0 or n_dir == 0:
            break
        base = pts[live]
        cols = np.clip(base[:, dim] + sgn * steps[live, None] * bounds.span[dim],
                       bounds.lower[dim], bounds.upper[dim])
        cand = np.repeat(base[:, None, :], n_dir, axis=1)
        cand[:, np.arange(n_dir), dim] = cols
        mask = cols != base[:, dim]
        if predicate is not None and np.any(mask):
            mask[mask] = kriging._row_mask(predicate, cand[mask])
        ei_mat = np.full((live.size, n_dir), -np.inf)
        if np.any(mask):
            ei_mat[mask] = _ei(model, cand[mask], y_min, use_reinterp)
            rows_asked += int(mask.sum())
        ok = ~(ei_mat <= vals[live, None] + 1e-15)
        rows = np.flatnonzero(np.any(ok, axis=1))
        d = np.argmax(np.where(ok[rows], ei_mat[rows], -np.inf), axis=1)
        i = live[rows]
        pts[i] = cand[rows, d]
        vals[i] = ei_mat[rows, d]
        moved = np.zeros(k, dtype=bool)
        moved[i] = True
        steps[~moved] *= 0.5
    return pts, vals, rows_asked


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", ["band16", "plain2"])
@pytest.mark.parametrize("use_reinterp", [True, False])
def test_pattern_search_skips_the_step_back_and_keeps_its_ends(case, seed, use_reinterp,
                                                               monkeypatch):
    if case == "band16":
        model, y, predicate, sampler = band_model(30 + 10 * seed, seed)
        bounds = sb.Bounds.unit(16)
        starts = sampler(np.random.default_rng(seed + 10), 12, bounds)
    else:
        model, _, y = wavy_model(lam=10.0 ** -(seed + 2))
        predicate, bounds = None, UNIT2
        starts = np.random.default_rng(seed + 10).random((12, 2))
    y_min = float(np.min(y))
    vals = _ei(model, starts, y_min, use_reinterp)
    want_pts, want_vals, every = every_step_pattern_search(
        model, y_min, use_reinterp, predicate, bounds, starts, vals)

    asked = []
    monkeypatch.setattr(kriging, "expected_improvement",
                        lambda model, x, *args: asked.append(len(x)) or _ei(model, x, *args))
    pts, got_vals = kriging._pattern_search(model, y_min, use_reinterp, predicate, bounds,
                                            starts, vals)
    assert pts.tobytes() == want_pts.tobytes()
    assert got_vals.tobytes() == want_vals.tobytes()
    assert sum(asked) < every


# ------------------------------------------------- the pair helper's halves


def test_a_probe_round_without_the_helper_is_one_call(monkeypatch):
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    probe, rows, rounds = kriging._probe, [], []
    monkeypatch.setattr(kriging, "_probe", lambda *args: rows.append(len(args[-1])) or probe(*args))
    model, y, predicate, sampler = band_model(40)

    def counting_sampler(*args):
        rounds.append(1)
        return sampler(*args)

    y_min, box = float(np.min(y)), sb.Bounds.unit(16)
    sb.propose_infill(model, y_min, predicate, box, seed=0, sampler=counting_sampler)
    assert rows == [kriging._INFILL_PROBE] * len(rounds)
    # a mask of the wrong shape is named with the whole probe's shape
    with pytest.raises(ValueError, match=re.escape("a (4096, 16) array to 4096 booleans")):
        sb.propose_infill(model, y_min, lambda U: np.ones(3, dtype=bool), box, seed=0)


class HelperOnlyError(Exception):
    """What ``RaisesInTheHelper`` raises."""


class RaisesInTheHelper:
    """A row mask that passes every row in the process that made it and raises in any other."""

    def __init__(self):
        self.pid = os.getpid()

    def __call__(self, U):
        if os.getpid() != self.pid:
            raise HelperOnlyError(f"{len(U)} rows in the helper")
        return np.ones(len(U), dtype=bool)


@pytest.mark.skipif(not _pair.two_cpus(), reason="the pair helper needs two CPUs")
def test_an_error_in_the_helpers_half_reaches_the_caller(kriging_helper, monkeypatch):
    model, X, y = wavy_model()
    y_min, fitted = float(y.min()), kriging_helper.jobs
    with pytest.raises(HelperOnlyError, match="^2048 rows in the helper$"):
        sb.propose_infill(model, y_min, RaisesInTheHelper(), UNIT2, seed=0)
    assert kriging_helper.jobs == fitted + 1 and kriging_helper.alive
    # it stays in step: the next search's two halves come back, with the whole's bits
    split = sb.propose_infill(model, y_min, None, UNIT2, seed=0)
    assert kriging_helper.jobs == fitted + 3
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    whole = sb.propose_infill(model, y_min, None, UNIT2, seed=0)
    assert (split.x.tobytes(), split.ei) == (whole.x.tobytes(), whole.ei)
