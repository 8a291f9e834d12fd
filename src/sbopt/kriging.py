"""Regressing kriging surrogate with expected-improvement infill.

The surrogate interpolates when the regularization constant lambda is
zero and regresses through noisy responses when it is positive.  Because
a regressing model keeps a nonzero error estimate at its own samples,
plain expected improvement keeps drilling the same spot; the
re-interpolation error estimate removes that artifact and is the default
for infill selection.

Hyperparameters are chosen by maximizing the concentrated log-likelihood
with a multi-start coordinate search over ``log10 theta`` in [-3, 2] per
dimension and ``log10 lambda`` in [-12, 0].  Each likelihood evaluation
builds R, factors it, and takes mu, sigma^2 and the whitened residual
from one two-column triangular solve.

One correlation kernel, ``_psi``, serves the correlation matrix R, the
predictions, the error variances and EI: a squared Euclidean distance on
``sqrt(theta)``-scaled inputs, so it allocates only its (k, n) result.
Predictions, error variances and EI share one moments routine.
Feasibility predicates passed to ``propose_infill`` and ``run_rk`` are
row masks: they map a (k, m) array of points to a length-k boolean
array, e.g. ``constraints.feasible_mask``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.spatial.distance import cdist, pdist
from scipy.special import ndtr

from .core import Bounds, EvaluationError, Evaluator, SboError, Trace, _write_csv, as_vector

_SIGMA2_FLOOR = 1e-300


class FitError(SboError):
    """Model fitting failed (singular correlation matrix or bad inputs)."""


class InfillSearchError(SboError):
    """No feasible infill candidate could be found."""


def gaussian_correlation(xi, xj, theta) -> float:
    """Anisotropic Gaussian kernel exp(-sum theta_l (xi_l - xj_l)^2)."""
    xi, xj = as_vector(xi), as_vector(xj, m_dim=np.atleast_1d(xi).size)
    theta = as_vector(theta, xi.size)
    if np.any(theta <= 0):
        raise ValueError("theta entries must be positive")
    return float(_psi(xj[None, :], xi[None, :], theta)[0, 0])


# ---------------------------------------------------------------------------
# Latin hypercube sampling


@dataclass(frozen=True)
class LhsDesign:
    points: np.ndarray
    seed: int
    n_candidates: int


def random_lhs(n: int, m_dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Latin hypercube draw: each column permutes the stratum midpoints."""
    if n < 1 or m_dim < 1:
        raise ValueError("n and m_dim must be >= 1")
    mids = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    return np.column_stack([rng.permutation(mids) for _ in range(m_dim)])


def maximin_lhs(n: int, m_dim: int, seed: int = 0, n_candidates: int = 50) -> LhsDesign:
    """Best of ``n_candidates`` LHS draws by minimum pairwise distance.

    The candidate stream starts at the plain single draw for the same
    seed, so the result is never worse space-filling than that draw.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    rng = np.random.default_rng(seed)
    best, best_d = None, -np.inf
    for _ in range(n_candidates):
        pts = random_lhs(n, m_dim, rng)
        d = float(np.min(pdist(pts))) if n > 1 else np.inf
        if d > best_d:
            best, best_d = pts, d
    return LhsDesign(points=best, seed=seed, n_candidates=n_candidates)


# ---------------------------------------------------------------------------
# Model fitting


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameter search settings; fixed theta or lam bypass the search."""

    n_starts: int = 20
    n_probe: int = 60
    max_sweeps: int = 10
    log10_theta_bounds: tuple = (-3.0, 2.0)
    log10_lambda_bounds: tuple = (-12.0, 0.0)
    theta: np.ndarray | None = None
    lam: float | None = None
    warm_start: np.ndarray | None = None
    seed: int = 0


@dataclass(frozen=True)
class KrigingModel:
    """Fitted surrogate with cached Cholesky factor and solves."""

    X: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    lam: float
    mu_hat: float
    sigma2_hat: float
    sigma2_ri: float
    log_likelihood: float
    cho: tuple = field(repr=False)
    alpha: np.ndarray = field(repr=False)

    @property
    def n_samples(self) -> int:
        return self.y.size

    @property
    def m_dim(self) -> int:
        return self.X.shape[1]


def _validate_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float)).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise FitError(f"X {X.shape} and y {y.shape} do not align")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise FitError("samples must be finite")
    return X, y


def _psi(X: np.ndarray, Xq: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Correlation of query rows against sample rows, shape (k, n).

    ``exp(-sum_l theta_l (xq_l - x_l)^2)``, computed as a squared Euclidean
    distance between ``sqrt(theta)``-scaled rows.  Each entry depends only
    on its own pair of rows, so a query equal to a sample gets exactly that
    sample's row of ``_psi(X, X, theta)``, with 1.0 at the sample itself.
    """
    w = np.sqrt(theta)
    psi = cdist(Xq * w, X * w, "sqeuclidean")
    np.negative(psi, out=psi)
    return np.exp(psi, out=psi)


def _solve_parts(X, y, theta, lam):
    """Cholesky of R = Psi + lam*I plus the MLE pieces, None if singular.

    One triangular solve of L Z = [1, y] gives the generalized-least-squares
    mean, sigma^2 and the whitened residual L^-1 (y - mu).
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise FitError(f"lambda must be finite and non-negative, got {lam!r}")
    n = y.size
    R = _psi(X, X, theta)
    R.flat[::n + 1] += lam
    try:
        cho = cho_factor(R, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    Z = solve_triangular(cho[0], np.column_stack([np.ones(n), y]), lower=True,
                         check_finite=False)
    z1, zy = Z[:, 0], Z[:, 1]
    denom = float(z1 @ z1)
    if denom <= 0:
        return None
    mu = float((z1 @ zy) / denom)
    resid = zy - mu * z1
    sigma2 = float(resid @ resid) / n
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return cho, mu, resid, sigma2, logdet


def _log_likelihood(n: int, sigma2: float, logdet: float) -> float:
    return -0.5 * (n * np.log(2.0 * np.pi) + n * np.log(max(sigma2, _SIGMA2_FLOOR))
                   + logdet + n)


def concentrated_log_likelihood(X, y, theta, lam) -> float:
    """Profile log-likelihood with mu and sigma^2 at their closed-form MLEs."""
    X, y = _validate_xy(X, y)
    theta = as_vector(theta, X.shape[1])
    if np.any(theta < 0):
        return -np.inf
    parts = _solve_parts(X, y, theta, float(lam))
    if parts is None:
        return -np.inf
    _, _, _, sigma2, logdet = parts
    return _log_likelihood(y.size, sigma2, logdet)


def _build_model(X, y, theta, lam) -> KrigingModel:
    parts = _solve_parts(X, y, theta, lam)
    if parts is None:
        raise FitError(
            "correlation matrix is singular; duplicated samples need lambda > 0")
    cho, mu, resid, sigma2, logdet = parts
    n = y.size
    alpha = solve_triangular(cho[0], resid, lower=True, trans="T", check_finite=False)
    sigma2 = max(sigma2, 0.0)
    sigma2_ri = max(0.0, sigma2 - lam * float(alpha @ alpha) / n)
    return KrigingModel(X=X, y=y, theta=np.array(theta, dtype=float), lam=float(lam),
                        mu_hat=mu, sigma2_hat=sigma2, sigma2_ri=sigma2_ri,
                        log_likelihood=_log_likelihood(n, sigma2, logdet),
                        cho=cho, alpha=alpha)


def fit(X, y, config: FitConfig | None = None) -> KrigingModel:
    """Fit the surrogate, searching free hyperparameters by likelihood.

    Raises FitError when the correlation matrix cannot be factorized
    (typically duplicated rows with lam fixed at zero).
    """
    config = config or FitConfig()
    X, y = _validate_xy(X, y)
    n, m = X.shape

    theta_fixed = None if config.theta is None else as_vector(config.theta, m)
    lam_fixed = config.lam
    if theta_fixed is not None and np.any(theta_fixed <= 0):
        raise FitError("fixed theta must be positive")
    if lam_fixed is not None and lam_fixed < 0:
        raise FitError("fixed lambda must be non-negative")

    if theta_fixed is not None and lam_fixed is not None:
        return _build_model(X, y, theta_fixed, float(lam_fixed))
    if n == 1:
        return _build_model(X, y, theta_fixed if theta_fixed is not None else np.ones(m),
                            float(lam_fixed) if lam_fixed is not None else 1e-6)

    # search space: log10 theta per dim then log10 lambda, fixed entries pinned
    t_lo, t_hi = config.log10_theta_bounds
    l_lo, l_hi = config.log10_lambda_bounds
    lo = np.array([t_lo] * m + [l_lo])
    hi = np.array([t_hi] * m + [l_hi])
    free = []
    if theta_fixed is None:
        free.extend(range(m))
    if lam_fixed is None:
        free.append(m)
    free = np.array(free, dtype=int)

    def unpack(p):
        theta = theta_fixed if theta_fixed is not None else 10.0 ** p[:m]
        lam = float(lam_fixed) if lam_fixed is not None else float(10.0 ** p[m])
        return theta, lam

    def nll(p):
        theta, lam = unpack(p)
        parts = _solve_parts(X, y, theta, lam)
        if parts is None:
            return np.inf
        _, _, _, sigma2, logdet = parts
        return n * np.log(max(sigma2, _SIGMA2_FLOOR)) + logdet

    rng = np.random.default_rng(config.seed)
    center = (lo + hi) / 2.0
    starts = [center]
    if config.warm_start is not None:
        starts.append(np.clip(np.asarray(config.warm_start, dtype=float), lo, hi))
    for _ in range(max(0, config.n_probe - len(starts))):
        starts.append(lo + rng.random(m + 1) * (hi - lo))
    scored = sorted(((nll(p), i) for i, p in enumerate(starts)), key=lambda t: t[0])
    best_p, best_f = None, np.inf
    for f0, i in scored[: config.n_starts]:
        p, fval = starts[i].copy(), f0
        step = 0.5
        for _ in range(config.max_sweeps):
            improved = False
            for j in free:
                for s in (step, -step):
                    cand = p.copy()
                    cand[j] = np.clip(p[j] + s, lo[j], hi[j])
                    if cand[j] == p[j]:
                        continue
                    fc = nll(cand)
                    if fc < fval - 1e-12:
                        p, fval = cand, fc
                        improved = True
                        break
            if not improved:
                step *= 0.5
                if step < 0.02:
                    break
        if fval < best_f:
            best_p, best_f = p, fval
    if best_p is None or not np.isfinite(best_f):
        raise FitError("no factorizable hyperparameters found; check for duplicate rows")
    theta, lam = unpack(best_p)
    return _build_model(X, y, theta, lam)


# ---------------------------------------------------------------------------
# Prediction and error estimates


def _query_rows(model: KrigingModel, x) -> tuple[np.ndarray, bool]:
    xq = np.asarray(x, dtype=float)
    scalar = xq.ndim == 1
    xq = np.atleast_2d(xq)
    if xq.shape[1] != model.m_dim:
        raise SboError(f"query dimension {xq.shape[1]} != model dimension {model.m_dim}")
    if not np.all(np.isfinite(xq)):
        raise EvaluationError("query points must be finite")
    return xq, scalar


def _moments(model: KrigingModel, xq: np.ndarray, reinterp: bool):
    """Predictor and error variance at the (k, m) query rows.

    ``reinterp`` selects the re-interpolation variance, which adds the
    nugget to psi at every query that equals a sample row; otherwise the
    plain regressing variance.
    """
    psi = _psi(model.X, xq, model.theta)
    y_hat = model.mu_hat + psi @ model.alpha
    if reinterp and model.lam > 0:
        # an exact sample match gives psi == 1.0, so only those rows are compared
        rows = np.flatnonzero(np.any(psi == 1.0, axis=1))
        if rows.size:
            hits = np.all(xq[rows, None, :] == model.X[None, :, :], axis=2)
            psi[rows] = psi[rows] + model.lam * hits
    rinv_psi = cho_solve(model.cho, psi.T, check_finite=False)
    quad = np.einsum("ij,ji->i", psi, rinv_psi)
    if reinterp:
        s2 = np.maximum(0.0, model.sigma2_ri * (1.0 - quad))
    else:
        s2 = np.maximum(0.0, model.sigma2_hat * (1.0 + model.lam - quad))
    return y_hat, s2


def predict(model: KrigingModel, x):
    """Predictor and error variance at x; x may be one point or a stack.

    The error variance is sigma2_hat * (1 + lam - psi' R^-1 psi), floored
    at zero.  With lam > 0 it stays positive at the samples, which is the
    regressing behavior.
    """
    xq, scalar = _query_rows(model, x)
    y_hat, s2 = _moments(model, xq, reinterp=False)
    if scalar:
        return float(y_hat[0]), float(s2[0])
    return y_hat, s2


def reinterp_error(model: KrigingModel, x):
    """Re-interpolation error variance, exactly zero at the sample sites.

    Uses the reduced process variance sigma2_ri and, at any query that
    coincides with a sample row, the nugget-bearing correlation vector,
    so sampled locations report no residual uncertainty even when the
    model regresses.
    """
    xq, scalar = _query_rows(model, x)
    _, s2 = _moments(model, xq, reinterp=True)
    if scalar:
        return float(s2[0])
    return s2


def expected_improvement(model: KrigingModel, x, y_min: float,
                         use_reinterp: bool = True):
    """Closed-form expected improvement below y_min at x.

    Zero wherever the error estimate vanishes.  ``use_reinterp`` selects
    the re-interpolation error (the default for infill work); pass False
    to use the plain regressing error.
    """
    xq, scalar = _query_rows(model, x)
    y_hat, s2 = _moments(model, xq, use_reinterp)
    s = np.sqrt(s2)
    ei = np.zeros(xq.shape[0])
    ok = s > 0
    if np.any(ok):
        z = (y_min - y_hat[ok]) / s[ok]
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        ei[ok] = (y_min - y_hat[ok]) * ndtr(z) + s[ok] * pdf
    ei = np.maximum(ei, 0.0)
    if scalar:
        return float(ei[0])
    return ei


# ---------------------------------------------------------------------------
# Infill search


@dataclass(frozen=True)
class InfillConfig:
    n_probe: int = 4096
    n_starts: int = 12
    max_restarts: int = 5
    max_sweeps: int = 40
    min_step: float = 1e-4
    seed: int = 0
    # Optional candidate generator (rng, n, bounds) -> (n, m) array.  Lets a
    # problem with a tiny feasible fraction propose mostly-feasible probe
    # points instead of rejection-sampling the whole box; candidates still
    # pass through the feasibility predicate before use.
    sampler: object = None


@dataclass(frozen=True)
class EIProposal:
    x: np.ndarray
    ei: float


def _row_mask(predicate, rows: np.ndarray) -> np.ndarray:
    """Apply a row-mask feasibility predicate to a (k, m) array, checking its shape."""
    mask = np.asarray(predicate(rows), dtype=bool)
    if mask.shape != (rows.shape[0],):
        raise ValueError(
            f"feasibility predicate must map a ({rows.shape[0]}, {rows.shape[1]}) "
            f"array to {rows.shape[0]} booleans, got shape {mask.shape}")
    return mask


def propose_infill(model: KrigingModel, y_min: float, feasibility_predicate,
                   bounds: Bounds, config: InfillConfig | None = None,
                   use_reinterp: bool = True) -> EIProposal:
    """Feasible point maximizing expected improvement.

    Multi-start pattern search: a large random probe seeds the best
    feasible points, then each sweep polls every coordinate step of
    every start in one EI batch and moves each point along its best
    feasible improving direction, halving stalled step sizes.

    ``feasibility_predicate`` is None or a row mask: it maps a (k, m)
    array of candidates to a length-k boolean array.  It runs once per
    probe and once per sweep, on the candidates the search could pick.
    Raises InfillSearchError when repeated probes find no feasible
    candidate at all.
    """
    config = config or InfillConfig()
    rng = np.random.default_rng(config.seed)
    predicate = feasibility_predicate
    m = bounds.m_dim

    starts: list = []
    start_ei: list = []
    for _ in range(config.max_restarts):
        if config.sampler is not None:
            cand = np.asarray(config.sampler(rng, config.n_probe, bounds), dtype=float)
        else:
            cand = bounds.lower + rng.random((config.n_probe, m)) * bounds.span
        ei_cand = expected_improvement(model, cand, y_min, use_reinterp)
        # the feasible probes in decreasing EI order become the starts
        order = np.argsort(ei_cand)[::-1]
        if predicate is not None:
            order = order[_row_mask(predicate, cand)[order]]
        for i in order[: config.n_starts - len(starts)]:
            starts.append(cand[i])
            start_ei.append(ei_cand[i])
        if len(starts) >= config.n_starts:
            break
    if not starts:
        raise InfillSearchError(
            f"no feasible candidate in {config.max_restarts} probes "
            f"of {config.n_probe} points")

    pts = np.array(starts)
    vals = np.array(start_ei, dtype=float)
    k = pts.shape[0]
    steps = np.full(k, 0.25)
    # direction d moves coordinate dim[d] by sgn[d] steps
    dim = np.repeat(np.flatnonzero(bounds.span > 0), 2)
    sgn = np.tile([1.0, -1.0], dim.size // 2)
    n_dir = dim.size
    for _ in range(config.max_sweeps):
        live = np.where(steps >= config.min_step)[0]
        if live.size == 0 or n_dir == 0:
            break
        base = pts[live]
        cols = np.clip(base[:, dim] + sgn * steps[live, None] * bounds.span[dim],
                       bounds.lower[dim], bounds.upper[dim])
        cand = np.repeat(base[:, None, :], n_dir, axis=1)
        cand[:, np.arange(n_dir), dim] = cols
        changed = cols != base[:, dim]
        ei_mat = np.full((live.size, n_dir), -np.inf)
        mask = changed.reshape(-1)
        if np.any(mask):
            flat = cand.reshape(live.size * n_dir, m)
            ei_mat.reshape(-1)[mask] = expected_improvement(
                model, flat[mask], y_min, use_reinterp)
        # a direction qualifies when its EI is not at or below the point's
        # own; the predicate runs only on those
        ok = ~(ei_mat <= vals[live, None] + 1e-15)
        if predicate is not None and np.any(ok):
            ok[ok] = _row_mask(predicate, cand[ok])
        moved = np.zeros(k, dtype=bool)
        for row in np.flatnonzero(np.any(ok, axis=1)):
            # the best qualifying direction, ties in argsort order
            order = np.argsort(ei_mat[row])[::-1]
            d = order[ok[row, order]][0]
            i = live[row]
            pts[i] = cand[row, d]
            vals[i] = ei_mat[row, d]
            moved[i] = True
        steps[~moved] *= 0.5
    best = int(np.argmax(vals))
    return EIProposal(x=pts[best].copy(), ei=float(vals[best]))


# ---------------------------------------------------------------------------
# Leave-one-out cross-validation


@dataclass(frozen=True)
class LooRecord:
    index: int
    prediction: float
    std_error: float
    standardized_residual: float
    outlier: bool
    degenerate: bool


def loo_cv(model: KrigingModel, residual_limit: float = 3.0) -> list[LooRecord]:
    """Leave-one-out refits with the fitted hyperparameters frozen.

    Standardized residuals outside [-limit, limit] are flagged as
    outliers; near-zero predicted error flags the record degenerate
    instead of dividing by it.  Needs at least three samples.
    """
    n = model.n_samples
    if n < 3:
        raise FitError("leave-one-out needs at least 3 samples")
    records = []
    for i in range(n):
        keep = np.arange(n) != i
        sub = _build_model(model.X[keep], model.y[keep], model.theta, model.lam)
        y_hat, s2 = predict(sub, model.X[i])
        degenerate = s2 < 1e-12
        s = float(np.sqrt(max(s2, 1e-12)))
        r = (model.y[i] - y_hat) / s
        records.append(LooRecord(
            index=i, prediction=float(y_hat), std_error=s,
            standardized_residual=float(r), degenerate=bool(degenerate),
            outlier=bool(not degenerate and abs(r) > residual_limit),
        ))
    return records


# ---------------------------------------------------------------------------
# Solver loop


def run_rk(evaluator: Evaluator, bounds: Bounds, n_init: int,
           feasibility_predicate=None, use_reinterp: bool = True,
           fit_config: FitConfig | None = None,
           infill_config: InfillConfig | None = None, seed: int = 0) -> Trace:
    """Design, fit, infill loop until the evaluation budget runs out.

    The model is fit in unit-cube coordinates, and the infill search
    (including any ``InfillConfig.sampler``) runs in those coordinates.
    ``feasibility_predicate`` is None or a row mask over box coordinates:
    it maps a (k, m) array of points to a length-k boolean array, such as
    ``Problem.feasibility_mask()``.  When given, infill candidates are
    restricted to feasible points and the incumbent for expected
    improvement is the best feasible value observed.  Per-infill EI
    values land in ``trace.annotations["rk_ei"]``.
    """
    if evaluator.budget is None:
        raise ValueError("run_rk needs a budgeted evaluator")
    if n_init < 2:
        raise ValueError("n_init must be >= 2")
    m = bounds.m_dim
    minimize = evaluator.sense == "minimize"
    fit_config = fit_config or FitConfig(seed=seed)
    infill_config = infill_config or InfillConfig(seed=seed)

    design = maximin_lhs(min(n_init, evaluator.budget), m, seed=seed)
    X_unit = []
    y_signed = []
    for u in design.points:
        ev = evaluator.evaluate(bounds.from_unit(u))
        X_unit.append(np.array(u))
        y_signed.append(ev.value if minimize else -ev.value)

    unit_box = Bounds.unit(m)
    unit_mask = None
    if feasibility_predicate is not None:
        unit_mask = lambda U: feasibility_predicate(bounds.from_unit(U))

    ei_log = evaluator.trace.annotations.setdefault("rk_ei", [])
    warm = None
    iteration = 0
    while evaluator.remaining > 0:
        X_arr, y_arr = np.array(X_unit), np.array(y_signed)
        cfg = fit_config if warm is None else replace(
            fit_config, n_starts=2, n_probe=4, max_sweeps=3, warm_start=warm,
            seed=fit_config.seed + iteration)
        model = fit(X_arr, y_arr, cfg)
        warm = np.concatenate([np.log10(model.theta), [np.log10(max(model.lam, 1e-12))]])

        if unit_mask is not None:
            feas_mask = _row_mask(unit_mask, X_arr)
            y_min = float(np.min(y_arr[feas_mask])) if np.any(feas_mask) else float(np.min(y_arr))
        else:
            y_min = float(np.min(y_arr))

        proposal = propose_infill(
            model, y_min, unit_mask, unit_box,
            replace(infill_config, seed=infill_config.seed + iteration), use_reinterp)
        ev = evaluator.evaluate(bounds.from_unit(proposal.x))
        X_unit.append(np.array(proposal.x))
        y_signed.append(ev.value if minimize else -ev.value)
        ei_log.append(proposal.ei)
        iteration += 1
    return evaluator.trace


# ---------------------------------------------------------------------------
# Diagnostics output


def write_diagnostics_csv(ei_values, loo_records, path) -> None:
    """Per-infill EI values and LOO residual records side by side."""
    rows = [["ei", i, float(ei), "", ""] for i, ei in enumerate(ei_values)]
    for rec in loo_records:
        flag = "degenerate" if rec.degenerate else ("outlier" if rec.outlier else "")
        rows.append(["loo", rec.index, rec.standardized_residual, rec.std_error, flag])
    _write_csv(path, ["kind", "index", "value", "std_error", "flag"], rows)
