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
from one two-column triangular solve.  The search box, the size of the
maximin design candidate pool, the infill search's probe, starts, restarts
and sweeps, the LOO outlier limit and the moments' block size are module
constants: the method uses one value of each.

One correlation kernel, ``_psi``, serves the correlation matrix R, the
predictions, the error variances and EI: a squared Euclidean distance on
``sqrt(theta)``-scaled inputs, so it allocates only its (k, n) result.
Predictions, error variances and EI share one moments routine,
``_moments``, and a row's result does not depend on the other rows of
its batch: a point gets the same bits alone or in any stack.  The infill
search relies on that to leave infeasible candidates out of its batches,
and ``_moments`` relies on it to walk a stack in blocks of
``_MOMENT_BLOCK`` rows, so a call holds only one (block, n) psi and its
solve however many rows it is given.
Feasibility is a row mask mapping a (k, m) array of points to a length-k
boolean array, e.g. ``constraints.feasible_mask``: ``propose_infill``
takes one, and ``run_rk`` reads its evaluator's.

This is the only sbopt module that uses scipy (``cdist``, ``pdist``,
LAPACK ``dpotrf``/``dpotrs``/``dtrtrs`` and ``ndtr``), and it does not
import scipy at import time: every call goes through one cached loader,
``_scipy()``, which imports the callables on the first kriging call of a
process.  Importing sbopt, building problems and running PI, DIRECT or
SPSA load numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .core import Bounds, EvaluationError, Evaluator, SboError, Trace, _row_mask, as_vector

_SIGMA2_FLOOR = 1e-300
_LOG10_THETA_BOUNDS = (-3.0, 2.0)
_LOG10_LAMBDA_BOUNDS = (-12.0, 0.0)
_LHS_CANDIDATES = 50
# infill search: random probe size, pattern-search starts, probe rounds
# before giving up, sweeps, and the step size below which a start stops
_INFILL_PROBE = 4096
_INFILL_STARTS = 12
_INFILL_RESTARTS = 5
_INFILL_SWEEPS = 40
_INFILL_MIN_STEP = 1e-4
_LOO_RESIDUAL_LIMIT = 3.0
# query rows per block of the moments routine
_MOMENT_BLOCK = 512


@functools.cache
def _scipy() -> SimpleNamespace:
    """The scipy callables the surrogate uses, imported on the first call.

    scipy is the surrogate's alone, and importing it costs a process more
    than everything else sbopt loads, so the package and the other solvers
    run on numpy only.  The first kriging call pays the import once; every
    later one is a cache hit, far cheaper than a function-local import.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
    from scipy.spatial.distance import cdist, pdist
    from scipy.special import ndtr

    return SimpleNamespace(cdist=cdist, pdist=pdist, dpotrf=dpotrf,
                           dpotrs=dpotrs, dtrtrs=dtrtrs, ndtr=ndtr)


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


def random_lhs(n: int, m_dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Latin hypercube draw: each column permutes the stratum midpoints."""
    if n < 1 or m_dim < 1:
        raise ValueError("n and m_dim must be >= 1")
    mids = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    return np.column_stack([rng.permutation(mids) for _ in range(m_dim)])


def maximin_lhs(n: int, m_dim: int, seed: int = 0) -> np.ndarray:
    """Best of 50 LHS draws by minimum pairwise distance, (n, m_dim).

    The candidate stream starts at the plain single draw for the same
    seed, so the result is never worse space-filling than that draw.
    """
    rng = np.random.default_rng(seed)
    best, best_d = None, -np.inf
    for _ in range(_LHS_CANDIDATES):
        pts = random_lhs(n, m_dim, rng)
        d = float(np.min(_scipy().pdist(pts))) if n > 1 else np.inf
        if d > best_d:
            best, best_d = pts, d
    return best


# ---------------------------------------------------------------------------
# Model fitting


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameter search settings; fixed theta or lam bypass the search."""

    n_starts: int = 20
    n_probe: int = 60
    max_sweeps: int = 10
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
    psi = _scipy().cdist(Xq * w, X * w, "sqeuclidean")
    np.negative(psi, out=psi)
    return np.exp(psi, out=psi)


def _lower_solve(L, B, trans=0):
    """Solve L X = B (``trans=1``: L^T X = B) with the lower Cholesky factor L."""
    x, info = _scipy().dtrtrs(L, B, lower=1, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
    return x


def _ones_y(y: np.ndarray) -> np.ndarray:
    """The (n, 2) right-hand side [1, y] of the likelihood's triangular solve."""
    return np.column_stack([np.ones(y.size), y])


def _solve_parts(X, ones_y, theta, lam):
    """Cholesky of R = Psi + lam*I plus the MLE pieces, None if singular.

    One triangular solve of L Z = [1, y] gives the generalized-least-squares
    mean, sigma^2 and the whitened residual L^-1 (y - mu); ``ones_y`` is
    that right-hand side from ``_ones_y``, which the solve leaves intact, so
    a likelihood search builds it once.  R is exactly
    symmetric, so ``R.T`` is R in Fortran order and LAPACK factors it in
    place; the wrappers in ``scipy.linalg`` would copy it and give the same
    bits.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise FitError(f"lambda must be finite and non-negative, got {lam!r}")
    n = ones_y.shape[0]
    R = _psi(X, X, theta)
    R.flat[::n + 1] += lam
    L, info = _scipy().dpotrf(R.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    cho = (L, True)
    Z = _lower_solve(L, ones_y)
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
    parts = _solve_parts(X, _ones_y(y), theta, float(lam))
    if parts is None:
        return -np.inf
    _, _, _, sigma2, logdet = parts
    return _log_likelihood(y.size, sigma2, logdet)


def _build_model(X, y, theta, lam) -> KrigingModel:
    parts = _solve_parts(X, _ones_y(y), theta, lam)
    if parts is None:
        raise FitError(
            "correlation matrix is singular; duplicated samples need lambda > 0")
    cho, mu, resid, sigma2, logdet = parts
    n = y.size
    alpha = _lower_solve(cho[0], resid, trans=1)
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
    t_lo, t_hi = _LOG10_THETA_BOUNDS
    l_lo, l_hi = _LOG10_LAMBDA_BOUNDS
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

    ones_y = _ones_y(y)

    def nll(p):
        theta, lam = unpack(p)
        parts = _solve_parts(X, ones_y, theta, lam)
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
    plain regressing variance.  Each output row depends only on its own
    query row, so the rows go through in blocks of ``_MOMENT_BLOCK``: a
    call holds one block's (block, n) psi and its solve rather than (k, n)
    arrays, and gives the bits the whole stack at once would give.
    """
    k = xq.shape[0]
    y_hat, s2 = np.empty(k), np.empty(k)
    for start in range(0, k, _MOMENT_BLOCK):
        rows = slice(start, start + _MOMENT_BLOCK)
        y_hat[rows], s2[rows] = _block_moments(model, xq[rows], reinterp)
    return y_hat, s2


def _block_moments(model: KrigingModel, xq: np.ndarray, reinterp: bool):
    """``_moments`` on one block of rows; its arrays go when it returns.

    ``psi @ alpha`` would go to BLAS ``dgemv``, whose rounding of a row
    depends on where it sits in the batch, so the predictor is a per-row
    ``einsum``.  LAPACK ``dpotrs`` (the solve ``cho_solve`` wraps) and the
    quadratic form are row-independent as they stand.
    """
    psi = _psi(model.X, xq, model.theta)
    y_hat = model.mu_hat + np.einsum("ij,j->i", psi, model.alpha)
    if reinterp and model.lam > 0:
        # an exact sample match gives psi == 1.0, so only those rows are compared
        rows = np.flatnonzero(np.any(psi == 1.0, axis=1))
        if rows.size:
            hits = np.all(xq[rows, None, :] == model.X[None, :, :], axis=2)
            psi[rows] = psi[rows] + model.lam * hits
    # psi.T is Fortran-ordered; dpotrs solves a copy of it
    rinv_psi, info = _scipy().dpotrs(model.cho[0], psi.T, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
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
        ei[ok] = (y_min - y_hat[ok]) * _scipy().ndtr(z) + s[ok] * pdf
    ei = np.maximum(ei, 0.0)
    if scalar:
        return float(ei[0])
    return ei


# ---------------------------------------------------------------------------
# Infill search


@dataclass(frozen=True)
class EIProposal:
    x: np.ndarray
    ei: float


def propose_infill(model: KrigingModel, y_min: float, feasibility_predicate,
                   bounds: Bounds, use_reinterp: bool = True, seed: int = 0,
                   sampler=None) -> EIProposal:
    """Feasible point maximizing expected improvement.

    Multi-start pattern search: a random probe of 4096 points seeds the
    12 best feasible points, then each sweep polls every coordinate step
    of every start in one EI batch and moves each point along its best
    feasible improving direction, halving stalled step sizes.  ``seed``
    drives the probe draws.

    ``feasibility_predicate`` is None or a row mask: it maps a (k, m)
    array of candidates to a length-k boolean array.  It runs once per
    probe and once per sweep: in a sweep, on every candidate that moved
    off its start, before EI, so EI is computed for feasible moves only.
    ``sampler`` is None or a candidate generator ``(rng, n, bounds) ->
    (n, m) array``; it lets a problem with a tiny feasible fraction
    propose mostly-feasible probe points instead of rejection-sampling
    the whole box, and its candidates still pass through the predicate.
    Raises InfillSearchError when five probes find no feasible candidate
    at all.
    """
    rng = np.random.default_rng(seed)
    predicate = feasibility_predicate
    m = bounds.m_dim

    starts: list = []
    start_ei: list = []
    for _ in range(_INFILL_RESTARTS):
        if sampler is not None:
            cand = np.asarray(sampler(rng, _INFILL_PROBE, bounds), dtype=float)
        else:
            cand = bounds.lower + rng.random((_INFILL_PROBE, m)) * bounds.span
        ei_cand = expected_improvement(model, cand, y_min, use_reinterp)
        # the feasible probes in decreasing EI order become the starts
        order = np.argsort(ei_cand)[::-1]
        if predicate is not None:
            order = order[_row_mask(predicate, cand)[order]]
        for i in order[: _INFILL_STARTS - len(starts)]:
            starts.append(cand[i])
            start_ei.append(ei_cand[i])
        if len(starts) >= _INFILL_STARTS:
            break
    if not starts:
        raise InfillSearchError(
            f"no feasible candidate in {_INFILL_RESTARTS} probes "
            f"of {_INFILL_PROBE} points")

    pts = np.array(starts)
    vals = np.array(start_ei, dtype=float)
    k = pts.shape[0]
    steps = np.full(k, 0.25)
    # direction d moves coordinate dim[d] by sgn[d] steps
    dim = np.repeat(np.flatnonzero(bounds.span > 0), 2)
    sgn = np.tile([1.0, -1.0], dim.size // 2)
    n_dir = dim.size
    for _ in range(_INFILL_SWEEPS):
        live = np.where(steps >= _INFILL_MIN_STEP)[0]
        if live.size == 0 or n_dir == 0:
            break
        base = pts[live]
        cols = np.clip(base[:, dim] + sgn * steps[live, None] * bounds.span[dim],
                       bounds.lower[dim], bounds.upper[dim])
        cand = np.repeat(base[:, None, :], n_dir, axis=1)
        cand[:, np.arange(n_dir), dim] = cols
        # EI rows do not depend on their batch, so only the changed
        # feasible candidates need it; the rest stay at -inf
        mask = cols != base[:, dim]
        if predicate is not None and np.any(mask):
            mask[mask] = _row_mask(predicate, cand[mask])
        ei_mat = np.full((live.size, n_dir), -np.inf)
        if np.any(mask):
            ei_mat[mask] = expected_improvement(model, cand[mask], y_min, use_reinterp)
        # a direction qualifies when its EI is not at or below the point's
        # own; each row moves along its best one, ties to the lowest index
        ok = ~(ei_mat <= vals[live, None] + 1e-15)
        rows = np.flatnonzero(np.any(ok, axis=1))
        d = np.argmax(np.where(ok[rows], ei_mat[rows], -np.inf), axis=1)
        i = live[rows]
        pts[i] = cand[rows, d]
        vals[i] = ei_mat[rows, d]
        moved = np.zeros(k, dtype=bool)
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


def loo_cv(model: KrigingModel) -> list[LooRecord]:
    """Leave-one-out refits with the fitted hyperparameters frozen.

    Standardized residuals outside [-3, 3] are flagged as
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
            outlier=bool(not degenerate and abs(r) > _LOO_RESIDUAL_LIMIT),
        ))
    return records


# ---------------------------------------------------------------------------
# Solver loop


def run_rk(evaluator: Evaluator, bounds: Bounds, n_init: int,
           use_reinterp: bool = True, seed: int = 0, sampler=None) -> Trace:
    """Design, fit, infill loop until the evaluation budget runs out.

    ``seed`` drives the maximin design and, offset by the iteration
    number, every hyperparameter search and infill probe.  The first fit
    is a cold ``FitConfig(seed=seed)`` search; every later one is a short
    search warm-started from the previous model's hyperparameters.
    The model is fit to ``evaluator.on_unit_cube(bounds)`` values: unit-cube
    coordinates, and values negated when the problem maximizes, without a
    penalty.  The infill search (including any ``sampler``, see
    ``propose_infill``) runs in those coordinates.
    When the evaluator has a feasibility mask (``Evaluator(feasible=...)``),
    infill candidates are restricted to feasible points and the incumbent for
    expected improvement is the best feasible value observed.  Each infill appends
    one record to ``trace.iterations`` with fields ``ei`` (of the proposal),
    ``theta`` (unit-cube lengthscales), ``lam`` and ``log_likelihood`` of the
    model it was proposed from; the design points get no record.
    Arguments are checked before the first evaluation; with no budget left
    on the evaluator, the trace comes back unchanged, as in every solver.
    """
    if evaluator.budget is None:
        raise ValueError("run_rk needs a budgeted evaluator")
    if n_init < 2:
        raise ValueError("n_init must be >= 2")
    if not evaluator.can_evaluate():
        return evaluator.trace
    m = bounds.m_dim
    f = evaluator.on_unit_cube(bounds)

    design = maximin_lhs(min(n_init, evaluator.budget), m, seed=seed)
    X_unit = [np.array(u) for u in design]
    y_signed = [f(u) for u in design]

    unit_box = Bounds.unit(m)
    feasible = evaluator.trace.feasible
    unit_mask = None if feasible is None else (lambda U: feasible(bounds.from_unit(U)))

    warm = None
    iteration = 0
    while evaluator.can_evaluate():
        X_arr, y_arr = np.array(X_unit), np.array(y_signed)
        cfg = FitConfig(seed=seed) if warm is None else FitConfig(
            n_starts=2, n_probe=4, max_sweeps=3, warm_start=warm, seed=seed + iteration)
        model = fit(X_arr, y_arr, cfg)
        warm = np.concatenate([np.log10(model.theta), [np.log10(max(model.lam, 1e-12))]])

        if unit_mask is not None:
            feas_mask = _row_mask(unit_mask, X_arr)
            y_min = float(np.min(y_arr[feas_mask])) if np.any(feas_mask) else float(np.min(y_arr))
        else:
            y_min = float(np.min(y_arr))

        proposal = propose_infill(model, y_min, unit_mask, unit_box, use_reinterp,
                                  seed=seed + iteration, sampler=sampler)
        X_unit.append(np.array(proposal.x))
        y_signed.append(f(proposal.x))
        iteration += 1
        evaluator.trace.iterations.append({
            "iteration": iteration, "evals": evaluator.used, "ei": proposal.ei,
            "theta": model.theta, "lam": model.lam,
            "log_likelihood": model.log_likelihood})
    return evaluator.trace
