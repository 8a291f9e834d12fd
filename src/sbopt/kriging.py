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
takes one, and ``run_rk`` reads its evaluator's, and its ``sampler`` too.

This is the only sbopt module that uses scipy (``cdist``, ``pdist``,
LAPACK ``dpotrf``/``dpotrs``/``dtrtrs`` and ``ndtr``), and it does not
import scipy at import time: every call goes through one cached loader,
``_scipy()``, which imports the callables on the first kriging call of a
process.  Importing sbopt, building problems and running PI, DIRECT or
SPSA load numpy only.

Three pieces of work go through one routine, ``_split``, which sends the
later half to the pair helper process (``sbopt._pair``) while the caller
runs the first half: a fit's likelihood starts (``_refine``), the infill
probe's rows (EI and the row mask, ``_probe``) and the infill
pattern-search starts (``_pattern_search``).  The halves are joined in
start and row order before any choice is made among them.  A start's path
reads only its own point and rows, and each EI and mask row depends only
on its own query row, so the joined halves are bit for bit the whole and
every output is the same with the helper or without it.  The helper takes
the halves only on two CPUs and with BLAS held to one thread; otherwise,
or while it boots, owes a reply, is gone or is held by another thread,
the caller runs the whole batch in one call.  ``run_rk`` has the helper
load scipy as it starts (``sbopt._pair.prepare``), so the helper's import
overlaps the design and is off the caller's critical path.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from numbers import Integral
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
# the variables BLAS libraries read for their thread count
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


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


# ---------------------------------------------------------------------------
# Latin hypercube sampling


def random_lhs(n: int, m_dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Latin hypercube draw: each column permutes the stratum midpoints."""
    if not (isinstance(n, Integral) and isinstance(m_dim, Integral)):
        raise ValueError(f"n and m_dim must be integers, got {n!r} and {m_dim!r}")
    if n < 1 or m_dim < 1:
        raise ValueError("n and m_dim must be >= 1")
    mids = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    return np.column_stack([rng.permutation(mids) for _ in range(m_dim)])


def maximin_lhs(n: int, m_dim: int, seed: int = 0) -> np.ndarray:
    """Best of 50 LHS draws by minimum pairwise distance, (n, m_dim).

    The candidate stream starts at the plain single draw for the same
    seed, so the result is never worse space-filling than that draw.
    Raises ValueError unless n and m_dim are integers >= 1.
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
    """Hyperparameter search settings; fixed theta or lam bypass the search.

    ``n_starts`` and ``max_sweeps`` must be integers >= 1 and ``n_probe`` an
    integer >= 0, or ValueError names the field.
    """

    n_starts: int = 20
    n_probe: int = 60
    max_sweeps: int = 10
    theta: np.ndarray | None = None
    lam: float | None = None
    warm_start: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_starts", 1), ("n_probe", 0), ("max_sweeps", 1)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
    warm = None if config.warm_start is None else np.asarray(config.warm_start, dtype=float)
    if warm is not None and (warm.shape != (m + 1,) or not np.all(np.isfinite(warm))):
        raise FitError(f"warm_start needs m + 1 = {m + 1} finite entries "
                       f"(log10 theta per dimension, then log10 lambda), got {warm}")

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
    search = _Search(X, _ones_y(y), theta_fixed, lam_fixed, lo, hi,
                     np.array(free, dtype=int), config.max_sweeps)

    rng = np.random.default_rng(config.seed)
    center = (lo + hi) / 2.0
    starts = [center]
    if warm is not None:
        starts.append(np.clip(warm, lo, hi))
    for _ in range(max(0, config.n_probe - len(starts))):
        starts.append(lo + rng.random(m + 1) * (hi - lo))
    scored = sorted(((search.nll(p), i) for i, p in enumerate(starts)), key=lambda t: t[0])
    chosen = [(starts[i], f0) for f0, i in scored[: config.n_starts]]
    best_p, best_f = None, np.inf
    for p, fval in _split(_refine, (search,), chosen):
        if fval < best_f:
            best_p, best_f = p, fval
    if best_p is None or not np.isfinite(best_f):
        raise FitError("no factorizable hyperparameters found; check for duplicate rows")
    theta, lam = search.unpack(best_p)
    return _build_model(X, y, theta, lam)


@dataclass(frozen=True)
class _Search:
    """One fit's likelihood search: its samples, pinned entries, box and sweeps.

    A point ``p`` is ``log10 theta`` per dimension then ``log10 lambda``;
    the ``free`` entries are searched and a fixed theta or lambda pins the
    others.  A module-level class, so the pair helper can run ``_refine``.
    """

    X: np.ndarray
    ones_y: np.ndarray
    theta_fixed: np.ndarray | None
    lam_fixed: float | None
    lo: np.ndarray
    hi: np.ndarray
    free: np.ndarray
    max_sweeps: int

    def unpack(self, p):
        m = self.X.shape[1]
        theta = self.theta_fixed if self.theta_fixed is not None else 10.0 ** p[:m]
        lam = float(self.lam_fixed) if self.lam_fixed is not None else float(10.0 ** p[m])
        return theta, lam

    def nll(self, p):
        """Twice the negative concentrated log-likelihood, up to a constant; inf if singular."""
        parts = _solve_parts(self.X, self.ones_y, *self.unpack(p))
        if parts is None:
            return np.inf
        _, _, _, sigma2, logdet = parts
        return self.X.shape[0] * np.log(max(sigma2, _SIGMA2_FLOOR)) + logdet


def _refine(search: _Search, starts) -> list:
    """Coordinate search from each ``(p, nll(p))`` start; each one's end ``(p, nll)``, in order.

    A start's path reads only its own point, so a split of the starts
    gives the same ends.
    """
    ends = []
    for p, fval in starts:
        step = 0.5
        for _ in range(search.max_sweeps):
            improved = False
            for j in search.free:
                for s in (step, -step):
                    cand = p.copy()
                    cand[j] = np.clip(p[j] + s, search.lo[j], search.hi[j])
                    if cand[j] == p[j]:
                        continue
                    fc = search.nll(cand)
                    if fc < fval - 1e-12:
                        p, fval = cand, fc
                        improved = True
                        break
            if not improved:
                step *= 0.5
                if step < 0.02:
                    break
        ends.append((p, fval))
    return ends


def _one_blas_thread() -> bool:
    """True when the environment holds BLAS to one thread: at least one of the
    BLAS thread variables is set, and each one set reads 1."""
    values = [os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARS]
    values = [v for v in values if v]
    return bool(values) and all(v == "1" for v in values)


def _split(fn, fixed: tuple, *items):
    """``fn(*fixed, *items)``, on the first half of each item here and on the later
    half in the pair helper meanwhile; ``fn``'s result for an entry must read only
    that entry.  The results are joined in order: lists and arrays end to end,
    tuples entry by entry, None stays None.

    The helper takes halves only with one BLAS thread (``_one_blas_thread``):
    with a BLAS thread per core in each process the two contend for the cores,
    and rk on ``complex`` ran 2.6 times slower split than whole on two CPUs.
    Without the helper ``fn`` runs once on the whole batch, since an infill
    sweep costs mostly per batch.
    """
    h = (len(items[0]) + 1) // 2
    if h < len(items[0]) and _one_blas_thread():
        from ._pair import run_call  # the process machinery loads on the first split

        halves = run_call(fn, (*fixed, *(item[h:] for item in items)),
                          lambda: fn(*fixed, *(item[:h] for item in items)))
        if halves is not None:
            return _join(*halves)
    return fn(*fixed, *items)


def _join(first, later):
    """``_split``'s two results as one, in order."""
    if first is None:
        return None
    if isinstance(first, tuple):
        return tuple(map(_join, first, later))
    if isinstance(first, list):
        return first + later
    return np.concatenate([first, later])


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
    feasible improving direction, halving stalled step sizes
    (``_pattern_search``).  ``seed`` drives the probe draws.  The pair
    helper may take the later half of the probe rows and of the starts;
    the result is the same bits.

    ``feasibility_predicate`` is None or a row mask: it maps a (k, m)
    array of candidates to a length-k boolean array.  It runs once per
    probe and once per sweep: in a sweep, on every candidate that moved
    off its start, before EI, so EI is computed for feasible moves only.
    The helper takes its halves only when the mask pickles.
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
        ei_cand, feasible = _split(_probe, (model, y_min, use_reinterp, predicate), cand)
        # the feasible probes in decreasing EI order become the starts
        order = np.argsort(ei_cand)[::-1]
        if feasible is not None:
            order = order[feasible[order]]
        for i in order[: _INFILL_STARTS - len(starts)]:
            starts.append(cand[i])
            start_ei.append(ei_cand[i])
        if len(starts) >= _INFILL_STARTS:
            break
    if not starts:
        raise InfillSearchError(
            f"no feasible candidate in {_INFILL_RESTARTS} probes "
            f"of {_INFILL_PROBE} points")

    pts, vals = _split(_pattern_search, (model, y_min, use_reinterp, predicate, bounds),
                       np.array(starts), np.array(start_ei, dtype=float))
    best = int(np.argmax(vals))
    return EIProposal(x=pts[best].copy(), ei=float(vals[best]))


def _probe(model: KrigingModel, y_min: float, use_reinterp: bool, predicate, cand):
    """EI at the probe rows ``cand`` and their row mask, None without a predicate.

    Both are row-wise, so a split of the rows gives the same bits.
    """
    ei = expected_improvement(model, cand, y_min, use_reinterp)
    return ei, None if predicate is None else _row_mask(predicate, cand)


def _pattern_search(model: KrigingModel, y_min: float, use_reinterp: bool, predicate,
                    bounds: Bounds, pts: np.ndarray, vals: np.ndarray):
    """Sweep from the (k, m) starts ``pts`` whose EI is ``vals``; returns the end
    points and their EI, in start order.

    Each sweep polls every coordinate step of every live start in one EI
    batch and moves each start along its best feasible improving direction,
    halving stalled step sizes.  A start's path reads only its own rows of
    each batch (EI and the row mask are row-wise), so a split of the starts
    gives the same ends.
    """
    pts, vals = np.array(pts, dtype=float), np.array(vals, dtype=float)
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
    return pts, vals


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


def _unit_mask(feasible, bounds: Bounds, U):
    """The row mask ``feasible`` at the box points of unit-cube rows ``U``."""
    return feasible(bounds.from_unit(U))


def run_rk(evaluator: Evaluator, bounds: Bounds, n_init: int,
           use_reinterp: bool = True, seed: int = 0) -> Trace:
    """Design, fit, infill loop until the evaluation budget runs out.

    ``seed`` drives the maximin design and, offset by the iteration
    number, every hyperparameter search and infill probe.  The first fit
    is a cold ``FitConfig(seed=seed)`` search; every later one is a short
    search warm-started from the previous model's hyperparameters.
    The model is fit in unit-cube coordinates to raw values, negated when
    the problem maximizes: rk ignores the evaluator's ``penalty``.  The
    infill search (with the evaluator's ``sampler``) runs in those coordinates.
    When the evaluator has a feasibility mask (``Evaluator(feasible=...)``),
    infill candidates are restricted to feasible points and the incumbent for
    expected improvement is the trace's best feasible value
    (``Trace.best_feasible``), or its best value when none is feasible.  Each infill appends
    one record to ``trace.iterations`` with fields ``ei`` (of the proposal),
    ``theta`` (unit-cube lengthscales), ``lam`` and ``log_likelihood`` of the
    model it was proposed from; the design points get no record.
    Arguments are checked before the first evaluation; with no budget left
    on the evaluator, the trace comes back unchanged, as in every solver.
    Each iteration's fit and infill search may send half of their work to
    the pair helper (see the module docstring); the trace is the same.
    """
    if evaluator.budget is None:
        raise ValueError("run_rk needs a budgeted evaluator")
    if not isinstance(n_init, Integral):
        raise ValueError(f"n_init must be an integer, got {n_init!r}")
    if n_init < 2:
        raise ValueError("n_init must be >= 2")
    if not evaluator.can_evaluate():
        return evaluator.trace
    if _one_blas_thread():
        from ._pair import prepare

        prepare(_scipy)  # the helper boots and loads scipy while the design is evaluated
    m = bounds.m_dim
    trace, sign = evaluator.trace, (1.0 if evaluator.sense == "minimize" else -1.0)

    def f(u) -> float:
        return sign * evaluator.evaluate(bounds.from_unit(u)).value

    design = maximin_lhs(min(n_init, evaluator.budget), m, seed=seed)
    X_unit = [np.array(u) for u in design]
    y_signed = [f(u) for u in design]

    unit_box = Bounds.unit(m)
    feasible = trace.feasible
    unit_mask = None if feasible is None else functools.partial(_unit_mask, feasible, bounds)

    warm = None
    iteration = 0
    while evaluator.can_evaluate():
        X_arr, y_arr = np.array(X_unit), np.array(y_signed)
        cfg = FitConfig(seed=seed) if warm is None else FitConfig(
            n_starts=2, n_probe=4, max_sweeps=3, warm_start=warm, seed=seed + iteration)
        model = fit(X_arr, y_arr, cfg)
        warm = np.concatenate([np.log10(model.theta), [np.log10(max(model.lam, 1e-12))]])

        y_min = sign * (trace.best_feasible() or trace.best_so_far())[1].value
        proposal = propose_infill(model, y_min, unit_mask, unit_box, use_reinterp,
                                  seed=seed + iteration, sampler=evaluator.sampler)
        X_unit.append(np.array(proposal.x))
        y_signed.append(f(proposal.x))
        iteration += 1
        trace.iterations.append({
            "iteration": iteration, "evals": evaluator.used, "ei": proposal.ei,
            "theta": model.theta, "lam": model.lam,
            "log_likelihood": model.log_likelihood})
    return trace
