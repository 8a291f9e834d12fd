"""Black-box objective plumbing shared by every solver.

The objective contract is a callable ``f(tau, seed) -> value`` or
``f(tau, seed) -> (value, aux)`` where ``tau`` is a 1-D float array of
decision variables (toll levels), ``seed`` an integer, and ``aux`` an
optional dict of per-interval simulator outputs such as mean densities
(``"k_bar"``) and flows (``"q_bar"``).  Fixing the seed freezes one
realization of the simulation, so every solver in this package optimizes
a deterministic sample path and two evaluations of the same ``(tau, seed)``
must return identical values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


class SboError(Exception):
    """Base class for errors raised by this package."""


class BudgetExhausted(SboError):
    """Evaluation was requested after the evaluation budget ran out."""


class EvaluationError(SboError):
    """The objective returned a non-finite value or malformed aux data."""


class DimensionMismatch(SboError, ValueError):
    """A vector had the wrong length for the declared problem dimension."""


def as_vector(values, m_dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float array.

    Parameters
    ----------
    values : array_like
        Candidate decision vector.
    m_dim : int, optional
        Required length.  If given, a length mismatch raises.
    """
    tau = np.atleast_1d(np.asarray(values, dtype=float))
    if tau.ndim != 1:
        raise DimensionMismatch(f"decision vector must be 1-D, got shape {tau.shape}")
    if m_dim is not None and tau.size != m_dim:
        raise DimensionMismatch(f"expected dimension {m_dim}, got {tau.size}")
    if not np.all(np.isfinite(tau)):
        raise EvaluationError(f"decision vector has non-finite entries: {tau}")
    return tau


@dataclass(frozen=True)
class Bounds:
    """Box constraints, lower and upper elementwise with lower <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("bounds arrays must be 1-D and the same length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise EvaluationError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def unit(cls, m_dim: int) -> "Bounds":
        return cls(np.zeros(m_dim), np.ones(m_dim))

    @property
    def m_dim(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def clamp(self, tau) -> np.ndarray:
        """Project tau onto the box, NaN rejected."""
        tau = as_vector(tau, self.m_dim)
        return np.clip(tau, self.lower, self.upper)

    def contains(self, tau, tol: float = 0.0) -> bool:
        tau = as_vector(tau, self.m_dim)
        return bool(np.all(tau >= self.lower - tol) and np.all(tau <= self.upper + tol))

    def to_unit(self, tau) -> np.ndarray:
        """Map a point into unit-cube coordinates (degenerate dims go to 0.5)."""
        tau = as_vector(tau, self.m_dim)
        span = self.span
        u = np.full(self.m_dim, 0.5)
        ok = span > 0
        u[ok] = (tau[ok] - self.lower[ok]) / span[ok]
        return u

    def from_unit(self, u) -> np.ndarray:
        """Map unit-cube coordinates into the box; u is a point or a (k, m) stack."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            if u.shape[1] != self.m_dim:
                raise DimensionMismatch(f"expected rows of dimension {self.m_dim}, "
                                        f"got shape {u.shape}")
            if not np.all(np.isfinite(u)):
                raise EvaluationError("unit-cube rows have non-finite entries")
        else:
            u = as_vector(u, self.m_dim)
        return self.lower + u * self.span


def clamp(tau, bounds: Bounds) -> np.ndarray:
    """Elementwise projection of tau onto the box."""
    return bounds.clamp(tau)


@dataclass(frozen=True)
class Evaluation:
    """One objective evaluation: value, the seed used, and its trace index."""

    value: float
    seed: int
    eval_index: int
    aux: dict | None = None


@dataclass(frozen=True)
class TraceRecord:
    tau: np.ndarray
    evaluation: Evaluation


def _better(a: float, b: float, sense: str) -> bool:
    return a < b if sense == "minimize" else a > b


class Trace:
    """Ordered record of evaluations plus the running best value.

    ``best_curve[i]`` is the best value over records 0..i, so it is
    monotone in the optimization sense.  ``annotations`` is a free-form
    dict solvers use for per-iteration diagnostics.
    """

    def __init__(self, sense: str = "minimize"):
        if sense not in ("minimize", "maximize"):
            raise ValueError(f"sense must be 'minimize' or 'maximize', got {sense!r}")
        self.sense = sense
        self.records: list[TraceRecord] = []
        self.best_curve: list[float] = []
        self.annotations: dict = {}
        self._best_index: int | None = None

    def __len__(self) -> int:
        return len(self.records)

    def append(self, tau: np.ndarray, evaluation: Evaluation) -> None:
        self.records.append(TraceRecord(np.array(tau, dtype=float), evaluation))
        v = evaluation.value
        if self._best_index is None or _better(v, self.best_curve[-1], self.sense):
            self._best_index = len(self.records) - 1
            self.best_curve.append(v)
        else:
            self.best_curve.append(self.best_curve[-1])

    def best_so_far(self) -> tuple[np.ndarray, Evaluation]:
        """Earliest record achieving the best value seen so far."""
        if self._best_index is None:
            raise SboError("trace is empty")
        rec = self.records[self._best_index]
        return rec.tau, rec.evaluation

    def best_feasible(self, predicate) -> tuple[np.ndarray, Evaluation] | None:
        """Earliest best record whose tau satisfies predicate, None if no feasible record."""
        best = None
        for rec in self.records:
            if not predicate(rec.tau):
                continue
            if best is None or _better(rec.evaluation.value, best.evaluation.value, self.sense):
                best = rec
        if best is None:
            return None
        return best.tau, best.evaluation


def best_so_far(trace: Trace) -> tuple[np.ndarray, float]:
    """Best (tau, value) in the trace, earliest record on ties."""
    tau, ev = trace.best_so_far()
    return tau, ev.value


class Evaluator:
    """Budgeted, seeded front end to a black-box objective.

    Parameters
    ----------
    objective : callable
        ``f(tau, seed)`` returning a float or ``(float, aux_dict)``.
    budget : int or None
        Maximum number of ``evaluate`` calls.  None means unlimited.
    sense : str
        ``"minimize"`` or ``"maximize"``; drives best-so-far tracking.
    seed : int
        Seed used when ``evaluate`` is not given one.  Keeping it fixed
        makes the whole optimization run on one sample path.
    n_reps : int
        Replications averaged per evaluation (seeds ``seed .. seed+n_reps-1``).
        Each aggregate counts as one evaluation against the budget.
    reentrant : bool
        Declares the objective safe to call concurrently; enables threaded
        ``map_batch``.
    """

    def __init__(self, objective, budget: int | None = None, sense: str = "minimize",
                 seed: int = 0, n_reps: int = 1, reentrant: bool = False):
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        if n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        self.objective = objective
        self.budget = budget
        self.seed = int(seed)
        self.n_reps = int(n_reps)
        self.reentrant = bool(reentrant)
        self.trace = Trace(sense)

    @property
    def sense(self) -> str:
        return self.trace.sense

    @property
    def used(self) -> int:
        return len(self.trace)

    @property
    def remaining(self) -> int | None:
        return None if self.budget is None else self.budget - self.used

    def _call(self, tau: np.ndarray, seed: int) -> tuple[float, dict | None]:
        out = self.objective(tau, seed)
        if isinstance(out, tuple):
            value, aux = out
            if aux is not None and not isinstance(aux, dict):
                raise EvaluationError(f"objective aux must be a dict, got {type(aux)!r}")
        else:
            value, aux = out, None
        value = float(value)
        if not np.isfinite(value):
            raise EvaluationError(f"objective returned non-finite value {value} at tau={tau}")
        return value, aux

    def _aggregate(self, tau: np.ndarray, seed: int) -> tuple[float, dict | None]:
        values = []
        auxes = []
        for r in range(self.n_reps):
            v, aux = self._call(tau, seed + r)
            values.append(v)
            auxes.append(aux)
        if self.n_reps == 1:
            return values[0], auxes[0]
        agg_aux = None
        if all(a is not None for a in auxes):
            keys = set(auxes[0])
            if all(set(a) == keys for a in auxes):
                agg_aux = {k: np.mean([np.asarray(a[k], dtype=float) for a in auxes], axis=0)
                           for k in keys}
        return float(np.mean(values)), agg_aux

    def evaluate(self, tau, seed: int | None = None) -> Evaluation:
        """Evaluate the objective, record it, and return the Evaluation."""
        tau = as_vector(tau)
        if self.remaining is not None and self.remaining <= 0:
            raise BudgetExhausted(f"budget of {self.budget} evaluations exhausted")
        use_seed = self.seed if seed is None else int(seed)
        value, aux = self._aggregate(tau, use_seed)
        ev = Evaluation(value=value, seed=use_seed, eval_index=self.used, aux=aux)
        self.trace.append(tau, ev)
        return ev

    def map_batch(self, taus, seeds=None) -> list[Evaluation]:
        """Evaluate several points with pre-assigned trace order.

        Runs threaded only when the objective is declared re-entrant;
        records always land in the trace in input order.  The whole batch
        must fit in the remaining budget.
        """
        taus = [as_vector(t) for t in taus]
        if seeds is None:
            seeds = [self.seed] * len(taus)
        if len(seeds) != len(taus):
            raise DimensionMismatch("seeds and taus must have matching length")
        if self.remaining is not None and len(taus) > self.remaining:
            raise BudgetExhausted(
                f"batch of {len(taus)} exceeds remaining budget of {self.remaining}")
        if self.reentrant and len(taus) > 1:
            with ThreadPoolExecutor(max_workers=min(8, len(taus))) as pool:
                results = list(pool.map(self._aggregate, taus, seeds))
        else:
            results = [self._aggregate(t, s) for t, s in zip(taus, seeds)]
        out = []
        for tau, s, (value, aux) in zip(taus, seeds, results):
            ev = Evaluation(value=value, seed=int(s), eval_index=self.used, aux=aux)
            self.trace.append(tau, ev)
            out.append(ev)
        return out


def write_trace_csv(trace: Trace, path) -> None:
    """Write eval_index, seed, tau_1..tau_m, value, best_value rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        m = trace.records[0].tau.size if trace.records else 0
        header = ["eval_index", "seed"] + [f"tau_{i + 1}" for i in range(m)]
        header += ["value", "best_value"]
        writer.writerow(header)
        for rec, best in zip(trace.records, trace.best_curve):
            ev = rec.evaluation
            row = [ev.eval_index, ev.seed] + [repr(float(x)) for x in rec.tau]
            row += [repr(float(ev.value)), repr(float(best))]
            writer.writerow(row)
