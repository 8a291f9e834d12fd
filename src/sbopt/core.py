"""Black-box objective plumbing shared by every solver.

The objective contract is a callable ``f(tau, seed) -> value`` or
``f(tau, seed) -> (value, aux)`` where ``tau`` is a 1-D float array of
decision variables (toll levels), ``seed`` an integer, and ``aux`` an
optional dict of per-interval simulator outputs such as mean densities
(``"k_bar"``) and flows (``"q_bar"``).  Fixing the seed freezes one
realization of the simulation, so every solver in this package optimizes
a deterministic sample path and two evaluations of the same ``(tau, seed)``
must return identical values.

That purity rule is what lets ``Evaluator.evaluate_pair`` (SPSA's two
perturbed points, DIRECT's two points along a side) run its second point
concurrently in one helper process and still record exactly what two
``evaluate`` calls would.  It makes one
call, ``sbopt._pair.run_call``, which owns the helper and decides where
the point runs: in the helper only on POSIX, when the objective pickles,
the process may run on at least two CPUs and the objective costs more
here than a round trip through the helper; otherwise, and for closures,
both points run here in turn.  The same helper takes half of
the kriging surrogate's fit and infill work (see ``sbopt.kriging``); one
job at a time, so a pair may find it busy and run here.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np


class SboError(Exception):
    """Base class for errors raised by this package."""


class BudgetExhausted(SboError):
    """Evaluation was requested after the evaluation budget ran out."""


class EvaluationError(SboError):
    """The objective returned a non-finite value or malformed aux data."""


class DimensionMismatch(SboError, ValueError):
    """A vector had the wrong length for the declared problem dimension."""


def _is_int(value) -> bool:
    """The one count check: an integer, but not a ``bool``, which is an
    ``Integral`` too (``budget=True`` is a mistake, not one evaluation)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


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


def _row_mask(predicate, rows: np.ndarray) -> np.ndarray:
    """Apply a row-mask feasibility predicate to a (k, m) array, checking its shape."""
    mask = np.asarray(predicate(rows), dtype=bool)
    if mask.shape != (rows.shape[0],):
        raise ValueError(
            f"feasibility predicate must map a ({rows.shape[0]}, {rows.shape[1]}) "
            f"array to {rows.shape[0]} booleans, got shape {mask.shape}")
    return mask


class Trace:
    """Ordered record of evaluations plus the running best value.

    ``best_curve[i]`` is the best value over records 0..i, so it is
    monotone in the optimization sense.  ``iterations`` is the solver's
    per-iteration log: one dict per iteration whose first keys are
    ``iteration`` and ``evals`` (evaluations used after that iteration) and
    whose other fields are scalars or 1-D arrays, so ``write_records_csv``
    can write it.  The incumbent after an iteration is
    ``best_curve[evals - 1]``.  ``annotations`` holds end-of-run entries
    that are not per-iteration, such as DIRECT's final tiling.
    ``feasible`` is the problem's row mask (see ``Evaluator``) or None.
    """

    def __init__(self, sense: str = "minimize", feasible=None):
        if sense not in ("minimize", "maximize"):
            raise ValueError(f"sense must be 'minimize' or 'maximize', got {sense!r}")
        self.sense = sense
        self.feasible = feasible
        self.records: list[TraceRecord] = []
        self.best_curve: list[float] = []
        self.iterations: list[dict] = []
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

    def best_feasible(self) -> tuple[np.ndarray, Evaluation] | None:
        """Earliest best record the ``feasible`` mask accepts, from one mask call
        over all records; None if it accepts none, ``best_so_far()`` without a mask."""
        if self.feasible is None:
            return self.best_so_far()
        if not self.records:
            return None
        mask = _row_mask(self.feasible, np.stack([rec.tau for rec in self.records]))
        best = None
        for rec, ok in zip(self.records, mask):
            if ok and (best is None
                       or _better(rec.evaluation.value, best.evaluation.value, self.sense)):
                best = rec
        return None if best is None else (best.tau, best.evaluation)


class Evaluator:
    """Budgeted, seeded front end to a black-box objective.

    It is the one boundary between a solver and the problem, constraint
    included: ``evaluate`` and ``evaluate_pair`` record raw values,
    ``can_evaluate`` answers the budget question, and ``on_unit_cube``
    gives DIRECT and SPSA the minimized, penalized objective.

    Parameters
    ----------
    objective : callable
        ``f(tau, seed)`` returning a float or ``(float, aux_dict)``.
    budget : int or None
        Maximum number of ``evaluate`` calls.  None means unlimited.
    sense : str
        ``"minimize"`` or ``"maximize"``; drives best-so-far tracking.
    seed : int
        Seed passed to the objective on every ``evaluate`` call, so the
        whole optimization runs on one sample path.
    feasible : callable or None
        The problem's one feasibility test, a row mask over box points
        (``(k, m) array -> k booleans``), kept as ``trace.feasible``.
    penalty, sampler : optional
        The ``PenaltyTransform`` ``on_unit_cube`` adds, and rk's infill generator.
    """

    def __init__(self, objective, budget: int | None = None, sense: str = "minimize",
                 seed: int = 0, feasible=None, penalty=None, sampler=None):
        if budget is not None and not (_is_int(budget) and budget >= 0):
            raise ValueError(f"budget must be a non-negative integer or None, got {budget!r}")
        self.objective = objective
        self.budget = budget
        self.seed = int(seed)
        self.penalty = penalty
        self.sampler = sampler
        self.trace = Trace(sense, feasible)

    @property
    def sense(self) -> str:
        return self.trace.sense

    @property
    def used(self) -> int:
        return len(self.trace)

    @property
    def remaining(self) -> int | None:
        return None if self.budget is None else self.budget - self.used

    def can_evaluate(self, k: int = 1) -> bool:
        """True when the budget leaves room for k more evaluations."""
        return self.budget is None or self.remaining >= k

    def on_unit_cube(self, bounds: Bounds):
        """The objective as DIRECT and SPSA minimize it: ``f(u)`` over the unit cube.

        ``f`` maps ``u`` into ``bounds``, evaluates it through ``evaluate``
        (so the trace keeps the raw value at the box point), negates the
        value when the problem maximizes, and then adds ``self.penalty``
        at the box point.  ``f.pair(u_a, u_b)`` returns ``(f(u_a), f(u_b))``
        through ``evaluate_pair``, and ``f.can_evaluate`` is ``can_evaluate``.
        """
        sign = 1.0 if self.sense == "minimize" else -1.0

        def scaled(tau, ev: Evaluation) -> float:
            v = sign * ev.value
            return v if self.penalty is None else self.penalty.apply(v, tau)

        def f(u) -> float:
            tau = bounds.from_unit(u)
            return scaled(tau, self.evaluate(tau))

        def pair(u_a, u_b) -> tuple[float, float]:
            tau_a, tau_b = bounds.from_unit(u_a), bounds.from_unit(u_b)
            ev_a, ev_b = self.evaluate_pair(tau_a, tau_b)
            return scaled(tau_a, ev_a), scaled(tau_b, ev_b)

        f.pair, f.can_evaluate = pair, self.can_evaluate
        return f

    @staticmethod
    def _checked(out, tau: np.ndarray) -> tuple[float, dict | None]:
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

    def evaluate(self, tau) -> Evaluation:
        """Evaluate the objective on the evaluator's seed, record it, and return it."""
        tau = as_vector(tau)
        if not self.can_evaluate():
            raise BudgetExhausted(f"budget of {self.budget} evaluations exhausted")
        value, aux = self._checked(self.objective(tau, self.seed), tau)
        return self._record(tau, value, aux)

    def _record(self, tau: np.ndarray, value: float, aux: dict | None) -> Evaluation:
        ev = Evaluation(value=value, seed=self.seed, eval_index=self.used, aux=aux)
        self.trace.append(tau, ev)
        return ev

    def evaluate_pair(self, tau_a, tau_b) -> tuple[Evaluation, Evaluation]:
        """Evaluate two independent points and record them in this order.

        The result, the trace and any error are those of ``evaluate(tau_a)``
        followed by ``evaluate(tau_b)``.  When the budget holds both and
        ``tau_b`` is a finite 1-D vector, the pair goes to
        ``sbopt._pair.run_call``, which may send the objective at ``tau_b``
        to the pair helper process while ``tau_a`` runs here; by the purity
        rule of the objective contract the helper's value is the one a
        local call would give.  When the helper does not answer, the
        objective costs less than a round trip through it, or the pair
        must run in turn, the work stays in this process.
        """
        tau_b = np.asarray(tau_b, dtype=float)
        if self.can_evaluate(2) and tau_b.ndim == 1 and np.all(np.isfinite(tau_b)):
            from ._pair import run_call  # the process machinery loads on the first pair

            pair = run_call(self.objective, (tau_b, self.seed), lambda: self.evaluate(tau_a))
            if pair is not None:
                ev_a, out = pair
                return ev_a, self._record(tau_b, *self._checked(out, tau_b))
        return self.evaluate(tau_a), self.evaluate(tau_b)


def _check_run_bounds(solver: str, evaluator: Evaluator, max_iterations) -> None:
    """Refuse a cap that is not None or an integer >= 1, and an unbounded run."""
    if max_iterations is not None and not _is_int(max_iterations):
        raise ValueError(f"max_iterations must be an integer, got {max_iterations!r}")
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if evaluator.budget is None and max_iterations is None:
        raise ValueError(f"{solver} needs a budgeted evaluator or max_iterations")


def _csv_cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    """Write a header and rows of cells: the one CSV format of this package.

    Ints are written plainly, strings as given, and every other cell as
    ``repr(float(x))``, which reads back as the same float64.
    """
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(x) for x in row] for row in rows)


def write_records_csv(records, path) -> None:
    """Write a list of dict records as CSV, one row per record.

    The header is the first record's keys in order.  A scalar field is one
    column; a 1-D field ``x`` of length m becomes columns ``x_1..x_m``.
    Cells use the ``_write_csv`` number format.  Raises ValueError when a
    later record's keys or vector lengths differ from the first record's.
    An empty list writes an empty file.
    """
    records = list(records)
    if not records:
        open(path, "w").close()
        return
    keys = list(records[0])
    widths = [None if np.ndim(v) == 0 else len(v) for v in records[0].values()]
    header = []
    for key, width in zip(keys, widths):
        header += [key] if width is None else [f"{key}_{i + 1}" for i in range(width)]
    rows = []
    for n, rec in enumerate(records):
        if list(rec) != keys:
            raise ValueError(f"record {n} has keys {list(rec)}, expected {keys}")
        row = []
        for key, width, value in zip(keys, widths, rec.values()):
            if width is None:
                if np.ndim(value) != 0:
                    raise ValueError(f"record {n} field {key!r} is not a scalar")
                row.append(value)
            else:
                if np.ndim(value) != 1 or len(value) != width:
                    raise ValueError(f"record {n} field {key!r} is not a 1-D vector "
                                     f"of length {width}")
                row.extend(value)
        rows.append(row)
    _write_csv(path, header, rows)


def write_trace_csv(trace: Trace, path) -> None:
    """Write eval_index, seed, tau_1..tau_m, value, best_value rows."""
    write_records_csv(({"eval_index": rec.evaluation.eval_index,
                        "seed": rec.evaluation.seed, "tau": rec.tau,
                        "value": rec.evaluation.value, "best_value": best}
                       for rec, best in zip(trace.records, trace.best_curve)), path)
