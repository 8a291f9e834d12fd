"""Deterministic Lipschitzian partitioning over the unit hypercube.

The search space is normalized to the unit cube and covered by a tiling
of hyperrectangles, each carrying the objective value at its center.
Every iteration selects the potentially optimal rectangles (those on the
lower-right convex hull of half-diagonal versus value for some positive
Lipschitz constant, with an epsilon guard against over-exploiting the
incumbent) and trisects them along their longest sides.

Bookkeeping uses per-dimension trisection depth counters: a side is
exactly ``3**-depth`` long, so center coordinates always have the form
``(2k+1) / (2 * 3**p)`` and no point is ever evaluated twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Bounds, BudgetExhausted, Evaluator, Trace, _write_csv

_MIN_SIDE = 1e-9


@dataclass
class Hyperrect:
    """One tile: center in unit coordinates, per-dim depth, center value."""

    center: np.ndarray
    depth: np.ndarray
    value: float
    d: float = field(init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.depth = np.asarray(self.depth, dtype=int)
        self.d = half_diagonal(self.depth)

    @property
    def longest_side(self) -> float:
        return 3.0 ** (-int(self.depth.min()))

    @property
    def volume(self) -> float:
        return 3.0 ** (-float(self.depth.sum()))


def half_diagonal(depth) -> float:
    """Center-to-vertex distance of a box with sides 3**-depth_l.

    The squared sides are summed in sorted order so boxes whose depth
    counters are permutations of each other get bit-identical diagonals.
    """
    depth = np.asarray(depth, dtype=int)
    return 0.5 * float(np.sqrt(np.sum(np.sort(3.0 ** (-2.0 * depth)))))


@dataclass
class DirectState:
    rects: list
    epsilon: float
    iteration: int = 0

    @property
    def y_min(self) -> float:
        return min(r.value for r in self.rects)


def identify_potentially_optimal(rects, y_min: float, epsilon: float) -> list[int]:
    """Indices of rects some positive Lipschitz constant would explore next.

    Among equal half-diagonals only the minimal value competes (ties all
    kept).  Survivors must sit on the lower-right convex hull and promise
    an improvement of at least ``epsilon * |y_min|`` under their most
    optimistic admissible constant.
    """
    if not rects:
        return []
    by_d: dict[float, list[int]] = {}
    for i, r in enumerate(rects):
        by_d.setdefault(r.d, []).append(i)
    pts = []
    for d in sorted(by_d):
        idxs = by_d[d]
        v = min(rects[i].value for i in idxs)
        pts.append((d, v, [i for i in idxs if rects[i].value == v]))

    # lower convex hull over (d, v), collinear points kept
    hull: list[tuple] = []
    for p in pts:
        while len(hull) >= 2:
            (d1, v1, _), (d2, v2, _) = hull[-2], hull[-1]
            if (v2 - v1) * (p[0] - d2) - (p[1] - v2) * (d2 - d1) > 0:
                hull.pop()
            else:
                break
        hull.append(p)

    selected: list[int] = []
    threshold = y_min - epsilon * abs(y_min)
    for j, (d, v, idxs) in enumerate(hull):
        if j + 1 < len(hull):
            d_next, v_next, _ = hull[j + 1]
            k_max = (v_next - v) / (d_next - d)
            if k_max <= 0 or v - k_max * d > threshold:
                continue
        selected.extend(idxs)
    return selected


def trisect(rect: Hyperrect, eval_unit) -> tuple[list[Hyperrect], bool]:
    """Split rect along all its longest dimensions, best dimension first.

    Samples center +- one third of the longest side along each such
    dimension, then divides in ascending order of the pairwise minima so
    the most promising new points end up in the largest children.
    Returns the replacement tiles and whether the budget ran out midway;
    on a partial trisection, unevaluated sibling boxes get value +inf so
    the tiling stays complete.
    """
    dmin = int(rect.depth.min())
    dims = np.where(rect.depth == dmin)[0]
    delta = 3.0 ** (-(dmin + 1))

    sampled = []  # (dim, value_plus or None, value_minus or None)
    exhausted = False
    for l in dims:
        v_plus = v_minus = None
        try:
            c = rect.center.copy()
            c[l] += delta
            v_plus = eval_unit(c)
            c = rect.center.copy()
            c[l] -= delta
            v_minus = eval_unit(c)
        except BudgetExhausted:
            exhausted = True
        if v_plus is None and v_minus is None:
            break
        sampled.append((int(l), v_plus, v_minus))
        if exhausted:
            break
    if not sampled:
        return [rect], True

    def w_of(entry):
        _, vp, vm = entry
        vals = [v for v in (vp, vm) if v is not None]
        return min(vals) if vals else np.inf

    sampled.sort(key=w_of)
    children: list[Hyperrect] = []
    cur_depth = rect.depth.copy()
    for l, v_plus, v_minus in sampled:
        child_depth = cur_depth.copy()
        child_depth[l] += 1
        for sign, v in ((1.0, v_plus), (-1.0, v_minus)):
            c = rect.center.copy()
            c[l] += sign * delta
            children.append(Hyperrect(c, child_depth, np.inf if v is None else v))
        cur_depth[l] += 1
    children.append(Hyperrect(rect.center.copy(), cur_depth, rect.value))
    return children, exhausted


def run_direct(evaluator: Evaluator, bounds: Bounds, epsilon: float = 1e-4,
               max_iterations: int | None = None, penalty=None) -> Trace:
    """Partition until the budget or iteration cap stops the run.

    Maximization and penalty wrapping happen on an internal sign-adjusted
    copy of the values; the trace keeps raw objective values at the
    original coordinates.  Boxes thinner than 1e-9 on every side are not
    refined further.  Per-iteration summaries land in
    ``trace.annotations["direct_iterations"]`` and the final tiling in
    ``trace.annotations["direct_cells"]``.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    m = bounds.m_dim
    sign = 1.0 if evaluator.sense == "minimize" else -1.0

    def eval_unit(u: np.ndarray) -> float:
        tau = bounds.from_unit(u)
        v = evaluator.evaluate(tau).value
        if penalty is not None:
            v = penalty.apply(v, tau, evaluator.sense)
        return sign * v

    trace = evaluator.trace
    log = trace.annotations.setdefault("direct_iterations", [])
    state = DirectState(rects=[], epsilon=epsilon)
    try:
        v0 = eval_unit(np.full(m, 0.5))
    except BudgetExhausted:
        return trace
    state.rects.append(Hyperrect(np.full(m, 0.5), np.zeros(m, dtype=int), v0))

    while evaluator.remaining is None or evaluator.remaining > 0:
        if max_iterations is not None and state.iteration >= max_iterations:
            break
        selected = identify_potentially_optimal(state.rects, state.y_min, epsilon)
        selected = [i for i in selected if state.rects[i].longest_side >= _MIN_SIDE]
        if not selected:
            break
        exhausted = False
        replacements: dict[int, list[Hyperrect]] = {}
        for i in selected:
            children, exhausted = trisect(state.rects[i], eval_unit)
            replacements[i] = children
            if exhausted:
                break
        new_rects = []
        for i, r in enumerate(state.rects):
            new_rects.extend(replacements.get(i, [r]))
        state.rects = new_rects
        state.iteration += 1
        log.append({"iteration": state.iteration, "n_rects": len(state.rects),
                    "n_selected": len(selected), "y_min": state.y_min})
        if exhausted:
            break

    trace.annotations["direct_cells"] = [
        {"center": r.center.copy(), "depth": r.depth.copy(), "value": r.value, "d": r.d}
        for r in state.rects]
    return trace


def write_direct_cells(trace: Trace, path) -> None:
    """Final tiling as CSV: center coords, depth counters, value, half-diagonal."""
    cells = trace.annotations.get("direct_cells", [])
    m = cells[0]["center"].size if cells else 0
    header = ([f"c_{i + 1}" for i in range(m)]
              + [f"depth_{i + 1}" for i in range(m)] + ["value", "d"])
    _write_csv(path, header,
               ([*cell["center"], *cell["depth"], cell["value"], cell["d"]]
                for cell in cells))
