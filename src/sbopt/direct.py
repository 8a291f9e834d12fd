"""Deterministic Lipschitzian partitioning over the unit hypercube.

The search space is normalized to the unit cube and covered by a tiling
of hyperrectangles, each carrying the objective value at its center.
The values come from ``Evaluator.on_unit_cube``, so the tiling always
minimizes: it negates a maximized objective and adds the evaluator's ``penalty``.
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

from .core import Bounds, BudgetExhausted, Evaluator, Trace, _check_run_bounds

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


def half_diagonal(depth) -> float:
    """Center-to-vertex distance of a box with sides 3**-depth_l.

    The squared sides are summed in sorted order so boxes whose depth
    counters are permutations of each other get bit-identical diagonals.
    """
    depth = np.asarray(depth, dtype=int)
    return 0.5 * float(np.sqrt(np.sum(np.sort(3.0 ** (-2.0 * depth)))))


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
               max_iterations: int | None = None) -> Trace:
    """Partition until the budget or ``max_iterations`` (None: no cap) stops the run.

    One of the two must bound the run: with neither, ValueError is raised
    before the first evaluation.

    The tiling holds ``evaluator.on_unit_cube(bounds)`` values: negated
    when the problem maximizes, then penalized by the evaluator's ``penalty``.  The trace keeps
    raw objective values at the original coordinates.  Boxes thinner than
    1e-9 on every side are not refined further.  Each iteration appends
    one record to ``trace.iterations`` with fields ``n_rects``,
    ``n_selected`` and ``y_min`` (on the tiling's scale).  The final
    tiling lands in ``trace.annotations["direct_cells"]``, one record per
    cell with fields ``center``, ``depth``, ``value`` and ``d``.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    _check_run_bounds("run_direct", evaluator, max_iterations)
    m = bounds.m_dim
    eval_unit = evaluator.on_unit_cube(bounds)
    trace = evaluator.trace
    if not evaluator.can_evaluate():
        return trace
    v0 = eval_unit(np.full(m, 0.5))
    rects = [Hyperrect(np.full(m, 0.5), np.zeros(m, dtype=int), v0)]
    y_min = v0
    iteration = 0
    while evaluator.can_evaluate():
        if max_iterations is not None and iteration >= max_iterations:
            break
        selected = identify_potentially_optimal(rects, y_min, epsilon)
        selected = [i for i in selected if rects[i].longest_side >= _MIN_SIDE]
        if not selected:
            break
        exhausted = False
        replacements: dict[int, list[Hyperrect]] = {}
        for i in selected:
            children, exhausted = trisect(rects[i], eval_unit)
            replacements[i] = children
            if exhausted:
                break
        new_rects = []
        for i, r in enumerate(rects):
            new_rects.extend(replacements.get(i, [r]))
        rects = new_rects
        y_min = min(r.value for r in rects)
        iteration += 1
        trace.iterations.append({"iteration": iteration, "evals": evaluator.used,
                                 "n_rects": len(rects), "n_selected": len(selected),
                                 "y_min": y_min})
        if exhausted:
            break

    trace.annotations["direct_cells"] = [
        {"center": r.center.copy(), "depth": r.depth.copy(), "value": r.value, "d": r.d}
        for r in rects]
    return trace
