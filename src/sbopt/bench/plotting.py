"""Plot-data emitters: a CSV and an SVG figure for each plot.

Everything here renders from traces or simulator output that already
exists; nothing in this module evaluates an objective.  The SVG writer
uses only the standard library and numpy, and its output is
deterministic: a fixed colour cycle, fixed-precision coordinates, and
no timestamps or generated ids, so the same data gives the same bytes.
"""

import csv
from html import escape
from itertools import cycle
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..core import SboError, Trace, _write_csv
from ..mfdsim import SimOutput, nfd_flow


def read_trace_csv(path) -> dict:
    """Load a trace CSV back into arrays.

    Returns a dict with eval_index, seed, tau (n, m), value, best_value.
    The column layout is the one write_trace_csv produces.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SboError(f"trace file {path} is empty")
    header, body = rows[0], rows[1:]
    tau_cols = [i for i, name in enumerate(header) if name.startswith("tau_")]
    want = ["eval_index", "seed", "value", "best_value"]
    if any(name not in header for name in want):
        raise SboError(f"{path} does not look like a trace CSV (header {header})")
    if not body:
        raise SboError(f"trace file {path} has no records")
    idx = {name: header.index(name) for name in want}
    try:
        return {
            "eval_index": np.array([int(r[idx["eval_index"]]) for r in body]),
            "seed": np.array([int(r[idx["seed"]]) for r in body]),
            "tau": np.array([[float(r[i]) for i in tau_cols] for r in body]),
            "value": np.array([float(r[idx["value"]]) for r in body]),
            "best_value": np.array([float(r[idx["best_value"]]) for r in body]),
        }
    except (ValueError, IndexError) as exc:
        raise SboError(f"{path} has malformed trace rows: {exc}") from exc


def write_best_curve_csv(eval_index, best_value, path) -> Path:
    """Best objective value against evaluation count, one row per evaluation."""
    path = Path(path)
    _write_csv(path, ["eval_index", "best_value"],
               ([int(i), float(v)] for i, v in zip(eval_index, best_value)))
    return path


def _minute_samples(out: SimOutput) -> tuple[np.ndarray, np.ndarray]:
    """Density and flow sampled once a simulated minute."""
    step = max(1, int(round(60.0 / (out.t_s[1] - out.t_s[0]))) if out.t_s.size > 1 else 1)
    return out.k[::step], out.q[::step]


def write_nfd_scatter(out: SimOutput, path) -> Path:
    """Density-flow pairs sampled once a simulated minute."""
    path = Path(path)
    _write_csv(path, ["k", "q"], zip(*_minute_samples(out)))
    return path


def _curve_from_source(source) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(source, Trace):
        if len(source) == 0:
            raise SboError("trace is empty, nothing to plot")
        idx = np.array([rec.evaluation.eval_index for rec in source.records])
        return idx, np.asarray(source.best_curve, dtype=float)
    data = read_trace_csv(source)
    return data["eval_index"], data["best_value"]


def emit_plot_data(source, out_dir, stem: str = None) -> list[Path]:
    """Write plottable CSVs for a trace (or trace CSV path) or a SimOutput.

    Traces yield a best-curve CSV; simulator output yields a density-flow
    scatter CSV, each followed by its SVG rendering.  Returns the paths
    written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(source, SimOutput):
        stem = stem or "nfd_scatter"
        return [write_nfd_scatter(source, out_dir / f"{stem}.csv"),
                plot_nfd_scatter(source, out_dir / f"{stem}.svg")]
    stem = stem or (Path(source).stem if not isinstance(source, Trace) else "best_curve")
    idx, best = _curve_from_source(source)
    return [write_best_curve_csv(idx, best, out_dir / f"{stem}_best.csv"),
            plot_best_curve(idx, best, out_dir / f"{stem}_best.svg")]




# ------------------------------------------------------------------ SVG


_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 624, 16, 364   # plot area, in pixels
_COLOURS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
            "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


class _Series(NamedTuple):
    kind: str                  # "step", "line", "band" or "points"
    x: np.ndarray
    y: np.ndarray
    colour: str
    label: str = None          # legend entry; unlabelled series have none
    y_hi: np.ndarray = None    # upper edge of a band


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float).ravel()


def _post_step(x, y):
    """Vertices of a post-step line: each value holds until the next x."""
    return np.repeat(x, 2)[1:], np.repeat(y, 2)[:-1]


def _axis(values: np.ndarray) -> np.ndarray:
    """Round tick positions covering values; the first and last are the limits."""
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= 1e-9 * max(1.0, abs(lo), abs(hi)):
        pad = 0.05 * max(1.0, abs(lo))   # a flat series still needs a span
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / 5.0
    mag = 10.0 ** np.floor(np.log10(raw))
    step = mag * next(m for m in (1, 2, 5, 10) if raw <= m * mag * (1 + 1e-9))
    first = np.floor(lo / step + 1e-9)
    last = np.ceil(hi / step - 1e-9)
    return np.arange(first, last + 1) * step


def _coords(px, py) -> str:
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))


def _tick_label(v: float) -> str:
    return escape(f"{v + 0.0:.6g}")


def _write_svg(path, series, xlabel: str, ylabel: str) -> Path:
    """Draw series on shared axes with ticks, labels and a legend.

    Points that are not finite are left out; a figure with no finite
    point left raises SboError before anything is written.
    """
    kept = []
    for s in series:
        ok = np.isfinite(s.x) & np.isfinite(s.y)
        if s.y_hi is not None:
            ok &= np.isfinite(s.y_hi)
        kept.append(s._replace(x=s.x[ok], y=s.y[ok],
                               y_hi=None if s.y_hi is None else s.y_hi[ok]))
    xs = np.concatenate([np.empty(0)] + [s.x for s in kept])
    if xs.size == 0:
        raise SboError(f"no finite points to plot in {path}")
    ys = np.concatenate([s.y for s in kept]
                        + [s.y_hi for s in kept if s.y_hi is not None])
    xt, yt = _axis(xs), _axis(ys)

    def sx(v):
        return _LEFT + (v - xt[0]) / (xt[-1] - xt[0]) * (_RIGHT - _LEFT)

    def sy(v):
        return _BOTTOM - (v - yt[0]) / (yt[-1] - yt[0]) * (_BOTTOM - _TOP)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for t in xt:
        x = sx(t)
        out.append(f'<line class="tick" x1="{x:.2f}" y1="{_BOTTOM}" x2="{x:.2f}" '
                   f'y2="{_BOTTOM + 5}" stroke="#000000"/>')
        out.append(f'<text x="{x:.2f}" y="{_BOTTOM + 19}" '
                   f'text-anchor="middle">{_tick_label(t)}</text>')
    for t in yt:
        y = sy(t)
        out.append(f'<line class="tick" x1="{_LEFT - 5}" y1="{y:.2f}" x2="{_LEFT}" '
                   f'y2="{y:.2f}" stroke="#000000"/>')
        out.append(f'<text x="{_LEFT - 8}" y="{y + 4:.2f}" '
                   f'text-anchor="end">{_tick_label(t)}</text>')
    mid_x, mid_y = (_LEFT + _RIGHT) / 2, (_TOP + _BOTTOM) / 2
    out.append(f'<text x="{mid_x:.2f}" y="{_HEIGHT - 12}" '
               f'text-anchor="middle">{escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{mid_y:.2f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {mid_y:.2f})">{escape(ylabel)}</text>')

    for s in kept:
        if s.kind == "band":
            lx, ly = _post_step(s.x, s.y)
            hx, hy = _post_step(s.x, s.y_hi)
            px = np.concatenate([lx, hx[::-1]])
            py = np.concatenate([ly, hy[::-1]])
            out.append(f'<polygon class="band" points="{_coords(sx(px), sy(py))}" '
                       f'fill="{s.colour}" fill-opacity="0.2" stroke="none"/>')
        elif s.kind == "points":
            out.append(f'<g class="points" fill="{s.colour}" fill-opacity="0.35">')
            out.extend(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2"/>'
                       for a, b in zip(sx(s.x), sy(s.y)))
            out.append("</g>")
        else:
            px, py = _post_step(s.x, s.y) if s.kind == "step" else (s.x, s.y)
            out.append(f'<polyline class="line" points="{_coords(sx(px), sy(py))}" '
                       f'fill="none" stroke="{s.colour}" stroke-width="1.5"/>')
    out.append(f'<rect class="frame" x="{_LEFT}" y="{_TOP}" width="{_RIGHT - _LEFT}" '
               f'height="{_BOTTOM - _TOP}" fill="none" stroke="#000000"/>')

    entries = [s for s in kept if s.label]
    if entries:
        width = 40 + 7 * max(len(s.label) for s in entries)
        x0, y0 = _RIGHT - 8 - width, _TOP + 8
        out.append(f'<g class="legend"><rect x="{x0}" y="{y0}" width="{width}" '
                   f'height="{8 + 18 * len(entries)}" fill="#ffffff" '
                   'fill-opacity="0.8" stroke="#999999"/>')
        for i, s in enumerate(entries):
            y = y0 + 16 + 18 * i
            out.append(f'<line x1="{x0 + 8}" y1="{y - 4}" x2="{x0 + 28}" y2="{y - 4}" '
                       f'stroke="{s.colour}" stroke-width="1.5"/>')
            out.append(f'<text x="{x0 + 34}" y="{y}">{escape(s.label)}</text>')
        out.append("</g>")
    out.append("</svg>")

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
    return path


def plot_best_curve(eval_index, best_value, path, label: str = None) -> Path:
    """SVG post-step line of the running best, with an optional legend label."""
    series = [_Series("step", _floats(eval_index), _floats(best_value),
                      _COLOURS[0], label)]
    return _write_svg(path, series, "evaluations", "best objective")


def plot_curve_bands(grid, median_curves, iqr_curves, path,
                     ylabel="best objective") -> Path:
    """SVG of per-solver median curves with interquartile bands.

    Each solver gets one post-step median line and, when iqr_curves has
    it, a translucent band in the same colour.
    """
    x = _floats(grid)
    bands, lines = [], []
    for colour, (name, med) in zip(cycle(_COLOURS), median_curves.items()):
        if name in iqr_curves:
            lo, hi = iqr_curves[name]
            bands.append(_Series("band", x, _floats(lo), colour, y_hi=_floats(hi)))
        lines.append(_Series("step", x, _floats(med), colour, str(name)))
    return _write_svg(path, bands + lines, "evaluations", ylabel)


def plot_nfd_scatter(out: SimOutput, path, curve=None) -> Path:
    """SVG density-flow scatter, optionally with the ideal curve overlaid.

    The points are the once-a-minute samples that write_nfd_scatter puts
    in the scatter CSV.
    """
    k, q = _minute_samples(out)
    series = [_Series("points", _floats(k), _floats(q), _COLOURS[0])]
    if curve is not None:
        ks = np.linspace(0.0, curve.k_jam, 200)
        series.append(_Series("line", ks, _floats(nfd_flow(ks, curve)), "#000000"))
    return _write_svg(path, series, "density (veh/km/lane)", "flow (veh/h/lane)")
