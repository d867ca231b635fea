"""Internal piecewise-linear (polyline) helpers.

A polyline is a pair of 1-D arrays ``(xs, ys)`` with ``xs`` strictly
increasing; the function is linear between consecutive breakpoints.
All routines here are exact for polylines (no quadrature).
"""

from __future__ import annotations

import numpy as np


def sorted_distinct(x) -> np.ndarray:
    """``np.unique(x)`` of a finite array, bit for bit, without the
    ``numpy.ma`` import of its first call: a sort, then a mask of repeats."""
    x = np.sort(x)
    keep = np.ones(x.shape, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def merge_breakpoints(*xss) -> np.ndarray:
    allx = np.sort(np.concatenate([np.asarray(x, dtype=float) for x in xss]))
    # collapse exact repeats and breakpoints closer than float noise
    keep = [0]
    for i in range(1, len(allx)):
        if allx[i] - allx[keep[-1]] > 1e-13 * max(1.0, abs(allx[i])):
            keep.append(i)
    return allx[keep]


def insert_zero_crossings(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add breakpoints (with value exactly 0) where the polyline crosses 0,
    at x0 + (dx * (0 - y0)) / (y1 - y0) on each crossing segment, kept
    where that lands strictly inside the segment."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1, y0, y1 = xs[:-1], xs[1:], ys[:-1], ys[1:]
    i = np.flatnonzero(((y0 > 0.0) & (y1 < 0.0)) | ((y0 < 0.0) & (y1 > 0.0)))
    xc = x0[i] + (x1[i] - x0[i]) * (0.0 - y0[i]) / (y1[i] - y0[i])
    inside = (x0[i] < xc) & (xc < x1[i])
    i = i[inside] + 1
    return np.insert(xs, i, xc[inside]), np.insert(ys, i, 0.0)


def decreasing_rearrangement(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nonincreasing rearrangement of a nonnegative polyline.

    Returns a polyline on [0, xs[-1] - xs[0]] equimeasurable with the
    input.  The distribution function m(y) = mes{f > y} is piecewise
    linear between consecutive breakpoint values of f (with jumps at
    plateau levels), so its generalized inverse is again a polyline whose
    knots sit at the measures of the superlevel sets, with flat pieces of
    length mes{f = v} at each plateau level v.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < -1e-12):
        raise ValueError("rearrangement requires a nonnegative polyline")
    ys = np.maximum(ys, 0.0)
    total = float(xs[-1] - xs[0])
    dx = np.diff(xs)
    ylo = np.minimum(ys[:-1], ys[1:])
    yhi = np.maximum(ys[:-1], ys[1:])
    flat = yhi - ylo <= 0.0
    levels = sorted_distinct(ys)[::-1]  # descending
    # mes{f > v} and mes{f = v} for every level v in one (levels x segments)
    # pass: a sloped segment counts the share of its width above v, a flat
    # one all of it when its level exceeds v
    v = levels[:, None]
    share = np.clip((yhi - v) / np.where(flat, 1.0, yhi - ylo), 0.0, 1.0)
    above = np.sum(dx * np.where(flat, ylo > v, share), axis=1)
    at = np.sum(dx * (flat & (ylo == v)), axis=1)

    r_x: list[float] = []
    r_y: list[float] = []
    for lvl, x_above, x_at in zip(levels.tolist(), above.tolist(), (above + at).tolist()):
        for x in (x_above, x_at):
            if not r_x or x > r_x[-1] + 1e-15:
                r_x.append(x)
                r_y.append(lvl)
    if not r_x or r_x[0] > 0.0:
        r_x.insert(0, 0.0)
        r_y.insert(0, float(np.max(ys)))
    if r_x[-1] < total - 1e-15:
        r_x.append(total)
        r_y.append(float(np.min(ys)))
    return np.asarray(r_x), np.asarray(r_y)
