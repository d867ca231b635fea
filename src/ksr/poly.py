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
    """The sorted breakpoints of all ``xss``, each kept only if it lies more
    than 1e-13 max(1, |x|) above the last one kept.

    A gap above that tolerance keeps its point and an exact repeat drops
    it, whatever was kept before; only a point whose gap to its
    predecessor is nonzero but within tolerance is compared with the last
    point kept, in order."""
    x = np.sort(np.concatenate([np.asarray(xs, dtype=float) for xs in xss]))
    if x.size == 0:
        return x
    tol = 1e-13 * np.maximum(1.0, np.abs(x))
    gap = x[1:] - x[:-1]
    keep = np.concatenate(([True], gap > tol[1:]))
    for i in (np.flatnonzero((gap > 0.0) & ~keep[1:]) + 1).tolist():
        last = i - 1
        while not keep[last]:
            last -= 1
        keep[i] = x[i] - x[last] > tol[i]
    return x[keep]


def insert_zero_crossings(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add breakpoints (with value exactly 0) where the polyline crosses 0,
    at x0 + (dx * (0 - y0)) / (y1 - y0) on each crossing segment, kept
    where that lands strictly inside the segment.  Where dx * (0 - y0)
    overflows, the crossing is x0 + dx * ((0 - y0) / (y1 - y0)) instead,
    the fraction lying in [0, 1]."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1, y0, y1 = xs[:-1], xs[1:], ys[:-1], ys[1:]
    i = np.flatnonzero(((y0 > 0.0) & (y1 < 0.0)) | ((y0 < 0.0) & (y1 > 0.0)))
    dx, drop, dy = x1[i] - x0[i], 0.0 - y0[i], y1[i] - y0[i]
    # an overflow leaves inf, or nan where y1 - y0 overflows too; a nan
    # crossing is not inside its segment
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x0[i] + dx * drop / dy
        wide = np.isinf(xc)
        if wide.any():
            xc[wide] = x0[i][wide] + dx[wide] * (drop[wide] / dy[wide])
    inside = (x0[i] < xc) & (xc < x1[i])
    i = i[inside] + 1
    return np.insert(xs, i, xc[inside]), np.insert(ys, i, 0.0)


def _level_measures(v, dx, ylo, yhi, flat):
    """mes{f > v} and mes{f >= v} for every level of ``v`` at once.  A
    sloped segment counts the share of its width above v, a flat one all
    of it when its level exceeds v; each level's terms are added over the
    segments, along the last axis, by one sum."""
    share = ((yhi - v) / np.where(flat, 1.0, yhi - ylo)).clip(0.0, 1.0)
    above = (dx * np.where(flat, ylo > v, share)).sum(axis=-1)
    at = (dx * (flat & (ylo == v))).sum(axis=-1)
    return above, above + at


def decreasing_rearrangements(polylines) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact nonincreasing rearrangements of nonnegative polylines.

    Each ``(xs, ys)`` gives a polyline on [0, xs[-1] - xs[0]] equimeasurable
    with it.  The distribution function m(y) = mes{f > y} is piecewise
    linear between consecutive breakpoint values of f (with jumps at
    plateau levels), so its generalized inverse is again a polyline whose
    knots sit at the measures of the superlevel sets, with flat pieces of
    length mes{f = v} at each plateau level v.

    All polylines are measured in one pass, in order of their segment
    count S.  One sort keyed by (polyline, -y) finds the distinct levels
    of each.  The polylines of one S measure their levels against their
    segments in one (polylines x levels x S) block, broadcast from a view
    of their segment rows, and each level's S terms are added by one sum
    over the last axis, as for a polyline alone; so no rearrangement
    depends on the others in the batch.  One loop then turns the level
    measures into knots, dropping those within 1e-15 of the last.
    """
    xs = [np.asarray(x, dtype=float) for x, _ in polylines]
    ys = [np.asarray(y, dtype=float) for _, y in polylines]
    if not xs:
        return []
    # the polylines by node count, so that those of one S lie side by side
    order = sorted(range(len(xs)), key=lambda i: xs[i].size)
    sizes = [xs[i].size for i in order]
    x = np.concatenate([xs[i] for i in order])
    y = np.concatenate([ys[i] for i in order])
    if (y < -1e-12).any():
        raise ValueError("rearrangement requires a nonnegative polyline")
    y = np.maximum(y, 0.0)
    # segment i runs from node i to node i + 1; the one from the last node
    # of a polyline to the first of the next (or to itself, at the end)
    # belongs to no polyline
    x1 = np.concatenate((x[1:], x[-1:]))
    y1 = np.concatenate((y[1:], y[-1:]))
    dx = x1 - x
    ylo = np.minimum(y, y1)
    yhi = np.maximum(y, y1)
    flat = yhi - ylo <= 0.0
    if len(sizes) == 1:
        levels = sorted_distinct(y)[::-1]  # descending
        counts = [levels.size]
    else:
        owner = np.repeat(np.arange(len(sizes)), sizes)
        ranked = np.lexsort((-y, owner))
        sy, so = y[ranked], owner[ranked]
        new = np.ones(sy.shape, dtype=bool)
        new[1:] = (sy[1:] != sy[:-1]) | (so[1:] != so[:-1])
        levels = sy[new]  # descending within each polyline
        counts = np.bincount(so[new], minlength=len(sizes)).tolist()

    above = np.empty(levels.shape)
    above_at = np.empty(levels.shape)
    node, row, p = 0, 0, 0
    while p < len(sizes):
        # the polylines [p, q), of n nodes each, own the level rows
        # [row, row_end) and the nodes [node, node_end)
        n = sizes[p]
        q = p + 1
        while q < len(sizes) and sizes[q] == n:
            q += 1
        k = counts[p:q]
        row_end, node_end = row + sum(k), node + (q - p) * n
        if q - p == 1:
            seg = slice(node, node_end - 1)
            a, b = _level_measures(levels[row:row_end, None], dx[seg], ylo[seg], yhi[seg], flat[seg])
        else:
            # each polyline's row of segments against its levels, padded
            # with 0 to the most levels of any of them
            rows = [arr[node:node_end].reshape(q - p, 1, n)[:, :, :-1] for arr in (dx, ylo, yhi, flat)]
            valid = np.arange(max(k)) < np.array(k)[:, None]
            v = np.zeros(valid.shape)
            v[valid] = levels[row:row_end]
            a, b = _level_measures(v[:, :, None], *rows)
            a, b = a[valid], b[valid]
        above[row:row_end] = a
        above_at[row:row_end] = b
        node, row, p = node_end, row_end, q

    # the knots of each rearrangement from its level measures, top level first
    nodes, levels, above, above_at = x.tolist(), levels.tolist(), above.tolist(), above_at.tolist()
    out: list = [None] * len(order)
    node, row = 0, 0
    for i, n, count in zip(order, sizes, counts):
        total = nodes[node + n - 1] - nodes[node]
        top, bottom = row, row + count
        r_x: list[float] = []
        r_y: list[float] = []
        for lvl, x_above, x_at in zip(levels[top:bottom], above[top:bottom], above_at[top:bottom]):
            for xk in (x_above, x_at):
                if not r_x or xk > r_x[-1] + 1e-15:
                    r_x.append(xk)
                    r_y.append(lvl)
        if r_x[0] > 0.0:
            r_x.insert(0, 0.0)
            r_y.insert(0, levels[top])
        if r_x[-1] < total - 1e-15:
            r_x.append(total)
            r_y.append(levels[bottom - 1])
        out[i] = (np.array(r_x), np.array(r_y))
        node, row = node + n, bottom
    return out
