"""Functions [a, b] -> X on a uniform grid.

A grid function carries real or interval values.  Point values of real
payloads are piecewise linear between nodes; point values of interval
payloads take the nearest node (``values_at``).  Integrals of both are
integrals of the piecewise-linear interpolant of each endpoint array:
``window_integrals`` integrates each window [c, d] over the nodes it
covers only, as one dot product of cached trapezoid weights with that
slice of ``data``.  The weights are nonnegative, so an interval row with
lo <= hi integrates to one with lo <= hi, and a window's row has the same
bits whether it is integrated alone or with other windows.
A value is a row of ``data`` (a float, or a ``(lo, hi)`` pair): point
values, integrals, distances, norms and Hukuhara quotients take and
return rows, by the ``lspace`` arithmetic bit for bit.  Other ``lspace``
models (vectors, unions, max-space values) have no grid layout.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import lspace as ls
from .errors import ModelMismatch, NoDifference, NonIsotropic, NotInvertible
from .modulus import Modulus

DEFAULT_GRID = 4096

#: the value models a grid function carries
GRID_MODELS = (ls.REAL, ls.INTERVAL)


def _grid_model(model: str) -> str:
    if model not in GRID_MODELS:
        raise ModelMismatch(f"grid functions carry real or interval values, not {model}")
    return model


def eps_tolerance(omega: Modulus, length: float, n_cells: int) -> float:
    """Grid-scaled tolerance for bound-vs-oracle comparisons."""
    return float(omega(2.0 * length / n_cells)) + 1e-9


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Uniform-grid representation of f: [a, b] -> X, for X the real line
    or the compact intervals of R.

    ``data`` layout: real -> (n+1,) float array; interval -> (n+1, 2)
    array whose row i is the (lo, hi) of the value at node i.
    """

    a: float
    b: float
    model: str
    data: np.ndarray

    def __post_init__(self):
        _grid_model(self.model)
        d = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", d)
        if self.b <= self.a:
            raise ValueError("domain must satisfy a < b")
        if self.model == ls.REAL:
            if d.ndim != 1:
                raise ValueError("real payloads need an (n+1,) array")
        elif d.ndim != 2 or d.shape[1] != 2:
            raise ValueError("interval payloads need an (n+1, 2) array")
        elif np.any(d[:, 0] > d[:, 1] + 1e-12):
            raise ValueError("interval payloads require lo <= hi")
        if self.n_cells < 2:
            raise ValueError("grid needs at least 2 cells")

    @property
    def n_cells(self) -> int:
        return self.data.shape[0] - 1

    @property
    def step(self) -> float:
        return (self.b - self.a) / self.n_cells

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_cells + 1)


def values_at(f: GridFunction, ts) -> np.ndarray:
    """The rows of ``f`` at the points ``ts`` (a float or an array), in
    the ``data`` layout.  Real data are interpolated piecewise-linearly,
    and ``np.interp`` holds the end values outside [a, b].  Interval data
    take the row of the nearest node: the index ``rint((t - a) / step)``
    (ties to even), clipped to [0, n] before the integer cast, so that
    far-off points cannot overflow it."""
    if f.model == ls.REAL:
        return np.interp(ts, f.nodes, f.data)
    i = np.minimum(np.maximum(np.rint((ts - f.a) / f.step), 0.0), f.n_cells)
    return np.take(f.data, i.astype(np.intp), axis=0)


def real_grid(f, a: float, b: float, n: int = DEFAULT_GRID) -> GridFunction:
    """Sample a real-valued callable (or wrap an array) on a uniform grid."""
    ts = np.linspace(a, b, n + 1)
    if callable(f):
        data = np.array([float(f(t)) for t in ts])
    else:
        data = np.asarray(f, dtype=float)
        if data.shape != ts.shape:
            raise ValueError("array length must be n + 1")
    return GridFunction(float(a), float(b), ls.REAL, data)


def interval_array(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (m, 2) array of the intervals [lo[i], hi[i]]."""
    return np.stack([lo, hi], axis=1)


def row_dist(model: str, x, y):
    """``lspace.dist`` of rows of ``model`` data, or row-wise of stacks of
    rows, bit for bit: |x - y| for reals, the Hausdorff distance
    max(|lo - lo'|, |hi - hi'|) for intervals."""
    if model == ls.REAL:
        return np.abs(x - y)
    return np.maximum(np.abs(x[..., 0] - y[..., 0]), np.abs(x[..., 1] - y[..., 1]))


def row_norm(rows) -> float:
    """The largest ``lspace.norm`` of one row or a stack of rows: max |entry|."""
    return float(np.max(np.abs(rows)))


def hukuhara_quotient(model: str, upper, lower, scale):
    """``scale * (upper -_H lower)`` for rows of ``model`` data, or for
    stacks of rows with one ``scale > 0`` each: ``lspace.hukuhara_diff``
    then ``lspace.scale``, bit for bit.  Raises NoDifference where an
    interval shrinks by more than ``ls.EQ_TOL``."""
    diff = upper - lower
    if model == ls.REAL:
        return scale * diff
    shrinks = diff[..., 0] > diff[..., 1] + ls.EQ_TOL
    if np.any(shrinks):
        raise NoDifference(f"interval width decreases on segment {int(np.argmax(shrinks))}")
    q = np.expand_dims(scale, -1) * diff
    # clamp float noise on equal widths; on ties np.maximum keeps its
    # second argument, the lower end, as max() does in lspace
    np.maximum(q[..., 1], q[..., 0], out=q[..., 1])
    return q


def _pair_dist(f: GridFunction, k: int) -> np.ndarray:
    """Distances dist(f(t_i), f(t_{i+k})) for all i."""
    return row_dist(f.model, f.data[k:], f.data[:-k])


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    defect: float
    witness: Tuple[float, float]

    SLACK = 1e-9


def _span_set(n: int) -> List[int]:
    spans = []
    k = 1
    while k < n:
        spans.append(k)
        k *= 2
    spans.append(n)
    return spans


@lru_cache(maxsize=256)
def _span_thresholds(omega: Modulus, n: int, step: float) -> Tuple[Tuple[int, float], ...]:
    """The spans of ``_span_set`` with their thresholds omega(k * step);
    moduli are frozen dataclasses, so they key the cache by value."""
    return tuple((k, float(omega(k * step))) for k in _span_set(n))


def check_Homega(f: GridFunction, omega: Modulus) -> MembershipReport:
    """Membership test for the class of functions with oscillation bounded
    by ``omega``: exhaustive over adjacent and dyadic node spans."""
    step = f.step
    worst = -math.inf
    witness = (f.a, f.a)
    for k, w in _span_thresholds(omega, f.n_cells, step):
        defects = _pair_dist(f, k) - w
        i = int(np.argmax(defects))
        if defects[i] > worst:
            worst = float(defects[i])
            witness = (f.a + i * step, f.a + (i + k) * step)
    return MembershipReport(worst <= MembershipReport.SLACK, worst, witness)


def omega_seminorm(f: GridFunction, omega: Modulus) -> float:
    """sup of dist(f(t'), f(t'')) / omega(|t' - t''|) over the same pair set
    as ``check_Homega``."""
    best = 0.0
    for k, w in _span_thresholds(omega, f.n_cells, f.step):
        if w <= 0.0:
            continue
        best = max(best, float(np.max(_pair_dist(f, k))) / w)
    return best


def sup_norm(f: GridFunction) -> float:
    """Max over nodes of dist(f(t), 0): for an interval, the larger
    endpoint magnitude."""
    return row_norm(f.data)


def sup_dist(f: GridFunction, g: GridFunction) -> float:
    """C-metric (max over nodes) between two grid functions on one grid."""
    if f.n_cells != g.n_cells or abs(f.a - g.a) > 1e-12 or abs(f.b - g.b) > 1e-12:
        raise ValueError("grids differ")
    if f.model != g.model:
        raise ModelMismatch(f"cannot compare {f.model} with {g.model}")
    return float(np.max(row_dist(f.model, f.data, g.data)))


def cumtrapz(y: np.ndarray, step: float) -> np.ndarray:
    """Running trapezoid integral of node values ``y`` along axis 0 on a
    uniform grid of spacing ``step``, starting from 0 at the first node.
    Each cell adds (0.5 (y[i + 1] + y[i])) step; the sums are written into
    the one array returned."""
    out = np.empty_like(y)
    cells = out[1:]
    np.add(y[1:], y[:-1], out=cells)
    cells *= 0.5
    cells *= step
    np.cumsum(cells, axis=0, out=cells)
    out[0] = 0.0
    return out


@lru_cache(maxsize=16)
def _window_weights(a: float, b: float, n: int, cs: Tuple[float, ...], ds: Tuple[float, ...]):
    """Compile the windows [cs[k], ds[k]], clipped to [a, b], on the grid of
    n cells over [a, b] into trapezoid weights, grouped by the number of
    nodes a window covers: a tuple of read-only ``(rows, index, weights)``,
    ``index`` and ``weights`` of shape (windows, nodes), where the integral
    over window ``rows[j]`` is ``weights[j] . data[index[j]]``.

    A window covers the cells from the one that holds c to the one that
    holds d.  On a cell [t, t + h], h the difference of its nodes, it covers
    [t + p, t + r] with 0 <= p <= r <= h, and the exact integral of the
    linear interpolant there puts (r - p)(2h - r - p)/(2h) on the node t and
    (r - p)(r + p)/(2h) on t + h.  Taken in this factored form the weights
    cannot round below 0, and a whole cell puts h/2 on each node."""
    nodes = np.linspace(a, b, n + 1)
    c = np.clip(np.array(cs, dtype=float), a, b)
    d = np.clip(np.array(ds, dtype=float), a, b)
    if np.any(d < c):
        raise ValueError("windows [c, d] need c <= d")
    first = np.clip(np.searchsorted(nodes, c, side="right") - 1, 0, n - 1)
    last = np.maximum(first, np.clip(np.searchsorted(nodes, d, side="left") - 1, 0, n - 1))
    counts = last - first + 1
    groups = []
    for cells in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == cells)
        index = first[rows, None] + np.arange(cells + 1)
        t = nodes[index]
        h = np.diff(t, axis=1)
        p = np.clip(c[rows, None] - t[:, :-1], 0.0, h)
        r = np.clip(d[rows, None] - t[:, :-1], 0.0, h)
        weights = np.zeros(index.shape)
        weights[:, :-1] = (r - p) * (((2.0 * h - r) - p) / (2.0 * h))
        weights[:, 1:] += (r - p) * ((r + p) / (2.0 * h))
        for arr in (rows, index, weights):
            arr.flags.writeable = False
        groups.append((rows, index, weights))
    return tuple(groups)


def window_integrals(f: GridFunction, cs, ds) -> np.ndarray:
    """Exact integrals of the piecewise-linear interpolant of ``f.data``
    over the windows [cs[k], ds[k]] (clipped to [a, b]): row k of the result
    is window k's integral, in the ``data`` layout.  Each window is one
    dot product over the nodes it covers; windows with one node count are
    reduced together, one ``vecdot`` row each, so a window's row has the
    same bits alone as in any batch."""
    cs = tuple(np.asarray(cs, dtype=float).tolist())
    ds = tuple(np.asarray(ds, dtype=float).tolist())
    out = np.empty((len(cs),) + f.data.shape[1:])
    row_axes = (1,) * (f.data.ndim - 1)
    for rows, index, weights in _window_weights(f.a, f.b, f.n_cells, cs, ds):
        out[rows] = np.vecdot(np.take(f.data, index, axis=0), weights.reshape(weights.shape + row_axes), axis=1)
    return out


def integrate(f: GridFunction, c: Optional[float] = None, d: Optional[float] = None) -> np.ndarray:
    """Integral over [c, d] (default: full domain), as a row of ``f.data``."""
    c = f.a if c is None else float(c)
    d = f.b if d is None else float(d)
    if c < f.a - 1e-12 or d > f.b + 1e-12 or d < c:
        raise ValueError(f"integration range [{c}, {d}] is reversed or outside [{f.a}, {f.b}]")
    return window_integrals(f, (c,), (d,))[0]


def lift(f: GridFunction, x: ls.Element) -> GridFunction:
    """Pointwise lift of a real grid function through a convex invertible
    element: t -> f(t)_+ x + f(t)_- x'."""
    if f.model != ls.REAL:
        raise ModelMismatch("lift expects a real grid function")
    if x.model == ls.MAX:
        raise NonIsotropic("max-space admits no nontrivial lift")
    _grid_model(x.model)
    if not ls.is_convex(x):
        raise NotInvertible("lift requires a convex element")
    ls.inverse(x)  # raises NotInvertible when x' does not exist
    if x.model == ls.REAL:
        return GridFunction(f.a, f.b, ls.REAL, f.data * x.payload)
    rv = f.data * x.payload[0]  # invertible intervals are points
    return GridFunction(f.a, f.b, ls.INTERVAL, interval_array(rv, rv))


def hukuhara_derivative(f: GridFunction) -> GridFunction:
    """Node-wise difference quotients of Hukuhara differences.

    Interior nodes average the forward and backward quotient (a central
    quotient for endpoint-linear payloads); endpoints use the one-sided
    quotient.  Raises NoDifference when a required difference is missing.
    """
    step = f.step
    c = f.data
    if f.model == ls.INTERVAL:
        shrinks = np.diff(c[:, 1] - c[:, 0]) < -1e-9
        if np.any(shrinks):
            raise NoDifference(f"interval width decreases across node {int(np.argmax(shrinks))}")
    dc = np.empty_like(c)
    dc[1:-1] = (c[2:] - c[:-2]) / (2.0 * step)
    dc[0] = (c[1] - c[0]) / step
    dc[-1] = (c[-1] - c[-2]) / step
    if f.model == ls.INTERVAL:
        np.maximum(dc[:, 0], dc[:, 1], out=dc[:, 1])  # clamp float noise on equal widths
    return GridFunction(f.a, f.b, f.model, dc)


def to_csv(f: GridFunction) -> str:
    """The nodes and values of a real grid function as ``t,v`` CSV rows."""
    if f.model != ls.REAL:
        raise ModelMismatch("CSV export supports real grid functions")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "v"])
    for t, v in zip(f.nodes, f.data):
        w.writerow([f"{t:.12g}", f"{v:.12g}"])
    return buf.getvalue()
