"""Functions [a, b] -> X on a uniform grid.

A grid function carries real, interval or union values.  Real payloads
carry piecewise-linear semantics between nodes; set payloads (interval,
union) use per-node step semantics.  Integration always uses the
trapezoid rule on convexified endpoint payloads, which is exact for
piecewise-linear real data.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import lspace as ls
from .errors import ModelMismatch, NoDifference, NonIsotropic, NotInvertible
from .modulus import Modulus
from .poly import poly_integral

DEFAULT_GRID = 4096

#: the value models a grid function carries
GRID_MODELS = (ls.REAL, ls.INTERVAL, ls.UNION)


def _grid_model(model: str) -> str:
    if model not in GRID_MODELS:
        raise ModelMismatch(f"grid functions carry real, interval or union values, not {model}")
    return model


def eps_tolerance(omega: Modulus, length: float, n_cells: int) -> float:
    """Grid-scaled tolerance for bound-vs-oracle comparisons."""
    return float(omega(2.0 * length / n_cells)) + 1e-9


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Uniform-grid representation of f: [a, b] -> X, for X the real line
    or the compact subsets of R.

    ``data`` layout: real -> (n+1,) float array; interval and union share
    one (n+1, k, 2) set array whose row i holds the sorted disjoint
    components (lo, hi) of the value at node i, with k = 1 for intervals.
    A node with fewer than k components repeats its last one; the set is
    the same, and ``value(i)`` merges the repeats away.  The interval and
    union tags only select the ``Element`` rule of ``value(i)`` and
    ``hukuhara_derivative``.
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
        elif d.ndim != 3 or d.shape[2] != 2 or (self.model == ls.INTERVAL and d.shape[1] != 1):
            k = 1 if self.model == ls.INTERVAL else "k"
            raise ValueError(f"{self.model} payloads need an (n+1, {k}, 2) array")
        elif np.any(d[..., 0] > d[..., 1] + 1e-12):
            raise ValueError("set payloads require lo <= hi")
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

    def value(self, i: int) -> ls.Element:
        if self.model == ls.REAL:
            return ls.real(self.data[i])
        if self.model == ls.INTERVAL:
            return ls.interval(*self.data[i, 0])
        return ls.union(self.data[i])

    def values(self) -> List[ls.Element]:
        return [self.value(i) for i in range(self.n_cells + 1)]

    def value_at(self, t: float) -> ls.Element:
        """Piecewise-linear evaluation for real values; nearest node otherwise."""
        t = float(min(max(t, self.a), self.b))
        if self.model == ls.REAL:
            return ls.real(float(np.interp(t, self.nodes, self.data)))
        i = int(round((t - self.a) / self.step))
        return self.value(min(max(i, 0), self.n_cells))


def stack_payloads(values: Sequence[ls.Element]) -> Tuple[str, np.ndarray]:
    """The common model of ``values`` and their payloads as one array, in
    the ``GridFunction.data`` layout (unions padded to a common count)."""
    model = values[0].model
    if any(v.model != model for v in values):
        raise ModelMismatch("all node values must share one model")
    if _grid_model(model) == ls.UNION:
        k = max(len(v.payload) for v in values)
        return model, np.array(
            [v.payload + v.payload[-1:] * (k - len(v.payload)) for v in values], dtype=float
        )
    data = np.array([v.payload for v in values], dtype=float)
    return model, data[:, None, :] if model == ls.INTERVAL else data


def from_values(values: Sequence[ls.Element], a: float, b: float) -> GridFunction:
    model, data = stack_payloads(values)
    return GridFunction(float(a), float(b), model, data)


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
    """The (m, 1, 2) set array of the intervals [lo[i], hi[i]]."""
    return np.stack([lo, hi], axis=1)[:, None, :]


def _one_sided_hausdorff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sup over p in x[i] of dist(p, y[i]), node by node, for unions stored
    as (m, k, 2) arrays.  The candidates are those of
    ``lspace._one_sided_hausdorff``: the component endpoints of x[i] and
    the gap midpoints of y[i] that lie in x[i]."""
    mids = 0.5 * (y[:, :-1, 1] + y[:, 1:, 0])
    m = mids[:, :, None]
    inside = np.any((x[:, None, :, 0] <= m) & (m <= x[:, None, :, 1]), axis=2)
    p = np.concatenate([x[:, :, 0], x[:, :, 1], mids], axis=1)[:, :, None]
    lo, hi = y[:, None, :, 0], y[:, None, :, 1]
    d = np.where((lo <= p) & (p <= hi), 0.0, np.minimum(np.abs(p - lo), np.abs(p - hi)))
    d = d.min(axis=2)
    # a gap midpoint outside x[i] is no candidate; 0 never raises the max
    gaps = d[:, d.shape[1] - mids.shape[1]:]
    gaps[~inside] = 0.0
    return d.max(axis=1)


def _set_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node-wise Hausdorff distance between two (m, k, 2) set arrays;
    equals ``lspace.dist`` of the node values bit for bit.  Two interval
    arrays (k = 1) take the closed form max(|lo - lo'|, |hi - hi'|)."""
    if x.shape[1] == y.shape[1] == 1:
        return np.maximum(np.abs(x[:, 0, 0] - y[:, 0, 0]), np.abs(x[:, 0, 1] - y[:, 0, 1]))
    return np.maximum(_one_sided_hausdorff(x, y), _one_sided_hausdorff(y, x))


def _pair_dist(f: GridFunction, k: int) -> np.ndarray:
    """Distances dist(f(t_i), f(t_{i+k})) for all i."""
    if f.model == ls.REAL:
        return np.abs(f.data[k:] - f.data[:-k])
    return _set_dist(f.data[:-k], f.data[k:])


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
    """Max over nodes of dist(f(t), 0)."""
    if f.model == ls.REAL:
        return float(np.max(np.abs(f.data)))
    # the Hausdorff distance of a set to {0} is attained at a hull end
    lo, hi = _convexified_arrays(f)
    return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))


def sup_dist(f: GridFunction, g: GridFunction) -> float:
    """C-metric (max over nodes) between two grid functions on one grid."""
    if f.n_cells != g.n_cells or abs(f.a - g.a) > 1e-12 or abs(f.b - g.b) > 1e-12:
        raise ValueError("grids differ")
    if f.model == g.model == ls.REAL:
        return float(np.max(np.abs(f.data - g.data)))
    if ls.REAL in (f.model, g.model):
        raise ModelMismatch(f"cannot compare {f.model} with {g.model}")
    return float(np.max(_set_dist(f.data, g.data)))


def _convexified_arrays(f: GridFunction) -> List[np.ndarray]:
    """Endpoint arrays after applying the convexifying operator nodewise."""
    if f.model == ls.REAL:
        return [f.data]
    return [f.data[:, 0, 0], f.data[:, -1, 1]]


def _integral_element(f: GridFunction, vals: List[float]) -> ls.Element:
    if f.model == ls.REAL:
        return ls.real(vals[0])
    return ls.interval(vals[0], vals[1])


def integrate(f: GridFunction, c: Optional[float] = None, d: Optional[float] = None) -> ls.Element:
    """Integral over [c, d] (default: full domain); the result is convex."""
    c = f.a if c is None else float(c)
    d = f.b if d is None else float(d)
    if c < f.a - 1e-12 or d > f.b + 1e-12:
        raise ValueError("integration range outside the domain")
    comps = _convexified_arrays(f)
    nodes = f.nodes
    vals = [poly_integral(nodes, arr, c, d) for arr in comps]
    return _integral_element(f, vals)


def cumtrapz(y: np.ndarray, step: float) -> np.ndarray:
    """Running trapezoid integral of node values ``y`` on a uniform grid of
    spacing ``step``, starting from 0 at the first node."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * step)))


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
    rv = f.data * ls.convexify(x).payload[0]  # invertible sets are points
    return GridFunction(f.a, f.b, x.model, interval_array(rv, rv))


def hukuhara_derivative(f: GridFunction) -> GridFunction:
    """Node-wise difference quotients of Hukuhara differences.

    Interior nodes average the forward and backward quotient (a central
    quotient for endpoint-linear payloads); endpoints use the one-sided
    quotient.  Raises NoDifference when a required difference is missing.
    """
    step = f.step
    if f.model == ls.UNION:
        vals = f.values()
        out = []
        for i in range(len(vals)):
            if i == 0:
                d = ls.hukuhara_diff(vals[1], vals[0])
                out.append(ls.scale(1.0 / step, d))
            elif i == len(vals) - 1:
                d = ls.hukuhara_diff(vals[-1], vals[-2])
                out.append(ls.scale(1.0 / step, d))
            else:
                fwd = ls.hukuhara_diff(vals[i + 1], vals[i])
                bwd = ls.hukuhara_diff(vals[i], vals[i - 1])
                out.append(ls.scale(0.5 / step, ls.add(fwd, bwd)))
        return from_values(out, f.a, f.b)
    c = f.data
    if f.model == ls.INTERVAL:
        shrinks = np.diff(c[:, 0, 1] - c[:, 0, 0]) < -1e-9
        if np.any(shrinks):
            raise NoDifference(f"interval width decreases across node {int(np.argmax(shrinks))}")
    dc = np.empty_like(c)
    dc[1:-1] = (c[2:] - c[:-2]) / (2.0 * step)
    dc[0] = (c[1] - c[0]) / step
    dc[-1] = (c[-1] - c[-2]) / step
    if f.model == ls.INTERVAL:
        np.maximum(dc[:, 0, 0], dc[:, 0, 1], out=dc[:, 0, 1])  # clamp float noise on equal widths
    return GridFunction(f.a, f.b, f.model, dc)


def to_csv(f: GridFunction) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    if f.model == ls.REAL:
        w.writerow(["t", "v"])
        for t, v in zip(f.nodes, f.data):
            w.writerow([f"{t:.12g}", f"{v:.12g}"])
    elif f.model == ls.INTERVAL:
        w.writerow(["t", "lo", "hi"])
        for t, (lo, hi) in zip(f.nodes, f.data[:, 0]):
            w.writerow([f"{t:.12g}", f"{lo:.12g}", f"{hi:.12g}"])
    else:
        raise ModelMismatch("CSV export supports real and interval models")
    return buf.getvalue()
