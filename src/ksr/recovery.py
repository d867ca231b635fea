"""Optimal recovery from mean values and from node values.

Covers: recovery of the pointwise convexification and of the integral
from n cell means of half-width h; recovery of the identity and of the
Hukuhara derivative from values at partition nodes; the corresponding
optimal error values in closed form; and the lower-bound extremal
functions whose cell means (resp. node values) vanish.

Both kinds of information are arrays in the ``GridFunction.data``
layout: the n window means (``MeanInfo.means``) and the n + 1 node
values, one row per node, which ``gridfn.values_at`` reads off a grid
function by its one evaluation rule.

The methods output grid functions on the uniform grid of their domain.
Its nodes and the map from each node to the cell of the knots or the
partition that holds it depend on the grid and the cells only, so they
are cached (``_grid_nodes``, ``_node_cells``): a sweep builds them once
and reads them for every sample.  Step outputs gather their rows with
``np.take(rows, cells, axis=0)``, which gives the bits of ``rows[cells]``
at a small part of its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import gridfn as gf
from . import lspace as ls
from .errors import KnotViolation, NonConcave
from .modulus import Modulus
from .poly import sorted_distinct

__all__ = [
    "optimal_knots",
    "tau_of",
    "validate_knots",
    "MeanInfo",
    "mean_info",
    "recover_convexify",
    "error_convexify",
    "recover_integral",
    "error_integral",
    "lower_extremal_mean",
    "lower_extremal_integral",
    "polyline",
    "polyline_uniform_error",
    "omega_spline",
    "polyline_derivative",
    "derivative_recovery_value",
    "derivative_extremal",
    "RecoveryReport",
]


# ---------------------------------------------------------------------------
# knots and mean-value information


def optimal_knots(n: int, a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal knot vector t*_k = a + (2k-1)(b-a)/(2n) and its cell
    boundaries tau."""
    if n < 1:
        raise KnotViolation("need at least one knot")
    k = np.arange(1, n + 1)
    tstar = a + (2 * k - 1) * (b - a) / (2 * n)
    return tstar, tau_of(tstar, a, b)


def tau_of(knots: np.ndarray, a: float, b: float) -> np.ndarray:
    knots = np.asarray(knots, dtype=float)
    mids = 0.5 * (knots[:-1] + knots[1:])
    return np.concatenate(([a], mids, [b]))


def validate_knots(knots: np.ndarray, h: float, a: float, b: float):
    knots = np.asarray(knots, dtype=float)
    if h <= 0.0:
        raise KnotViolation("half-width h must be positive")
    if knots[0] - h < a - 1e-12 or knots[-1] + h > b + 1e-12:
        raise KnotViolation("mean windows must stay inside [a, b]")
    if np.any((knots[1:] - h) - (knots[:-1] + h) < -1e-12):
        raise KnotViolation("mean windows must not overlap")


@dataclass(frozen=True)
class MeanInfo:
    a: float
    b: float
    knots: np.ndarray
    h: float
    model: str
    #: row k is the mean over window k, in the ``GridFunction.data`` layout
    means: np.ndarray


def mean_info(f: gf.GridFunction, knots: Sequence[float], h: float) -> MeanInfo:
    """Cell means (1/2h) int_{t_k - h}^{t_k + h} f."""
    knots = np.asarray(knots, dtype=float)
    validate_knots(knots, h, f.a, f.b)
    means = gf.window_integrals(f, knots - h, knots + h) * (1.0 / (2.0 * h))
    return MeanInfo(f.a, f.b, knots, float(h), f.model, means)


# ---------------------------------------------------------------------------
# the output grid and its node-to-cell map


@lru_cache(maxsize=16)
def _grid_nodes(a: float, b: float, n: int) -> np.ndarray:
    """The n + 1 nodes of the uniform grid on [a, b], read-only."""
    ts = np.linspace(a, b, n + 1)
    ts.flags.writeable = False
    return ts


@lru_cache(maxsize=16)
def _node_cells(breaks: Tuple[float, ...], a: float, b: float, n: int) -> np.ndarray:
    """For each node of ``_grid_nodes(a, b, n)``, the cell of the increasing
    ``breaks`` that holds it: the last break at or below the node, clipped
    to the cells, so that b falls in the last cell.  Read-only; it depends
    on its key only, so a sweep builds it once for all its samples."""
    below = np.searchsorted(np.array(breaks), _grid_nodes(a, b, n), side="right") - 1
    idx = np.clip(below, 0, len(breaks) - 2)
    idx.flags.writeable = False
    return idx


# ---------------------------------------------------------------------------
# recovery of the convexifying operator


def recover_convexify(info: MeanInfo, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Piecewise-constant method: on each tau-cell, output the cell mean.
    Means of rows with lo <= hi have lo <= hi (``gridfn.window_integrals``
    takes both columns with one set of nonnegative weights, in one order),
    so the output skips the constructor's lo <= hi scan."""
    tau = tau_of(info.knots, info.a, info.b)
    idx = _node_cells(tuple(tau.tolist()), info.a, info.b, n)
    return gf.from_ordered_rows(info.a, info.b, info.model, np.take(info.means, idx, axis=0))


def error_convexify(n: int, h: float, omega: Modulus, length: float) -> float:
    """Optimal error of recovering P(f) from n means of half-width h."""
    half_cell = length / (2 * n)
    if not 0.0 < h <= half_cell + 1e-12:
        raise KnotViolation("need 0 < h <= (b-a)/(2n)")
    h = min(h, half_cell)
    return omega.primitive(half_cell - h, half_cell + h) / (2.0 * h)


# ---------------------------------------------------------------------------
# recovery of the integral


def recover_integral(info: MeanInfo) -> np.ndarray:
    """Method ((b-a)/n) * sum of cell means, as a row of ``info.means``."""
    total = np.sum(info.means, axis=0)
    return (info.b - info.a) / len(info.knots) * total


def error_integral(n: int, h: float, omega: Modulus, length: float) -> float:
    half_cell = length / (2 * n)
    if not 0.0 < h <= half_cell + 1e-12:
        raise KnotViolation("need 0 < h <= (b-a)/(2n)")
    h = min(h, half_cell)
    return 2.0 * n * (1.0 - 2.0 * n * h / length) * omega.primitive(0.0, half_cell)


# ---------------------------------------------------------------------------
# lower-bound extremal functions (vanishing cell means)


def _nearest_knot(knots: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Index of the knot nearest to each point of ``ts``, ties to the lower
    index; ``knots`` is increasing.  Only the two knots around a point are
    compared, so no (points x knots) table is built."""
    right = np.searchsorted(knots, ts)
    below = np.maximum(right - 1, 0)
    above = np.minimum(right, len(knots) - 1)
    return np.where(np.abs(knots[below] - ts) <= np.abs(knots[above] - ts), below, above)


def lower_extremal_mean(
    knots: Sequence[float], h: float, omega: Modulus, a: float, b: float, n: int = gf.DEFAULT_GRID
) -> gf.GridFunction:
    """Real function with zero mean on every information window whose sup
    norm is at least the optimal convexification-recovery error.

    Built from a centered profile C - w(|u - p|) around the tau-point of
    a longest knot cell, mirrored window by window across the rest of
    the domain (mirroring preserves the zero means).
    """
    knots = np.asarray(knots, dtype=float)
    validate_knots(knots, h, a, b)
    nk = len(knots)
    tau = tau_of(knots, a, b)
    # the 2n cells (tau_i, t_i), (t_i, tau_{i+1}); pick the longest
    best = None
    for i in range(nk):
        left_len = knots[i] - tau[i]
        right_len = tau[i + 1] - knots[i]
        if best is None or left_len > best[0] + 1e-15:
            best = (left_len, "left", i)
        if right_len > best[0] + 1e-15:
            best = (right_len, "right", i)
    d, side, istar = best
    p = tau[istar] if side == "left" else tau[istar + 1]
    C = omega.primitive(d - h, d + h) / (2.0 * h)

    # windows covered by the raw profile (those adjacent to p)
    if side == "left":
        first, last = (istar, istar) if istar == 0 else (istar - 1, istar)
    else:
        first, last = (istar, istar) if istar == nk - 1 else (istar, istar + 1)
    lo_raw = a if (side == "left" and istar == 0) else knots[first] - h
    hi_raw = b if (side == "right" and istar == nk - 1) else knots[last] + h

    # Each node u gets an evaluation point x and a window w.  Inside window
    # w (nearest knot, ties to the lower index) x = u.  Between windows the
    # profile is held at the edge of the window on the left (x = t_w + h);
    # before the first and after the last window, at their outer edges.
    # Nodes of the raw region that lie in no window take x = u and a
    # covered window, whose profile is raw itself.
    ts = np.linspace(a, b, n + 1)
    near = _nearest_knot(knots, ts)
    below = np.maximum(np.searchsorted(knots, ts) - 1, 0)
    in_win = (knots[near] - h <= ts) & (ts <= knots[near] + h)
    in_raw = ~in_win & (lo_raw <= ts) & (ts <= hi_raw)
    x = np.where(in_win | in_raw, ts, knots[below] + h)
    w = np.where(in_win, near, np.where(in_raw, first, below))
    before = ~(in_win | in_raw) & (ts < knots[0] - h)
    x[before], w[before] = knots[0] - h, 0
    after = ~(in_win | in_raw | before) & (ts > knots[-1] + h)
    x[after], w[after] = knots[-1] + h, nk - 1

    # Window k > last mirrors window k-1 across (t_{k-1} + t_k)/2, and
    # window k < first mirrors window k+1; unfold each chain down to raw.
    for k in range(nk - 1, last, -1):
        sel = w >= k
        x[sel] = (knots[k - 1] + knots[k]) - x[sel]
    for k in range(first):
        sel = w <= k
        x[sel] = (knots[k] + knots[k + 1]) - x[sel]
    vals = C - np.asarray(omega(np.abs(x - p)), dtype=float)
    return gf.GridFunction(a, b, ls.REAL, vals)


def lower_extremal_integral(
    knots: Sequence[float], h: float, omega: Modulus, a: float, b: float, n: int = gf.DEFAULT_GRID
) -> gf.GridFunction:
    """Real function with vanishing window means whose integral reaches
    the optimal integral-recovery error (concave modulus)."""
    if not omega.concave:
        raise NonConcave("the integral lower bound requires a concave modulus")
    knots = np.asarray(knots, dtype=float)
    validate_knots(knots, h, a, b)
    nk = len(knots)
    length = b - a
    mu = 2.0 * nk * h / length
    half_cell = length / (2.0 * nk)
    if mu > 1.0 + 1e-12:
        raise KnotViolation("need h <= (b-a)/(2n)")
    mu = min(mu, 1.0)

    def y0(t):
        t = np.abs(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        m1 = t <= h
        out[m1] = -mu * np.asarray(omega((h - t[m1]) / mu), dtype=float)
        m2 = (t > h) & (t <= half_cell)
        if mu < 1.0:
            out[m2] = (1.0 - mu) * np.asarray(omega((t[m2] - h) / (1.0 - mu)), dtype=float)
            cap = (1.0 - mu) * float(omega((half_cell - h) / (1.0 - mu)))
        else:
            out[m2] = 0.0
            cap = 0.0
        out[t > half_cell] = cap
        return out

    C = mu * mu * omega.primitive(0.0, half_cell) / h
    ts = np.linspace(a, b, n + 1)
    vals = y0(ts - knots[_nearest_knot(knots, ts)]) + C
    return gf.GridFunction(a, b, ls.REAL, vals)


# ---------------------------------------------------------------------------
# polyline interpolation on a partition


def _check_partition(partition: np.ndarray, a: Optional[float] = None, b: Optional[float] = None) -> np.ndarray:
    partition = np.asarray(partition, dtype=float)
    if np.any(np.diff(partition) <= 0):
        raise ValueError("partition nodes must be strictly increasing")
    if a is not None and (abs(partition[0] - a) > 1e-12 or abs(partition[-1] - b) > 1e-12):
        raise ValueError("partition must span [a, b]")
    return partition


def polyline(model: str, rows: np.ndarray, partition: Sequence[float], n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Interpolating polygonal function through the node values ``rows``
    of ``model``, in the ``GridFunction.data`` layout (real and interval
    rows are convex by construction)."""
    partition = _check_partition(np.asarray(partition, dtype=float))
    if len(rows) != len(partition):
        raise ValueError("one value per partition node required")
    a, b = float(partition[0]), float(partition[-1])
    ts = _grid_nodes(a, b, n)
    if model == ls.REAL:
        return gf.GridFunction(a, b, ls.REAL, np.interp(ts, partition, rows))
    lo = np.interp(ts, partition, rows[:, 0])
    hi = np.interp(ts, partition, rows[:, 1])
    return gf.GridFunction(a, b, ls.INTERVAL, gf.interval_array(lo, hi))


def polyline_uniform_error(n: int, omega: Modulus, length: float) -> float:
    """Optimal identity-recovery error from n+1 uniform node values."""
    return 0.25 * omega.primitive(0.0, length / n)


# ---------------------------------------------------------------------------
# the node-vanishing slope construction (omega-spline)


def _spline_G(etas: np.ndarray, signs: np.ndarray, omega: Modulus, pts: np.ndarray, a: float) -> np.ndarray:
    """Exact cumulative integral of the slope function at given points."""
    mids = 0.5 * (etas[:-1] + etas[1:])
    breaks = sorted_distinct(np.concatenate(([a], etas, mids, pts)))
    x0, x1 = breaks[:-1], breaks[1:]
    mid = 0.5 * (x0 + x1)
    # the nearest break position eta, and the slope's sign past the etas below mid
    eta = etas[_nearest_knot(etas, mid)]
    s = signs[np.minimum(np.searchsorted(etas, mid), len(signs) - 1)]
    z = np.concatenate((x1 - eta, x0 - eta))
    hz = np.copysign(0.25 * omega.primitive(0.0, 2.0 * np.abs(z)), z)
    m = len(x0)
    table_v = np.cumsum(np.concatenate(([0.0], s * (hz[:m] - hz[m:]))))
    return np.interp(pts, breaks, table_v)


def omega_spline(pieces: int, omega: Modulus, a: float, b: float, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Function in the derivative-bounded class vanishing at the nodes of
    the uniform partition of [a, b] into ``pieces`` cells, with sup norm
    (1/4) int_0^{(b-a)/pieces} w.

    The slope alternates in sign between break positions eta; the cell
    midpoints solve the node conditions in closed form, and the node
    residuals are verified post hoc.  The construction runs in coordinates
    local to a, on [0, b - a], so that its rounding scales with the length
    of the domain and not with its offset; the grid function is then
    placed on [a, b].
    """
    if not omega.concave:
        raise NonConcave("the node-vanishing construction requires a concave modulus")
    a, b = float(a), float(b)
    length = b - a
    partition = _check_partition(np.linspace(0.0, length, pieces + 1))
    signs = np.array([(-1.0) ** i for i in range(pieces + 1)])
    etas = 0.5 * (partition[:-1] + partition[1:])
    resid = float(np.max(np.abs(_spline_G(etas, signs, omega, partition[1:], 0.0))))
    tol = 1e-7 * max(1.0, polyline_uniform_error(pieces, omega, length))  # relative to the sup norm
    if resid > tol:
        raise ArithmeticError(f"omega-spline node residuals {resid:.2e} exceed {tol:.2e}")
    ts = np.linspace(0.0, length, n + 1)
    return gf.GridFunction(a, b, ls.REAL, _spline_G(etas, signs, omega, ts, 0.0))


# ---------------------------------------------------------------------------
# derivative recovery


def polyline_derivative(
    model: str, rows: np.ndarray, partition: Sequence[float], n: int = gf.DEFAULT_GRID
) -> gf.GridFunction:
    """Step-function derivative of the interpolating polygonal function
    through the node values ``rows``: the per-segment Hukuhara difference
    quotient ``gf.hukuhara_quotient``.  Raises NoDifference where an
    interval shrinks by more than ``ls.EQ_TOL``."""
    partition = _check_partition(np.asarray(partition, dtype=float))
    quotients = gf.hukuhara_quotient(model, rows[1:], rows[:-1], 1.0 / np.diff(partition))
    a, b = float(partition[0]), float(partition[-1])
    idx = _node_cells(tuple(partition.tolist()), a, b, n)
    return gf.GridFunction(a, b, model, np.take(quotients, idx, axis=0))


def derivative_recovery_value(n: int, omega: Modulus, length: float) -> float:
    return n / length * omega.primitive(0.0, length / n)


def derivative_extremal(n: int, omega: Modulus, a: float, b: float, grid_n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Antiderivative of g0 - mean(g0), where g0 is the lower envelope of
    cones centered at the even-index uniform nodes; vanishes at every
    uniform node and its slope at a attains the recovery value."""
    length = b - a
    delta = length / n
    nodes = a + delta * np.arange(n + 1)
    mean = derivative_recovery_value(n, omega, length)

    ts = np.linspace(a, b, grid_n + 1)
    # the integral of g0 up to t: per cell, g0 is w(dist to the even end),
    # so each full cell carries I(0, delta) and the cell of t a part of it
    k = np.minimum(((ts - a) / delta).astype(int), n - 1)
    part = np.empty_like(ts)
    even = k % 2 == 0
    # (t - a) / delta may round up to k for a t a hair below nodes[k]:
    # clamp its distances to the cell
    part[even] = omega.primitive(0.0, np.maximum(ts[even] - nodes[k[even]], 0.0))
    odd = ~even
    part[odd] = omega.primitive(np.minimum(nodes[k[odd] + 1] - ts[odd], delta), delta)
    vals = (k * omega.primitive(0.0, delta) + part) - mean * (ts - a)
    return gf.GridFunction(a, b, ls.REAL, vals)


@dataclass(frozen=True)
class RecoveryReport:
    """Certification summary for one recovery problem.  ``trials`` is the
    number of class samples the sweep drew, and ``extremal`` is the real
    lower-bound profile the certification was built on."""

    problem: str
    theoretical: float
    empirical_upper: float
    lower_bound: float
    trials: int
    tolerance: float
    extremal: Optional[gf.GridFunction] = field(default=None, repr=False, compare=False)

    @property
    def sound(self) -> bool:
        return self.empirical_upper <= self.theoretical + self.tolerance

    @property
    def attained(self) -> bool:
        return abs(self.lower_bound - self.theoretical) <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "problem": self.problem,
            "theoretical": self.theoretical,
            "empirical_upper": self.empirical_upper,
            "lower_bound": self.lower_bound,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "sound": self.sound,
            "attained": self.attained,
        }
