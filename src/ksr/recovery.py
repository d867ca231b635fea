"""Optimal recovery from mean values and from node values.

Covers: recovery of the pointwise convexification and of the integral
from n cell means of half-width h; recovery of the identity and of the
Hukuhara derivative from values at partition nodes; the corresponding
optimal error values in closed form; and the lower-bound extremal
functions whose cell means (resp. node values) vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from . import gridfn as gf
from . import lspace as ls
from .errors import KnotViolation, NonConcave
from .modulus import Modulus

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
    means: Tuple[ls.Element, ...]


def mean_info(f: gf.GridFunction, knots: Sequence[float], h: float) -> MeanInfo:
    """Cell means (1/2h) int_{t_k - h}^{t_k + h} f."""
    knots = np.asarray(knots, dtype=float)
    validate_knots(knots, h, f.a, f.b)
    means = tuple(
        ls.scale(1.0 / (2.0 * h), gf.integrate(f, t - h, t + h)) for t in knots
    )
    return MeanInfo(f.a, f.b, knots, float(h), means)


# ---------------------------------------------------------------------------
# recovery of the convexifying operator


def recover_convexify(info: MeanInfo, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Piecewise-constant method: on each tau-cell, output the cell mean."""
    tau = tau_of(info.knots, info.a, info.b)
    ts = np.linspace(info.a, info.b, n + 1)
    idx = np.clip(np.searchsorted(tau, ts, side="right") - 1, 0, len(info.knots) - 1)
    model, means = gf.stack_payloads(info.means)
    return gf.GridFunction(info.a, info.b, model, means[idx])


def error_convexify(n: int, h: float, omega: Modulus, length: float) -> float:
    """Optimal error of recovering P(f) from n means of half-width h."""
    half_cell = length / (2 * n)
    if not 0.0 < h <= half_cell + 1e-12:
        raise KnotViolation("need 0 < h <= (b-a)/(2n)")
    h = min(h, half_cell)
    return omega.primitive(half_cell - h, half_cell + h) / (2.0 * h)


# ---------------------------------------------------------------------------
# recovery of the integral


def recover_integral(info: MeanInfo) -> ls.Element:
    """Method ((b-a)/n) * sum of cell means."""
    acc = info.means[0]
    for m in info.means[1:]:
        acc = ls.add(acc, m)
    return ls.scale((info.b - info.a) / len(info.knots), acc)


def error_integral(n: int, h: float, omega: Modulus, length: float) -> float:
    half_cell = length / (2 * n)
    if not 0.0 < h <= half_cell + 1e-12:
        raise KnotViolation("need 0 < h <= (b-a)/(2n)")
    h = min(h, half_cell)
    return 2.0 * n * (1.0 - 2.0 * n * h / length) * omega.primitive(0.0, half_cell)


# ---------------------------------------------------------------------------
# lower-bound extremal functions (vanishing cell means)


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
    right = np.searchsorted(knots, ts)
    below = np.maximum(right - 1, 0)
    above = np.minimum(right, nk - 1)
    near = np.where(np.abs(knots[below] - ts) <= np.abs(knots[above] - ts), below, above)
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
    nearest = knots[np.argmin(np.abs(ts[:, None] - knots[None, :]), axis=1)]
    vals = y0(ts - nearest) + C
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


def polyline(values: Sequence[ls.Element], partition: Sequence[float], n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Interpolating polygonal function through convex node values."""
    partition = _check_partition(np.asarray(partition, dtype=float))
    if len(values) != len(partition):
        raise ValueError("one value per partition node required")
    for v in values:
        if not ls.is_convex(v):
            raise ValueError("polyline interpolation requires convex node values")
    model, ys = gf.stack_payloads(values)
    a, b = float(partition[0]), float(partition[-1])
    ts = np.linspace(a, b, n + 1)
    if model == ls.REAL:
        return gf.GridFunction(a, b, ls.REAL, np.interp(ts, partition, ys))
    lo = np.interp(ts, partition, ys[:, 0])
    hi = np.interp(ts, partition, ys[:, 1])
    return gf.GridFunction(a, b, ls.INTERVAL, gf.interval_array(lo, hi))


def polyline_uniform_error(n: int, omega: Modulus, length: float) -> float:
    """Optimal identity-recovery error from n+1 uniform node values."""
    return 0.25 * omega.primitive(0.0, length / n)


# ---------------------------------------------------------------------------
# the node-vanishing slope construction (omega-spline)


def _spline_G(etas: np.ndarray, signs: np.ndarray, omega: Modulus, pts: np.ndarray, a: float) -> np.ndarray:
    """Exact cumulative integral of the slope function at given points."""

    def hprim(z: float) -> float:
        return math.copysign(0.25 * omega.primitive(0.0, 2.0 * abs(z)), z)

    mids = 0.5 * (etas[:-1] + etas[1:])
    breaks = np.unique(np.concatenate(([a], etas, mids, pts)))
    x0, x1 = breaks[:-1], breaks[1:]
    mid = 0.5 * (x0 + x1)
    # nearest break position eta (ties to the lower index) and the sign
    idx = np.searchsorted(etas, mid, side="left")
    below = np.maximum(idx - 1, 0)
    above = np.minimum(idx, len(etas) - 1)
    eta = etas[np.where(np.abs(etas[below] - mid) <= np.abs(etas[above] - mid), below, above)]
    s = signs[np.minimum(idx, len(signs) - 1)]
    # the primitive stays scalar (array powers differ in the last bits);
    # consecutive pieces about one eta share an end, so evaluate each once
    z, inv = np.unique(np.concatenate((x1 - eta, x0 - eta)), return_inverse=True)
    hz = np.array([hprim(zi) for zi in z])[inv]
    m = len(x0)
    table_v = np.cumsum(np.concatenate(([0.0], s * (hz[:m] - hz[m:]))))
    return np.interp(pts, breaks, table_v)


def omega_spline(pieces: int, omega: Modulus, a: float, b: float, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Function in the derivative-bounded class vanishing at the nodes of
    the uniform partition of [a, b] into ``pieces`` cells, with sup norm
    (1/4) int_0^{(b-a)/pieces} w.

    The slope alternates in sign between break positions eta; the cell
    midpoints solve the node conditions in closed form, and the node
    residuals are verified post hoc.
    """
    if not omega.concave:
        raise NonConcave("the node-vanishing construction requires a concave modulus")
    a, b = float(a), float(b)
    partition = _check_partition(np.linspace(a, b, pieces + 1))
    signs = np.array([(-1.0) ** i for i in range(pieces + 1)])
    etas = 0.5 * (partition[:-1] + partition[1:])
    resid = float(np.max(np.abs(_spline_G(etas, signs, omega, partition[1:], a))))
    tol = 1e-7 * max(1.0, polyline_uniform_error(pieces, omega, b - a))  # relative to the sup norm
    if resid > tol:
        raise ArithmeticError(f"omega-spline node residuals {resid:.2e} exceed {tol:.2e}")
    ts = np.linspace(a, b, n + 1)
    return gf.GridFunction(a, b, ls.REAL, _spline_G(etas, signs, omega, ts, a))


# ---------------------------------------------------------------------------
# derivative recovery


def polyline_derivative(
    values: Sequence[ls.Element], partition: Sequence[float], n: int = gf.DEFAULT_GRID
) -> gf.GridFunction:
    """Step-function derivative of the interpolating polygonal function:
    the per-segment Hukuhara difference quotient."""
    partition = _check_partition(np.asarray(partition, dtype=float))
    quotients = [
        ls.scale(1.0 / (t1 - t0), ls.hukuhara_diff(v1, v0))
        for (t0, t1, v0, v1) in zip(partition, partition[1:], values, values[1:])
    ]
    a, b = float(partition[0]), float(partition[-1])
    ts = np.linspace(a, b, n + 1)
    idx = np.clip(np.searchsorted(partition, ts, side="right") - 1, 0, len(quotients) - 1)
    model, data = gf.stack_payloads(quotients)
    return gf.GridFunction(a, b, model, data[idx])


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

    def cumint_g0(t: float) -> float:
        # per cell, g0 is w(dist to the even end); each full cell carries I(0, delta)
        k = min(int((t - a) / delta), n - 1)
        acc = k * omega.primitive(0.0, delta)
        t0 = nodes[k]
        if k % 2 == 0:
            acc += omega.primitive(0.0, t - t0)
        else:
            acc += omega.primitive(nodes[k + 1] - t, delta)
        return acc

    ts = np.linspace(a, b, grid_n + 1)
    vals = np.array([cumint_g0(t) for t in ts]) - mean * (ts - a)
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
