"""Validated moduli of continuity.

Three closed-form families are supported:

* ``PowerModulus``: w(t) = K t^alpha with K > 0, 0 < alpha <= 1,
* ``PiecewiseLinearConcave``: a nondecreasing subadditive polyline
  through (0, 0), extended by its last slope,
* ``MinLinearConstant``: w(t) = min(K t, C) with K > 0, C > 0.

``validate`` checks these hypotheses exactly.  Evaluation and the
primitive I(alpha, beta) = int_alpha^beta w(s) ds are exact closed forms,
so that bound computations downstream carry no quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidModulus

__all__ = [
    "Modulus",
    "PowerModulus",
    "PiecewiseLinearConcave",
    "MinLinearConstant",
    "power",
    "plconcave",
    "minlin",
    "parse_modulus",
    "validate",
    "ValidationReport",
]


def _nonneg(t):
    """Validate arguments; float dust barely below zero is clamped.

    A Python or NumPy scalar skips the array reductions and comes back as
    an ``np.float64``, so the families still evaluate it with the same
    ufuncs as an array; ``0.0 if x <= 0.0`` maps -0.0 to +0.0 and keeps nan,
    as ``np.maximum(x, 0.0)`` does.  An array whose least number is > 0
    needs no clamp and comes back as it is."""
    if isinstance(t, (float, int)):
        x = float(t)
        if x < -1e-12:
            raise ValueError("modulus arguments must be >= 0")
        return np.float64(0.0 if x <= 0.0 else x)
    t = np.asarray(t, dtype=float)
    # one reduction: fmin passes over nan, so a negative element is seen
    # even beside a nan
    lo = np.fmin.reduce(t, axis=None) if t.size else 0.0
    if lo < -1e-12:
        raise ValueError("modulus arguments must be >= 0")
    return t if lo > 0.0 else np.maximum(t, 0.0)


class Modulus:
    """Common interface; concrete families override the three primitives.

    ``w(t, out=None)`` evaluates elementwise, as a numpy ufunc does: a
    scalar gives a float, an array a fresh array, and with ``out`` the
    values are written into that array (which may be ``t`` itself) and
    it is returned.  Both ways give the same values bit for bit."""

    concave: bool = True

    def __call__(self, t, out=None):
        raise NotImplementedError

    def primitive(self, alpha, beta):
        """I(alpha, beta) = int_alpha^beta w(s) ds, exact.  Array bounds are
        taken elementwise, and each element equals the scalar result."""
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec()!r})"


@dataclass(frozen=True, repr=False)
class PowerModulus(Modulus):
    K: float = 1.0
    alpha: float = 1.0

    @property
    def concave(self) -> bool:
        return 0.0 < self.alpha <= 1.0

    def __call__(self, t, out=None):
        t = _nonneg(t)
        # t^1 = t and t^(1/2) = sqrt(t) exactly (sqrt is correctly rounded;
        # a test pins np.power to both), and both skip the general pow
        if self.alpha == 1.0:
            r = t
        elif self.alpha == 0.5:
            r = np.sqrt(t, out=out)
        else:
            r = np.power(t, self.alpha, out=out)
        if out is None:
            r = self.K * r
            return float(r) if r.ndim == 0 else r
        return np.multiply(r, self.K, out=out)

    def primitive(self, alpha, beta):
        alpha, beta = _check_range(alpha, beta)
        p = self.alpha + 1.0
        # an overflow raises an OverflowError that names the range (the hull
        # of array bounds)
        try:
            if isinstance(alpha, float):
                value = self.K * (beta ** p - alpha ** p) / p
            else:
                # float_power is the C library's pow, as Python's ** is
                # (np.power can differ from it in the last bit)
                with np.errstate(over="raise"):
                    return self.K * (np.float_power(beta, p) - np.float_power(alpha, p)) / p
        except (OverflowError, FloatingPointError):
            value = math.inf
        if value < math.inf:
            return value
        raise OverflowError(f"the integral of the modulus over [{float(np.min(alpha))!r}, {float(np.max(beta))!r}] overflows")

    def spec(self) -> str:
        return f"power:K={_fmt(self.K)},alpha={_fmt(self.alpha)}"


@dataclass(frozen=True, repr=False)
class PiecewiseLinearConcave(Modulus):
    #: polyline knots ((t0, v0), ..., (tm, vm)); t0 = 0, v0 = 0
    points: Tuple[Tuple[float, float], ...]

    @property
    def concave(self) -> bool:
        # each slope against the least slope before it, so that rises below
        # the 1e-12 slack cannot add up along many knots
        slopes = self._slopes
        return all(s <= low + 1e-12 for low, s in zip(accumulate(slopes, min), slopes[1:]))

    # ``points`` is frozen, so the slopes and the knot arrays are built once
    # per instance, on first use
    @cached_property
    def _slopes(self) -> Tuple[float, ...]:
        pts = self.points
        return tuple(
            (v2 - v1) / (t2 - t1) for (t1, v1), (t2, v2) in zip(pts, pts[1:])
        )

    @cached_property
    def _knots(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Knot abscissae and values as read-only arrays, and the slope
        past the last knot."""
        ts = np.array([p[0] for p in self.points])
        vs = np.array([p[1] for p in self.points])
        ts.flags.writeable = vs.flags.writeable = False
        return ts, vs, (self._slopes[-1] if len(self.points) > 1 else 0.0)

    def __call__(self, t, out=None):
        ts, vs, last_slope = self._knots
        t = _nonneg(t)
        r = np.where(
            t <= ts[-1],
            np.interp(t, ts, vs),
            vs[-1] + last_slope * (t - ts[-1]),
        )
        if out is None:
            return float(r) if r.ndim == 0 else r
        out[...] = r
        return out

    def primitive(self, alpha, beta):
        alpha, beta = _check_range(alpha, beta)
        antider = self._antider if isinstance(alpha, float) else self._array_antider()
        return antider(beta) - antider(alpha)

    def _antider(self, t: float) -> float:
        """int_0^t w, walking the knots: whole pieces, then the piece of t."""
        acc = 0.0
        pts = self.points
        for (t1, v1), (t2, v2) in zip(pts, pts[1:]):
            if t <= t1:
                return acc
            hi = min(t, t2)
            s = (v2 - v1) / (t2 - t1)
            acc += v1 * (hi - t1) + 0.5 * s * (hi - t1) ** 2
        t_last, v_last = pts[-1]
        if t > t_last:
            s = self._slopes[-1]
            acc += v_last * (t - t_last) + 0.5 * s * (t - t_last) ** 2
        return acc

    def _array_antider(self):
        """``_antider`` elementwise: the same terms, the whole pieces added
        in knot order, and squares by float_power (the pow of Python's **,
        which can differ from x * x)."""
        ts, vs, _ = self._knots
        # the slope of each piece, the last one repeated past the last knot
        slopes = np.array(self._slopes + self._slopes[-1:])
        span = np.diff(ts)
        whole = np.cumsum(np.concatenate(([0.0], vs[:-1] * span + 0.5 * slopes[:-1] * np.float_power(span, 2.0))))

        def antider(t):
            # t in (ts[j], ts[j + 1]] takes the pieces before j whole
            j = np.searchsorted(ts, t, side="left") - 1
            k = np.maximum(j, 0)
            d = t - ts[k]
            return np.where(j < 0, 0.0, whole[k] + (vs[k] * d + 0.5 * slopes[k] * np.float_power(d, 2.0)))

        return antider

    def spec(self) -> str:
        return "plconcave:" + ";".join(f"{_fmt(t)},{_fmt(v)}" for t, v in self.points)


@dataclass(frozen=True, repr=False)
class MinLinearConstant(Modulus):
    K: float = 1.0
    C: float = 1.0

    concave = True

    @property
    def knee(self) -> float:
        return self.C / self.K

    def __call__(self, t, out=None):
        t = _nonneg(t)
        if out is None:
            r = np.minimum(self.K * t, self.C)
            return float(r) if r.ndim == 0 else r
        return np.minimum(np.multiply(t, self.K, out=out), self.C, out=out)

    def primitive(self, alpha, beta):
        alpha, beta = _check_range(alpha, beta)
        knee = self.knee

        def linear(t):
            return 0.5 * self.K * t * t

        def capped(t):
            return 0.5 * self.K * knee ** 2 + self.C * (t - knee)

        if isinstance(alpha, float):
            def antider(t):
                return linear(t) if t <= knee else capped(t)
        else:
            def antider(t):
                below = t <= knee
                # below the knee alone, capped() is not evaluated: a huge knee
                # would overflow there
                return linear(t) if below.all() else np.where(below, linear(t), capped(t))

        return antider(beta) - antider(alpha)

    def spec(self) -> str:
        return f"minlin:K={_fmt(self.K)},C={_fmt(self.C)}"


def _check_range(alpha, beta):
    """Validate primitive bounds; float dust barely below zero is clamped.

    Two scalars come back as floats.  Otherwise the bounds are broadcast
    to one array shape and checked elementwise, and the error names the
    first offending pair."""
    if isinstance(alpha, (float, int)) and isinstance(beta, (float, int)):
        if alpha < -1e-12 or beta < alpha:
            raise ValueError(f"primitive requires 0 <= alpha <= beta, got ({alpha}, {beta})")
        return max(float(alpha), 0.0), max(float(beta), 0.0)
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    bad = (alpha < -1e-12) | (beta < alpha)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"primitive requires 0 <= alpha <= beta, got ({alpha.flat[i]}, {beta.flat[i]})")
    return np.maximum(alpha, 0.0), np.maximum(beta, 0.0)


def _fmt(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str = ""
    witness: Optional[Tuple[float, float]] = None


def validate(omega: Modulus) -> ValidationReport:
    """Check that w is a modulus of continuity (w(0) = 0, nondecreasing,
    subadditive) exactly, with no grid; every parameter must be finite.
    power needs K > 0 and 0 < alpha <= 1 (else 2^alpha > 2 at (1, 1)) and
    minlin K, C > 0: both are then concave, so subadditive.  A polyline
    starts at (0, 0) with strictly increasing knots and slopes >= -1e-12,
    and is concave if no slope exceeds the one before.  Else its symmetric
    excess E(s, t) = w(s + t) - w(s) - w(t) is checked: past the last knot
    k_m, E(s, t) = slope_m t - w(t) = E(k_m, t), and on [0, k_m]^2 E is
    linear on each cell of the lines s = k_i, t = k_j, s + t = k_l, so its
    max is at a vertex (k_i, k_j), (k_i, k_l - k_i) or a mirror.  Each needs
    E <= max(1e-10, 1e-14 |w(s + t)|); the first that fails is the witness."""
    if not all(map(math.isfinite, _parameters(omega))):
        return ValidationReport(False, "modulus parameters must be finite")
    if isinstance(omega, PowerModulus) and (omega.K <= 0.0 or omega.alpha <= 0.0):
        return ValidationReport(False, "power family requires K > 0 and alpha > 0")
    if isinstance(omega, PowerModulus) and omega.alpha > 1.0:
        return ValidationReport(False, "not subadditive", (1.0, 1.0))
    if isinstance(omega, MinLinearConstant) and (omega.K <= 0.0 or omega.C <= 0.0):
        return ValidationReport(False, "min-linear family requires K > 0 and C > 0")
    if not isinstance(omega, PiecewiseLinearConcave):
        return ValidationReport(True)
    pts = omega.points
    if len(pts) < 2:
        return ValidationReport(False, "polyline needs at least two knots")
    if pts[0] != (0.0, 0.0):
        return ValidationReport(False, "polyline must start at (0, 0)")
    if any(t2 <= t1 for (t1, _), (t2, _) in zip(pts, pts[1:])):
        return ValidationReport(False, "polyline knots must be strictly increasing")
    slopes = omega._slopes
    if not all(map(math.isfinite, slopes)):
        return ValidationReport(False, "polyline slopes must be finite")
    if any(s < -1e-12 for s in slopes):
        return ValidationReport(False, "polyline must be nondecreasing")
    if all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:])):
        return ValidationReport(True)
    # row i: the vertices (k_i, k_j), then (k_i, max(k_l - k_i, 0))
    k = omega._knots[0]
    t = np.concatenate((np.broadcast_to(k, (k.size, k.size)), np.maximum(k - k[:, None], 0.0)), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = omega(k[:, None] + t)
        # a w(s + t) that alone overflows fails; if both sides do, E is nan
        slack = np.maximum(1e-10, 1e-14 * np.minimum(np.abs(direct), np.finfo(float).max))
        bad = direct - (omega(k)[:, None] + omega(t)) > slack
    if not bad.any():
        return ValidationReport(True)
    i, j = np.argwhere(bad)[0]
    return ValidationReport(False, "not subadditive", (float(k[i]), float(t[i, j])))


def _parameters(omega: Modulus) -> Tuple[float, ...]:
    if isinstance(omega, PowerModulus):
        return (omega.K, omega.alpha)
    if isinstance(omega, MinLinearConstant):
        return (omega.K, omega.C)
    if isinstance(omega, PiecewiseLinearConcave):
        return tuple(x for pt in omega.points for x in pt)
    return ()


def _validated(omega: Modulus) -> Modulus:
    report = validate(omega)
    if not report.ok:
        raise InvalidModulus(f"{report.reason}" + (f", witness {report.witness}" if report.witness else ""))
    return omega


def power(K: float = 1.0, alpha: float = 1.0) -> PowerModulus:
    return _validated(PowerModulus(float(K), float(alpha)))


def plconcave(points) -> PiecewiseLinearConcave:
    pts = tuple((float(t), float(v)) for t, v in points)
    return _validated(PiecewiseLinearConcave(pts))


def minlin(K: float = 1.0, C: float = 1.0) -> MinLinearConstant:
    return _validated(MinLinearConstant(float(K), float(C)))


def parse_modulus(text: str) -> Modulus:
    """Parse CLI/config syntax.

    ``power:K=1,alpha=0.5`` | ``plconcave:0,0;0.5,0.4;1,0.6`` |
    ``minlin:K=1,C=0.5``
    """
    text = text.strip()
    if ":" not in text:
        raise InvalidModulus(f"malformed modulus spec {text!r}")
    family, body = text.split(":", 1)
    family = family.strip().lower()
    if family == "power":
        kv = _parse_kv(body)
        return power(K=kv.get("k", 1.0), alpha=kv.get("alpha", 1.0))
    if family == "minlin":
        kv = _parse_kv(body)
        return minlin(K=kv.get("k", 1.0), C=kv.get("c", 1.0))
    if family == "plconcave":
        pts = []
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            t, v = chunk.split(",")
            pts.append((float(t), float(v)))
        return plconcave(pts)
    raise InvalidModulus(f"unknown modulus family {family!r}")


def _parse_kv(body: str) -> dict:
    out = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InvalidModulus(f"malformed parameter {chunk!r}")
        k, v = chunk.split("=", 1)
        out[k.strip().lower()] = float(v)
    return out
