"""Validated moduli of continuity.

Three closed-form families are supported:

* ``PowerModulus``: w(t) = K t^alpha with K > 0, 0 < alpha <= 1,
* ``PiecewiseLinearConcave``: a concave nondecreasing polyline through
  (0, 0) with nonincreasing slopes, extended by its last slope,
* ``MinLinearConstant``: w(t) = min(K t, C).

Evaluation and the primitive I(alpha, beta) = int_alpha^beta w(s) ds
are exact closed forms, so that bound computations downstream carry no
quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    as ``np.maximum(x, 0.0)`` does."""
    if isinstance(t, (float, int)):
        x = float(t)
        if x < -1e-12:
            raise ValueError("modulus arguments must be >= 0")
        return np.float64(0.0 if x <= 0.0 else x)
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12):
        raise ValueError("modulus arguments must be >= 0")
    return np.maximum(t, 0.0)


class Modulus:
    """Common interface; concrete families override the three primitives."""

    concave: bool = True

    def __call__(self, t):
        raise NotImplementedError

    def primitive(self, alpha: float, beta: float) -> float:
        """I(alpha, beta) = int_alpha^beta w(s) ds, exact."""
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

    def __call__(self, t):
        t = _nonneg(t)
        out = self.K * np.power(t, self.alpha)
        return float(out) if out.ndim == 0 else out

    def primitive(self, alpha: float, beta: float) -> float:
        alpha, beta = _check_range(alpha, beta)
        p = self.alpha + 1.0
        return self.K * (beta ** p - alpha ** p) / p

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
        slopes = self._slopes()
        return all(s <= low + 1e-12 for low, s in zip(accumulate(slopes, min), slopes[1:]))

    def _slopes(self):
        pts = self.points
        return tuple(
            (v2 - v1) / (t2 - t1) for (t1, v1), (t2, v2) in zip(pts, pts[1:])
        )

    def __call__(self, t):
        ts = np.array([p[0] for p in self.points])
        vs = np.array([p[1] for p in self.points])
        t = _nonneg(t)
        last_slope = self._slopes()[-1] if len(self.points) > 1 else 0.0
        out = np.where(
            t <= ts[-1],
            np.interp(t, ts, vs),
            vs[-1] + last_slope * (t - ts[-1]),
        )
        return float(out) if out.ndim == 0 else out

    def primitive(self, alpha: float, beta: float) -> float:
        alpha, beta = _check_range(alpha, beta)

        def antider(t: float) -> float:
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
                s = self._slopes()[-1]
                acc += v_last * (t - t_last) + 0.5 * s * (t - t_last) ** 2
            return acc

        return antider(beta) - antider(alpha)

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

    def __call__(self, t):
        t = _nonneg(t)
        out = np.minimum(self.K * t, self.C)
        return float(out) if out.ndim == 0 else out

    def primitive(self, alpha: float, beta: float) -> float:
        alpha, beta = _check_range(alpha, beta)

        def antider(t: float) -> float:
            if t <= self.knee:
                return 0.5 * self.K * t * t
            return 0.5 * self.K * self.knee ** 2 + self.C * (t - self.knee)

        return antider(beta) - antider(alpha)

    def spec(self) -> str:
        return f"minlin:K={_fmt(self.K)},C={_fmt(self.C)}"


def _check_range(alpha: float, beta: float) -> Tuple[float, float]:
    """Validate primitive bounds; float dust barely below zero is clamped."""
    if alpha < -1e-12 or beta < alpha:
        raise ValueError(f"primitive requires 0 <= alpha <= beta, got ({alpha}, {beta})")
    return max(alpha, 0.0), max(beta, 0.0)


def _fmt(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str = ""
    witness: Optional[Tuple[float, float]] = None


def validate(omega: Modulus) -> ValidationReport:
    """Check w(0) = 0, monotonicity and subadditivity on a validation grid.

    Monotonicity and subadditivity are checked up to
    tol = max(1e-10, 1e-14 max|w|) over the grid, subadditivity as
    w(s + t) <= w(s) + w(t) + tol over all grid pairs; the first
    violating pair is reported as a witness.  Every family parameter
    must be finite.
    """
    if not all(map(math.isfinite, _parameters(omega))):
        return ValidationReport(False, "modulus parameters must be finite")
    if isinstance(omega, PowerModulus) and (omega.K <= 0.0 or omega.alpha <= 0.0):
        return ValidationReport(False, "power family requires K > 0 and alpha > 0")
    if isinstance(omega, MinLinearConstant) and (omega.K <= 0.0 or omega.C <= 0.0):
        return ValidationReport(False, "min-linear family requires K > 0 and C > 0")
    if isinstance(omega, PiecewiseLinearConcave):
        pts = omega.points
        if len(pts) < 2:
            return ValidationReport(False, "polyline needs at least two knots")
        if pts[0] != (0.0, 0.0):
            return ValidationReport(False, "polyline must start at (0, 0)")
        if any(t2 <= t1 for (t1, _), (t2, _) in zip(pts, pts[1:])):
            return ValidationReport(False, "polyline knots must be strictly increasing")
        if any(s < -1e-12 for s in omega._slopes()):
            return ValidationReport(False, "polyline must be nondecreasing")

    t_max = _default_scale(omega)
    ts = np.linspace(0.0, t_max, 64)
    # huge parameters overflow to inf here; the isfinite test rejects
    # those values and inf sums only make subadditivity easier to meet
    with np.errstate(over="ignore"):
        vals = np.asarray(omega(ts), dtype=float)
        half = ts[ts <= t_max / 2.0 + 1e-15]
        vh = np.asarray(omega(half), dtype=float)
        sums = vh[:, None] + vh[None, :]
        direct = np.asarray(omega(half[:, None] + half[None, :]), dtype=float)
    if not np.all(np.isfinite(vals)):
        return ValidationReport(False, "modulus values overflow on the validation grid")
    # absolute for moduli up to 1e4, relative to the largest value above
    tol = max(1e-10, 1e-14 * float(np.max(np.abs(vals))))

    if abs(float(omega(0.0))) > 1e-12:
        return ValidationReport(False, "w(0) != 0")
    if np.any(np.diff(vals) < -tol):
        i = int(np.argmax(np.diff(vals) < -tol))
        return ValidationReport(False, "not nondecreasing", (float(ts[i]), float(ts[i + 1])))

    bad = direct > sums + tol
    if np.any(bad):
        i, j = map(int, np.argwhere(bad)[0])
        return ValidationReport(False, "not subadditive", (float(half[i]), float(half[j])))
    return ValidationReport(True)


def _parameters(omega: Modulus) -> Tuple[float, ...]:
    if isinstance(omega, PowerModulus):
        return (omega.K, omega.alpha)
    if isinstance(omega, MinLinearConstant):
        return (omega.K, omega.C)
    if isinstance(omega, PiecewiseLinearConcave):
        return tuple(x for pt in omega.points for x in pt)
    return ()


def _default_scale(omega: Modulus) -> float:
    if isinstance(omega, PiecewiseLinearConcave):
        return max(2.0, 2.0 * omega.points[-1][0])
    if isinstance(omega, MinLinearConstant):
        # C/K overflows for a subnormal K: cap the knee so that the
        # validation grid and its pair sums stay finite
        return max(2.0, 2.0 * min(omega.knee, 0.25 * np.finfo(float).max))
    return 2.0


def _validated(omega: Modulus) -> Modulus:
    report = validate(omega)
    if not report.ok:
        raise InvalidModulus(f"{report.reason}" + (f", witness {report.witness}" if report.witness else ""))
    return omega


def power(K: float = 1.0, alpha: float = 1.0) -> PowerModulus:
    # alpha > 1 is rejected by the generic validator with a witness pair
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
