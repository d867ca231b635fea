"""Closed-form sharp bounds for the deviation between two interval means
(and their point/symmetrized-pair specializations), with extremal
function generators.

All values are exact expressions in the modulus primitive
I(alpha, beta) = int_alpha^beta w; the two-interval extremal is produced
by gluing the per-hat extremals of the indicator-difference profile
rather than by per-case formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import gridfn as gf
from . import kscore as ks
from . import lspace as ls
from .modulus import Modulus

NESTED = "nested"
OVERLAP = "overlap"
DISJOINT = "disjoint"


@dataclass(frozen=True)
class TwoIntervalConfig:
    """Ordered pair of segments [a, b], [c, d] with a <= c (inputs are
    swapped into this normal form)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.b <= self.a or self.d <= self.c:
            raise ValueError("segments must have positive length")
        if self.a > self.c:
            raise ValueError("normal form requires a <= c; use two_interval_config")

    @property
    def M(self) -> float:
        return max(self.b - self.a, self.d - self.c)

    @property
    def m(self) -> float:
        return min(self.b - self.a, self.d - self.c)

    @property
    def case(self) -> str:
        if self.c >= self.b:
            return DISJOINT
        if self.d <= self.b:
            return NESTED
        return OVERLAP

    @property
    def span(self) -> Tuple[float, float]:
        return (self.a, max(self.b, self.d))


def two_interval_config(a: float, b: float, c: float, d: float) -> TwoIntervalConfig:
    if a > c:
        a, b, c, d = c, d, a, b
    return TwoIntervalConfig(float(a), float(b), float(c), float(d))


def two_interval_bound(cfg: TwoIntervalConfig, omega: Modulus) -> float:
    """Sharp bound for dist(mean of f over [a,b], mean over [c,d]) on the
    oscillation class of ``omega``; three closed-form cases that match
    continuously at the case boundaries."""
    M, m = cfg.M, cfg.m
    a, b, c, d = cfg.a, cfg.b, cfg.c, cfg.d
    I = omega.primitive
    if cfg.case == DISJOINT:
        return _primitive(omega, c - b, d - a, "two-interval I(c - b, d - a)", M + m, "M + m") / (M + m)
    if cfg.case == NESTED:
        if M - m <= 1e-15:
            return 0.0  # identical segments
        q = M / (M - m)
        return (M - m) / _square(M) * (I(0.0, q * (c - a)) + I(0.0, q * (b - d)))
    first = I(M * (b - c) / m, d - a) / (M + m)
    if M - m <= 1e-15:
        return first
    return first + (M - m) / _square(M) * I(0.0, M * (b - c) / m)


def _square(M: float) -> float:
    """``M ** 2``, or an OverflowError that names it."""
    try:
        return M ** 2
    except OverflowError:
        raise OverflowError(f"two-interval M ** 2, the square of the longer length M = {M!r}, overflows") from None


def two_interval_weights(cfg: TwoIntervalConfig) -> Tuple[ks.StepWeight, ks.StepWeight]:
    lo, hi = cfg.span
    w1 = ks.indicator_weight(cfg.a, cfg.b, 1.0 / (cfg.b - cfg.a), domain=(lo, hi))
    w2 = ks.indicator_weight(cfg.c, cfg.d, 1.0 / (cfg.d - cfg.c), domain=(lo, hi))
    return w1, w2


def two_interval_extremal(cfg: TwoIntervalConfig, omega: Modulus, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Real extremal attaining the two-interval bound (concave modulus),
    built by gluing the per-hat extremals of the indicator difference."""
    w1, w2 = two_interval_weights(cfg)
    decomp = ks.decompose_weights(w1, w2)
    return ks.glue_extremal(decomp, omega, n=n)


def symmetric_bound(a: float, b: float, c: float, d: float, omega: Modulus) -> float:
    """Concentric case: sharp bound for
    dist(int_a^b f, ((b-a)/(d-c)) int_c^d f) when the midpoints agree."""
    if abs((c + d) - (a + b)) > 1e-12:
        raise ValueError("segments must share their midpoint")
    if c < a - 1e-12 or d > b + 1e-12:
        raise ValueError("inner segment must lie inside the outer one")
    return 4.0 * (c - a) / (b - a) * omega.primitive(0.0, 0.5 * (b - a))


def _primitive(
    omega: Modulus, lo: float, hi: float, name: str, width: Optional[float] = None, width_name: str = "d - c"
) -> float:
    """``omega.primitive(lo, hi)``; an overflow raises an OverflowError
    that names the integral ``name`` and its range.  Given the true
    ``width`` of the range (the quantity ``width_name``), a float range
    whose width rounding changed by more than 1e-9 of it raises an
    ArithmeticError: its integral is wrong."""
    try:
        value = omega.primitive(lo, hi)
    except OverflowError:
        raise OverflowError(f"{name}, the integral of the modulus over [{lo!r}, {hi!r}], overflows") from None
    if width is not None and abs((hi - lo) - width) > 1e-9 * width:
        raise ArithmeticError(f"{name}: the range [{lo!r}, {hi!r}] has float width {hi - lo!r}, not {width_name} = {width!r}")
    return value


def point_vs_mean_bound(t: float, c: float, d: float, omega: Modulus) -> float:
    """Sharp bound for dist(P f(t), mean of f over [c, d]), any modulus."""
    if d <= c:
        raise ValueError("segment [c, d] must have positive length")
    if t <= c:
        return _primitive(omega, c - t, d - t, "point-mean I(c - t, d - t)", d - c) / (d - c)
    if t >= d:
        return _primitive(omega, t - d, t - c, "point-mean I(t - d, t - c)", d - c) / (d - c)
    left = _primitive(omega, 0.0, t - c, "point-mean I(0, t - c)")
    return (left + _primitive(omega, 0.0, d - t, "point-mean I(0, d - t)")) / (d - c)


def point_vs_mean_functional(f: gf.GridFunction, t: float, c: float, d: float) -> float:
    """dist(P f(t), mean of f over [c, d]) -- the quantity
    ``point_vs_mean_bound`` controls."""
    mean_w = ks.indicator_weight(c, d, 1.0 / (d - c), domain=(f.a, f.b))
    return float(gf.row_dist(f.model, gf.values_at(f, t), ks.integrate_weighted(f, mean_w)))


def point_vs_mean_extremal(
    t: float, omega: Modulus, a: float, b: float, n: int = gf.DEFAULT_GRID
) -> gf.GridFunction:
    """The cone u -> w(|u - t|); attains the point-vs-mean bound for any
    modulus once lifted by a unit convex element."""
    ts = np.linspace(a, b, n + 1)
    return gf.GridFunction(a, b, ls.REAL, np.asarray(omega(np.abs(ts - t)), dtype=float))


def symmetrized_pair_bound(t: float, a: float, b: float, omega: Modulus) -> float:
    """Sharp bound for dist of the average of P f(t) and P f(a+b-t) from
    the mean of f over [a, b], for t in [a, (a+b)/2)."""
    if not (a <= t < 0.5 * (a + b)):
        raise ValueError("t must lie in [a, (a+b)/2)")
    left = _primitive(omega, 0.0, t - a, "pair I(0, t - a)")
    return 2.0 / (b - a) * (left + _primitive(omega, 0.0, 0.5 * (a + b) - t, "pair I(0, (a + b) / 2 - t)"))


def symmetrized_pair_functional(f: gf.GridFunction, t: float, a: float, b: float) -> float:
    """dist of the average of P f(t) and P f(a+b-t) from the mean of f over
    [a, b] -- the quantity ``symmetrized_pair_bound`` controls."""
    mean_w = ks.indicator_weight(a, b, 1.0 / (b - a), domain=(f.a, f.b))
    r0, r1 = gf.values_at(f, np.array([t, a + b - t]))
    return float(gf.row_dist(f.model, 0.5 * (r0 + r1), ks.integrate_weighted(f, mean_w)))


def symmetrized_pair_extremal(
    t: float, a: float, b: float, omega: Modulus, n: int = gf.DEFAULT_GRID
) -> gf.GridFunction:
    """min of the two cones centered at t and at its mirror point a+b-t."""
    ts = np.linspace(a, b, n + 1)
    vals = np.minimum(
        np.asarray(omega(np.abs(ts - t)), dtype=float),
        np.asarray(omega(np.abs(ts - (a + b - t))), dtype=float),
    )
    return gf.GridFunction(a, b, ls.REAL, vals)
