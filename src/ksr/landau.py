"""Hukuhara divided differences, the sharp deviation constant K,
Landau-type inequalities, best approximation of the derivative operator
by bounded divided differences, and recovery of the derivative from
inexactly known functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import gridfn as gf
from . import kscore as ks
from . import lspace as ls
from .errors import NonConcave, WindowViolation
from .modulus import Modulus

VARIANTS = ("b", "c", "d", "e")


@dataclass(frozen=True)
class WindowConfig:
    """Asymmetric difference windows around t:
    [t - g1, t + g2] inside [t - h1, t + h2] inside the domain."""

    t: float
    g1: float
    g2: float
    h1: float
    h2: float
    a: float
    b: float

    def __post_init__(self):
        if min(self.g1, self.g2, self.h1, self.h2) < 0.0:
            raise WindowViolation("window widths must be nonnegative")
        if self.g1 + self.g2 <= 0.0 and self.h1 + self.h2 <= 0.0:
            raise WindowViolation("at least one window must be nondegenerate")
        if self.h1 + self.h2 <= 0.0:
            raise WindowViolation("outer window must be nondegenerate")
        if self.g1 > self.h1 + 1e-12 or self.g2 > self.h2 + 1e-12:
            raise WindowViolation("inner window must lie inside the outer window")
        if self.t - self.h1 < self.a - 1e-12 or self.t + self.h2 > self.b + 1e-12:
            raise WindowViolation("outer window must lie inside the domain")

    @property
    def inner(self) -> Tuple[float, float]:
        return (self.t - self.g1, self.t + self.g2)

    @property
    def outer(self) -> Tuple[float, float]:
        return (self.t - self.h1, self.t + self.h2)


def clamped_windows(t: float, gamma: float, h: float, a: float, b: float) -> WindowConfig:
    """Window widths clamped at the domain ends (h > gamma > 0)."""
    if not h > gamma > 0.0:
        raise WindowViolation("need h > gamma > 0")
    return WindowConfig(
        t,
        min(gamma, t - a),
        min(gamma, b - t),
        min(h, t - a),
        min(h, b - t),
        a,
        b,
    )


def clamped_outer(t: float, h: float, a: float, b: float) -> WindowConfig:
    """The outer window [t - h, t + h] clamped at the domain ends, with a
    degenerate inner window at t (h > 0)."""
    if h <= 0.0:
        raise WindowViolation("need h > 0")
    return WindowConfig(t, 0.0, 0.0, min(h, t - a), min(h, b - t), a, b)


def divided_difference(f: gf.GridFunction, t: float, g1: float, g2: float) -> np.ndarray:
    """(f(t + g2) -_H f(t - g1)) / (g1 + g2), as a row of ``f.data``."""
    if g1 + g2 <= 0.0:
        raise WindowViolation("window must be nondegenerate")
    lower, upper = gf.values_at(f, np.array([t - g1, t + g2]))
    return gf.hukuhara_quotient(f.model, upper, lower, 1.0 / (g1 + g2))


def K_value(w: WindowConfig, omega: Modulus) -> float:
    """Sharp constant for the deviation between the inner and outer
    divided differences; 0 by continuity when the windows coincide."""
    d1 = w.h1 - w.g1
    d2 = w.h2 - w.g2
    if d1 < -1e-12 or d2 < -1e-12:
        raise WindowViolation("outer window must contain the inner window")
    s = d1 + d2
    if s <= 1e-15:
        return 0.0
    total = w.h1 + w.h2
    return (
        s
        / total ** 2
        * (
            omega.primitive(0.0, total * d1 / s)
            + omega.primitive(0.0, total * d2 / s)
        )
    )


def derivative_vs_quotient_value(w: WindowConfig, omega: Modulus) -> float:
    """Sharp constant (I(h1) + I(h2)) / (h1 + h2) for the deviation of the
    derivative at t from the outer divided difference."""
    return (omega.primitive(0.0, w.h1) + omega.primitive(0.0, w.h2)) / (w.h1 + w.h2)


def landau_rhs(
    variant: str,
    w: WindowConfig,
    omega: Modulus,
    omega_norm: float,
    companion_norm: float,
) -> float:
    """Right-hand side of the chosen Landau-type inequality.

    ``companion_norm`` is the norm of the outer divided difference at t
    for variants b/c and the sup norm of f for variants d/e.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    total = w.h1 + w.h2
    if variant == "b":
        return K_value(w, omega) * omega_norm + companion_norm
    if variant == "c":
        return derivative_vs_quotient_value(w, omega) * omega_norm + companion_norm
    if variant == "d":
        return K_value(w, omega) * omega_norm + 2.0 / total * companion_norm
    return derivative_vs_quotient_value(w, omega) * omega_norm + 2.0 / total * companion_norm


def extremal_sup_norm(w: WindowConfig, omega: Modulus) -> float:
    """Closed-form sup norm of the derivative-variant extremal:
    ((h1 + h2)/2) w(hmax) - (I(h1) + I(h2))/2."""
    cap = max(float(omega(w.h1)), float(omega(w.h2)))
    return 0.5 * (w.h1 + w.h2) * cap - 0.5 * (
        omega.primitive(0.0, w.h1) + omega.primitive(0.0, w.h2)
    )


def _cone_slope(w: WindowConfig, omega: Modulus, ts: np.ndarray, clip: bool) -> np.ndarray:
    cap = max(float(omega(w.h1)), float(omega(w.h2)))
    g = cap - np.asarray(omega(np.abs(ts - w.t)), dtype=float)
    if clip:
        g = np.maximum(g, 0.0)
    else:
        lo, hi = w.outer
        g = np.where(ts < lo, cap - float(omega(w.h1)), g)
        g = np.where(ts > hi, cap - float(omega(w.h2)), g)
    return g


def _oriented_window_slope(w: WindowConfig, omega: Modulus, n: int) -> np.ndarray:
    """Glued two-interval extremal slope on the outer window, oriented so
    the inner mean exceeds the outer mean by K."""
    lo, hi = w.outer
    total = w.h1 + w.h2
    inner_len = w.g1 + w.g2
    outer_w = ks.indicator_weight(lo, hi, 1.0 / total, domain=(lo, hi))
    inner_w = ks.indicator_weight(w.inner[0], w.inner[1], 1.0 / inner_len, domain=(lo, hi))
    decomp = ks.decompose_weights(outer_w, inner_w)
    glued = ks.glue_extremal(decomp, omega, n=n)
    diff = ks.integrate_weighted(glued, inner_w) - ks.integrate_weighted(glued, outer_w)
    return -glued.data if diff < 0.0 else glued.data


def landau_extremal(variant: str, w: WindowConfig, omega: Modulus, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Real extremal function turning the chosen inequality into equality.

    Variants c/e start from the capped cone slope; variants b/d from the
    glued two-interval extremal (concave modulus).  For d/e the slope is
    shifted to vanish at interior window ends, zero-extended, and the
    antiderivative is taken from the mass-balancing point.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    ts = np.linspace(w.a, w.b, n + 1)
    step = (w.b - w.a) / n
    lo, hi = w.outer
    if variant == "c":
        g = _cone_slope(w, omega, ts, clip=False)
    elif variant == "e":
        g = _cone_slope(w, omega, ts, clip=True)
    else:
        if not omega.concave:
            raise NonConcave("variants b and d require a concave modulus")
        g_window = _oriented_window_slope(w, omega, n)
        grid = np.linspace(lo, hi, n + 1)
        g = np.interp(np.clip(ts, lo, hi), grid, g_window)
        if variant == "d":
            ends = []
            if lo > w.a + 1e-12:
                ends.append(float(np.interp(lo, ts, g)))
            if hi < w.b - 1e-12:
                ends.append(float(np.interp(hi, ts, g)))
            if len(ends) == 2 and abs(ends[0] - ends[1]) > 1e-7:
                raise WindowViolation(
                    "zero extension needs equal window-end values; use clamped windows"
                )
            shift = ends[0] if ends else float(np.min([np.interp(lo, ts, g), np.interp(hi, ts, g)]))
            g = g - shift
            g = np.where((ts < lo) | (ts > hi), 0.0, g)
            if np.min(g) < -1e-7:
                raise WindowViolation("extremal slope failed to be nonnegative")
            g = np.maximum(g, 0.0)
        else:
            g = np.where(ts < lo, g[np.searchsorted(ts, lo)], g)
            g = np.where(ts > hi, g[min(np.searchsorted(ts, hi), n)], g)
    # antiderivative; for d/e centered at the window mass-balance point
    cum = gf.cumtrapz(g, step)
    if variant in ("d", "e"):
        mass_lo = float(np.interp(lo, ts, cum))
        mass_hi = float(np.interp(hi, ts, cum))
        target = 0.5 * (mass_lo + mass_hi)
        f_vals = cum - target
    else:
        f_vals = cum
    return gf.GridFunction(w.a, w.b, ls.REAL, f_vals)


def stechkin_value(target: str, w: WindowConfig, omega: Modulus) -> float:
    """Best approximation of the target operator (inner divided
    difference or derivative, at t) by operators of norm at most
    2/(h1 + h2); the outer divided difference is an optimal one."""
    if target == "divdiff":
        if not omega.concave:
            raise NonConcave("the divided-difference value requires a concave modulus")
        return K_value(w, omega)
    if target == "derivative":
        return derivative_vs_quotient_value(w, omega)
    raise ValueError(f"unknown target {target!r}")


def operator_norm_bound(w: WindowConfig) -> float:
    """Norm bound 2/(h1 + h2) of the outer divided difference."""
    return 2.0 / (w.h1 + w.h2)


def delta_recovery_value(t: float, h: float, omega: Modulus, a: float, b: float) -> dict:
    """Error level delta and optimal recovery value for recovering the
    derivative at t from functions known with C-error delta."""
    w = clamped_outer(t, h, a, b)
    delta = extremal_sup_norm(w, omega)
    return {"delta": delta, "value": max(float(omega(w.h1)), float(omega(w.h2))), "h1": w.h1, "h2": w.h2}
