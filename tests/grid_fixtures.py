"""Grid-function builders shared by the test modules."""

import numpy as np

from ksr import gridfn as gf
from ksr import lspace as ls


def interval_grid(lo, hi, a: float, b: float, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Interval-valued grid function t -> [lo(t), hi(t)]; ``lo`` and ``hi``
    are callables or arrays of n + 1 node values."""
    ts = np.linspace(a, b, n + 1)
    lo_v = np.array([float(lo(t)) for t in ts]) if callable(lo) else np.asarray(lo, dtype=float)
    hi_v = np.array([float(hi(t)) for t in ts]) if callable(hi) else np.asarray(hi, dtype=float)
    return gf.GridFunction(float(a), float(b), ls.INTERVAL, gf.interval_array(lo_v, hi_v))


def constant_grid(x: ls.Element, a: float, b: float, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """The constant grid function t -> x."""
    model, data = gf.stack_payloads([x] * (n + 1))
    return gf.GridFunction(float(a), float(b), model, data)


def check_Homega_loop(f: gf.GridFunction, omega, spans=None):
    """``gf.check_Homega`` without the threshold cache, over ``spans`` (the
    dyadic span set by default; ``range(1, n + 1)`` checks every pair):
    omega is evaluated on every span of every call.  Kept as the
    bit-for-bit reference.  Returns (member, defect, witness)."""
    worst, witness = -np.inf, (f.a, f.a)
    for k in gf._span_set(f.n_cells) if spans is None else spans:
        defects = gf._pair_dist(f, k) - float(omega(k * f.step))
        i = int(np.argmax(defects))
        if defects[i] > worst:
            worst = float(defects[i])
            witness = (f.a + i * f.step, f.a + (i + k) * f.step)
    return worst <= gf.MembershipReport.SLACK, worst, witness
