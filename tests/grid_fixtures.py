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
    return gf.from_values([x] * (n + 1), a, b)
