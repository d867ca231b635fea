"""Concrete semilinear metric space (L-space) models.

Five models are implemented:

* ``real``     -- the real line with ordinary arithmetic,
* ``vector``   -- R^d with the Euclidean metric,
* ``interval`` -- compact intervals [lo, hi] with Minkowski sum and the
  Hausdorff metric,
* ``union``    -- finite unions of disjoint compact intervals (the
  finite-representable part of the space of compact subsets of R),
* ``max``      -- the half-line [0, inf) with x (+) y = max(x, y) and
  lam (*) x = |lam| x; the canonical non-isotropic example.

Elements are immutable values; every operation is pure.  ``interval``
and ``union`` are treated as one ambient space (an interval is a union
with one component), so they may be mixed in binary operations; all
other model pairs are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ModelMismatch, NoDifference, NonIsotropic, NotInvertible

REAL = "real"
VECTOR = "vector"
INTERVAL = "interval"
UNION = "union"
MAX = "max"

MODELS = (REAL, VECTOR, INTERVAL, UNION, MAX)

#: absolute tolerance for payload equality tests
EQ_TOL = 1e-12


def width_tol(magnitude):
    """Slack of the width test of an interval Hukuhara difference whose
    operands have entries of absolute value at most ``magnitude``:
    ``EQ_TOL * max(1, magnitude)``.  It is ``EQ_TOL`` for operands in
    [-1, 1] and grows with their size, as the rounding of their difference
    does.  ``magnitude`` may be an array, one slack per entry."""
    return EQ_TOL * np.maximum(1.0, magnitude)


@dataclass(frozen=True)
class Element:
    """A value in one of the concrete models.

    Payload layout by model: ``real``/``max`` -> float, ``vector`` ->
    tuple of floats, ``interval`` -> (lo, hi), ``union`` -> tuple of
    (lo, hi) pairs, sorted and pairwise disjoint.
    """

    model: str
    payload: Any

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == INTERVAL:
            lo, hi = self.payload
            if lo > hi:
                raise ValueError(f"interval payload requires lo <= hi, got {self.payload}")
        elif self.model == UNION:
            comps = self.payload
            if not comps:
                raise ValueError("union payload needs at least one component")
            for (lo, hi) in comps:
                if lo > hi:
                    raise ValueError(f"union component requires lo <= hi, got {(lo, hi)}")
            for (l1, h1), (l2, h2) in zip(comps, comps[1:]):
                if not h1 < l2:
                    raise ValueError("union components must be sorted and disjoint")
        elif self.model == MAX:
            if self.payload < 0:
                raise ValueError("max-space payload must be >= 0")

    def __repr__(self):
        return f"Element({self.model}, {self.payload})"


def real(v: float) -> Element:
    return Element(REAL, float(v))


def vector(*xs: float) -> Element:
    return Element(VECTOR, tuple(float(x) for x in xs))


def interval(lo: float, hi: float) -> Element:
    return Element(INTERVAL, (float(lo), float(hi)))


def union(components) -> Element:
    """Build a union element, normalizing to sorted disjoint components.

    Overlapping or touching input components are merged.
    """
    comps = sorted((float(lo), float(hi)) for lo, hi in components)
    if not comps:
        raise ValueError("empty union")
    merged = [comps[0]]
    for lo, hi in comps[1:]:
        plo, phi = merged[-1]
        if lo <= phi:
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return Element(UNION, tuple(merged))


def maxval(v: float) -> Element:
    return Element(MAX, float(v))


def zero_like(x: Element) -> Element:
    if x.model == REAL:
        return real(0.0)
    if x.model == VECTOR:
        return vector(*([0.0] * len(x.payload)))
    if x.model == INTERVAL:
        return interval(0.0, 0.0)
    if x.model == UNION:
        return union([(0.0, 0.0)])
    return maxval(0.0)


def _ambient(x: Element, y: Element) -> str:
    """Common ambient model of two elements, or raise ModelMismatch."""
    if x.model == y.model:
        return x.model
    set_models = {INTERVAL, UNION}
    if {x.model, y.model} <= set_models:
        return UNION
    raise ModelMismatch(f"cannot combine {x.model} with {y.model}")


def _as_components(x: Element):
    if x.model == INTERVAL:
        return (x.payload,)
    return x.payload


def add(x: Element, y: Element) -> Element:
    """Semilinear addition (Minkowski sum for set models, max in max-space)."""
    model = _ambient(x, y)
    if model == REAL:
        return real(x.payload + y.payload)
    if model == VECTOR:
        if len(x.payload) != len(y.payload):
            raise ModelMismatch("vector dimensions differ")
        return vector(*(a + b for a, b in zip(x.payload, y.payload)))
    if model == MAX:
        return maxval(max(x.payload, y.payload))
    if x.model == INTERVAL and y.model == INTERVAL:
        return interval(x.payload[0] + y.payload[0], x.payload[1] + y.payload[1])
    sums = [
        (l1 + l2, h1 + h2)
        for (l1, h1) in _as_components(x)
        for (l2, h2) in _as_components(y)
    ]
    return union(sums)


def scale(lam: float, x: Element) -> Element:
    """Scalar action; in max-space this is |lam| * x."""
    lam = float(lam)
    if x.model == REAL:
        return real(lam * x.payload)
    if x.model == VECTOR:
        return vector(*(lam * a for a in x.payload))
    if x.model == MAX:
        return maxval(abs(lam) * x.payload)
    if x.model == INTERVAL:
        a, b = lam * x.payload[0], lam * x.payload[1]
        return interval(min(a, b), max(a, b))
    comps = [(min(lam * lo, lam * hi), max(lam * lo, lam * hi)) for lo, hi in x.payload]
    return union(comps)


def _point_to_union_dist(p: float, comps) -> float:
    return min(0.0 if lo <= p <= hi else min(abs(p - lo), abs(p - hi)) for lo, hi in comps)


def _one_sided_hausdorff(a_comps, b_comps) -> float:
    # sup_{p in A} dist(p, B) is attained either at a component endpoint of A
    # or at a gap midpoint of B lying inside A.
    cands = [lo for lo, _ in a_comps] + [hi for _, hi in a_comps]
    for (_, h1), (l2, _) in zip(b_comps, b_comps[1:]):
        mid = 0.5 * (h1 + l2)
        if any(lo <= mid <= hi for lo, hi in a_comps):
            cands.append(mid)
    return max(_point_to_union_dist(p, b_comps) for p in cands)


def dist(x: Element, y: Element) -> float:
    """Metric of the common model (Hausdorff metric for set models)."""
    model = _ambient(x, y)
    if model in (REAL, MAX):
        return abs(x.payload - y.payload)
    if model == VECTOR:
        if len(x.payload) != len(y.payload):
            raise ModelMismatch("vector dimensions differ")
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x.payload, y.payload)))
    if x.model == INTERVAL and y.model == INTERVAL:
        return max(abs(x.payload[0] - y.payload[0]), abs(x.payload[1] - y.payload[1]))
    a, b = _as_components(x), _as_components(y)
    return max(_one_sided_hausdorff(a, b), _one_sided_hausdorff(b, a))


def norm(x: Element) -> float:
    return dist(x, zero_like(x))


def inverse(x: Element) -> Element:
    """Additive inverse x' with x + x' = 0, if it exists."""
    if x.model == REAL:
        return real(-x.payload)
    if x.model == VECTOR:
        return scale(-1.0, x)
    if x.model == INTERVAL:
        lo, hi = x.payload
        if hi - lo > EQ_TOL:
            raise NotInvertible("only degenerate intervals are invertible")
        return interval(-hi, -lo)
    if x.model == UNION:
        if len(x.payload) != 1:
            raise NotInvertible("only singleton unions are invertible")
        lo, hi = x.payload[0]
        if hi - lo > EQ_TOL:
            raise NotInvertible("only degenerate intervals are invertible")
        return union([(-hi, -lo)])
    if x.payload > 0.0:
        raise NotInvertible("only 0 is invertible in max-space")
    return maxval(0.0)


def hukuhara_diff(x: Element, y: Element) -> Element:
    """The element z with x = y + z, when it exists (isotropic models only)."""
    model = _ambient(x, y)
    if model == MAX:
        raise NonIsotropic("Hukuhara differences are not unique in max-space")
    if model == REAL:
        return real(x.payload - y.payload)
    if model == VECTOR:
        if len(x.payload) != len(y.payload):
            raise ModelMismatch("vector dimensions differ")
        return vector(*(a - b for a, b in zip(x.payload, y.payload)))
    if x.model == INTERVAL and y.model == INTERVAL:
        z_lo = x.payload[0] - y.payload[0]
        z_hi = x.payload[1] - y.payload[1]
        if z_lo > z_hi + width_tol(max(map(abs, x.payload + y.payload))):
            raise NoDifference("interval width would decrease")
        return interval(z_lo, max(z_lo, z_hi))  # clamp float noise on equal widths
    # Unions: construct a candidate componentwise and verify by re-adding.
    xc, yc = _as_components(x), _as_components(y)
    if len(yc) == 1:
        ylo, yhi = yc[0]
        cand = [(lo - ylo, hi - yhi) for lo, hi in xc]
    elif len(xc) == len(yc):
        cand = [(l1 - l2, h1 - h2) for (l1, h1), (l2, h2) in zip(xc, yc)]
    else:
        raise NoDifference("no componentwise difference candidate")
    if any(lo > hi + EQ_TOL for lo, hi in cand):
        raise NoDifference("component width would decrease")
    cand = [(lo, max(lo, hi)) for lo, hi in cand]
    z = union(cand) if x.model == UNION or y.model == UNION else interval(*cand[0])
    if not close(add(y, z), x, tol=1e-9):
        raise NoDifference("candidate does not reproduce the minuend")
    return z


def close(x: Element, y: Element, tol: float = EQ_TOL) -> bool:
    """Payload-wise comparison with absolute tolerance."""
    try:
        model = _ambient(x, y)
    except ModelMismatch:
        return False
    if model in (REAL, MAX):
        return abs(x.payload - y.payload) <= tol
    if model == VECTOR:
        return len(x.payload) == len(y.payload) and all(
            abs(a - b) <= tol for a, b in zip(x.payload, y.payload)
        )
    if x.model == INTERVAL and y.model == INTERVAL:
        return abs(x.payload[0] - y.payload[0]) <= tol and abs(x.payload[1] - y.payload[1]) <= tol
    a, b = _as_components(x), _as_components(y)
    if len(a) != len(b):
        return False
    return all(
        abs(l1 - l2) <= tol and abs(h1 - h2) <= tol for (l1, h1), (l2, h2) in zip(a, b)
    )
