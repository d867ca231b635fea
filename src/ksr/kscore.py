"""Sharp two-weight integral comparison machinery.

Core objects: piecewise-constant weights, the mass-pairing map rho
(equal mass to the left of s and to the right of rho(s)), the sharp
comparison bound with its extremal functions, the hat decomposition
and hat-sum rearrangement, and the general rearrangement-based estimate for
weight pairs with common support.

Weights are piecewise constant by design: the pairing map is then
piecewise affine and every bound here is a finite closed-form sum of
modulus primitives, with no root finding or quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import gridfn as gf
from . import lspace as ls
from .errors import (
    BadSupportOrder,
    CannotCertify,
    MassMismatch,
    NonConcave,
    PeelingFailed,
)
from .modulus import Modulus
from .poly import (
    decreasing_rearrangement,
    insert_zero_crossings,
    merge_breakpoints,
    poly_integral,
)

MASS_TOL = 1e-10


# ---------------------------------------------------------------------------
# step weights


@dataclass(frozen=True)
class StepWeight:
    """Nonnegative piecewise-constant weight on ``domain``.

    ``pieces`` are disjoint sorted triples (u, v, w) with w > 0; the
    weight vanishes between pieces and outside its support.
    """

    domain: Tuple[float, float]
    pieces: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        a, b = self.domain
        if not self.pieces:
            raise ValueError("weight needs at least one piece")
        for u, v, w in self.pieces:
            if v <= u:
                raise ValueError(f"piece ({u}, {v}) has nonpositive length")
            if w <= 0.0:
                raise ValueError("piece heights must be positive")
            if u < a - 1e-12 or v > b + 1e-12:
                raise ValueError("piece outside the stated domain")
        for (_, v1, _), (u2, _, _) in zip(self.pieces, self.pieces[1:]):
            if u2 < v1 - 1e-12:
                raise ValueError("pieces must be sorted and disjoint")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.pieces[0][0], self.pieces[-1][1])

    def mass(self) -> float:
        return float(sum(w * (v - u) for u, v, w in self.pieces))

    def primitive(self, s: float) -> float:
        """int_a^s of the weight, exact."""
        acc = 0.0
        for u, v, w in self.pieces:
            if s <= u:
                break
            acc += w * (min(s, v) - u)
        return acc

    def eval(self, t: float) -> float:
        for u, v, w in self.pieces:
            if u <= t < v:
                return w
        if self.pieces and t == self.pieces[-1][1]:
            return self.pieces[-1][2]
        return 0.0

    def breakpoints(self) -> List[float]:
        out = [self.domain[0], self.domain[1]]
        for u, v, _ in self.pieces:
            out.extend((u, v))
        return sorted(set(out))

    def reflect(self, lo: float, hi: float) -> "StepWeight":
        """Mirror image about the midpoint of [lo, hi]."""
        pieces = tuple(
            sorted((lo + hi - v, lo + hi - u, w) for u, v, w in self.pieces)
        )
        domain = (lo + hi - self.domain[1], lo + hi - self.domain[0])
        return StepWeight(domain, pieces)


def step_weight(domain, pieces) -> StepWeight:
    return StepWeight(
        (float(domain[0]), float(domain[1])),
        tuple((float(u), float(v), float(w)) for u, v, w in pieces),
    )


def indicator_weight(u: float, v: float, height: float = 1.0, domain=None) -> StepWeight:
    domain = (u, v) if domain is None else domain
    return step_weight(domain, [(u, v, height)])


def parse_step_weight(text: str) -> StepWeight:
    """Parse ``a,b; u1,v1,w1; u2,v2,w2; ...``."""
    if not text:
        raise ValueError("missing weight spec")
    chunks = [c.strip() for c in text.split(";") if c.strip()]
    if len(chunks) < 2:
        raise ValueError(f"malformed weight spec {text!r}")
    a, b = (float(x) for x in chunks[0].split(","))
    pieces = []
    for c in chunks[1:]:
        u, v, w = (float(x) for x in c.split(","))
        pieces.append((u, v, w))
    if not np.all(np.isfinite([a, b, *(x for p in pieces for x in p)])):
        raise ValueError(f"weight spec {text!r} has a non-finite number")
    return step_weight((a, b), pieces)


# ---------------------------------------------------------------------------
# the mass-pairing map rho


@dataclass(frozen=True)
class RhoMap:
    """Piecewise-affine pairing map for an admissible weight pair.

    ``segments`` are (s0, s1, r0, r1, weight) tuples covering
    [a, a1]: on each, rho is affine from r0 to r1 and the left weight is
    constant; zero-weight segments are support gaps, where rho is
    constant.  On [a1, c], rho(s) = a1 + b1 - s.
    """

    a: float
    a1: float
    b1: float
    b: float
    segments: Tuple[Tuple[float, float, float, float, float], ...]

    @property
    def c(self) -> float:
        return 0.5 * (self.a1 + self.b1)


def _mass_refined_segments(w1: StepWeight, w2: StepWeight) -> List[Tuple[float, float, float, float, float]]:
    mass = 0.5 * (w1.mass() + w2.mass())
    cum1 = [0.0]
    for u, v, w in w1.pieces:
        cum1.append(cum1[-1] + w * (v - u))
    # tail masses of the right weight at piece edges, walking right to left
    tails = []  # (tail_at_right_edge, tail_at_left_edge, x, y, w)
    tail = 0.0
    for x, y, w in reversed(w2.pieces):
        tails.append((tail, tail + w * (y - x), x, y, w))
        tail += w * (y - x)
    cuts = sorted({0.0, mass} | set(cum1) | {t for t0, t1, *_ in tails for t in (t0, t1)})
    cuts = [m for m in cuts if -MASS_TOL <= m <= mass + MASS_TOL]

    def rho_of(m_lo: float, m_hi: float):
        mid = 0.5 * (m_lo + m_hi)
        for t0, t1, x, y, w in tails:
            if t0 - MASS_TOL <= mid <= t1 + MASS_TOL:
                return (y - (m_lo - t0) / w, y - (m_hi - t0) / w)
        raise MassMismatch("mass level not covered by the right weight")

    segments: List[Tuple[float, float, float, float, float]] = []
    for (u, v, w), m_u, m_v in zip(w1.pieces, cum1, cum1[1:]):
        if segments and segments[-1][1] < u - 1e-13:
            # support gap: rho constant at the previous value
            r_prev = segments[-1][3]
            segments.append((segments[-1][1], u, r_prev, r_prev, 0.0))
        sub = [m for m in cuts if m_u + MASS_TOL < m < m_v - MASS_TOL]
        grid = [m_u] + sub + [m_v]
        for p, q in zip(grid, grid[1:]):
            s0 = u + (p - m_u) / w
            s1 = u + (q - m_u) / w
            if s1 - s0 <= 1e-15:
                continue
            r0, r1 = rho_of(p, q)
            segments.append((s0, s1, r0, r1, w))
    return segments


def solve_rho(w1: StepWeight, w2: StepWeight) -> RhoMap:
    """Pairing map for a weight pair: equal masses over [a, s] on the left
    and [rho(s), b] on the right."""
    if abs(w1.mass() - w2.mass()) > MASS_TOL:
        raise MassMismatch(f"masses differ: {w1.mass()} vs {w2.mass()}")
    a, a1 = w1.support
    b1, b = w2.support
    if a1 > b1 + 1e-12:
        raise BadSupportOrder(f"left support [{a}, {a1}] must not pass right support [{b1}, {b}]")
    return RhoMap(a, a1, max(a1, b1), b, tuple(_mass_refined_segments(w1, w2)))


def _segment_bound(segments, omega: Modulus) -> float:
    total = 0.0
    for s0, s1, r0, r1, w in segments:
        if w == 0.0:
            continue
        v0, v1 = r0 - s0, r1 - s1
        if v0 - v1 <= 1e-15:
            total += w * (s1 - s0) * float(omega(0.5 * (v0 + v1)))
        else:
            total += w * (s1 - s0) * omega.primitive(v1, v0) / (v0 - v1)
    return total


def ks_bound(w1: StepWeight, w2: StepWeight, omega: Modulus) -> float:
    """Sharp bound for the two-weight comparison functional.

    Both evaluation orders (integrating against the left weight and,
    after reflection, against the right one) are computed and must agree
    to 1e-8; sharpness requires a concave modulus and an isotropic model.
    """
    rho = solve_rho(w1, w2)
    form1 = _segment_bound(rho.segments, omega)
    lo, hi = w1.support[0], w2.support[1]
    rho_r = solve_rho(w2.reflect(lo, hi), w1.reflect(lo, hi))
    form2 = _segment_bound(rho_r.segments, omega)
    if abs(form1 - form2) > 1e-8 * max(1.0, abs(form1)):
        raise ArithmeticError(f"bound evaluation orders disagree: {form1} vs {form2}")
    return form1


def _left_branch(segments, a1: float, b1: float, omega: Modulus, ts: np.ndarray) -> np.ndarray:
    """Values of the nondecreasing extremal on [a, c]:
    g(t) = -int_t^c w'(rho(s) - s) ds, evaluated in closed form.

    A node t < a1 lies in segment j, the first with t < s1.  It takes
    -(base + suffix[j]) at or before that segment's start, and
    -((base + partial term of j) + suffix[j+1]) inside it; a node past
    every segment takes -base.
    """
    base = 0.5 * float(omega(b1 - a1))
    coef, w_end, dws = [], [], []
    for s0, s1, r0, r1, _ in segments:
        v0, v1 = r0 - s0, r1 - s1
        coef.append((s1 - s0) / (v0 - v1))
        w_end.append(float(omega(v1)))
        dws.append(coef[-1] * (float(omega(v0)) - w_end[-1]))
    suffix = np.concatenate((np.cumsum(dws[::-1])[::-1], [0.0])) if dws else np.array([0.0])
    c = 0.5 * (a1 + b1)
    out = np.empty_like(ts, dtype=float)
    right = ts >= a1
    out[right] = -0.5 * omega(np.maximum(a1 + b1 - 2.0 * np.minimum(ts[right], c), 0.0))
    t = ts[~right]
    acc = np.full(t.shape, base)
    if segments:
        s0, s1, r0, r1, _ = np.array(segments, dtype=float).T
        v0, v1 = r0 - s0, r1 - s1
        # the running max makes the search exact even if s1 were unsorted
        j = np.searchsorted(np.maximum.accumulate(s1), t, side="right")
        hit = j < len(segments)
        jh, th = j[hit], t[hit]
        acc_hit = base + suffix[jh]
        inside = th > s0[jh]
        k = jh[inside]
        lam = (th[inside] - s0[k]) / (s1[k] - s0[k])
        vt = v0[k] + lam * (v1[k] - v0[k])
        term = np.array(coef)[k] * (omega(vt) - np.array(w_end)[k])
        acc_hit[inside] = (base + term) + suffix[k + 1]
        acc[hit] = acc_hit
    out[~right] = -acc
    return out


def ks_extremal(w1: StepWeight, w2: StepWeight, omega: Modulus, n: int = gf.DEFAULT_GRID) -> gf.GridFunction:
    """Nondecreasing real extremal attaining the sharp two-weight bound
    (concave modulus required); vanishes at the support midpoint."""
    if not omega.concave:
        raise NonConcave("sharp extremal functions require a concave modulus")
    lo, hi = w1.support[0], w2.support[1]
    return gf.GridFunction(lo, hi, ls.REAL, _extremal_on(w1, w2, omega, np.linspace(lo, hi, n + 1)))


# ---------------------------------------------------------------------------
# weighted integrals and the comparison functional


def integrate_weighted(f: gf.GridFunction, w: StepWeight) -> ls.Element:
    """Exact integral of w(t) f(t) dt (trapezoid payloads, step weight)."""
    if w.support[0] < f.a - 1e-9 or w.support[1] > f.b + 1e-9:
        raise ValueError("weight support outside the function domain")
    comps = gf._endpoint_arrays(f)
    nodes = f.nodes
    vals = []
    for arr in comps:
        acc = 0.0
        for u, v, height in w.pieces:
            acc += height * poly_integral(nodes, arr, max(u, f.a), min(v, f.b))
        vals.append(acc)
    return gf._integral_element(f, vals)


def functional_S(f: gf.GridFunction, w1: StepWeight, w2: StepWeight) -> float:
    """dist(int w1 f, int w2 f) -- the quantity the sharp bound controls."""
    return ls.dist(integrate_weighted(f, w1), integrate_weighted(f, w2))


# ---------------------------------------------------------------------------
# hat decomposition (persistence peeling)


@dataclass(frozen=True)
class Hat:
    """One hump of the decomposition: nonnegative polyline magnitude that
    vanishes at both support ends, plus the sign it carries in the sum."""

    xs: np.ndarray
    mag: np.ndarray
    sign: float

    @property
    def support(self) -> Tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))


@dataclass(frozen=True)
class HatDecomposition:
    domain: Tuple[float, float]
    hats: Tuple[Hat, ...]


def _find_peaks(y: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Plateau peaks as index arrays (l, r), left to right: maximal
    equal-value runs strictly above both neighbors, with height above
    tol.  The first and last runs touch the boundary and never count."""
    ends = np.flatnonzero(y[1:] != y[:-1])  # the last index of every run but the final one
    l, r = ends[:-1] + 1, ends[1:]
    keep = (y[l - 1] < y[l]) & (y[r + 1] < y[r]) & (y[l] > tol)
    return l[keep], r[keep]


# the most entries of one (peaks x breakpoints) temporary in _prominence
PROMINENCE_BLOCK = 1 << 16


def _prominence(y: np.ndarray, l: np.ndarray, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Prominence and saddle level of each plateau peak [l, r].  Each side
    reaches to the nearest index whose value is not below the peak height
    h and takes the minimum of y (and h) strictly between; a side that
    reaches the boundary has minimum 0, as the boundary values vanish."""
    n = len(y)
    rows = max(1, PROMINENCE_BLOCK // n)
    if len(l) > rows:  # in blocks of peaks, so that memory stays bounded
        parts = [_prominence(y, l[i : i + rows], r[i : i + rows]) for i in range(0, len(l), rows)]
        return np.concatenate([p for p, _ in parts]), np.concatenate([s for _, s in parts])
    h = y[l][:, None]
    idx = np.arange(n)
    stop = ~(y < h)
    left = np.where(stop & (idx < l[:, None]), idx, -1).max(axis=1)
    right = np.where(stop & (idx > r[:, None]), idx, n).min(axis=1)
    lmin = np.where((idx > left[:, None]) & (idx < l[:, None]), y, h).min(axis=1)
    rmin = np.where((idx > r[:, None]) & (idx < right[:, None]), y, h).min(axis=1)
    lmin[left < 0] = 0.0
    rmin[right >= n] = 0.0
    saddle = np.maximum(lmin, rmin)
    return h[:, 0] - saddle, saddle


def _lowest_peak(y: np.ndarray, tol: float) -> Optional[Tuple[float, int, int]]:
    """Saddle level v and plateau [l, r] of the peak of least prominence,
    or None when y has no peak.  Peaks are scanned left to right, and a
    later one wins only when its prominence is smaller by more than 1e-15."""
    lefts, rights = _find_peaks(y, tol)
    if not len(lefts):
        return None
    proms, saddles = _prominence(y, lefts, rights)
    proms = proms.tolist()
    best = 0
    for k in range(1, len(proms)):
        if proms[k] < proms[best] - 1e-15:
            best = k
    return saddles[best], int(lefts[best]), int(rights[best])


def _insert_point(xs: np.ndarray, arrays: List[np.ndarray], idx: int, x: float, vals: List[float]):
    xs = np.insert(xs, idx, x)
    arrays = [np.insert(arr, idx, v) for arr, v in zip(arrays, vals)]
    return xs, arrays


def _peel_hats(xs: np.ndarray, ys: np.ndarray, tol: float) -> List[Hat]:
    """Iteratively peel the smallest-prominence peak of |ys| at its saddle
    level; level-crossing breakpoints are inserted so every hat vanishes
    exactly at shared breakpoints."""
    y = np.abs(ys).astype(float)
    src = ys.astype(float)
    hats: List[Hat] = []
    # fixed up front: a pass may insert breakpoints, so a limit read off
    # the growing arrays could recede forever
    limit = 10 * len(y) + 100
    guard = 0
    while True:
        guard += 1
        if guard > limit:
            raise PeelingFailed("peeling failed to terminate")
        peak = _lowest_peak(y, tol)
        if peak is None:
            break
        v, l, r = peak
        # expand the superlevel component around the peak
        i0 = l
        while i0 - 1 >= 0 and y[i0 - 1] > v:
            i0 -= 1
        i1 = r
        while i1 + 1 < len(y) and y[i1 + 1] > v:
            i1 += 1
        # insert exact level-v crossings so the hat closes at shared points
        if y[i0 - 1] < v:
            frac = (v - y[i0 - 1]) / (y[i0] - y[i0 - 1])
            xa = xs[i0 - 1] + frac * (xs[i0] - xs[i0 - 1])
            sa = src[i0 - 1] + frac * (src[i0] - src[i0 - 1])
            xs, (y, src) = _insert_point(xs, [y, src], i0, xa, [v, sa])
            i0 += 1
            i1 += 1
        if y[i1 + 1] < v:
            frac = (v - y[i1 + 1]) / (y[i1] - y[i1 + 1])
            xb = xs[i1 + 1] - frac * (xs[i1 + 1] - xs[i1])
            sb = src[i1 + 1] - frac * (src[i1 + 1] - src[i1])
            xs, (y, src) = _insert_point(xs, [y, src], i1 + 1, xb, [v, sb])
        lo, hi = i0 - 1, i1 + 1
        mag = y[lo : hi + 1] - v
        mag[0] = 0.0
        mag[-1] = 0.0
        peak_idx = lo + int(np.argmax(mag))
        sign = 1.0 if src[peak_idx] >= 0.0 else -1.0
        hats.append(Hat(xs[lo : hi + 1].copy(), mag, sign))
        y[i0 : i1 + 1] = v
    return hats


def _decompose_polyline(xs: np.ndarray, ys: np.ndarray, domain: Tuple[float, float]) -> HatDecomposition:
    ys = ys.copy()
    ys[0] = 0.0
    ys[-1] = 0.0
    xs2, ys2 = insert_zero_crossings(xs, ys)
    scale = max(1.0, float(np.max(np.abs(ys2))))
    hats = sorted(_peel_hats(xs2, ys2, tol=1e-12 * scale), key=lambda h: h.support[0])
    return HatDecomposition(domain, tuple(hats))


def decompose_weights(w1: StepWeight, w2: StepWeight) -> HatDecomposition:
    """Hat decomposition of Psi(t) = int_a^t (w1 - w2)."""
    lo = min(w1.domain[0], w2.domain[0])
    hi = max(w1.domain[1], w2.domain[1])
    xs = merge_breakpoints(w1.breakpoints(), w2.breakpoints(), [lo, hi])
    ys = np.zeros_like(xs)
    for i in range(len(xs) - 1):
        mid = 0.5 * (xs[i] + xs[i + 1])
        ys[i + 1] = ys[i] + (w1.eval(mid) - w2.eval(mid)) * (xs[i + 1] - xs[i])
    if abs(ys[-1]) > 1e-9:
        raise MassMismatch(f"weights do not balance: residue {ys[-1]}")
    return _decompose_polyline(xs, ys, (lo, hi))


# ---------------------------------------------------------------------------
# the general rearrangement estimate


def _sum_of_hat_rearrangements(decomp: HatDecomposition) -> Tuple[np.ndarray, np.ndarray]:
    length = decomp.domain[1] - decomp.domain[0]
    polylines = [decreasing_rearrangement(h.xs, h.mag) for h in decomp.hats]
    if not polylines:
        return np.array([0.0, length]), np.array([0.0, 0.0])
    xs = merge_breakpoints(*[px for px, _ in polylines], [0.0, length])
    ys = np.zeros_like(xs)
    for px, py in polylines:
        ys += np.where(xs <= px[-1], np.interp(xs, px, py), 0.0)
    return xs, ys


def _integral_against_omega_prime(xs: np.ndarray, ys: np.ndarray, omega: Modulus) -> float:
    """int ys(t) w'(t) dt for a polyline, by parts on each piece (exact)."""
    total = 0.0
    for i in range(len(xs) - 1):
        t0, t1 = float(xs[i]), float(xs[i + 1])
        if t1 <= t0:
            continue
        y0, y1 = float(ys[i]), float(ys[i + 1])
        slope = (y1 - y0) / (t1 - t0)
        total += y1 * float(omega(t1)) - y0 * float(omega(t0)) - slope * omega.primitive(t0, t1)
    return total


def general_bound(w1: StepWeight, w2: StepWeight, omega: Modulus) -> float:
    """Rearrangement estimate for the comparison functional of an
    arbitrary balanced weight pair on a common interval; reduces to
    ``ks_bound`` for disjointly supported pairs."""
    if not omega.concave:
        raise NonConcave("the rearrangement estimate requires a concave modulus")
    if abs(w1.mass() - w2.mass()) > MASS_TOL:
        raise MassMismatch(f"masses differ: {w1.mass()} vs {w2.mass()}")
    decomp = decompose_weights(w1, w2)
    xs, ys = _sum_of_hat_rearrangements(decomp)
    return _integral_against_omega_prime(xs, ys, omega)


def rearrangement_forms(w1: StepWeight, w2: StepWeight, omega: Modulus) -> Tuple[float, float]:
    """Both forms of the rearrangement identity:
    |int R'(t) w(t) dt| and int R(t) w'(t) dt.  They agree for concave
    moduli (integration by parts; R vanishes at the right endpoint)."""
    decomp = decompose_weights(w1, w2)
    xs, ys = _sum_of_hat_rearrangements(decomp)
    form_deriv = 0.0
    for i in range(len(xs) - 1):
        t0, t1 = float(xs[i]), float(xs[i + 1])
        if t1 <= t0:
            continue
        slope = (float(ys[i + 1]) - float(ys[i])) / (t1 - t0)
        form_deriv += slope * omega.primitive(t0, t1)
    return abs(form_deriv), _integral_against_omega_prime(xs, ys, omega)


# ---------------------------------------------------------------------------
# gluing per-hat extremals


def _hat_weight_pair(hat: Hat) -> Tuple[StepWeight, StepWeight]:
    rising, falling = [], []
    for i in range(len(hat.xs) - 1):
        dx = float(hat.xs[i + 1] - hat.xs[i])
        if dx <= 1e-15:
            continue
        slope = (float(hat.mag[i + 1]) - float(hat.mag[i])) / dx
        if slope > 1e-13:
            rising.append((float(hat.xs[i]), float(hat.xs[i + 1]), slope))
        elif slope < -1e-13:
            falling.append((float(hat.xs[i]), float(hat.xs[i + 1]), -slope))
    dom = hat.support
    return step_weight(dom, rising), step_weight(dom, falling)


def glue_extremal(
    decomp: HatDecomposition, omega: Modulus, n: int = gf.DEFAULT_GRID
) -> gf.GridFunction:
    """Glue the per-hat extremals into a single candidate for the general
    estimate: oriented by hat sign, chained continuously, constant on
    gaps.  Class membership of the candidate is verified; a candidate
    that fails (possible when the support-length condition is violated)
    raises CannotCertify.
    """
    if not omega.concave:
        raise NonConcave("extremal construction requires a concave modulus")
    if not decomp.hats:
        raise CannotCertify("empty decomposition has no extremal")
    hats = decomp.hats
    for h1, h2 in zip(hats, hats[1:]):
        if h1.support[1] > h2.support[0] + 1e-12:
            raise CannotCertify("hat supports overlap; gluing undefined")
        if h1.sign * h2.sign >= 0.0:
            raise CannotCertify("adjacent hats must alternate in sign")
    a, b = decomp.domain
    ts = np.linspace(a, b, n + 1)
    vals = np.zeros_like(ts)
    level = 0.0
    prev_end = a
    for hat in hats:
        al, be = hat.support
        wp, wm = _hat_weight_pair(hat)
        inside = (ts >= al) & (ts <= be)
        pts = np.concatenate(([al], ts[inside], [be]))
        g = _extremal_on(wp, wm, omega, pts)
        if hat.sign < 0.0:
            g = -g
        offset = level - g[0]
        vals[inside] = g[1:-1] + offset
        gap = (ts >= prev_end) & (ts < al)
        vals[gap] = level
        level = g[-1] + offset
        prev_end = be
    vals[ts > prev_end] = level
    out = gf.GridFunction(a, b, ls.REAL, vals)
    report = gf.check_Homega(out, omega)
    if not report.member:
        raise CannotCertify(
            f"glued candidate leaves the class (defect {report.defect:.3e} at {report.witness})"
        )
    return out


def _extremal_on(w1: StepWeight, w2: StepWeight, omega: Modulus, ts: np.ndarray) -> np.ndarray:
    rho = solve_rho(w1, w2)
    lo, hi = w1.support[0], w2.support[1]
    rho_r = solve_rho(w2.reflect(lo, hi), w1.reflect(lo, hi))
    out = np.empty_like(ts, dtype=float)
    left = ts <= rho.c
    out[left] = _left_branch(rho.segments, rho.a1, rho.b1, omega, ts[left])
    out[~left] = -_left_branch(rho_r.segments, rho_r.a1, rho_r.b1, omega, (lo + hi) - ts[~left])
    return out
