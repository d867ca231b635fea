import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr import gridfn as gf
from ksr import kscore as ks
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import ostrowski as ost
from ksr.errors import (
    BadSupportOrder,
    CannotCertify,
    MassMismatch,
    NonConcave,
)
from ksr.poly import decreasing_rearrangements, insert_zero_crossings, merge_breakpoints, sorted_distinct

wid = mo.power(1, 1)
wsq = mo.power(1, 0.5)

W1 = ks.indicator_weight(0.0, 0.25, 1.0, domain=(0, 1))
W2 = ks.indicator_weight(0.75, 1.0, 1.0, domain=(0, 1))


class TestStepWeight:
    def test_parse(self):
        w = ks.parse_step_weight("0,1; 0,0.25,1; 0.5,0.75,2")
        assert w.mass() == pytest.approx(0.75)
        assert w == ks.step_weight((0, 1), [(0, 0.25, 1), (0.5, 0.75, 2)])

    def test_primitive_and_heights(self):
        w = ks.step_weight((0, 1), [(0.0, 0.2, 2.0), (0.6, 1.0, 1.0)])
        assert w.primitive(0.1) == pytest.approx(0.2)
        assert w.primitive(0.5) == pytest.approx(0.4)
        assert w.primitive(1.0) == pytest.approx(w.mass())
        assert w.heights(np.array([0.05, 0.4, 0.8])).tolist() == [2.0, 0.0, 1.0]

    def test_invalid_pieces(self):
        with pytest.raises(ValueError):
            ks.step_weight((0, 1), [(0.5, 0.4, 1.0)])
        with pytest.raises(ValueError):
            ks.step_weight((0, 1), [(0.0, 0.5, -1.0)])
        with pytest.raises(ValueError):
            ks.step_weight((0, 1), [(0.0, 0.5, 1.0), (0.4, 0.8, 1.0)])


class TestRhoMap:
    def test_unit_weights_give_reflection(self):
        rho = ks.solve_rho(W1, W2)
        assert rho.segments
        for s0, s1, r0, r1, w in rho.segments:
            assert r0 == pytest.approx(1.0 - s0, abs=1e-12)
            assert r1 == pytest.approx(1.0 - s1, abs=1e-12)
            assert w == 1.0
        # on [a1, c] the map is a1 + b1 - s, the same reflection
        assert rho.a1 + rho.b1 == pytest.approx(1.0, abs=1e-12)

    def test_boundary_values(self):
        rho = ks.solve_rho(W1, W2)
        s0, _, r0, _, _ = rho.segments[0]
        _, s1, _, r1, _ = rho.segments[-1]
        assert (s0, r0) == pytest.approx((0.0, 1.0))  # rho(a) = b
        assert (s1, r1) == pytest.approx((0.25, 0.75))  # rho(a1) = b1
        assert rho.c == pytest.approx(0.5)

    def test_segments_pair_equal_masses(self):
        # each segment carries the left mass over [s0, s1] and the right
        # mass over [r1, r0]; together the segments tile [a, a1] and [b1, b]
        w1 = ks.step_weight((0, 1), [(0.0, 0.1, 3.0), (0.1, 0.3, 0.25)])
        w2 = ks.step_weight((0, 1), [(0.6, 0.9, 1.0), (0.9, 1.0, 0.5)])
        rho = ks.solve_rho(w1, w2)
        assert len(rho.segments) > 1
        for s0, s1, r0, r1, w in rho.segments:
            left = w1.primitive(s1) - w1.primitive(s0)
            assert left == pytest.approx(w * (s1 - s0), abs=1e-12)
            assert w2.primitive(r0) - w2.primitive(r1) == pytest.approx(left, abs=1e-12)
        for (_, s1, _, r1, _), (s0, _, r0, _, _) in zip(rho.segments, rho.segments[1:]):
            assert (s0, r0) == pytest.approx((s1, r1), abs=1e-12)

    def test_strictly_decreasing_on_positive_support(self):
        w1 = ks.step_weight((0, 1), [(0.0, 0.1, 3.0), (0.1, 0.3, 0.25)])
        w2 = ks.step_weight((0, 1), [(0.6, 0.9, 1.0), (0.9, 1.0, 0.5)])
        rho = ks.solve_rho(w1, w2)
        s0s, s1s, r0s, r1s, _ = np.array(rho.segments).T
        assert np.all(s1s > s0s) and np.all(r0s > r1s)
        assert np.all(r0s[1:] <= r1s[:-1] + 1e-12)
        assert (s0s[0], r0s[0]) == pytest.approx((0.0, 1.0))  # rho(0) = 1
        assert (s1s[-1], r1s[-1]) == pytest.approx((0.3, 0.6))  # rho(0.3) = 0.6
        assert rho.c == pytest.approx(0.45)

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            ks.solve_rho(W1, ks.indicator_weight(0.7, 1.0, 1.0, domain=(0, 1)))

    def test_support_order(self):
        with pytest.raises(BadSupportOrder):
            ks.solve_rho(ks.indicator_weight(0.5, 1.0, 1.0), ks.indicator_weight(0.0, 0.5, 1.0))


class TestBound:
    def test_unit_configuration(self):
        assert ks.ks_bound(W1, W2, wid) == pytest.approx(0.1875, abs=1e-12)

    def test_sqrt_configuration(self):
        expect = (1 - 0.5 ** 1.5) / 3
        assert ks.ks_bound(W1, W2, wsq) == pytest.approx(expect, abs=1e-12)

    def test_degenerate_middle(self):
        wa = ks.indicator_weight(0, 0.5, 1.0, domain=(0, 1))
        wb = ks.indicator_weight(0.5, 1.0, 1.0, domain=(0, 1))
        assert ks.ks_bound(wa, wb, wid) == pytest.approx(0.25, abs=1e-12)

    def test_matches_numeric_quadrature(self):
        # independent oracle: invert the mass primitives numerically and
        # integrate w1(s) w(rho(s) - s) ds by the trapezoid rule
        w1 = ks.step_weight((0, 1), [(0.0, 0.1, 2.0), (0.2, 0.3, 1.0)])
        w2 = ks.step_weight((0, 1), [(0.7, 0.8, 1.5), (0.9, 1.0, 1.5)])
        for omega in (wid, wsq, mo.minlin(1, 0.4)):
            direct = ks.ks_bound(w1, w2, omega)
            ss = np.linspace(0, 0.3, 20001)
            m1 = np.array([w1.primitive(float(s)) for s in ss])
            tt = np.linspace(0.7, 1.0, 20001)
            tails = np.array([w2.mass() - w2.primitive(float(t)) for t in tt])
            rho = np.interp(m1, tails[::-1], tt[::-1])
            vals = w1.heights(ss) * np.asarray(omega(rho - ss))
            quad = np.trapezoid(vals, ss)
            assert direct == pytest.approx(quad, abs=2e-4)


class TestExtremal:
    def test_linear_case(self):
        g = ks.ks_extremal(W1, W2, wid, n=512)
        assert np.max(np.abs(g.data - (g.nodes - 0.5))) <= 1e-12

    def test_membership_and_attainment(self):
        for omega in (wid, wsq, mo.minlin(1, 0.3)):
            g = ks.ks_extremal(W1, W2, omega, n=2048)
            assert gf.check_Homega(g, omega).member
            eps = gf.eps_tolerance(omega, 1.0, 2048)
            assert ks.functional_S(g, W1, W2) >= ks.ks_bound(W1, W2, omega) - eps

    def test_attainment_after_lift_and_shift(self):
        g = ks.ks_extremal(W1, W2, wid, n=1024)
        shifted = gf.GridFunction(0, 1, ls.REAL, np.asarray(g.data) + 3.7)
        lifted = gf.lift(shifted, ls.interval(1, 1))
        eps = gf.eps_tolerance(wid, 1.0, 1024)
        assert ks.functional_S(lifted, W1, W2) >= 0.1875 - eps

    def test_flattens_where_modulus_saturates(self):
        omega = mo.minlin(1, 0.2)  # w' = 0 beyond 0.2
        g = ks.ks_extremal(W1, W2, omega, n=2048)
        # rho(s) - s > 0.2 near s = 0, so the extremal is flat there
        assert abs(g.data[10] - g.data[0]) <= 1e-12
        assert ks.functional_S(g, W1, W2) == pytest.approx(ks.ks_bound(W1, W2, omega), abs=1e-3)

    def test_vanishes_at_center(self):
        g = ks.ks_extremal(W1, W2, wsq, n=512)
        assert abs(float(np.interp(0.5, g.nodes, g.data))) <= 1e-12

    def test_nonconcave_rejected(self):
        with pytest.raises(NonConcave):
            ks.ks_extremal(W1, W2, mo.PowerModulus(1, 2.0), n=64)

    def test_weights_with_support_gaps(self):
        # the pairing map is constant across a gap in the left support;
        # bound, rearrangement estimate and extremal must stay consistent
        w1 = ks.step_weight((0, 1), [(0.0, 0.1, 1.0), (0.2, 0.3, 1.0)])
        w2 = ks.step_weight((0, 1), [(0.8, 1.0, 1.0)])
        assert ks.ks_bound(w1, w2, wid) == pytest.approx(0.15, abs=1e-12)
        for omega in (wid, wsq):
            bound = ks.ks_bound(w1, w2, omega)
            assert ks.general_bound(w1, w2, omega) == pytest.approx(bound, abs=1e-9)
            g = ks.ks_extremal(w1, w2, omega, n=2048)
            assert gf.check_Homega(g, omega).member
            eps = gf.eps_tolerance(omega, 1.0, 2048)
            assert ks.functional_S(g, w1, w2) >= bound - eps


def _left_branch_loop(segments, a1, b1, omega, ts):
    """The per-node loop that ``ks._left_branch`` vectorises, with scalar
    omega calls.  Kept as the bit-for-bit reference."""
    base = 0.5 * float(omega(b1 - a1))
    dws = []
    for s0, s1, r0, r1, _ in segments:
        v0, v1 = r0 - s0, r1 - s1
        dws.append((s1 - s0) / (v0 - v1) * (float(omega(v0)) - float(omega(v1))))
    suffix = np.concatenate((np.cumsum(dws[::-1])[::-1], [0.0])) if dws else np.array([0.0])
    c = 0.5 * (a1 + b1)
    out = np.empty_like(ts, dtype=float)
    for i, t in enumerate(ts):
        if t >= a1:
            out[i] = -0.5 * float(omega(max(a1 + b1 - 2.0 * min(t, c), 0.0)))
            continue
        acc = base
        for j, (s0, s1, r0, r1, _) in enumerate(segments):
            if t <= s0:
                acc += suffix[j]
                break
            if t < s1:
                v0, v1 = r0 - s0, r1 - s1
                lam = (t - s0) / (s1 - s0)
                vt = v0 + lam * (v1 - v0)
                acc += (s1 - s0) / (v0 - v1) * (float(omega(vt)) - float(omega(v1)))
                acc += suffix[j + 1]
                break
        out[i] = -acc
    return out


def _branch_weight_pairs():
    """The weight pairs of the ks, eq12 and general suites: the ks pair
    (also eq12 configs 0 and 1), eq12 configs 2-4, and the hat pairs
    glued for the general suite."""
    pairs = {"ks": (W1, W2)}
    eq12 = [
        (ks.step_weight((0, 1), [(0.0, 0.1, 2.0), (0.1, 0.3, 0.5)]), ks.indicator_weight(0.8, 1.0, 1.5, domain=(0, 1))),
        (ks.indicator_weight(0, 0.5, 1, domain=(0, 1)), ks.indicator_weight(0.5, 1, 1, domain=(0, 1))),
        (ks.step_weight((0, 2), [(0.0, 0.4, 1.0), (0.5, 0.7, 3.0)]),
         ks.step_weight((0, 2), [(1.2, 1.4, 2.0), (1.6, 1.9, 2.0)])),
    ]
    pairs.update({f"eq12-{i}": p for i, p in enumerate(eq12, start=2)})
    w1, w2 = ost.two_interval_weights(ost.two_interval_config(0, 1, 0.25, 0.75))
    for i, hat in enumerate(ks.decompose_weights(w1, w2).hats):
        pairs[f"general-hat{i}"] = ks._hat_weight_pair(hat)
    return pairs


BRANCH_PAIRS = _branch_weight_pairs()
BRANCH_MODULI = {
    "power(1,1)": wid, "power(1,0.5)": wsq, "power(2,0.7)": mo.power(2, 0.7),
    "minlin": mo.minlin(1, 0.3), "plconcave": mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)]),
}


class TestLeftBranch:
    @pytest.mark.parametrize("omega", BRANCH_MODULI.values(), ids=BRANCH_MODULI.keys())
    @pytest.mark.parametrize("pair", BRANCH_PAIRS.values(), ids=BRANCH_PAIRS.keys())
    def test_matches_per_node_loop(self, pair, omega):
        w1, w2 = pair
        lo, hi = w1.support[0], w2.support[1]
        # both orientations, as _extremal_on evaluates them
        for rho in (ks.solve_rho(w1, w2), ks.solve_rho(w2.reflect(lo, hi), w1.reflect(lo, hi))):
            grid = np.linspace(rho.a, rho.c, 1001)
            # nodes exactly at every segment end, at a1 and at c
            exact = [x for s0, s1, *_ in rho.segments for x in (s0, s1)] + [rho.a1, rho.c]
            ts = np.sort(np.concatenate([grid, exact]))
            want = _left_branch_loop(rho.segments, rho.a1, rho.b1, omega, ts)
            got = ks._left_branch(rho.segments, rho.a1, rho.b1, omega, ts)
            assert got.tobytes() == want.tobytes()

    def test_hand_made_segments(self):
        # a support gap (0.7, 0.8), nodes past every segment (0.9 < t < a1),
        # and a first segment whose end interpolates inexactly: at t = s1,
        # v0 + 1 * (v1 - v0) != v1
        segments = ((0.0, 0.7, 1.9, 0.9, 1.0), (0.8, 0.9, 1.2, 1.1, 1.0))
        ts = np.array([0.0, 0.35, 0.7, 0.75, 0.8, 0.85, 0.9, 0.92, 0.95, 0.97, 1.0])
        for omega in BRANCH_MODULI.values():
            want = _left_branch_loop(segments, 0.95, 1.05, omega, ts)
            assert ks._left_branch(segments, 0.95, 1.05, omega, ts).tobytes() == want.tobytes()

    def test_empty_and_single_node(self):
        rho = ks.solve_rho(W1, W2)
        for ts in (np.array([]), np.array([0.1]), np.array([rho.a1])):
            got = ks._left_branch(rho.segments, rho.a1, rho.b1, wsq, ts)
            assert got.tobytes() == _left_branch_loop(rho.segments, rho.a1, rho.b1, wsq, ts).tobytes()


def _psi_pair_two_hats():
    w1 = ks.step_weight((0, 1), [(0.0, 0.25, 1.0), (0.5, 0.75, 1.0)])
    w2 = ks.step_weight((0, 1), [(0.25, 0.5, 1.0), (0.75, 1.0, 1.0)])
    return w1, w2


def _psi_polyline(w1, w2):
    """Psi(t) = int_a^t (w1 - w2) at the breakpoints of both weights, from
    the exact primitives."""
    xs = np.array(sorted(set(w1.breakpoints()) | set(w2.breakpoints())))
    return xs, np.array([w1.primitive(x) - w2.primitive(x) for x in xs])


def _magnitude_at(hat, t):
    return np.where((t < hat.xs[0]) | (t > hat.xs[-1]), 0.0, np.interp(t, hat.xs, hat.mag))


def _monotone_intervals(hat):
    """Maximal intervals on which the hat's magnitude is strictly monotone."""
    out, start, direction = [], None, 0
    for i in range(len(hat.xs) - 1):
        d = int(np.sign(hat.mag[i + 1] - hat.mag[i]))
        if d != 0 and d == direction:
            continue
        if direction != 0:
            out.append((float(hat.xs[start]), float(hat.xs[i])))
        direction, start = d, (i if d != 0 else None)
    if direction != 0:
        out.append((float(hat.xs[start]), float(hat.xs[-1])))
    return out


def _decomposition_defects(decomp, xs, ys):
    """Deviations from the four identities of a hat decomposition of the
    polyline (xs, ys): the magnitudes add up to |ys| at its breakpoints,
    the strict-monotonicity intervals of all hats are pairwise disjoint,
    and both the integral of |ys| and the total variation are additive
    over hats."""
    xs, ys = insert_zero_crossings(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    total = sum((_magnitude_at(h, xs) for h in decomp.hats), np.zeros_like(xs))
    intervals = sorted(iv for h in decomp.hats for iv in _monotone_intervals(h))
    overlap = max([b1 - a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:])], default=0.0)
    abs_int = sum(np.trapezoid(h.mag, h.xs) for h in decomp.hats)
    variation = sum(float(np.sum(np.abs(np.diff(h.mag)))) for h in decomp.hats)
    return {
        "abs_sum": float(np.max(np.abs(total - np.abs(ys)))),
        "overlap": max(overlap, 0.0),
        "abs_integral": abs(abs_int - np.trapezoid(np.abs(ys), xs)),
        "variation": abs(variation - float(np.sum(np.abs(np.diff(ys))))),
    }


TENT = (np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 0.0]))
# two positive peaks over a saddle at level 0.2
NESTED = (np.array([0.0, 0.2, 0.3, 0.5, 0.9, 1.0]), np.array([0.0, 0.6, 0.2, 1.0, 1.0, 0.0]))


class TestHatDecomposition:
    def test_two_hat_profile(self):
        w1, w2 = _psi_pair_two_hats()
        decomp = ks.decompose_weights(w1, w2)
        assert len(decomp.hats) == 2
        assert [h.sign for h in decomp.hats] == [1.0, 1.0]
        for key, val in _decomposition_defects(decomp, *_psi_polyline(w1, w2)).items():
            assert val <= 1e-12, key

    def test_single_hump_is_itself(self):
        decomp = ks._decompose_polyline(*TENT, (0.0, 1.0))
        assert len(decomp.hats) == 1
        hat = decomp.hats[0]
        assert float(np.max(hat.mag)) == pytest.approx(0.5, abs=1e-12)
        assert hat.support == pytest.approx((0.0, 1.0))

    def test_zero_function_gives_empty_list(self):
        xs = np.linspace(0, 1, 65)
        assert ks._decompose_polyline(xs, np.zeros_like(xs), (0.0, 1.0)).hats == ()

    def test_unbalanced_weights_rejected(self):
        # Psi must vanish at both ends; unequal masses leave a residue at b
        with pytest.raises(MassMismatch):
            ks.decompose_weights(W1, ks.indicator_weight(0.7, 1.0, 1.0, domain=(0, 1)))

    def test_nested_peaks_with_positive_saddle(self):
        decomp = ks._decompose_polyline(*NESTED, (0.0, 1.0))
        assert len(decomp.hats) == 2
        heights = sorted(float(np.max(h.mag)) for h in decomp.hats)
        assert heights == pytest.approx([0.4, 1.0], abs=1e-12)
        for key, val in _decomposition_defects(decomp, *NESTED).items():
            assert val <= 1e-12, key

    def test_alternating_signs_tracked(self):
        cfg_w1 = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        cfg_w2 = ks.indicator_weight(0.25, 0.75, 2.0, domain=(0, 1))
        decomp = ks.decompose_weights(cfg_w1, cfg_w2)
        assert [h.sign for h in decomp.hats] == [1.0, -1.0]
        for key, val in _decomposition_defects(decomp, *_psi_polyline(cfg_w1, cfg_w2)).items():
            assert val <= 1e-12, key


def _find_peaks_loop(y, tol):
    """The per-run loop that ``ks._find_peaks`` vectorises: plateau peaks
    (l, r).  Kept as the reference."""
    n = len(y)
    peaks = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and y[j + 1] == y[i]:
            j += 1
        left_lower = i == 0 or y[i - 1] < y[i]
        right_lower = j == n - 1 or y[j + 1] < y[j]
        if left_lower and right_lower and y[i] > tol and 0 < i and j < n - 1:
            peaks.append((i, j))
        i = j + 1
    return peaks


def _prominence_loop(y, l, r):
    """The walk from one peak, as ``ks._walk`` does it: prominence and
    saddle level.  Kept as the reference."""
    h = y[l]
    lmin = h
    j = l - 1
    while j >= 0 and y[j] < h:
        lmin = min(lmin, y[j])
        j -= 1
    if j < 0:
        lmin = 0.0  # boundary values vanish
    rmin = h
    j = r + 1
    while j < len(y) and y[j] < h:
        rmin = min(rmin, y[j])
        j += 1
    if j >= len(y):
        rmin = 0.0
    saddle = max(lmin, rmin)
    return h - saddle, saddle


def _lowest_peak_loop(y, tol):
    """Saddle level and plateau (v, l, r) of the peak to peel, or None:
    the peaks of ``_find_peaks_loop`` with ``_prominence_loop``, scanned
    left to right; a later one wins only when its prominence is smaller by
    more than 1e-15."""
    best = None
    for (l, r) in _find_peaks_loop(y, tol):
        prom, saddle = _prominence_loop(y, l, r)
        if best is None or prom < best[0] - 1e-15:
            best = (prom, saddle, l, r)
    return None if best is None else best[1:]


def _peel_hats_loop(xs, ys, tol):
    """The iterative peel that ``ks._peel_hats`` does in one pass: after
    every hat, find the peaks and their prominences again on the whole
    polyline.  Kept as the reference."""
    y = np.abs(ys).astype(float)
    src = ys.astype(float)
    hats = []
    for _ in range(10 * len(y) + 100):
        peak = _lowest_peak_loop(y, tol)
        if peak is None:
            return hats
        v, l, r = peak
        i0 = l
        while i0 - 1 >= 0 and y[i0 - 1] > v:
            i0 -= 1
        i1 = r
        while i1 + 1 < len(y) and y[i1 + 1] > v:
            i1 += 1
        if y[i0 - 1] < v:
            frac = (v - y[i0 - 1]) / (y[i0] - y[i0 - 1])
            xa = xs[i0 - 1] + frac * (xs[i0] - xs[i0 - 1])
            sa = src[i0 - 1] + frac * (src[i0] - src[i0 - 1])
            xs, y, src = np.insert(xs, i0, xa), np.insert(y, i0, v), np.insert(src, i0, sa)
            i0 += 1
            i1 += 1
        if y[i1 + 1] < v:
            frac = (v - y[i1 + 1]) / (y[i1] - y[i1 + 1])
            xb = xs[i1 + 1] - frac * (xs[i1 + 1] - xs[i1])
            sb = src[i1 + 1] - frac * (src[i1 + 1] - src[i1])
            xs, y, src = np.insert(xs, i1 + 1, xb), np.insert(y, i1 + 1, v), np.insert(src, i1 + 1, sb)
        lo, hi = i0 - 1, i1 + 1
        mag = y[lo : hi + 1] - v
        mag[0] = 0.0
        mag[-1] = 0.0
        peak_idx = lo + int(np.argmax(mag))
        sign = 1.0 if src[peak_idx] >= 0.0 else -1.0
        hats.append(ks.Hat(xs[lo : hi + 1].copy(), mag, sign))
        y[i0 : i1 + 1] = v
    raise AssertionError("the reference peel did not terminate")


def _bounds_pieces(rng, k, lo, hi):
    """k pieces with dyadic ends, one in each of k equal slots of [lo, hi],
    as the closed-form benchmark queries draw them."""
    slots = np.round(np.linspace(lo * 8192, hi * 8192, k + 1)).astype(int)
    pieces = []
    for a, b in zip(slots[:-1], slots[1:]):
        half = max(1, (b - a) // 2)
        u, v = a + int(rng.integers(0, half)), b - int(rng.integers(0, half))
        pieces.append((u / 8192, v / 8192, round(float(rng.uniform(0.5, 2.0)), 4)))
    return pieces


def _bounds_pair(rng, k, split=None):
    """A balanced weight pair of k pieces each: on a common support, or,
    given ``split``, the first left of it and the second right of it."""
    p1 = _bounds_pieces(rng, k, 0.0, 1.0 if split is None else split)
    p2 = _bounds_pieces(rng, k, 0.0 if split is None else split, 1.0)
    m1 = sum(w * (v - u) for u, v, w in p1)
    m2 = sum(w * (v - u) for u, v, w in p2)
    return ks.step_weight((0, 1), p1), ks.step_weight((0, 1), [(u, v, w * m1 / m2) for u, v, w in p2])


def _quantized_polyline(seed, n=40, levels=6):
    """A random polyline whose values take few levels: long plateaus and
    peaks of equal height and prominence."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.01, 0.1, n))
    ys = rng.integers(-levels, levels + 1, n) / levels
    ys[0] = ys[-1] = 0.0
    return xs, ys


PEEL_PAIRS = {
    **{f"common-k{k}": _bounds_pair(np.random.default_rng(k), k) for k in (1, 2, 3, 5, 8, 13, 21, 34, 64)},
    **{f"disjoint-k{k}": _bounds_pair(np.random.default_rng(100 + k), k, split=0.5) for k in (1, 4, 16, 64)},
    # touching supports, among them the pair of the benchmark's bound-ks probe
    "touching": (ks.indicator_weight(0.1, 0.3, 0.7, domain=(0, 1)),
                 ks.indicator_weight(0.3, 0.9, 0.7 * 0.2 / 0.6, domain=(0, 1))),
    "touching-3": (ks.step_weight((0, 1), [(0.0, 0.25, 1.0), (0.5, 0.75, 1.0)]),
                   ks.step_weight((0, 1), [(0.25, 0.5, 1.0), (0.75, 1.0, 1.0)])),
}
# peaks whose prominences differ by less than, about, and more than 1e-15;
# in "chain" the rule picks the middle peak, not the lowest one, and in
# "covered" the peak at 3 is peeled first and its range covers the peak at 5
NEAR_TIES = {
    "equal": np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
    "below-tol": np.array([0.0, 1.0, 0.0, 1.0 - 5e-16, 0.0]),
    "above-tol": np.array([0.0, 1.0, 0.0, 1.0 - 1.5e-15, 0.0]),
    "chain": np.array([0.0, 1.0, 0.0, 1.0 - 1.2e-15, 0.0, 1.0 - 2e-15, 0.0]),
    "nested": np.array([0.0, 0.7, 0.5 + 1e-16, 0.7, 0.5, 0.7, 0.0]),
    "covered": np.array([0.0, 2.0, 0.5, 1.0, 0.5 + 1e-16, 1.0 - 2e-16, 0.5, 2.0, 0.0]),
}


def _random_pair(seed):
    """A balanced pair on a common support with 1-64 pieces on each side."""
    rng = np.random.default_rng(seed)
    p1 = _bounds_pieces(rng, int(rng.integers(1, 65)), 0.0, 1.0)
    p2 = _bounds_pieces(rng, int(rng.integers(1, 65)), 0.0, 1.0)
    m1 = sum(w * (v - u) for u, v, w in p1)
    m2 = sum(w * (v - u) for u, v, w in p2)
    return ks.step_weight((0, 1), p1), ks.step_weight((0, 1), [(u, v, w * m1 / m2) for u, v, w in p2])


PSI_PAIRS = {**PEEL_PAIRS, **{f"random-{seed}": _random_pair(seed) for seed in range(12)}}


def _hat_bytes(hats):
    return [(h.xs.tobytes(), h.mag.tobytes(), h.sign) for h in hats]


def _near_tie_polyline(draw):
    """Peaks of a few levels, some nudged by less than, about or more than
    1e-15, on a random grid."""
    n = draw(st.integers(3, 40))
    levels = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    nudges = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-16, -1e-16, 5e-16, -1.2e-15, 2e-15]), min_size=n, max_size=n))
    widths = draw(st.lists(st.floats(0.01, 0.1), min_size=n, max_size=n))
    ys = np.array(levels) / 4 + np.array(nudges)
    ys[0] = ys[-1] = 0.0
    return np.cumsum(widths), ys


class TestPeelingReference:
    """The one-pass peel gives exactly the hats, in order, of the peel that
    finds every peak and prominence again after each hat."""

    @staticmethod
    def check(monkeypatch, decompose, *args):
        got = decompose(*args)
        with monkeypatch.context() as m:
            m.setattr(ks, "_peel_hats", _peel_hats_loop)
            want = decompose(*args)
        assert _hat_bytes(got.hats) == _hat_bytes(want.hats)
        return got

    @staticmethod
    def check_polyline(monkeypatch, xs, ys):
        return TestPeelingReference.check(monkeypatch, ks._decompose_polyline, xs, ys, (xs[0], xs[-1]))

    @pytest.mark.parametrize("pair", PSI_PAIRS.values(), ids=PSI_PAIRS.keys())
    def test_weight_pairs(self, monkeypatch, pair):
        assert self.check(monkeypatch, ks.decompose_weights, *pair).hats

    @pytest.mark.parametrize("seed", range(12))
    def test_plateaus(self, monkeypatch, seed):
        self.check_polyline(monkeypatch, *_quantized_polyline(seed))

    @pytest.mark.parametrize("ys", NEAR_TIES.values(), ids=NEAR_TIES.keys())
    def test_near_equal_prominences(self, monkeypatch, ys):
        self.check_polyline(monkeypatch, np.linspace(0.0, 1.0, len(ys)), ys)

    @given(st.data(), st.sampled_from([0.0, 1e-12, 1.0 / 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_hats_in_peel_order(self, data, tol):
        # _peel_hats itself, before _decompose_polyline sorts the hats
        if data.draw(st.booleans()):
            xs, ys = _quantized_polyline(data.draw(st.integers(0, 2**32 - 1)), n=data.draw(st.integers(3, 60)))
        else:
            xs, ys = _near_tie_polyline(data.draw)
        xs, ys = insert_zero_crossings(xs, ys)
        assert _hat_bytes(ks._peel_hats(xs, ys, tol)) == _hat_bytes(_peel_hats_loop(xs, ys, tol))

    def test_chain_rule_is_not_argmin(self):
        # prominences 1, 1 - 1.2e-15 and 1 - 2e-15: the middle peak beats the
        # first by more than 1e-15, the last does not beat the middle one
        y = NEAR_TIES["chain"]
        xs = np.linspace(0.0, 1.0, len(y))
        assert _lowest_peak_loop(y, 0.0)[1:] == (3, 3)
        hats = ks._peel_hats(xs, y, 0.0)
        assert hats[0].support == (xs[2], xs[4])
        assert _hat_bytes(hats) == _hat_bytes(_peel_hats_loop(xs, y, 0.0))

    @pytest.mark.parametrize("seed", range(12))
    def test_peaks_and_prominences(self, seed):
        # a plateau at the left end when seed % 3 > 0, equal neighbours,
        # and peaks at and below tol = 1/3
        y = np.abs(_quantized_polyline(seed, n=30, levels=3)[1])
        y[: seed % 3] = y[seed % 3]
        for tol in (0.0, 1.0 / 3.0):
            lefts, rights = ks._find_peaks(y, tol)
            assert list(zip(lefts.tolist(), rights.tolist())) == _find_peaks_loop(y, tol)
            for l, r in zip(lefts.tolist(), rights.tolist()):
                prom, saddle, j, k = ks._walk(y.tolist(), l, r)
                assert (prom, saddle) == _prominence_loop(y, l, r)
                # each walk stops at the first value not below the peak
                # height, or past the boundary
                h = y[l]
                assert j == -1 or y[j] >= h
                assert k == len(y) or y[k] >= h
                assert np.all(y[j + 1 : l] < h) and np.all(y[r + 1 : k] < h)


def _height_loop(w, t):
    """The weight at t by a walk over the pieces: the first piece with
    u <= t < v, the last height at the right end, else 0."""
    for u, v, h in w.pieces:
        if u <= t < v:
            return h
    if t == w.pieces[-1][1]:
        return w.pieces[-1][2]
    return 0.0


def _psi_loop(w1, w2, xs):
    """Psi at the breakpoints xs, one cell at a time from the left."""
    ys = np.zeros_like(xs)
    for i in range(len(xs) - 1):
        mid = 0.5 * (xs[i] + xs[i + 1])
        ys[i + 1] = ys[i] + (_height_loop(w1, mid) - _height_loop(w2, mid)) * (xs[i + 1] - xs[i])
    return ys


class TestPsiReference:
    """Psi from the height lookup and one running sum is the cell loop's,
    byte for byte, so the hats peeled from it do not change."""

    @pytest.mark.parametrize("pair", PSI_PAIRS.values(), ids=PSI_PAIRS.keys())
    def test_psi_matches_cell_loop(self, pair):
        w1, w2 = pair
        xs = merge_breakpoints(w1.breakpoints(), w2.breakpoints(), [0.0, 1.0])
        assert ks._psi(w1, w2, xs).tobytes() == _psi_loop(w1, w2, xs).tobytes()

    @pytest.mark.parametrize("pair", PSI_PAIRS.values(), ids=PSI_PAIRS.keys())
    def test_heights_match_piece_walk(self, pair):
        # piece ends, midpoints, the support ends and points outside it
        for w in pair:
            ends = np.array([x for u, v, _ in w.pieces for x in (u, v)])
            ts = np.concatenate((ends, 0.5 * (ends[:-1] + ends[1:]), [-0.5, 0.0, 1.0, 1.5],
                                 np.random.default_rng(len(ends)).uniform(-0.1, 1.1, 200)))
            assert w.heights(ts).tolist() == [_height_loop(w, float(t)) for t in ts]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _by_parts_loop(xs, ys, omega):
    """int R w' and the derivative form sum of slope * I(t0, t1), one piece
    at a time with scalar modulus calls."""
    total, deriv = 0.0, 0.0
    for i in range(len(xs) - 1):
        t0, t1 = float(xs[i]), float(xs[i + 1])
        if t1 <= t0:
            continue
        y0, y1 = float(ys[i]), float(ys[i + 1])
        slope = (y1 - y0) / (t1 - t0)
        total += y1 * float(omega(t1)) - y0 * float(omega(t0)) - slope * omega.primitive(t0, t1)
        deriv += slope * omega.primitive(t0, t1)
    return total, deriv


class TestByPartsReference:
    """The array by-parts sums add the per-piece terms of the scalar loops
    in the same order, so they agree bit for bit."""

    @pytest.mark.parametrize("omega", BRANCH_MODULI.values(), ids=BRANCH_MODULI.keys())
    @pytest.mark.parametrize("pair", PEEL_PAIRS.values(), ids=PEEL_PAIRS.keys())
    def test_rearrangement_integrals(self, pair, omega):
        xs, ys = ks._sum_of_hat_rearrangements(ks.decompose_weights(*pair))
        total, deriv = _by_parts_loop(xs, ys, omega)
        assert _bits(ks._integral_against_omega_prime(xs, ys, omega)) == _bits(total)
        assert _bits(ks.general_bound(*pair, omega)) == _bits(total)
        assert ks.rearrangement_forms(*pair, omega) == (abs(deriv), total)


# general_bound and ks_bound on PEEL_PAIRS x BRANCH_MODULI (in that order of
# moduli), as hex floats recorded before the one-pass peel; None where
# ks_bound refuses the pair (supports that overlap)
GENERAL_BOUND_BITS = {
    "common-k1": ("0x1.968b313af859bp-4", "0x1.8fbcb77aebebdp-3", "0x1.2dddcc1708626p-2", "0x1.647c5bb7f56a5p-4", "0x1.453c27626047cp-4"),
    "common-k2": ("0x1.a7736b8f1840ep-5", "0x1.7da2f2c63ef22p-4", "0x1.2a71df09763f5p-3", "0x1.49573456db517p-5", "0x1.4ccc11426c366p-5"),
    "common-k3": ("0x1.dd5dd1c2555f2p-5", "0x1.f54c9aa9242a5p-4", "0x1.6cc12fb5c9fc6p-3", "0x1.8b6254844b9fep-5", "0x1.7de4a7ceaab27p-5"),
    "common-k5": ("0x1.5456c5c885404p-3", "0x1.064d06f2f5c50p-2", "0x1.b1534b50d659cp-2", "0x1.88b44a400e4f0p-4", "0x1.f1f737b402840p-4"),
    "common-k8": ("0x1.052a2ef361f17p-5", "0x1.4fb804c977281p-4", "0x1.c3669fd593e3fp-4", "0x1.e0dda738a4edap-6", "0x1.a1dd17ebcfe8bp-6"),
    "common-k13": ("0x1.43e11d5aee340p-5", "0x1.93c692841c661p-4", "0x1.10fdce6dd7100p-3", "0x1.2433e05ff7dbap-5", "0x1.031a7de258298p-5"),
    "common-k21": ("0x1.32be26313f08ap-6", "0x1.a91b4822913b2p-5", "0x1.120f743013386p-4", "0x1.0ff66b4af0ab5p-6", "0x1.eac9d6b531a6ep-7"),
    "common-k34": ("0x1.2a5590bf6cc71p-5", "0x1.625225616c7a4p-4", "0x1.dc5cd37deeb88p-4", "0x1.bd02145206e29p-6", "0x1.c1c3aa5102e3fp-6"),
    "common-k64": ("0x1.59385ef396b46p-7", "0x1.66279effac185p-5", "0x1.84a074a58d359p-5", "0x1.50499f85afd50p-7", "0x1.142d18c2def69p-7"),
    "disjoint-k1": ("0x1.8b8c261cc63f2p-4", "0x1.15b6c6fa69c81p-3", "0x1.e3df24580da96p-3", "0x1.db054c86424f8p-5", "0x1.2a9f6deabe00bp-4"),
    "disjoint-k4": ("0x1.16bb7c4b35612p-3", "0x1.7dfacf2f84e51p-3", "0x1.4e0ad35fd6f3ep-2", "0x1.3348c164f9176p-4", "0x1.8d67801f9814dp-4"),
    "disjoint-k16": ("0x1.777d1876854fbp-3", "0x1.e49d40c6db4a1p-3", "0x1.b16dff24d27d7p-2", "0x1.6ca07fb383a5ap-4", "0x1.01f422b390982p-3"),
    "disjoint-k64": ("0x1.47d74be32cc82p-3", "0x1.bc2341134e65cp-3", "0x1.857ef8480ffd9p-2", "0x1.59bfe3b366051p-4", "0x1.cfc90627abcbap-4"),
    "touching": ("0x1.cac083126e976p-5", "0x1.55eefd481a759p-4", "0x1.208990650b4fdp-3", "0x1.178d4fdf3b645p-5", "0x1.5532617c1bda3p-5"),
    "touching-3": ("0x1.0000000000000p-3", "0x1.e2b7dddfefa67p-3", "0x1.72caaec3ba95ep-2", "0x1.ae147ae147ae1p-4", "0x1.999999999999ap-4"),
}
KS_BOUND_BITS = {
    "common-k1": None,
    "common-k2": None,
    "common-k3": None,
    "common-k5": None,
    "common-k8": None,
    "common-k13": None,
    "common-k21": None,
    "common-k34": None,
    "common-k64": None,
    "disjoint-k1": ("0x1.8b8c261cc63f1p-4", "0x1.15b6c6fa69c80p-3", "0x1.e3df24580da96p-3", "0x1.db054c86424f8p-5", "0x1.2a9f6deabe00bp-4"),
    "disjoint-k4": ("0x1.16bb7c4b35613p-3", "0x1.7dfacf2f84e52p-3", "0x1.4e0ad35fd6f3ep-2", "0x1.3348c164f9177p-4", "0x1.8d67801f9814fp-4"),
    "disjoint-k16": ("0x1.777d1876854fcp-3", "0x1.e49d40c6db4a3p-3", "0x1.b16dff24d27d8p-2", "0x1.6ca07fb383a5cp-4", "0x1.01f422b390981p-3"),
    "disjoint-k64": ("0x1.47d74be32cc82p-3", "0x1.bc2341134e654p-3", "0x1.857ef8480ffd6p-2", "0x1.59bfe3b366049p-4", "0x1.cfc90627abcc2p-4"),
    "touching": ("0x1.cac083126e97ap-5", "0x1.55eefd481a75ap-4", "0x1.208990650b4fep-3", "0x1.178d4fdf3b645p-5", "0x1.5532617c1bda5p-5"),
    "touching-3": None,
}


class TestPinnedBits:
    """The bounds on every peel pair and modulus keep their recorded bits."""

    @pytest.mark.parametrize("name", PEEL_PAIRS)
    def test_general_bound(self, name):
        got = [float(ks.general_bound(*PEEL_PAIRS[name], omega)).hex() for omega in BRANCH_MODULI.values()]
        assert got == list(GENERAL_BOUND_BITS[name])

    @pytest.mark.parametrize("name", PEEL_PAIRS)
    def test_ks_bound(self, name):
        pair, want = PEEL_PAIRS[name], KS_BOUND_BITS[name]
        if want is None:
            with pytest.raises(BadSupportOrder):
                ks.ks_bound(*pair, wid)
            return
        assert [float(ks.ks_bound(*pair, omega)).hex() for omega in BRANCH_MODULI.values()] == list(want)


def _scaled(w, c):
    return ks.step_weight(w.domain, [(u, v, c * h) for u, v, h in w.pieces])


SCALES = (1e3, 3.7e5, 1e6, 1e7)
HOMOGENEITY_MODULI = {k: BRANCH_MODULI[k] for k in ("power(1,1)", "power(1,0.5)", "minlin", "plconcave")}


class TestMassScale:
    """The bounds are homogeneous in the weights, so the mass checks compare
    in units of max(1, mass): a balanced pair scaled by c passes and gives
    c times the bound, and a relative mass gap of 1e-8 fails at every scale."""

    @pytest.mark.parametrize("omega", HOMOGENEITY_MODULI.values(), ids=HOMOGENEITY_MODULI.keys())
    @pytest.mark.parametrize("name", ["common-k5", "common-k21", "common-k64", "touching-3", "random-3", "random-7"])
    def test_general_bound_is_homogeneous(self, name, omega):
        w1, w2 = PSI_PAIRS[name]
        base = ks.general_bound(w1, w2, omega)
        for c in SCALES:
            assert ks.general_bound(_scaled(w1, c), _scaled(w2, c), omega) == pytest.approx(c * base, rel=1e-12)

    @pytest.mark.parametrize("omega", HOMOGENEITY_MODULI.values(), ids=HOMOGENEITY_MODULI.keys())
    @pytest.mark.parametrize("name", ["disjoint-k1", "disjoint-k16", "disjoint-k64", "touching"])
    def test_ks_bound_is_homogeneous(self, name, omega):
        w1, w2 = PEEL_PAIRS[name]
        base = ks.ks_bound(w1, w2, omega)
        for c in SCALES:
            assert ks.ks_bound(_scaled(w1, c), _scaled(w2, c), omega) == pytest.approx(c * base, rel=1e-12)

    @pytest.mark.parametrize("name", ["common-k8", "disjoint-k4", "random-5"])
    def test_relative_gap_rejected_at_every_scale(self, name):
        w1, w2 = PSI_PAIRS[name]
        for c in (1.0, *SCALES):
            heavy = _scaled(w2, c * (1.0 + 1e-8))
            with pytest.raises(MassMismatch):
                ks.general_bound(_scaled(w1, c), heavy, wid)
            with pytest.raises(MassMismatch):
                ks.decompose_weights(_scaled(w1, c), heavy)
            if name.startswith("disjoint"):
                with pytest.raises(MassMismatch):
                    ks.ks_bound(_scaled(w1, c), heavy, wid)

    def test_unit_mass_checks_stay_absolute(self):
        # below mass 1 the unit is 1: on a mass of 0.01 a gap of 5e-11 passes
        # (5e-9 relative) and a gap of 2e-10 fails
        w1 = ks.indicator_weight(0.0, 0.1, 0.1, domain=(0, 1))
        close = ks.indicator_weight(0.9, 1.0, 0.1 + 5e-10, domain=(0, 1))
        assert ks.solve_rho(w1, close).segments and ks.general_bound(w1, close, wid) > 0.0
        far = ks.indicator_weight(0.9, 1.0, 0.1 + 2e-9, domain=(0, 1))
        with pytest.raises(MassMismatch):
            ks.solve_rho(w1, far)
        with pytest.raises(MassMismatch):
            ks.general_bound(w1, far, wid)


def _on(polyline, at):
    """A nonincreasing rearrangement evaluated at ``at``; zero past its end."""
    xs, ys = polyline
    return np.where(at <= xs[-1], np.interp(at, xs, ys), 0.0)


class TestHatSumRearrangement:
    def test_two_equal_hats_double_single(self):
        w1, w2 = _psi_pair_two_hats()
        R = ks._sum_of_hat_rearrangements(ks.decompose_weights(w1, w2))
        (single,) = decreasing_rearrangements([(np.array([0.0, 0.25, 0.5]), np.array([0.0, 0.25, 0.0]))])
        # R is twice the single-hat rearrangement (supports 0.5): 0.5 - x, then 0
        at = np.linspace(0, 1, 101)
        assert np.max(np.abs(_on(R, at) - 2 * _on(single, at))) <= 1e-12
        assert np.max(np.abs(_on(R, at) - np.maximum(0.5 - at, 0.0))) <= 1e-12

    def test_single_hump_is_its_rearrangement(self):
        R = ks._sum_of_hat_rearrangements(ks._decompose_polyline(*TENT, (0.0, 1.0)))
        at = np.linspace(0, 1, 101)
        assert np.max(np.abs(_on(R, at) - (1 - at) / 2)) <= 1e-12

    def test_zero_function(self):
        xs = np.linspace(0, 1, 65)
        rx, ry = ks._sum_of_hat_rearrangements(ks._decompose_polyline(xs, np.zeros_like(xs), (0.0, 1.0)))
        assert rx.tolist() == [0.0, 1.0] and ry.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("source", ["two-hats", "nested"])
    def test_top_value_is_sum_of_heights(self, source):
        if source == "two-hats":
            decomp = ks.decompose_weights(*_psi_pair_two_hats())
        else:
            decomp = ks._decompose_polyline(*NESTED, (0.0, 1.0))
        rx, ry = ks._sum_of_hat_rearrangements(decomp)
        assert ry[0] == pytest.approx(sum(float(np.max(h.mag)) for h in decomp.hats), abs=1e-12)
        assert np.all(np.diff(ry) <= 1e-12)
        assert rx[-1] == pytest.approx(1.0)


def _rearrangement_per_hat(xs, ys):
    """One polyline's rearrangement with its levels measured in one
    (levels x segments) pass, as each hat was rearranged before the hats of
    a decomposition were batched.  Kept as the reference of
    ``decreasing_rearrangements``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), 0.0)
    total = float(xs[-1] - xs[0])
    dx = np.diff(xs)
    ylo = np.minimum(ys[:-1], ys[1:])
    yhi = np.maximum(ys[:-1], ys[1:])
    flat = yhi - ylo <= 0.0
    levels = sorted_distinct(ys)[::-1]
    v = levels[:, None]
    share = np.clip((yhi - v) / np.where(flat, 1.0, yhi - ylo), 0.0, 1.0)
    above = np.sum(dx * np.where(flat, ylo > v, share), axis=1)
    at = np.sum(dx * (flat & (ylo == v)), axis=1)
    r_x, r_y = [], []
    for lvl, x_above, x_at in zip(levels.tolist(), above.tolist(), (above + at).tolist()):
        for x in (x_above, x_at):
            if not r_x or x > r_x[-1] + 1e-15:
                r_x.append(x)
                r_y.append(lvl)
    if not r_x or r_x[0] > 0.0:
        r_x.insert(0, 0.0)
        r_y.insert(0, float(np.max(ys)))
    if r_x[-1] < total - 1e-15:
        r_x.append(total)
        r_y.append(float(np.min(ys)))
    return np.asarray(r_x), np.asarray(r_y)


def _hat_polylines(decomp):
    return [(h.xs, h.mag) for h in decomp.hats]


def _random_hat(rng, n, levels=None):
    """A nonnegative polyline of n nodes vanishing at both ends; with
    ``levels``, its values take that many levels, in plateaus."""
    xs = np.cumsum(rng.uniform(0.01, 0.2, n)) - 0.5
    ys = rng.integers(0, levels + 1, n) / levels if levels else rng.uniform(0.0, 2.0, n)
    ys[0] = ys[-1] = 0.0
    return xs, ys


# hats of equal size side by side, of fewer than 9 segments and of 9 or
# more (numpy adds a row of 9 or more terms with 8 accumulators), plateaus,
# equal levels, and a flat hat
SIZED_BATCHES = {
    "three-nodes": [(np.array([0.0, 0.25, 0.5]), np.array([0.0, 0.25, 0.0])),
                    (np.array([0.5, 0.6, 1.0]), np.array([0.0, 0.7, 0.0]))],
    "equal-levels": [(np.array([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]), np.array([0.0, 0.2, 0.6, 1.0, 0.6, 0.2, 0.0])),
                     (np.array([2.0, 2.1, 2.2, 2.5, 2.6, 2.9, 3.0]), np.array([0.0, 0.5, 0.5, 0.5, 0.2, 0.2, 0.0])),
                     (np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.0, 0.5, 0.5, 0.0])),
                     (np.array([0.0, 0.3, 0.9, 1.0]), np.array([0.0, 0.0, 0.0, 0.0]))],
    "long": [_random_hat(np.random.default_rng(s), n) for s, n in enumerate((10, 10, 10, 13, 13, 40, 9, 41))],
    "long-plateaus": [_random_hat(np.random.default_rng(s), n, 3) for s, n in enumerate((10, 17, 17, 17, 33, 33, 3))],
}


class TestBatchedRearrangement:
    """The hats of a decomposition, rearranged in one batch, get the bits of
    their rearrangements one at a time."""

    @staticmethod
    def check(polylines):
        got = decreasing_rearrangements(polylines)
        want = [_rearrangement_per_hat(xs, ys) for xs, ys in polylines]
        assert [(x.tobytes(), y.tobytes()) for x, y in got] == [(x.tobytes(), y.tobytes()) for x, y in want]

    @pytest.mark.parametrize("pair", PSI_PAIRS.values(), ids=PSI_PAIRS.keys())
    def test_weight_pairs(self, pair):
        self.check(_hat_polylines(ks.decompose_weights(*pair)))

    def test_weight_pairs_have_long_hats(self):
        # the decompositions above include hats of 9 or more segments, and
        # several hats of one size
        sizes = [len(h.xs) - 1 for pair in PSI_PAIRS.values() for h in ks.decompose_weights(*pair).hats]
        assert max(sizes) >= 9
        assert any(sizes.count(s) > 1 for s in set(sizes) if s >= 9)

    @pytest.mark.parametrize("seed", range(12))
    def test_plateau_decompositions(self, seed):
        xs, ys = _quantized_polyline(seed)
        self.check(_hat_polylines(ks._decompose_polyline(xs, ys, (xs[0], xs[-1]))))

    @pytest.mark.parametrize("batch", SIZED_BATCHES.values(), ids=SIZED_BATCHES.keys())
    def test_sized_batches(self, batch):
        self.check(batch)
        # the order of a batch does not matter
        self.check(batch[::-1])

    def test_one_and_no_hats(self):
        self.check(_hat_polylines(ks._decompose_polyline(*TENT, (0.0, 1.0))))
        self.check(SIZED_BATCHES["long"][-1:])
        assert decreasing_rearrangements([]) == []

    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 9, 10, 17]),
                              st.sampled_from([None, 2, 5])), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_random_batches(self, specs):
        self.check([_random_hat(np.random.default_rng(seed), n, levels) for seed, n, levels in specs])

    def test_rejects_a_negative_polyline(self):
        with pytest.raises(ValueError):
            decreasing_rearrangements([(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                                       (np.array([0.0, 0.5, 1.0]), np.array([0.0, -0.5, 0.0]))])


def _mass_refined_segments_scan(w1, w2):
    """The rho segments with each mass level's tail and each piece's cuts
    found by a scan over all of them.  Kept as the reference of the
    bisection in ``ks._mass_refined_segments``."""
    mass = 0.5 * (w1.mass() + w2.mass())
    tol = ks.MASS_TOL * ks._mass_unit(w1, w2)
    cum1 = [0.0]
    for u, v, w in w1.pieces:
        cum1.append(cum1[-1] + w * (v - u))
    tails = []
    tail = 0.0
    for x, y, w in reversed(w2.pieces):
        tails.append((tail, tail + w * (y - x), x, y, w))
        tail += w * (y - x)
    cuts = sorted({0.0, mass} | set(cum1) | {t for t0, t1, *_ in tails for t in (t0, t1)})
    cuts = [m for m in cuts if -tol <= m <= mass + tol]

    def rho_of(m_lo, m_hi):
        mid = 0.5 * (m_lo + m_hi)
        for t0, t1, x, y, w in tails:
            if t0 - tol <= mid <= t1 + tol:
                return (y - (m_lo - t0) / w, y - (m_hi - t0) / w)
        raise MassMismatch("mass level not covered by the right weight")

    segments = []
    for (u, v, w), m_u, m_v in zip(w1.pieces, cum1, cum1[1:]):
        if segments and segments[-1][1] < u - 1e-13:
            r_prev = segments[-1][3]
            segments.append((segments[-1][1], u, r_prev, r_prev, 0.0))
        sub = [m for m in cuts if m_u + tol < m < m_v - tol]
        grid = [m_u] + sub + [m_v]
        for p, q in zip(grid, grid[1:]):
            s0 = u + (p - m_u) / w
            s1 = u + (q - m_u) / w
            if s1 - s0 <= 1e-15:
                continue
            r0, r1 = rho_of(p, q)
            segments.append((s0, s1, r0, r1, w))
    return segments


def _near_edge_pair(offset):
    """A pair whose right weight has a tail mass ``offset`` away from the
    left weight's mass at a piece edge (0.5), in units of MASS_TOL: within
    the tolerance for |offset| <= 1."""
    eps = offset * ks.MASS_TOL
    w1 = ks.step_weight((0, 1), [(0.0, 0.25, 1.0), (0.25, 0.5, 1.0), (0.5, 0.6, 2.5)])
    w2 = ks.step_weight((0, 1), [(0.7, 0.8, 2.5 - 10.0 * eps), (0.8, 0.9, 2.5 + 10.0 * eps), (0.9, 1.0, 2.5)])
    return w1, w2


REFINE_PAIRS = {
    **{name: pair for name, pair in PEEL_PAIRS.items() if not name.startswith("common")},
    # support gaps on both sides
    "gaps": (ks.step_weight((0, 1), [(0.0, 0.1, 2.0), (0.2, 0.25, 4.0), (0.3, 0.4, 1.0)]),
             ks.step_weight((0, 1), [(0.6, 0.65, 2.0), (0.7, 0.8, 3.0), (0.9, 1.0, 1.0)])),
    **{f"near-edge-{offset:g}": _near_edge_pair(offset) for offset in (-2.0, -1.0, -0.5, 0.0, 0.3, 1.0, 1.5)},
    # masses near the float maximum, where the running masses round
    "huge": (ks.step_weight((0, 2), [(0.0, 0.45, 1.7e308), (0.45, 0.9, 1.7e308)]),
             ks.step_weight((0, 2), [(1.1, 1.55, 1.7e308), (1.55, 2.0, 1.7e308)])),
}


def _outcome(refine, w1, w2):
    """The segments, or the type of the error raised."""
    try:
        return refine(w1, w2)
    except MassMismatch as e:
        return type(e)


class TestMassPairingBisection:
    """The pairing by bisection gives the segments of the scan over every
    tail and cut, bit for bit, in both evaluation orders of ks_bound."""

    @pytest.mark.parametrize("pair", REFINE_PAIRS.values(), ids=REFINE_PAIRS.keys())
    def test_pairs(self, pair):
        w1, w2 = pair
        lo, hi = w1.support[0], w2.support[1]
        for left, right in ((w1, w2), (w2.reflect(lo, hi), w1.reflect(lo, hi))):
            got = _outcome(ks._mass_refined_segments, left, right)
            assert got == _outcome(_mass_refined_segments_scan, left, right)

    @pytest.mark.parametrize("name", [name for name in REFINE_PAIRS if name.startswith("near-edge")])
    def test_near_edge_pairs_make_cuts_near_piece_edges(self, name):
        # a tail mass within 2 MASS_TOL of an edge mass of the left weight
        w1, w2 = REFINE_PAIRS[name]
        tails = np.cumsum([w * (y - x) for x, y, w in reversed(w2.pieces)])
        edges = np.cumsum([w * (v - u) for u, v, w in w1.pieces])
        assert np.min(np.abs(tails[:, None] - edges[None, :])) <= 2.0 * ks.MASS_TOL

    @pytest.mark.parametrize("seed", range(12))
    def test_random_disjoint_pairs(self, seed):
        rng = np.random.default_rng(seed)
        pair = _bounds_pair(rng, int(rng.integers(1, 65)), split=0.5)
        assert ks._mass_refined_segments(*pair) == _mass_refined_segments_scan(*pair)

    def test_uncovered_mass_level(self):
        # a right weight short of mass leaves the top mass levels uncovered
        w1 = ks.indicator_weight(0.0, 0.25, 1.0, domain=(0, 1))
        short = ks.indicator_weight(0.75, 1.0, 0.5, domain=(0, 1))
        for refine in (ks._mass_refined_segments, _mass_refined_segments_scan):
            with pytest.raises(MassMismatch):
                refine(w1, short)


class TestGeneralBound:
    def test_reduces_to_two_weight_bound_on_disjoint_supports(self):
        assert ks.general_bound(W1, W2, wid) == pytest.approx(0.1875, abs=1e-10)
        assert ks.general_bound(W1, W2, wsq) == pytest.approx(ks.ks_bound(W1, W2, wsq), abs=1e-10)

    def test_identical_weights_vanish(self):
        w = ks.step_weight((0, 1), [(0.1, 0.6, 1.3)])
        assert ks.general_bound(w, w, wid) == 0.0

    def test_interval_mean_weights(self):
        w1 = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        w2 = ks.indicator_weight(0.25, 0.75, 2.0, domain=(0, 1))
        assert ks.general_bound(w1, w2, wid) == pytest.approx(0.125, abs=1e-12)

    def test_nonconcave_rejected(self):
        with pytest.raises(NonConcave):
            ks.general_bound(W1, W2, mo.PowerModulus(1, 2.0))

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            ks.general_bound(W1, ks.indicator_weight(0.5, 1, 1.0, domain=(0, 1)), wid)

    @pytest.mark.parametrize("omega", [wid, wsq, mo.minlin(1, 0.35)])
    def test_rearrangement_identity(self, omega):
        form_deriv, form_prime = ks.rearrangement_forms(W1, W2, omega)
        assert form_deriv == pytest.approx(form_prime, abs=1e-7)
        assert form_prime == pytest.approx(ks.ks_bound(W1, W2, omega), abs=1e-7)


class TestGlue:
    def test_two_equal_hats(self):
        w1, w2 = _psi_pair_two_hats()
        decomp = ks.decompose_weights(w1, w2)
        with pytest.raises(CannotCertify):
            # equal hats of the same sign cannot be glued (no alternation)
            ks.glue_extremal(decomp, wid, n=256)

    def test_alternating_two_hats_attain(self):
        w1 = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        w2 = ks.indicator_weight(0.25, 0.75, 2.0, domain=(0, 1))
        decomp = ks.decompose_weights(w1, w2)
        g = ks.glue_extremal(decomp, wid, n=2048)
        eps = gf.eps_tolerance(wid, 1.0, 2048)
        assert gf.check_Homega(g, wid).member
        assert ks.functional_S(g, w1, w2) >= 0.125 - eps

    def test_single_hat_reduces_to_extremal(self):
        decomp = ks.decompose_weights(W1, W2)
        assert len(decomp.hats) == 1  # flat-top single hat
        g = ks.glue_extremal(decomp, wid, n=512)
        direct = ks.ks_extremal(W1, W2, wid, n=512)
        diff = np.asarray(g.data) - np.asarray(direct.data)
        assert np.max(np.abs(diff - diff[0])) <= 1e-10  # equal up to a constant

    def test_pathological_lengths_may_fail(self):
        # alternating humps with long-short-long supports: the sufficient
        # condition fails, so either a certified member is returned or the
        # gluing is refused
        w1 = ks.step_weight((0, 1.24), [(0.0, 0.3, 1.0), (0.62, 0.94, 1.0)])
        w2 = ks.step_weight((0, 1.24), [(0.3, 0.62, 1.0), (0.94, 1.24, 1.0)])
        decomp = ks.decompose_weights(w1, w2)
        assert [h.sign for h in decomp.hats] == [1.0, -1.0, 1.0]
        lengths = [h.support[1] - h.support[0] for h in decomp.hats]
        assert lengths[1] < min(lengths[0], lengths[2])  # not unimodal
        try:
            g = ks.glue_extremal(decomp, wsq, n=1024)
        except CannotCertify:
            return
        assert gf.check_Homega(g, wsq).member
