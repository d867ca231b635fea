import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr.poly import decreasing_rearrangement, poly_integral


def _full_mask_integral(xs, ys, c, d):
    """Reference: mask all breakpoints, interpolate on the whole polyline."""
    inner = (xs > c) & (xs < d)
    pts = np.concatenate(([c], xs[inner], [d]))
    return float(np.trapezoid(np.interp(pts, xs, ys), pts))


XS = np.linspace(-1.0, 2.0, 257)
YS = np.random.default_rng(0).normal(size=XS.size)


class TestWindowIntegral:
    @given(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_mask_on_random_windows(self, u, v):
        c, d = min(u, v), max(u, v)
        if d > c:
            assert poly_integral(XS, YS, c, d) == _full_mask_integral(XS, YS, c, d)

    @given(st.integers(0, 256), st.integers(0, 256), st.floats(-1.0, 2.0), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_mask_when_ends_are_nodes(self, i, j, t, both):
        # one or both window ends exactly on a breakpoint, the full range included
        c, d = sorted((XS[i], XS[j] if both else t))
        if d > c:
            assert poly_integral(XS, YS, c, d) == _full_mask_integral(XS, YS, c, d)

    def test_defaults_and_empty_window(self):
        assert poly_integral(XS, YS) == _full_mask_integral(XS, YS, XS[0], XS[-1])
        assert poly_integral(XS, YS, 0.5, 0.5) == 0.0
        with pytest.raises(ValueError):
            poly_integral(XS, YS, -2.0, 0.0)


def _mes_above(xs, ys, y):
    """mes{f > y} for the polyline (xs, ys), summed segment by segment."""
    total = 0.0
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        lo, hi = min(y0, y1), max(y0, y1)
        if lo > y:
            total += x1 - x0
        elif hi > y:
            total += (x1 - x0) * (hi - y) / (hi - lo)
    return total


def _random_polyline(seed):
    """A nonnegative polyline on [-1, 2] with plateaus and repeated levels."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 2.0, 30)), [2.0]))
    ys = np.round(rng.uniform(0.0, 1.0, xs.size) * 8) / 8
    return xs, ys


class TestDecreasingRearrangement:
    def test_tent(self):
        rx, ry = decreasing_rearrangement([0.0, 0.5, 1.0], [0.0, 0.5, 0.0])
        at = np.linspace(0, 1, 101)
        assert np.max(np.abs(np.interp(at, rx, ry) - (1 - at) / 2)) <= 1e-15
        assert (rx[0], rx[-1]) == (0.0, 1.0)

    def test_constant_fixed_point(self):
        rx, ry = decreasing_rearrangement([0.0, 0.3, 1.0], [0.7, 0.7, 0.7])
        assert rx.tolist() == [0.0, 1.0] and ry.tolist() == [0.7, 0.7]

    def test_nonincreasing_input_fixed(self):
        # a plateau, a kink and a zero tail, on a domain that starts at 2
        xs = np.array([2.0, 2.2, 2.5, 2.7, 2.9, 3.0])
        ys = np.array([1.0, 0.8, 0.8, 0.3, 0.0, 0.0])
        rx, ry = decreasing_rearrangement(xs, ys)
        assert rx[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(np.interp(xs - 2.0, rx, ry) - ys)) <= 1e-12
        assert np.max(np.abs(np.interp(rx + 2.0, xs, ys) - ry)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_equimeasurable(self, seed):
        xs, ys = _random_polyline(seed)
        rx, ry = decreasing_rearrangement(xs, ys)
        assert rx[0] == 0.0 and rx[-1] == pytest.approx(3.0, abs=1e-15)
        assert np.all(np.diff(rx) > 0) and np.all(np.diff(ry) <= 0)
        # the distribution functions agree at every breakpoint level and
        # between levels
        levels = np.unique(ys)
        for y in np.concatenate((levels, 0.5 * (levels[1:] + levels[:-1]))):
            assert _mes_above(rx, ry, y) == pytest.approx(_mes_above(xs, ys, y), abs=1e-12)
        assert poly_integral(rx, ry) == pytest.approx(poly_integral(xs, ys), abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decreasing_rearrangement([0.0, 0.5, 1.0], [0.0, -0.5, 0.0])
