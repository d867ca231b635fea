import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr.poly import poly_integral


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
