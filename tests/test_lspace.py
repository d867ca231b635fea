import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr import lspace as ls
from ksr.errors import ModelMismatch, NoDifference, NonIsotropic

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def iv(lo, hi):
    return ls.interval(min(lo, hi), max(lo, hi))


class TestAdd:
    def test_interval_minkowski(self):
        assert ls.close(ls.add(ls.interval(0, 1), ls.interval(2, 3)), ls.interval(2, 4))

    def test_maxspace_is_max(self):
        assert ls.add(ls.maxval(2), ls.maxval(5)).payload == 5

    def test_zero_is_neutral(self):
        for x in (ls.real(3.5), ls.interval(-1, 2), ls.union([(0, 1), (2, 3)]), ls.maxval(4)):
            assert ls.close(ls.add(x, ls.zero_like(x)), x)

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatch):
            ls.add(ls.real(1), ls.interval(0, 1))

    def test_interval_union_are_one_space(self):
        out = ls.add(ls.interval(0, 1), ls.union([(0, 0), (5, 5)]))
        assert ls.close(out, ls.union([(0, 1), (5, 6)]))


class TestScale:
    def test_reflection(self):
        assert ls.close(ls.scale(-1, ls.interval(1, 2)), ls.interval(-2, -1))

    def test_zero_gives_zero_element(self):
        for x in (ls.real(3.0), ls.interval(1, 2), ls.union([(0, 1), (4, 6)]), ls.maxval(2)):
            assert ls.close(ls.scale(0.0, x), ls.zero_like(x))

    def test_maxspace_absolute_scalar(self):
        assert ls.scale(-3, ls.maxval(2)).payload == 6


class TestDist:
    def test_hausdorff_intervals(self):
        assert ls.dist(ls.interval(0, 2), ls.interval(1, 3)) == 1.0

    def test_self_distance_zero(self):
        for x in (ls.real(2), ls.interval(0, 1), ls.union([(0, 1), (2, 3)]), ls.maxval(1)):
            assert ls.dist(x, x) == 0.0

    def test_maxspace_metric(self):
        assert ls.dist(ls.maxval(2), ls.maxval(5)) == 3.0

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=3),
           st.lists(st.tuples(finite, finite), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_union_hausdorff_matches_dense_sampling(self, comps_a, comps_b):
        A = ls.union([(min(p), max(p)) for p in comps_a])
        B = ls.union([(min(p), max(p)) for p in comps_b])
        exact = ls.dist(A, B)

        def sample(u):
            # spacing <= 0.01, so sampling undershoots by at most 0.005
            pts = []
            for lo, hi in u.payload:
                n = max(200, int(np.ceil((hi - lo) / 0.01)) + 1)
                pts.extend(np.linspace(lo, hi, n) if hi > lo else [lo])
            return np.asarray(pts)

        def one_sided(u, v):
            # sampled points of u against the exact set v: a lower bound
            p = sample(u)[:, None]
            lo, hi = np.asarray(v.payload, dtype=float).T
            gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
            return float(np.max(np.min(gap, axis=1)))

        brute = max(one_sided(A, B), one_sided(B, A))
        assert abs(exact - brute) <= 2e-2 * max(1.0, brute)
        assert exact >= brute - 1e-12  # sampling can only undershoot

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance_isotropic(self, a, b, c, d, e, f):
        x, y, z = iv(a, b), iv(c, d), iv(e, f)
        lhs = ls.dist(ls.add(x, z), ls.add(y, z))
        assert abs(lhs - ls.dist(x, y)) <= 1e-9

    @given(finite.map(abs), finite.map(abs), finite.map(abs))
    @settings(max_examples=100, deadline=None)
    def test_translation_semi_invariance_maxspace(self, a, b, c):
        x, y, z = ls.maxval(a), ls.maxval(b), ls.maxval(c)
        assert ls.dist(ls.add(x, z), ls.add(y, z)) <= ls.dist(x, y) + 1e-12

    def test_maxspace_strict_semi_invariance_witness(self):
        lhs = ls.dist(ls.add(ls.maxval(1), ls.maxval(2)), ls.add(ls.maxval(3), ls.maxval(2)))
        assert lhs == 1.0 < 2.0 == ls.dist(ls.maxval(1), ls.maxval(3))

    @given(finite, finite, finite, finite, st.floats(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_absolute_homogeneity(self, a, b, c, d, lam):
        x, y = iv(a, b), iv(c, d)
        assert abs(ls.dist(ls.scale(lam, x), ls.scale(lam, y)) - abs(lam) * ls.dist(x, y)) <= 1e-9


class TestHukuhara:
    def test_interval_difference(self):
        assert ls.close(ls.hukuhara_diff(ls.interval(1, 4), ls.interval(0, 1)), ls.interval(1, 3))

    def test_no_difference_when_width_shrinks(self):
        with pytest.raises(NoDifference):
            ls.hukuhara_diff(ls.interval(0, 1), ls.interval(0, 2))

    def test_real_subtraction(self):
        assert ls.hukuhara_diff(ls.real(7), ls.real(3)).payload == 4

    def test_maxspace_rejected(self):
        with pytest.raises(NonIsotropic):
            ls.hukuhara_diff(ls.maxval(3), ls.maxval(3))

    @given(finite, finite, finite, finite)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, a, b, c, d):
        x, y = iv(a, b), iv(c, d)
        try:
            z = ls.hukuhara_diff(x, y)
        except NoDifference:
            w_x = x.payload[1] - x.payload[0]
            w_y = y.payload[1] - y.payload[0]
            assert w_x < w_y
            return
        assert ls.close(ls.add(y, z), x, tol=1e-9)


class TestMetricIdentities:
    def _random_convex_invertible(self, rng):
        kind = rng.integers(0, 4)
        v = float(rng.uniform(-5, 5))
        if kind == 0:
            return ls.real(v)
        if kind == 1:
            return ls.vector(*rng.uniform(-3, 3, size=int(rng.integers(1, 4))))
        if kind == 2:
            return ls.interval(v, v)
        return ls.union([(v, v)])

    def test_inverse_identities_on_random_elements(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            x = self._random_convex_invertible(rng)
            xp = ls.inverse(x)
            assert abs(ls.dist(x, xp) - 2 * ls.norm(x)) <= 1e-12
            assert abs(ls.norm(xp) - ls.norm(x)) <= 1e-12

    def test_scaling_equality_same_sign(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = self._random_convex_invertible(rng)
            al, be = sorted(rng.uniform(0, 4, size=2))
            lhs = ls.dist(ls.scale(al, x), ls.scale(be, x))
            assert abs(lhs - (be - al) * ls.norm(x)) <= 1e-12

    def test_scaling_inequality_any_sign(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x = self._random_convex_invertible(rng)
            al, be = rng.uniform(-4, 4, size=2)
            assert ls.dist(ls.scale(al, x), ls.scale(be, x)) <= abs(al - be) * ls.norm(x) + 1e-12
