import numpy as np
import pytest

from ksr import gridfn as gf
from ksr import kscore as ks
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import ostrowski as ost

wid = mo.power(1, 1)
wsq = mo.power(1, 0.5)


class TestConfig:
    def test_normalization_swaps(self):
        cfg = ost.two_interval_config(0.25, 0.75, 0, 1)
        assert (cfg.a, cfg.b, cfg.c, cfg.d) == (0, 1, 0.25, 0.75)

    @pytest.mark.parametrize(
        "segs,case",
        [
            ((0, 1, 0.25, 0.75), ost.NESTED),
            ((0, 1, 0.5, 1.5), ost.OVERLAP),
            ((0, 1, 2, 3), ost.DISJOINT),
            ((0, 1, 0, 2), ost.OVERLAP),  # containing the first segment
        ],
    )
    def test_case_tags(self, segs, case):
        assert ost.two_interval_config(*segs).case == case

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ost.two_interval_config(0, 0, 1, 2)


class TestTwoIntervalBound:
    def test_nested_lipschitz(self):
        cfg = ost.two_interval_config(0, 1, 0.25, 0.75)
        assert ost.two_interval_bound(cfg, wid) == pytest.approx(0.125, abs=1e-12)

    def test_identical_segments(self):
        cfg = ost.two_interval_config(0, 1, 0, 1)
        assert ost.two_interval_bound(cfg, wid) == 0.0

    def test_disjoint_unit_segments(self):
        cfg = ost.two_interval_config(0, 1, 2, 3)
        assert ost.two_interval_bound(cfg, wid) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("omega", [wid, wsq, mo.minlin(1, 0.6)])
    def test_continuity_at_case_boundaries(self, omega):
        for eps in (1e-10,):
            nested = ost.two_interval_bound(ost.two_interval_config(0, 1, 0.3, 1 - eps), omega)
            over = ost.two_interval_bound(ost.two_interval_config(0, 1, 0.3, 1 + eps), omega)
            assert abs(nested - over) <= 1e-9
            over2 = ost.two_interval_bound(ost.two_interval_config(0, 1, 1 - eps, 1.5), omega)
            disj = ost.two_interval_bound(ost.two_interval_config(0, 1, 1 + eps, 1.5), omega)
            assert abs(over2 - disj) <= 1e-9

    def test_matches_general_estimate(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, c = np.sort(rng.uniform(0, 1, 2))
            b = a + rng.uniform(0.1, 1.0)
            d = c + rng.uniform(0.1, 1.0)
            cfg = ost.two_interval_config(a, b, c, d)
            w1, w2 = ost.two_interval_weights(cfg)
            for omega in (wid, wsq):
                direct = ost.two_interval_bound(cfg, omega)
                general = ks.general_bound(w1, w2, omega)
                assert direct == pytest.approx(general, abs=1e-9)

    def test_brute_force_certification_nested(self):
        # random 1-Lipschitz polylines cannot exceed the bound, and the
        # glued extremal comes within grid tolerance of it
        cfg = ost.two_interval_config(0, 1, 0.25, 0.75)
        w1, w2 = ost.two_interval_weights(cfg)
        n = 4096
        rng = np.random.default_rng(0)
        sup = 0.0
        for _ in range(100):
            slopes = rng.uniform(-1, 1, 64)
            vals = np.concatenate(([0.0], np.cumsum(np.repeat(slopes, n // 64) / n)))
            f = gf.real_grid(vals, 0, 1, n)
            sup = max(sup, ks.functional_S(f, w1, w2))
        ext = ost.two_interval_extremal(cfg, wid, n=n)
        sup = max(sup, ks.functional_S(ext, w1, w2))
        assert sup <= 0.125 + gf.eps_tolerance(wid, 1.0, n)
        assert sup >= 0.124


class TestSymmetric:
    def test_consistency_with_two_interval(self):
        for omega in (wid, wsq):
            val = ost.symmetric_bound(0, 1, 0.25, 0.75, omega)
            cfg = ost.two_interval_config(0, 1, 0.25, 0.75)
            assert val == pytest.approx(ost.two_interval_bound(cfg, omega) * 1.0, abs=1e-9)

    def test_identical_gives_zero(self):
        assert ost.symmetric_bound(0, 1, 0, 1, wid) == 0.0

    def test_sqrt_value(self):
        expect = 4 * 0.25 * wsq.primitive(0, 0.5)
        assert ost.symmetric_bound(0, 1, 0.25, 0.75, wsq) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.2357, abs=1e-4)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ost.symmetric_bound(0, 1, 0.2, 0.75, wid)


class TestPointVsMean:
    def test_midpoint(self):
        assert ost.point_vs_mean_bound(0.5, 0, 1, wid) == pytest.approx(0.25, abs=1e-15)

    def test_left_endpoint(self):
        assert ost.point_vs_mean_bound(0.0, 0, 1, wid) == pytest.approx(0.5, abs=1e-15)

    def test_outside_point(self):
        assert ost.point_vs_mean_bound(2.0, 0, 1, wid) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("omega", [wid, wsq, mo.minlin(2, 0.9)])
    def test_matches_quadrature(self, omega):
        t, c, d = 0.3, 0.1, 0.9
        ss = np.linspace(c, d, 200001)
        quad = np.trapezoid(np.asarray(omega(np.abs(ss - t))), ss) / (d - c)
        assert ost.point_vs_mean_bound(t, c, d, omega) == pytest.approx(quad, abs=1e-8)

    def test_shrinking_window_order(self):
        # mean over [t, t+h] deviates by about w(h)/2 for the linear modulus
        for h in (0.1, 0.01, 0.001):
            val = ost.point_vs_mean_bound(0.2, 0.2, 0.2 + h, wid)
            assert val == pytest.approx(wid(h) / 2, abs=1e-12)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            ost.point_vs_mean_bound(0.5, 0.7, 0.7, wid)

    @pytest.mark.parametrize("omega,t", [(wid, 0.5), (wsq, 0.0), (mo.minlin(1, 0.4), 0.3)])
    def test_extremal_attains_any_modulus(self, omega, t):
        n = 4096
        g = ost.point_vs_mean_extremal(t, omega, 0, 1, n=n)
        assert gf.check_Homega(g, omega).member
        lifted = gf.lift(g, ls.interval(1, 1))
        mean_w = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        lhs = ls.dist(ls.convexify(lifted.value_at(t)), ks.integrate_weighted(lifted, mean_w))
        assert lhs >= ost.point_vs_mean_bound(t, 0, 1, omega) - gf.eps_tolerance(omega, 1.0, n)


class TestSymmetrizedPair:
    def test_left_endpoint(self):
        assert ost.symmetrized_pair_bound(0, 0, 1, wid) == pytest.approx(0.25, abs=1e-15)

    def test_approaches_center_limit(self):
        limit = 2.0 * wid.primitive(0, 0.5)
        vals = [ost.symmetrized_pair_bound(t, 0, 1, wid) for t in (0.4, 0.49, 0.499)]
        assert abs(vals[-1] - limit) <= 1e-2
        assert abs(vals[-1] - limit) <= abs(vals[0] - limit)

    def test_sqrt_value(self):
        expect = 2 * (2 / 3) * 0.5 ** 1.5
        assert ost.symmetrized_pair_bound(0, 0, 1, wsq) == pytest.approx(expect, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ost.symmetrized_pair_bound(0.6, 0, 1, wid)

    @pytest.mark.parametrize("omega,t", [(wid, 0.0), (wsq, 0.25), (mo.minlin(1, 0.3), 0.1)])
    def test_extremal_attains(self, omega, t):
        n = 4096
        g = ost.symmetrized_pair_extremal(t, 0, 1, omega, n=n)
        assert gf.check_Homega(g, omega).member
        lifted = gf.lift(g, ls.interval(1, 1))
        mean_w = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        half = ls.scale(
            0.5,
            ls.add(ls.convexify(lifted.value_at(t)), ls.convexify(lifted.value_at(1 - t))),
        )
        lhs = ls.dist(half, ks.integrate_weighted(lifted, mean_w))
        assert lhs >= ost.symmetrized_pair_bound(t, 0, 1, omega) - gf.eps_tolerance(omega, 1.0, n)


class TestSoundness:
    @pytest.mark.parametrize("model", ["real", "interval"])
    def test_class_members_stay_below_bounds(self, model):
        from ksr import oracle as orc

        spec = orc.SampleSpec(orc.HOMEGA, model, wid, 0.0, 1.0, 512, 40, 99)
        cfg = ost.two_interval_config(0, 1, 0.25, 0.75)
        w1, w2 = ost.two_interval_weights(cfg)
        eps = gf.eps_tolerance(wid, 1.0, 512)
        mean_w = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        for f in orc.sample_class(spec):
            assert ks.functional_S(f, w1, w2) <= 0.125 + eps
            lhs = ls.dist(ls.convexify(f.value_at(0.5)), ks.integrate_weighted(f, mean_w))
            assert lhs <= 0.25 + eps
