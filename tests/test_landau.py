import math

import numpy as np
import pytest

from ksr import gridfn as gf
from ksr import landau as la
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import ostrowski as ost
from ksr.errors import NonConcave, WindowViolation

from grid_fixtures import constant_grid, element, interval_grid, value_at

wid = mo.power(1, 1)
wsq = mo.power(1, 0.5)


class TestWindows:
    def test_valid_config(self):
        w = la.WindowConfig(0.5, 0.1, 0.1, 0.2, 0.2, 0, 1)
        assert w.inner == (0.4, 0.6) and w.outer == (0.3, 0.7)

    def test_inner_must_nest(self):
        with pytest.raises(WindowViolation):
            la.WindowConfig(0.5, 0.3, 0.1, 0.2, 0.2, 0, 1)

    def test_outer_must_fit_domain(self):
        with pytest.raises(WindowViolation):
            la.WindowConfig(0.1, 0.0, 0.0, 0.2, 0.2, 0, 1)

    def test_clamped_windows(self):
        w = la.clamped_windows(0.15, 0.05, 0.2, 0, 1)
        assert (w.g1, w.g2, w.h1, w.h2) == (0.05, 0.05, 0.15, 0.2)
        w2 = la.clamped_windows(0.1, 0.2, 0.3, 0, 1)
        assert (w2.g1, w2.g2) == (0.1, 0.2)
        with pytest.raises(WindowViolation):
            la.clamped_windows(0.5, 0.3, 0.2, 0, 1)  # needs h > gamma


class TestDividedDifference:
    def test_lifted_square(self):
        f = gf.lift(gf.real_grid(lambda t: t * t, 0, 1, 4096))
        dd = element(f.model, la.divided_difference(f, 0.5, 0.1, 0.1))
        assert ls.dist(dd, ls.interval(1, 1)) <= 4 * f.step / 0.2

    def test_constant_gives_zero(self):
        f = constant_grid(ls.interval(1, 2), 0, 1, 256)
        assert ls.norm(element(f.model, la.divided_difference(f, 0.5, 0.1, 0.1))) <= 1e-12

    def test_growing_interval(self):
        f = interval_grid(lambda t: 0.0, lambda t: t, 0, 1, 4096)
        dd = element(f.model, la.divided_difference(f, 0.5, 0.1, 0.1))
        assert ls.dist(dd, ls.interval(0, 1)) <= 4 * f.step / 0.2

    def test_degenerate_window_rejected(self):
        f = gf.real_grid(lambda t: t, 0, 1, 64)
        with pytest.raises(WindowViolation):
            la.divided_difference(f, 0.5, 0.0, 0.0)


class TestKValue:
    def test_symmetric_point_case(self):
        w = la.WindowConfig(0.5, 0, 0, 0.2, 0.2, 0, 1)
        assert la.K_value(w, wid) == pytest.approx(0.1, abs=1e-12)

    def test_coinciding_windows_give_zero(self):
        w = la.WindowConfig(0.5, 0.2, 0.2, 0.2, 0.2, 0, 1)
        assert la.K_value(w, wid) == 0.0

    def test_asymmetric_example(self):
        w = la.WindowConfig(0.5, 0.0, 0.1, 0.2, 0.2, 0, 1)
        assert la.K_value(w, wid) == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("omega", [wid, wsq, mo.minlin(1, 0.25)])
    def test_matches_nested_two_interval_bound(self, omega):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = 0.5
            h1, h2 = rng.uniform(0.05, 0.4, 2)
            g1 = rng.uniform(0, h1)
            g2 = rng.uniform(0, h2)
            w = la.WindowConfig(t, g1, g2, h1, h2, 0, 1)
            cfg = ost.two_interval_config(t - h1, t + h2, t - g1, t + g2)
            assert la.K_value(w, omega) == pytest.approx(
                ost.two_interval_bound(cfg, omega), abs=1e-10
            )


class TestLandauRhs:
    def test_classic_combination(self):
        # symmetric windows of width sqrt(2) on a long domain, both norms 1
        h = math.sqrt(2)
        w = la.WindowConfig(0.0, 0, 0, h, h, -2, 2)
        rhs = la.landau_rhs("e", w, wid, 1.0, 1.0)
        assert rhs == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_variant_c_with_zero_quotient(self):
        w = la.WindowConfig(0.5, 0, 0, 0.2, 0.3, 0, 1)
        expect = (wid.primitive(0, 0.2) + wid.primitive(0, 0.3)) / 0.5
        assert la.landau_rhs("c", w, wid, 1.0, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_variant_b_with_coinciding_windows(self):
        w = la.WindowConfig(0.5, 0.2, 0.2, 0.2, 0.2, 0, 1)
        assert la.landau_rhs("b", w, wid, 5.0, 0.37) == pytest.approx(0.37, abs=1e-14)

    def test_unknown_variant(self):
        w = la.WindowConfig(0.5, 0, 0, 0.2, 0.2, 0, 1)
        with pytest.raises(ValueError):
            la.landau_rhs("z", w, wid, 1.0, 1.0)


class TestExtremals:
    def test_variant_e_norm_value(self):
        w = la.WindowConfig(0.5, 0, 0, 0.3, 0.3, 0, 1)
        assert la.extremal_sup_norm(w, wid) == pytest.approx(0.045, abs=1e-12)

    def test_variant_e_norm_matches_construction(self):
        w = la.WindowConfig(0.5, 0, 0, 0.3, 0.3, 0, 1)
        f = la.landau_extremal("e", w, wid, n=4096)
        assert float(np.max(np.abs(f.data))) == pytest.approx(0.045, abs=1e-6)

    def test_mass_balance_point(self):
        # symmetric windows balance at t; the antiderivative is odd there
        w = la.WindowConfig(0.5, 0, 0, 0.3, 0.3, 0, 1)
        f = la.landau_extremal("e", w, wid, n=4096)
        left = float(np.interp(0.2, f.nodes, f.data))
        right = float(np.interp(0.8, f.nodes, f.data))
        assert left == pytest.approx(-right, abs=1e-9)
        assert abs(float(np.interp(0.5, f.nodes, f.data))) <= 1e-9

    @pytest.mark.parametrize(
        "variant,omega",
        [("b", wid), ("b", wsq), ("c", wid), ("c", mo.minlin(1, 0.25)), ("d", wid), ("d", wsq), ("e", wid), ("e", wsq)],
    )
    def test_attainment(self, variant, omega):
        n = 4096
        if variant in ("b", "d"):
            w = la.clamped_windows(0.5, 0.1, 0.2, 0, 1)
        else:
            w = la.WindowConfig(0.5, 0, 0, 0.3, 0.3, 0, 1)
        f = la.landau_extremal(variant, w, omega, n=n)
        df = gf.hukuhara_derivative(f)
        omega_norm = gf.omega_seminorm(df, omega)
        assert omega_norm <= 1 + 1e-6
        d_h = ls.norm(element(f.model, la.divided_difference(f, w.t, w.h1, w.h2)))
        sup_f = float(np.max(np.abs(np.asarray(f.data))))
        if variant in ("b", "d"):
            lhs = ls.norm(element(f.model, la.divided_difference(f, w.t, w.g1, w.g2)))
        else:
            lhs = ls.norm(value_at(df, w.t))
        companion = d_h if variant in ("b", "c") else sup_f
        rhs = la.landau_rhs(variant, w, omega, omega_norm, companion)
        eps = gf.eps_tolerance(omega, 1.0, n)
        assert lhs >= rhs - 4 * eps
        assert lhs <= rhs + 4 * eps  # it is an equality, not just attainment

    def test_boundary_clamped_variant_d(self):
        w = la.clamped_windows(0.15, 0.05, 0.2, 0, 1)
        f = la.landau_extremal("d", w, wid, n=4096)
        dg = ls.norm(element(f.model, la.divided_difference(f, w.t, w.g1, w.g2)))
        supf = float(np.max(np.abs(f.data)))
        rhs = la.K_value(w, wid) + 2 / (w.h1 + w.h2) * supf
        assert dg == pytest.approx(rhs, abs=4 * gf.eps_tolerance(wid, 1.0, 4096))

    def test_nonconcave_rejected_for_glued_variants(self):
        w = la.clamped_windows(0.5, 0.1, 0.2, 0, 1)
        with pytest.raises(NonConcave):
            la.landau_extremal("b", w, mo.PowerModulus(1, 2.0))

    def test_membership_of_slopes(self):
        w = la.WindowConfig(0.5, 0, 0, 0.3, 0.3, 0, 1)
        for variant in ("c", "e"):
            f = la.landau_extremal(variant, w, wsq, n=2048)
            slope = np.diff(f.data) / f.step
            slope_fn = gf.real_grid(np.concatenate([slope, [slope[-1]]]), 0, 1, 2048)
            assert gf.check_Homega(slope_fn, wsq).defect <= gf.eps_tolerance(wsq, 1.0, 2048)


class TestStechkin:
    def test_derivative_target_value(self):
        w = la.WindowConfig(0.5, 0, 0, 0.2, 0.2, 0, 1)
        assert la.stechkin_value("derivative", w, wid) == pytest.approx(0.1, abs=1e-12)

    def test_divdiff_with_equal_windows(self):
        w = la.WindowConfig(0.5, 0.2, 0.2, 0.2, 0.2, 0, 1)
        assert la.stechkin_value("divdiff", w, wid) == 0.0

    def test_sqrt_value(self):
        w = la.WindowConfig(0.5, 0, 0, 0.25, 0.25, 0, 1)
        assert la.stechkin_value("derivative", w, wsq) == pytest.approx(1 / 3, abs=1e-12)

    def test_operator_norm_certificate(self):
        w = la.WindowConfig(0.5, 0, 0, 0.2, 0.2, 0, 1)
        rng = np.random.default_rng(8)
        bound = la.operator_norm_bound(w)
        for _ in range(100):
            vals = rng.uniform(-1, 1, 129)
            f = gf.real_grid(vals, 0, 1, 128)
            norm = ls.norm(element(f.model, la.divided_difference(f, 0.5, w.h1, w.h2)))
            assert norm <= bound * float(np.max(np.abs(vals))) + 1e-9


class TestDeltaRecovery:
    def test_linear_modulus(self):
        out = la.delta_recovery_value(0.5, 0.1, wid, 0, 1)
        assert out["delta"] == pytest.approx(0.005, abs=1e-12)
        assert out["value"] == pytest.approx(0.1, abs=1e-12)

    def test_saturated_modulus(self):
        omega = mo.minlin(1, 0.05)  # w(h1) = w(h2) = C
        out = la.delta_recovery_value(0.5, 0.1, omega, 0, 1)
        assert out["value"] == pytest.approx(0.05, abs=1e-12)

    def test_vanishing_window(self):
        for h in (1e-3, 1e-5):
            out = la.delta_recovery_value(0.5, h, wsq, 0, 1)
            assert out["delta"] <= h
            assert out["value"] == pytest.approx(wsq(h), abs=1e-12)

    def test_asymmetric_clamping(self):
        out = la.delta_recovery_value(0.05, 0.1, wid, 0, 1)
        assert (out["h1"], out["h2"]) == (0.05, 0.1)
        assert out["value"] == pytest.approx(0.1, abs=1e-12)


class TestScaleCovariance:
    """The affine map t -> a + L t takes the windows of a problem on [0, 1]
    with omega = t to those of the problem on [a, a + L]; K and the
    derivative constant gain a factor L, and the extremal's sup norm L^2.
    For L a power of two every rescaling is exact, so the relations hold
    bit for bit (the landau sweep relies on these closed forms)."""

    # the verify sweep's windows, snapped to the nodes of grid 4096, and an asymmetric pair
    @pytest.mark.parametrize("window", [(2048 / 4096, 410 / 4096, 410 / 4096, 819 / 4096, 819 / 4096),
                                        (0.5, 0.0, 0.1, 0.2, 0.3)], ids=["sweep", "asymmetric"])
    @pytest.mark.parametrize("shift", [0.0, 5.0, -7.25])
    @pytest.mark.parametrize("L", [2.0 ** -10, 1.0, 2.0 ** 10])
    def test_closed_forms_scale_with_the_domain(self, window, shift, L):
        t, g1, g2, h1, h2 = window
        w = la.WindowConfig(t, g1, g2, h1, h2, 0.0, 1.0)
        ws = la.WindowConfig(shift + L * t, L * g1, L * g2, L * h1, L * h2, shift, shift + L)
        assert la.K_value(ws, wid) == L * la.K_value(w, wid)
        assert la.derivative_vs_quotient_value(ws, wid) == L * la.derivative_vs_quotient_value(w, wid)
        assert la.extremal_sup_norm(ws, wid) == L * L * la.extremal_sup_norm(w, wid)
