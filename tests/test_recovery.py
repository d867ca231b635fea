import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr import gridfn as gf
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import recovery as rec
from ksr.errors import KnotViolation, NoDifference, NonConcave

from grid_fixtures import constant_grid, element, integral, interval_grid, value_at

wid = mo.power(1, 1)
wsq = mo.power(1, 0.5)


class TestKnots:
    def test_two_knots_unit_interval(self):
        t, tau = rec.optimal_knots(2, 0, 1)
        assert np.allclose(t, [0.25, 0.75])
        assert np.allclose(tau, [0, 0.5, 1])

    def test_single_knot(self):
        t, _ = rec.optimal_knots(1, 0, 1)
        assert np.allclose(t, [0.5])

    def test_four_knots_long_interval(self):
        t, _ = rec.optimal_knots(4, 0, 2)
        assert np.allclose(t, [0.25, 0.75, 1.25, 1.75])

    def test_zero_knots_rejected(self):
        with pytest.raises(KnotViolation):
            rec.optimal_knots(0, 0, 1)

    def test_window_validation(self):
        with pytest.raises(KnotViolation):
            rec.validate_knots(np.array([0.3, 0.5]), 0.15, 0, 1)  # overlap
        with pytest.raises(KnotViolation):
            rec.validate_knots(np.array([0.05]), 0.1, 0, 1)  # leaves domain


class TestErrorValues:
    def test_convexify_value(self):
        assert rec.error_convexify(2, 0.1, wid, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_convexify_full_windows(self):
        assert rec.error_convexify(1, 0.5, wid, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_integral_value(self):
        assert rec.error_integral(2, 0.05, wid, 1.0) == pytest.approx(0.1, abs=1e-12)

    def test_integral_vanishes_with_full_information(self):
        assert rec.error_integral(2, 0.25, wid, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_h_out_of_range(self):
        with pytest.raises(KnotViolation):
            rec.error_convexify(2, 0.3, wid, 1.0)


class TestRecoveryMethods:
    def test_constant_function_recovered_exactly(self):
        f = constant_grid(ls.interval(0, 1), 0, 1, 256)
        knots, _ = rec.optimal_knots(2, 0, 1)
        info = rec.mean_info(f, knots, 0.1)
        method = rec.recover_convexify(info, n=256)
        assert gf.sup_dist(f, method) <= 1e-12

    def test_constant_interval_integral(self):
        f = constant_grid(ls.interval(0, 1), 0, 1, 256)
        knots, _ = rec.optimal_knots(2, 0, 1)
        info = rec.mean_info(f, knots, 0.1)
        out = element(info.model, rec.recover_integral(info))
        assert ls.close(out, ls.interval(0, 1), tol=1e-10)

    def test_mean_info_values(self):
        f = gf.real_grid(lambda t: t, 0, 1, 1024)
        knots, _ = rec.optimal_knots(2, 0, 1)
        info = rec.mean_info(f, knots, 0.1)
        assert info.model == ls.REAL and info.means.shape == (2,)
        assert info.means == pytest.approx([0.25, 0.75], abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_means_are_grid_rows(self, n):
        # one array in the grid layout, row k the scaled integral over window k
        h = 0.5 / (4 * n)
        knots, _ = rec.optimal_knots(n, 0, 1)
        for f in (gf.real_grid(np.sin, 0, 1, 512), interval_grid(np.sin, lambda t: 1 + t * t, 0, 1, 512)):
            info = rec.mean_info(f, knots, h)
            assert info.model == f.model and info.means.shape == (n,) + f.data.shape[1:]
            for t, row in zip(knots, info.means):
                want = ls.scale(1.0 / (2.0 * h), integral(f, t - h, t + h))
                assert element(f.model, row) == want


class TestConvexifyOrdered:
    """``recover_convexify`` builds its output without the constructor's
    lo <= hi scan: the means of rows with lo <= hi have lo <= hi exactly."""

    @given(data=st.data(), n=st.integers(1, 8), grid=st.integers(16, 300), a=st.floats(-1e3, 1e3),
           length=st.floats(1e-2, 1e3), frac=st.floats(0.01, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_output_rows_are_ordered(self, data, n, grid, a, length, frac):
        lo = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=grid + 1, max_size=grid + 1)))
        gap = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=grid + 1, max_size=grid + 1)))
        gap[::2] = 0.0  # point intervals: the tightest case
        f = gf.GridFunction(a, a + length, ls.INTERVAL, gf.interval_array(lo, lo + gap))
        knots, _ = rec.optimal_knots(n, f.a, f.b)
        out = rec.recover_convexify(rec.mean_info(f, knots, frac * length / (2 * n)), n=grid)
        assert np.all(out.data[:, 0] <= out.data[:, 1])


class TestLowerExtremalMean:
    @pytest.mark.parametrize("omega", [wid, wsq])
    def test_two_knot_construction(self, omega):
        knots, _ = rec.optimal_knots(2, 0, 1)
        f = rec.lower_extremal_mean(knots, 0.1, omega, 0, 1, n=4096)
        for t in knots:
            mean = ls.scale(1 / 0.2, integral(f, t - 0.1, t + 0.1))
            assert ls.norm(mean) <= gf.eps_tolerance(omega, 1.0, 4096)
        target = rec.error_convexify(2, 0.1, omega, 1.0)
        assert float(np.max(np.abs(f.data))) >= target - gf.eps_tolerance(omega, 1.0, 4096)
        assert gf.check_Homega(f, omega).member

    def test_single_knot_profile_peaks_at_left_end(self):
        knots, tau = rec.optimal_knots(1, 0, 1)
        f = rec.lower_extremal_mean(knots, 0.1, wid, 0, 1, n=2048)
        # the construction centers its profile at tau_1 = a
        assert f.data[0] == pytest.approx(float(np.max(f.data)), abs=1e-12)
        mean = ls.scale(1 / 0.2, integral(f, knots[0] - 0.1, knots[0] + 0.1))
        assert ls.norm(mean) <= 1e-7

    def test_windows_filling_the_cells(self):
        # 1/6 rounded up: validate_knots admits it, and d - h is -6e-17
        knots, _ = rec.optimal_knots(3, 0, 1)
        h = 0.1666666666666667
        f = rec.lower_extremal_mean(knots, h, wid, 0, 1, n=3072)
        for t in knots:
            assert ls.norm(ls.scale(1 / (2 * h), integral(f, t - h, t + h))) <= 1e-9
        assert float(np.max(np.abs(f.data))) == pytest.approx(rec.error_convexify(3, h, wid, 1.0), abs=1e-9)

    def test_nonuniform_knots(self):
        knots = np.array([0.2, 0.8])
        f = rec.lower_extremal_mean(knots, 0.05, wsq, 0, 1, n=4096)
        for t in knots:
            mean = ls.scale(1 / 0.1, integral(f, t - 0.05, t + 0.05))
            assert ls.norm(mean) <= 1e-6
        assert gf.check_Homega(f, wsq).member
        # the longest cell is [0.5, 0.8], so the sup exceeds the uniform value
        assert float(np.max(np.abs(f.data))) >= rec.error_convexify(2, 0.05, wsq, 1.0) - 1e-6


class TestLowerExtremalIntegral:
    def test_uniform_equality(self):
        knots, _ = rec.optimal_knots(2, 0, 1)
        f = rec.lower_extremal_integral(knots, 0.05, wid, 0, 1, n=4096)
        val = integral(f).payload
        assert val >= 0.1 - gf.eps_tolerance(wid, 1.0, 4096)
        assert val == pytest.approx(0.1, abs=1e-4)
        for t in knots:
            mean = ls.scale(1 / 0.1, integral(f, t - 0.05, t + 0.05))
            assert ls.norm(mean) <= 1e-9
        assert gf.check_Homega(f, wid).member

    def test_small_window_limit(self):
        knots, _ = rec.optimal_knots(2, 0, 1)
        f = rec.lower_extremal_integral(knots, 1e-4, wsq, 0, 1, n=4096)
        limit = 4 * wsq.primitive(0, 0.25)
        assert integral(f).payload == pytest.approx(limit, rel=2e-2)

    def test_membership_sqrt(self):
        knots, _ = rec.optimal_knots(3, 0, 1)
        f = rec.lower_extremal_integral(knots, 0.05, wsq, 0, 1, n=2048)
        assert gf.check_Homega(f, wsq).member

    def test_nonconcave_rejected(self):
        knots, _ = rec.optimal_knots(2, 0, 1)
        with pytest.raises(NonConcave):
            rec.lower_extremal_integral(knots, 0.05, mo.PowerModulus(1, 2.0), 0, 1)

    def test_no_points_by_knots_table(self):
        # n = 128 at grid 16384: a (grid + 1) x n distance table alone takes 16 MiB
        knots, _ = rec.optimal_knots(128, 0.0, 1.0)
        tracemalloc.start()
        try:
            rec.lower_extremal_integral(knots, 0.05 / 256, wid, 0.0, 1.0, n=16384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def _argmin_nearest(knots, ts):
    """The (points x knots) reference: the first knot at the least distance."""
    return np.argmin(np.abs(ts[:, None] - knots[None, :]), axis=1)


class TestNearestKnot:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-64, 64), min_size=1, max_size=12, unique=True),
        st.integers(-4, 4),
        st.lists(st.floats(-2000.0, 2000.0), max_size=30),
    )
    def test_matches_argmin(self, ints, e, points):
        # knots on a dyadic lattice: the halfway points between them are
        # exact, so they tie, and a tie goes to the lower index
        knots = np.sort(np.array(ints, dtype=float)) * 2.0 ** e
        halfway = 0.5 * (knots[:-1] + knots[1:])
        outside = [knots[0] - 1.0, knots[-1] + 1.0, knots[0] - 1e6, knots[-1] + 1e6]
        ts = np.concatenate((points, knots, halfway, outside))
        assert np.array_equal(rec._nearest_knot(knots, ts), _argmin_nearest(knots, ts))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 128])
    def test_optimal_knots_on_the_grid(self, n):
        knots, _ = rec.optimal_knots(n, -0.3, 2.2)
        ts = np.linspace(-0.3, 2.2, 4097)
        assert np.array_equal(rec._nearest_knot(knots, ts), _argmin_nearest(knots, ts))


def _blend_bound(t, lo, hi, omega):
    """Pointwise bound on dist(f(t), linear blend of f(lo), f(hi)) for f
    whose derivative has modulus omega:
    (hi - t)(t - lo) / (hi - lo)^2 * int_0^{hi - lo} omega."""
    d = hi - lo
    return (hi - t) * (t - lo) / d ** 2 * omega.primitive(0.0, d)


class TestPolyline:
    def test_interpolates_nodes(self):
        rows = np.array([[0, 1], [1, 3], [0.5, 1.5]], dtype=float)
        partition = np.array([0, 0.5, 1])
        pl = rec.polyline(ls.INTERVAL, rows, partition, n=512)
        np.testing.assert_allclose(gf.values_at(pl, partition), rows, rtol=0, atol=1e-12)
        real = rec.polyline(ls.REAL, rows[:, 1], partition, n=512)
        np.testing.assert_allclose(gf.values_at(real, partition), rows[:, 1], rtol=0, atol=1e-12)

    def test_one_row_per_node(self):
        with pytest.raises(ValueError, match="one value per partition node"):
            rec.polyline(ls.REAL, np.zeros(2), [0, 0.5, 1])

    def test_linear_function_reproduced(self):
        f = gf.lift(gf.real_grid(lambda t: 2 * t - 0.3, 0, 1, 512), ls.interval(1, 1))
        partition = np.linspace(0, 1, 3)
        pl = rec.polyline(f.model, gf.values_at(f, partition), partition, n=512)
        assert gf.sup_dist(f, pl) <= 1e-12

    def test_pointwise_bound_midpoint(self):
        # f(t) = t^2 / 2 has f' = t in H^omega for omega(t) = t; the chord over
        # [0, 1] misses f(1/2) by exactly the pointwise bound 1/8, and f(0) by 0
        f = gf.lift(gf.real_grid(lambda t: 0.5 * t * t, 0, 1, 512), ls.interval(1, 1))
        pl = rec.polyline(f.model, gf.values_at(f, np.array([0.0, 1.0])), [0, 1], n=512)
        assert ls.dist(value_at(f, 0.5), value_at(pl, 0.5)) == pytest.approx(1 / 8, abs=1e-15)
        assert ls.dist(value_at(f, 0.5), value_at(pl, 0.5)) == pytest.approx(_blend_bound(0.5, 0, 1, wid), abs=1e-15)
        assert ls.dist(value_at(f, 0.0), value_at(pl, 0.0)) == 0.0

    def test_uniform_bound(self):
        assert rec.polyline_uniform_error(2, wid, 1.0) == pytest.approx(1 / 32, abs=1e-15)

    def test_deviation_bound_on_samples(self):
        from ksr import oracle as orc

        partition = np.linspace(0, 1, 3)
        bound = rec.polyline_uniform_error(2, wid, 1.0)
        # the pointwise form peaks at each segment midpoint with the uniform bound
        assert _blend_bound(0.25, 0.0, 0.5, wid) == pytest.approx(bound, abs=1e-15)
        assert _blend_bound(0.0, 0.0, 0.5, wid) == 0.0
        eps = gf.eps_tolerance(wid, 1.0, 512)
        spec = orc.SampleSpec(orc.W1HOMEGA, "interval", wid, 0.0, 1.0, 512, 30, 5)
        for f in orc.sample_class(spec):
            pl = rec.polyline(f.model, gf.values_at(f, partition), partition, n=512)
            assert gf.sup_dist(f, pl) <= bound + eps
            # pointwise form at a few interior points
            for t in (0.1, 0.3, 0.6):
                k = 0 if t < 0.5 else 1
                ptbound = _blend_bound(t, partition[k], partition[k + 1], wid)
                assert ls.dist(value_at(f, t), value_at(pl, t)) <= ptbound + eps

    def test_chain_bound_on_samples(self):
        from ksr import oracle as orc

        spec = orc.SampleSpec(orc.W1HOMEGA, "real", wid, 0.0, 1.0, 512, 30, 6)
        eps = gf.eps_tolerance(wid, 1.0, 512)
        for f in orc.sample_class(spec):
            fa, fb = value_at(f, 0.0), value_at(f, 1.0)
            for t in (0.25, 0.5, 0.8):
                blend = ls.add(ls.scale(1 - t, fa), ls.scale(t, fb))
                assert ls.dist(value_at(f, t), blend) <= _blend_bound(t, 0, 1, wid) + eps


class TestOmegaSpline:
    @pytest.mark.parametrize("omega", [wid, wsq])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_uniform_equality(self, omega, n):
        G = rec.omega_spline(n, omega, 0.0, 1.0, n=2048)
        target = rec.polyline_uniform_error(n, omega, 1.0)
        assert float(np.max(np.abs(G.data))) == pytest.approx(target, abs=gf.eps_tolerance(omega, 1.0, 2048))

    def test_nodes_vanish_and_slope_in_class(self):
        partition = np.linspace(0, 1, 5)
        G = rec.omega_spline(4, wid, 0.0, 1.0, n=2048)
        assert np.max(np.abs(np.interp(partition, G.nodes, G.data))) <= 1e-9
        slope = np.diff(G.data) / G.step
        slope_fn = gf.real_grid(np.concatenate([slope, [slope[-1]]]), 0, 1, 2048)
        assert gf.check_Homega(slope_fn, wid).defect <= 1e-6

    def test_nonconcave_rejected(self):
        with pytest.raises(NonConcave):
            rec.omega_spline(2, mo.PowerModulus(1, 2.0), 0.0, 1.0)

    @pytest.mark.parametrize("a,length", [(2.0, 1.0), (-7.25, 1000.0), (1e15, 1000.0)])
    def test_shifted_interval(self, a, length):
        # the spline is built on [0, b - a] and placed on [a, b], so a shift
        # moves no bit; at 1e15, where floats are 0.125 apart, absolute
        # coordinates left node residuals of about 20
        G = rec.omega_spline(4, wsq, a, a + length, n=512)
        G0 = rec.omega_spline(4, wsq, 0.0, length, n=512)
        assert (G.a, G.b) == (a, a + length)
        assert np.array_equal(_bits(G.data), _bits(G0.data))
        size = rec.polyline_uniform_error(4, wsq, length)
        assert np.max(np.abs(np.interp(np.linspace(0, length, 5), G0.nodes, G0.data))) <= 1e-9 * size

    def test_node_residual_self_check(self, monkeypatch):
        monkeypatch.setattr(rec, "_spline_G", lambda etas, signs, omega, pts, a: np.full(len(pts), 2e-7))
        with pytest.raises(ArithmeticError, match="node residuals"):
            rec.omega_spline(2, wid, 0.0, 1.0)


class TestDerivativeRecovery:
    def test_value(self):
        assert rec.derivative_recovery_value(4, wid, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_step_derivative_of_polyline(self):
        rows = np.array([[0, 0], [0, 1], [1, 3]], dtype=float)
        d = rec.polyline_derivative(ls.INTERVAL, rows, [0, 0.5, 1], n=512)
        assert ls.close(value_at(d, 0.2), ls.interval(0, 2), tol=1e-12)
        assert ls.close(value_at(d, 0.9), ls.interval(2, 4), tol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_quotients_match_lspace(self, seed):
        # the array quotients are ls.hukuhara_diff then ls.scale, bit for bit,
        # including widths that shrink by less than EQ_TOL
        rng = np.random.default_rng(seed)
        partition = np.cumsum(rng.uniform(0.1, 1.0, 7)) - 0.5
        lo = rng.uniform(-2, 2, 7)
        width = 1.0 + np.cumsum(rng.uniform(0, 1, 7) * (rng.random(7) < 0.6))
        width[3] = width[2] - 0.4 * ls.EQ_TOL
        rows = np.stack([lo, lo + width], axis=1)
        for model, data in ((ls.INTERVAL, rows), (ls.REAL, lo)):
            d = rec.polyline_derivative(model, data, partition, n=256)
            values = [element(model, row) for row in data]
            want = [
                ls.scale(1.0 / (t1 - t0), ls.hukuhara_diff(v1, v0))
                for t0, t1, v0, v1 in zip(partition, partition[1:], values, values[1:])
            ]
            segment = np.clip(np.searchsorted(partition, d.nodes, side="right") - 1, 0, len(want) - 1)
            assert [element(d.model, d.data[i]) for i in range(d.n_cells + 1)] == [want[k] for k in segment]

    def test_shrinking_rows_raise(self):
        rows = np.array([[0.0, 1.0], [0.0, 2.0], [0.5, 2.5 - 2 * ls.EQ_TOL]])
        with pytest.raises(NoDifference, match="segment 1"):
            rec.polyline_derivative(ls.INTERVAL, rows, [0, 0.5, 1], n=16)

    def test_shrink_within_eq_tol_accepted(self):
        rows = np.array([[0.0, 1.0], [0.0, 1.0 - 0.5 * ls.EQ_TOL]])
        d = rec.polyline_derivative(ls.INTERVAL, rows, [0, 0.5], n=16)
        # the difference is clamped to the point 0
        assert np.all(d.data == 0.0)

    def test_lifted_linear_exact(self):
        f = gf.lift(gf.real_grid(lambda t: 3 * t, 0, 1, 512), ls.interval(1, 1))
        partition = np.linspace(0, 1, 5)
        d = rec.polyline_derivative(f.model, gf.values_at(f, partition), partition, n=512)
        expect = constant_grid(ls.interval(3, 3), 0, 1, 512)
        assert gf.sup_dist(d, expect) <= 1e-12

    def test_error_bound_matches_point_vs_mean(self):
        # f(s) = int_0^s omega(|u - t|) du has f'(t) = 0 and f' in H^omega; the
        # recovered derivative on the segment holding t is the mean of f' there,
        # so its error at t is exactly the point-vs-mean bound
        from ksr.ostrowski import point_vs_mean_bound

        partition = np.linspace(0, 1, 5)
        for omega in (wid, wsq):
            for t in (0.3, 0.25, 0.6):
                I = omega.primitive
                vals = [I(t - s, t) if s <= t else I(0.0, t) + I(0.0, s - t) for s in partition]
                rows = np.array([[v, v] for v in vals])
                d = rec.polyline_derivative(ls.INTERVAL, rows, partition, n=512)
                k = min(int(np.searchsorted(partition, t, side="right")) - 1, len(partition) - 2)
                c, e = partition[k], partition[k + 1]
                got = ls.dist(value_at(d, 0.5 * (c + e)), ls.interval(0, 0))
                assert got == pytest.approx(point_vs_mean_bound(t, c, e, omega), abs=1e-12)

    @pytest.mark.parametrize("a,b,n,grid_n", [
        (-0.3, 2.1, 2, 64),  # a grid point a hair below a node, odd cell
        (-1.5971800090969577, -0.48256579568775204, 8, 40),  # the same, even cell
    ])
    def test_extremal_where_grid_points_round_into_the_next_cell(self, a, b, n, grid_n):
        f = rec.derivative_extremal(n, wid, a, b, grid_n=grid_n)
        slope = np.diff(f.data) / f.step
        assert float(np.max(np.abs(slope))) <= rec.derivative_recovery_value(n, wid, b - a) + 1e-9

    @pytest.mark.parametrize("n,omega", [(4, wid), (3, wsq)])
    def test_extremal_construction(self, n, omega):
        f = rec.derivative_extremal(n, omega, 0, 1, grid_n=4096)
        partition = np.linspace(0, 1, n + 1)
        # exact zeros when the partition lands on grid nodes, grid-scale
        # interpolation error otherwise (n = 3 does not divide 4096)
        assert np.max(np.abs(np.interp(partition, f.nodes, f.data))) <= 2 * f.step
        value = rec.derivative_recovery_value(n, omega, 1.0)
        slope_at_a = abs(f.data[1] - f.data[0]) / f.step
        assert slope_at_a == pytest.approx(value, abs=gf.eps_tolerance(omega, 1.0, 4096))
        slope = np.diff(f.data) / f.step
        slope_fn = gf.real_grid(np.concatenate([slope, [slope[-1]]]), 0, 1, 4096)
        assert gf.check_Homega(slope_fn, omega).defect <= gf.eps_tolerance(omega, 1.0, 4096)


class TestReport:
    def test_report_flags(self):
        r = rec.RecoveryReport("integral", 0.1, 0.1005, 0.0999, 100, 1e-2)
        assert r.sound and r.attained
        d = r.as_dict()
        assert d["problem"] == "integral" and d["sound"] and d["attained"]


# ---------------------------------------------------------------------------
# the array kernels against the per-node loops they replaced


def _ref_lower_extremal_mean(knots, h, omega, a, b, n):
    """Per-node reference: nearest knot by argmin, window profiles as a
    chain of mirrored closures."""
    knots = np.asarray(knots, dtype=float)
    nk = len(knots)
    tau = rec.tau_of(knots, a, b)
    best = None
    for i in range(nk):
        left_len = knots[i] - tau[i]
        right_len = tau[i + 1] - knots[i]
        if best is None or left_len > best[0] + 1e-15:
            best = (left_len, "left", i)
        if right_len > best[0] + 1e-15:
            best = (right_len, "right", i)
    d, side, istar = best
    p = tau[istar] if side == "left" else tau[istar + 1]
    C = omega.primitive(d - h, d + h) / (2.0 * h)

    def raw(u):
        return C - np.asarray(omega(np.abs(np.asarray(u) - p)), dtype=float)

    if side == "left":
        covered = [istar] if istar == 0 else [istar - 1, istar]
    else:
        covered = [istar] if istar == nk - 1 else [istar, istar + 1]
    window_fn = {k: raw for k in covered}
    for k in range(covered[-1] + 1, nk):
        window_fn[k] = (lambda f, s: (lambda u: f(s - np.asarray(u))))(window_fn[k - 1], knots[k - 1] + knots[k])
    for k in range(covered[0] - 1, -1, -1):
        window_fn[k] = (lambda f, s: (lambda u: f(s - np.asarray(u))))(window_fn[k + 1], knots[k] + knots[k + 1])
    lo_raw = a if (side == "left" and istar == 0) else knots[covered[0]] - h
    hi_raw = b if (side == "right" and istar == nk - 1) else knots[covered[-1]] + h
    ts = np.linspace(a, b, n + 1)
    vals = np.empty_like(ts)
    for j, u in enumerate(ts):
        k = int(np.argmin(np.abs(knots - u)))
        if knots[k] - h <= u <= knots[k] + h:
            vals[j] = window_fn[k](u)
        elif lo_raw <= u <= hi_raw:
            vals[j] = raw(u)
        elif u < knots[0] - h:
            vals[j] = window_fn[0](knots[0] - h)
        elif u > knots[-1] + h:
            vals[j] = window_fn[nk - 1](knots[-1] + h)
        else:
            k = int(np.searchsorted(knots, u)) - 1
            vals[j] = window_fn[k](knots[k] + h)
    return vals


def _ref_spline_G(etas, signs, omega, pts, a):
    """Per-break reference: a running sum over the break intervals."""

    def hprim(z):
        return math.copysign(0.25 * omega.primitive(0.0, 2.0 * abs(z)), z)

    mids = 0.5 * (etas[:-1] + etas[1:])
    breaks = np.unique(np.concatenate(([a], etas, mids, pts)))
    cum = 0.0
    table_x, table_v = [breaks[0]], [0.0]
    for x0, x1 in zip(breaks, breaks[1:]):
        mid = 0.5 * (x0 + x1)
        j = int(np.argmin(np.abs(etas - mid)))
        idx = int(np.searchsorted(etas, mid, side="left"))
        s = signs[min(max(idx, 0), len(signs) - 1)]
        cum += s * (hprim(x1 - etas[j]) - hprim(x0 - etas[j]))
        table_x.append(x1)
        table_v.append(cum)
    return np.interp(pts, np.asarray(table_x), np.asarray(table_v))


KERNEL_MODULI = [wid, wsq, mo.power(2, 0.7), mo.minlin(1, 0.3), mo.plconcave([(0, 0), (0.2, 0.5), (1, 0.9)])]
KERNEL_NS = [1, 2, 3, 7, 16]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestArrayKernels:
    @pytest.mark.parametrize("n", KERNEL_NS)
    @pytest.mark.parametrize("omega", KERNEL_MODULI, ids=lambda w: w.spec())
    @pytest.mark.parametrize("frac", [0.05, 0.5, 1.0])
    def test_lower_extremal_mean_matches_node_loop(self, n, omega, frac):
        # frac = 1 makes neighbouring windows touch, where the nearest-knot
        # tie rule decides which mirrored profile applies
        knots, _ = rec.optimal_knots(n, 0.0, 1.0)
        h = frac / (2 * n)
        got = rec.lower_extremal_mean(knots, h, omega, 0.0, 1.0, n=512).data
        want = _ref_lower_extremal_mean(knots, h, omega, 0.0, 1.0, 512)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_lower_extremal_mean_nonuniform_knots(self, n):
        rng = np.random.default_rng(n)
        knots = np.sort(rng.uniform(0.3, 2.7, size=n))
        gaps = np.diff(np.concatenate(([0.3], knots, [2.7])))
        h = 0.4 * float(np.min(gaps))
        got = rec.lower_extremal_mean(knots, h, wsq, 0.0, 3.0, n=512).data
        want = _ref_lower_extremal_mean(knots, h, wsq, 0.0, 3.0, 512)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n", KERNEL_NS)
    @pytest.mark.parametrize("omega", KERNEL_MODULI, ids=lambda w: w.spec())
    def test_omega_spline_matches_break_loop(self, n, omega):
        partition = np.linspace(0.0, 1.0, n + 1)
        etas = 0.5 * (partition[:-1] + partition[1:])
        signs = np.array([(-1.0) ** i for i in range(n + 1)])
        got = rec.omega_spline(n, omega, 0.0, 1.0, n=512).data
        want = _ref_spline_G(etas, signs, omega, np.linspace(0.0, 1.0, 513), 0.0)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("seed", range(5))
    def test_spline_G_random_breaks(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        etas = np.sort(rng.uniform(0.0, 1.0, size=m))
        signs = np.array([(-1.0) ** i for i in range(m + 1)])
        pts = np.sort(rng.uniform(0.0, 1.0, size=40))
        for omega in (wsq, mo.minlin(1, 0.3)):
            got = rec._spline_G(etas, signs, omega, pts, 0.0)
            assert np.array_equal(_bits(got), _bits(_ref_spline_G(etas, signs, omega, pts, 0.0)))


MAP_NS = [1, 3, 128]
MAP_GRIDS = [2, 7, 1024, 16384]
MAP_DOMAINS = [(0.0, 1.0), (-3.0, 5.5)]


def _fresh_cells(breaks, a, b, grid):
    """The node-to-cell rule evaluated afresh, as each call once did."""
    ts = np.linspace(a, b, grid + 1)
    return np.clip(np.searchsorted(breaks, ts, side="right") - 1, 0, len(breaks) - 2)


def _map_rows(model, m, seed):
    """m random rows of ``model``; interval widths grow with the row, so
    that every Hukuhara difference of neighbouring rows exists."""
    rng = np.random.default_rng(seed)
    lo = rng.normal(size=m)
    if model == ls.REAL:
        return lo
    return gf.interval_array(lo, lo + np.cumsum(rng.uniform(0.0, 1.0, size=m)))


class TestNodeCellMap:
    """The cached node-to-cell map and the ``np.take`` gathers give the bits
    of a fresh ``searchsorted`` and a fancy-indexed gather."""

    @pytest.mark.parametrize("model", [ls.REAL, ls.INTERVAL])
    @pytest.mark.parametrize("n", MAP_NS)
    @pytest.mark.parametrize("grid", MAP_GRIDS)
    @pytest.mark.parametrize("a,b", MAP_DOMAINS)
    def test_convexify_matches_fresh_map(self, model, n, grid, a, b):
        knots, tau = rec.optimal_knots(n, a, b)
        info = rec.MeanInfo(a, b, knots, 0.25 * (b - a) / n, model, _map_rows(model, n, n + grid))
        want = info.means[_fresh_cells(tau, a, b, grid)]
        rec._node_cells.cache_clear()
        for _ in range(2):  # built, then read from the cache
            got = rec.recover_convexify(info, n=grid)
            assert got.data.shape == want.shape
            assert np.array_equal(_bits(got.data), _bits(want))

    @pytest.mark.parametrize("model", [ls.REAL, ls.INTERVAL])
    @pytest.mark.parametrize("n", MAP_NS)
    @pytest.mark.parametrize("grid", MAP_GRIDS)
    @pytest.mark.parametrize("a,b", MAP_DOMAINS)
    def test_derivative_matches_fresh_map(self, model, n, grid, a, b):
        partition = np.linspace(a, b, n + 1)
        rows = _map_rows(model, n + 1, n + grid)
        quotients = gf.hukuhara_quotient(model, rows[1:], rows[:-1], 1.0 / np.diff(partition))
        want = quotients[_fresh_cells(partition, a, b, grid)]
        rec._node_cells.cache_clear()
        for _ in range(2):
            got = rec.polyline_derivative(model, rows, partition, n=grid)
            assert np.array_equal(_bits(got.data), _bits(want))

    @pytest.mark.parametrize("a,b", MAP_DOMAINS)
    def test_nodes_on_breaks(self, a, b):
        # at n = 128 and grid 1024 every eighth node is a tau break and a
        # partition node, and b is the last node: each takes the cell to
        # its right, and b the last cell
        ts = np.linspace(a, b, 1025)
        _, tau = rec.optimal_knots(128, a, b)
        partition = np.linspace(a, b, 129)
        for breaks in (tau, partition):
            assert np.array_equal(breaks, ts[::8])
            cells = rec._node_cells(tuple(breaks.tolist()), a, b, 1024)
            assert np.array_equal(cells[:-1:8], np.arange(128))
            assert cells[-1] == 127

    def test_nonuniform_partition(self):
        partition = np.array([-3.0, -2.5, 0.0, 0.125, 4.0, 5.5])
        rows = _map_rows(ls.INTERVAL, len(partition), 11)
        quotients = gf.hukuhara_quotient(ls.INTERVAL, rows[1:], rows[:-1], 1.0 / np.diff(partition))
        got = rec.polyline_derivative(ls.INTERVAL, rows, partition, n=68)
        assert np.array_equal(_bits(got.data), _bits(quotients[_fresh_cells(partition, -3.0, 5.5, 68)]))

    def test_map_is_read_only(self):
        _, tau = rec.optimal_knots(3, 0.0, 1.0)
        cells = rec._node_cells(tuple(tau.tolist()), 0.0, 1.0, 64)
        with pytest.raises(ValueError):
            cells[0] = 1
        with pytest.raises(ValueError):
            rec._grid_nodes(0.0, 1.0, 64)[0] = 1.0
