import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksr import gridfn as gf
from ksr import kscore as ks
from ksr import landau as la
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import recovery as rec
from ksr.errors import ModelMismatch, NoDifference, NonIsotropic, NotInvertible

from grid_fixtures import check_Homega_loop, constant_grid, element, integral, interval_grid, value_at

wid = mo.power(1, 1)
wsq = mo.power(1, 0.5)


class TestMembership:
    def test_constant_is_member(self):
        f = constant_grid(ls.interval(1, 2), 0, 1, 128)
        rep = gf.check_Homega(f, wid)
        assert rep.member
        assert rep.defect == pytest.approx(-wid(f.step), abs=1e-12)

    def test_identity_against_sqrt_class(self):
        f = gf.real_grid(lambda t: t, 0, 1, 256)
        assert gf.check_Homega(f, wsq).member

    def test_double_slope_fails_with_span_defect(self):
        f = gf.real_grid(lambda t: 2 * t, 0, 1, 256)
        rep = gf.check_Homega(f, wid)
        assert not rep.member
        assert rep.defect == pytest.approx(1.0, abs=1e-12)  # worst at full span
        assert rep.witness == (0.0, 1.0)


def _membership_inputs():
    rng = np.random.default_rng(11)
    out = []
    for n in (16, 64, 100):
        # a ramp of slope 4 over 3 cells: its worst span, 3, is not dyadic
        out.append(gf.real_grid(np.clip(np.arange(n + 1) - 5, 0, 3) * (4.0 / n), 0.0, 1.0, n))
        walk = np.cumsum(rng.normal(0.0, 1.0 / n, n + 1))
        out.append(gf.real_grid(walk, 0.0, 1.0, n))
        out.append(gf.real_grid(0.3 * walk, -1.0, 2.0, n))
        lo = np.cumsum(rng.normal(0.0, 0.5 / n, n + 1))
        hi = lo + rng.uniform(0.0, 0.2, n + 1)
        out.append(gf.GridFunction(0.0, 1.0, ls.INTERVAL, gf.interval_array(lo, hi)))
    return out


class TestThresholdCache:
    @pytest.mark.parametrize("omega", [wid, wsq, mo.power(2, 0.7), mo.minlin(1, 0.3),
                                       mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)])])
    def test_matches_uncached_loop(self, omega):
        for f in _membership_inputs():
            want = check_Homega_loop(f, omega)
            for _ in range(2):  # the second call reads the cache
                rep = gf.check_Homega(f, omega)
                assert (rep.member, rep.defect, rep.witness) == want
                assert np.float64(rep.defect).tobytes() == np.float64(want[1]).tobytes()

    def test_seminorm_matches_uncached_loop(self):
        for omega in (wid, wsq, mo.minlin(1, 0.3)):
            for f in _membership_inputs():
                want = 0.0
                for k in gf._span_set(f.n_cells):
                    w = float(omega(k * f.step))
                    want = max(want, float(np.max(gf._pair_dist(f, k))) / w)
                assert gf.omega_seminorm(f, omega) == want

    def test_equal_moduli_share_an_entry(self):
        f = gf.real_grid(lambda t: t, 0, 1, 37)
        gf.check_Homega(f, mo.power(1, 0.5))
        before = gf._span_thresholds.cache_info()
        gf.check_Homega(f, mo.power(1, 0.5))  # a new, equal modulus
        after = gf._span_thresholds.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert after.maxsize is not None


class TestIntegrate:
    def test_constant_interval(self):
        f = constant_grid(ls.interval(0, 1), 0, 2, 64)
        assert ls.close(integral(f), ls.interval(0, 2))

    def test_trapezoid_exact_for_linear(self):
        f = gf.real_grid(lambda t: t, 0, 1, 64)
        assert integral(f).payload == pytest.approx(0.5, abs=1e-12)

    def test_additivity_over_disjoint_subintervals(self):
        f = interval_grid(lambda t: np.sin(t), lambda t: np.sin(t) + 1 + t, 0, 2, 512)
        whole = integral(f)
        parts = ls.add(integral(f, 0, 0.7321), integral(f, 0.7321, 2))
        assert ls.close(whole, parts, tol=1e-10)

    def test_result_is_convexify_fixed(self):
        f = interval_grid(lambda t: -t, lambda t: 1 + t * t, 0, 1, 32)
        out = integral(f)
        assert ls.is_convex(out)

    def test_substitution_affine(self):
        # reparametrize [0,1] -> [1,3] by s = 2t + 1 and compare
        f = gf.real_grid(lambda s: s ** 2, 1, 3, 2048)
        g = gf.real_grid(lambda t: ((2 * t + 1) ** 2) * 2.0, 0, 1, 2048)
        assert integral(f).payload == pytest.approx(integral(g).payload, abs=1e-9)

    def test_metric_bound_between_integrals(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            va = np.cumsum(rng.uniform(-1, 1, 129)) * 0.02
            vb = np.cumsum(rng.uniform(-1, 1, 129)) * 0.02
            fa = gf.real_grid(va, 0, 1, 128)
            fb = gf.real_grid(vb, 0, 1, 128)
            lhs = ls.dist(integral(fa), integral(fb))
            rhs = integral(gf.real_grid(np.abs(va - vb), 0, 1, 128)).payload
            assert lhs <= rhs + 1e-10

    def test_range_outside_domain(self):
        f = gf.real_grid(lambda t: t, 0, 1, 32)
        with pytest.raises(ValueError):
            gf.integrate(f, -0.5, 0.5)


def _full_mask_integral(xs, ys, c, d):
    """Reference: mask all breakpoints, interpolate on the whole polyline."""
    inner = (xs > c) & (xs < d)
    pts = np.concatenate(([c], xs[inner], [d]))
    return float(np.trapezoid(np.interp(pts, xs, ys), pts))


def _window_grids():
    """Real and interval grids on [-1, 2] with random node values, at a
    small and at the default grid size."""
    rng = np.random.default_rng(0)
    grids = []
    for n in (256, gf.DEFAULT_GRID):
        lo = rng.normal(size=n + 1)
        hi = lo + np.abs(rng.normal(size=n + 1))
        grids.append(gf.GridFunction(-1.0, 2.0, ls.REAL, lo))
        grids.append(gf.GridFunction(-1.0, 2.0, ls.INTERVAL, gf.interval_array(lo, hi)))
    return grids


WINDOW_GRIDS = _window_grids()


def _assert_matches_full_mask(f, c, d):
    """``integrate`` over [c, d] agrees with the full-mask reference of each
    endpoint array to a bound local to the window.

    Let u = eps / 2, Y = sup |f|, h the step and m the nodes the window
    covers: those inside (c, d) and one more beyond each end.  Both sides
    integrate the same interpolant, so their difference is rounding:
    - ``integrate`` is one dot product of m nonnegative weights that sum
      to about d - c: at most m u (d - c) Y, plus 5u relative in each
      weight, plus u h Y at each end, where the float offsets c - t and
      d - t into an end cell round on the scale of h;
    - the reference sums its trapezoids pairwise, within
      (log2 m + 19) u of their absolute sum, after three roundings in
      each term, and its interpolated values at c and d, each within
      12 u Y, carry weights of at most h / 2.
    So |got - ref| <= u Y ((m + log2 m + 27) (d - c) + 14 h).  For n >= 34
    this never exceeds n eps (b - a) max(1, Y), the bound of a difference
    F(d) - F(c) of two running trapezoids over the whole domain."""
    got = np.atleast_1d(integral(f, c, d).payload)
    cols = f.data.reshape(f.n_cells + 1, -1).T
    ref = [_full_mask_integral(f.nodes, col, c, d) for col in cols]
    m = int(np.count_nonzero((f.nodes > c) & (f.nodes < d))) + 2
    u = 0.5 * np.finfo(float).eps
    tol = u * gf.sup_norm(f) * ((m + np.log2(m) + 27) * (d - c) + 14 * f.step)
    assert np.max(np.abs(got - ref)) <= tol


class TestWindowIntegral:
    @given(st.sampled_from(WINDOW_GRIDS), st.floats(-1.0, 2.0), st.floats(-1.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_mask_on_random_windows(self, f, u, v):
        _assert_matches_full_mask(f, min(u, v), max(u, v))

    @given(st.sampled_from(WINDOW_GRIDS), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 2.0), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_mask_when_ends_are_nodes(self, f, p, q, t, both):
        # one or both window ends exactly on a node, the full range included
        i, j = (int(round(r * f.n_cells)) for r in (p, q))
        c, d = sorted((f.nodes[i], f.nodes[j] if both else t))
        _assert_matches_full_mask(f, c, d)

    @pytest.mark.parametrize("f", WINDOW_GRIDS, ids=lambda f: f"{f.model}-{f.n_cells}")
    def test_defaults_and_empty_window(self, f):
        _assert_matches_full_mask(f, f.a, f.b)
        assert integral(f) == integral(f, f.a, f.b)
        assert np.all(np.asarray(integral(f, 0.5, 0.5).payload) == 0.0)
        with pytest.raises(ValueError):
            gf.integrate(f, -2.0, 0.0)
        with pytest.raises(ValueError):
            gf.integrate(f, 0.5, 0.25)

    @pytest.mark.parametrize("f", WINDOW_GRIDS, ids=lambda f: f"{f.model}-{f.n_cells}")
    def test_weighted_integral_is_the_sum_over_pieces(self, f):
        w = ks.step_weight((-1.0, 2.0), [(-1.0, -0.3, 2.0), (0.1, 0.7321, 0.5), (1.25, 2.0, 3.0)])
        pieces = [ls.scale(height, integral(f, u, v)) for u, v, height in w.pieces]
        total = pieces[0]
        for p in pieces[1:]:
            total = ls.add(total, p)
        assert ls.close(element(f.model, ks.integrate_weighted(f, w)), total, tol=1e-12)


def _random_grid(k, n, seed):
    """A real (k = 0) or interval (k = 1) grid of n cells on [-1, 2] with
    random node values."""
    rng = np.random.default_rng(seed)
    lo = rng.standard_normal(n + 1)
    return (gf.real_grid(lo, -1, 2, n), interval_grid(lo, lo + rng.uniform(0, 1, n + 1), -1, 2, n))[k]


@st.composite
def windowed_grids(draw):
    """(f, windows): a random grid and windows [c, d] on it whose ends lie
    anywhere or exactly on nodes, with whole-step translates of the first
    window (which cover as many nodes as it does) and maybe the full
    domain."""
    f = _random_grid(draw(st.integers(0, 1)), draw(st.integers(2, 300)), draw(st.integers(0, 2 ** 32 - 1)))
    end = st.one_of(st.floats(f.a, f.b), st.integers(0, f.n_cells).map(lambda i: float(f.nodes[i])))
    windows = [tuple(sorted(draw(st.tuples(end, end)))) for _ in range(draw(st.integers(1, 6)))]
    c, d = windows[0]
    for j in draw(st.lists(st.integers(-f.n_cells, f.n_cells), max_size=4)):
        if f.a <= c + j * f.step and d + j * f.step <= f.b:
            windows.append((c + j * f.step, d + j * f.step))
    if draw(st.booleans()):
        windows.append((f.a, f.b))
    return f, windows


class TestWindowEvaluator:
    """Each window is integrated over its own nodes: its row has the same
    bits alone (``integrate``), in a batch, as a piece of
    ``integrate_weighted`` and as a mean of ``mean_info``."""

    @given(windowed_grids())
    @settings(max_examples=300, deadline=None)
    def test_a_row_is_the_same_alone_and_batched(self, fw):
        f, windows = fw
        cs, ds = zip(*windows)
        rows = gf.window_integrals(f, cs, ds)
        assert rows.shape == (len(windows),) + f.data.shape[1:]
        for (c, d), row in zip(windows, rows):
            assert _bits(row) == _bits(gf.integrate(f, c, d))
        if f.model == ls.INTERVAL:
            assert np.all(rows[:, 0] <= rows[:, 1])

    @given(windowed_grids(), st.lists(st.floats(1e-3, 1e3), min_size=12, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_weighted_pieces_are_rows_alone(self, fw, heights):
        f, windows = fw
        ends = sorted({f.a, f.b}.union(*windows))
        pieces = [(u, v, h) for u, v, h in zip(ends[::2], ends[1::2], heights)]
        w = ks.step_weight((f.a, f.b), pieces)
        alone = np.array([gf.integrate(f, u, v) for u, v, _ in pieces])
        # the same heights vector as integrate_weighted's (a strided column,
        # which BLAS sums in another order than a contiguous one)
        heights = np.array(w.pieces).T[2]
        assert _bits(ks.integrate_weighted(f, w)) == _bits(heights @ alone)

    @given(st.integers(0, 1), st.integers(2, 300), st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
           st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_mean_rows_are_rows_alone(self, k, n, seed, n_knots, fill):
        # fill = 1 makes the windows tile [a, b]
        f = _random_grid(k, n, seed)
        knots, _ = rec.optimal_knots(n_knots, f.a, f.b)
        h = fill * (f.b - f.a) / (2 * n_knots)
        info = rec.mean_info(f, knots, h)
        for t, row in zip(knots, info.means):
            assert _bits(row) == _bits(gf.integrate(f, t - h, t + h) * (1.0 / (2.0 * h)))

    @given(windowed_grids())
    @settings(max_examples=200, deadline=None)
    def test_compiled_weights_are_nonnegative_and_read_only(self, fw):
        f, windows = fw
        cs, ds = zip(*windows)
        groups = gf._window_weights(f.a, f.b, f.n_cells, cs, ds)
        assert gf._window_weights.cache_info().maxsize is not None
        assert sorted(np.concatenate([rows for rows, _, _ in groups]).tolist()) == list(range(len(windows)))
        for rows, index, weights in groups:
            assert index.shape == weights.shape == (len(rows), index.shape[1])
            assert np.all(np.diff(index, axis=1) == 1) and index.min() >= 0 and index.max() <= f.n_cells
            assert np.all(weights >= 0.0)
            for arr in (rows, index, weights):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_tiny_window_keeps_lo_below_hi(self):
        # a window 4.7e-198 wide in an 18-cell interval grid on [-1, 2]: the
        # float offsets of its ends into the cell round on the scale of the
        # step, and nonnegative weights round both columns alike
        f = _random_grid(1, 18, 1)
        w = ks.step_weight((-1.0, 2.0), [(-4.7e-198, 0.0, 1.0)])
        for row in (gf.integrate(f, -4.7e-198, 0.0), ks.integrate_weighted(f, w)):
            assert row[0] <= row[1]


class TestLift:
    def test_odd_function_integrates_to_zero(self):
        f = gf.real_grid(lambda t: t - 0.5, 0, 1, 256)
        lifted = gf.lift(f, ls.interval(1, 1))
        assert ls.norm(integral(lifted)) <= 1e-12

    def test_nonnegative_equals_pointwise_product(self):
        f = gf.real_grid(lambda t: t, 0, 1, 64)
        lifted = gf.lift(f, ls.interval(1, 1))
        for i in (0, 10, 64):
            assert ls.close(element(lifted.model, lifted.data[i]), ls.scale(f.data[i], ls.interval(1, 1)))

    def test_membership_preserved(self):
        rng = np.random.default_rng(2)
        centers = rng.uniform(0, 1, 5)
        f = gf.real_grid(lambda t: min(c + wsq(abs(t - c)) for c in centers), 0, 1, 512)
        assert gf.check_Homega(f, wsq).member
        lifted = gf.lift(f, ls.interval(1, 1))
        assert gf.check_Homega(lifted, wsq).member

    def test_integral_commutes_with_lift(self):
        f = gf.real_grid(lambda t: np.cos(3 * t), 0, 1, 2048)
        lifted = gf.lift(f, ls.interval(1, 1))
        r = integral(f).payload
        assert ls.close(integral(lifted), ls.interval(r, r), tol=1e-9)

    def test_negative_values_use_the_inverse(self):
        # r -> r x for r >= 0 and |r| x' for r < 0, with x' = [-1, -1]
        f = gf.real_grid(np.array([2.0, -3.0, 0.0]), 0, 1, 2)
        x = ls.interval(1, 1)
        lifted = gf.lift(f, x)
        assert lifted.model == x.model
        for i, r in enumerate((2.0, -3.0, 0.0)):
            assert ls.close(element(lifted.model, lifted.data[i]), ls.scale(r, x))
        assert ls.close(element(lifted.model, lifted.data[1]), ls.scale(3.0, ls.inverse(x)))

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_lift_distance_scaling(self, r, s):
        x = ls.interval(1, 1)
        lifted = gf.lift(gf.real_grid(np.array([r, s, 0.0]), 0, 1, 2), x)
        lhs = ls.dist(element(lifted.model, lifted.data[0]), element(lifted.model, lifted.data[1]))
        assert abs(lhs - abs(r - s) * ls.norm(x)) <= 1e-9

    def test_requires_invertible(self):
        f = gf.real_grid(lambda t: t, 0, 1, 32)
        with pytest.raises(NotInvertible):
            gf.lift(f, ls.interval(0, 1))


class TestDerivative:
    def test_growing_interval(self):
        f = interval_grid(lambda t: 0.0, lambda t: t, 0, 1, 128)
        d = gf.hukuhara_derivative(f)
        for i in (0, 64, 128):
            assert ls.close(element(d.model, d.data[i]), ls.interval(0, 1), tol=1e-9)

    def test_lifted_square_matches_chain_rule(self):
        n = 512
        f = gf.lift(gf.real_grid(lambda t: t * t, 0, 1, n), ls.interval(1, 1))
        d = gf.hukuhara_derivative(f)
        mid = element(d.model, d.data[n // 2])
        assert ls.dist(mid, ls.interval(1, 1)) <= 2 * f.step

    def test_constant_gives_zero(self):
        f = constant_grid(ls.interval(1, 2), 0, 1, 64)
        d = gf.hukuhara_derivative(f)
        assert all(ls.norm(element(d.model, d.data[i])) <= 1e-12 for i in range(d.n_cells + 1))

    def test_lift_derivative_consistency(self):
        n = 1024
        core = gf.real_grid(lambda t: np.sin(2 * t), 0, 1, n)
        lifted = gf.lift(core, ls.interval(1, 1))
        d = gf.hukuhara_derivative(lifted)
        expect = gf.lift(gf.real_grid(lambda t: 2 * np.cos(2 * t), 0, 1, n), ls.interval(1, 1))
        assert gf.sup_dist(d, expect) <= 10.0 / n

    def test_shrinking_widths_rejected(self):
        f = interval_grid(lambda t: 0.0, lambda t: 1 - t, 0, 1, 64)
        with pytest.raises(NoDifference):
            gf.hukuhara_derivative(f)


def _read_csv(text):
    return text.splitlines()[0], np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)


class TestSerialization:
    def test_csv_round_trip_real(self):
        f = gf.real_grid(lambda t: t * t, 0, 1, 32)
        header, rows = _read_csv(gf.to_csv(f))
        assert header == "t,v"
        assert np.allclose(rows[:, 0], f.nodes)
        assert np.allclose(rows[:, 1], f.data)


class TestHelpers:
    def test_sup_norm_matches_pointwise(self):
        f = interval_grid(lambda t: -1 - t, lambda t: t, 0, 1, 64)
        brute = max(ls.norm(element(f.model, f.data[i])) for i in range(f.n_cells + 1))
        assert gf.sup_norm(f) == pytest.approx(brute, abs=1e-15)

    def test_eps_tolerance_formula(self):
        assert gf.eps_tolerance(wid, 1.0, 4096) == pytest.approx(2 / 4096 + 1e-9, abs=1e-15)

    def test_omega_seminorm_of_cone(self):
        f = gf.real_grid(lambda t: wsq(abs(t - 0.4)), 0, 1, 512)
        s = gf.omega_seminorm(f, wsq)
        assert s <= 1 + 1e-9
        assert s >= 0.9


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
interval_value = st.tuples(finite, finite).map(lambda p: ls.interval(min(p), max(p)))


def _grid_of(values):
    """The interval grid function on [0, 1] whose node values are ``values``."""
    return gf.GridFunction(0.0, 1.0, ls.INTERVAL, np.array([v.payload for v in values]))


class TestIntervalArrays:
    """Interval payloads as (n+1, 2) arrays of (lo, hi) rows."""

    @given(st.integers(3, 6).flatmap(
        lambda m: st.tuples(*[st.lists(interval_value, min_size=m, max_size=m)] * 2)))
    @settings(max_examples=80, deadline=None)
    def test_nodewise_hausdorff_equals_dist(self, pair):
        xs, ys = pair
        f, g = _grid_of(xs), _grid_of(ys)
        assert f.data.shape == (len(xs), 2)
        want = [ls.dist(x, y) for x, y in zip(xs, ys)]
        assert gf.row_dist(ls.INTERVAL, f.data, g.data).tolist() == want
        assert gf.row_dist(ls.INTERVAL, g.data, f.data).tolist() == want
        assert gf.row_dist(ls.INTERVAL, f.data, f.data).tolist() == [0.0] * len(xs)
        assert gf.sup_dist(f, g) == max(want)
        assert gf._pair_dist(f, 1).tolist() == [ls.dist(x, y) for x, y in zip(xs, xs[1:])]
        assert [element(f.model, f.data[i]) for i in range(len(xs))] == xs
        assert gf.sup_norm(f) == max(ls.norm(x) for x in xs)


class TestGridModels:
    """Grid functions carry real and interval values only."""

    def test_other_models_and_layouts_rejected(self):
        with pytest.raises(ModelMismatch):
            constant_grid(ls.maxval(1), 0, 1, 32)
        with pytest.raises(ModelMismatch):
            constant_grid(ls.vector(1, 2), 0, 1, 32)
        with pytest.raises(ModelMismatch):
            constant_grid(ls.union([(0, 1), (2, 3)]), 0, 1, 32)
        with pytest.raises(ModelMismatch):
            gf.GridFunction(0, 1, ls.UNION, np.zeros((33, 2)))
        core = gf.real_grid(lambda t: t, 0, 1, 32)
        with pytest.raises(ModelMismatch):
            gf.lift(core, ls.vector(1, 0))
        with pytest.raises(ModelMismatch):
            gf.lift(core, ls.union([(1, 1)]))
        with pytest.raises(NonIsotropic):
            gf.lift(core, ls.maxval(0))
        # interval data is (n+1, 2) rows, never the (n+1, 1, 2) set layout
        for shape in ((33, 1, 2), (33,), (33, 3), (33, 2, 2)):
            with pytest.raises(ValueError):
                gf.GridFunction(0, 1, ls.INTERVAL, np.zeros(shape))
        iv = interval_grid(lambda t: -t, lambda t: t, 0, 1, 32)
        with pytest.raises(ModelMismatch):
            gf.to_csv(iv)
        with pytest.raises(ModelMismatch):
            gf.sup_dist(core, iv)

    def test_interval_grid_is_an_array_of_rows(self):
        f = interval_grid(lambda t: -t, lambda t: t, 0, 1, 16)
        assert f.data.shape == (17, 2)
        assert element(f.model, f.data[16]) == ls.interval(-1, 1)
        with pytest.raises(ValueError):
            interval_grid(np.ones(17), np.zeros(17), 0, 1, 16)


def _value_at_reference(f, t):
    """The scalar evaluation rule as a loop would write it: clip t to
    [a, b], then interpolate real data or round to the nearest node."""
    t = float(min(max(t, f.a), f.b))
    if f.model == ls.REAL:
        return ls.real(float(np.interp(t, f.nodes, f.data)))
    i = int(round((t - f.a) / f.step))
    return element(f.model, f.data[min(max(i, 0), f.n_cells)])


class TestValuesAt:
    """``values_at`` is the one evaluation rule; at one point it gives one row."""

    @staticmethod
    def grids(rng, a, b, n):
        lo = rng.standard_normal(n + 1)
        return (
            gf.real_grid(rng.standard_normal(n + 1), a, b, n),
            interval_grid(lo, lo + rng.uniform(0, 1, n + 1), a, b, n),
        )

    def check(self, f, ts):
        rows = gf.values_at(f, ts)
        assert rows.shape == ts.shape + f.data.shape[1:]
        for t, row in zip(ts.tolist(), rows):
            assert element(f.model, row) == value_at(f, t) == _value_at_reference(f, t)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_value_at(self, seed):
        rng = np.random.default_rng(seed)
        a, b = -0.7, 1.9
        inside = rng.uniform(a, b, 40)
        # far-off points would overflow an unclipped integer index
        far = [-np.inf, -1e300, 1e300, np.inf]
        outside = np.concatenate((rng.uniform(a - 3, a, 5), rng.uniform(b, b + 3, 5), far))
        for f in self.grids(rng, a, b, int(rng.integers(2, 64))):
            self.check(f, np.concatenate((inside, outside, f.nodes, [a, b])))

    def test_half_step_ties_round_to_the_even_node(self):
        n = 16
        ts = (np.arange(n) + 0.5) / n  # exact half steps of the grid on [0, 1]
        f = interval_grid(np.arange(n + 1.0), np.arange(n + 1.0) + 1, 0, 1, n)  # row i is [i, i + 1]
        assert gf.values_at(f, ts)[:, 0].tolist() == [2 * ((k + 1) // 2) for k in range(n)]
        for g in (f, *self.grids(np.random.default_rng(5), 0.0, 1.0, n)):
            self.check(g, ts)


def _bits(x):
    """The IEEE bit patterns of a row or of an element payload: equal bits
    tell 0.0 from -0.0, which float comparison does not."""
    return [v.hex() for v in np.ravel(np.asarray(x, dtype=float)).tolist()]


# entries around 0 (both signed zeros, subnormals) and of ordinary size
entry = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, ls.EQ_TOL, -ls.EQ_TOL]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
# interval widths at, just inside and just beyond EQ_TOL
width = st.one_of(
    st.sampled_from([0.0, -0.0, ls.EQ_TOL, np.nextafter(ls.EQ_TOL, 0.0), np.nextafter(ls.EQ_TOL, 1.0),
                     2 * ls.EQ_TOL, 0.5 * ls.EQ_TOL]),
    st.floats(0.0, 10.0, allow_nan=False),
)


# window half-widths of a divided difference: one-sided windows included
half_width = st.one_of(st.just(0.0), st.floats(1e-6, 0.5))


@st.composite
def row_pairs(draw):
    """(model, x, y): two real rows, or two interval rows whose widths differ
    by a draw of ``width``, either way round, so that Hukuhara differences
    of y from x exist, shrink within EQ_TOL, or shrink beyond it."""
    if draw(st.booleans()):
        return ls.REAL, np.float64(draw(entry)), np.float64(draw(entry))
    lo_x, lo_y, w = draw(entry), draw(entry), draw(width)
    w_x, w_y = (w, 0.0) if draw(st.booleans()) else (0.0, w)
    w_y += draw(width)
    return ls.INTERVAL, np.array([lo_x, lo_x + w_x]), np.array([lo_y, lo_y + w_y])


class TestRowsMatchLspace:
    """The row arithmetic of grid functionals is the ``lspace`` arithmetic
    of the same values, bit for bit, and raises where it raises."""

    @given(row_pairs())
    @settings(max_examples=400, deadline=None)
    def test_row_dist(self, pair):
        model, x, y = pair
        got = gf.row_dist(model, x, y)
        assert _bits(got) == _bits(ls.dist(element(model, x), element(model, y)))
        assert _bits(gf.row_norm(x)) == _bits(ls.norm(element(model, x)))

    @given(row_pairs(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    # both ends of the quotient underflow to zeros of opposite sign, and
    # lspace.scale keeps the sign of the lower end for both
    @example((ls.INTERVAL, np.array([-5e-324, 5e-324]), np.array([0.0, 0.0])), 2.0, 2.0)
    @settings(max_examples=400, deadline=None)
    def test_hukuhara_quotient(self, pair, g1, g2):
        model, upper, lower = pair
        scale = 1.0 / (g1 + g2)
        try:
            want = ls.scale(scale, ls.hukuhara_diff(element(model, upper), element(model, lower)))
        except NoDifference:
            with pytest.raises(NoDifference):
                gf.hukuhara_quotient(model, upper, lower, scale)
            return
        assert _bits(gf.hukuhara_quotient(model, upper, lower, scale)) == _bits(want.payload)

    def test_quotient_of_a_row_stack_is_the_quotient_of_each_row(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0 - 0.5 * ls.EQ_TOL], [2.0, 3.5], [-5e-324, 4.0]])
        scale = np.array([0.5, 3.0, 1e-3])
        got = gf.hukuhara_quotient(ls.INTERVAL, rows[1:], rows[:-1], scale)
        for k in range(3):
            want = gf.hukuhara_quotient(ls.INTERVAL, rows[k + 1], rows[k], scale[k])
            assert _bits(got[k]) == _bits(want)

    @given(st.integers(0, 1), st.integers(2, 40), st.floats(0.0, 1.0), half_width, half_width,
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_divided_difference(self, k, n, t, g1, g2, seed):
        rng = np.random.default_rng(seed)
        lo = rng.standard_normal(n + 1)
        # nondecreasing widths, so that every forward difference exists
        f = (gf.real_grid(lo, 0, 1, n), interval_grid(lo, lo + np.cumsum(rng.uniform(0, 1, n + 1)), 0, 1, n))[k]
        if g1 + g2 <= 0.0:
            return
        upper, lower = value_at(f, t + g2), value_at(f, t - g1)
        want = ls.scale(1.0 / (g1 + g2), ls.hukuhara_diff(upper, lower))
        assert _bits(la.divided_difference(f, t, g1, g2)) == _bits(want.payload)

    @given(st.integers(0, 1), st.integers(2, 40), st.floats(-1.0, 2.0), st.floats(-1.0, 2.0),
           st.floats(1e-3, 1e3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_integrate_weighted(self, k, n, u, v, height, seed):
        # one piece: the weighted integral is height times the integral (of
        # random data, never zero: the dot product turns a -0.0 into 0.0)
        rng = np.random.default_rng(seed)
        lo = rng.standard_normal(n + 1)
        f = (gf.real_grid(lo, -1, 2, n), interval_grid(lo, lo + rng.uniform(0, 1, n + 1), -1, 2, n))[k]
        u, v = min(u, v), max(u, v)
        if v <= u:
            return
        row = gf.integrate(f, u, v)
        w = ks.step_weight((-1.0, 2.0), [(u, v, height)])
        want = ls.scale(height, element(f.model, row))
        assert _bits(ks.integrate_weighted(f, w)) == _bits(want.payload)
