import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr import gridfn as gf
from ksr import lspace as ls
from ksr import modulus as mo
from ksr.errors import ModelMismatch, NoDifference, NonIsotropic, NotInvertible

from grid_fixtures import check_Homega_loop, constant_grid, interval_grid

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
        d = gf.interval_array(lo, hi)
        out.append(gf.GridFunction(0.0, 1.0, ls.UNION, np.concatenate([d, d + 3.0], axis=1)))
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
        assert ls.close(gf.integrate(f), ls.interval(0, 2))

    def test_union_convexified_first(self):
        f = constant_grid(ls.union([(0, 0), (1, 1)]), 0, 1, 64)
        assert ls.close(gf.integrate(f), ls.interval(0, 1))

    def test_trapezoid_exact_for_linear(self):
        f = gf.real_grid(lambda t: t, 0, 1, 64)
        assert gf.integrate(f).payload == pytest.approx(0.5, abs=1e-12)

    def test_additivity_over_disjoint_subintervals(self):
        f = interval_grid(lambda t: np.sin(t), lambda t: np.sin(t) + 1 + t, 0, 2, 512)
        whole = gf.integrate(f)
        parts = ls.add(gf.integrate(f, 0, 0.7321), gf.integrate(f, 0.7321, 2))
        assert ls.close(whole, parts, tol=1e-10)

    def test_result_is_convexify_fixed(self):
        f = constant_grid(ls.union([(0, 1), (2, 3)]), 0, 1, 32)
        out = gf.integrate(f)
        assert ls.close(out, ls.convexify(out))

    def test_substitution_affine(self):
        # reparametrize [0,1] -> [1,3] by s = 2t + 1 and compare
        f = gf.real_grid(lambda s: s ** 2, 1, 3, 2048)
        g = gf.real_grid(lambda t: ((2 * t + 1) ** 2) * 2.0, 0, 1, 2048)
        assert gf.integrate(f).payload == pytest.approx(gf.integrate(g).payload, abs=1e-9)

    def test_metric_bound_between_integrals(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            va = np.cumsum(rng.uniform(-1, 1, 129)) * 0.02
            vb = np.cumsum(rng.uniform(-1, 1, 129)) * 0.02
            fa = gf.real_grid(va, 0, 1, 128)
            fb = gf.real_grid(vb, 0, 1, 128)
            lhs = ls.dist(gf.integrate(fa), gf.integrate(fb))
            rhs = gf.integrate(gf.real_grid(np.abs(va - vb), 0, 1, 128)).payload
            assert lhs <= rhs + 1e-10

    def test_range_outside_domain(self):
        f = gf.real_grid(lambda t: t, 0, 1, 32)
        with pytest.raises(ValueError):
            gf.integrate(f, -0.5, 0.5)


class TestLift:
    def test_odd_function_integrates_to_zero(self):
        f = gf.real_grid(lambda t: t - 0.5, 0, 1, 256)
        lifted = gf.lift(f, ls.union([(1, 1)]))
        assert ls.norm(gf.integrate(lifted)) <= 1e-12

    def test_nonnegative_equals_pointwise_product(self):
        f = gf.real_grid(lambda t: t, 0, 1, 64)
        lifted = gf.lift(f, ls.interval(1, 1))
        for i in (0, 10, 64):
            assert ls.close(lifted.value(i), ls.scale(f.data[i], ls.interval(1, 1)))

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
        r = gf.integrate(f).payload
        assert ls.close(gf.integrate(lifted), ls.interval(r, r), tol=1e-9)

    def test_negative_values_use_the_inverse(self):
        # r -> r x for r >= 0 and |r| x' for r < 0, with x' = [-1, -1]
        f = gf.real_grid(np.array([2.0, -3.0, 0.0]), 0, 1, 2)
        for x in (ls.interval(1, 1), ls.union([(1, 1)])):
            lifted = gf.lift(f, x)
            assert lifted.model == x.model
            for i, r in enumerate((2.0, -3.0, 0.0)):
                assert ls.close(lifted.value(i), ls.scale(r, x))
            assert ls.close(lifted.value(1), ls.scale(3.0, ls.inverse(x)))

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_lift_distance_scaling(self, r, s):
        x = ls.interval(1, 1)
        lifted = gf.lift(gf.real_grid(np.array([r, s, 0.0]), 0, 1, 2), x)
        lhs = ls.dist(lifted.value(0), lifted.value(1))
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
            assert ls.close(d.value(i), ls.interval(0, 1), tol=1e-9)

    def test_lifted_square_matches_chain_rule(self):
        n = 512
        f = gf.lift(gf.real_grid(lambda t: t * t, 0, 1, n), ls.interval(1, 1))
        d = gf.hukuhara_derivative(f)
        mid = d.value(n // 2)
        assert ls.dist(mid, ls.interval(1, 1)) <= 2 * f.step

    def test_constant_gives_zero(self):
        f = constant_grid(ls.interval(1, 2), 0, 1, 64)
        d = gf.hukuhara_derivative(f)
        assert all(ls.norm(v) <= 1e-12 for v in d.values())

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

    def test_csv_round_trip_interval(self):
        f = interval_grid(lambda t: -t, lambda t: t, 0, 1, 32)
        header, rows = _read_csv(gf.to_csv(f))
        assert header == "t,lo,hi"
        assert np.allclose(rows[:, 0], f.nodes)
        assert np.allclose(rows[:, 1:], f.data[:, 0])

    def test_csv_rejects_union(self):
        f = constant_grid(ls.union([(0, 1), (2, 3)]), 0, 1, 32)
        with pytest.raises(ModelMismatch):
            gf.to_csv(f)


class TestHelpers:
    def test_sup_norm_matches_pointwise(self):
        f = interval_grid(lambda t: -1 - t, lambda t: t, 0, 1, 64)
        brute = max(ls.norm(v) for v in f.values())
        assert gf.sup_norm(f) == pytest.approx(brute, abs=1e-15)

    def test_eps_tolerance_formula(self):
        assert gf.eps_tolerance(wid, 1.0, 4096) == pytest.approx(2 / 4096 + 1e-9, abs=1e-15)

    def test_omega_seminorm_of_cone(self):
        f = gf.real_grid(lambda t: wsq(abs(t - 0.4)), 0, 1, 512)
        s = gf.omega_seminorm(f, wsq)
        assert s <= 1 + 1e-9
        assert s >= 0.9


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
# a union value: 1-3 (possibly overlapping) components, merged by ls.union
union_value = st.lists(st.tuples(finite, finite), min_size=1, max_size=3).map(
    lambda comps: ls.union([(min(p), max(p)) for p in comps])
)


interval_value = st.tuples(finite, finite).map(lambda p: ls.interval(min(p), max(p)))


class TestUnionArrays:
    """Set payloads as (n+1, k, 2) arrays: k = 1 for intervals, unions
    padded when counts differ."""

    @given(st.integers(3, 6).flatmap(
        lambda m: st.tuples(*[st.one_of(st.lists(union_value, min_size=m, max_size=m),
                                        st.lists(interval_value, min_size=m, max_size=m))] * 2)))
    @settings(max_examples=80, deadline=None)
    def test_nodewise_hausdorff_equals_dist(self, pair):
        xs, ys = pair
        f, g = gf.from_values(xs, 0, 1), gf.from_values(ys, 0, 1)
        want = [ls.dist(x, y) for x, y in zip(xs, ys)]
        assert gf._set_dist(f.data, g.data).tolist() == want
        assert gf._set_dist(g.data, f.data).tolist() == want
        # gap midpoints outside the other set are no candidates: a union
        # with gaps is at distance 0 from itself
        assert gf._set_dist(f.data, f.data).tolist() == [0.0] * len(xs)
        assert gf.sup_dist(f, g) == max(want)
        assert gf._pair_dist(f, 1).tolist() == [ls.dist(x, y) for x, y in zip(xs, xs[1:])]
        assert [f.value(i) for i in range(len(xs))] == xs
        assert gf.sup_norm(f) == max(ls.norm(x) for x in xs)
        if f.model == ls.INTERVAL:
            # the k = 1 closed form against a padded union, and against
            # the same sets stored as one-component unions
            assert f.data.shape == (len(xs), 1, 2)
            as_unions = [ls.union([x.payload]) for x in xs]
            u = gf.from_values(as_unions, 0, 1)
            assert gf._set_dist(f.data, u.data).tolist() == [0.0] * len(xs)
            assert gf._set_dist(f.data, g.data).tolist() == [ls.dist(x, y) for x, y in zip(as_unions, ys)]

    def test_padding_repeats_last_component(self):
        vals = [ls.union([(0, 1)]), ls.union([(0, 1), (3, 4)]), ls.union([(5, 6)])]
        f = gf.from_values(vals, 0, 1)
        assert f.data.shape == (3, 2, 2)
        assert f.data[0].tolist() == [[0, 1], [0, 1]]
        assert f.data[2].tolist() == [[5, 6], [5, 6]]
        assert f.values() == vals

    def test_interval_against_union(self):
        iv = interval_grid(lambda t: -t, lambda t: 1 + t, 0, 1, 16)
        un = constant_grid(ls.union([(0, 0.5), (2, 3)]), 0, 1, 16)
        want = max(ls.dist(x, y) for x, y in zip(iv.values(), un.values()))
        assert gf.sup_dist(iv, un) == want == gf.sup_dist(un, iv)
        with pytest.raises(ModelMismatch):
            gf.sup_dist(gf.real_grid(np.zeros(17), 0, 1, 16), un)

    def test_union_payload_must_be_an_array_of_pairs(self):
        with pytest.raises(ValueError):
            gf.GridFunction(0, 1, ls.UNION, np.zeros((5, 2)))
        with pytest.raises(ValueError):
            gf.GridFunction(0, 1, ls.UNION, np.array([[[0.0, 1.0]], [[2.0, 1.0]], [[0.0, 0.0]]]))


class TestGridModels:
    """Grid functions carry real, interval and union values only."""

    def test_other_models_and_layouts_rejected(self):
        with pytest.raises(ModelMismatch):
            constant_grid(ls.maxval(1), 0, 1, 32)
        with pytest.raises(ModelMismatch):
            constant_grid(ls.vector(1, 2), 0, 1, 32)
        core = gf.real_grid(lambda t: t, 0, 1, 32)
        with pytest.raises(ModelMismatch):
            gf.lift(core, ls.vector(1, 0))
        with pytest.raises(NonIsotropic):
            gf.lift(core, ls.maxval(0))
        with pytest.raises(ValueError):
            gf.GridFunction(0, 1, ls.INTERVAL, np.zeros((33, 2)))
        with pytest.raises(ValueError):
            gf.GridFunction(0, 1, ls.INTERVAL, np.zeros((33, 2, 2)))

    def test_interval_grid_is_a_one_component_set_array(self):
        f = interval_grid(lambda t: -t, lambda t: t, 0, 1, 16)
        assert f.data.shape == (17, 1, 2)
        assert f.value(16) == ls.interval(-1, 1)
        with pytest.raises(ValueError):
            interval_grid(np.ones(17), np.zeros(17), 0, 1, 16)
