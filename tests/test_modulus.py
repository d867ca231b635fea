import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr import cli
from ksr import modulus as mo
from ksr.errors import InvalidModulus


def _cli(*argv):
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_identity_modulus(self):
        assert mo.power(1, 1)(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_square_root(self):
        assert mo.power(1, 0.5)(0.25) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("w", [mo.power(1, 1), mo.power(2, 0.5), mo.minlin(1, 0.5),
                                   mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)])])
    def test_zero_at_zero(self, w):
        assert w(0.0) == 0.0

    @pytest.mark.parametrize("w", [mo.power(1, 0.5), mo.minlin(1, 0.5),
                                   mo.plconcave([(0, 0), (1, 1)])])
    def test_negative_argument_rejected_by_eval(self, w):
        with pytest.raises(ValueError):
            w(-0.3)
        assert w(-1e-14) == 0.0  # float dust is clamped, not rejected


FAMILIES = [mo.power(1, 1), mo.power(1, 0.5), mo.power(2, 0.7), mo.minlin(1, 0.3),
            mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)])]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestScalarPath:
    """A Python or NumPy scalar argument skips the array validation of
    ``_nonneg``; the result must equal the 0-d and 1-d array results bit
    for bit (signed zeros included)."""

    @pytest.mark.parametrize("w", FAMILIES)
    @pytest.mark.parametrize("t", [-0.0, 0.0, -1e-13, 1e-300, 0.3, 0.5, 1.0, 1.7, 2, 0, True,
                                   np.float64(0.45), np.float64(-0.0)])
    def test_scalar_equals_array(self, w, t):
        got = w(t)
        assert type(got) is float
        assert _bits(got) == _bits(w(np.asarray(t, dtype=float)))
        assert _bits(got) == _bits(w(np.array([t], dtype=float))[0])

    @pytest.mark.parametrize("w", FAMILIES)
    def test_clamped_zeros_are_positive(self, w):
        for t in (-0.0, -1e-13, np.float64(-1e-13)):
            assert _bits(w(t)) == _bits(0.0)

    @pytest.mark.parametrize("w", FAMILIES)
    def test_below_dust_raises(self, w):
        for t in (-1e-11, np.float64(-1e-11), -1):
            with pytest.raises(ValueError):
                w(t)

    @pytest.mark.parametrize("w", FAMILIES)
    def test_random_draws(self, w):
        # Python's ** differs from np.power in the last bit on many of these
        ts = np.random.default_rng(5).uniform(0.0, 2.0, 2000)
        scalar = np.array([w(float(t)) for t in ts])
        assert scalar.tobytes() == np.asarray(w(ts), dtype=float).tobytes()


# the general pow, the alpha = 1 and alpha = 1/2 paths, and the other families
OUT_FAMILIES = FAMILIES + [mo.power(3, 0.25), mo.minlin(2, 0.3)]


def _kernel_inputs():
    """Arrays that exercise every branch of ``_nonneg``: all positive (no
    clamp), -0.0 and zeros, dust below zero, nan, empty and 0-d."""
    pos = np.random.default_rng(3).uniform(1e-9, 3.0, 64)
    mixed = pos.copy()
    mixed[[0, 5, 9, 13, 20]] = [-0.0, 0.0, -1e-13, np.nan, -5e-13]
    return [pos, mixed, np.array([np.nan, 0.5]), np.array([-0.0]), np.empty(0),
            np.empty((0, 3)), np.array(0.7), pos.reshape(8, 8)]


class TestOutKernel:
    """``w(t, out=buf)`` writes into ``buf`` and returns it, with the values
    of ``w(t)`` bit for bit; ``w(t)`` returns a fresh array."""

    @pytest.mark.parametrize("w", OUT_FAMILIES)
    def test_out_equals_fresh_result(self, w):
        for t in _kernel_inputs():
            want = np.asarray(w(t), dtype=float)
            buf = np.full(t.shape, 9.0)
            assert w(t, out=buf) is buf
            assert buf.tobytes() == want.tobytes()
            # in place, as the sampler evaluates its cones
            inplace = t.copy()
            assert w(inplace, out=inplace) is inplace
            assert inplace.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w", OUT_FAMILIES)
    def test_fresh_result_never_returns_its_input(self, w):
        for t in _kernel_inputs():
            if t.ndim == 0:
                continue
            got = w(t)
            assert got is not t and not np.shares_memory(got, t)

    @pytest.mark.parametrize("w", OUT_FAMILIES)
    def test_below_dust_raises_with_out(self, w):
        for bad in ([0.5, -1e-11], [np.nan, -1.0], [-1.0, np.nan], [-2.0]):
            t = np.array(bad)
            with pytest.raises(ValueError, match="modulus arguments must be >= 0"):
                w(t)
            with pytest.raises(ValueError, match="modulus arguments must be >= 0"):
                w(t, out=np.empty_like(t))

    def test_positive_array_passes_unchanged(self):
        t = np.array([1e-300, 0.5, 2.0])
        assert mo._nonneg(t) is t
        clamped = mo._nonneg(np.array([-0.0, -1e-13, 0.5]))
        assert clamped.tobytes() == np.array([0.0, 0.0, 0.5]).tobytes()


def _wide_draws(seed):
    """Nonnegative floats over the whole exponent range: 0, subnormals,
    the least normal, random magnitudes 1e-320..1e308, 1e300 and the largest float."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-320.0, 307.0, 200_000) * rng.uniform(1.0, 9.9, 200_000)
    edges = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.25, 1.0, 2.0, 1e300,
             np.finfo(float).max]
    return np.concatenate((edges, x))


class TestPowerShortcuts:
    """``PowerModulus`` evaluates t^1 as t and t^(1/2) by ``np.sqrt``; the
    values equal ``np.power``'s, which the class used for every alpha, so
    that no sample or bound moves.  sqrt is correctly rounded and pow is
    not specified to be: if a C library breaks either identity, these
    tests fail, not a pinned digest."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sqrt_is_power_one_half(self, seed):
        x = _wide_draws(seed)
        assert np.sqrt(x).tobytes() == np.power(x, 0.5).tobytes()
        assert all(_bits(np.sqrt(v)) == _bits(np.power(v, 0.5)) for v in x[:2000])

    @pytest.mark.parametrize("seed", range(3))
    def test_power_one_is_identity(self, seed):
        x = _wide_draws(seed)
        assert np.power(x, 1.0).tobytes() == x.tobytes()
        assert all(_bits(np.power(v, 1.0)) == _bits(v) for v in x[:2000])

    @pytest.mark.parametrize("K,alpha", [(1.0, 1.0), (2.5, 1.0), (1.0, 0.5), (1e4, 0.5)])
    def test_shortcut_equals_general_pow(self, K, alpha):
        x = _wide_draws(7)[:5000]
        w = mo.PowerModulus(K, alpha)
        with np.errstate(over="ignore"):
            assert w(x).tobytes() == (K * np.power(x, alpha)).tobytes()


class TestPrimitive:
    def test_linear(self):
        assert mo.power(1, 1).primitive(0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_sqrt(self):
        assert mo.power(1, 0.5).primitive(0, 1) == pytest.approx(2 / 3, abs=1e-15)

    @pytest.mark.parametrize("w", [mo.power(1, 1), mo.power(1, 0.5), mo.minlin(1, 0.5)])
    def test_empty_interval(self, w):
        assert w.primitive(0.7, 0.7) == 0.0

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            mo.power(1, 1).primitive(1.0, 0.5)

    @pytest.mark.parametrize("w", [mo.power(1, 0.5), mo.minlin(1, 0.4),
                                   mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)])])
    def test_float_dust_below_zero_is_clamped(self, w):
        # (-5e-17) ** 1.5 would be complex
        assert w.primitive(-5.551115123125783e-17, 0.8) == w.primitive(0.0, 0.8)
        assert w.primitive(-1e-12, -1e-13) == 0.0
        with pytest.raises(ValueError):
            w.primitive(-1e-9, 0.8)

    @pytest.mark.parametrize("w", [mo.power(1.3, 0.6), mo.minlin(2, 0.7),
                                   mo.plconcave([(0, 0), (0.3, 0.45), (1.1, 0.8)])])
    def test_matches_quadrature(self, w):
        ts = np.linspace(0.1, 1.7, 4001)
        quad = np.trapezoid(np.asarray(w(ts)), ts)
        assert w.primitive(0.1, 1.7) == pytest.approx(quad, rel=1e-6)

    @pytest.mark.parametrize("w", [mo.power(1, 0.5), mo.minlin(1, 0.4),
                                   mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)])])
    def test_primitive_is_convex_in_upper_limit(self, w):
        ts = np.linspace(0, 2, 101)
        vals = np.array([w.primitive(0, float(t)) for t in ts])
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-10)


def _primitive_reference(w, alpha, beta):
    """The primitive in Python floats, family by family: Python's ** for
    powers and squares, and a walk over the plconcave knots.  Kept as the
    bit-for-bit reference of the array primitive."""
    if alpha < -1e-12 or beta < alpha:
        raise ValueError("reversed or negative range")
    alpha, beta = max(alpha, 0.0), max(beta, 0.0)
    if isinstance(w, mo.PowerModulus):
        p = w.alpha + 1.0
        return w.K * (beta ** p - alpha ** p) / p
    if isinstance(w, mo.MinLinearConstant):
        def antider(t):
            if t <= w.knee:
                return 0.5 * w.K * t * t
            return 0.5 * w.K * w.knee ** 2 + w.C * (t - w.knee)
    else:
        def antider(t):
            acc = 0.0
            pts = w.points
            for (t1, v1), (t2, v2) in zip(pts, pts[1:]):
                if t <= t1:
                    return acc
                hi = min(t, t2)
                s = (v2 - v1) / (t2 - t1)
                acc += v1 * (hi - t1) + 0.5 * s * (hi - t1) ** 2
            t_last, v_last = pts[-1]
            if t > t_last:
                s = (pts[-1][1] - pts[-2][1]) / (pts[-1][0] - pts[-2][0])
                acc += v_last * (t - t_last) + 0.5 * s * (t - t_last) ** 2
            return acc
    return antider(beta) - antider(alpha)


PRIMITIVE_FAMILIES = {
    "power(1,0.5)": mo.power(1, 0.5), "power(1.3,0.7)": mo.power(1.3, 0.7),
    # alpha == 1: the exponent 2, where Python's ** and x * x can differ
    "power(2,1)": mo.power(2, 1), "minlin(1,0.4)": mo.minlin(1, 0.4),
    "plconcave": mo.plconcave([(0, 0), (0.1, 0.3), (0.4, 0.5), (1.3, 0.8)]),
}


class TestArrayPrimitive:
    """``primitive`` takes arrays elementwise, and every element equals the
    scalar primitive and the Python-float reference bit for bit."""

    @staticmethod
    def ranges(seed):
        # bounds past the last plconcave knot (1.3) and past the minlin knee
        # (0.4), empty ranges, zero and dust below it
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.0, 2.0, 400)
        beta = alpha + rng.uniform(0.0, 2.0, 400)
        alpha[:5] = [0.0, -1e-13, 0.4, 1.3, 0.7]
        beta[:5] = [0.0, 0.4, 0.4, 2.5, 0.7]
        return alpha, beta

    @pytest.mark.parametrize("w", PRIMITIVE_FAMILIES.values(), ids=PRIMITIVE_FAMILIES.keys())
    @pytest.mark.parametrize("seed", range(3))
    def test_array_equals_scalar_and_reference(self, w, seed):
        alpha, beta = self.ranges(seed)
        got = w.primitive(alpha, beta)
        assert got.shape == alpha.shape
        scalar = [w.primitive(float(a), float(b)) for a, b in zip(alpha, beta)]
        assert all(type(x) is float for x in scalar)
        assert got.tobytes() == np.array(scalar).tobytes()
        want = [_primitive_reference(w, float(a), float(b)) for a, b in zip(alpha, beta)]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("w", PRIMITIVE_FAMILIES.values(), ids=PRIMITIVE_FAMILIES.keys())
    def test_broadcasts_a_scalar_bound(self, w):
        ts = np.linspace(0.0, 3.0, 31)
        assert w.primitive(0.0, ts).tobytes() == np.array([w.primitive(0.0, float(t)) for t in ts]).tobytes()
        assert w.primitive(ts, 3.0).tobytes() == np.array([w.primitive(float(t), 3.0) for t in ts]).tobytes()

    @pytest.mark.parametrize("w", PRIMITIVE_FAMILIES.values(), ids=PRIMITIVE_FAMILIES.keys())
    def test_bad_pair_inside_an_array_raises(self, w):
        alpha = np.array([0.0, 0.2, 0.5, 0.1])
        beta = np.array([0.3, 0.4, 0.6, 0.9])
        w.primitive(alpha, beta)
        reversed_pair = beta.copy()
        reversed_pair[2] = 0.45
        with pytest.raises(ValueError, match=r"\(0\.5, 0\.45\)"):
            w.primitive(alpha, reversed_pair)
        negative = alpha.copy()
        negative[1] = -1e-9
        with pytest.raises(ValueError, match="alpha <= beta"):
            w.primitive(negative, beta)

    def test_overflow_raises(self):
        # of the power, on both paths, and of the product with K
        with pytest.raises(OverflowError, match=r"the integral of the modulus over \[0\.0, 1e\+200\] overflows"):
            mo.power(1, 1).primitive(0.0, 1e200)
        with pytest.raises(OverflowError, match=r"over \[0\.0, 1e\+200\] overflows"):
            mo.power(1, 1).primitive(np.zeros(2), np.array([1.0, 1e200]))
        for bounds in ((0.0, 4.0), (np.zeros(2), np.array([1.0, 4.0]))):
            with pytest.raises(OverflowError, match=r"over \[0\.0, 4\.0\] overflows"):
                mo.power(1.7e308, 1).primitive(*bounds)


def _plconcave_uncached(w, t, out=None):
    """``PiecewiseLinearConcave.__call__`` with the knot arrays and the last
    slope rebuilt from ``points`` on every call.  Kept as the reference of
    the cached arrays."""
    ts = np.array([p[0] for p in w.points])
    vs = np.array([p[1] for p in w.points])
    t = mo._nonneg(t)
    pts = w.points
    slopes = tuple((v2 - v1) / (t2 - t1) for (t1, v1), (t2, v2) in zip(pts, pts[1:]))
    last_slope = slopes[-1] if len(pts) > 1 else 0.0
    r = np.where(t <= ts[-1], np.interp(t, ts, vs), vs[-1] + last_slope * (t - ts[-1]))
    if out is None:
        return float(r) if r.ndim == 0 else r
    out[...] = r
    return out


PLCONCAVE = {
    "three-knots": mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)]),
    "two-knots": mo.plconcave([(0, 0), (0.3, 0.7)]),
    "dyadic": mo.parse_modulus("plconcave:0,0;0.25,0.75;0.625,1.5;1.125,1.875;1.5,2.0"),
    "flat-tail": mo.plconcave([(0, 0), (0.2, 0.3), (0.7, 0.3)]),
}


class TestPlconcaveCache:
    """The knot arrays and slopes are built once per instance; every output
    equals the rebuilt expression bit for bit."""

    @staticmethod
    def points(w, seed):
        # inside, at every knot, past the last knot (far too), dust below 0
        rng = np.random.default_rng(seed)
        last = w.points[-1][0]
        return np.concatenate(([0.0, -1e-14, last, 2.0 * last, 1e6 * last], [t for t, _ in w.points],
                               rng.uniform(0.0, 3.0 * last, 200)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("w", PLCONCAVE.values(), ids=PLCONCAVE.keys())
    def test_matches_rebuilt_arrays(self, w, seed):
        ts = self.points(w, seed)
        for _ in range(2):  # the first call fills the cache, the second reads it
            assert w(ts).tobytes() == _plconcave_uncached(w, ts).tobytes()
            for t in ts.tolist():
                got = w(t)
                assert type(got) is float and _bits(got) == _bits(_plconcave_uncached(w, t))
            out = np.full(ts.shape, np.nan)
            assert w(ts, out=out) is out
            assert out.tobytes() == _plconcave_uncached(w, ts, out=np.empty_like(ts)).tobytes()
            grid = ts[:200].reshape(10, -1)
            assert w(grid).tobytes() == _plconcave_uncached(w, grid).tobytes()

    @pytest.mark.parametrize("w", PLCONCAVE.values(), ids=PLCONCAVE.keys())
    def test_cache_is_read_only_and_not_shared(self, w):
        ts, vs, _ = w._knots
        assert not ts.flags.writeable and not vs.flags.writeable
        assert w._knots is w._knots and w._slopes is w._slopes
        r = w(ts)
        assert not np.shares_memory(r, ts) and not np.shares_memory(r, vs)
        # equal instances still compare and hash by their points alone
        twin = mo.plconcave(w.points)
        assert twin == w and hash(twin) == hash(w)


class TestValidation:
    def test_rejects_square_with_witness(self):
        with pytest.raises(InvalidModulus, match="subadditive"):
            mo.power(1, 2.0)
        report = mo.validate(mo.PowerModulus(1, 2.0))
        assert not report.ok and report.witness is not None
        s, t = report.witness
        assert (s + t) ** 2 > s ** 2 + t ** 2 + 1e-10

    def test_rejects_nonconcave_polyline(self):
        with pytest.raises(InvalidModulus):
            mo.plconcave([(0, 0), (0.5, 0.1), (1, 0.9)])  # increasing slopes

    def test_rejects_decreasing_polyline(self):
        with pytest.raises(InvalidModulus):
            mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.2)])

    @pytest.mark.parametrize("points", [[], [(0, 0)], [(0.5, 0.4)]])
    def test_rejects_fewer_than_two_knots(self, points):
        with pytest.raises(InvalidModulus, match="two knots"):
            mo.plconcave(points)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(InvalidModulus):
            mo.power(-1, 0.5)
        with pytest.raises(InvalidModulus):
            mo.minlin(1, -0.5)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidModulus):
                mo.power(bad, 1)
            with pytest.raises(InvalidModulus):
                mo.power(1, bad)
            with pytest.raises(InvalidModulus):
                mo.minlin(bad, 0.5)
            with pytest.raises(InvalidModulus):
                mo.minlin(1, bad)
            with pytest.raises(InvalidModulus):
                mo.plconcave([(0, 0), (0.5, bad), (1, 0.6)])
            with pytest.raises(InvalidModulus):
                mo.plconcave([(0, 0), (bad, 0.4)])

    @pytest.mark.parametrize("K", [1e12, 1e300])
    def test_accepts_large_linear_moduli(self, K):
        assert mo.validate(mo.PowerModulus(K, 1.0)).ok
        assert mo.power(K, 1).K == K

    # 1 + 2**-52 passed the grid, whose slack exceeded 2^alpha - 2
    @pytest.mark.parametrize("alpha", [1.01, float(np.nextafter(1.0, 2.0))])
    @pytest.mark.parametrize("K", [1.0, 1e12, 1e308])
    def test_rejects_superlinear_at_any_scale(self, K, alpha):
        report = mo.validate(mo.PowerModulus(K, alpha))
        assert (report.ok, report.reason, report.witness) == (False, "not subadditive", (1.0, 1.0))

    def test_accepts_values_past_the_float_range(self):
        # K t^1 overflows for t >= 2 and C / K = 1e310 does too, yet both are
        # moduli; the commands on [0, 1] answer, or name their overflow
        assert mo.validate(mo.parse_modulus("power:K=1.7e308,alpha=1")).ok
        assert mo.validate(mo.parse_modulus("minlin:K=1e-310,C=1")).ok
        psi = ("--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1")
        answers = [("bound", "ks", *psi), ("bound", "general", *psi),
                   ("bound", "ostrowski", "--ab", "0,1", "--cd", "0.25,0.75"),
                   ("bound", "point-mean", "--cd", "0,1", "--t", "0.5"),
                   ("landau", "--h", "0.2"), ("stechkin", "--h", "0.2"), ("delta-recover", "--h", "0.1")]
        for argv in answers:
            code, out, err = _cli(*argv, "--omega", "power:K=1.7e308,alpha=1")
            assert (code, err) == (0, "")
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{argv}: {name}"))
        # the class samples reach 5 K: the sampled recoveries refuse
        for kind in ("integral", "identity"):
            code, out, err = _cli("recover", kind, "--grid", "64", "--trials", "4", "--omega", "power:K=1.7e308,alpha=1")
            assert (code, out) == (2, "") and err.startswith("OverflowError: class samples, within 5 omega(b - a)")

    @pytest.mark.parametrize("w", [mo.power(1, 1), mo.power(3, 0.3), mo.minlin(2, 0.5),
                                   mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)])])
    def test_accepts_valid_families(self, w):
        assert mo.validate(w).ok

    def test_counterexample_between_grid_points(self):
        # w(0.501) = 0.502 > w(0.5) + w(0.001) = 0.501; a 64-point grid on
        # [0, 2] passed it
        w = mo.PiecewiseLinearConcave(((0.0, 0.0), (0.5, 0.5), (0.501, 0.502), (0.502, 0.502), (1.0, 1.0)))
        report = mo.validate(w)
        assert (report.ok, report.reason) == (False, "not subadditive")
        s, t = report.witness
        assert s == 0.5 and t == pytest.approx(0.001) and w(s + t) > w(s) + w(t) + 1e-4

    @pytest.mark.parametrize("w,ok", [(mo.PowerModulus(2, 0.5), True), (mo.PowerModulus(1.7e308, 1), True),
                                      (mo.PowerModulus(3, 2), False), (mo.MinLinearConstant(1, 0.3), True),
                                      (mo.MinLinearConstant(1e-310, 1), True)])
    def test_power_and_minlin_evaluate_nothing(self, monkeypatch, w, ok):
        def refuse(*args, **kwargs):
            raise AssertionError("validation evaluated the modulus")

        for cls in (mo.Modulus, mo.PowerModulus, mo.MinLinearConstant):
            monkeypatch.setattr(cls, "__call__", refuse)
            monkeypatch.setattr(cls, "primitive", refuse)
        assert mo.validate(w).ok is ok

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 8)), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_vertex_check_matches_a_dense_grid(self, pieces):
        # knots on the lattice of 1/8, so that every vertex the check reads
        # is a node of the reference grid, of step 1/32 over [0, 2 k_m]
        pts = [(0.0, 0.0)]
        for dt, dv in pieces:
            pts.append((pts[-1][0] + dt / 8, pts[-1][1] + dv / 16))
        w = mo.PiecewiseLinearConcave(tuple(pts))
        ts = np.arange(0.0, 2.0 * pts[-1][0] + 1e-12, 1 / 32)
        s, t = ts[:, None], ts[None, :]
        direct = w(s + t)
        subadditive = not np.any(direct - (w(s) + w(t)) > np.maximum(1e-10, 1e-14 * np.abs(direct)))
        report = mo.validate(w)
        assert report.ok is subadditive
        if not report.ok:
            s, t = report.witness
            assert report.reason == "not subadditive" and w(s + t) > w(s) + w(t)

    def test_huge_parameters_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mo.parse_modulus("minlin:K=1e308,C=1e308").C == 1e308
            assert mo.parse_modulus("power:K=1e308,alpha=0.5").K == 1e308


class TestConcave:
    def test_slow_slope_rise_is_not_concave(self):
        # each slope rises by 2**-40 < 1e-12 over the one before, twice
        w = mo.plconcave([(0, 0), (1, 1), (2, 2 + 2 ** -40), (3, 3 + 3 * 2 ** -40)])
        assert w.concave is False

    def test_rise_within_slack_is_concave(self):
        w = mo.plconcave([(0, 0), (1, 1), (2, 2 + 2 ** -40), (3, 3 + 2 ** -40)])
        assert w.concave is True

    @pytest.mark.parametrize("w", [mo.power(1, 0.7), mo.minlin(2, 0.5),
                                   mo.plconcave([(0, 0), (0.2, 0.3), (0.8, 0.6)])])
    def test_concave_families_have_nonincreasing_chord_slopes(self, w):
        # concavity from the values alone: consecutive chord slopes never rise
        rng = np.random.default_rng(0)
        ts = np.sort(rng.uniform(1e-6, 3, size=200))
        slopes = np.diff(w(ts)) / np.diff(ts)
        assert w.concave is True
        assert np.all(np.diff(slopes) <= 1e-8)

    @pytest.mark.parametrize("alpha, concave", [(0.5, True), (1.0, True), (2.0, False)])
    def test_power_concave_iff_alpha_at_most_one(self, alpha, concave):
        assert mo.PowerModulus(1.0, alpha).concave is concave


class TestParse:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("power:K=1,alpha=0.5", mo.PowerModulus),
            ("plconcave:0,0;0.5,0.4;1,0.6", mo.PiecewiseLinearConcave),
            ("minlin:K=1,C=0.5", mo.MinLinearConstant),
        ],
    )
    def test_families(self, text, cls):
        w = mo.parse_modulus(text)
        assert isinstance(w, cls)
        assert mo.parse_modulus(w.spec())(0.37) == pytest.approx(w(0.37), abs=1e-15)

    def test_malformed(self):
        with pytest.raises(InvalidModulus):
            mo.parse_modulus("power")
        with pytest.raises(InvalidModulus):
            mo.parse_modulus("gauss:K=1")
