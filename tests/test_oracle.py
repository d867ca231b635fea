import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksr import gridfn as gf
from ksr import kscore as ks
from ksr import landau as la
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import oracle as orc
from ksr import recovery as rec

from grid_fixtures import check_Homega_loop, constant_grid

wid = mo.power(1, 1)
wsq = mo.power(1, 0.5)


@st.composite
def _plconcave(draw):
    """A concave polyline modulus: 1-4 pieces of falling nonnegative slope."""
    m = draw(st.integers(1, 4))
    widths = draw(st.lists(st.floats(0.05, 2.0), min_size=m, max_size=m))
    slopes = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)), reverse=True)
    pts = [(0.0, 0.0)]
    for w, s in zip(widths, slopes):
        pts.append((pts[-1][0] + w, pts[-1][1] + s * w))
    return mo.plconcave(pts)


_moduli = st.one_of(
    st.builds(mo.power, st.floats(0.1, 1e4), st.floats(0.1, 1.0)),
    st.builds(mo.minlin, st.floats(0.1, 1e4), st.floats(0.01, 100.0)),
    _plconcave(),
)


def _spec(model="real", omega=wid, cls=orc.HOMEGA, trials=20, seed=11, grid=256):
    return orc.SampleSpec(cls, model, omega, 0.0, 1.0, grid, trials, seed)


class TestSampling:
    def test_deterministic_under_seed(self):
        a = list(orc.sample_class(_spec()))
        b = list(orc.sample_class(_spec()))
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert fa.model == fb.model
            assert np.array_equal(fa.data, fb.data)

    @given(omega=_moduli, a=st.floats(-1e5, 1e5), length=st.floats(1e-3, 1e6),
           grid=st.integers(8, 256), seed=st.integers(0, 2**32 - 1))
    @example(omega=mo.power(1e4, 1), a=0.0, length=1e6, grid=256, seed=0)
    @settings(max_examples=50, deadline=None)
    def test_members_in_class_on_every_node_pair(self, omega, a, length, grid, seed):
        # membership holds by construction; no sample is checked at run time
        slack = gf.MembershipReport.SLACK * max(1.0, float(omega(length)))
        for k, model in enumerate(orc.MODEL_MIX):
            spec = orc.SampleSpec(orc.HOMEGA, model, omega, a, a + length, grid, 2, seed + k)
            for f in orc.sample_class(spec):
                assert check_Homega_loop(f, omega, range(1, f.n_cells + 1))[1] <= slack

    @pytest.mark.parametrize("model", orc.MODEL_MIX)
    @pytest.mark.parametrize("omega", [wid, wsq])
    @pytest.mark.parametrize("grid", [64, 256])
    def test_pinned_members_in_class_on_every_node_pair(self, model, omega, grid):
        # fixed-seed draws on [0, 1], where omega(b - a) = 1 and the slack is SLACK
        for f in orc.sample_class(_spec(model=model, omega=omega, grid=grid)):
            member, defect, _ = check_Homega_loop(f, omega, range(1, f.n_cells + 1))
            assert member, defect

    def test_sampling_runs_no_membership_check(self, monkeypatch):
        def forbidden(f, omega):
            raise AssertionError("check_Homega called on the sampling path")

        monkeypatch.setattr(gf, "check_Homega", forbidden)
        for cls in (orc.HOMEGA, orc.W1HOMEGA):
            for model in orc.MODEL_MIX:
                assert len(list(orc.sample_class(_spec(model=model, cls=cls, trials=3, grid=64)))) == 3

    @pytest.mark.parametrize("model", [ls.INTERVAL, "lifted"])
    @pytest.mark.parametrize("cls", [orc.HOMEGA, orc.W1HOMEGA])
    def test_interval_samples_are_row_arrays(self, cls, model):
        for f in orc.sample_class(_spec(model=model, cls=cls, trials=6, grid=64)):
            assert f.model == ls.INTERVAL
            assert f.data.shape == (65, 2)
            assert np.all(f.data[:, 0] <= f.data[:, 1])

    @pytest.mark.parametrize("cls", [orc.HOMEGA, orc.W1HOMEGA])
    def test_samples_are_read_only(self, cls):
        # a shared sample goes to every functional of its stream in turn;
        # one that wrote into it would change the next one's input
        def vandal(f):
            f.data[...] = 0.0
            return 0.0

        with pytest.raises(ValueError, match="read-only"):
            orc.sweep_sups([orc.Sweep(vandal, cls, wid, 0.0, 1.0, 64, 3, 5)])
        for model in orc.MODEL_MIX:
            for f in orc.sample_class(_spec(model=model, cls=cls, trials=2, grid=64)):
                assert not f.data.flags.writeable

    def test_union_model_is_not_sampled(self):
        assert ls.UNION not in orc.MODEL_MIX
        with pytest.raises(ValueError):
            next(orc.sample_class(_spec(model=ls.UNION)))

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 5, 999, 1000])
    def test_per_model_split_is_even(self, trials):
        counts = orc._per_model(trials)
        assert len(counts) == len(orc.MODEL_MIX)
        assert sum(counts) == max(trials, len(orc.MODEL_MIX))
        assert min(counts) >= 1 and max(counts) - min(counts) <= 1
        assert list(counts) == sorted(counts, reverse=True)  # the first models take the extra
        stream = orc._mixed_stream(orc.HOMEGA, wid, 0.0, 1.0, 8, trials, 5)
        assert sum(1 for _ in stream) == sum(counts)

    @pytest.mark.parametrize("seed", [7, 9, 26, 41])
    @pytest.mark.parametrize("grid", [64, 256, 4096])
    @pytest.mark.parametrize("omega", [wid, wsq, mo.minlin(2, 0.3)], ids=["power(1,1)", "power(1,0.5)", "minlin"])
    @pytest.mark.parametrize("model", orc.MODEL_MIX)
    def test_w1_members_have_class_derivatives(self, model, omega, grid, seed):
        # the landau sweep takes the class bound 1 for the derivative's
        # omega-norm, so each draw's derivative must be a member, up to SLACK
        for f in orc.sample_class(_spec(model=model, omega=omega, cls=orc.W1HOMEGA, trials=10, seed=seed, grid=grid)):
            rep = gf.check_Homega(gf.hukuhara_derivative(f), omega)
            assert rep.member, rep

    def test_injection_comes_first(self):
        marker = constant_grid(ls.real(123.0), 0, 1, 256)
        stream = orc._mixed_stream(orc.HOMEGA, wid, 0.0, 1.0, 256, 3, 11, inject=[marker])
        first = next(stream)
        assert float(np.max(first.data)) == 123.0
        assert sum(1 for _ in stream) == 3  # then the class samples


def _reference_real_member_values(rng, omega, ts):
    """The real member as the sampler built it before the cone workspace:
    the scale evaluated per member, and every cone step a fresh array."""
    a, b = ts[0], ts[-1]
    scale = float(omega(b - a))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return np.full_like(ts, float(rng.uniform(-scale, scale)))

    def envelope(sign):
        m = int(rng.integers(2, 9))
        centers = rng.uniform(a, b, size=m)
        levels = np.cumsum(rng.uniform(-scale / 2, scale / 2, size=m))
        cones = levels[:, None] + sign * np.asarray(
            omega(np.abs(ts[None, :] - centers[:, None])), dtype=float
        )
        return cones.min(axis=0) if sign > 0 else cones.max(axis=0)

    if kind == 1:
        return envelope(+1.0)
    if kind == 2:
        return envelope(-1.0)
    lam = float(rng.uniform(0.0, 1.0))
    return lam * envelope(+1.0) + (1.0 - lam) * envelope(-1.0)


def _reference_draws(spec):
    """The draw loop as it was before it wrote into one array: the interval
    columns stacked by ``np.stack``, the running trapezoid concatenated
    after a zero row, and the base value added to a new array."""
    rng = np.random.default_rng(spec.seed)
    ts = np.linspace(0.0, spec.b - spec.a, spec.grid + 1)
    step = (spec.b - spec.a) / spec.grid
    for _ in range(spec.trials):
        data = _reference_real_member_values(rng, spec.omega, ts)
        if spec.model == "lifted":
            data = np.stack([data, data], axis=1)
        elif spec.model == ls.INTERVAL:
            g2 = _reference_real_member_values(rng, spec.omega, ts)
            data = np.stack([np.minimum(data, g2), np.maximum(data, g2) + float(rng.uniform(0.0, 1.0))], axis=1)
        if spec.class_tag == orc.W1HOMEGA:
            if spec.model == ls.REAL:
                base = float(rng.uniform(-1, 1))
            else:
                base_lo = float(rng.uniform(-1, 0))
                base = np.array([base_lo, base_lo + float(rng.uniform(0, 1))])
            steps = np.cumsum(0.5 * (data[1:] + data[:-1]) * step, axis=0)
            data = np.concatenate((np.zeros_like(data[:1]), steps)) + base
        yield data


_KERNEL_MODULI = {
    "power(1,1)": wid,
    "power(1,1/2)": wsq,
    "power(2,0.7)": mo.power(2, 0.7),
    "minlin": mo.minlin(1, 0.3),
    "plconcave": mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)]),
}


class TestConeWorkspace:
    """The sampler builds its cones in one ``(MAX_CONES, N+1)`` array per
    stream; the members equal the fresh-array construction bit for bit,
    and no member shares memory with the workspace or another member."""

    @pytest.mark.parametrize("omega", _KERNEL_MODULI.values(), ids=_KERNEL_MODULI.keys())
    @pytest.mark.parametrize("grid", [64, 4096])
    @pytest.mark.parametrize("seed", [1, 2, 5, 11])
    @pytest.mark.parametrize("length", [1.0, 3.5])
    def test_members_equal_the_fresh_array_reference(self, omega, grid, seed, length):
        ts = np.linspace(0.0, length, grid + 1)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        scale = float(omega(ts[-1] - ts[0]))
        work = np.empty((orc.MAX_CONES, ts.size))
        for _ in range(12):
            got = orc._real_member_values(rng, omega, ts, scale, work)
            want = _reference_real_member_values(ref_rng, omega, ts)
            assert got.tobytes() == want.tobytes()
        # the two constructions drew the same numbers
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("omega", _KERNEL_MODULI.values(), ids=_KERNEL_MODULI.keys())
    @pytest.mark.parametrize("cls", [orc.HOMEGA, orc.W1HOMEGA])
    @pytest.mark.parametrize("model", orc.MODEL_MIX)
    @pytest.mark.parametrize("grid", [64, 4096, 16384])  # 16384: the grid of the recover benchmark
    def test_samples_equal_the_stacking_reference(self, omega, cls, model, grid):
        spec = orc.SampleSpec(cls, model, omega, -1.0, 2.5, grid, 6, 3)
        got = list(orc.sample_class(spec))
        want = list(_reference_draws(spec))
        assert len(got) == len(want) == 6
        for f, data in zip(got, want):
            assert f.data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("omega", _KERNEL_MODULI.values(), ids=_KERNEL_MODULI.keys())
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_cone_evaluation_equals_the_checked_call(self, omega, seed):
        # the sampler evaluates its cones |t - c| by ``of_nonneg``, without
        # the argument check of ``__call__``; centers on nodes give exact zeros
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 2.5, 257)
        centers = np.concatenate((ts[[0, 100, 256]], rng.uniform(0.0, 2.5, 5)))
        cones = np.abs(ts - centers[:, None])
        assert np.count_nonzero(cones == 0.0) >= 3 and not np.signbit(cones).any()
        for t in (cones, cones[3], np.zeros(4), np.array([0.0, 5e-324, 1e-300, 0.3, 1e300])):
            want = omega(t)
            got = omega.of_nonneg(t)
            assert got is not t and got.tobytes() == want.tobytes()
            inplace = t.copy()
            assert omega.of_nonneg(inplace, out=inplace) is inplace
            assert inplace.tobytes() == want.tobytes()
        for x in (0.0, 5e-324, 0.7, 3.0):
            got = omega.of_nonneg(np.float64(x))
            assert type(got) is float and np.float64(got).tobytes() == np.float64(omega(x)).tobytes()

    @pytest.mark.parametrize("cls", [orc.HOMEGA, orc.W1HOMEGA])
    @pytest.mark.parametrize("model", orc.MODEL_MIX)
    def test_samples_own_their_memory(self, cls, model):
        # a sample that shared the stream's cone workspace would share
        # memory with the next sample, and change when it is drawn
        spec = _spec(model=model, cls=cls, grid=64)
        stream = list(orc.sample_class(spec))
        for f, g in zip(stream, stream[1:]):
            assert not np.shares_memory(f.data, g.data)
        # a stream's samples stay as they were drawn
        for f, g in zip(stream, orc.sample_class(spec)):
            assert f.data.tobytes() == g.data.tobytes()


def _assert_ordered(f):
    """Interval rows with lo <= hi exactly, with no slack: what
    ``gridfn.from_ordered_rows`` takes on trust."""
    if f.model == ls.INTERVAL:
        lo, hi = f.data[:, 0], f.data[:, 1]
        assert np.all(lo <= hi), float(np.max(lo - hi))


class TestOrderedIntervalDraws:
    """Interval draws are built without the constructor's lo <= hi scan, so
    every one must have lo <= hi exactly."""

    @given(omega=_moduli, a=st.floats(-1e5, 1e5), length=st.floats(1e-3, 1e6),
           grid=st.integers(8, 512), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_streams(self, omega, a, length, grid, seed):
        for cls in (orc.HOMEGA, orc.W1HOMEGA):
            for model in (ls.INTERVAL, "lifted"):
                for f in orc.sample_class(orc.SampleSpec(cls, model, omega, a, a + length, grid, 4, seed)):
                    _assert_ordered(f)

    def test_every_unscanned_grid_function(self, monkeypatch):
        # every producer that skips the scan, over a verify pass and the
        # four recovery sweeps on a domain off 0
        producers = []
        from_ordered_rows = gf.from_ordered_rows

        def checked(a, b, model, data):
            f = from_ordered_rows(a, b, model, data)
            _assert_ordered(f)
            if model == ls.INTERVAL:
                producers.append(sys._getframe(1).f_code.co_name)
            return f

        monkeypatch.setattr(gf, "from_ordered_rows", checked)
        orc.run_suites(list(orc.SUITES), 30, 64, 7)
        for kind in orc.RECOVERY_KINDS:
            orc.recovery_sweep(kind, [1, 4], 0.0, wsq, -1.0, 2.0, 12, 1024, 5)
        assert set(producers) == {"sample_class", "lift", "hukuhara_derivative", "recover_convexify", "err",
                                  "inexact_error"}
        assert producers.count("sample_class") >= 100


class TestEmpiricalSup:
    def test_constant_samples_give_zero(self):
        w1 = ks.indicator_weight(0, 0.25, 1.0, domain=(0, 1))
        w2 = ks.indicator_weight(0.75, 1.0, 1.0, domain=(0, 1))
        consts = [constant_grid(ls.real(c), 0, 1, 128) for c in (-1, 0, 2)]
        sup, arg = orc.empirical_sup(lambda f: ks.functional_S(f, w1, w2), consts)
        assert sup <= 1e-12
        assert arg in (0, 1, 2)

    def test_monotone_in_trials(self):
        w1 = ks.indicator_weight(0, 0.25, 1.0, domain=(0, 1))
        w2 = ks.indicator_weight(0.75, 1.0, 1.0, domain=(0, 1))

        def run(trials):
            return orc.empirical_sup(
                lambda f: ks.functional_S(f, w1, w2),
                orc.sample_class(_spec(trials=trials)),
            )[0]

        assert run(20) >= run(5) - 1e-15

    def test_injected_extremal_reaches_bound(self):
        w1 = ks.indicator_weight(0, 0.25, 1.0, domain=(0, 1))
        w2 = ks.indicator_weight(0.75, 1.0, 1.0, domain=(0, 1))
        g = gf.lift(ks.ks_extremal(w1, w2, wid, n=256))
        sup, arg = orc.empirical_sup(
            lambda f: ks.functional_S(f, w1, w2),
            orc._mixed_stream(orc.HOMEGA, wid, 0.0, 1.0, 256, 5, 11, inject=[g]),
        )
        assert sup >= 0.1875 - gf.eps_tolerance(wid, 1.0, 256)
        assert arg == 0


def _record_specs(monkeypatch):
    """Wrap ``oracle.sample_class``; the returned list collects the spec of
    each stream it draws, once per sample drawn."""
    sample_class, seen = orc.sample_class, []

    def recording(spec):
        for f in sample_class(spec):
            seen.append(spec)
            yield f

    monkeypatch.setattr(orc, "sample_class", recording)
    return seen


def _ks_functional(f):
    w1 = ks.indicator_weight(0, 0.25, 1.0, domain=(0, 1))
    w2 = ks.indicator_weight(0.75, 1.0, 1.0, domain=(0, 1))
    return ks.functional_S(f, w1, w2)


class TestSweepRunner:
    @pytest.mark.parametrize("cls", [orc.HOMEGA, orc.W1HOMEGA])
    def test_shared_stream_gives_each_request_its_own_sup_and_argmax(self, monkeypatch, cls):
        key = (cls, wsq, 0.0, 1.0, 128, 7, 3)
        lifted = gf.lift(constant_grid(ls.real(0.25), 0, 1, 128))
        requests = [
            orc.Sweep(_ks_functional, *key),
            orc.Sweep(lambda f: gf.sup_norm(f), *key, inject=[lifted]),
            orc.Sweep(lambda f: -gf.sup_norm(f), *key, inject=[lifted, lifted]),
            orc.Sweep(lambda f: 1e9 if f.model == ls.REAL else 0.0, *key, inject=[lifted]),
        ]
        want = [orc.empirical_sup(r.functional, orc._mixed_stream(*key, inject=r.inject)) for r in requests]
        seen = _record_specs(monkeypatch)
        assert orc.sweep_sups(requests) == want
        # the stream is drawn once for the four requests
        assert len(seen) == sum(orc._per_model(7)) == 7
        assert want[2][1] == 0 and want[3][1] == 1  # an injected and a drawn argmax

    @pytest.mark.parametrize("cls", [orc.HOMEGA, orc.W1HOMEGA])
    def test_array_functional_gets_a_sup_and_argmax_per_component(self, monkeypatch, cls):
        key = (cls, wid, 0.0, 1.0, 128, 9, 4)
        lifted = gf.lift(constant_grid(ls.real(0.0), 0, 1, 128))
        parts = (_ks_functional, gf.sup_norm, lambda f: -gf.sup_norm(f), lambda f: 1e9 if f.model == ls.REAL else 0.0)
        scalar = orc.Sweep(_ks_functional, *key)
        vector = orc.Sweep(lambda f: np.array([p(f) for p in parts]), *key, inject=[lifted])
        want = [orc.empirical_sup(p, orc._mixed_stream(*key, inject=[lifted])) for p in parts]
        want_scalar = orc.empirical_sup(_ks_functional, orc._mixed_stream(*key))
        seen = _record_specs(monkeypatch)
        got_scalar, (sups, args) = orc.sweep_sups([scalar, vector])
        assert len(seen) == sum(orc._per_model(9))  # one draw for both requests
        assert got_scalar == want_scalar and type(got_scalar[0]) is float
        assert sups.tolist() == [s for s, _ in want]
        assert args.tolist() == [i for _, i in want]
        # an injected and a drawn argmax (the first sample is a real one)
        assert args[2] == 0 and args[3] == 1

    def test_requests_of_one_sweep_share_their_key(self):
        a = orc.Sweep(_ks_functional, orc.HOMEGA, wid, 0.0, 1.0, 64, 3, 1)
        b = orc.Sweep(_ks_functional, orc.HOMEGA, wid, 0.0, 1.0, 64, 3, 2)
        with pytest.raises(ValueError, match="share their stream key"):
            orc.sweep_sups([a, b])

    def test_run_sweeps_sends_each_task_its_sup_and_returns_its_value(self, monkeypatch):
        def task(seeds):
            sups = []
            for seed in seeds:
                sups.append((yield orc.Sweep(_ks_functional, orc.HOMEGA, wid, 0.0, 1.0, 64, 4, seed)))
            return sups

        def alone(seed):
            return orc.empirical_sup(_ks_functional, orc._mixed_stream(orc.HOMEGA, wid, 0.0, 1.0, 64, 4, seed))[0]

        want = [[alone(1), alone(2)], [alone(1), alone(3)], []]
        seen = _record_specs(monkeypatch)
        assert orc.run_sweeps([task([1, 2]), task([1, 3]), task([])]) == want
        # both tasks ask for seed 1 in the first round, and it is drawn once
        assert len(seen) == 3 * sum(orc._per_model(4))
        assert len(set(seen)) == 3 * len(orc.MODEL_MIX)


@pytest.fixture(scope="module")
def all_suites():
    return orc.run_suites(list(orc.SUITES), trials=40, grid=256, seed=7)


class TestSuites:
    def test_all_suites_pass_at_small_scale(self, all_suites):
        rep = all_suites
        failures = [
            (s["suite"], c["name"])
            for s in rep["suites"]
            for c in s["checks"]
            if not c["pass"]
        ]
        assert rep["pass"], failures

    def test_suites_run_together_equal_each_alone(self, all_suites):
        alone = [orc.run_suites([name], trials=40, grid=256, seed=7)["suites"][0] for name in orc.SUITES]
        assert all_suites["suites"] == alone

    def test_each_stream_is_drawn_once(self, monkeypatch):
        seen = _record_specs(monkeypatch)
        orc.run_suites(list(orc.SUITES), trials=100, grid=128, seed=7)
        # 13 sweeps ask for 10 distinct streams: ks, general, point-vs-mean
        # and recovery convexify share one; each sweep alone drew 1225 samples
        assert len(seen) == 925
        drawn = [spec for i, spec in enumerate(seen) if i == 0 or spec != seen[i - 1]]
        assert len(drawn) == len(set(drawn)) == 10 * len(orc.MODEL_MIX)

    def test_report_shape(self):
        rep = orc.run_suites(["lspace"], trials=10, grid=256, seed=1)
        assert set(rep) == {"trials", "grid", "seed", "suites", "pass"}
        suite = rep["suites"][0]
        assert set(suite) == {"suite", "pass", "checks"}
        for c in suite["checks"]:
            assert set(c) == {"name", "pass", "got", "target", "tol"}


class TestRecoveryExperiment:
    @pytest.mark.parametrize("kind,n,h", [
        ("convexify", 2, 0.1),
        ("integral", 2, 0.05),
        ("identity", 2, 0.0),
        ("derivative", 4, 0.0),
    ])
    def test_certified_two_sided(self, kind, n, h):
        report = orc.recovery_sweep(kind, [n], h, wid, 0.0, 1.0, 20, 512, 7)[0]
        assert report.sound, report.as_dict()
        assert report.attained, report.as_dict()

    def test_report_carries_its_extremal(self):
        report = orc.recovery_sweep("convexify", [2], 0.1, wid, 0.0, 1.0, 2, 256, 7)[0]
        knots, _ = rec.optimal_knots(2, 0.0, 1.0)
        core = rec.lower_extremal_mean(knots, 0.1, wid, 0.0, 1.0, n=256)
        assert np.array_equal(report.extremal.data, core.data)
        assert "extremal" not in report.as_dict()

    def test_convexify_builds_its_node_map_once(self):
        # the node-to-cell map depends on the knots and the grid only: one
        # experiment builds it once and reads it for every sample
        rec._node_cells.cache_clear()
        report = orc.recovery_sweep("convexify", [4], 0.0, wid, 0.0, 1.0, 10, 256, 7)[0]
        info = rec._node_cells.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits == report.trials  # the injected extremal and the drawn samples, less the first

    def test_extremal_export(self):
        core = orc.recovery_sweep("identity", [2], 0.0, wid, 0.0, 1.0, 2, 256, 7)[0].extremal
        assert np.array_equal(core.data, rec.omega_spline(2, wid, 0.0, 1.0, n=256).data)
        assert core.model == ls.REAL
        assert float(np.max(np.abs(core.data))) == pytest.approx(1 / 32, abs=1e-9)


def _reference_landau_sups(trials, grid, seed):
    """The landau suite's sample loops as they were before they ran through
    the sweep runner, with the derivative's omega-norm the class bound 1:
    the six statistics of the W1HOMEGA stream, read with ``landau_rhs``,
    then the inexact-data error, its noise drawn from one generator in
    stream order."""
    omega = wid
    delta_t = 1.0 / grid
    snap = lambda x: round(x / delta_t) * delta_t
    wc = la.WindowConfig(snap(0.5), snap(0.1), snap(0.1), snap(0.2), snap(0.2), 0.0, 1.0)
    t = wc.t
    kval = la.K_value(wc, omega)
    dval = la.derivative_vs_quotient_value(wc, omega)
    viol = {v: -np.inf for v in la.VARIANTS}
    viol_quot = viol_deriv = -np.inf
    for f in orc._mixed_stream(orc.W1HOMEGA, omega, 0.0, 1.0, grid, trials, seed):
        df = gf.hukuhara_derivative(f)
        omega_norm = 1.0
        dd_gamma = la.divided_difference(f, t, wc.g1, wc.g2)
        dd_h = la.divided_difference(f, t, wc.h1, wc.h2)
        df_t = gf.values_at(df, t)
        d_gamma = gf.row_norm(dd_gamma)
        d_h = gf.row_norm(dd_h)
        d_t = gf.row_norm(df_t)
        sup_f = gf.sup_norm(f)
        viol_quot = max(viol_quot, gf.row_dist(f.model, dd_gamma, dd_h) - kval * omega_norm)
        viol_deriv = max(viol_deriv, gf.row_dist(f.model, df_t, dd_h) - dval * omega_norm)
        viol["b"] = max(viol["b"], d_gamma - la.landau_rhs("b", wc, omega, omega_norm, d_h))
        viol["c"] = max(viol["c"], d_t - la.landau_rhs("c", wc, omega, omega_norm, d_h))
        viol["d"] = max(viol["d"], d_gamma - la.landau_rhs("d", wc, omega, omega_norm, sup_f))
        viol["e"] = max(viol["e"], d_t - la.landau_rhs("e", wc, omega, omega_norm, sup_f))

    dr = la.delta_recovery_value(0.5, 0.1, omega, 0.0, 1.0)
    h1, h2, delta = dr["h1"], dr["h2"], dr["delta"]
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    for f in orc._mixed_stream(orc.W1HOMEGA, omega, 0.0, 1.0, grid, max(10, trials // 4), seed + 7):
        df = gf.hukuhara_derivative(f)
        noise_nodes = np.linspace(0, 1, 9)
        noise = np.interp(f.nodes, noise_nodes, rng.uniform(-delta, delta, size=9))
        if f.model == ls.REAL:
            g = gf.GridFunction(f.a, f.b, ls.REAL, f.data + noise)
        else:
            g = gf.GridFunction(f.a, f.b, ls.INTERVAL, f.data + noise[:, None])
        worst = max(worst, gf.row_dist(f.model, gf.values_at(df, 0.5), la.divided_difference(g, 0.5, h1, h2)))
    return {
        "quotient deviation bound holds on samples": viol_quot,
        "derivative deviation bound holds on samples": viol_deriv,
        **{f"inequality {v} holds on samples": viol[v] for v in la.VARIANTS},
        "inexact-data recovery soundness": worst,
    }


class TestLandauSweeps:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_runner_sups_equal_the_reference_loops(self, seed):
        report = orc.run_suites(["landau"], trials=40, grid=256, seed=seed)
        got = {c["name"]: c["got"] for c in report["suites"][0]["checks"]}
        want = _reference_landau_sups(40, 256, seed)
        assert len(want) == 7
        for name, value in want.items():
            assert np.float64(got[name]).tobytes() == np.float64(value).tobytes(), name

    def test_seminorm_scans_only_the_extremals(self, monkeypatch):
        # the sweep takes the class bound 1; the four attainment checks
        # take the seminorm of their extremal's derivative
        calls = []
        omega_seminorm = gf.omega_seminorm
        monkeypatch.setattr(gf, "omega_seminorm", lambda f, omega: calls.append(f) or omega_seminorm(f, omega))
        assert orc.run_suites(["landau"], trials=20, grid=128, seed=7)["pass"]
        assert len(calls) == 4
