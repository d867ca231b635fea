import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksr import gridfn as gf
from ksr import kscore as ks
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import oracle as orc

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

    @pytest.mark.parametrize("model", ["real", "interval", "lifted"])
    def test_w1_members_have_class_derivatives(self, model):
        for f in orc.sample_class(_spec(model=model, cls=orc.W1HOMEGA, trials=10)):
            d = gf.hukuhara_derivative(f)
            rep = gf.check_Homega(d, wid)
            assert rep.defect <= 4.0 / 256  # difference-quotient slack

    def test_injection_comes_first(self):
        marker = constant_grid(ls.real(123.0), 0, 1, 256)
        stream = orc.sample_class(_spec(trials=2), inject=[marker])
        first = next(stream)
        assert float(np.max(first.data)) == 123.0


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
        g = gf.lift(ks.ks_extremal(w1, w2, wid, n=256), ls.interval(1, 1))
        sup, arg = orc.empirical_sup(
            lambda f: ks.functional_S(f, w1, w2),
            orc.sample_class(_spec(trials=5), inject=[g]),
        )
        assert sup >= 0.1875 - gf.eps_tolerance(wid, 1.0, 256)
        assert arg == 0


class TestSuites:
    def test_all_suites_pass_at_small_scale(self):
        rep = orc.run_suites(list(orc.SUITES), trials=40, grid=256, seed=7)
        failures = [
            (s["suite"], c["name"])
            for s in rep["suites"]
            for c in s["checks"]
            if not c["pass"]
        ]
        assert rep["pass"], failures

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
        report = orc.recovery_experiment(kind, n, h, wid, 0.0, 1.0, 20, 512, 7)
        assert report.sound, report.as_dict()
        assert report.attained, report.as_dict()

    def test_report_carries_its_extremal(self):
        report = orc.recovery_experiment("convexify", 2, 0.1, wid, 0.0, 1.0, 2, 256, 7)
        core = orc.recovery_extremal("convexify", 2, 0.1, wid, 0.0, 1.0, 256)
        assert np.array_equal(report.extremal.data, core.data)
        assert "extremal" not in report.as_dict()

    def test_extremal_export(self):
        core = orc.recovery_extremal("identity", 2, 0.0, wid, 0.0, 1.0, 256)
        assert core.model == ls.REAL
        assert float(np.max(np.abs(core.data))) == pytest.approx(1 / 32, abs=1e-9)
