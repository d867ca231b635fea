import numpy as np
import pytest

from ksr import gridfn as gf
from ksr import kscore as ks
from ksr import lspace as ls
from ksr import modulus as mo
from ksr import ostrowski as ost
from ksr.errors import (
    BadSupportOrder,
    CannotCertify,
    MassMismatch,
    NonConcave,
    NonzeroBoundary,
)

wid = mo.power(1, 1)
wsq = mo.power(1, 0.5)

W1 = ks.indicator_weight(0.0, 0.25, 1.0, domain=(0, 1))
W2 = ks.indicator_weight(0.75, 1.0, 1.0, domain=(0, 1))


class TestStepWeight:
    def test_parse_and_spec_round_trip(self):
        w = ks.parse_step_weight("0,1; 0,0.25,1; 0.5,0.75,2")
        assert w.mass() == pytest.approx(0.75)
        again = ks.parse_step_weight(w.spec())
        assert again == w

    def test_primitive_and_eval(self):
        w = ks.step_weight((0, 1), [(0.0, 0.2, 2.0), (0.6, 1.0, 1.0)])
        assert w.primitive(0.1) == pytest.approx(0.2)
        assert w.primitive(0.5) == pytest.approx(0.4)
        assert w.primitive(1.0) == pytest.approx(w.mass())
        assert w.eval(0.05) == 2.0 and w.eval(0.4) == 0.0 and w.eval(0.8) == 1.0

    def test_invalid_pieces(self):
        with pytest.raises(ValueError):
            ks.step_weight((0, 1), [(0.5, 0.4, 1.0)])
        with pytest.raises(ValueError):
            ks.step_weight((0, 1), [(0.0, 0.5, -1.0)])
        with pytest.raises(ValueError):
            ks.step_weight((0, 1), [(0.0, 0.5, 1.0), (0.4, 0.8, 1.0)])


class TestRhoMap:
    def test_unit_weights_give_reflection(self):
        rho = ks.solve_rho(W1, W2)
        for s in (0.0, 0.1, 0.25, 0.3, 0.5):
            assert rho.rho(s) == pytest.approx(1.0 - s, abs=1e-12)

    def test_boundary_values(self):
        rho = ks.solve_rho(W1, W2)
        assert rho.rho(0.0) == pytest.approx(1.0)
        assert rho.rho(0.25) == pytest.approx(0.75)
        assert rho.c == pytest.approx(0.5)

    def test_inverse(self):
        rho = ks.solve_rho(W1, W2)
        for t in (0.6, 0.75, 0.9, 1.0):
            assert rho.rho_inv(t) == pytest.approx(1.0 - t, abs=1e-12)

    def test_strictly_decreasing_on_positive_support(self):
        w1 = ks.step_weight((0, 1), [(0.0, 0.1, 3.0), (0.1, 0.3, 0.25)])
        w2 = ks.step_weight((0, 1), [(0.6, 0.9, 1.0), (0.9, 1.0, 0.5)])
        rho = ks.solve_rho(w1, w2)
        ss = np.linspace(0, rho.c, 200)
        vals = [rho.rho(float(s)) for s in ss]
        assert all(v1 > v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        assert rho.rho(0.0) == pytest.approx(1.0)
        assert rho.rho(0.3) == pytest.approx(0.6)

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            ks.solve_rho(W1, ks.indicator_weight(0.7, 1.0, 1.0, domain=(0, 1)))

    def test_support_order(self):
        with pytest.raises(BadSupportOrder):
            ks.solve_rho(ks.indicator_weight(0.5, 1.0, 1.0), ks.indicator_weight(0.0, 0.5, 1.0))


class TestBound:
    def test_unit_configuration(self):
        assert ks.ks_bound(W1, W2, wid) == pytest.approx(0.1875, abs=1e-12)

    def test_sqrt_configuration(self):
        expect = (1 - 0.5 ** 1.5) / 3
        assert ks.ks_bound(W1, W2, wsq) == pytest.approx(expect, abs=1e-12)

    def test_degenerate_middle(self):
        wa = ks.indicator_weight(0, 0.5, 1.0, domain=(0, 1))
        wb = ks.indicator_weight(0.5, 1.0, 1.0, domain=(0, 1))
        assert ks.ks_bound(wa, wb, wid) == pytest.approx(0.25, abs=1e-12)

    def test_matches_numeric_quadrature(self):
        # independent oracle: invert the mass primitives numerically and
        # integrate w1(s) w(rho(s) - s) ds by the trapezoid rule
        w1 = ks.step_weight((0, 1), [(0.0, 0.1, 2.0), (0.2, 0.3, 1.0)])
        w2 = ks.step_weight((0, 1), [(0.7, 0.8, 1.5), (0.9, 1.0, 1.5)])
        for omega in (wid, wsq, mo.minlin(1, 0.4)):
            direct = ks.ks_bound(w1, w2, omega)
            ss = np.linspace(0, 0.3, 20001)
            m1 = np.array([w1.primitive(float(s)) for s in ss])
            tt = np.linspace(0.7, 1.0, 20001)
            tails = np.array([w2.mass() - w2.primitive(float(t)) for t in tt])
            rho = np.interp(m1, tails[::-1], tt[::-1])
            vals = np.array([w1.eval(float(s)) for s in ss]) * np.asarray(omega(rho - ss))
            quad = np.trapezoid(vals, ss)
            assert direct == pytest.approx(quad, abs=2e-4)


class TestExtremal:
    def test_linear_case(self):
        g = ks.ks_extremal(W1, W2, wid, n=512)
        assert np.max(np.abs(g.data - (g.nodes - 0.5))) <= 1e-12

    def test_membership_and_attainment(self):
        for omega in (wid, wsq, mo.minlin(1, 0.3)):
            g = ks.ks_extremal(W1, W2, omega, n=2048)
            assert gf.check_Homega(g, omega).member
            eps = gf.eps_tolerance(omega, 1.0, 2048)
            assert ks.functional_S(g, W1, W2) >= ks.ks_bound(W1, W2, omega) - eps

    def test_attainment_after_lift_and_shift(self):
        g = ks.ks_extremal(W1, W2, wid, n=1024)
        shifted = gf.GridFunction(0, 1, ls.REAL, np.asarray(g.data) + 3.7)
        lifted = gf.lift(shifted, ls.interval(1, 1))
        eps = gf.eps_tolerance(wid, 1.0, 1024)
        assert ks.functional_S(lifted, W1, W2) >= 0.1875 - eps

    def test_flattens_where_modulus_saturates(self):
        omega = mo.minlin(1, 0.2)  # w' = 0 beyond 0.2
        g = ks.ks_extremal(W1, W2, omega, n=2048)
        # rho(s) - s > 0.2 near s = 0, so the extremal is flat there
        assert abs(g.data[10] - g.data[0]) <= 1e-12
        assert ks.functional_S(g, W1, W2) == pytest.approx(ks.ks_bound(W1, W2, omega), abs=1e-3)

    def test_vanishes_at_center(self):
        g = ks.ks_extremal(W1, W2, wsq, n=512)
        assert abs(float(np.interp(0.5, g.nodes, g.data))) <= 1e-12

    def test_nonconcave_rejected(self):
        with pytest.raises(NonConcave):
            ks.ks_extremal(W1, W2, mo.PowerModulus(1, 2.0), n=64)

    def test_weights_with_support_gaps(self):
        # the pairing map is constant across a gap in the left support;
        # bound, rearrangement estimate and extremal must stay consistent
        w1 = ks.step_weight((0, 1), [(0.0, 0.1, 1.0), (0.2, 0.3, 1.0)])
        w2 = ks.step_weight((0, 1), [(0.8, 1.0, 1.0)])
        assert ks.ks_bound(w1, w2, wid) == pytest.approx(0.15, abs=1e-12)
        for omega in (wid, wsq):
            bound = ks.ks_bound(w1, w2, omega)
            assert ks.general_bound(w1, w2, omega) == pytest.approx(bound, abs=1e-9)
            g = ks.ks_extremal(w1, w2, omega, n=2048)
            assert gf.check_Homega(g, omega).member
            eps = gf.eps_tolerance(omega, 1.0, 2048)
            assert ks.functional_S(g, w1, w2) >= bound - eps


def _left_branch_loop(segments, a1, b1, omega, ts):
    """The per-node loop that ``ks._left_branch`` vectorises, with scalar
    omega calls.  Kept as the bit-for-bit reference."""
    base = 0.5 * float(omega(b1 - a1))
    dws = []
    for s0, s1, r0, r1, _ in segments:
        v0, v1 = r0 - s0, r1 - s1
        dws.append((s1 - s0) / (v0 - v1) * (float(omega(v0)) - float(omega(v1))))
    suffix = np.concatenate((np.cumsum(dws[::-1])[::-1], [0.0])) if dws else np.array([0.0])
    c = 0.5 * (a1 + b1)
    out = np.empty_like(ts, dtype=float)
    for i, t in enumerate(ts):
        if t >= a1:
            out[i] = -0.5 * float(omega(max(a1 + b1 - 2.0 * min(t, c), 0.0)))
            continue
        acc = base
        for j, (s0, s1, r0, r1, _) in enumerate(segments):
            if t <= s0:
                acc += suffix[j]
                break
            if t < s1:
                v0, v1 = r0 - s0, r1 - s1
                lam = (t - s0) / (s1 - s0)
                vt = v0 + lam * (v1 - v0)
                acc += (s1 - s0) / (v0 - v1) * (float(omega(vt)) - float(omega(v1)))
                acc += suffix[j + 1]
                break
        out[i] = -acc
    return out


def _branch_weight_pairs():
    """The weight pairs of the ks, eq12 and general suites: the ks pair
    (also eq12 configs 0 and 1), eq12 configs 2-4, and the hat pairs
    glued for the general suite."""
    pairs = {"ks": (W1, W2)}
    eq12 = [
        (ks.step_weight((0, 1), [(0.0, 0.1, 2.0), (0.1, 0.3, 0.5)]), ks.indicator_weight(0.8, 1.0, 1.5, domain=(0, 1))),
        (ks.indicator_weight(0, 0.5, 1, domain=(0, 1)), ks.indicator_weight(0.5, 1, 1, domain=(0, 1))),
        (ks.step_weight((0, 2), [(0.0, 0.4, 1.0), (0.5, 0.7, 3.0)]),
         ks.step_weight((0, 2), [(1.2, 1.4, 2.0), (1.6, 1.9, 2.0)])),
    ]
    pairs.update({f"eq12-{i}": p for i, p in enumerate(eq12, start=2)})
    w1, w2 = ost.two_interval_weights(ost.two_interval_config(0, 1, 0.25, 0.75))
    for i, hat in enumerate(ks.decompose_weights(w1, w2).hats):
        pairs[f"general-hat{i}"] = ks._hat_weight_pair(hat)
    return pairs


BRANCH_PAIRS = _branch_weight_pairs()
BRANCH_MODULI = {
    "power(1,1)": wid, "power(1,0.5)": wsq, "power(2,0.7)": mo.power(2, 0.7),
    "minlin": mo.minlin(1, 0.3), "plconcave": mo.plconcave([(0, 0), (0.5, 0.4), (1, 0.6)]),
}


class TestLeftBranch:
    @pytest.mark.parametrize("omega", BRANCH_MODULI.values(), ids=BRANCH_MODULI.keys())
    @pytest.mark.parametrize("pair", BRANCH_PAIRS.values(), ids=BRANCH_PAIRS.keys())
    def test_matches_per_node_loop(self, pair, omega):
        w1, w2 = pair
        lo, hi = w1.support[0], w2.support[1]
        # both orientations, as _extremal_on evaluates them
        for rho in (ks.solve_rho(w1, w2), ks.solve_rho(w2.reflect(lo, hi), w1.reflect(lo, hi))):
            grid = np.linspace(rho.a, rho.c, 1001)
            # nodes exactly at every segment end, at a1 and at c
            exact = [x for s0, s1, *_ in rho.segments for x in (s0, s1)] + [rho.a1, rho.c]
            ts = np.sort(np.concatenate([grid, exact]))
            want = _left_branch_loop(rho.segments, rho.a1, rho.b1, omega, ts)
            got = ks._left_branch(rho.segments, rho.a1, rho.b1, omega, ts)
            assert got.tobytes() == want.tobytes()

    def test_hand_made_segments(self):
        # a support gap (0.7, 0.8), nodes past every segment (0.9 < t < a1),
        # and a first segment whose end interpolates inexactly: at t = s1,
        # v0 + 1 * (v1 - v0) != v1
        segments = ((0.0, 0.7, 1.9, 0.9, 1.0), (0.8, 0.9, 1.2, 1.1, 1.0))
        ts = np.array([0.0, 0.35, 0.7, 0.75, 0.8, 0.85, 0.9, 0.92, 0.95, 0.97, 1.0])
        for omega in BRANCH_MODULI.values():
            want = _left_branch_loop(segments, 0.95, 1.05, omega, ts)
            assert ks._left_branch(segments, 0.95, 1.05, omega, ts).tobytes() == want.tobytes()

    def test_empty_and_single_node(self):
        rho = ks.solve_rho(W1, W2)
        for ts in (np.array([]), np.array([0.1]), np.array([rho.a1])):
            got = ks._left_branch(rho.segments, rho.a1, rho.b1, wsq, ts)
            assert got.tobytes() == _left_branch_loop(rho.segments, rho.a1, rho.b1, wsq, ts).tobytes()


class TestHardy:
    def test_tent_rearrangement(self):
        f = gf.real_grid(lambda t: min(t, 1 - t), 0, 1, 1024)
        r = ks.hardy_rearrangement(f)
        assert np.max(np.abs(r.data - (1 - r.nodes) / 2)) <= 2.0 / 1024

    def test_constant_fixed_point(self):
        f = gf.constant_grid(ls.real(0.7), 0, 1, 64)
        r = ks.hardy_rearrangement(f)
        assert np.allclose(r.data, 0.7)

    def test_nonincreasing_input_fixed(self):
        f = gf.real_grid(lambda t: 1 - t, 0, 1, 128)
        r = ks.hardy_rearrangement(f)
        # interior nodes reproduce the input exactly; the two boundary
        # nodes carry the half-cell offset of the cell-mean representation
        assert np.max(np.abs(r.data[1:-1] - f.data[1:-1])) <= 1e-12
        assert np.max(np.abs(r.data - f.data)) <= 0.5 * f.step

    def test_equimeasurable(self):
        rng = np.random.default_rng(3)
        vals = np.abs(np.cumsum(rng.uniform(-1, 1, 257))) * 0.05
        f = gf.real_grid(vals, 0, 2, 256)
        r = ks.hardy_rearrangement(f)
        assert np.all(np.diff(r.data) <= 1e-12)
        # the trapezoid mass is preserved exactly by construction
        assert gf.integrate(r).payload == pytest.approx(gf.integrate(f).payload, abs=1e-10)
        # sorted-histogram equality at grid resolution (the cell-mean
        # smoothing moves values by at most half an increment, 0.025 here)
        assert np.max(np.abs(np.sort(np.asarray(r.data)) - np.sort(vals))) <= 2.5e-2

    def test_rejects_negative(self):
        f = gf.real_grid(lambda t: t - 0.5, 0, 1, 64)
        with pytest.raises(ValueError):
            ks.hardy_rearrangement(f)


def _psi_pair_two_hats():
    w1 = ks.step_weight((0, 1), [(0.0, 0.25, 1.0), (0.5, 0.75, 1.0)])
    w2 = ks.step_weight((0, 1), [(0.25, 0.5, 1.0), (0.75, 1.0, 1.0)])
    return w1, w2


class TestSigmaDecompose:
    def test_two_hat_profile(self):
        w1, w2 = _psi_pair_two_hats()
        decomp = ks.decompose_weights(w1, w2)
        assert len(decomp.hats) == 2
        assert [h.sign for h in decomp.hats] == [1.0, 1.0]
        for key, val in ks.decomposition_defects(decomp).items():
            assert val <= 1e-9, key

    def test_single_hump_is_itself(self):
        f = gf.real_grid(lambda t: min(t, 1 - t), 0, 1, 256)
        decomp = ks.sigma_decompose(f)
        assert len(decomp.hats) == 1
        hat = decomp.hats[0]
        assert hat.height == pytest.approx(0.5, abs=1e-12)
        assert hat.support == pytest.approx((0.0, 1.0))

    def test_zero_function_gives_empty_list(self):
        f = gf.real_grid(lambda t: 0.0, 0, 1, 64)
        assert ks.sigma_decompose(f).hats == ()

    def test_nonzero_boundary_rejected(self):
        f = gf.real_grid(lambda t: t, 0, 1, 64)
        with pytest.raises(NonzeroBoundary):
            ks.sigma_decompose(f)

    def test_nested_peaks_with_positive_saddle(self):
        # two positive peaks over a saddle at level 0.2; the grid is
        # chosen so the profile breakpoints land on nodes
        xs = np.array([0.0, 0.2, 0.3, 0.5, 0.9, 1.0])
        ys = np.array([0.0, 0.6, 0.2, 1.0, 1.0, 0.0])
        f = gf.real_grid(np.interp(np.linspace(0, 1, 321), xs, ys), 0, 1, 320)
        decomp = ks.sigma_decompose(f)
        assert len(decomp.hats) == 2
        heights = sorted(h.height for h in decomp.hats)
        assert heights == pytest.approx([0.4, 1.0], abs=1e-9)
        defects = ks.decomposition_defects(decomp)
        assert defects["abs_sum"] <= 1e-9
        assert defects["overlap"] <= 1e-9
        assert defects["abs_integral"] <= 1e-8
        assert defects["variation"] <= 1e-8

    def test_alternating_signs_tracked(self):
        cfg_w1 = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        cfg_w2 = ks.indicator_weight(0.25, 0.75, 2.0, domain=(0, 1))
        decomp = ks.decompose_weights(cfg_w1, cfg_w2)
        assert [h.sign for h in decomp.hats] == [1.0, -1.0]


class TestSigmaRearrangement:
    def test_two_equal_hats_double_single(self):
        w1, w2 = _psi_pair_two_hats()
        decomp = ks.decompose_weights(w1, w2)
        xs = np.linspace(0, 1, 513)
        psi = np.interp(xs, decomp.source_xs, decomp.source_ys)
        R = ks.sigma_rearrangement(gf.real_grid(psi, 0, 1, 512))
        single = gf.real_grid(lambda t: min(t, 0.5 - t) if t <= 0.5 else 0.0, 0, 0.5, 256)
        r_single = ks.hardy_rearrangement(single)
        # R should equal twice the single-hat rearrangement (supports 0.5)
        at = np.linspace(0, 0.45, 50)
        expect = 2 * np.interp(at, r_single.nodes, r_single.data)
        got = np.interp(at, R.nodes, R.data)
        assert np.max(np.abs(got - expect)) <= 5e-3

    def test_single_hump_matches_hardy(self):
        f = gf.real_grid(lambda t: min(t, 1 - t), 0, 1, 512)
        R = ks.sigma_rearrangement(f)
        r = ks.hardy_rearrangement(f)
        assert np.max(np.abs(R.data - r.data)) <= 2e-3

    def test_zero_function(self):
        R = ks.sigma_rearrangement(gf.real_grid(lambda t: 0.0, 0, 1, 64))
        assert np.allclose(R.data, 0.0)

    def test_top_value_is_sum_of_heights(self):
        w1, w2 = _psi_pair_two_hats()
        decomp = ks.decompose_weights(w1, w2)
        xs = np.linspace(0, 1, 513)
        psi = np.interp(xs, decomp.source_xs, decomp.source_ys)
        R = ks.sigma_rearrangement(gf.real_grid(psi, 0, 1, 512))
        assert R.data[0] == pytest.approx(sum(h.height for h in decomp.hats), abs=1e-9)
        assert np.all(np.diff(R.data) <= 1e-12)


class TestGeneralBound:
    def test_reduces_to_two_weight_bound_on_disjoint_supports(self):
        assert ks.general_bound(W1, W2, wid) == pytest.approx(0.1875, abs=1e-10)
        assert ks.general_bound(W1, W2, wsq) == pytest.approx(ks.ks_bound(W1, W2, wsq), abs=1e-10)

    def test_identical_weights_vanish(self):
        w = ks.step_weight((0, 1), [(0.1, 0.6, 1.3)])
        assert ks.general_bound(w, w, wid) == 0.0

    def test_interval_mean_weights(self):
        w1 = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        w2 = ks.indicator_weight(0.25, 0.75, 2.0, domain=(0, 1))
        assert ks.general_bound(w1, w2, wid) == pytest.approx(0.125, abs=1e-12)

    def test_nonconcave_rejected(self):
        with pytest.raises(NonConcave):
            ks.general_bound(W1, W2, mo.PowerModulus(1, 2.0))

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            ks.general_bound(W1, ks.indicator_weight(0.5, 1, 1.0, domain=(0, 1)), wid)

    @pytest.mark.parametrize("omega", [wid, wsq, mo.minlin(1, 0.35)])
    def test_rearrangement_identity(self, omega):
        form_deriv, form_prime = ks.rearrangement_forms(W1, W2, omega)
        assert form_deriv == pytest.approx(form_prime, abs=1e-7)
        assert form_prime == pytest.approx(ks.ks_bound(W1, W2, omega), abs=1e-7)


class TestGlue:
    def test_two_equal_hats(self):
        w1, w2 = _psi_pair_two_hats()
        decomp = ks.decompose_weights(w1, w2)
        with pytest.raises(CannotCertify):
            # equal hats of the same sign cannot be glued (no alternation)
            ks.glue_extremal(decomp, wid, n=256)

    def test_alternating_two_hats_attain(self):
        w1 = ks.indicator_weight(0, 1, 1.0, domain=(0, 1))
        w2 = ks.indicator_weight(0.25, 0.75, 2.0, domain=(0, 1))
        decomp = ks.decompose_weights(w1, w2)
        assert ks.lengths_unimodal(decomp)
        g = ks.glue_extremal(decomp, wid, n=2048)
        eps = gf.eps_tolerance(wid, 1.0, 2048)
        assert gf.check_Homega(g, wid).member
        assert ks.functional_S(g, w1, w2) >= 0.125 - eps

    def test_single_hat_reduces_to_extremal(self):
        decomp = ks.decompose_weights(W1, W2)
        assert len(decomp.hats) == 1  # flat-top single hat
        g = ks.glue_extremal(decomp, wid, n=512)
        direct = ks.ks_extremal(W1, W2, wid, n=512)
        diff = np.asarray(g.data) - np.asarray(direct.data)
        assert np.max(np.abs(diff - diff[0])) <= 1e-10  # equal up to a constant

    def test_pathological_lengths_may_fail(self):
        # alternating humps with long-short-long supports: the sufficient
        # condition fails, so either a certified member is returned or the
        # gluing is refused
        w1 = ks.step_weight((0, 1.24), [(0.0, 0.3, 1.0), (0.62, 0.94, 1.0)])
        w2 = ks.step_weight((0, 1.24), [(0.3, 0.62, 1.0), (0.94, 1.24, 1.0)])
        decomp = ks.decompose_weights(w1, w2)
        assert [h.sign for h in decomp.hats] == [1.0, -1.0, 1.0]
        assert not ks.lengths_unimodal(decomp)
        try:
            g = ks.glue_extremal(decomp, wsq, n=1024)
        except CannotCertify:
            return
        assert gf.check_Homega(g, wsq).member
