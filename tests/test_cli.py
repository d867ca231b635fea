import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr import cli

# sha256 of the stdout of `verify --suite all --trials 20 --grid 128 --seed 7`
SEED7_SMALL_SHA256 = "062f75a9c394b6f5432ff49749054fab8287591c0bb556a24975c50d9cb907c8"
# sha256 of the stdout of `recover KIND --n 16 --h 0 --grid 1024 --trials 8 --seed 3`
RECOVER_SHA256 = {
    "convexify": "9e660225d7265e07d5c566de64ead3be37ca2c792b7adf762b44f0cf01676cf2",
    "integral": "1c16c1327bba6308784ac7689f4b6549ebe61f46d50c3707afbde366f14af353",
    "identity": "851b4991d8b9183210126bb775e36307afd6176e734a0edf5ad31d44803cd4c8",
    "derivative": "033ec03850334b9178fa8c43b7eb4574311c8315763e8eeeb6379eee033517fd",
}

_PM = ("--cd", "0.2,0.7", "--ab", "0,1", "--omega", "power:K=1,alpha=0.5")
_PAIR = ("--ab", "0,1", "--omega", "minlin:K=2,C=0.5")
# (argv, exit code, sha256 of stdout) of each `extremal` kind, of the
# ostrowski and landau suites and of two sweeps; the functionals behind
# them compare rows of grid data, and these digests keep their values bit
# for bit
PINNED_OUTPUTS = {
    "point-mean t=0": (
        ("extremal", "point-mean", "--t", "0", *_PM), 0,
        "c03a0540030f8f8bee2d78adc40529c810ae6cde9084237e26d963ae8d07e2ef",
    ),
    "point-mean t=0.1": (
        ("extremal", "point-mean", "--t", "0.1", *_PM), 0,
        "6cca0ce5aa94a44446682539a424515885cc58fc617ca035e44d847de35be013",
    ),
    "point-mean t=0.5": (
        ("extremal", "point-mean", "--t", "0.5", *_PM), 0,
        "193d37978bd83762c57af7f820baf21cb99a79442b0ea44b89006d0c5526a9fd",
    ),
    "point-mean t=0.9": (
        ("extremal", "point-mean", "--t", "0.9", *_PM), 0,
        "1af039cdbd0cfaafa52da1c78b0be9626bcc34b7dd5b5c4ccc1c15d16cb745e6",
    ),
    "point-mean t=1": (
        ("extremal", "point-mean", "--t", "1", *_PM), 0,
        "ff1a10b966cfa0e85d5627e0cb7f9c492fcfc19d04e2e52a80d2292ee29973e6",
    ),
    "pair t=0": (
        ("extremal", "pair", "--t", "0", *_PAIR), 0,
        "7d3974fe962bcebb9e086802b876c8ec98ee5e4972be5fa01c2c23f5f6ac4558",
    ),
    "pair t=0.1": (
        ("extremal", "pair", "--t", "0.1", *_PAIR), 0,
        "5ccd663eb65147260c55ff8d4f0dbfc40b9878099fc42716397bab35240539d2",
    ),
    "pair t=0.3": (
        ("extremal", "pair", "--t", "0.3", *_PAIR), 0,
        "3f52e9893b204a29541af3c0ca0bde04a015103284d1109f8acb07861d2b9bf3",
    ),
    "ks": (
        ("extremal", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1"), 0,
        "41e12e331d1f8240d71c678d5d36e6039b94784adc8f9ed2b29f4331bdc07229",
    ),
    "general": (
        ("extremal", "general", "--psi1", "0,1; 0,0.1,2; 0.1,0.3,0.5", "--psi2", "0,1; 0.8,1,1.5"), 0,
        "d64499114a843adc03f539eb521fa45f3dd351b03d569eed8abc61058e1c15c0",
    ),
    "ostrowski": (
        ("extremal", "ostrowski", "--ab", "0,1", "--cd", "0.25,0.75"), 0,
        "00efa2754e2d4c013aabc447eaaf22a15dcb40534cae913be37774472d67203b",
    ),
    "verify ostrowski": (
        ("verify", "--suite", "ostrowski", "--trials", "200", "--grid", "1024"), 0,
        "36ca7cdbce6441ccc18b72c69ddcda44f8a3b7f64002165c548e0c2f4986b09d",
    ),
    "verify landau": (
        ("verify", "--suite", "landau", "--trials", "200", "--grid", "1024"), 0,
        "85cf917b4882908c5a02d4dad55d9892ae7c1d8291904bfd6a006a297253f40c",
    ),
    # every --values entry of a sweep asks for the same sample stream
    "sweep integral": (
        ("sweep", "integral", "--values", "1,2,4", "--grid", "256", "--trials", "20"), 0,
        "3d57b496a0dadf8b11860e3d07184e2ec360afbe6b3d8f28c8b60241d6835ee4",
    ),
    "sweep identity": (
        ("sweep", "identity", "--values", "1,3", "--grid", "256", "--trials", "20"), 0,
        "bf405755d46f9feb4f51e8853d008c81ef45cac81e35e7520f2273730abd94b1",
    ),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _count_draws(monkeypatch):
    """Wrap ``oracle.sample_class``; the returned list collects each class
    sample it draws (injected candidates do not pass through it)."""
    from ksr import oracle as orc

    sample_class, seen = orc.sample_class, []

    def counting(spec):
        for f in sample_class(spec):
            seen.append(f)
            yield f

    monkeypatch.setattr(orc, "sample_class", counting)
    return seen


class TestBound:
    def test_ostrowski_nested(self, capsys):
        code, out, _ = run(
            capsys, "bound", "ostrowski", "--ab", "0,1", "--cd", "0.25,0.75",
            "--omega", "power:K=1,alpha=1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"bound": 0.125, "case": "Nested"}

    def test_two_weight_bound(self, capsys):
        code, out, _ = run(
            capsys, "bound", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1",
            "--omega", "power:K=1,alpha=1",
        )
        assert code == 0
        assert json.loads(out)["bound"] == 0.1875

    def test_general_matches_ks(self, capsys):
        args = ["--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1", "--omega", "power:K=1,alpha=1"]
        _, out1, _ = run(capsys, "bound", "ks", *args)
        _, out2, _ = run(capsys, "bound", "general", *args)
        assert json.loads(out1)["bound"] == pytest.approx(json.loads(out2)["bound"], abs=1e-10)

    def test_ks_on_touching_supports_matches_general(self, capsys):
        # the last paired segment gets a gap of -5.6e-17 from round-off
        args = ["--psi1", "0,1; 0.1,0.3,0.7", "--psi2", "0,1; 0.3,0.9,0.23333333333333328",
                "--omega", "power:K=1,alpha=0.5"]
        code, out1, _ = run(capsys, "bound", "ks", *args)
        assert code == 0
        _, out2, _ = run(capsys, "bound", "general", *args)
        assert json.loads(out1)["bound"] == pytest.approx(json.loads(out2)["bound"], abs=1e-7)

    def test_general_on_a_domain_of_length_1e300(self, capsys):
        # Psi crosses 0 where dx * (0 - y0) overflows
        code, out, _ = run(capsys, "bound", "general", "--psi1", "0,1e300; 0,3.125e299,1",
                           "--psi2", "0,1e300; 5e299,8.125000000000001e299,1", "--omega", "minlin:K=1,C=1")
        assert code == 0 and math.isfinite(json.loads(out)["bound"])

    def test_point_mean_and_pair(self, capsys):
        code, out, _ = run(capsys, "bound", "point-mean", "--t", "0.5", "--cd", "0,1")
        assert code == 0 and json.loads(out)["bound"] == 0.25
        code, out, _ = run(capsys, "bound", "pair", "--t", "0", "--ab", "0,1")
        assert code == 0 and json.loads(out)["bound"] == 0.25

    def test_point_mean_with_subnormal_minlin_slope(self, capsys):
        # C/K overflows to inf, yet min(K t, C) is a valid modulus
        code, out, err = run(capsys, "bound", "point-mean", "--cd", "0,1", "--t", "0.5",
                             "--omega", "minlin:K=2.2e-309,C=1")
        assert (code, err) == (0, "")
        assert 0.0 < json.loads(out)["bound"] < 2.2e-309


class TestExitCodes:
    def test_parse_error_is_one(self, capsys):
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys, "bound", "nope")[0] == 1
        for bad in ("nan", "inf", "-inf"):
            assert run(capsys, "bound", "point-mean", "--cd", "0,1", "--t", bad)[:2] == (1, "")
            assert run(capsys, "delta-recover", "--h", bad)[:2] == (1, "")
            assert run(capsys, "landau", "--variant", "b", "--h", "0.2", "--gamma", bad)[:2] == (1, "")

    def test_nonpositive_trials_and_grid_are_parse_errors(self, capsys, tmp_path):
        for argv in (
            ["recover", "integral", "--trials", "-5"],
            ["recover", "integral", "--trials", "0"],
            ["recover", "integral", "--grid", "0"],
            ["verify", "--grid", "0"],
            ["verify", "--trials", "-1"],
            ["verify", "--trials", "1.5"],
            ["sweep", "integral", "--values", "1", "--trials", "0"],
            ["sweep", "integral", "--values", "1", "--grid", "-4"],
            ["recover", "identity", "--n", "0"],
            ["recover", "derivative", "--n", "0"],
            ["recover", "integral", "--n", "-2"],
            ["sweep", "integral", "--values", "0,-1"],
            ["sweep", "integral", "--values", "2,abc"],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "") and "expected a positive integer" in err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials=-5\n")
        assert run(capsys, "--config", str(cfg), "recover", "integral")[:2] == (1, "")

    def test_precondition_violation_is_two(self, capsys):
        code, _, err = run(
            capsys, "bound", "ostrowski", "--ab", "0,1", "--cd", "0.25,0.75",
            "--omega", "power:K=1,alpha=2",
        )
        assert code == 2
        assert "InvalidModulus" in err
        for bad in ("nan", "inf", "-inf"):
            code, out, err = run(
                capsys, "bound", "ostrowski", "--ab", "0,1", "--cd", "0.25,0.75",
                "--omega", f"power:K={bad},alpha=1",
            )
            assert (code, out) == (2, "") and "InvalidModulus" in err
            code, out, _ = run(capsys, "bound", "ostrowski", "--ab", f"0,{bad}", "--cd", "0.25,0.75")
            assert (code, out) == (2, "")
            code, out, _ = run(capsys, "bound", "point-mean", f"--cd={bad},1", "--t", "0.5")
            assert (code, out) == (2, "")
        # finite inputs whose bound overflows: no NaN/Infinity on stdout
        code, out, _ = run(capsys, "bound", "ostrowski", "--ab=-1e308,1e308", "--cd", "0.25,0.75")
        assert (code, out) == (2, "")

    def test_nonconcave_diagnostic_names_hypothesis(self, capsys):
        code, _, err = run(
            capsys, "extremal", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1",
            "--omega", "minlin:K=1,C=0.5", "--grid", "64",
        )
        assert code == 0  # minlin is concave: fine
        # a genuinely nonconcave request comes from the validator instead
        code, _, err = run(capsys, "recover", "integral", "--omega", "power:K=1,alpha=1.5")
        assert code == 2

    def test_nonfinite_step_weights_are_two(self, capsys):
        code, out, err = run(
            capsys, "bound", "general", "--psi1", "0,1; 0,0.25,inf", "--psi2", "0,1; 0.75,1,inf",
        )
        assert (code, out) == (2, "") and "non-finite" in err
        code, out, _ = run(capsys, "bound", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,inf; 0.75,1,1")
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "bound", "ks", "--psi1", "0,1; nan,0.25,1", "--psi2", "0,1; 0.75,1,1")
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "bound", "ks", "--psi2", "0,1; 0.75,1,1")  # no --psi1
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("psi1, message", [
        ("0,1; 0,0.5", "weight piece '0,0.5' needs 3 finite numbers u,v,w, not 2"),
        ("0,1,2; 0,0.5,1", "weight domain '0,1,2' needs 2 finite numbers a,b, not 3"),
        ("0,1; 0,x,1", "weight piece '0,x,1' needs 3 finite numbers u,v,w, and 'x' is not a number"),
        ("0,1; 0,0.5,1,", "weight piece '0,0.5,1,' needs 3 finite numbers u,v,w, not 4"),
        ("0,1; 0, ,1", "weight piece '0, ,1' needs 3 finite numbers u,v,w, and '' is not a number"),
        ("0,nan; 0,0.5,1", "weight domain '0,nan' needs 2 finite numbers a,b, and 'nan' is non-finite"),
    ])
    @pytest.mark.parametrize("kind", ["general", "ks"])
    def test_malformed_weight_chunks_are_named(self, capsys, kind, psi1, message):
        code, out, err = run(capsys, "bound", kind, "--psi1", psi1, "--psi2", "0,1; 0.75,1,2")
        assert (code, out, err) == (2, "", f"ValueError: {message}\n")

    def test_overflowing_weight_mass_is_refused(self, capsys):
        # a mass of 2e308 against 2: the mass check compared them in units
        # of an infinite mass and let the pair through
        code, out, err = run(capsys, "bound", "general", "--psi1", "0,4; 0,2,1e308", "--psi2", "0,4; 1,3,1")
        assert (code, out, err) == (2, "", "ValueError: weight mass overflows: inf\n")

    def test_nonfinite_result_names_its_field(self, capsys):
        # h = 1e-320 leaves 1/h = inf in the operator-norm budget
        code, out, err = run(capsys, "landau", "--t", "0.5", "--h", "1e-320", "--ab", "0,1")
        assert (code, out) == (2, "")
        assert err.startswith("ValueError: result not finite: norm_budget = inf")

    def test_nonfinite_fields_are_listed_with_their_paths(self):
        payload = {"a": 1.0, "w": {"h1": float("nan"), "h2": 0.5}, "s": [{"got": -math.inf}], "k": "x"}
        assert cli._nonfinite_fields(payload) == ["s[0].got = -inf", "w.h1 = nan"]

    @pytest.mark.parametrize("argv, quantity", [
        (("bound", "point-mean", "--t", "1e300", "--cd", "0,1"), "point-mean I(t - d, t - c)"),
        (("bound", "point-mean", "--t", "0.5", "--cd", "0,1e308"), "point-mean I(0, d - t)"),
        (("bound", "point-mean", "--t=-1e300", "--cd", "0,1", "--omega", "plconcave:0,0;1,1;2,1.5"),
         "point-mean I(c - t, d - t)"),
        (("bound", "pair", "--t", "0.1", "--ab", "0,1e308"), "pair I(0, (a + b) / 2 - t)"),
        *((("bound", "point-mean", "--ab", "0,4", "--cd", "0,4", "--t", "0", "--omega", omega),
           "point-mean I(c - t, d - t)")
          for omega in ("power:K=1e308,alpha=1", "minlin:K=1e308,C=1.7e308", "plconcave:0,0;1,1e308;2,1.5e308")),
    ])
    def test_overflow_names_its_quantity(self, capsys, argv, quantity):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"OverflowError: {quantity}, the integral of the modulus over [")
        assert err.rstrip().endswith("overflows")

    @pytest.mark.parametrize("argv", [
        ("bound", "general", "--psi1", "0,1e308;0,1e307,1", "--psi2", "0,1e308;5e307,1e308,0.2"),
        ("recover", "integral", "--n", "2", "--ab", "0,1e300", "--grid", "64", "--trials", "4"),
        ("sweep", "identity", "--values", "1,2", "--ab", "0,1e300", "--grid", "64", "--trials", "4"),
    ], ids=lambda argv: argv[0])
    def test_primitive_overflow_names_its_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("OverflowError: ") and "the integral of the modulus over [" in err

    def test_ks_rejects_a_polyline_subadditive_only_on_a_grid(self, capsys):
        # w(0.501) = 0.502 > w(0.5) + w(0.001): no 64-point grid on [0, 2] sees it
        code, out, err = run(capsys, "bound", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1",
                             "--omega", "plconcave:0,0;0.5,0.5;0.501,0.502;0.502,0.502;1,1")
        assert (code, out) == (2, "")
        assert err.startswith("InvalidModulus") and "not subadditive, witness (0.5, 0.0010000000000000009)" in err

    @pytest.mark.parametrize("b", ["1e308", "1e200"])
    def test_ostrowski_overflow_names_its_quantity(self, capsys, b):
        code, out, err = run(capsys, "bound", "ostrowski", "--ab", f"0,{b}", "--cd", "0,1")
        assert (code, out) == (2, "")
        assert err.startswith(f"OverflowError: two-interval M ** 2, the square of the longer length M = {float(b)!r}")
        assert err.rstrip().endswith("overflows")

    @pytest.mark.parametrize("t, quantity", [
        ("1e16", "I(t - d, t - c)"), ("1e300", "I(t - d, t - c)"), ("-1e16", "I(c - t, d - t)"),
    ])
    def test_point_mean_refuses_a_lost_width(self, capsys, t, quantity):
        # t - d and t - c round to one float, so the integral over the
        # distance range would read 0 where the bound is 1
        code, out, err = run(capsys, "bound", "point-mean", f"--t={t}", "--cd", "0,1", "--omega", "minlin:K=1,C=1")
        assert (code, out) == (2, "")
        assert err.startswith(f"ArithmeticError: point-mean {quantity}: the range [")
        assert "has float width 0.0, not d - c = 1.0" in err

    @pytest.mark.parametrize("ab, cd", [("0,1", "1e16,1.0000000000000004e16"), ("1e16,1.0000000000000004e16", "0,1")])
    def test_disjoint_ostrowski_refuses_a_lost_width(self, capsys, ab, cd):
        # c - b = 1e16 - 1 rounds to 1e16, so the distance range [c - b, d - a]
        # reads 4 wide, not M + m = 5, and its integral would give 0.8 where
        # the bound is 1
        code, out, err = run(capsys, "bound", "ostrowski", "--ab", ab, "--cd", cd, "--omega", "minlin:K=1,C=1")
        assert (code, out) == (2, "")
        assert err.startswith("ArithmeticError: two-interval I(c - b, d - a): the range [")
        assert "has float width 4.0, not M + m = 5.0" in err

    def test_disjoint_ostrowski_far_but_wide_enough(self, capsys):
        code, out, _ = run(capsys, "bound", "ostrowski", "--ab", "0,1", "--cd", "1e6,1000004", "--omega", "minlin:K=1,C=1")
        assert code == 0 and json.loads(out)["bound"] == 1.0

    def test_point_mean_far_but_wide_enough(self, capsys):
        code, out, _ = run(capsys, "bound", "point-mean", "--t", "1e6", "--cd", "0,1", "--omega", "minlin:K=1,C=1")
        assert code == 0 and json.loads(out)["bound"] == 1.0

    def test_verify_failure_is_three(self, capsys, monkeypatch):
        from ksr import oracle as orc

        monkeypatch.setitem(
            orc.SUITES, "alwaysfail",
            lambda trials, grid, seed: {"suite": "alwaysfail", "pass": False, "checks": []},
        )
        code, out, _ = run(capsys, "verify", "--suite", "alwaysfail", "--trials", "1", "--grid", "64")
        assert code == 3


class TestRecover:
    def test_integral_report(self, capsys):
        code, out, _ = run(
            capsys, "recover", "integral", "--n", "2", "--h", "0.05",
            "--omega", "power:K=1,alpha=1", "--ab", "0,1", "--trials", "10", "--grid", "256",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theoretical"] == pytest.approx(0.1, abs=1e-12)
        assert payload["sound"] and payload["attained"]
        assert payload["gap"] <= payload["tolerance"]

    def test_identity_with_extremal_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "spline.csv"
        code, out, _ = run(
            capsys, "recover", "identity", "--n", "2", "--omega", "power:K=1,alpha=1",
            "--trials", "5", "--grid", "256", "--out", str(out_csv),
        )
        assert code == 0
        _, v = np.loadtxt(out_csv, delimiter=",", skiprows=1, unpack=True)
        assert float(np.max(np.abs(v))) == pytest.approx(1 / 32, abs=1e-9)

    def test_extremal_csv_with_default_width(self, capsys, tmp_path):
        # --h 0 picks the width inside the experiment; the CSV is the
        # profile that experiment certified
        out_csv = tmp_path / "mean.csv"
        code, out, _ = run(
            capsys, "recover", "convexify", "--n", "4", "--h", "0", "--trials", "2",
            "--grid", "256", "--out", str(out_csv),
        )
        assert code == 0
        _, v = np.loadtxt(out_csv, delimiter=",", skiprows=1, unpack=True)
        # the lower bound is half the distance between the lifted +/- profiles
        assert float(np.max(np.abs(v))) == pytest.approx(json.loads(out)["lower_bound"], abs=1e-9)

    def test_derivative_report(self, capsys):
        code, out, _ = run(capsys, "recover", "derivative", "--n", "4", "--grid", "512", "--trials", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["sound"] is True and payload["attained"] is True

    def test_derivative_where_a_node_rounds_into_the_next_cell(self, capsys):
        # on [-0.3, 2.1] a grid point a hair below the middle node falls
        # in the second cell, one ulp more than a cell width from its end
        code, out, err = run(capsys, "recover", "derivative", "--ab=-0.3,2.1", "--n", "2", "--grid", "64", "--trials", "4")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["sound"] is True and payload["attained"] is True

    def test_recover_and_sweep_take_the_recovery_kinds(self):
        from ksr import oracle as orc

        for command in ("recover", "sweep"):
            sub = cli._shared_parser()._subparsers._group_actions[0].choices[command]
            kind = next(a for a in sub._actions if a.dest == "kind")
            assert tuple(kind.choices) == orc.RECOVERY_KINDS

    @pytest.mark.parametrize("ab,attained", [
        ("0,1", True),  # lower bound 0.225 against 0.1, tolerance 1
        ("0,10", False),  # lower bound 24.75 against 12.25, tolerance 10
    ])
    def test_attained_is_two_sided(self, capsys, ab, attained):
        code, out, _ = run(capsys, "recover", "integral", "--ab", ab, "--grid", "2", "--trials", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_bound"] > payload["theoretical"]
        assert payload["attained"] is attained

    def test_identity_on_a_wide_domain(self, capsys):
        # the spline's node residuals are checked relative to its size
        # (about 1.4e10 here), not against an absolute 1e-7
        code, out, _ = run(capsys, "recover", "identity", "--n", "3", "--ab", "0,1000000")
        assert code == 0
        assert json.loads(out)["attained"] is True

    def test_identity_on_a_far_off_domain(self, capsys):
        # the spline is built local to a: at 1e15 the float spacing is
        # 0.125, so absolute coordinates left node residuals of about 20
        argv = ["recover", "identity", "--n", "3", "--grid", "64", "--trials", "4"]
        code, out, err = run(capsys, *argv, "--ab", "1e15,1.000000000001e15")
        assert code == 0, err
        code0, out0, _ = run(capsys, *argv, "--ab", "0,1000")
        assert code0 == 0
        far, near = json.loads(out), json.loads(out0)
        assert (far["theoretical"], far["lower_bound"]) == (near["theoretical"], near["lower_bound"])
        # the sweep reads node values and builds its polyline local to a
        # too, so the same sample stream gives the same error on both domains
        assert far["empirical_upper"] == near["empirical_upper"] == 15496.874192065676
        assert out == out0

    @pytest.mark.parametrize("trials,drawn", [(5, 5), (1, 3), (8, 8)])
    def test_trials_field_counts_samples_drawn(self, capsys, monkeypatch, trials, drawn):
        seen = _count_draws(monkeypatch)
        code, out, _ = run(capsys, "recover", "integral", "--trials", str(trials), "--grid", "64")
        assert code == 0
        # the injected extremal is not a class sample and is not counted
        assert json.loads(out)["trials"] == len(seen) == drawn

    @pytest.mark.parametrize("kind,h", [("convexify", "-1"), ("integral", "-0.01")])
    def test_negative_half_width_rejected(self, capsys, kind, h):
        # only --h 0 selects the default half-width
        code, out, err = run(capsys, "recover", kind, "--h", h, "--trials", "3", "--grid", "64")
        assert code == 2 and out == "" and "KnotViolation" in err

    @pytest.mark.parametrize("kind", sorted(RECOVER_SHA256))
    def test_pinned_digest(self, capsys, kind):
        argv = ["recover", kind, "--n", "16", "--h", "0", "--grid", "1024", "--trials", "8", "--seed", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == RECOVER_SHA256[kind]


class TestLandauFamily:
    def test_landau_variant_e(self, capsys):
        code, out, _ = run(capsys, "landau", "--variant", "e", "--t", "0.5", "--h", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["extremal_sup_norm"] == pytest.approx(0.045, abs=1e-12)
        assert payload["value"] == pytest.approx(0.15, abs=1e-12)

    def test_landau_variant_b_needs_gamma(self, capsys):
        code, _, err = run(capsys, "landau", "--variant", "b", "--t", "0.5", "--h", "0.2")
        assert code == 2 and "WindowViolation" in err

    def test_stechkin(self, capsys):
        code, out, _ = run(capsys, "stechkin", "--target", "derivative", "--h", "0.2", "--t", "0.5")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.1, abs=1e-12)

    def test_delta_recover(self, capsys):
        code, out, _ = run(capsys, "delta-recover", "--t", "0.5", "--h", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(0.005, abs=1e-12)
        assert payload["value"] == pytest.approx(0.1, abs=1e-12)


class TestVerify:
    def test_single_suite_green(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lspace", "--trials", "50", "--grid", "128")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_byte_identical_reruns(self, capsys):
        argv = ["verify", "--suite", "all", "--trials", "20", "--grid", "128", "--seed", "7"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        # pins the sample stream; a change that moves it on purpose updates
        # this digest and says which reported values moved
        assert hashlib.sha256(out1.encode()).hexdigest() == SEED7_SMALL_SHA256

    @pytest.mark.parametrize("trials,drawn", [(1, 3), (2, 3), (5, 5)])
    def test_trials_field_counts_samples_drawn(self, capsys, monkeypatch, trials, drawn):
        seen = _count_draws(monkeypatch)
        code, out, _ = run(capsys, "verify", "--suite", "ks", "--trials", str(trials), "--grid", "64")
        assert code == 0
        # the ks suite runs one sweep; its injected extremals are not counted
        assert json.loads(out)["trials"] == len(seen) == drawn


class TestSweep:
    def test_integral_convergence(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "integral", "--values", "1,2,4", "--trials", "5", "--grid", "256",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,theoretical,empirical,gap"
        rows = [line.split(",") for line in lines[1:]]
        theos = [float(r[1]) for r in rows]
        # near the vanishing-width limit the value scales like 1/n
        assert theos[0] / theos[1] == pytest.approx(2.0, abs=1e-9)
        assert theos[1] / theos[2] == pytest.approx(2.0, abs=1e-9)
        gaps = [abs(float(r[3])) for r in rows]
        assert max(gaps) <= 2e-2

    def test_identity_quarters_per_doubling(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "identity", "--values", "1,2,4", "--trials", "4", "--grid", "256",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        theos = [float(r[1]) for r in rows]
        assert theos[0] / theos[1] == pytest.approx(4.0, abs=1e-9)

    def test_values_share_one_stream(self, capsys, monkeypatch):
        seen = _count_draws(monkeypatch)
        code, _, _ = run(capsys, "sweep", "integral", "--values", "1,2,4", "--trials", "5", "--grid", "64")
        assert code == 0
        assert len(seen) == 5  # drawn once for the three n

    def test_negative_half_width_rejected(self, capsys):
        # only --h 0 selects the default half-width
        code, out, err = run(capsys, "sweep", "convexify", "--values", "2", "--h", "-1", "--trials", "3")
        assert code == 2 and out == "" and "KnotViolation" in err

    def test_empty_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "integral", "--values", "")
        assert code == 0
        assert out.strip() == "param,theoretical,empirical,gap"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestFuzz:
    """Any float on the command line gives a documented failure or valid JSON."""

    @staticmethod
    def call(*argv):
        """Exit code, stdout and stderr; a failure must exit 1 or 2 and print
        nothing."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0:
            assert code in (1, 2) and out.getvalue() == "", (code, out.getvalue())
        return code, out.getvalue(), err.getvalue()

    @classmethod
    def check(cls, *argv):
        code, out, _ = cls.call(*argv)
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)

    @classmethod
    def check_omega(cls, omega):
        """A modulus draw through a closed form, a bound over weights and a
        sampled recovery."""
        cls.check("bound", "point-mean", "--cd", "0,1", "--t", "0.5", "--omega", omega)
        cls.check("bound", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1", "--omega", omega)
        cls.check("recover", "integral", "--grid", "16", "--trials", "2", "--omega", omega)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=25, deadline=None)
    def test_point_mean_t(self, x):
        self.check("bound", "point-mean", "--cd", "0,1", f"--t={x!r}")

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=25, deadline=None)
    def test_power_K(self, x):
        self.check_omega(f"power:K={x!r},alpha=1")

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=25, deadline=None)
    def test_psi_heights(self, x):
        for kind in ("ks", "general"):
            self.check("bound", kind, "--psi1", f"0,1; 0,0.25,{x!r}", "--psi2", f"0,1; 0.75,1,{x!r}")

    @given(st.floats(allow_nan=True, allow_infinity=True), st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=25, deadline=None)
    def test_segments(self, x, y):
        pair = f"{x!r},{y!r}"
        self.check("bound", "ostrowski", "--ab", pair, "--cd", "0.25,0.75")
        self.check("bound", "symmetric", "--ab", "0,1", "--cd", pair)
        self.check("bound", "point-mean", "--cd", pair, "--t", "0.5")
        self.check("bound", "pair", "--ab", pair, "--t", "0.25")
        self.check("delta-recover", "--ab", pair, "--h", "0.1")

    @staticmethod
    @st.composite
    def weight_pair(draw):
        """Two weight specs of 1-64 pieces each on a drawn domain, balanced
        or not, on one support or on two sides of a split, with heights
        from subnormal to huge."""
        a = draw(st.sampled_from([0.0, -1.0, 0.5, -1e6, 1e-300, -1e300]))
        length = draw(st.sampled_from([1.0, 1e-3, 2.5, 1e5, 1e300, 5e-324]))
        height = st.one_of(st.floats(0.5, 2.0), st.sampled_from([5e-324, 1e-310, 1e-150, 1e150, 1e300, 1.7e308]))
        split = draw(st.sampled_from([None, 0.5, 0.3]))

        def pieces(lo, hi):
            k = draw(st.integers(1, 64))
            edges = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k)))
            heights = draw(st.lists(height, min_size=k, max_size=k))
            return [(a + length * (lo + (hi - lo) * u), a + length * (lo + (hi - lo) * v), w)
                    for u, v, w in zip(edges[::2], edges[1::2], heights)]

        p1 = pieces(0.0, 1.0 if split is None else split)
        p2 = pieces(0.0 if split is None else split, 1.0)
        if draw(st.booleans()):  # scale the second weight to the first one's mass
            m1 = sum(w * (v - u) for u, v, w in p1)
            m2 = sum(w * (v - u) for u, v, w in p2)
            p2 = [(u, v, w * (m1 / m2)) for u, v, w in p2] if m2 > 0.0 else p2

        def spec(ps):
            return "; ".join([f"{a!r},{a + length!r}", *(f"{u!r},{v!r},{w!r}" for u, v, w in ps)])

        return spec(p1), spec(p2)

    @given(st.sampled_from(["general", "ks"]), weight_pair())
    @settings(max_examples=60, deadline=None)
    def test_weight_specs(self, kind, pair):
        # each run gives finite JSON, or exits 1 or 2 with a named error
        psi1, psi2 = pair
        code, out, err = self.call("bound", kind, "--psi1", psi1, "--psi2", psi2, "--omega", "power:K=1,alpha=0.5")
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert re.match(r"[A-Z][A-Za-z]+: \S", err), err

    def test_missing_segments(self):
        for kind in ("ostrowski", "symmetric", "point-mean", "pair"):
            self.check("bound", kind, "--t", "0.25")

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=25, deadline=None)
    def test_h_and_gamma(self, x):
        self.check("landau", "--variant", "e", f"--h={x!r}")
        self.check("landau", "--variant", "b", "--h", "0.2", f"--gamma={x!r}")
        self.check("stechkin", "--target", "divdiff", f"--h={x!r}", "--gamma", "0.05")
        self.check("stechkin", "--target", "derivative", f"--h={x!r}")
        self.check("delta-recover", f"--h={x!r}")

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_plconcave_knots(self, xs):
        knots = ";".join(f"{t!r},{v!r}" for t, v in zip(xs[::2], xs[1::2]))
        self.check_omega(f"plconcave:{knots}")

    @pytest.mark.parametrize("knots", ["", "0,0", "0.5,0.4", "0,0;", "0,0;0.5", "0,0;0.5,0.4,1"])
    def test_plconcave_malformed(self, knots):
        self.check_omega(f"plconcave:{knots}")

    @given(st.floats(allow_nan=True, allow_infinity=True), st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=25, deadline=None)
    def test_minlin(self, k, c):
        self.check_omega(f"minlin:K={k!r},C={c!r}")

    # bounded, so that no draw allocates a huge grid
    COUNT = st.one_of(st.integers(-5, 300).map(str), st.sampled_from(["", "1.5", "abc", "2,,3", "nan"]))
    KIND = st.sampled_from(["convexify", "integral", "identity", "derivative"])

    @given(KIND, COUNT)
    @settings(max_examples=25, deadline=None)
    def test_recover_n(self, kind, n):
        self.check("recover", kind, f"--n={n}", "--grid", "64", "--trials", "4")

    @given(KIND, st.lists(COUNT, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_sweep_values(self, kind, values):
        code, out, _ = self.call("sweep", kind, "--values=" + ",".join(values), "--grid", "64", "--trials", "4")
        if code == 0:
            header, *rows = out.splitlines()
            assert header == "param,theoretical,empirical,gap"
            for row in rows:
                param, *nums = row.split(",")
                assert int(param) >= 1 and len(nums) == 3
                assert all(math.isfinite(float(x)) for x in nums)


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=0.5\nh=0.1\nab=0,1\n")
        code, out, _ = run(capsys, "--config", str(cfg), "delta-recover")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.1, abs=1e-12)
        code, out, _ = run(capsys, "--config", str(cfg), "delta-recover", "--h", "0.2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.2, abs=1e-12)
        cfg.write_text("t=nan\nh=0.1\n")
        assert run(capsys, "--config", str(cfg), "delta-recover")[:2] == (1, "")
        assert run(capsys, "--config", str(tmp_path / "missing.cfg"), "delta-recover", "--h", "0.1")[:2] == (1, "")

    # the second config fails on t after its omega is applied to `bound`
    @pytest.mark.parametrize("config", ["t=0.95\nh=0.1\n", "omega=power:K=2,alpha=1\nh=0.1\nt=nan\n"])
    def test_config_applies_to_its_call_only(self, capsys, tmp_path, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        probe = ("bound", "point-mean", "--cd", "0,1", "--t", "0.5")
        before = run(capsys, *probe)
        run(capsys, "--config", str(cfg), "delta-recover")
        # --h is required again, and --t is back at its default 0.5: a
        # leaked t = 0.95 would clamp h2 to 1 - 0.95
        assert run(capsys, "delta-recover")[:2] == (1, "")
        code, out, _ = run(capsys, "landau", "--h", "0.1")
        assert code == 0 and json.loads(out)["windows"]["h2"] == 0.1
        assert run(capsys, *probe) == before


class TestExtremalExport:
    def test_csv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        code, out, _ = run(
            capsys, "extremal", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1",
            "--omega", "power:K=1,alpha=1", "--grid", "256", "--out", str(path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["attained"] == pytest.approx(payload["target"], abs=1e-9)
        t, v = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert len(t) == 257 and path.read_text().startswith("t,v\n")
        assert np.max(np.abs(v - (t - 0.5))) <= 1e-12


class TestExtremalDomain:
    """``extremal point-mean`` evaluates its extremal at t, so t must lie in
    the extremal's domain [min(a, c), max(b, d)]; at grid nodes the
    attained value is the target."""

    @pytest.mark.parametrize("t,extra", [("5", ()), ("-0.25", ()), ("1e300", ()), ("1.5", ("--ab=-1,1.25",))])
    def test_t_outside_the_domain_is_two(self, capsys, t, extra):
        code, out, err = run(capsys, "extremal", "point-mean", "--t", t, "--cd", "0,1", "--grid", "64", *extra)
        assert (code, out) == (2, "")
        assert err.startswith("DomainViolation") and f"t = {float(t)}" in err and "domain [" in err

    @pytest.mark.parametrize("t,extra", [("0", ()), ("1", ()), ("0.25", ()), ("-1", ("--ab=-1,0.5",)),
                                         ("1.25", ("--ab=-1,1.25",))])
    def test_t_in_the_domain_attains_the_target(self, capsys, t, extra):
        code, out, _ = run(capsys, "extremal", "point-mean", "--t", t, "--cd", "0,1", "--grid", "64", *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["attained"] == pytest.approx(payload["target"], abs=1e-9)


class TestUnwritableOut:
    """An --out file that cannot be written exits 2 with empty stdout."""

    @pytest.mark.parametrize("argv", [
        ("extremal", "ks", "--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1", "--grid", "64"),
        ("recover", "identity", "--n", "2", "--grid", "64", "--trials", "4"),
        ("landau", "--variant", "e", "--h", "0.2", "--grid", "64"),
        ("sweep", "identity", "--values", "1,2", "--grid", "64", "--trials", "4"),
    ], ids=lambda argv: argv[0])
    def test_exit_two(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("FileNotFoundError: ") and str(path) in err


class TestSlowSlopeRise:
    # slopes 1, 1 + 2**-40, 1 + 2**-39: each step is within the 1e-12
    # slack, the total rise is not
    OMEGA = "plconcave:0,0;1,1;2,{};3,{}".format(repr(2 + 2 ** -40), repr(3 + 3 * 2 ** -40))

    PSI = ("--psi1", "0,1; 0,0.25,1", "--psi2", "0,1; 0.75,1,1")

    def test_general_needs_concavity(self, capsys):
        code, out, err = run(capsys, "bound", "general", *self.PSI, "--omega", self.OMEGA)
        assert (code, out) == (2, "") and err.startswith("NonConcave")

    @pytest.mark.parametrize("argv", [("bound", "ks", *PSI), ("bound", "point-mean", "--cd", "0,1", "--t", "0.5")])
    def test_valid_bounds_still_answer(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--omega", self.OMEGA)
        assert code == 0 and json.loads(out)["bound"] > 0.0


def test_bound_and_recover_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, a cost each fresh
    # process would pay; the breakpoint and level sets are deduplicated
    # without it
    code = (
        "import sys\n"
        "from ksr import cli\n"
        "assert cli.main(['bound', 'general', '--psi1', '0,1; 0,0.1,2; 0.1,0.3,0.5',"
        " '--psi2', '0,1; 0.8,1,1.5']) == 0\n"
        "assert cli.main(['recover', 'identity', '--n', '4', '--grid', '256', '--trials', '4']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_delta_recover_rejects_a_one_point_domain(capsys):
    # the same windows as `landau --variant e`, which rejects them too
    for argv in (("delta-recover",), ("landau", "--variant", "e")):
        code, out, err = run(capsys, *argv, "--ab", "0.5,0.5", "--t", "0.5", "--h", "0.1")
        assert (code, out) == (2, "") and err.startswith("WindowViolation")


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_pinned_output(capsys, name):
    argv, want_code, digest = PINNED_OUTPUTS[name]
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
