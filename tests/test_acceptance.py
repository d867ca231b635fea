"""Acceptance gate: every criterion is checked at full scale
(trials = 1000, grid = 4096, seed = 7) against the certification report
produced by the command-line ``verify`` entry point, and one PASS/FAIL
line is printed per criterion.

The report is generated once (and a second time for the determinism
criterion); individual tests then assert the named checks.
"""

import contextlib
import hashlib
import io
import json
import time

import pytest

from ksr import cli

TRIALS = 1000
GRID = 4096
SEED = 7
# sha256 of the stdout of `verify --suite all --trials 1000 --grid 4096 --seed 7`
SEED7_SHA256 = "e2c1a6c884027110b304f1a22255341570e6869a7b0facfaff6d0fa1892efc0f"


@pytest.fixture(scope="module")
def verify_runs():
    argv = [
        "verify", "--suite", "all",
        "--trials", str(TRIALS), "--grid", str(GRID), "--seed", str(SEED),
    ]
    outputs = []
    codes = []
    t0 = time.time()
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(list(argv)))
        outputs.append(buf.getvalue())
    elapsed = time.time() - t0
    report = json.loads(outputs[0])
    return {"outputs": outputs, "codes": codes, "report": report, "elapsed": elapsed}


def _suite(report, name):
    for s in report["suites"]:
        if s["suite"] == name:
            return s
    raise AssertionError(f"suite {name} missing from the report")


def _checks(report, name):
    return {c["name"]: c for c in _suite(report, name)["checks"]}


def _announce(capsys, num, ok, text):
    with capsys.disabled():
        print(f"ACCEPTANCE criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_two_weight_bound(verify_runs, capsys):
    checks = _checks(verify_runs["report"], "ks")
    ok = (
        abs(checks["closed-form bound"]["got"] - 0.1875) <= 1e-12
        and checks["extremal is t - 1/2"]["pass"]
        and checks["soundness sweep"]["pass"]
        and checks["injected extremal attains"]["pass"]
    )
    _announce(capsys, 1, ok, "two-weight functional = 0.1875, extremal t - 1/2 attains it")


def test_criterion_02_rearrangement_identity(verify_runs, capsys):
    suite = _suite(verify_runs["report"], "eq12")
    n_configs = sum(1 for c in suite["checks"] if "rearranged vs direct" in c["name"])
    ok = suite["pass"] and n_configs >= 5
    _announce(capsys, 2, ok, f"rearrangement identity holds to 1e-7 on {n_configs} configurations")


def test_criterion_03_general_estimate_reduction(verify_runs, capsys):
    checks = _checks(verify_runs["report"], "general")
    ok = (
        abs(checks["target value"]["got"] - 0.125) <= 1e-12
        and checks["general equals two-interval closed form"]["pass"]
        and checks["glued extremal attains"]["pass"]
        and checks["soundness sweep"]["pass"]
    )
    _announce(capsys, 3, ok, "general estimate = two-interval bound = 0.125, glued extremal attains")


def test_criterion_04_interval_mean_bounds(verify_runs, capsys):
    checks = _checks(verify_runs["report"], "ostrowski")
    ok = (
        abs(checks["point-vs-mean midpoint value"]["got"] - 0.25) <= 1e-12
        and abs(checks["symmetrized pair value at t=a"]["got"] - 0.25) <= 1e-12
        and abs(checks["point-vs-mean sqrt value at t=0"]["got"] - 2 / 3) <= 1e-12
        and checks["point-vs-mean attained"]["pass"]
        and checks["point-vs-mean sqrt attained"]["pass"]
        and checks["symmetrized pair attained"]["pass"]
        and checks["point-vs-mean soundness"]["pass"]
        and checks["symmetrized pair soundness"]["pass"]
    )
    _announce(capsys, 4, ok, "point-vs-mean 0.25 (and 2/3 for sqrt), symmetrized pair 0.25, attained")


def test_criterion_05_recovery_values(verify_runs, capsys):
    checks = _checks(verify_runs["report"], "recovery")
    ok = (
        abs(checks["convexify value"]["got"] - 0.25) <= 1e-12
        and abs(checks["integral value"]["got"] - 0.1) <= 1e-12
        and abs(checks["identity value"]["got"] - 1 / 32) <= 1e-12
        and abs(checks["derivative value"]["got"] - 0.125) <= 1e-12
        and all(
            checks[f"{kind} {side}"]["pass"]
            for kind in ("convexify", "integral", "identity", "derivative")
            for side in ("method soundness", "pair lower bound")
        )
    )
    _announce(capsys, 5, ok, "recovery values 0.25 / 0.1 / 1/32 / 0.125, two-sided via lifted pairs")


def test_criterion_06_uniform_spline_equality(verify_runs, capsys):
    suite = _suite(verify_runs["report"], "spline")
    eq_checks = [c for c in suite["checks"] if c["name"].startswith("uniform equality")]
    ok = suite["pass"] and len(eq_checks) == 6
    _announce(capsys, 6, ok, "node-vanishing profile reaches (1/4) I(0, 1/n) for n in {1,2,4}, both moduli")


def test_criterion_07_landau_stechkin_values(verify_runs, capsys):
    checks = _checks(verify_runs["report"], "landau")
    ok = (
        abs(checks["K(0,0;h,h) = h/2 at h=0.2"]["got"] - 0.1) <= 1e-12
        and abs(checks["derivative approximation value"]["got"] - 0.1) <= 1e-12
        and abs(checks["sup norm of derivative-variant extremal"]["got"] - 0.045) <= 1e-12
        and abs(checks["delta level"]["got"] - 0.005) <= 1e-12
        and abs(checks["delta-recovery value"]["got"] - 0.1) <= 1e-12
        and _suite(verify_runs["report"], "landau")["pass"]
    )
    _announce(capsys, 7, ok, "K = 0.1, approximation value 0.1, extremal norm 0.045, delta 0.005 -> 0.1")


def test_criterion_08_metric_identity_suite(verify_runs, capsys):
    checks = _checks(verify_runs["report"], "lspace")
    ok = (
        checks["inverse distance identity"]["pass"]
        and checks["inverse norm identity"]["pass"]
        and checks["scaling equality (isotropic, same sign)"]["pass"]
    )
    _announce(capsys, 8, ok, "metric identities exact on 1000 random convex invertible elements")


def test_criterion_09_non_isotropy_witness(verify_runs, capsys):
    checks = _checks(verify_runs["report"], "lspace")
    ok = (
        checks["max-space strict semi-invariance witness"]["pass"]
        and checks["max-space difference rejected"]["pass"]
    )
    _announce(capsys, 9, ok, "max-space shows strict semi-invariance and rejects differences")


def test_criterion_10_determinism(verify_runs, capsys):
    ok = (
        verify_runs["codes"] == [0, 0]
        and verify_runs["outputs"][0] == verify_runs["outputs"][1]
        and len(verify_runs["outputs"][0]) > 0
    )
    _announce(capsys, 10, ok, "verify --suite all --seed 7 twice: exit 0, byte-identical reports")


def test_report_digest_is_pinned(verify_runs):
    # a change that moves the sample stream or a reported value on purpose
    # updates this digest and says which values moved
    digest = hashlib.sha256(verify_runs["outputs"][0].encode()).hexdigest()
    assert digest == SEED7_SHA256


def test_suite_runtime_budget(verify_runs, capsys):
    # two full verification passes; 8 suites, each budgeted under 60 s
    per_pass = verify_runs["elapsed"] / 2.0
    ok = per_pass < 8 * 60
    with capsys.disabled():
        print(f"ACCEPTANCE runtime: one full pass took {per_pass:.1f}s")
    assert ok
