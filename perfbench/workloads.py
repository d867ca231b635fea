"""Workload definitions: the ``ksr`` argv lists each workload sends to
``ksr.cli.main``, generated from the workload seed, and the gates that
check each call's output.

A workload is a list of calls; one pass runs them all in order. A call
carries its argv, the number of operations it stands for, and a check
that returns the number of those operations that failed, with a reason.

* ``verify``: the acceptance certification at 100 trials, one call with
  84 checks. The sampler dominates it.
* ``recover``: one call per (kind, n) on the ladder n in {1, 4, 16, 64,
  128} at grid 16384 and 25 trials, where each node array (128 KiB)
  overflows L1 but fits L2. The functional layer (``mean_info`` ->
  ``integrate``) dominates at n >= 64.
* ``bounds``: a stream of closed-form queries with admissible inputs.
  It needs no sampler and no grid, so sampler and functional changes
  should leave it unchanged; it exercises weight pairing and hat
  decomposition, modulus parsing and validation, and the CLI parser.

Two known defects are kept out of the workloads, which must have no
failing operation, and are run instead as probes after the timed passes
and recorded, so that a fix shows:

* ``recover derivative`` crashes for every n (``RecoveryReport.attained``
  returns a ``numpy.bool_`` and ``json.dumps`` raises ``TypeError``,
  which ``cli.main`` does not map to an exit code).
* ``bound ks`` fails with exit 2 on many weight pairs whose supports
  touch: the last paired segment gets a gap of about -1e-16 from
  round-off, and ``Modulus.primitive`` rejects it. The ``ks`` pairs of
  ``bounds`` therefore leave a gap of ``KS_GAP`` between the supports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

RECOVER_LADDER = (1, 4, 16, 64, 128)
RECOVER_KINDS = ("convexify", "integral", "identity")
RECOVER_GRID = 16384
# A quarter of the CLI default of 100, so that a run repeats the ladder
# several times; the sampled work per trial is unchanged.
RECOVER_TRIALS = 25
VERIFY_GRID = 4096
# A tenth of the acceptance run's 1000 trials: a pass takes about 2.5 s on
# a 2-core AMD EPYC guest, so a 36 s run holds over a dozen passes and
# their best is steady, while the sampler still takes two thirds of the time.
VERIFY_TRIALS = 100
VERIFY_CHECKS = 84
IDENTITY_TOL = 1e-7
# One bounds pass; sized so that 33 distinct queries lie beyond its p99.
BOUNDS_QUERIES = 3300
MAX_PIECES = 64
KS_GAP = 1.0 / 1024

# check(payload, rc, payloads of the pass so far) -> (failed operations, reason).
# ``payload`` is the call's stdout parsed as strict JSON, or None when it
# is missing, malformed or not finite; the payloads list holds None for
# calls that failed.
Check = Callable[[Optional[dict], int, list], Tuple[int, Optional[str]]]


@dataclass(frozen=True)
class Call:
    argv: Tuple[str, ...]
    ops: int
    check: Check
    kind: str = ""
    n: int = 0


def parse_output(text: str) -> Optional[dict]:
    """The call's stdout as one JSON object with finite numbers, or None."""
    def bad(token):
        raise ValueError(f"non-finite number {token}")
    try:
        payload = json.loads(text, parse_constant=bad)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) and _finite(payload) else None


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


# ---------------------------------------------------------------------------
# verify


def _check_verify(report: Optional[dict], rc: int, _payloads: list):
    if report is None:
        return VERIFY_CHECKS, f"exit {rc}, no report"
    checks = [c for s in report.get("suites", []) for c in s.get("checks", [])]
    failed = [c.get("name") for c in checks if c.get("pass") is not True]
    failed += ["<missing>"] * max(0, VERIFY_CHECKS - len(checks))
    if rc != 0 or report.get("pass") is not True or failed:
        return max(1, len(failed)), f"exit {rc}, pass={report.get('pass')}, failed checks {failed[:5]}"
    return 0, None


def verify_calls(seed: int, smoke: bool) -> List[Call]:
    argv = ["verify", "--suite", "all", "--grid", str(VERIFY_GRID), "--trials", str(VERIFY_TRIALS),
            "--seed", str(seed)]
    if smoke:
        argv = ["verify", "--suite", "all", "--grid", "128", "--trials", "8", "--seed", str(seed)]
    return [Call(tuple(argv), VERIFY_CHECKS, _check_verify)]


# ---------------------------------------------------------------------------
# recover


def _check_recover(payload: Optional[dict], rc: int, _payloads: list):
    if payload is None:
        return 1, f"exit {rc}, no finite JSON report"
    if rc != 0 or payload.get("sound") is not True or payload.get("attained") is not True:
        return 1, f"exit {rc}, sound={payload.get('sound')}, attained={payload.get('attained')}"
    return 0, None


def _recover_call(kind: str, n: int, seed: int, smoke: bool) -> Call:
    grid = 256 if smoke else RECOVER_GRID
    argv = ["recover", kind, "--n", str(n), "--h", "0", "--grid", str(grid),
            "--trials", str(8 if smoke else RECOVER_TRIALS), "--seed", str(seed)]
    return Call(tuple(argv), 1, _check_recover, kind, n)


def recover_calls(seed: int, smoke: bool) -> List[Call]:
    ladder = RECOVER_LADDER[:2] if smoke else RECOVER_LADDER
    return [_recover_call(kind, n, seed, smoke) for kind in RECOVER_KINDS for n in ladder]


def recover_probes(seed: int, smoke: bool) -> List[Call]:
    ladder = RECOVER_LADDER[:1] if smoke else RECOVER_LADDER
    return [_recover_call("derivative", n, seed, smoke) for n in ladder]


# ---------------------------------------------------------------------------
# bounds


def _num(x: float) -> str:
    return repr(float(x))


def _modulus(rng: np.random.Generator, family: int, knots: int) -> str:
    """A modulus of one of the three families (``knots`` sets the size of
    a piecewise-linear one). Every one is concave, so every bound kind is
    admissible with it."""
    if family == 0:
        K = round(float(rng.uniform(0.5, 2.0)), 4)
        alpha = round(float(rng.uniform(0.25, 1.0)), 4)
        return f"power:K={K},alpha={alpha}"
    if family == 1:
        K = round(float(rng.uniform(0.5, 4.0)), 4)
        C = round(float(rng.uniform(0.1, 1.0)), 4)
        return f"minlin:K={K},C={C}"
    # dyadic knots and strictly decreasing slopes: exactly concave
    slopes = sorted(rng.choice([3.0, 2.0, 1.5, 1.0, 0.75, 0.5, 0.25, 0.125], size=knots, replace=False))[::-1]
    pts, t, v = ["0,0"], 0.0, 0.0
    for s in slopes:
        dt = 0.125 * int(rng.integers(1, 5))
        t, v = t + dt, v + s * dt
        pts.append(f"{_num(t)},{_num(v)}")
    return "plconcave:" + ";".join(pts)


def _pieces(rng: np.random.Generator, k: int, lo: float, hi: float) -> List[Tuple[float, float, float]]:
    """k disjoint sorted pieces with dyadic breakpoints, one in each of k
    equal slots of [lo, hi], so that a pair's hat count, and with it the
    cost of a query, depends on k more than on the draw."""
    cells = 8192
    slots = np.round(np.linspace(lo * cells, hi * cells, k + 1)).astype(int)
    pieces = []
    for a, b in zip(slots[:-1], slots[1:]):
        half = max(1, (b - a) // 2)
        u, v = a + int(rng.integers(0, half)), b - int(rng.integers(0, half))
        pieces.append((u / cells, v / cells, round(float(rng.uniform(0.5, 2.0)), 4)))
    return pieces


def _balance(p1, p2):
    """Rescale the heights of p2 so that both weights have one mass."""
    m1 = sum(w * (v - u) for u, v, w in p1)
    m2 = sum(w * (v - u) for u, v, w in p2)
    return [(u, v, w * m1 / m2) for u, v, w in p2]


def _weight(domain: Tuple[float, float], pieces) -> str:
    body = "; ".join(f"{_num(u)},{_num(v)},{_num(w)}" for u, v, w in pieces)
    return f"{_num(domain[0])},{_num(domain[1])}; {body}"


def _check_bound(payload: Optional[dict], rc: int, _payloads: list):
    if rc != 0 or payload is None:
        return 1, f"exit {rc}, no finite JSON output"
    return 0, None


def _check_same_as(index: int) -> Check:
    """Gate for the second query of an identity pair: its bound must equal
    that of query ``index`` of the same pass to IDENTITY_TOL."""
    def check(payload: Optional[dict], rc: int, payloads: list):
        failed, reason = _check_bound(payload, rc, payloads)
        if failed:
            return failed, reason
        other = payloads[index]
        if other is None:
            return 1, f"identity partner {index} failed"
        got, want = payload["bound"], other["bound"]
        if abs(got - want) > IDENTITY_TOL * max(1.0, abs(want)):
            return 1, f"identity broken: {got!r} vs {want!r}"
        return 0, None
    return check


def _dyadic(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.floor(rng.uniform(lo, hi) * 1024.0) / 1024.0)


def bounds_calls(seed: int, smoke: bool) -> List[Call]:
    """One pass of closed-form queries. Query kinds cycle in fixed
    proportions. The weighted queries of cycle c draw their piece count
    from stratum c of the log scale of piece counts, and the stratum also
    fixes their modulus family and size. So the cost of the query at each
    position of a pass, and with it the work of a pass and its tail,
    hardly depend on the seed, while its inputs do."""
    rng = np.random.default_rng(seed)
    total = 40 if smoke else BOUNDS_QUERIES
    cycle = ("general", "ks", "ostrowski", "symmetric", "point-mean", "pair", "landau", "stechkin", "delta")
    cycles = -(-total // 11)  # 11 queries per cycle: ks and ostrowski come as identity pairs
    calls: List[Call] = []

    def add(argv, check=_check_bound):
        calls.append(Call(tuple(argv), 1, check))

    def weighted_query(s: int) -> Tuple[int, str]:
        k = max(1, min(MAX_PIECES, int(round(MAX_PIECES ** ((s + rng.uniform()) / cycles)))))
        return k, _modulus(rng, s % 3, 1 + (s // 3) % 4)

    for c in range(cycles):
        for j, kind in enumerate(cycle):
            if kind in ("general", "ks"):
                k, omega = weighted_query(c)
            else:  # every kind meets every family
                omega = _modulus(rng, (c + j) % 3, int(rng.integers(1, 5)))
            if kind == "general":
                p1 = _pieces(rng, k, 0.0, 1.0)
                p2 = _balance(p1, _pieces(rng, k, 0.0, 1.0))
                add(["bound", "general", "--psi1", _weight((0.0, 1.0), p1),
                     "--psi2", _weight((0.0, 1.0), p2), "--omega", omega])
            elif kind == "ks":
                # disjoint supports: the general estimate reduces to ks_bound
                split = _dyadic(rng, 0.3, 0.7)
                p1 = _pieces(rng, k, 0.0, split)
                p2 = _balance(p1, _pieces(rng, k, split + KS_GAP, 1.0))
                psi = ["--psi1", _weight((0.0, 1.0), p1), "--psi2", _weight((0.0, 1.0), p2)]
                add(["bound", "ks", *psi, "--omega", omega])
                add(["bound", "general", *psi, "--omega", omega], _check_same_as(len(calls) - 1))
            elif kind == "ostrowski":
                # two-interval means: equal to the general estimate on the
                # normalised indicator weights of the two segments
                a = _dyadic(rng, 0.0, 0.5)
                b = _dyadic(rng, a + 0.05, 1.0)
                c_ = _dyadic(rng, a, 0.9)
                d = _dyadic(rng, c_ + 0.05, 1.0)
                if (a, b) == (c_, d):
                    d = d + 0.03125 if d < 0.95 else d - 0.03125
                lo, hi = a, max(b, d)
                add(["bound", "ostrowski", "--ab", f"{_num(a)},{_num(b)}",
                     "--cd", f"{_num(c_)},{_num(d)}", "--omega", omega])
                w1 = _weight((lo, hi), [(a, b, 1.0 / (b - a))])
                w2 = _weight((lo, hi), [(c_, d, 1.0 / (d - c_))])
                add(["bound", "general", "--psi1", w1, "--psi2", w2, "--omega", omega],
                    _check_same_as(len(calls) - 1))
            elif kind == "symmetric":
                mid = _dyadic(rng, 0.25, 0.75)
                outer = _dyadic(rng, 0.05, 0.25)
                inner = _dyadic(rng, 0.01, outer)
                add(["bound", "symmetric", "--ab", f"{_num(mid - outer)},{_num(mid + outer)}",
                     "--cd", f"{_num(mid - inner)},{_num(mid + inner)}", "--omega", omega])
            elif kind == "point-mean":
                c_ = _dyadic(rng, 0.0, 0.8)
                d = _dyadic(rng, c_ + 0.05, 1.0)
                add(["bound", "point-mean", "--t", _num(_dyadic(rng, 0.0, 1.0)),
                     "--cd", f"{_num(c_)},{_num(d)}", "--omega", omega])
            elif kind == "pair":
                a = _dyadic(rng, 0.0, 0.4)
                b = _dyadic(rng, a + 0.1, 1.0)
                t = _dyadic(rng, a, 0.5 * (a + b) - 0.001)
                add(["bound", "pair", "--t", _num(t), "--ab", f"{_num(a)},{_num(b)}", "--omega", omega])
            elif kind == "landau":
                variant = "bcde"[int(rng.integers(0, 4))]
                h = _dyadic(rng, 0.05, 0.5)
                argv = ["landau", "--variant", variant, "--t", _num(_dyadic(rng, 0.05, 0.95)),
                        "--h", _num(h), "--omega", omega]
                if variant in "bd":
                    argv += ["--gamma", _num(_dyadic(rng, 0.01, h))]
                add(argv)
            elif kind == "stechkin":
                target = ("derivative", "divdiff")[int(rng.integers(0, 2))]
                h = _dyadic(rng, 0.05, 0.5)
                argv = ["stechkin", "--target", target, "--t", _num(_dyadic(rng, 0.05, 0.95)),
                        "--h", _num(h), "--omega", omega]
                if target == "divdiff":
                    argv += ["--gamma", _num(_dyadic(rng, 0.01, h))]
                add(argv)
            else:
                add(["delta-recover", "--t", _num(_dyadic(rng, 0.05, 0.95)),
                     "--h", _num(_dyadic(rng, 0.05, 0.5)), "--omega", omega])
    return calls[:total]


def bounds_probes(seed: int, smoke: bool) -> List[Call]:
    """``bound ks`` on two weights whose supports touch at 0.3."""
    argv = ["bound", "ks", "--psi1", "0,1; 0.1,0.3,0.7", "--psi2", "0,1; 0.3,0.9,0.23333333333333328",
            "--omega", "power:K=1,alpha=0.5"]
    return [Call(tuple(argv), 1, _check_bound)]


WORKLOADS = {"verify": verify_calls, "recover": recover_calls, "bounds": bounds_calls}
# known-defect probes, run after the timed passes of a workload
PROBES = {"recover": recover_probes, "bounds": bounds_probes}
