"""Brute-force verification: class samplers, empirical suprema, and the
per-bound certification suites.

Samplers emit functions that lie in the oscillation class *by
construction* (lower/upper envelopes of modulus cones, their convex
mixtures, constants, and set-valued functions assembled from such
members); the class is closed under each of these operations, so no
sample is re-checked at run time.  This keeps the soundness sweeps
honest: a reported violation can only come from the bound under test,
not from an out-of-class sample.

A suite hands each sup it needs to the sweep runner as a ``Sweep``
request (``sup = yield Sweep(...)``).  ``run_sweeps`` runs such suites
together and draws each distinct sample stream once, for every request
that asks for it.  A functional that reads several statistics from one
sample returns them as a 1-D array, and its request gets a sup per
statistic (``suite_landau``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable, Generator, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from . import gridfn as gf
from . import kscore as ks
from . import landau as la
from . import lspace as ls
from . import ostrowski as ost
from . import recovery as rec
from .errors import NonIsotropic
from .modulus import Modulus, minlin, power

HOMEGA = "homega"
W1HOMEGA = "w1homega"


@dataclass(frozen=True)
class SampleSpec:
    class_tag: str
    model: str  # real | interval | lifted
    omega: Modulus
    a: float
    b: float
    grid: int
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# class samplers


#: most cones in one envelope; the rows of a stream's cone workspace
MAX_CONES = 8

MODEL_MIX = (ls.REAL, ls.INTERVAL, "lifted")


def _real_member_values(rng: np.random.Generator, omega: Modulus, ts: np.ndarray,
                        scale: float, work: np.ndarray) -> np.ndarray:
    """A random member of the oscillation class, exact by construction.

    ``scale`` is ``omega(b - a)``; the cones are built in ``work``, a
    ``(MAX_CONES, len(ts))`` array that the stream reuses, so that no
    sample allocates them afresh.  The sample itself is always a new
    array."""
    a, b = ts[0], ts[-1]
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return np.full_like(ts, float(rng.uniform(-scale, scale)))

    def envelope(lower: bool) -> np.ndarray:
        m = int(rng.integers(2, MAX_CONES + 1))
        centers = rng.uniform(a, b, size=m)
        levels = np.cumsum(rng.uniform(-scale / 2, scale / 2, size=m))
        # cone-major (m, N+1): the reduction runs over contiguous rows
        cones = np.abs(np.subtract(ts, centers[:, None], out=work[:m]), out=work[:m])
        omega.of_nonneg(cones, out=cones)  # |t - c| >= +0: no _nonneg pass
        if lower:
            return np.add(levels[:, None], cones, out=cones).min(axis=0)
        return np.subtract(levels[:, None], cones, out=cones).max(axis=0)

    if kind == 1:
        return envelope(lower=True)
    if kind == 2:
        return envelope(lower=False)
    lam = float(rng.uniform(0.0, 1.0))
    return lam * envelope(lower=True) + (1.0 - lam) * envelope(lower=False)


def sample_class(spec: SampleSpec) -> Iterator[gf.GridFunction]:
    """Deterministic stream of ``spec.trials`` class members, one loop pass
    per draw.  An ``HOMEGA`` draw of ``spec.model`` is a real member (the
    values ``_real_member_values`` draws), its lift through the point
    interval [1, 1], or the interval [min(g1, g2), max(g1, g2) + c] of two
    real members; a ``W1HOMEGA`` draw is the running trapezoid integral of
    such data plus a random base value (a real, or an interval).

    A draw makes only the array passes its result needs: a lifted
    ``W1HOMEGA`` draw integrates its real core once and writes both
    columns from it (``cumsum`` runs down each column on its own, so the
    bits are those of integrating the two columns), and an interval base
    is added column by column.  Every interval draw has lo <= hi exactly
    (min <= max, c >= 0, a trapezoid sum is monotone in its data, and
    base lo <= base hi), so it is built by ``gridfn.from_ordered_rows``,
    without the constructor's lo <= hi scan.

    Each sample's ``data`` is a new array and read-only: one sample is
    handed to every functional of a shared stream in turn (``sweep_sups``),
    so a functional that wrote into it would change the next one's input."""
    if spec.class_tag not in (HOMEGA, W1HOMEGA):
        raise ValueError(f"unknown class tag {spec.class_tag!r}")
    if spec.model not in MODEL_MIX:
        raise ValueError(f"unknown sample model {spec.model!r}")
    model = ls.REAL if spec.model == ls.REAL else ls.INTERVAL
    rng = np.random.default_rng(spec.seed)
    # nodes in coordinates local to a: their rounding then scales with
    # b - a, not with |a|, and stays far below the membership slack
    ts = np.linspace(0.0, spec.b - spec.a, spec.grid + 1)
    scale = float(spec.omega(ts[-1] - ts[0]))
    work = np.empty((MAX_CONES, ts.size))
    step = (spec.b - spec.a) / spec.grid
    w1 = spec.class_tag == W1HOMEGA
    for _ in range(spec.trials):
        data = _real_member_values(rng, spec.omega, ts, scale, work)
        if spec.model == ls.INTERVAL:  # written into the columns of one (N+1, 2) array
            out = np.empty((ts.size, 2))
            g2 = _real_member_values(rng, spec.omega, ts, scale, work)
            np.minimum(data, g2, out=out[:, 0])
            np.maximum(data, g2, out=out[:, 1])
            out[:, 1] += float(rng.uniform(0.0, 1.0))
            data = out
        if w1:
            data = gf.cumtrapz(data, step)  # of a lifted draw's real core, before the lift
            if model == ls.REAL:
                data += float(rng.uniform(-1, 1))
            else:
                base_lo = float(rng.uniform(-1, 0))
                base_hi = base_lo + float(rng.uniform(0, 1))
        if spec.model == "lifted":  # the lift t -> v(t) [1, 1] is the point interval [v, v]
            core, data = data, np.empty((ts.size, 2))
            if w1:
                np.add(core, base_lo, out=data[:, 0])
                np.add(core, base_hi, out=data[:, 1])
            else:
                data[:, 0] = data[:, 1] = core
        elif w1 and model == ls.INTERVAL:
            data[:, 0] += base_lo
            data[:, 1] += base_hi
        data.flags.writeable = False
        yield gf.from_ordered_rows(spec.a, spec.b, model, data)


def _fold(top: tuple, v, i: int) -> tuple:
    """The (sup, argmax index) pair ``top`` with the value ``v`` of sample
    ``i`` taken in.  A scalar ``v`` replaces a smaller sup.  A 1-D array is
    taken in per component, and the pair becomes a sup array and an index
    array; each component keeps its first argmax, as a scalar does."""
    if isinstance(v, np.ndarray) and v.ndim:
        better = v > top[0]
        return np.where(better, v, top[0]), np.where(better, i, top[1])
    v = float(v)
    return (v, i) if v > top[0] else top


def empirical_sup(
    functional: Callable[[gf.GridFunction], object],
    samples: Iterable[gf.GridFunction],
) -> tuple:
    """Max of the functional over the stream; returns (sup, argmax index),
    or a sup array and an index array for a functional whose values are
    1-D arrays of one length (``_fold``)."""
    top = (-math.inf, -1)
    for i, f in enumerate(samples):
        top = _fold(top, functional(f), i)
    return top


def _per_model(trials: int) -> Tuple[int, ...]:
    """Samples of each model in ``MODEL_MIX`` that a stream asked for
    ``trials`` draws: an even split, the first ``trials % len(MODEL_MIX)``
    models taking one extra, and at least one per model."""
    q, r = divmod(trials, len(MODEL_MIX))
    return tuple(max(1, q + (k < r)) for k in range(len(MODEL_MIX)))


def _mixed_stream(class_tag, omega, a, b, grid, trials, seed, inject=()):
    """The injected candidates, then ``_per_model(trials)[k]`` samples of
    each model k in ``MODEL_MIX``, seeded with ``seed + 17 k``."""
    yield from inject
    for k, (model, count) in enumerate(zip(MODEL_MIX, _per_model(trials))):
        yield from sample_class(SampleSpec(class_tag, model, omega, a, b, grid, count, seed + 17 * k))


@dataclass(frozen=True)
class Sweep:
    """A request for the sup of ``functional`` over the injected candidates
    ``inject``, then the mixed-model stream of ``key``.  A functional that
    returns a 1-D array gets a sup per component, as an array.  The runner
    calls ``functional`` once per sample, in stream order, so a functional
    may draw from its own random generator as it goes."""

    functional: Callable[[gf.GridFunction], object]
    class_tag: str
    omega: Modulus
    a: float
    b: float
    grid: int
    trials: int
    seed: int
    inject: Sequence[gf.GridFunction] = ()

    @property
    def key(self) -> tuple:
        """The arguments of ``_mixed_stream`` that fix the stream."""
        return (self.class_tag, self.omega, self.a, self.b, self.grid, self.trials, self.seed)


def sweep_sups(requests: Sequence[Sweep]) -> List[tuple]:
    """(sup, argmax index) of each request, the index counted over the
    request's own injected candidates and then the stream; per component,
    as two arrays, for a functional that returns arrays.  The requests
    share one stream key; the stream is drawn once, and each sample is
    handed to every functional before the next one is drawn."""
    key = requests[0].key
    if any(r.key != key for r in requests):
        raise ValueError("requests of one sweep must share their stream key")
    tops = [empirical_sup(r.functional, r.inject) for r in requests]
    for i, f in enumerate(_mixed_stream(*key)):
        for j, r in enumerate(requests):
            tops[j] = _fold(tops[j], r.functional(f), len(r.inject) + i)
    return tops


def run_sweeps(tasks: Sequence[Generator]) -> list:
    """Run generators that yield ``Sweep`` requests (``sup = yield
    Sweep(...)``) together and return what each returns.  In each round
    every pending request is grouped by stream key, each key's stream is
    drawn once for its group (``sweep_sups``), and every task is sent its
    sup, in task order."""
    results: list = [None] * len(tasks)
    pending = {}

    def advance(i: int, sup) -> None:
        try:
            pending[i] = tasks[i].send(sup)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(tasks)):
        advance(i, None)
    while pending:
        groups = {}
        for i, request in pending.items():
            groups.setdefault(request.key, []).append(i)
        sups = {}
        for members in groups.values():
            for i, (sup, _) in zip(members, sweep_sups([pending[i] for i in members])):
                sups[i] = sup
        pending.clear()
        for i in sorted(sups):
            advance(i, sups[i])
    return results


def _sweeping(body: Callable[[int, int, int], Generator]) -> Callable[[int, int, int], Generator]:
    """The suite ``body``, a generator function that yields a ``Sweep`` for
    each sup it needs and returns its report, as a plain function that
    returns the generator for ``run_suites`` to drive.  A wrapper that
    times a generator function by its ``next()`` calls (as the benchmark's
    span tracer does) would not pass the sups through; one around a plain
    function does."""
    def suite(trials: int, grid: int, seed: int) -> Generator:
        return body(trials, grid, seed)

    suite.__name__, suite.__qualname__, suite.__doc__ = body.__name__, body.__qualname__, body.__doc__
    return suite


# ---------------------------------------------------------------------------
# check plumbing


def _check(name: str, ok: bool, got: float, target: float, tol: float) -> dict:
    return {
        "name": name,
        "pass": bool(ok),
        "got": float(got),
        "target": float(target),
        "tol": float(tol),
    }


def _leq(name: str, got: float, target: float, tol: float) -> dict:
    return _check(name, got <= target + tol, got, target, tol)


def _geq(name: str, got: float, target: float, tol: float) -> dict:
    return _check(name, got >= target - tol, got, target, tol)


def _eq(name: str, got: float, target: float, tol: float) -> dict:
    return _check(name, abs(got - target) <= tol, got, target, tol)


def _suite(name: str, checks: List[dict]) -> dict:
    return {"suite": name, "pass": all(c["pass"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# suites


def suite_lspace(trials: int, grid: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    worst_inv = worst_norm = worst_scale = 0.0
    for _ in range(trials):
        kind = int(rng.integers(0, 4))
        v = float(rng.uniform(-5, 5))
        if kind == 0:
            x = ls.real(v)
        elif kind == 1:
            x = ls.vector(*rng.uniform(-3, 3, size=int(rng.integers(1, 4))))
        elif kind == 2:
            x = ls.interval(v, v)
        else:
            x = ls.union([(v, v)])
        xp = ls.inverse(x)
        worst_inv = max(worst_inv, abs(ls.dist(x, xp) - 2.0 * ls.norm(x)))
        worst_norm = max(worst_norm, abs(ls.norm(xp) - ls.norm(x)))
        al, be = sorted(rng.uniform(0, 4, size=2))
        worst_scale = max(
            worst_scale,
            abs(ls.dist(ls.scale(al, x), ls.scale(be, x)) - abs(al - be) * ls.norm(x)),
        )
    checks = [
        _eq("inverse distance identity", worst_inv, 0.0, 1e-12),
        _eq("inverse norm identity", worst_norm, 0.0, 1e-12),
        _eq("scaling equality (isotropic, same sign)", worst_scale, 0.0, 1e-12),
    ]
    lhs = ls.dist(ls.add(ls.maxval(1), ls.maxval(2)), ls.add(ls.maxval(3), ls.maxval(2)))
    rhs = ls.dist(ls.maxval(1), ls.maxval(3))
    checks.append(_check("max-space strict semi-invariance witness", lhs < rhs - 1e-12, lhs, rhs, 0.0))
    try:
        ls.hukuhara_diff(ls.maxval(3), ls.maxval(1))
        rejected = False
    except NonIsotropic:
        rejected = True
    checks.append(_check("max-space difference rejected", rejected, float(rejected), 1.0, 0.0))
    return _suite("lspace", checks)


def _ks_config():
    w1 = ks.indicator_weight(0.0, 0.25, 1.0, domain=(0.0, 1.0))
    w2 = ks.indicator_weight(0.75, 1.0, 1.0, domain=(0.0, 1.0))
    return w1, w2


@_sweeping
def suite_ks(trials: int, grid: int, seed: int) -> Generator:
    omega = power(1, 1)
    w1, w2 = _ks_config()
    eps = gf.eps_tolerance(omega, 1.0, grid)
    bound = ks.ks_bound(w1, w2, omega)
    checks = [_eq("closed-form bound", bound, 0.1875, 1e-12)]
    g = ks.ks_extremal(w1, w2, omega, n=grid)
    checks.append(_eq("extremal is t - 1/2", float(np.max(np.abs(g.data - (g.nodes - 0.5)))), 0.0, 1e-12))
    checks.append(_check("extremal in class", gf.check_Homega(g, omega).member, 1.0, 1.0, 0.0))
    inject = [g, gf.lift(g)]
    sup = yield Sweep(lambda f: ks.functional_S(f, w1, w2), HOMEGA, omega, 0.0, 1.0, grid, trials, seed, inject)
    checks.append(_leq("soundness sweep", sup, bound, eps))
    checks.append(_geq("injected extremal attains", sup, bound, eps))
    return _suite("ks", checks)


def suite_eq12(trials: int, grid: int, seed: int) -> dict:
    # five disjointly-supported configurations; the rearrangement form
    # must match the pairing-map form of the sharp bound
    configs = [
        (ks.indicator_weight(0, 0.25, 1, domain=(0, 1)), ks.indicator_weight(0.75, 1, 1, domain=(0, 1)), power(1, 1)),
        (ks.indicator_weight(0, 0.25, 1, domain=(0, 1)), ks.indicator_weight(0.75, 1, 1, domain=(0, 1)), power(1, 0.5)),
        (ks.step_weight((0, 1), [(0.0, 0.1, 2.0), (0.1, 0.3, 0.5)]), ks.indicator_weight(0.8, 1.0, 1.5, domain=(0, 1)), power(1, 1)),
        (ks.indicator_weight(0, 0.5, 1, domain=(0, 1)), ks.indicator_weight(0.5, 1, 1, domain=(0, 1)), minlin(1, 0.3)),
        (ks.step_weight((0, 2), [(0.0, 0.4, 1.0), (0.5, 0.7, 3.0)]), ks.step_weight((0, 2), [(1.2, 1.4, 2.0), (1.6, 1.9, 2.0)]), power(2, 0.7)),
    ]
    checks = []
    for i, (w1, w2, omega) in enumerate(configs):
        direct = ks.ks_bound(w1, w2, omega)
        form_deriv, form_prime = ks.rearrangement_forms(w1, w2, omega)
        checks.append(_eq(f"config {i}: rearranged vs direct", form_prime, direct, 1e-7))
        checks.append(_eq(f"config {i}: derivative vs primitive form", form_deriv, form_prime, 1e-7))
    return _suite("eq12", checks)


@_sweeping
def suite_general(trials: int, grid: int, seed: int) -> Generator:
    omega = power(1, 1)
    cfg = ost.two_interval_config(0, 1, 0.25, 0.75)
    w1, w2 = ost.two_interval_weights(cfg)
    eps = gf.eps_tolerance(omega, 1.0, grid)
    gb = ks.general_bound(w1, w2, omega)
    tb = ost.two_interval_bound(cfg, omega)
    checks = [
        _eq("general equals two-interval closed form", gb, tb, 1e-10),
        _eq("target value", gb, 0.125, 1e-12),
        _eq("identical weights give zero", ks.general_bound(w1, w1, omega), 0.0, 1e-12),
    ]
    glued = ks.glue_extremal(ks.decompose_weights(w1, w2), omega, n=grid)
    checks.append(_check("glued candidate in class", gf.check_Homega(glued, omega).member, 1.0, 1.0, 0.0))
    attained = ks.functional_S(gf.lift(glued), w1, w2)
    checks.append(_geq("glued extremal attains", attained, gb, eps))
    sup = yield Sweep(lambda f: ks.functional_S(f, w1, w2), HOMEGA, omega, 0.0, 1.0, grid, trials, seed, [glued])
    checks.append(_leq("soundness sweep", sup, gb, eps))
    return _suite("general", checks)


@_sweeping
def suite_ostrowski(trials: int, grid: int, seed: int) -> Generator:
    omega = power(1, 1)
    omega_sqrt = power(1, 0.5)
    eps = gf.eps_tolerance(omega, 1.0, grid)
    checks = []

    pm = ost.point_vs_mean_bound(0.5, 0.0, 1.0, omega)
    checks.append(_eq("point-vs-mean midpoint value", pm, 0.25, 1e-12))
    pm_sqrt = ost.point_vs_mean_bound(0.0, 0.0, 1.0, omega_sqrt)
    checks.append(_eq("point-vs-mean sqrt value at t=0", pm_sqrt, 2.0 / 3.0, 1e-12))
    pb = ost.symmetrized_pair_bound(0.0, 0.0, 1.0, omega)
    checks.append(_eq("symmetrized pair value at t=a", pb, 0.25, 1e-12))
    checks.append(_eq("symmetric concentric value", ost.symmetric_bound(0, 1, 0.25, 0.75, omega), 0.125, 1e-12))

    ext = gf.lift(ost.point_vs_mean_extremal(0.5, omega, 0.0, 1.0, n=grid))
    sup = yield Sweep(lambda f: ost.point_vs_mean_functional(f, 0.5, 0.0, 1.0),
                      HOMEGA, omega, 0.0, 1.0, grid, trials, seed, [ext])
    checks.append(_leq("point-vs-mean soundness", sup, pm, eps))
    checks.append(_geq("point-vs-mean attained", sup, pm, eps))

    ext_sqrt = gf.lift(ost.point_vs_mean_extremal(0.0, omega_sqrt, 0.0, 1.0, n=grid))
    eps_sqrt = gf.eps_tolerance(omega_sqrt, 1.0, grid)
    sup = yield Sweep(lambda f: ost.point_vs_mean_functional(f, 0.0, 0.0, 1.0),
                      HOMEGA, omega_sqrt, 0.0, 1.0, grid, trials, seed + 1, [ext_sqrt])
    checks.append(_leq("point-vs-mean sqrt soundness", sup, pm_sqrt, eps_sqrt))
    checks.append(_geq("point-vs-mean sqrt attained", sup, pm_sqrt, eps_sqrt))

    pair_ext = gf.lift(ost.symmetrized_pair_extremal(0.0, 0.0, 1.0, omega, n=grid))
    sup = yield Sweep(lambda f: ost.symmetrized_pair_functional(f, 0.0, 0.0, 1.0),
                      HOMEGA, omega, 0.0, 1.0, grid, trials, seed + 2, [pair_ext])
    checks.append(_leq("symmetrized pair soundness", sup, pb, eps))
    checks.append(_geq("symmetrized pair attained", sup, pb, eps))

    cfg = ost.two_interval_config(0.0, 1.0, 0.25, 0.75)
    w1, w2 = ost.two_interval_weights(cfg)
    tb = ost.two_interval_bound(cfg, omega)
    ext2 = ost.two_interval_extremal(cfg, omega, n=grid)
    sup = yield Sweep(lambda f: ks.functional_S(f, w1, w2), HOMEGA, omega, 0.0, 1.0, grid, trials, seed + 3, [ext2])
    checks.append(_leq("two-interval soundness", sup, tb, eps))
    checks.append(_geq("two-interval attained", sup, tb, eps))

    sb = ost.symmetric_bound(0.0, 1.0, 0.25, 0.75, omega)

    def sym_err(f: gf.GridFunction) -> float:
        return gf.row_dist(f.model, gf.integrate(f), 2.0 * gf.integrate(f, 0.25, 0.75))

    sup = yield Sweep(sym_err, HOMEGA, omega, 0.0, 1.0, grid, trials, seed + 4, [ext2])
    checks.append(_leq("symmetric soundness", sup, sb, eps))
    checks.append(_geq("symmetric attained", sup, sb, eps))
    return _suite("ostrowski", checks)


def _half_target_distance(core: gf.GridFunction, target: Callable) -> float:
    up = gf.lift(core)
    dn = gf.lift(core, -1.0)
    return 0.5 * float(target(up, dn))


@_sweeping
def suite_recovery(trials: int, grid: int, seed: int) -> Generator:
    omega = power(1, 1)
    checks = []
    # (problem, n, h, closed-form value); the soundness and lower-bound
    # checks are the report's own verdicts, at its tolerance eps
    problems = (
        ("convexify", 2, 0.1, 0.25),
        ("integral", 2, 0.05, 0.1),
        ("identity", 2, 0.0, 1.0 / 32.0),
        ("derivative", 4, 0.0, 0.125),
    )
    for k, (kind, n, h, value) in enumerate(problems):
        report = yield from _recovery_experiment(kind, n, h, omega, 0.0, 1.0, trials, grid, seed + k)
        val, eps = report.theoretical, report.tolerance
        checks.append(_eq(f"{kind} value", val, value, 1e-12))
        checks.append(_check(f"{kind} method soundness", report.sound, report.empirical_upper, val, eps))
        if kind == "convexify":
            knots, _ = rec.optimal_knots(n, 0.0, 1.0)
            core = gf.lift(report.extremal)
            info_gap = float(np.max(np.abs(rec.mean_info(core, knots, h).means)))
            checks.append(_leq("convexify pair info vanishes", info_gap, 0.0, eps))
        checks.append(_check(f"{kind} pair lower bound", report.attained, report.lower_bound, val, eps))
    return _suite("recovery", checks)


def suite_spline(trials: int, grid: int, seed: int) -> dict:
    checks = []
    for omega in (power(1, 1), power(1, 0.5)):
        for n in (1, 2, 4):
            partition = np.linspace(0.0, 1.0, n + 1)
            G = rec.omega_spline(n, omega, 0.0, 1.0, n=grid)
            target = rec.polyline_uniform_error(n, omega, 1.0)
            eps = gf.eps_tolerance(omega, 1.0, grid)
            sup = float(np.max(np.abs(G.data)))
            checks.append(_eq(f"uniform equality {omega.spec()} n={n}", sup, target, eps))
            node_vals = np.abs(np.interp(partition, G.nodes, G.data))
            checks.append(_leq(f"nodes vanish {omega.spec()} n={n}", float(np.max(node_vals)), 0.0, 1e-7))
    return _suite("spline", checks)


@_sweeping
def suite_landau(trials: int, grid: int, seed: int) -> Generator:
    omega = power(1, 1)
    eps = gf.eps_tolerance(omega, 1.0, grid)
    checks = []
    w = la.WindowConfig(0.5, 0.0, 0.0, 0.2, 0.2, 0.0, 1.0)
    checks.append(_eq("K(0,0;h,h) = h/2 at h=0.2", la.K_value(w, omega), 0.1, 1e-12))
    checks.append(_eq("derivative approximation value", la.stechkin_value("derivative", w, omega), 0.1, 1e-12))
    we = la.WindowConfig(0.5, 0.0, 0.0, 0.3, 0.3, 0.0, 1.0)
    checks.append(_eq("sup norm of derivative-variant extremal", la.extremal_sup_norm(we, omega), 0.045, 1e-12))
    dr = la.delta_recovery_value(0.5, 0.1, omega, 0.0, 1.0)
    checks.append(_eq("delta level", dr["delta"], 0.005, 1e-12))
    checks.append(_eq("delta-recovery value", dr["value"], 0.1, 1e-12))

    # soundness sweep for the four inequalities on sampled members; the
    # windows are snapped to grid nodes so the difference quotients are
    # evaluated exactly.  W1HOMEGA draws are members by construction: the
    # derivative's omega-norm is at most the class bound 1, which the
    # right-hand sides use (``landau_rhs(..., 1.0, companion)``, with its
    # closed forms computed once and its expression order kept)
    delta_t = 1.0 / grid
    snap = lambda x: round(x / delta_t) * delta_t
    wc = la.WindowConfig(snap(0.5), snap(0.1), snap(0.1), snap(0.2), snap(0.2), 0.0, 1.0)
    t = wc.t
    kval = la.K_value(wc, omega)
    dval = la.derivative_vs_quotient_value(wc, omega)
    two_over_total = 2.0 / (wc.h1 + wc.h2)

    def deviations(f: gf.GridFunction) -> np.ndarray:
        """The quotient and derivative deviations and inequalities b-e,
        each as its left-hand side less its right-hand side."""
        # W1 samples are antiderivatives of nondecreasing width, so every
        # Hukuhara difference exists; NoDifference here is a sampler fault
        df = gf.hukuhara_derivative(f)
        dd_gamma = la.divided_difference(f, t, wc.g1, wc.g2)
        dd_h = la.divided_difference(f, t, wc.h1, wc.h2)
        df_t = gf.values_at(df, t)
        d_gamma = gf.row_norm(dd_gamma)
        d_h = gf.row_norm(dd_h)
        d_t = gf.row_norm(df_t)
        sup_f = gf.sup_norm(f)
        return np.array([
            gf.row_dist(f.model, dd_gamma, dd_h) - kval,
            gf.row_dist(f.model, df_t, dd_h) - dval,
            d_gamma - (kval + d_h),
            d_t - (dval + d_h),
            d_gamma - (kval + two_over_total * sup_f),
            d_t - (dval + two_over_total * sup_f),
        ])

    viol_quot, viol_deriv, *viol = yield Sweep(deviations, W1HOMEGA, omega, 0.0, 1.0, grid, trials, seed)
    checks.append(_leq("quotient deviation bound holds on samples", viol_quot, 0.0, 4.0 * eps))
    checks.append(_leq("derivative deviation bound holds on samples", viol_deriv, 0.0, 4.0 * eps))
    for v, sup in zip(la.VARIANTS, viol):
        checks.append(_leq(f"inequality {v} holds on samples", sup, 0.0, 4.0 * eps))

    # recovery from inexact data: the outer quotient stays within the value
    dr = la.delta_recovery_value(0.5, 0.1, omega, 0.0, 1.0)
    h1, h2, delta, value = dr["h1"], dr["h2"], dr["delta"], dr["value"]
    noise_rng = np.random.default_rng(seed + 6)
    noise_nodes = np.linspace(0, 1, 9)

    def inexact_error(f: gf.GridFunction) -> float:
        """The recovery error on f known up to noise of level delta.  The
        noise is drawn from ``noise_rng`` as f comes: the runner calls this
        once per sample, in stream order."""
        df = gf.hukuhara_derivative(f)
        noise = np.interp(f.nodes, noise_nodes, noise_rng.uniform(-delta, delta, size=9))
        if f.model == ls.INTERVAL:  # the same noise on lo and hi keeps lo <= hi exact
            noise = noise[:, None]
        g = gf.from_ordered_rows(f.a, f.b, f.model, f.data + noise)
        return gf.row_dist(f.model, gf.values_at(df, 0.5), la.divided_difference(g, 0.5, h1, h2))

    # both sweeps run before the extremals below are built, so that the
    # suite holds no grid function while other suites' streams are drawn
    inexact_sup = yield Sweep(inexact_error, W1HOMEGA, omega, 0.0, 1.0, grid, max(10, trials // 4), seed + 7)

    # attainment of each variant by its constructed extremal
    for variant, wconf in (("b", wc), ("c", we), ("d", wc), ("e", we)):
        f = la.landau_extremal(variant, wconf, omega, n=grid)
        df = gf.hukuhara_derivative(f)
        omega_norm = gf.omega_seminorm(df, omega)
        d_h = gf.row_norm(la.divided_difference(f, wconf.t, wconf.h1, wconf.h2))
        sup_f = gf.sup_norm(f)
        if variant in ("b", "d"):
            lhs = gf.row_norm(la.divided_difference(f, wconf.t, wconf.g1, wconf.g2))
        else:
            lhs = gf.row_norm(gf.values_at(df, wconf.t))
        companion = d_h if variant in ("b", "c") else sup_f
        rhs = la.landau_rhs(variant, wconf, omega, omega_norm, companion)
        checks.append(_geq(f"variant {variant} attained", lhs, rhs, 4.0 * eps))

    # operator norm certificate for the outer divided difference
    rng = np.random.default_rng(seed + 5)
    nbound = la.operator_norm_bound(wc)
    worst = 0.0
    for _ in range(min(trials, 200)):
        vals = rng.uniform(-1, 1, size=65)
        f = gf.real_grid(vals, 0.0, 1.0, 64)
        sup_f = float(np.max(np.abs(vals)))
        if sup_f == 0.0:
            continue
        worst = max(worst, gf.row_norm(la.divided_difference(f, t, wc.h1, wc.h2)) / sup_f)
    checks.append(_leq("divided-difference norm bound", worst, nbound, 1e-9))

    # best-approximation lower bound: no scaled divided difference within
    # the norm budget N = 2/(h1+h2) beats the optimal value on the
    # extremal pair
    val = la.stechkin_value("derivative", we, omega)
    nbudget = la.operator_norm_bound(we)
    fe = la.landau_extremal("e", we, omega, n=grid)
    fup = gf.lift(fe)
    fdn = gf.lift(fe, -1.0)
    pair = [(g, gf.values_at(gf.hukuhara_derivative(g), we.t)) for g in (fup, fdn)]
    worst_gap = math.inf
    for frac in np.linspace(0.0, 1.0, 9):
        for hh in np.linspace(0.5 * we.h1, we.h1, 5):
            lam = frac * nbudget * hh  # makes the candidate norm frac * N
            err = 0.0
            for g, dg_t in pair:
                approx = lam * la.divided_difference(g, we.t, hh, hh)
                err = max(err, gf.row_dist(g.model, dg_t, approx))
            worst_gap = min(worst_gap, err)
    checks.append(_geq("candidate operators cannot beat the value", worst_gap, val, 4.0 * eps))

    checks.append(_leq("inexact-data recovery soundness", max(0.0, inexact_sup), value, 4.0 * eps))
    # adversarial perturbation of the extremal forces the value
    fband = la.landau_extremal("e", la.WindowConfig(0.5, 0, 0, h1, h2, 0, 1), omega, n=grid)
    ramp = np.interp(fband.nodes, [0.0, 0.5 - h1, 0.5 + h2, 1.0], [delta, delta, -delta, -delta])
    g = gf.GridFunction(0.0, 1.0, ls.REAL, fband.data + ramp)
    dfb = gf.hukuhara_derivative(fband)
    got = gf.row_dist(g.model, gf.values_at(dfb, 0.5), la.divided_difference(g, 0.5, h1, h2))
    checks.append(_geq("perturbed extremal reaches the value", got, value, 4.0 * eps))
    return _suite("landau", checks)


#: the recovery problems of ``recovery_sweep``
RECOVERY_KINDS = ("convexify", "integral", "identity", "derivative")


def recovery_sweep(kind: str, ns: Sequence[int], h: float, omega: Modulus, a: float, b: float,
                   trials: int, grid: int, seed: int) -> List[rec.RecoveryReport]:
    """Two-sided certification of one recovery problem at each n of
    ``ns``, in order: the optimal method is swept over class samples
    (upper side), and the lifted pair of the real lower-bound profile
    ``core`` supplies the information-indistinguishable lower bound.  The
    sweeps share one sample stream, which is drawn once."""
    return run_sweeps([_recovery_experiment(kind, n, h, omega, a, b, trials, grid, seed) for n in ns])


def _recovery_experiment(kind, n, h, omega, a, b, trials, grid, seed) -> Generator:
    """The certification of one recovery problem at one n: it yields its
    one ``Sweep`` and returns the report."""
    length = b - a
    eps = gf.eps_tolerance(omega, length, grid)
    if kind in ("convexify", "integral"):
        if h == 0.0:
            h = 0.05 * length / (2 * n)  # near the vanishing-width limit
        knots, _ = rec.optimal_knots(n, a, b)
        class_tag = HOMEGA
        theoretical = (rec.error_convexify if kind == "convexify" else rec.error_integral)(n, h, omega, length)
    elif kind in ("identity", "derivative"):
        # local to a, as the samples are drawn: the node values, the
        # polyline and its grid then do not round with |a|
        partition = np.linspace(0.0, length, n + 1)
        class_tag = W1HOMEGA
        theoretical = (rec.polyline_uniform_error if kind == "identity" else rec.derivative_recovery_value)(
            n, omega, length)
    else:
        raise ValueError(f"unknown recovery problem {kind!r}")
    # class members lie within (MAX_CONES / 2 + 1) omega(b - a) of 0, and the sweeps add and integrate them
    with np.errstate(over="ignore"):
        scale = float(omega(length))
    if not math.isfinite(16.0 * scale * max(1.0, length)):
        raise OverflowError(f"class samples, within {MAX_CONES // 2 + 1} omega(b - a) = {MAX_CONES // 2 + 1} * {scale!r}"
                            f" of 0, overflow over b - a = {length!r}")
    if kind == "convexify":
        core = rec.lower_extremal_mean(knots, h, omega, a, b, n=grid)

        def err(f: gf.GridFunction) -> float:
            info = rec.mean_info(f, knots, h)
            return gf.sup_dist(f, rec.recover_convexify(info, n=f.n_cells))

        lower = _half_target_distance(core, lambda fu, fd: gf.sup_dist(fu, fd))
    elif kind == "integral":
        core = rec.lower_extremal_integral(knots, h, omega, a, b, n=grid)

        def err(f: gf.GridFunction) -> float:
            info = rec.mean_info(f, knots, h)
            return gf.row_dist(f.model, gf.integrate(f), rec.recover_integral(info))

        lower = _half_target_distance(core, lambda fu, fd: gf.row_dist(fu.model, gf.integrate(fu), gf.integrate(fd)))
    elif kind == "identity":
        core = rec.omega_spline(n, omega, a, b, n=grid)

        def err(f: gf.GridFunction) -> float:
            f = gf.from_ordered_rows(0.0, length, f.model, f.data)
            rows = gf.values_at(f, partition)
            return gf.sup_dist(f, rec.polyline(f.model, rows, partition, n=f.n_cells))

        lower = _half_target_distance(core, lambda fu, fd: gf.sup_dist(fu, fd))
    else:
        core = rec.derivative_extremal(n, omega, a, b, grid_n=grid)

        def err(f: gf.GridFunction) -> float:
            f = gf.from_ordered_rows(0.0, length, f.model, f.data)
            rows = gf.values_at(f, partition)
            lf_prime = rec.polyline_derivative(f.model, rows, partition, n=f.n_cells)
            return gf.sup_dist(gf.hukuhara_derivative(f), lf_prime)

        lower = float(abs((core.data[1] - core.data[0]) / core.step))
    sup = yield Sweep(err, class_tag, omega, a, b, grid, trials, seed, [gf.lift(core)])
    drawn = sum(_per_model(trials))  # the injected extremal is not counted
    return rec.RecoveryReport(kind, theoretical, sup, lower, drawn, eps, extremal=core)


SUITES = {
    "lspace": suite_lspace,
    "ks": suite_ks,
    "eq12": suite_eq12,
    "general": suite_general,
    "ostrowski": suite_ostrowski,
    "recovery": suite_recovery,
    "spline": suite_spline,
    "landau": suite_landau,
}


def run_suites(names: Sequence[str], trials: int, grid: int, seed: int) -> dict:
    """Run the named suites of ``SUITES``.  A suite returns its report, or a
    generator of ``Sweep`` requests that returns it (``_sweeping``); those
    run together, so that a stream two of them sweep is drawn once."""
    made = [SUITES[n](trials, grid, seed) for n in names]
    swept = iter(run_sweeps([s for s in made if isinstance(s, GeneratorType)]))
    report = {
        "trials": sum(_per_model(trials)),
        "grid": grid,
        "seed": seed,
        "suites": [next(swept) if isinstance(s, GeneratorType) else s for s in made],
    }
    report["pass"] = all(s["pass"] for s in report["suites"])
    return report
