import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksr.poly import decreasing_rearrangements, insert_zero_crossings, merge_breakpoints


def decreasing_rearrangement(xs, ys):
    """The rearrangement of one polyline: the batch of one."""
    ((rx, ry),) = decreasing_rearrangements([(xs, ys)])
    return rx, ry


def _mes_above(xs, ys, y):
    """mes{f > y} for the polyline (xs, ys), summed segment by segment."""
    total = 0.0
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        lo, hi = min(y0, y1), max(y0, y1)
        if lo > y:
            total += x1 - x0
        elif hi > y:
            total += (x1 - x0) * (hi - y) / (hi - lo)
    return total


def _random_polyline(seed):
    """A nonnegative polyline on [-1, 2] with plateaus and repeated levels."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 2.0, 30)), [2.0]))
    ys = np.round(rng.uniform(0.0, 1.0, xs.size) * 8) / 8
    return xs, ys


def _rearrangement_per_level(xs, ys):
    """The rearrangement with two reductions per level, mes{f > v} and
    mes{f = v}, one level at a time.  Kept as the reference of the
    (levels x segments) array pass."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), 0.0)
    dx = np.diff(xs)
    ylo = np.minimum(ys[:-1], ys[1:])
    yhi = np.maximum(ys[:-1], ys[1:])
    flat = yhi - ylo <= 0.0
    r_x, r_y = [], []
    for v in np.unique(ys)[::-1]:
        cross = (~flat) & (yhi > v)
        part = np.where(ylo[cross] >= v, 1.0, (yhi[cross] - v) / (yhi[cross] - ylo[cross]))
        above = float(np.sum(dx[cross] * part) + np.sum(dx[flat & (ylo > v)]))
        at = float(np.sum(dx[flat & (ylo == v)]))
        for x in (above, above + at):
            if not r_x or x > r_x[-1] + 1e-15:
                r_x.append(x)
                r_y.append(float(v))
    if not r_x or r_x[0] > 0.0:
        r_x.insert(0, 0.0)
        r_y.insert(0, float(np.max(ys)))
    if r_x[-1] < xs[-1] - xs[0] - 1e-15:
        r_x.append(float(xs[-1] - xs[0]))
        r_y.append(float(np.min(ys)))
    return np.asarray(r_x), np.asarray(r_y)


def _plateau_polyline(seed):
    """A nonnegative polyline whose values take three levels, in runs."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.01, 0.2, 40))
    return xs, np.repeat(rng.integers(0, 3, 10) / 3, 4)


# a symmetric hat, where every level is met twice; a hat with a flat top;
# and a constant, all of whose levels are one
EQUAL_LEVEL_HATS = {
    "symmetric": (np.array([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]), np.array([0.0, 0.2, 0.6, 1.0, 0.6, 0.2, 0.0])),
    "flat-top": (np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.0, 0.5, 0.5, 0.0])),
    "constant": (np.array([2.0, 2.3, 2.9]), np.array([0.4, 0.4, 0.4])),
}


class TestRearrangementReference:
    """The one-pass level measures agree with the per-level loop to
    4 eps times the length; the levels agree exactly."""

    @staticmethod
    def check(xs, ys):
        rx, ry = decreasing_rearrangement(xs, ys)
        want_x, want_y = _rearrangement_per_level(xs, ys)
        assert ry.tolist() == want_y.tolist()
        tol = 4 * np.finfo(float).eps * (xs[-1] - xs[0])
        assert np.max(np.abs(rx - want_x)) <= tol

    @pytest.mark.parametrize("seed", range(12))
    def test_random_polylines(self, seed):
        self.check(*_random_polyline(seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_plateaus(self, seed):
        self.check(*_plateau_polyline(seed))

    @pytest.mark.parametrize("hat", EQUAL_LEVEL_HATS.values(), ids=EQUAL_LEVEL_HATS.keys())
    def test_equal_levels(self, hat):
        self.check(*hat)


class TestDecreasingRearrangement:
    def test_tent(self):
        rx, ry = decreasing_rearrangement([0.0, 0.5, 1.0], [0.0, 0.5, 0.0])
        at = np.linspace(0, 1, 101)
        assert np.max(np.abs(np.interp(at, rx, ry) - (1 - at) / 2)) <= 1e-15
        assert (rx[0], rx[-1]) == (0.0, 1.0)

    def test_constant_fixed_point(self):
        rx, ry = decreasing_rearrangement([0.0, 0.3, 1.0], [0.7, 0.7, 0.7])
        assert rx.tolist() == [0.0, 1.0] and ry.tolist() == [0.7, 0.7]

    def test_nonincreasing_input_fixed(self):
        # a plateau, a kink and a zero tail, on a domain that starts at 2
        xs = np.array([2.0, 2.2, 2.5, 2.7, 2.9, 3.0])
        ys = np.array([1.0, 0.8, 0.8, 0.3, 0.0, 0.0])
        rx, ry = decreasing_rearrangement(xs, ys)
        assert rx[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(np.interp(xs - 2.0, rx, ry) - ys)) <= 1e-12
        assert np.max(np.abs(np.interp(rx + 2.0, xs, ys) - ry)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_equimeasurable(self, seed):
        xs, ys = _random_polyline(seed)
        rx, ry = decreasing_rearrangement(xs, ys)
        assert rx[0] == 0.0 and rx[-1] == pytest.approx(3.0, abs=1e-15)
        assert np.all(np.diff(rx) > 0) and np.all(np.diff(ry) <= 0)
        # the distribution functions agree at every breakpoint level and
        # between levels
        levels = np.unique(ys)
        for y in np.concatenate((levels, 0.5 * (levels[1:] + levels[:-1]))):
            assert _mes_above(rx, ry, y) == pytest.approx(_mes_above(xs, ys, y), abs=1e-12)
        assert np.trapezoid(ry, rx) == pytest.approx(np.trapezoid(ys, xs), abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decreasing_rearrangement([0.0, 0.5, 1.0], [0.0, -0.5, 0.0])


def _zero_crossings_loop(xs, ys):
    """The segment loop that ``insert_zero_crossings`` does in one array
    pass.  Kept as the reference."""
    out_x = [xs[0]]
    out_y = [ys[0]]
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if (y0 > 0.0 > y1) or (y0 < 0.0 < y1):
            xc = xs[i] + (xs[i + 1] - xs[i]) * (0.0 - y0) / (y1 - y0)
            if xs[i] < xc < xs[i + 1]:
                out_x.append(xc)
                out_y.append(0.0)
        out_x.append(xs[i + 1])
        out_y.append(y1)
    return np.asarray(out_x), np.asarray(out_y)


def _signed_polyline(seed):
    """A polyline on a random grid with sign changes, zeros (also -0.0),
    plateaus, and crossings so steep or near an end that the crossing point
    rounds onto a breakpoint."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    xs = np.cumsum(rng.uniform(1e-3, 0.2, n))
    ys = rng.choice([-1.0, -0.25, -0.0, 0.0, 0.5, 1.0, 1e-300, -1e-300, 1e300, -1e300], n)
    ys = ys * rng.uniform(0.5, 2.0, n) if seed % 2 else ys
    return xs, ys


class TestZeroCrossings:
    """The array pass inserts the crossings of the loop, bit for bit."""

    @staticmethod
    def check(xs, ys):
        got_x, got_y = insert_zero_crossings(xs, ys)
        want_x, want_y = _zero_crossings_loop(xs, ys)
        assert (got_x.tobytes(), got_y.tobytes()) == (want_x.tobytes(), want_y.tobytes())
        return got_x, got_y

    @pytest.mark.parametrize("seed", range(40))
    def test_signed_polylines(self, seed):
        self.check(*_signed_polyline(seed))

    def test_crossing_rounds_onto_an_end(self):
        # one end's value dwarfs the other's, so each crossing rounds onto
        # that segment's other end and is not inserted
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([1e-300, -1e300, 1.0])
        got_x, got_y = self.check(xs, ys)
        assert got_x.tolist() == [0.0, 1.0, 2.0]

    def test_crossing_of_an_overflowing_product(self):
        # dx * (0 - y0) = 1e300 * 1e299 overflows; the crossing is placed by
        # the fraction (0 - y0) / (y1 - y0) = 1/2 of the segment
        got_x, got_y = insert_zero_crossings(np.array([0.0, 1e300]), np.array([1e299, -1e299]))
        assert got_x.tolist() == [0.0, 5e299, 1e300] and got_y.tolist() == [1e299, 0.0, -1e299]

    def test_two_points_and_no_crossing(self):
        self.check(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        got_x, got_y = self.check(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        assert got_x.tolist() == [0.0, 1.0, 2.0]


def _merge_breakpoints_loop(*xss):
    """The sorted breakpoints, each kept if it lies more than
    1e-13 max(1, |x|) above the last one kept, one at a time.  Kept as the
    reference of ``merge_breakpoints``; it returns no breakpoints for none."""
    allx = np.sort(np.concatenate([np.asarray(x, dtype=float) for x in xss]))
    if allx.size == 0:
        return allx
    keep = [0]
    for i in range(1, len(allx)):
        if allx[i] - allx[keep[-1]] > 1e-13 * max(1.0, abs(allx[i])):
            keep.append(i)
    return allx[keep]


# breakpoints that repeat exactly; chains of nonzero gaps below 1e-13, in
# which the loop keeps a point once the gaps since the last kept one add up
# past the tolerance; the same scaled past |x| = 1, where the tolerance
# grows with |x|; and gaps just above and below the tolerance
MERGE_CASES = {
    "repeats": ([0.0, 0.5, 0.5, 1.0], [0.5, 1.0, 0.0, 0.25], [0.25]),
    "chain": ([0.5 + 4e-14 * i for i in range(12)], [0.0, 1.0]),
    "chain-and-repeats": ([0.3 + 6e-14 * (i // 2) for i in range(16)], [0.3, 0.0]),
    "large": ([1e6 + 4e-8 * i for i in range(10)], [-3e7, -3e7 * (1 + 5e-14), -3e7 * (1 + 2e-13), 5.0]),
    "at-tolerance": ([0.0, 1e-13, 2e-13 + 1e-16, 1.0, 1.0 + 1e-13, 1.0 + 2.0000000000000002e-13],),
    "negative": ([-2.0, -2.0 + 1e-13, -1.0, -1.0 + 0.5e-13, -0.5e-13, 0.0],),
}


class TestMergeBreakpoints:
    """The array pass keeps the breakpoints of the loop, bit for bit."""

    @staticmethod
    def check(*xss):
        got = merge_breakpoints(*xss)
        want = _merge_breakpoints_loop(*xss)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("xss", MERGE_CASES.values(), ids=MERGE_CASES.keys())
    def test_cases(self, xss):
        self.check(*xss)

    def test_chain_keeps_a_point_past_the_tolerance(self):
        # gaps of 4e-14: the loop keeps every third point of the chain
        got = self.check(*MERGE_CASES["chain"])
        assert got.tolist() == [0.0, 0.5, 0.5 + 4e-14 * 3, 0.5 + 4e-14 * 6, 0.5 + 4e-14 * 9, 1.0]

    def test_empty(self):
        assert self.check([]).size == 0
        assert self.check([], np.array([])).size == 0
        assert self.check([2.0]).tolist() == [2.0]

    @given(st.lists(st.tuples(st.sampled_from([0.0, -1.0, 0.5, 3.0, -7e5, 1e12]),
                              st.integers(0, 6), st.sampled_from([0.0, 1e-14, 3e-14, 5e-14, 1e-13, 2e-13])),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_random_chains(self, points):
        # points x (1 + j * step): repeats, chains and wider gaps, at scales
        # from 1 to 1e12
        self.check([x + abs(x or 1.0) * j * step for x, j, step in points])
