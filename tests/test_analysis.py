import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_bernstein import analysis
from polya_bernstein.analysis import (
    bracket_curve,
    bracket_jumps,
    breakpoints,
    f_n_c,
    f_n_c_curve,
    n6_case_check,
    scan_curve,
    scan_sup,
    sikkema_curve,
    sikkema_function,
    verify_sweep,
)
from polya_bernstein.numeric_core import binomial_row, strict_floor_bracket
from polya_bernstein.operators import CProfile
from polya_bernstein.polya import (
    AdmissibilityError,
    PolyaParams,
    _pmf_from_products,
    log_rising,
    pmf,
    rising_products,
)
from polya_bernstein.reports import BREAKPOINT_OFFSET, GridSpec, ScanReport, dump_json, write_curves_csv


def brute_tail_sum(n, x, c):
    """Independent oracle: literal truncated sum over the pmf."""
    probs = pmf(PolyaParams(n, x, 1 - x, c))
    return sum((x - k / n) * probs[k] for k in range(n + 1) if x - k / n > n**-0.5)


def fnc_product_oracle(n, x, c):
    """F_n^c from its product definition in 50-digit arithmetic, on the
    library's truncation index."""
    if x <= 1 / math.sqrt(n):
        return 0.0
    r = strict_floor_bracket(n * x - math.sqrt(n))
    if r < 0:
        return 0.0
    r = min(r, n - 1)
    with mpmath.workdps(50):
        x, c = mpmath.mpf(x), mpmath.mpf(c)
        value = mpmath.mpf(math.comb(n - 1, r))
        for i in range(r + 1):
            value *= x + i * c
        for j in range(n - r):
            value *= 1 - x + j * c
        for i in range(n):
            value /= 1 + i * c
        return float(value)


def fnc_product_route(n, xs, cs):
    """F_n^c through the cumulative products of rising_products."""
    r = strict_floor_bracket(n * xs - math.sqrt(n))
    active = (xs > 1 / math.sqrt(n)) & (r >= 0)
    out = np.zeros_like(xs)
    rr = np.minimum(r[active], n - 1)
    cum_a, cum_b, den = rising_products(n, xs[active], cs[active])
    cols = np.arange(rr.size)
    binom = np.array([math.comb(n - 1, k) for k in range(n)], dtype=float)
    out[active] = binom[rr] * cum_a[rr + 1, cols] * cum_b[n - rr, cols] / den
    return out


@st.composite
def admissible_fnc_args(draw):
    n = draw(st.integers(min_value=2, max_value=400))
    x = draw(st.floats(min_value=0.0, max_value=1.0))
    boundary = -min(x, 1.0 - x) / (n - 1)
    kind = draw(st.sampled_from(["zero", "tiny", "positive", "interior", "boundary"]))
    if kind == "zero":
        c = 0.0
    elif kind == "tiny":
        sign = draw(st.sampled_from([1.0, -1.0]))
        c = max(sign * 10.0 ** draw(st.floats(min_value=-300, max_value=-6)), boundary)
    elif kind == "positive":
        c = draw(st.floats(min_value=1e-6, max_value=10.0))
    elif kind == "interior":
        c = boundary * draw(st.floats(min_value=0.0, max_value=1.0))
    else:
        c = boundary
    return n, x, c


class TestFnc:
    @settings(max_examples=300, deadline=None)
    @given(args=admissible_fnc_args())
    def test_curve_matches_scalar_and_product_definition(self, args):
        n, x, c = args
        got = float(f_n_c_curve(n, np.array([x]), c)[0])
        # The logs carry ~eps * |log 1^(n,c)| each; that exceeds 1e-12 only
        # for n c >> 1 (log 1^(400,10) ~ 2700).
        rel = max(1e-12, 2e-15 * abs(float(log_rising(1.0, n, c))))
        for want in (f_n_c(n, x, c), fnc_product_oracle(n, x, c)):
            assert abs(got - want) <= rel * abs(want) + 1e-15

    def test_curve_matches_product_route_on_scan_grids(self):
        for n in (2, 6, 37, 200):
            for jumps in (breakpoints(n), bracket_jumps(n)):
                xs = analysis._sym_scan_grid(n, GridSpec(points=2001), jumps)
                for cs in (np.zeros_like(xs), CProfile("rn").c_at(xs, n)):
                    for arg in (xs, 1.0 - xs):
                        got = f_n_c_curve(n, arg, cs)
                        np.testing.assert_allclose(
                            got, fnc_product_route(n, arg, cs), rtol=0, atol=1e-15
                        )

    def test_zero_branch(self):
        assert f_n_c(9, 0.3, 0.0) == 0.0  # 0.3 <= 1/3

    def test_hand_example(self):
        # r = ]4*0.8 - 2[ = 1, value C(3,1) * 0.8^2 * 0.2^3
        assert f_n_c(4, 0.8, 0.0) == pytest.approx(0.01536, rel=1e-12)

    def test_matches_brute_force_sum(self):
        for n, x, c in [(6, 0.45, -0.09), (6, 0.58, -0.084), (10, 0.77, -0.02), (7, 0.9, 0.0)]:
            assert f_n_c(n, x, c) == pytest.approx(brute_tail_sum(n, x, c), abs=1e-12)

    def test_rejects_inadmissible_c(self):
        with pytest.raises(AdmissibilityError):
            f_n_c(6, 0.45, -0.2)

    def test_rejects_a_c_whose_step_overflows(self):
        with pytest.raises(AdmissibilityError, match="not finite"):
            f_n_c(5, 0.9, 1e308)
        with pytest.raises(AdmissibilityError, match="not finite"):
            f_n_c_curve(5, np.array([0.9]), 1e308)

    def test_curve_matches_scalar(self):
        n = 8
        xs = np.linspace(0, 1, 301)
        cs = CProfile("rn").c_at(xs, n)
        curve = f_n_c_curve(n, xs, cs)
        for j in range(0, 301, 7):
            assert curve[j] == pytest.approx(f_n_c(n, float(xs[j]), float(cs[j])), abs=1e-14)

    @pytest.mark.parametrize("n, x, c", [(5, 1.5, 1.0), (5, -0.5, 0.0), (5, 0.1, -0.5)])
    def test_curve_rejects_what_the_point_rejects(self, n, x, c):
        # x outside [0, 1], and an inadmissible c where F_n^c is 0
        with pytest.raises(ValueError):
            f_n_c(n, x, c)
        with pytest.raises(AdmissibilityError):
            f_n_c_curve(n, np.array([x]), c)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_point_and_curve_refuse_n_below_two(self, n):
        with pytest.raises(ValueError, match="requires n > 1"):
            f_n_c(n, 0.7, 0.0)
        with pytest.raises(ValueError, match="requires n > 1"):
            f_n_c_curve(n, np.array([0.7]), 0.0)

    def test_curve_keeps_a_zero_d_grid(self):
        got = f_n_c_curve(6, np.asarray(0.7), 0.0)
        assert got.shape == () and float(got) == pytest.approx(f_n_c(6, 0.7, 0.0), rel=1e-13)

    def test_vanishes_below_threshold_for_all_c(self):
        for n in (2, 5, 12):
            for x in np.linspace(0, 1 / math.sqrt(n), 20):
                assert f_n_c(n, float(x), 0.0) == 0.0
                assert f_n_c(n, float(x), float(CProfile("rn").c_at(x, n))) == 0.0

    def test_boundary_profile_dominated_by_zero_profile(self):
        for n in range(2, 41):
            xs = np.linspace(0, 1, 501)
            gap = f_n_c_curve(n, xs, CProfile("rn").c_at(xs, n)) - f_n_c_curve(n, xs, 0.0)
            assert gap.max() <= 1e-13


def unchunked_fnc(n, xs, cs):
    """F_n^c in two phases, as f_n_c_curve once ran it: the truncation index,
    active mask and gathers at full size, then the log-space part in one
    pass over every active point."""
    xs = np.asarray(xs, dtype=float)
    cs = np.broadcast_to(np.asarray(cs, dtype=float), xs.shape)
    r = np.asarray(analysis._truncation_index(n, xs))
    active = r >= 0
    out = np.zeros_like(xs)
    x, c, rr = xs[active], cs[active], r[active]
    out[active] = np.exp(binomial_row(n - 1, log=True)[rr] + log_rising(x, rr + 1, c)
                         + log_rising(1.0 - x, n - rr, c) - log_rising(1.0, n, c))
    return out


class TestChunkedFnc:
    """f_n_c_curve runs its log-space part in chunks under BLOCK_BYTES;
    every point is computed on its own, so chunking moves no bit."""

    CHUNK = analysis.BLOCK_BYTES // 256  # f_n_c_curve's points per chunk

    def c_values(self, kind, n, xs, rng):
        if kind in ("zero", "rn"):
            return CProfile(kind).c_at(xs, n)
        if kind == "between":
            return CProfile("rn").c_at(xs, n) * rng.uniform(0.0, 1.0, xs.size)
        return kind

    @pytest.mark.parametrize("kind", ["zero", "rn", "between", 0.0, -0.0])
    @pytest.mark.parametrize("n", [7, 150])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "3k+7"])
    def test_chunks_equal_one_pass(self, monkeypatch, kind, n, extra):
        size = 3 * self.CHUNK + 7 if extra == "3k+7" else self.CHUNK + extra
        rng = np.random.default_rng(size + n)
        # every point active, x = 1 and repeated points included
        xs = np.sort(np.concatenate([rng.uniform(1.0 / math.sqrt(n) + 1.0 / n, 1.0, size - 3),
                                     [1.0, 0.75, 0.75]]))
        cs = self.c_values(kind, n, xs, rng)
        calls = []
        monkeypatch.setattr(analysis, "log_rising",
                            lambda *args: calls.append(np.size(args[0])) or log_rising(*args))
        got = f_n_c_curve(n, xs, cs)
        assert len(calls) == 3 * -(-size // self.CHUNK)
        assert same_bits(got, unchunked_fnc(n, xs, cs))

    @pytest.mark.parametrize("kind", ["rn", 0.0, -0.0])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "3k+7"])
    @pytest.mark.parametrize("shape", ["0-d", "1-D", "(3, k)"])
    def test_one_chunk_loop_equals_two_phases(self, kind, extra, shape):
        # inactive points (x <= 1/sqrt(n)) at both ends of the array and
        # scattered through it, so chunk edges fall among them
        n = 30
        size = 3 * self.CHUNK + 7 if extra == "3k+7" else self.CHUNK + extra
        rng = np.random.default_rng(size)
        xs = rng.uniform(0.0, 1.0, size)
        xs[[0, 1, -2, -1]] = [0.0, 0.1, 0.15, 1.0 / math.sqrt(n)]
        if shape == "0-d":
            xs = np.asarray(xs[size // 2])
        elif shape == "(3, k)":
            xs = np.stack([xs, xs[::-1], 1.0 - xs])
        cs = self.c_values(kind, n, xs, rng)
        got = f_n_c_curve(n, xs, cs)
        want = unchunked_fnc(n, xs, cs)
        assert got.shape == xs.shape and same_bits(got, want)
        assert (got == 0.0).any() or shape == "0-d"

    @pytest.mark.parametrize("kind", ["zero", "rn"])
    def test_chunks_of_a_grid_with_inactive_points(self, kind):
        n, size = 40, 3 * self.CHUNK + 7
        xs = np.linspace(0.0, 1.0, size)
        cs = self.c_values(kind, n, xs, None)
        assert same_bits(f_n_c_curve(n, xs, cs), unchunked_fnc(n, xs, cs))


def index_probe_points(n):
    """linspace(0, 1, 2001) with each jump of r(x) and the floats either
    side of it."""
    jumps = np.array(breakpoints(n))
    near = [np.nextafter(jumps, 0.0), jumps, np.nextafter(jumps, 1.0)]
    return np.concatenate([np.linspace(0.0, 1.0, 2001), *near])


class TestTruncationIndex:
    """analysis._truncation_index against the rules it replaced: the strict
    floor of n x - sqrt(n), the x > 1/sqrt(n) mask, the cap at n - 1."""

    @staticmethod
    def old_rule(n, xs):
        r = strict_floor_bracket(n * xs - math.sqrt(n))
        active = (xs > 1.0 / math.sqrt(n)) & (r >= 0)
        return np.where(active, np.minimum(r, n - 1), -1)

    def test_array_index_matches_the_old_rule(self):
        for n in range(2, 201):
            xs = index_probe_points(n)
            # x as f_n_c_curve takes it, 1 - x as the Kozniewska reflection
            for arg in (xs, 1.0 - xs):
                np.testing.assert_array_equal(analysis._truncation_index(n, arg),
                                              self.old_rule(n, arg), err_msg=f"n={n}")

    def test_scalar_index_matches_the_array_index(self):
        for n in range(2, 201):
            xs = index_probe_points(n)[::3]  # a third of the grid and of the jumps
            want = analysis._truncation_index(n, xs)
            got = [analysis._truncation_index(n, float(x)) for x in xs]
            assert all(type(r) is int for r in got)
            assert got == want.tolist(), n

    @pytest.mark.parametrize("points", [2, 3, 101, 2001, 10001])
    def test_rmax_matches_the_old_floor(self, points):
        xs = np.linspace(0.0, 1.0, points)
        for n in range(2, 201):
            old = np.minimum(np.floor(n * xs - math.sqrt(n) + 1e-12).astype(int), n - 1)
            np.testing.assert_array_equal(analysis._rmax(n, xs), old, err_msg=f"n={n}")


class TestSikkemaFunction:
    def test_threshold_point_gives_one(self):
        # both arguments sit on the zero branch at n=4, x=1/2
        assert sikkema_function(4, 0.5, "zero") == 1.0

    def test_boundary_profile_stays_below_printed_bound(self):
        xs = np.linspace(0, 1, 2001)
        vals = sikkema_curve(6, xs, "rn")
        assert vals.max() <= 1.0699134 + 1e-6

    def test_n6_zero_mode_characterization(self):
        # The jump of the truncation index just past 1/sqrt(6)+1/6 pushes the
        # bound function to ~1.0939 at n=6, well above the ~1.08989 maximum of
        # the sharper bracket-weighted sum it majorizes.
        rep = scan_sup([6], "zero", GridSpec(points=20001), bound="majorant")
        assert 1.0930 <= rep.sup <= 1.0945
        bracket_max = _bracket_sum_max(6, 20001)
        assert bracket_max == pytest.approx(1.0898873, abs=2e-4)
        assert rep.sup > bracket_max


def loop_breakpoints(n):
    """The jump set of r(x) as the original while loop built it."""
    root = math.sqrt(n)
    pts = []
    k = 0
    while True:
        b = 1.0 / root + k / n
        if b >= 1.0:
            break
        pts.append(b)
        k += 1
    return pts


def loop_bracket_jumps(n):
    """The bracket jump set as the original triple loop into a set built it."""
    root = math.sqrt(n)
    pts = set()
    for k in range(n + 1):
        for m in range(1, math.isqrt(n) + 1):
            for p in (k / n - m / root, k / n + m / root):
                if 0.0 < p < 1.0:
                    pts.add(p)
    return sorted(pts)


def loop_scan_grid(grid, jumps):
    """_sym_scan_grid with its refinement built point by point."""
    base = np.linspace(0.0, 1.0, grid.points)
    extra = np.array([
        p
        for b in jumps
        for p in (b - BREAKPOINT_OFFSET, b, b + BREAKPOINT_OFFSET)
        if 0.0 <= p <= 1.0
    ])
    folded = np.where(extra >= 0.5, extra, 1.0 - extra)
    upper = np.unique(np.concatenate([base[base >= 0.5], folded]))
    return np.unique(np.concatenate([1.0 - upper, upper]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestJumpSets:
    def test_jump_sets_are_the_loop_sets_bit_for_bit(self):
        for n in range(1, 201):
            for got, want in ((breakpoints(n), loop_breakpoints(n)),
                              (bracket_jumps(n), loop_bracket_jumps(n))):
                assert type(got) is list and all(type(p) is float for p in got)
                assert same_bits(got, want), n

    @pytest.mark.parametrize("points", [1000, 1001, 2001, 10001])
    def test_scan_grids_are_the_loop_grids_bit_for_bit(self, points):
        grid = GridSpec(points=points)
        for n in range(2, 201):
            for jumps in (loop_breakpoints(n), loop_bracket_jumps(n), []):
                assert same_bits(analysis._sym_scan_grid(n, grid, jumps),
                                 loop_scan_grid(grid, jumps)), (n, len(jumps))


def _bracket_sum_max(n, points):
    from polya_bernstein.numeric_core import binomial_row, strict_floor_bracket

    xs = np.linspace(0, 1, points)
    best = 0.0
    k = np.arange(n + 1)
    binom = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    for x in xs:
        probs = binom * x**k * (1 - x) ** (n - k)
        lam = np.abs(x - k / n) * math.sqrt(n)
        s = 1 + sum(max(0, strict_floor_bracket(float(l))) * p for l, p in zip(lam, probs))
        best = max(best, s)
    return best


class TestScanSup:
    def test_breakpoints(self):
        bps = breakpoints(4)
        assert bps == pytest.approx([0.5, 0.75])

    def test_zero_mode_sups_match_known_window(self):
        rep = scan_sup(range(2, 11), "zero", GridSpec(points=2001))
        sups = dict((n, s) for n, s, _ in rep.per_n)
        assert sups[2] == pytest.approx(1.0857864, abs=1e-4)
        assert all(s <= 1.0897 for n, s in sups.items() if n != 6)

    def test_rn_mode_never_exceeds_zero_mode(self):
        grid = GridSpec(points=2001)
        zero = scan_sup(range(2, 21), "zero", grid)
        rn = scan_sup(range(2, 21), "rn", grid)
        for (n0, s0, _), (n1, s1, _) in zip(zero.per_n, rn.per_n):
            assert n0 == n1
            assert s1 <= s0 + 1e-9

    def test_sup_invariant_under_grid_doubling(self):
        for n in (5, 6, 13):
            a = scan_sup([n], "zero", GridSpec(points=5001)).sup
            b = scan_sup([n], "zero", GridSpec(points=10001)).sup
            assert abs(a - b) <= 1e-12

    def test_grid_is_bitwise_symmetric(self):
        grid = GridSpec(points=2001)
        for n in (3, 6, 10):
            xs = analysis._sym_scan_grid(n, grid, breakpoints(n))
            mirror = 1.0 - xs
            assert np.all(np.isin(mirror, xs))
            vals = sikkema_curve(n, xs, "zero")
            order = np.argsort(mirror, kind="stable")
            np.testing.assert_array_equal(vals[order], vals)

    def test_argmax_reproduces_sup_bit_exactly(self):
        rep = scan_sup([7], "zero", GridSpec(points=2001), bound="majorant")
        recomputed = float(sikkema_curve(7, np.array([rep.argmax_x]), "zero")[0])
        assert recomputed == rep.sup
        assert sikkema_function(7, rep.argmax_x, "zero") == pytest.approx(rep.sup, rel=1e-14)

    def test_workers_do_not_change_result(self):
        grid = GridSpec(points=2001)
        a = scan_sup(range(2, 9), "zero", grid, workers=1)
        b = scan_sup(range(2, 9), "zero", grid, workers=3)
        assert a == b

    @pytest.mark.parametrize("cpus, processes", [(None, None), (1, None), (2, 2), (8, 8)])
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, serial_pool, cpus, processes):
        started = serial_pool
        # a platform without affinity masks, where the host's count rules
        monkeypatch.delattr(analysis.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
        stream = analysis._map_over_n(abs, list(range(-20, 0)), workers=64)
        assert started == []  # lazy: no pool before the first result is drawn
        assert list(stream) == list(range(20, 0, -1))
        assert started == ([] if processes is None else [processes])

    @pytest.mark.parametrize("mask, want", [({0, 5}, 2), ({3}, 1)])
    def test_cpu_count_reads_the_affinity_mask(self, monkeypatch, serial_pool, mask, want):
        # pinned to some of 64 CPUs
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: mask, raising=False)
        assert analysis._cpu_count() == want
        assert list(analysis._map_over_n(abs, list(range(-20, 0)), workers=64)) == list(
            range(20, 0, -1))
        assert serial_pool == ([want] if want > 1 else [])

    @pytest.mark.parametrize("c_mode", ["zero", "rn"])
    @pytest.mark.parametrize("points", [1000, 1001])
    def test_mirrored_majorant_is_bit_exact(self, c_mode, points):
        # points = 1000 gives grids of both parities, 1001 odd ones
        sizes = set()
        for n in (2, 3, 6, 7, 36, 64, 169, 200):
            xs, vals = scan_curve(n, c_mode, GridSpec(points=points), "majorant")
            assert np.array_equal(vals, sikkema_curve(n, xs, c_mode))
            sizes.add(xs.size % 2)
        assert sizes == ({0, 1} if points == 1000 else {1})

    @pytest.mark.parametrize("c_mode", ["zero", "rn"])
    @pytest.mark.parametrize("points", [1000, 1001])
    def test_mirrored_bracket_sum_matches_its_curve(self, c_mode, points):
        # the pmf columns at x and 1 - x agree to rounding, not bit for bit
        for n in (2, 3, 6, 7, 36, 64, 169, 200):
            xs, vals = scan_curve(n, c_mode, GridSpec(points=points), "bracket")
            np.testing.assert_allclose(vals, bracket_curve(n, xs, c_mode), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("points", [1000, 1001, 2001])
    def test_grid_without_jumps_is_the_base_grid_size(self, points):
        for n in (2, 6, 200):
            xs = analysis._sym_scan_grid(n, GridSpec(points=points), [])
            assert xs.size == points
            np.testing.assert_array_equal(xs[::-1], 1.0 - xs)

    @pytest.mark.parametrize("bound", ["majorant", "bracket"])
    @pytest.mark.parametrize("c_mode", ["zero", "rn"])
    def test_every_argmax_lies_in_the_lower_half(self, bound, c_mode):
        # the scanned values are mirrored, so the first maximum is at x <= 1/2
        rep = scan_sup(range(2, 41), c_mode, GridSpec(points=1001), bound=bound)
        assert all(x <= 0.5 for _, _, x in rep.per_n)

    def test_bracket_argmax_of_n70_is_mirrored(self):
        # a grid that keeps both a base point and the ulp-off fold of its
        # mirror read this argmax above 1/2, at 0.50524
        rep = scan_sup([70], "zero", GridSpec(points=2001))
        assert rep.argmax_x <= 0.5

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            scan_sup([1], "zero", GridSpec(points=2001))
        with pytest.raises(ValueError):
            scan_sup([2], "zero", GridSpec(points=500))

    @pytest.mark.parametrize("bound", ["bogus", "Bracket"])
    def test_rejects_unknown_bounds(self, bound):
        with pytest.raises(ValueError, match=f"unknown bound '{bound}'"):
            scan_sup([2], "zero", GridSpec(points=2001), bound=bound)
        with pytest.raises(ValueError, match=f"unknown bound '{bound}'"):
            scan_curve(2, "zero", GridSpec(points=2001), bound)

    def test_rejects_c_modes_other_than_zero_and_rn(self):
        xs = np.linspace(0, 1, 11)
        for c_mode in ("constant", "bogus"):
            with pytest.raises(ValueError, match="c-mode"):
                scan_sup([2], c_mode, GridSpec(points=2001))
            with pytest.raises(ValueError, match="c-mode"):
                sikkema_function(4, 0.7, c_mode)
            with pytest.raises(ValueError, match="c-mode"):
                sikkema_curve(4, xs, c_mode)
            with pytest.raises(ValueError, match="c-mode"):
                bracket_curve(4, xs, c_mode)


SIKKEMA_CONSTANT = (4306 + 837 * math.sqrt(6)) / 5832


def bracket_sum_oracle(n, x, c, pmf_oracle):
    """Independent oracle: literal bracket-weighted sum over the 50-digit pmf."""
    probs = pmf_oracle(n, x, c)
    lams = [math.sqrt(n) * abs(x - k / n) for k in range(n + 1)]
    return 1 + sum(max(0, strict_floor_bracket(lam)) * p for lam, p in zip(lams, probs))


class TestBracketSum:
    def test_jumps(self):
        assert bracket_jumps(4) == pytest.approx([0.25, 0.5, 0.75])
        assert 5 / 6 - 1 / math.sqrt(6) in bracket_jumps(6)

    def test_curve_matches_scalar_oracle(self, pmf_oracle):
        xs = np.linspace(0, 1, 97)
        for n in (2, 6, 11):
            for c_mode, cs in (("zero", np.zeros_like(xs)), ("rn", CProfile("rn").c_at(xs, n))):
                vals = bracket_curve(n, xs, c_mode)
                for j in range(0, 97, 4):
                    want = bracket_sum_oracle(n, float(xs[j]), float(cs[j]), pmf_oracle)
                    assert vals[j] == pytest.approx(want, abs=1e-14)

    def test_takes_lower_one_sided_value_at_a_jump(self):
        # left of 5/6 - 1/sqrt(6) the k = 5 bracket is 1, at and right of it 0
        b = 5 / 6 - 1 / math.sqrt(6)
        left, at, right = bracket_curve(6, np.array([b - 1e-9, b, b + 1e-9]), "zero")
        assert at == pytest.approx(right, abs=1e-8)
        assert left > at + 0.01

    def test_majorant_dominates_pointwise(self):
        for n in range(2, 31):
            xs = analysis._sym_scan_grid(n, GridSpec(points=1001), bracket_jumps(n))
            for c_mode in ("zero", "rn"):
                gap = bracket_curve(n, xs, c_mode) - sikkema_curve(n, xs, c_mode)
                assert gap.max() <= 1e-14

    def test_n6_scan_reaches_sikkema_constant(self):
        rep = scan_sup([6], "zero", GridSpec(points=10001))
        assert rep.meta["bound"] == "bracket"
        assert rep.sup <= SIKKEMA_CONSTANT
        assert SIKKEMA_CONSTANT - rep.sup <= 1e-8
        peak = 5 / 6 - 1 / math.sqrt(6)
        assert min(abs(rep.argmax_x - peak), abs(rep.argmax_x - (1 - peak))) <= 1e-8

    def test_default_bound_follows_profile(self):
        grid = GridSpec(points=1001)
        assert scan_sup([5], "zero", grid).meta["bound"] == "bracket"
        assert scan_sup([5], "rn", grid).meta["bound"] == "majorant"
        assert scan_sup([5], "rn", grid) == scan_sup([5], "rn", grid, bound="majorant")
        with pytest.raises(ValueError):
            scan_sup([5], "zero", grid, bound="tail")


def strict_witness_oracle(ns, points, c_samples):
    """The lemma's strict witness by brute force: every failing strict
    margin over whole-sweep arrays, visited in (n, r, cell) order, and the
    first smallest kept."""
    best = None
    for n in ns:
        xs = np.linspace(0.0, 1.0, points)
        X = np.repeat(xs, c_samples)
        C = (CProfile("rn").c_at(xs, n)[:, None] * np.linspace(1.0, 0.0, c_samples)).ravel()
        cum_a, cum_b, den = rising_products(n, X, C)
        rmax = np.minimum(np.floor(n * X - math.sqrt(n) + 1e-12).astype(int), n - 1)
        for r in range(n):
            rhs = X ** (r + 1) * (1.0 - X) ** (n - r)
            margin = rhs - cum_a[r + 1] * cum_b[n - r] / den
            strict = (C < analysis.STRICT_C_CUTOFF) & (rmax >= r)
            fail = strict & (margin <= 0.0)
            for cell in np.flatnonzero(strict & (rhs < np.finfo(float).tiny) & (X < 1.0)):
                ratio = analysis._lemma_log_ratio(n, r, X[cell : cell + 1], C[cell : cell + 1])
                fail[cell] = ratio[0] >= 0.0
            for cell in np.flatnonzero(fail):
                if best is None or margin[cell] < best[0]:
                    best = (margin[cell], {"n": n, "x": float(X[cell]), "c": float(C[cell]), "r": r})
    return {} if best is None else best[1]


class TestLemmaVerifier:
    # one grid point per block, the default budget, and the former 2 MiB one
    @pytest.mark.parametrize("budget", [1, analysis.BLOCK_BYTES, 2 << 20])
    def test_strict_witness_is_the_first_smallest_failure(self, monkeypatch, budget):
        # with every cell strict, the c = -0.0 cells, where both sides agree
        # up to rounding, fail at many (n, r) with ties
        monkeypatch.setattr(analysis, "STRICT_C_CUTOFF", 0.5)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
        (rep,) = verify_sweep(range(2, 9), ["lemma"], GridSpec(points=201), 5)
        assert not rep.passed and not rep.details["strict_ok"]
        assert rep.details["strict_witness"] == strict_witness_oracle(range(2, 9), 201, 5)

    def test_small_sweep_passes(self):
        (rep,) = verify_sweep(range(2, 13), ["lemma"], GridSpec(points=501), c_samples=9)
        assert rep.passed
        assert rep.worst_margin >= -1e-13
        assert rep.details["strict_ok"]
        assert rep.samples_checked > 0

    def test_c_zero_slice_is_identity(self):
        for n in (3, 7, 15):
            for x in np.linspace(0.6, 0.99, 17):
                rmax = math.floor(n * x - math.sqrt(n))
                for r in range(max(0, rmax + 1)):
                    from polya_bernstein.numeric_core import factorial_ratio

                    lhs = factorial_ratio(float(x), r, n, 0.0)
                    rhs = float(x) ** (r + 1) * (1 - float(x)) ** (n - r)
                    assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_strict_for_negative_c_at_r_zero(self):
        from polya_bernstein.numeric_core import factorial_ratio

        for n in (4, 9, 20):
            for x in np.linspace(0.55, 0.95, 9):
                c = float(CProfile("rn").c_at(x, n))
                lhs = factorial_ratio(float(x), 0, n, c)
                rhs = float(x) * (1 - float(x)) ** n
                assert lhs < rhs

    def test_workers_deterministic(self):
        grid = GridSpec(points=301)
        a = verify_sweep(range(2, 9), ["lemma"], grid, 5, workers=1)
        b = verify_sweep(range(2, 9), ["lemma"], grid, 5, workers=2)
        assert a == b


def lemma_block_reference(self, cells, xb, rb, X, C, cum_a, cum_b, den, spare):
    """The lemma's block as one pass per r over the suffix of cells with
    rmax >= r, the form the one 2-D pass replaced."""
    n, cs = self.n, self.cs
    strict_c = C < analysis.STRICT_C_CUTOFF
    for r in range(int(rb[-1]) + 1):
        g = int(np.searchsorted(rb, r))
        s = g * cs
        rhs_x = xb[g:] ** (r + 1) * (1.0 - xb[g:]) ** (n - r)
        margin = np.repeat(rhs_x, cs) - cum_a[r + 1, s:] * cum_b[n - r, s:] / den[s:]
        self.checked += margin.size
        analysis._first_min(self.worst[r, :1], self.where[r, :1], margin[None], cells[s:])
        strict = strict_c[s:]
        fail = strict & (margin <= 0.0)
        under = (rhs_x < np.finfo(float).tiny) & (xb[g:] < 1.0)
        if np.any(under):
            t = np.nonzero(strict & np.repeat(under, cs))[0]
            fail[t] = analysis._lemma_log_ratio(n, r, X[s + t], C[s + t]) >= 0.0
        if np.any(fail):
            f = np.nonzero(fail)[0]
            analysis._first_min(self.worst[r, 1:], self.where[r, 1:], margin[None, f], cells[s + f])


class ReferenceLemma(analysis._LemmaSweep):
    block = lemma_block_reference


def same_lemma_state(a, b):
    return (same_bits(a.worst, b.worst) and np.array_equal(a.where, b.where)
            and a.checked == b.checked)


class TestLemmaBlock:
    """The lemma's one 2-D pass per block keeps what the per-r passes kept:
    worst margins, their cells, the count and the strict witness."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scaled", [True, False])
    def test_random_blocks_match_the_per_r_passes(self, monkeypatch, seed, scaled):
        if not scaled:
            # every cell strict: the c = 0 cells fail by rounding, some with
            # a margin of exactly 0
            monkeypatch.setattr(analysis, "STRICT_C_CUTOFF", 0.5)
        rng = np.random.default_rng(seed)
        n, cs = int(rng.integers(2, 80)), int(rng.integers(1, 6))
        # x near 1 makes the right side underflow, and repeated points tie
        xs = np.sort(np.concatenate([rng.uniform(0.0, 1.0, 60), 1.0 - 10.0 ** -rng.uniform(3, 15, 6),
                                     [0.0, 0.5, 0.5, 1.0, 1.0]]))
        xs, cgrid = analysis._LemmaSweep.cells(n, xs, cs)
        X, C = np.repeat(xs, cs), cgrid.ravel()
        rmax = analysis._rmax(n, xs)
        fast, ref = analysis._LemmaSweep(n, cs), ReferenceLemma(n, cs)
        cuts = [0, *np.sort(rng.choice(np.arange(1, xs.size), 3, replace=False)).tolist(), xs.size]
        for g0, g1 in zip(cuts, cuts[1:]):
            s0, s1 = g0 * cs, g1 * cs
            cum_a, cum_b, den = rising_products(n, X[s0:s1], C[s0:s1])
            if scaled:  # so that strict failures occur
                cum_a *= rng.choice([0.5, 1.0, 2.0, 1e6], cum_a.shape)
            args = (np.arange(s0, s1), xs[g0:g1], rmax[g0:g1], X[s0:s1], C[s0:s1], cum_a, cum_b, den)
            ref.block(*args, np.full((n, s1 - s0), np.nan))
            fast.block(*args, np.full((n, s1 - s0), np.nan))
            assert same_lemma_state(fast, ref)
        assert np.isfinite(ref.worst[:, 1]).any()  # some strict failure was kept
        assert fast.result(X, C) == ref.result(X, C)

    def test_underflow_rows_near_n_max(self, monkeypatch):
        logged = []
        log_ratio = analysis._lemma_log_ratio
        monkeypatch.setattr(analysis, "_lemma_log_ratio",
                            lambda *args: logged.append(args[2].size) or log_ratio(*args))
        for n in range(195, 201):
            xs, cgrid = analysis._LemmaSweep.cells(n, np.linspace(0.0, 1.0, 2001), 5)
            fast, ref = analysis._LemmaSweep(n, 5), ReferenceLemma(n, 5)
            analysis._sweep_n(n, xs, cgrid, [fast])
            analysis._sweep_n(n, xs, cgrid, [ref])
            assert same_lemma_state(fast, ref)
            X, C = np.repeat(xs, 5), cgrid.ravel()
            assert fast.result(X, C) == ref.result(X, C)
        assert sum(logged) > 0  # the log ratio decided some cells


def reflection_tails_reference(n, xb, X, cum_a, cum_b, den, cs):
    """The reflection's tails by a second, downward accumulation over the
    reversed pmf, the form that reading them off the truncated-moment
    partial sums replaced: per active cell, with r' the truncation index at
    1 - x, sum_{k' <= r'} ((1 - x) - k'/n) p_{n-k'}."""
    probs = _pmf_from_products(cum_a.copy(), cum_b, den)
    rp = analysis._truncation_index(n, 1.0 - xb)
    rr = np.repeat(rp[rp >= 0], cs)
    a = rr.size
    terms = (1.0 - X[:a])[None, :] - np.arange(n + 1, dtype=float)[:, None] / n
    terms *= probs[::-1, :a]
    np.add.accumulate(terms, axis=0, out=terms)
    return terms[rr, np.arange(a)]


class TestReflectionTails:
    """The reflection reads each tail as a prefix of the truncated-moment
    partial sums less their total."""

    @pytest.mark.parametrize("budget", [1, analysis.BLOCK_BYTES, 2 << 20])
    @pytest.mark.parametrize("c_samples", [5, 21])
    @pytest.mark.parametrize("ns", [range(2, 41), range(195, 201)], ids=["2..40", "195..200"])
    def test_tails_match_the_downward_accumulation(self, monkeypatch, ns, c_samples, budget):
        # F_n^c(1-x) is replaced by the reference tails of the same cells,
        # so the reflection slot keeps the largest gap between the two
        monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
        pending = []

        def reference_kernel(n, xs, cs):
            want_x, want_c, tails = pending.pop()
            assert np.array_equal(xs, want_x) and np.array_equal(cs, want_c)
            return tails

        class Probe(analysis._KozniewskaSweep):
            def block(self, cells, xb, rb, X, C, cum_a, cum_b, den, spare):
                tails = reflection_tails_reference(self.n, xb, X, cum_a, cum_b, den, self.cs)
                a = tails.size
                pending[:] = [(1.0 - X[:a], C[:a], tails)]
                super().block(cells, xb, rb, X, C, cum_a, cum_b, den, spare)
                # the kernel ran on the active prefix, and only where there is one
                assert len(pending) == (a == 0)

        monkeypatch.setattr(analysis, "f_n_c_curve", reference_kernel)
        for n in ns:
            xs, cgrid = analysis._KozniewskaSweep.cells(n, np.linspace(0.0, 1.0, 2001), c_samples)
            probe = Probe(n, c_samples)
            analysis._sweep_n(n, xs, cgrid, [probe])
            assert -probe.worst[n] <= 1e-15

    def test_a_scaled_kernel_fails_the_reflection(self, monkeypatch):
        kernel = analysis.f_n_c_curve
        monkeypatch.setattr(analysis, "f_n_c_curve", lambda *args: kernel(*args) * (1.0 + 1e-9))
        (rep,) = verify_sweep(range(2, 41), ["kozniewska"], GridSpec(points=401), 5)
        assert not rep.passed
        assert rep.witness["check"] == "reflection"


class TestSweepBlocks:
    """Column blocks change no output bit, down to which of several tied
    witnesses is reported."""

    GRID = GridSpec(points=401)  # one block per n under the default budget

    def reports(self):
        ns, grid = range(2, 9), self.GRID
        return [
            verify_sweep(ns, ["lemma"], grid, 5)[0].to_json_dict(),
            verify_sweep(ns, ["kozniewska"], grid, 5)[0].to_json_dict(),
            verify_sweep(ns, ["conjecture"], grid, 5)[0].to_json_dict(),
            # the n = 2 truncated-moment witness ties with two later cells
            verify_sweep([2], ["kozniewska"], GridSpec(points=201), 5)[0].to_json_dict(),
        ]

    @pytest.mark.parametrize("budget", [1, 10_007])  # one grid point per block; odd blocks
    def test_block_budget_changes_no_bit(self, monkeypatch, budget):
        whole = self.reports()
        # the n = 3 lemma witness ties with seven later c = -0.0 cells
        assert whole[0]["witness"]["n"] == 3
        assert math.copysign(1.0, whole[0]["witness"]["c"]) == -1.0
        monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
        assert self.reports() == whole

    def test_fused_sweep_matches_single_checks(self):
        both = verify_sweep(range(2, 9), ("kozniewska", "lemma"), self.GRID, 5)
        assert [r.to_json_dict() for r in both] == self.reports()[:2]

    # one grid point per block, the default budget, and the former 2 MiB one
    @pytest.mark.parametrize("budget", [1, analysis.BLOCK_BYTES, 2 << 20])
    def test_all_three_checks_match_single_checks(self, monkeypatch, budget):
        monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
        fused = verify_sweep(range(2, 9), ["lemma", "kozniewska", "conjecture"], self.GRID, 5)
        assert [r.to_json_dict() for r in fused] == self.reports()[:3]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("ns", [range(2, 9), range(4, 9)], ids=["2..8", "4..8"])
    @pytest.mark.parametrize("check", ["lemma", "kozniewska", "conjecture"])
    def test_one_reduction_over_n(self, check, ns, workers):
        """A sweep over ns reports what the sweep of each n alone reports at
        the first smallest margin, and the total count.  In 4..8 the lemma's
        smallest margin ties at n = 4, 5, 6 and 7, and n = 4 is kept."""
        (whole,) = verify_sweep(ns, [check], self.GRID, 5, workers)
        alone = [verify_sweep([n], [check], self.GRID, 5)[0] for n in ns]
        first = min(alone, key=lambda rep: rep.worst_margin)
        assert repr((whole.worst_margin, whole.witness, whole.samples_checked)) == repr(
            (first.worst_margin, first.witness, sum(rep.samples_checked for rep in alone)))
        if (check, ns) == ("lemma", range(4, 9)):
            assert [rep.worst_margin for rep in alone].count(first.worst_margin) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_reduction_of_the_strict_kind(self, monkeypatch, workers):
        # the lemma's second kind, the failing strict margins, reduced over n
        monkeypatch.setattr(analysis, "STRICT_C_CUTOFF", 0.5)
        (rep,) = verify_sweep(range(4, 9), ["lemma"], GridSpec(points=201), 5, workers)
        assert rep.details["strict_witness"] == strict_witness_oracle(range(4, 9), 201, 5)

    def test_rejects_unknown_checks(self):
        for checks in ((), ("lemma", "n6")):
            with pytest.raises(ValueError):
                verify_sweep([2], checks)

    def test_n_range_follows_the_scan_rule(self):
        grid = GridSpec(points=201)
        assert (verify_sweep([5, 3, 5, 4], ["lemma"], grid, 3)
                == verify_sweep(range(3, 6), ["lemma"], grid, 3))
        for ns, complaint in (([1, 3], "n >= 2"), (range(2, 4_000_001), "capped at n = 200")):
            with pytest.raises(ValueError, match=complaint):
                verify_sweep(ns, ["conjecture"], grid, 3)


class TestFirstMin:
    """The one witness rule of the verifier sweeps."""

    def test_ties_keep_the_first_cell(self):
        worst, where = np.full(2, math.inf), np.zeros(2, dtype=int)
        analysis._first_min(worst, where, np.array([[3.0, 1.0, 1.0], [2.0, 2.0, 5.0]]),
                            np.array([10, 11, 12]))
        assert worst.tolist() == [1.0, 2.0] and where.tolist() == [11, 10]
        # a later block that only ties keeps the kept cells
        analysis._first_min(worst, where, np.array([[1.0], [2.0]]), np.array([13]))
        assert worst.tolist() == [1.0, 2.0] and where.tolist() == [11, 10]

    def test_strictly_smaller_value_replaces(self):
        worst, where = np.array([1.0, 2.0]), np.array([11, 10])
        analysis._first_min(worst, where, np.array([[0.5, 7.0], [2.0, 1.5]]),
                            np.array([[20, 21], [22, 23]]))
        assert worst.tolist() == [0.5, 1.5] and where.tolist() == [20, 23]

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40),
           st.lists(st.integers(1, 7), min_size=1, max_size=8))
    def test_blocks_equal_one_argmin(self, ints, cuts):
        # few distinct values, so ties are common
        values = np.array(ints, dtype=float).reshape(1, -1)
        cells = np.arange(values.shape[1])
        worst, where = np.full(1, math.inf), np.zeros(1, dtype=int)
        start = 0
        for cut in cuts * values.shape[1]:
            if start >= values.shape[1]:
                break
            stop = start + cut
            analysis._first_min(worst, where, values[:, start:stop], cells[start:stop])
            start = stop
        j = int(np.argmin(values[0]))
        assert (worst[0], where[0]) == (values[0, j], j)


class TestKozniewskaVerifier:
    def test_small_sweep_passes(self):
        (rep,) = verify_sweep(range(2, 13), ["kozniewska"], GridSpec(points=501), c_samples=9)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-12

    def test_degenerate_point(self):
        # both sides vanish when the pmf collapses to a point mass
        assert brute_tail_sum(2, 0.5, -0.5) == 0.0
        assert f_n_c(2, 0.5, -0.5) == 0.0

    def test_reflection_identity_spot_check(self):
        # left-tail sum at x equals F_n^c(1-x)
        for n, x, c in [(4, 0.2, 0.0), (6, 0.3, -0.06), (9, 0.15, -0.01)]:
            probs = pmf(PolyaParams(n, x, 1 - x, c))
            tail = sum(
                (k / n - x) * probs[k] for k in range(n + 1) if x - k / n < -(n**-0.5)
            )
            assert tail == pytest.approx(f_n_c(n, 1 - x, c), abs=1e-12)


class TestN6Case:
    def test_all_bounds_hold(self):
        rep = n6_case_check()
        assert rep.passed
        assert rep.worst_margin >= 0.0
        details = rep.details
        assert details["interval_sup"]["value"] <= 0.0072168
        assert details["vanishing_piece_sup"]["value"] <= 1e-14
        assert details["global_sup"]["value"] <= 0.014271 + 1e-6
        assert details["sikkema_sup"]["value"] <= 1.0699134 + 1e-6

    @pytest.mark.parametrize("points", [1001, 2001])
    def test_one_kernel_call_gives_the_scanned_majorant(self, points):
        # what n6_case_check reads: on the grid closed under x -> 1-x, F(1-x)
        # is the reversed F, bit for bit
        for n in (2, 3, 6, 7, 40, 199, 200):
            xs, vals = scan_curve(n, "rn", GridSpec(points=points), "majorant")
            f = f_n_c_curve(n, xs, CProfile("rn").c_at(xs, n))
            assert np.array_equal(1.0 + math.sqrt(n) * (f + f[::-1]), vals)

    def test_values_are_pinned(self):
        # a change of grid or kernel that moves any of the four sups shows here
        rep = n6_case_check()
        values = [rep.details[name]["value"] for name in
                  ("interval_sup", "vanishing_piece_sup", "global_sup", "sikkema_sup")]
        assert values == [0.003853705674662501, 0.0, 0.00661499387287807, 1.0164031030885874]
        assert rep.samples_checked == 2 * analysis._sym_scan_grid(
            6, GridSpec(points=analysis.N6_GRID_POINTS), breakpoints(6)).size


class TestConjectureScan:
    def test_produces_monotone_report_on_small_sweep(self):
        (rep,) = verify_sweep(range(2, 9), ["conjecture"], GridSpec(points=501), c_samples=9)
        assert rep.finding is not None
        assert rep.samples_checked > 0
        if rep.finding:
            assert {"n", "x", "r"} <= set(rep.witness)

    def test_endpoint_comparison_monotone(self):
        # ratio at the admissibility boundary never exceeds the c=0 value
        from polya_bernstein.numeric_core import factorial_ratio

        for n in (4, 8, 16):
            for x in np.linspace(0.6, 0.95, 9):
                c = float(CProfile("rn").c_at(x, n))
                assert factorial_ratio(float(x), 0, n, c) <= factorial_ratio(float(x), 0, n, 0.0)

    def test_direct_oracle_sequence_monotone(self):
        from polya_bernstein.numeric_core import factorial_ratio

        cmin = -0.2 / 3
        cs = np.linspace(cmin, 0.2, 11)
        vals = [factorial_ratio(0.8, 1, 4, float(c)) for c in cs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_report_is_pinned(self):
        (rep,) = verify_sweep(range(2, 21), ["conjecture"], GridSpec(points=2001), 21)
        assert rep.worst_margin == 1.1619716364122925e-25
        assert rep.witness == {
            "n": 20,
            "r": 0,
            "x": 0.9995,
            "c_lo": -2.6315789473681312e-05,
            "c_hi": 0.009975000000000003,
        }
        assert rep.samples_checked == 2388840
        assert rep.details == {"c_max": analysis.CONJECTURE_C_MAX} == {"c_max": 0.2}

    def test_rejects_a_sweep_that_checks_nothing(self):
        for ns, points in (([2], 3), (range(2, 4), 2)):
            with pytest.raises(ValueError, match="--points"):
                verify_sweep(ns, ["conjecture"], GridSpec(points=points), 21)
        # one c value per point has no step to check
        with pytest.raises(ValueError, match="c grid needs >= 2 points, got 1"):
            verify_sweep([2], ["conjecture"], GridSpec(points=501), 1)

    def test_skips_degenerate_endpoints(self):
        (rep,) = verify_sweep([2], ["conjecture"], GridSpec(points=1001), c_samples=5)
        # witnesses, if any, never sit at x in {0, 1}
        if rep.witness:
            assert 0.0 < rep.witness["x"] < 1.0


class TestReports:
    def test_json_schema_and_determinism(self):
        rep = scan_sup([4], "zero", GridSpec(points=1001))
        text1 = dump_json(rep)
        text2 = dump_json(rep)
        assert text1 == text2
        payload = json.loads(text1)
        assert payload["schema"] == 1
        assert payload["kind"] == "scan"
        assert {"sup", "argmax_x", "grid", "per_n"} <= set(payload)

    def test_verification_report_round_trip(self):
        (rep,) = verify_sweep([3], ["lemma"], GridSpec(points=301), 5)
        payload = json.loads(dump_json(rep))
        assert payload["schema"] == 1
        assert payload["passed"] == rep.passed
        assert payload["tolerance"] == 1e-13

    def test_curves_csv(self, tmp_path):
        path = tmp_path / "curves.csv"
        rows = [(2, 0.5, 1.0), (2, 0.75, 1.25),
                (np.int64(3), np.float64(0.1), 5e-324), (3, 0.30000000000000004, np.float64(1.0))]
        write_curves_csv(str(path), rows)
        assert path.read_text().splitlines() == [  # numpy scalars as plain numbers
            "n,x,value", "2,0.5,1.0", "2,0.75,1.25", "3,0.1,5e-324", "3,0.30000000000000004,1.0"]

    def test_gridspec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points=1)

    def test_from_curves_keeps_the_first_maximiser_and_the_first_largest_sup(self):
        grid = GridSpec(points=1001)
        xs = np.array([0.1, 0.2, 0.3])
        curves = [
            (2, (xs, np.array([0.5, 0.2, 0.5]))),    # a tie inside n: the smaller x
            (3, (xs, np.array([0.1, 0.75, 0.75]))),  # the first largest sup
            (4, (xs, np.array([0.0, 0.0, 0.75]))),   # ties n = 3's sup: n = 3 is kept
            (5, (xs, np.array([0.25, 0.1, 0.25]))),
        ]
        rep = ScanReport.from_curves(iter(curves), grid, {"kind": "test"})
        assert rep.per_n == ((2, 0.5, 0.1), (3, 0.75, 0.2), (4, 0.75, 0.3), (5, 0.25, 0.1))
        assert (rep.argmax_n, rep.sup, rep.argmax_x) == (3, 0.75, 0.2)
        assert rep.grid == grid and rep.meta == {"kind": "test"}
        with pytest.raises(ValueError, match="empty n range"):
            ScanReport.from_curves(iter([]), grid, {})

    def test_from_curves_writes_each_curve_as_it_arrives(self, tmp_path):
        path = tmp_path / "curves.csv"
        xs = np.array([0.0, 0.5, 1.0])

        def curves():
            assert path.exists()  # opened before the first curve is drawn
            for n in (2, 3):
                yield n, (xs, xs * n)

        rep = ScanReport.from_curves(curves(), GridSpec(points=1001), {}, str(path))
        assert rep.per_n == ((2, 2.0, 1.0), (3, 3.0, 1.0))
        assert path.read_text().splitlines() == [
            "n,x,value", "2,0.0,0.0", "2,0.5,1.0", "2,1.0,2.0", "3,0.0,0.0", "3,0.5,1.5", "3,1.0,3.0"]

    def test_dump_json_rejects_non_finite_floats(self):
        (rep,) = verify_sweep([2], ["conjecture"], GridSpec(points=1001), 5)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                dump_json(dataclasses.replace(rep, worst_margin=bad))
