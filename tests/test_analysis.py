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
from polya_bernstein.numeric_core import strict_floor_bracket
from polya_bernstein.operators import CProfile
from polya_bernstein.polya import (
    AdmissibilityError,
    PolyaParams,
    log_rising,
    pmf,
    rising_products,
)
from polya_bernstein.reports import GridSpec, ScanReport, dump_json, write_curves_csv


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

    def test_curve_matches_scalar(self):
        n = 8
        xs = np.linspace(0, 1, 301)
        cs = CProfile("rn").c_at(xs, n)
        curve = f_n_c_curve(n, xs, cs)
        for j in range(0, 301, 7):
            assert curve[j] == pytest.approx(f_n_c(n, float(xs[j]), float(cs[j])), abs=1e-14)

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


def _bracket_sum_max(n, points):
    from polya_bernstein.numeric_core import strict_floor_bracket

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
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
        assert analysis._map_over_n(abs, list(range(-20, 0)), workers=64) == list(range(20, 0, -1))
        assert started == ([] if processes is None else [processes])

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

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            scan_sup([1], "zero", GridSpec(points=2001))
        with pytest.raises(ValueError):
            scan_sup([2], "zero", GridSpec(points=500))

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
    @pytest.mark.parametrize("budget", [1, analysis.BLOCK_BYTES])
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

    @pytest.mark.parametrize("budget", [1, analysis.BLOCK_BYTES])
    def test_all_three_checks_match_single_checks(self, monkeypatch, budget):
        monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
        fused = verify_sweep(range(2, 9), ["lemma", "kozniewska", "conjecture"], self.GRID, 5)
        assert [r.to_json_dict() for r in fused] == self.reports()[:3]

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
        rep = n6_case_check(points_per_interval=20001)
        assert rep.passed
        assert rep.worst_margin >= 0.0
        details = rep.details
        assert details["interval_sup"]["value"] <= 0.0072168
        assert details["vanishing_piece_sup"]["value"] <= 1e-14
        assert details["global_sup"]["value"] <= 0.014271 + 1e-6
        assert details["sikkema_sup"]["value"] <= 1.0699134 + 1e-6


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
        write_curves_csv(str(path), [(2, 0.5, 1.0), (2, 0.75, 1.25)])
        lines = path.read_text().splitlines()
        assert lines[0] == "n,x,value"
        assert lines[1] == "2,0.5,1.0"

    def test_gridspec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points=1)

    def test_from_per_n_keeps_the_first_largest_row(self):
        grid = GridSpec(points=1001)
        rows = [(2, 0.5, 0.1), (3, 0.75, 0.2), (4, 0.75, 0.3), (5, 0.25, 0.4)]
        rep = ScanReport.from_per_n(rows, grid, {"kind": "test"})
        assert (rep.argmax_n, rep.sup, rep.argmax_x) == (3, 0.75, 0.2)
        assert rep.per_n == tuple(rows) and rep.grid == grid and rep.meta == {"kind": "test"}
        with pytest.raises(ValueError, match="empty n range"):
            ScanReport.from_per_n([], grid, {})

    def test_dump_json_rejects_non_finite_floats(self):
        (rep,) = verify_sweep([2], ["conjecture"], GridSpec(points=1001), 5)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                dump_json(dataclasses.replace(rep, worst_margin=bad))
