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
    conjecture_scan,
    f_n_c,
    f_n_c_curve,
    n6_case_check,
    rn_profile_c,
    scan_sup,
    sikkema_curve,
    sikkema_function,
    verify_kozniewska,
    verify_lemma_claim,
)
from polya_bernstein.numeric_core import strict_floor_bracket
from polya_bernstein.polya import (
    AdmissibilityError,
    PolyaParams,
    log_rising,
    pmf,
    rising_products,
)
from polya_bernstein.reports import GridSpec, dump_json, write_curves_csv


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
    r = analysis._strict_floor_vec(n * xs - math.sqrt(n))
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
                for cs in (np.zeros_like(xs), rn_profile_c(xs, n)):
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
        cs = rn_profile_c(xs, n)
        curve = f_n_c_curve(n, xs, cs)
        for j in range(0, 301, 7):
            assert curve[j] == pytest.approx(f_n_c(n, float(xs[j]), float(cs[j])), abs=1e-14)

    def test_vanishes_below_threshold_for_all_c(self):
        for n in (2, 5, 12):
            for x in np.linspace(0, 1 / math.sqrt(n), 20):
                assert f_n_c(n, float(x), 0.0) == 0.0
                assert f_n_c(n, float(x), float(rn_profile_c(x, n))) == 0.0

    def test_boundary_profile_dominated_by_zero_profile(self):
        for n in range(2, 41):
            xs = np.linspace(0, 1, 501)
            gap = f_n_c_curve(n, xs, rn_profile_c(xs, n)) - f_n_c_curve(n, xs, 0.0)
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
            xs = analysis._sym_scan_grid(n, grid)
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

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            scan_sup([1], "zero", GridSpec(points=2001))
        with pytest.raises(ValueError):
            scan_sup([2], "zero", GridSpec(points=500))


SIKKEMA_CONSTANT = (4306 + 837 * math.sqrt(6)) / 5832


def bracket_sum_oracle(n, x, c):
    """Independent oracle: literal bracket-weighted sum over the scalar pmf."""
    probs = pmf(PolyaParams(n, x, 1 - x, c))
    lams = [math.sqrt(n) * abs(x - k / n) for k in range(n + 1)]
    return 1 + sum(max(0, strict_floor_bracket(lam)) * p for lam, p in zip(lams, probs))


class TestBracketSum:
    def test_jumps(self):
        assert bracket_jumps(4) == pytest.approx([0.25, 0.5, 0.75])
        assert 5 / 6 - 1 / math.sqrt(6) in bracket_jumps(6)

    def test_curve_matches_scalar_oracle(self):
        xs = np.linspace(0, 1, 97)
        for n in (2, 6, 11):
            for c_mode, cs in (("zero", np.zeros_like(xs)), ("rn", rn_profile_c(xs, n))):
                vals = bracket_curve(n, xs, c_mode)
                for j in range(0, 97, 4):
                    want = bracket_sum_oracle(n, float(xs[j]), float(cs[j]))
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


class TestLemmaVerifier:
    def test_small_sweep_passes(self):
        rep = verify_lemma_claim(range(2, 13), GridSpec(points=501), c_samples=9)
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
                c = float(rn_profile_c(x, n))
                lhs = factorial_ratio(float(x), 0, n, c)
                rhs = float(x) * (1 - float(x)) ** n
                assert lhs < rhs

    def test_workers_deterministic(self):
        grid = GridSpec(points=301)
        a = verify_lemma_claim(range(2, 9), grid, 5, workers=1)
        b = verify_lemma_claim(range(2, 9), grid, 5, workers=2)
        assert a == b


class TestKozniewskaVerifier:
    def test_small_sweep_passes(self):
        rep = verify_kozniewska(range(2, 13), GridSpec(points=501), c_samples=9)
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
        rep = conjecture_scan(range(2, 9), GridSpec(points=501), c_grid_size=9)
        assert rep.finding is not None
        assert rep.samples_checked > 0
        if rep.finding:
            assert {"n", "x", "r"} <= set(rep.witness)

    def test_endpoint_comparison_monotone(self):
        # ratio at the admissibility boundary never exceeds the c=0 value
        from polya_bernstein.numeric_core import factorial_ratio

        for n in (4, 8, 16):
            for x in np.linspace(0.6, 0.95, 9):
                c = float(rn_profile_c(x, n))
                assert factorial_ratio(float(x), 0, n, c) <= factorial_ratio(float(x), 0, n, 0.0)

    def test_direct_oracle_sequence_monotone(self):
        from polya_bernstein.numeric_core import factorial_ratio

        cmin = -0.2 / 3
        cs = np.linspace(cmin, 0.2, 11)
        vals = [factorial_ratio(0.8, 1, 4, float(c)) for c in cs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_skips_degenerate_endpoints(self):
        rep = conjecture_scan([2], GridSpec(points=1001), c_grid_size=5)
        # witnesses, if any, never sit at x in {0, 1}
        if rep.witness:
            assert 0.0 < rep.witness["x"] < 1.0


class TestReports:
    def test_json_schema_and_determinism(self):
        rep = scan_sup([4], "zero", GridSpec(points=1001, refine_breakpoints=True))
        text1 = dump_json(rep)
        text2 = dump_json(rep)
        assert text1 == text2
        payload = json.loads(text1)
        assert payload["schema"] == 1
        assert payload["kind"] == "scan"
        assert {"sup", "argmax_x", "grid", "per_n"} <= set(payload)

    def test_verification_report_round_trip(self):
        rep = verify_lemma_claim([3], GridSpec(points=301), 5)
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
        with pytest.raises(ValueError):
            GridSpec(points=100, breakpoint_offset=1e-3)
