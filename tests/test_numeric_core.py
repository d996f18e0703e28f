import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polya_bernstein.numeric_core import (
    BOUNDARY_SLACK,
    binomial_row,
    factorial_ratio,
    strict_floor_bracket,
)


def rising_oracle(x, n, h):
    """x (x+h) ... (x+(n-1)h) in 50-digit arithmetic over the float factors
    x + i*h, a factor <= 0 taken as the boundary's exact 0, which is how
    factorial_ratio defines its factors."""
    with mpmath.workdps(50):
        value = mpmath.mpf(1)
        for i in range(n):
            value *= max(x + i * h, 0.0)
        return value


def ratio_oracle(x, r, n, c):
    """x^(r+1,c) (1-x)^(n-r,c) / 1^(n,c) from the product definition."""
    with mpmath.workdps(50):
        return float(
            rising_oracle(x, r + 1, c) * rising_oracle(1.0 - x, n - r, c)
            / rising_oracle(1.0, n, c)
        )


def ratio_loop(x, r, n, c):
    """factorial_ratio as a sequential Python loop over the same float
    factors: quotient i is numerator factor i over denominator factor i,
    multiplied in from the left, then the leftover numerator factor."""
    num = [x + i * c for i in range(r + 1)] + [(1.0 - x) + j * c for j in range(n - r)]
    prod = 1.0
    for i in range(n):
        prod *= num[i] / (1.0 + i * c)
    return prod * num[n] if min(num[0], num[r], num[r + 1], num[n]) > 0.0 else 0.0


@st.composite
def loop_cases(draw):
    """(x, r, n, c) with n up to 200 and c from the admissibility boundary
    up to 0.05, the boundary itself and c = 0 included."""
    x = draw(st.floats(min_value=0.0, max_value=1.0))
    n = draw(st.integers(min_value=2, max_value=200))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    lo = -min(x, 1 - x) / (n - 1)
    c = draw(st.one_of(st.just(0.0), st.just(lo), st.floats(min_value=lo, max_value=0.05)))
    return x, r, n, c


@st.composite
def ratio_cases(draw):
    """(x, r, n, c) with c between the admissibility boundary and 0."""
    x = draw(st.floats(min_value=0.05, max_value=0.95))
    n = draw(st.integers(min_value=2, max_value=20))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    c = draw(st.floats(min_value=-min(x, 1 - x) / (n - 1), max_value=0.0))
    return x, r, n, c


def check_strict_floor(cases):
    """strict_floor_bracket on each (a, k) case, one scalar at a time (a
    float, a numpy scalar, an int where a is integral, a 0-d array) and on
    all of them as one array."""
    a = np.array([a for a, _ in cases])
    want = [k for _, k in cases]
    got = strict_floor_bracket(a)
    assert got.dtype.kind == "i" and got.tolist() == want
    for ai, k in cases:
        for scalar in (ai, np.float64(ai)) + ((int(ai),) if ai == int(ai) else ()):
            got = strict_floor_bracket(scalar)
            assert type(got) is int and got == k
        got = strict_floor_bracket(np.asarray(ai))
        assert isinstance(got, np.ndarray) and got.shape == () and got == k


class TestStrictFloorBracket:
    def test_integer_input_steps_down(self):
        check_strict_floor([(2.0, 1), (0.0, -1), (-3.0, -4), (200.0, 199)])

    def test_non_integer_is_floor(self):
        check_strict_floor([(2.3, 2), (0.5, 0), (1e-10, 0), (99.99, 99)])

    def test_negative_non_integer(self):
        check_strict_floor([(-0.5, -1), (-2.7, -3), (-1e-10, -1)])

    def test_snaps_near_integers(self):
        check_strict_floor([
            (3.0 + 1e-14, 2), (3.0 - 1e-14, 2),
            (3.0 + 9e-14, 2), (-3.0 + 9e-14, -4), (-3.0 - 9e-14, -4),
            (1e-13, -1), (-1e-13, -1), (3.0 + 4e-12, 3), (-3.0 + 4e-12, -3),
            (200.0 + 1e-10, 199), (-200.0 - 1e-10, -201),
        ])

    # From 2**53 on, nearest - 1 is not a float: the array route gave
    # ...992 where the scalar route gave ...993.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     2.0**53 + 2, -(2.0**53 + 2), -2.0**53, 1e19])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            strict_floor_bracket(bad)
        with pytest.raises(ValueError):
            strict_floor_bracket(np.array([1.5, bad]))

    def test_rejects_a_huge_python_int(self):
        with pytest.raises(ValueError):
            strict_floor_bracket(10**400)

    @given(a=st.floats(min_value=-100, max_value=100))
    def test_defining_property(self, a):
        # on the snapped value of a the bracket satisfies k < a <= k+1
        a_eff = round(a) if abs(a - round(a)) <= 1e-12 * max(1, abs(a)) else a
        for k in (strict_floor_bracket(a), int(strict_floor_bracket(np.array([a]))[0])):
            assert k < a_eff <= k + 1

    @given(a=st.one_of(
        st.floats(min_value=-1e6, max_value=1e6),
        # integers moved by up to twice the snap tolerance either way
        st.builds(
            lambda k, j: k + j * 1e-13 * max(1, abs(k)),
            st.integers(min_value=-10**6, max_value=10**6),
            st.integers(min_value=-20, max_value=20),
        ),
    ))
    def test_scalar_rule_is_the_array_rule(self, a):
        got = strict_floor_bracket(a)
        assert type(got) is int and got == strict_floor_bracket(np.array([a]))[0]

    @given(a=st.floats(min_value=-50, max_value=50))
    def test_reflection_identity(self, a):
        # -[a+1] = ]-a[ away from integer neighborhoods
        if abs(a - round(a)) < 1e-6:
            return
        assert -math.floor(a + 1) == strict_floor_bracket(-a)
        assert -math.floor(a + 1) == strict_floor_bracket(np.array([-a, -a]))[1]


class TestFactorialRatio:
    def test_zero_increment_collapses_to_powers(self):
        got = factorial_ratio(0.8, 1, 4, 0.0)
        assert got == pytest.approx(0.8**2 * 0.2**3, rel=1e-14)

    def test_zero_factor_in_numerator(self):
        assert factorial_ratio(0.5, 0, 2, -0.5) == 0.0

    def test_against_naive_three_product_quotient(self):
        # 0.5^(3,-0.1) 0.5^(4,-0.1) / 1^(6,-0.1) = 1/210
        naive = ratio_oracle(0.5, 2, 6, -0.1)
        assert naive == pytest.approx(1 / 210, rel=1e-15)
        assert factorial_ratio(0.5, 2, 6, -0.1) == pytest.approx(naive, rel=1e-12)

    # At the boundary c = -x/11 the float factor x + 11c is 0.0, though on
    # these float inputs the exact sum is -1.4e-17.
    @example(case=(0.31625333695005836, 11, 12, -0.31625333695005836 / 11))
    @given(case=ratio_cases())
    def test_matches_naive_quotient(self, case):
        x, r, n, c = case
        naive = ratio_oracle(x, r, n, c)
        assert factorial_ratio(x, r, n, c) == pytest.approx(naive, rel=1e-12, abs=1e-300)

    def test_factor_rounded_below_zero_is_the_boundary_zero(self):
        # at the boundary c = -x/11 the float factor x + 11c is -1.4e-17
        x, c = 0.1, -0.1 / 11
        assert x + 11 * c < 0.0
        got = factorial_ratio(x, 11, 12, c)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @example(case=(0.0, 0, 200, 0.0))
    @example(case=(1.0, 199, 200, 0.0))
    @example(case=(0.1, 11, 12, -0.1 / 11))
    @given(case=loop_cases())
    def test_bit_identical_to_the_sequential_loop(self, case):
        want = ratio_loop(*case)
        got = factorial_ratio(*case)
        assert type(got) is float and got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_rejects_vanishing_denominator(self):
        # 1 + i*c is exactly 0 at i = -1/c, and the error names that i;
        # pytest turns a numpy divide warning into an error.
        for x, r, n, c, i in [
            (0.5, 1, 3, -0.5, 2), (0.5, 0, 6, -0.5, 2), (0.5, 1, 5, -1 / 3, 3), (0.5, 3, 40, -0.25, 4),
        ]:
            assert 1.0 + i * c == 0.0
            with pytest.raises(ZeroDivisionError, match=rf"^denominator factor 1 \+ {i}\*c vanishes"):
                factorial_ratio(x, r, n, c)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            factorial_ratio(0.5, 4, 4, 0.0)

    @pytest.mark.parametrize("case, complaint", [
        ((1.5, 0, 3, 0.0), r"x must lie in \[0,1\]"),
        ((-0.1, 0, 3, 0.0), r"x must lie in \[0,1\]"),
        ((math.nan, 0, 3, 0.0), r"x must lie in \[0,1\]"),
        # 0.5^(1,c) 0.5^(3,c) / 1^(3,c) at c = -0.4 is -0.0625, not 0
        ((0.5, 0, 3, -0.4), "numerator factor"),
        ((0.5, 0, 3, math.inf), "not finite"),
        ((0.5, 0, 3, -math.inf), "not finite"),
        ((0.5, 0, 3, math.nan), "not finite"),
        ((0.5, 1, 3, 1e308), "not finite"),     # (n-1)c overflows
        ((0.5, 0, 1, math.inf), "not finite"),  # 0 * inf
    ])
    def test_refuses_input_outside_its_domain(self, case, complaint):
        with pytest.raises(ValueError, match=complaint):
            factorial_ratio(*case)

    def test_zero_rule_covers_the_slack_only(self):
        # the least numerator factor 1e-14 - 2e-14 is exactly -BOUNDARY_SLACK
        x, c = BOUNDARY_SLACK, -2 * BOUNDARY_SLACK
        assert x + c == -BOUNDARY_SLACK
        assert factorial_ratio(x, 1, 3, c) == 0.0
        with pytest.raises(ValueError, match="numerator factor"):
            factorial_ratio(x, 1, 3, math.nextafter(c, -1.0))

    def test_keeps_an_inadmissible_c_whose_factors_are_all_positive(self):
        # x + 9c < 0 is not a factor at r = 0: 0.1 * 0.9^(10,c) / 1^(10,c)
        got = factorial_ratio(0.1, 0, 10, -0.05)
        assert got == pytest.approx(ratio_oracle(0.1, 0, 10, -0.05), rel=1e-14) and got > 0.0


class TestBinomialRow:
    # C(1030, 515) is above the largest float
    FLOAT_CAP = 1029

    def test_equals_exact_binomials_up_to_the_float_cap(self):
        # Pascal's rule gives every row exactly; math.comb, about 15 us a
        # call at these sizes, checks it on a sample of rows.
        want = [1]
        for n in range(self.FLOAT_CAP + 1):
            if n <= 64 or n % 100 == 0 or n == self.FLOAT_CAP:
                assert want == [math.comb(n, k) for k in range(n + 1)]
            assert np.array_equal(binomial_row(n), np.array(want, dtype=float))
            assert np.array_equal(binomial_row(n, log=True), [math.log(v) for v in want])
            want = [1] + [a + b for a, b in zip(want, want[1:])] + [1]

    def test_float_row_overflows_past_the_cap_but_the_log_row_does_not(self):
        with pytest.raises(OverflowError):
            binomial_row(self.FLOAT_CAP + 1)
        n = 2 * self.FLOAT_CAP
        assert binomial_row(n, log=True)[n // 2] == math.log(math.comb(n, n // 2))

    @pytest.mark.parametrize("log", [False, True])
    def test_cached_row_is_read_only(self, log):
        row = binomial_row(12, log=log)
        assert row is binomial_row(12, log=log)
        with pytest.raises(ValueError):
            row[3] = 0.0
