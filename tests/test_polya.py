import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polya_bernstein import analysis, polya
from polya_bernstein.numeric_core import binomial_row, factorial_ratio
from polya_bernstein.polya import (
    AdmissibilityError,
    PolyaParams,
    log_rising,
    moments,
    pmf,
    pmf_matrix,
    rising_products,
    truncated_first_moment,
    validate,
)


X_EDGES = (0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), -math.ulp(0.0), math.nan)


@st.composite
def sweep_cases(draw):
    """(n, x, c) for validate_sweep: x at and just outside the ends of
    [0, 1], NaN, or inside; c a few ulps either side of the admissibility
    boundary or of the point where min{x,1-x} + (n-1)c is -BOUNDARY_SLACK,
    non-finite, so large that (n-1)c overflows, or anything else.  The
    columns come as a 1-D array, empty included, or as 0-d arrays."""
    n = draw(st.integers(min_value=0, max_value=300))
    size = draw(st.integers(min_value=0, max_value=4))
    xs, cs = [], []
    for _ in range(size):
        x = draw(st.one_of(st.sampled_from(X_EDGES), st.floats(min_value=0.0, max_value=1.0)))
        edges = [math.nan, math.inf, -math.inf, 1e308, -1e308]
        if n >= 2 and not math.isnan(x):
            m = min(x, 1.0 - x)
            for target in (m, m + polya.BOUNDARY_SLACK):
                c = -target / (n - 1)
                edges += [c, math.nextafter(c, -1.0), math.nextafter(c, 1.0)]
        xs.append(x)
        cs.append(draw(st.one_of(st.sampled_from(edges), st.floats())))
    if size == 1 and draw(st.booleans()):
        return n, np.array(xs[0]), np.array(cs[0])
    return n, np.array(xs, dtype=float), np.array(cs, dtype=float)


@st.composite
def near_boundary_columns(draw):
    """(n, x, c) with c = (-min{x,1-x} - u BOUNDARY_SLACK)/(n-1), u in
    [0, 1]: from the admissibility boundary to the slack's far end."""
    n = draw(st.integers(min_value=2, max_value=200))
    x = draw(st.one_of(st.just(0.5), st.floats(min_value=0.0, max_value=1.0)))
    u = draw(st.floats(min_value=0.0, max_value=1.0))
    return n, x, (-min(x, 1.0 - x) - u * polya.BOUNDARY_SLACK) / (n - 1)


@st.composite
def one_columns(draw):
    """(n, x, c): n in 1..200, x in [0, 1] with its ends and 1/2, c from the
    slack past the admissibility boundary up to 5."""
    n = draw(st.integers(min_value=1, max_value=200))
    x = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)))
    lo = (-min(x, 1.0 - x) - polya.BOUNDARY_SLACK) / max(n - 1, 1)
    return n, x, draw(st.one_of(st.just(lo), st.just(0.0), st.floats(min_value=lo, max_value=5.0)))


def _outcome(call):
    """The shape and bits of call()'s array, or the type and message of its error."""
    try:
        got = call()
    except Exception as exc:
        return type(exc), str(exc)
    return got.shape, got.view(np.int64).tolist()


def admitted(n, x, c):
    try:
        polya.validate_sweep(n, x, c)
    except AdmissibilityError:
        return False
    return True


class TestValidate:
    def test_boundary_equality_accepted(self):
        validate(PolyaParams(2, 0.5, 0.5, -0.5))  # a + (n-1)c = 0

    def test_rejects_below_boundary(self):
        with pytest.raises(AdmissibilityError, match=r"a \+ \(n-1\)c"):
            validate(PolyaParams(3, 0.5, 0.5, -0.5))

    def test_boundary_profile_always_admissible(self):
        x = 0.3
        validate(PolyaParams(6, x, 1 - x, -min(x, 1 - x) / 5))

    def test_rejects_negative_weights(self):
        with pytest.raises(AdmissibilityError):
            validate(PolyaParams(2, -0.1, 1.0, 0.0))

    def test_rejects_zero_total_weight(self):
        with pytest.raises(AdmissibilityError):
            validate(PolyaParams(2, 0.0, 0.0, 0.0))

    def test_rejects_a_c_whose_step_overflows(self):
        # (n-1)c = 4e308 overflows; inf / inf products used to give nan
        with pytest.raises(AdmissibilityError, match="not finite"):
            truncated_first_moment(PolyaParams(5, 0.9, 0.1, 1e308), 2)
        with pytest.raises(AdmissibilityError, match="not finite"):
            polya.validate_sweep(5, np.array([0.5, 0.9]), np.array([0.1, 1e308]))
        validate(PolyaParams(200, 0.5, 0.5, 1e300))  # (n-1)c = 1.99e302 is finite

    @pytest.mark.parametrize("a, b, c, name", [
        (0.1, 0.9, -0.1, "a"),   # a + 2c < 0 only
        (0.9, 0.1, -0.1, "b"),   # b + 2c < 0 only
        (0.3, 0.2, -0.2, "b"),   # both fail: the smaller weight is named
        (0.2, 0.2, -0.2, "a"),   # equal weights: a
    ])
    def test_message_names_the_weight_that_fails(self, a, b, c, name):
        w = min(a, b)
        with pytest.raises(AdmissibilityError, match=rf"^{name} \+ \(n-1\)c = .* for {name}={w}, "):
            validate(PolyaParams(3, a, b, c))

    @settings(max_examples=400)
    @given(case=sweep_cases())
    def test_every_admitted_denominator_factor_is_positive(self, case):
        # rising_products divides by 1 + i*c, i < n, with no check of its own:
        # fl(i*c) >= fl((n-1)c) >= -1/2 - slack wherever the sweep admits c
        n, x, c = case
        if admitted(n, x, c):
            factors = 1.0 + np.arange(n, dtype=float)[:, None] * np.atleast_1d(c)[None, :]
            assert (factors >= 0.5 - polya.BOUNDARY_SLACK).all()

    def test_rejects_nan_weights(self):
        # a NaN a or b is not >= 0; pmf refused it only later, in the sweep
        for a, b in [(math.nan, 0.5), (0.5, math.nan)]:
            with pytest.raises(AdmissibilityError, match="nonnegative"):
                validate(PolyaParams(3, a, b, 0.0))

    # min{x,1-x} + (n-1)c lands exactly on -BOUNDARY_SLACK, which both accept
    @example(case=(2, np.array([0.0]), np.array([-polya.BOUNDARY_SLACK])))
    @example(case=(2, np.array([0.5, 1.0]), np.array([0.0, -polya.BOUNDARY_SLACK])))
    @settings(max_examples=400)
    @given(case=sweep_cases())
    def test_sweep_refuses_exactly_what_validate_refuses(self, case):
        # column j of the sweep is PolyaParams(n, x_j, 1 - x_j, c_j)
        n, x, c = case
        want = n < 1
        for xj, cj in zip(x.ravel().tolist(), c.ravel().tolist()):
            try:
                validate(PolyaParams(n, xj, 1.0 - xj, cj))
            except AdmissibilityError:
                want = True
        try:
            polya.validate_sweep(n, x, c)
            got = False
        except AdmissibilityError:
            got = True
        assert got == want


class TestPmf:
    def test_binomial_case(self):
        np.testing.assert_allclose(
            pmf(PolyaParams(2, 0.5, 0.5, 0.0)), [0.25, 0.5, 0.25], atol=1e-15
        )

    def test_single_draw_ignores_c(self):
        np.testing.assert_allclose(pmf(PolyaParams(1, 2, 6, -1)), [0.75, 0.25], atol=1e-15)

    def test_degenerate_point_mass(self):
        # boundary c drives the variance to zero
        np.testing.assert_allclose(pmf(PolyaParams(2, 0.5, 0.5, -0.5)), [0, 1, 0], atol=1e-15)

    def test_matches_binomial_for_c_zero(self):
        n, p = 12, 0.3
        got = pmf(PolyaParams(n, p, 1 - p, 0.0))
        want = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_homogeneity_normalization(self):
        # pmf depends on (a, b, c) only through their ratios
        p1 = pmf(PolyaParams(5, 2.0, 6.0, -0.4))
        p2 = pmf(PolyaParams(5, 1.0, 3.0, -0.2))
        np.testing.assert_allclose(p1, p2, atol=1e-14)

    @given(
        n=st.integers(min_value=1, max_value=50),
        a=st.floats(min_value=0.01, max_value=0.99),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sums_to_one(self, n, a, frac):
        c = -frac * min(a, 1 - a) / (n - 1) if n > 1 else 0.0
        probs = pmf(PolyaParams(n, a, 1 - a, c))
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs.min() >= 0.0

    @settings(max_examples=200)
    @given(
        n=st.integers(min_value=1, max_value=120),
        x=st.floats(min_value=0.0, max_value=1.0),
        frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    )
    def test_matrix_agrees_with_scalar(self, pmf_oracle, n, x, frac):
        # frac = 0 is c = 0, frac = 1 the rn boundary -min{x,1-x}/(n-1)
        c = -frac * min(x, 1 - x) / (n - 1) if n > 1 else 0.0
        want = pmf_oracle(n, x, c)
        column = pmf_matrix(n, np.array([x, 0.5]), np.array([c, 0.0]))[:, 0]
        scalar = pmf(PolyaParams(n, x, 1 - x, c))
        np.testing.assert_allclose(column, want, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(scalar, want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("n, x, c", [(200, 0.3, 0.5), (171, 0.5, 1.0), (200, 0.01, 10.0)])
    def test_positive_c_at_large_nc(self, pmf_oracle, n, x, c):
        # 1^(n,c) alone passes the float range here
        want = pmf_oracle(n, x, c)
        column = pmf_matrix(n, np.array([0.5, x]), np.array([0.0, c]))[:, 1]
        np.testing.assert_allclose(column, want, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(pmf(PolyaParams(n, x, 1 - x, c)), want, rtol=1e-13, atol=1e-15)

    def test_positive_c_scaling_keeps_every_bit(self):
        # columns with c > 0 divide their factors by a power of two
        n = 60
        x = np.linspace(0.0, 1.0, 41)
        c = np.linspace(0.0, 0.2, 41)
        cum_a, cum_b, den = rising_products(n, x, c)
        binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        plain = binom[:, None] * cum_a * cum_b[::-1] / den
        np.testing.assert_array_equal(pmf_matrix(n, x, c), np.clip(plain, 0.0, 1.0))

    # a + (n-1)c = -2e-15: admitted, and p_0 = p_2 = -2e-15 before clipping
    @example(case=(2, 0.5, -0.5 - 2e-15))
    @settings(max_examples=400)
    @given(case=near_boundary_columns())
    def test_every_admitted_column_near_the_boundary_is_a_pmf(self, case):
        n, x, c = case
        if admitted(n, np.array([x]), np.array([c])):
            column = pmf_matrix(n, np.array([x]), np.array([c]))[:, 0]
            assert column.min() >= 0.0 and column.max() <= 1.0
            assert abs(column.sum() - 1.0) <= 1e-12
            if n == 2 and x == 0.5:
                np.testing.assert_array_equal(pmf(PolyaParams(n, x, 1.0 - x, c)), column)

    def test_overflowing_column_is_refused(self):
        # 1000 factors near 1e300 each: the products overflow, and the
        # column's own finiteness check refuses it without a numpy warning
        with pytest.raises(ArithmeticError, match="overflows for n=1000"):
            pmf_matrix(1000, [0.3], 1e300)

    # the overflowing and the drifting column
    @example(case=(1000, 0.3, 1e300))
    @example(case=(500, 0.3, 1e300))
    @settings(max_examples=400)
    @given(case=one_columns())
    def test_one_column_is_the_matrix_column(self, case):
        n, x, c = case
        if admitted(n, np.array([x]), np.array([c])):
            got = _outcome(lambda: polya._pmf_column(n, x, c))
            assert got == _outcome(lambda: pmf_matrix(n, [x], c))

    @pytest.mark.parametrize("n, x, c", [
        (3, 0.5, -0.3),     # past the boundary
        (3, 0.5, math.nan),
        (1000, 0.3, 1e300),  # the products overflow
        (500, 0.3, 1e300),   # the scaled products lose their bits: the sum drifts
    ])
    def test_one_column_refuses_what_the_matrix_refuses(self, n, x, c):
        # pmf, the one-column route, against validate and then the sweep
        def sweep():
            validate(PolyaParams(n, x, 1.0 - x, c))
            return pmf_matrix(n, [x], c)[:, 0]

        got = _outcome(lambda: pmf(PolyaParams(n, x, 1.0 - x, c)))
        assert isinstance(got, tuple) and got == _outcome(sweep)

    def test_refuses_a_normalised_c_that_overflows(self):
        # a + b = 2e-300 admits the weights as given, but the column is built
        # from c/(a+b) = 5e309, which is not finite
        with pytest.raises(AdmissibilityError, match=r"\(n-1\)c = inf is not finite"):
            pmf(PolyaParams(3, 1e-300, 1e-300, 1e10))

    @pytest.mark.parametrize("a, b, complaint", [
        (-1.0, -1.0, "nonnegative"),  # a + b < 0 would flip the signs
        (0.0, 0.0, "a \\+ b must be positive"),
        (math.nan, 1.0, "nonnegative"),
        (-0.1, 1.0, "nonnegative"),
    ])
    def test_refuses_bad_weights_before_normalising(self, a, b, complaint):
        with pytest.raises(AdmissibilityError, match=complaint):
            pmf(PolyaParams(3, a, b, 0.0))

    def test_matrix_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            pmf_matrix(4, np.array([0.5]), np.array([-0.4]))

    @pytest.mark.parametrize("n", [0, -1])
    def test_matrix_rejects_the_n_that_pmf_rejects(self, n):
        with pytest.raises(AdmissibilityError, match="n must be a positive integer"):
            pmf(PolyaParams(n, 0.5, 0.5, 0.0))
        with pytest.raises(AdmissibilityError, match="n must be a positive integer"):
            pmf_matrix(n, np.array([0.5]), np.array([0.0]))


def row_loop_products(n, x, c):
    """The scaled rising products of rising_products, accumulated one row
    at a time whatever the width."""
    ic = np.arange(n, dtype=float)[:, None] * c[None, :]
    fa, fb, fd = x[None, :] + ic, (1.0 - x)[None, :] + ic, 1.0 + ic
    scale = np.where(c > 0.0, np.exp2(-np.rint(np.log2(fd).mean(axis=0))), 1.0)
    fa, fb, fd = fa * scale, fb * scale, fd * scale
    cum_a = np.ones((n + 1, x.size))
    cum_b = np.ones((n + 1, x.size))
    for i in range(n):
        cum_a[i + 1] = cum_a[i] * fa[i]
        cum_b[i + 1] = cum_b[i] * fb[i]
    return cum_a, cum_b, np.prod(fd, axis=0)


class TestProductWidths:
    # 383..385 straddle the width where a strided accumulate once took over
    @pytest.mark.parametrize("width", [1, 383, 384, 385, 5000])
    @pytest.mark.parametrize("sign", [-1, 0, 1])
    def test_both_routes_equal_the_row_loop(self, width, sign):
        n = 120
        rng = np.random.default_rng(width)
        x = rng.uniform(0.0, 1.0, width)
        c = rng.uniform(0.0, 1.0, width)
        c = -c * np.minimum(x, 1.0 - x) / (n - 1) if sign < 0 else sign * c
        got = rising_products(n, x, c, scaled=True)
        for have, want in zip(got, row_loop_products(n, x, c)):
            assert np.array_equal(have, want)

    @pytest.mark.parametrize("ufunc", [np.add, np.multiply])
    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (1, 4), (1, 1), "view"])
    def test_accumulate_rows_of_no_row_one_row_and_a_view(self, ufunc, shape):
        rng = np.random.default_rng(11)
        if shape == "view":  # rows of a wider array, as the reflection tails are
            base = rng.uniform(-1.0, 1.0, (6, 9))
            a = base[:4, 1:8]
        else:
            base = a = rng.uniform(-1.0, 1.0, shape)
        want = ufunc.accumulate(a, axis=0)
        untouched = base.copy()
        polya._accumulate_rows(ufunc, a)
        assert np.array_equal(a, want)
        if shape == "view":
            untouched[:4, 1:8] = want
        assert np.array_equal(base, untouched)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_caller_buffers_give_the_bits_of_a_fresh_call(self, scaled):
        # buffers sized for 500 columns take blocks of 500, 500 and a
        # narrower last 200, and then a single column
        n, widest = 30, 500
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 1.0, 1201)
        c = -rng.uniform(0.0, 1.0, x.size) * np.minimum(x, 1.0 - x) / (n - 1)
        c[::3] = rng.uniform(0.0, 0.4, c[::3].size)
        c[::5] = 0.0
        bufs = (np.empty((n + 1) * widest), np.empty((n + 1) * widest), np.empty(n * widest))
        for block in (slice(0, 500), slice(500, 1000), slice(1000, 1200), slice(1200, 1201)):
            got = rising_products(n, x[block], c[block], scaled=scaled, out=bufs)
            want = rising_products(n, x[block], c[block], scaled=scaled)
            for have, fresh in zip(got, want):
                assert have.shape == fresh.shape and np.array_equal(have, fresh)
            assert np.shares_memory(got[0], bufs[0]) and np.shares_memory(got[1], bufs[1])


def log_rising_oracle(x, k, c):
    with mpmath.workdps(50):
        value = mpmath.mpf(1)
        for i in range(k):
            value *= mpmath.mpf(x) + i * mpmath.mpf(c)
        return float(mpmath.log(value))


class TestRisingFactorial:
    def test_products_repeat_the_factor_loop_bit_for_bit(self):
        n = 17
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.01, 0.99, 40)
        cs = -rng.uniform(0, 1, 40) * np.minimum(xs, 1 - xs) / (n - 1)
        cs[:10] = rng.uniform(0, 0.3, 10)
        cum_a, cum_b, den = rising_products(n, xs, cs)
        for j, (x, c) in enumerate(zip(xs, cs)):
            a = b = d = 1.0
            for k in range(n):
                assert cum_a[k, j] == a and cum_b[k, j] == b
                a *= x + k * c
                b *= (1 - x) + k * c
                d *= 1.0 + k * c
            assert cum_a[n, j] == a and cum_b[n, j] == b
            assert den[j] == d

    def test_products_reject_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            rising_products(4, np.array([0.5]), np.array([-0.4]))
        # 1 - x < 0 is a negative weight, which validate refuses
        with pytest.raises(AdmissibilityError, match=r"x must lie in \[0,1\]"):
            rising_products(3, np.array([1.5]), np.array([1.0]))

    @pytest.mark.parametrize(
        "x, k, c",
        [
            (0.3, 50, 1e-300),        # u ~ 3e299
            (0.3, 50, -1e-20),
            (0.7, 400, 1e-6),
            (0.5, 30, 0.5 / 11.5),    # bases straddle the Stirling cutoff
            (0.5, 30, 0.5 / 12.5),
            (0.5, 13, -0.5 / 12.5),
            (0.5, 13, -0.5 / 40.0),
            (0.9, 201, -0.9 / 200.5),  # falling, last factor near 0
            (1.0, 400, -0.5 / 399),
            (0.001, 300, 2.0),         # u << 1
        ],
    )
    def test_matches_product_definition(self, x, k, c):
        want = log_rising_oracle(x, k, c)
        assert abs(float(log_rising(x, k, c)) - want) <= 1e-14 * max(1.0, abs(want))

    def test_exact_cases(self):
        assert log_rising(0.3, 0, -0.1) == 0.0
        assert log_rising(0.0, 0, 0.0) == 0.0
        assert log_rising(0.0, 3, 0.2) == -np.inf
        assert log_rising(0.3, 7, 0.0) == 7 * math.log(0.3)
        # factor 5 of 0.5^(6,-0.1) is 0.5 - 5 * 0.1 = 0 exactly
        assert log_rising(0.5, 6, -0.1) == -np.inf

    def test_zero_rule_stays_within_the_slack(self):
        # 0.3 + 3 (-0.1) is -5.6e-17, the boundary's 0 after rounding
        assert log_rising(0.3, 4, -0.1) == -np.inf
        # 0.5 + 2 (-0.4) = -0.3 is outside x + (k-1)c >= 0, alone or in an array
        for args in ((0.5, 3, -0.4), ([0.3, 0.5, 0.9], [4, 3, 2], [-0.1, -0.4, 0.1])):
            with pytest.raises(ValueError, match="factor -0.3.* < 0"):
                log_rising(*args)

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_fast_path_gives_the_bits_of_the_general_path(self, n):
        # all falling entries skip the rising/falling selection; a c > 0
        # entry appended sends the same entries down the general path
        rng = np.random.default_rng(n)
        x = rng.uniform(0.01, 0.99, 300)
        k = rng.integers(1, n + 1, x.size)
        c = -rng.uniform(0.0, 1.0, x.size) * np.minimum(x, 1.0 - x) / (n - 1)
        appended = log_rising(np.append(x, 0.5), np.append(k, n), np.append(c, 0.1))
        assert np.array_equal(log_rising(x, k, c), appended[:-1])

    def test_vectorized_over_broadcast_arguments(self):
        xs = np.array([0.2, 0.5, 0.9])
        ks = np.array([[1], [4]])
        got = log_rising(xs, ks, -0.01)
        assert got.shape == (2, 3)
        for i, k in enumerate((1, 4)):
            for j, x in enumerate(xs):
                assert got[i, j] == pytest.approx(log_rising_oracle(x, k, -0.01), rel=1e-14)


class TestMoments:
    def test_binomial_moments(self):
        mean, var = moments(PolyaParams(6, 1, 2, 0))
        assert mean == pytest.approx(2.0)
        assert var == pytest.approx(4.0 / 3.0)

    def test_degenerate_variance(self):
        mean, var = moments(PolyaParams(2, 0.5, 0.5, -0.5))
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_rejects_singular_variance(self):
        with pytest.raises(ValueError, match="singular"):
            moments(PolyaParams(1, 0.5, 0.5, -1.0))

    @given(
        n=st.integers(min_value=1, max_value=40),
        a=st.floats(min_value=0.05, max_value=0.95),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_consistent_with_pmf(self, n, a, frac):
        c = -frac * min(a, 1 - a) / (n - 1) if n > 1 else 0.0
        params = PolyaParams(n, a, 1 - a, c)
        probs = pmf(params)
        k = np.arange(n + 1)
        mean, var = moments(params)
        assert abs(float(k @ probs) - mean) <= 1e-10
        assert abs(float((k - mean) ** 2 @ probs) - var) <= 1e-9

    def test_variance_never_exceeds_binomial(self):
        # boundary profile shrinks the variance: factor 1+(n-1)c/(1+c) in [0,1]
        for n in range(2, 31):
            for x in np.linspace(0.01, 0.99, 25):
                c = -min(x, 1 - x) / (n - 1)
                factor = 1 + (n - 1) * c / (1 + c)
                assert -1e-12 <= factor <= 1.0 + 1e-12


class TestTruncatedFirstMoment:
    def test_hand_computed_example(self):
        params = PolyaParams(4, 0.8, 0.2, 0.0)
        # brute: (0.8)(0.2^4) + (0.8 - 0.25) * 4 * 0.8 * 0.2^3
        assert truncated_first_moment(params, 1) == pytest.approx(0.01536, rel=1e-12)
        assert truncated_first_moment(params, 1, "brute") == pytest.approx(0.01536, rel=1e-12)

    def test_degenerate_zero(self):
        params = PolyaParams(2, 0.5, 0.5, -0.5)
        assert truncated_first_moment(params, 0) == pytest.approx(0.0, abs=1e-15)

    @given(
        n=st.integers(min_value=2, max_value=25),
        a=st.floats(min_value=0.05, max_value=0.95),
        frac=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    def test_closed_form_matches_brute_force(self, n, a, frac, data):
        r = data.draw(st.integers(min_value=0, max_value=n - 1))
        c = -frac * min(a, 1 - a) / (n - 1)
        params = PolyaParams(n, a, 1 - a, c)
        closed = truncated_first_moment(params, r, "closed")
        brute = truncated_first_moment(params, r, "brute")
        assert closed == pytest.approx(brute, abs=1e-12)

    @given(
        n=st.integers(min_value=2, max_value=200),
        a=st.floats(min_value=0.0, max_value=1.0),
        frac=st.floats(min_value=-1.0, max_value=1.0),
        data=st.data(),
    )
    def test_brute_sum_repeats_the_generator_sum(self, n, a, frac, data):
        r = data.draw(st.integers(min_value=0, max_value=n - 1))
        c = frac * min(a, 1 - a) / (n - 1)
        params = PolyaParams(n, a, 1 - a, c)
        probs = pmf(params)
        want = float(sum((a - k / n) * probs[k] for k in range(r + 1)))
        assert repr(truncated_first_moment(params, r, "brute")) == repr(want)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="a\\+b = 1"):
            truncated_first_moment(PolyaParams(4, 2.0, 2.0, 0.0), 1)

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_first_moment(PolyaParams(4, 0.5, 0.5, 0.0), 4)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            truncated_first_moment(PolyaParams(4, 0.5, 0.5, 0.0), 1, method="bogus")

    def test_closed_binomial_has_the_float_row_bits(self):
        # m up to 1029, the largest n of the float binomial row
        rng = np.random.default_rng(28)
        for m in [*range(1, 65), *rng.integers(65, 1030, 30).tolist(), 1029]:
            row = binomial_row(m)
            for r in {0, m // 2, m, *rng.integers(0, m + 1, 4).tolist()}:
                assert float(math.comb(m, r)).hex() == float(row[r]).hex()
            if m > 1:
                r = int(rng.integers(0, m))
                params = PolyaParams(m + 1, 0.7, 0.3, -0.2 / m)
                want = float(row[r]) * factorial_ratio(0.7, r, m + 1, -0.2 / m)
                assert truncated_first_moment(params, r).hex() == want.hex()

    def test_point_queries_build_no_binomial_row(self, monkeypatch):
        calls = []
        row = polya.binomial_row
        counting = lambda *args, **kw: calls.append(args) or row(*args, **kw)  # noqa: E731
        monkeypatch.setattr(polya, "binomial_row", counting)
        monkeypatch.setattr(analysis, "binomial_row", counting)
        for n in (2, 57, 199, 1030):
            assert analysis.f_n_c(n, 0.9, -0.09 / (n - 1)) > 0.0
            assert analysis.sikkema_function(n, 0.9, "rn") >= 1.0
        assert calls == []

    def test_closed_form_refuses_past_the_float_row(self, monkeypatch):
        with pytest.raises(OverflowError) as row:
            binomial_row(1030)
        # refused before any integer is built
        monkeypatch.setattr(math, "comb", lambda *args: pytest.fail("math.comb was called"))
        with pytest.raises(OverflowError) as closed:
            truncated_first_moment(PolyaParams(1031, 0.9, 0.1, 0.0), 120)
        assert str(closed.value) == str(row.value) == "float binomial row capped at n = 1029, got n=1030"
        with pytest.raises(OverflowError, match="capped at n = 1029"):
            analysis.f_n_c(1031, 0.9, 0.0)

    @pytest.mark.parametrize("method", ["closed", "brute"])
    def test_validates_once(self, monkeypatch, method):
        calls = []
        monkeypatch.setattr(polya, "validate", lambda params: calls.append(params))
        truncated_first_moment(PolyaParams(6, 0.7, 0.3, -0.05), 2, method)
        assert calls == [PolyaParams(6, 0.7, 0.3, -0.05)]
