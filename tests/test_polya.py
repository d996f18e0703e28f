import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

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

    def test_matrix_agrees_with_scalar(self):
        n = 9
        xs = np.linspace(0.05, 0.95, 19)
        cs = -np.minimum(xs, 1 - xs) / (n - 1)
        mat = pmf_matrix(n, xs, cs)
        for j, (x, c) in enumerate(zip(xs, cs)):
            np.testing.assert_allclose(mat[:, j], pmf(PolyaParams(n, x, 1 - x, c)), atol=1e-14)

    def test_matrix_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            pmf_matrix(4, np.array([0.5]), np.array([-0.4]))


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

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="a\\+b = 1"):
            truncated_first_moment(PolyaParams(4, 2.0, 2.0, 0.0), 1)

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_first_moment(PolyaParams(4, 0.5, 0.5, 0.0), 4)
