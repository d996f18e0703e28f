import math

import mpmath
import numpy as np
import pytest

from polya_bernstein import operators
from polya_bernstein.operators import (
    BUILTIN_FUNCTIONS,
    CProfile,
    bernstein_curve,
    bernstein_eval,
    builtin_function,
    function_from_csv,
    function_from_samples,
    modulus_of_continuity,
    operator_curve,
    polya_operator_eval,
    popoviciu_ratio,
    r_n_curve,
    r_n_eval,
)
from polya_bernstein.reports import GridSpec

CONST_ONE = operators.FunctionSpec("one", lambda t: np.ones_like(t))


class TestBernstein:
    def test_preserves_constants(self):
        for n in (1, 5, 17):
            assert bernstein_eval(CONST_ONE, n, 0.37) == pytest.approx(1.0, abs=1e-13)

    def test_reproduces_linear(self):
        assert bernstein_eval(builtin_function("linear"), 5, 0.3) == pytest.approx(0.3, abs=1e-13)

    def test_square_hand_sum(self):
        # 0.25*0 + 0.5*0.25 + 0.25*1
        assert bernstein_eval(builtin_function("square"), 2, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_curve_matches_pointwise(self):
        # against the sum in 50-digit arithmetic, f(k/n) = sin(pi k/n) included
        f = builtin_function("sin-pi")
        xs = np.linspace(0, 1, 11)
        for n in (1, 7, 60):
            curve = bernstein_curve(f, n, xs)
            for x, v in zip(xs, curve):
                with mpmath.workdps(50):
                    t = mpmath.mpf(float(x))
                    want = float(mpmath.fsum(
                        mpmath.sinpi(mpmath.mpf(k) / n) * math.comb(n, k) * t**k * (1 - t) ** (n - k)
                        for k in range(n + 1)
                    ))
                assert v == pytest.approx(want, abs=1e-14)
                assert bernstein_eval(f, n, float(x)) == pytest.approx(want, abs=1e-14)


class TestPolyaOperator:
    def test_rejects_n_below_one(self):
        f, xs = builtin_function("sin-pi"), np.linspace(0, 1, 5)
        for n in (0, -3):
            for call in (
                lambda: bernstein_eval(f, n, 0.5),
                lambda: bernstein_curve(f, n, xs),
                lambda: polya_operator_eval(f, n, 0.5, CProfile("constant", 0.1)),
                lambda: operator_curve(f, n, xs, CProfile("constant", 0.1)),
            ):
                with pytest.raises(ValueError, match="n must be >= 1"):
                    call()

    def test_zero_profile_degenerates_to_bernstein(self):
        xs = np.linspace(0, 1, 101)
        for name, f in BUILTIN_FUNCTIONS.items():
            for n in (2, 7, 20):
                diff = np.abs(
                    operator_curve(f, n, xs, CProfile("zero")) - bernstein_curve(f, n, xs)
                ).max()
                assert diff <= 1e-13, (name, n, diff)

    def test_reproduces_linear(self):
        for profile in (CProfile("zero"), CProfile("rn"), CProfile("constant", 0.3)):
            got = polya_operator_eval(builtin_function("linear"), 6, 0.4, profile)
            assert got == pytest.approx(0.4, abs=1e-12)

    def test_midpoint_degeneracy_n2(self):
        # the boundary profile at n=2, x=1/2 collapses the pmf to a point mass
        for name, f in BUILTIN_FUNCTIONS.items():
            got = polya_operator_eval(f, 2, 0.5, CProfile("rn"))
            assert got == pytest.approx(float(f(0.5)), abs=1e-13), name

    def test_rejects_negative_constant_profile(self):
        with pytest.raises(ValueError):
            CProfile("constant", -0.1)


class TestRn:
    def test_endpoint_interpolation(self):
        f = builtin_function("abs-mid")
        assert r_n_eval(f, 6, 0.0) == 0.5
        assert r_n_eval(f, 6, 1.0) == 0.5

    def test_linear_reproduction(self):
        assert r_n_eval(builtin_function("linear"), 10, 0.73) == pytest.approx(0.73, abs=1e-12)

    def test_square_n6_brute_force_oracle(self):
        # frozen from the direct pmf summation with c = -0.1
        assert r_n_eval(builtin_function("square"), 6, 0.5) == pytest.approx(
            0.2685185185185185, abs=1e-12
        )

    def test_rejects_n_one(self):
        with pytest.raises(ValueError):
            r_n_eval(builtin_function("linear"), 1, 0.5)

    def test_curve_matches_pointwise(self, pmf_oracle):
        # against sum_k f(k/n) p_k(x) over the pmf in 50-digit arithmetic
        f = builtin_function("sqrt")
        xs = np.linspace(0, 1, 21)
        fk = f(np.arange(10) / 9)
        curve = r_n_curve(f, 9, xs)
        for x, v in zip(xs, curve):
            x = float(x)
            want = float(fk @ np.array(pmf_oracle(9, x, -min(x, 1 - x) / 8)))
            assert v == pytest.approx(want, abs=1e-13)
            assert r_n_eval(f, 9, x) == pytest.approx(want, abs=1e-13)


class TestModulusOfContinuity:
    def test_linear(self):
        assert modulus_of_continuity(builtin_function("linear"), 0.1) == pytest.approx(
            0.1, abs=1e-4
        )

    def test_constant_is_zero(self):
        assert modulus_of_continuity(CONST_ONE, 0.3) == 0.0

    def test_abs_mid(self):
        assert modulus_of_continuity(builtin_function("abs-mid"), 0.2) == pytest.approx(
            0.2, abs=1e-4
        )

    def test_monotone_in_delta(self):
        f = builtin_function("sawtooth")
        deltas = np.linspace(0.01, 1.0, 34)
        omegas = [modulus_of_continuity(f, float(d), 2000) for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(omegas, omegas[1:]))

    def test_subadditive_bracket_bound(self):
        # omega(lambda * delta) <= (1 + ]lambda[) * omega(delta), grid tolerance
        from polya_bernstein.numeric_core import strict_floor_bracket

        for name, f in BUILTIN_FUNCTIONS.items():
            for delta in (0.05, 0.13):
                base = modulus_of_continuity(f, delta, 4000)
                for lam in (0.5, 1.7, 2.0, 3.3):
                    if lam * delta > 1:
                        continue
                    lhs = modulus_of_continuity(f, lam * delta, 4000)
                    bound = (1 + max(0, strict_floor_bracket(lam))) * base
                    assert lhs <= bound + 1e-3, (name, delta, lam)

    def test_rejects_bad_inputs(self):
        f = builtin_function("linear")
        with pytest.raises(ValueError):
            modulus_of_continuity(f, 0.0)
        with pytest.raises(ValueError):
            modulus_of_continuity(f, 0.5, resolution=10)


class TestSampledTables:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,fx\n0,0.5\n0.25,0.1\n1,0.9\n")
        f = function_from_csv(str(path))
        assert float(f(0.0)) == 0.5
        assert float(f(1.0)) == 0.9
        assert float(f(0.125)) == pytest.approx(0.3)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n0,0\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            function_from_csv(str(path))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            function_from_samples([0.0, 0.5, 0.5, 1.0], [0, 1, 2, 3])

    def test_rejects_missing_endpoints(self):
        with pytest.raises(ValueError, match="x=0"):
            function_from_samples([0.1, 1.0], [0, 1])

    def test_piecewise_linear_modulus_is_exact(self):
        f = function_from_samples([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert modulus_of_continuity(f, 0.25, 4000) == pytest.approx(0.5, abs=1e-3)


class TestPopoviciuRatio:
    GRID = GridSpec(points=2001)

    def test_linear_ratio_vanishes(self):
        rep = popoviciu_ratio(builtin_function("linear"), 8, self.GRID, "rn")
        assert rep.sup <= 1e-10

    def test_rn_below_paper_constant(self):
        rep = popoviciu_ratio(builtin_function("abs-mid"), 6, self.GRID, "rn")
        assert rep.sup <= 1.08970

    def test_bernstein_below_optimal_constant(self):
        rep = popoviciu_ratio(builtin_function("abs-mid"), 6, self.GRID, "bernstein")
        assert rep.sup <= 1.0898874

    def test_rejects_constant_function(self):
        with pytest.raises(ValueError, match="constant"):
            popoviciu_ratio(CONST_ONE, 6, self.GRID, "rn")

    def test_report_witness_reproduces_sup(self):
        f = builtin_function("sawtooth")
        rep = popoviciu_ratio(f, 5, self.GRID, "rn")
        omega = rep.meta["omega"]
        val = abs(r_n_eval(f, 5, rep.argmax_x) - float(f(rep.argmax_x))) / omega
        assert val == pytest.approx(rep.sup, rel=1e-12)
