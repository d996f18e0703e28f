import math
from collections import deque

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_bernstein import analysis, operators, polya
from polya_bernstein.numeric_core import strict_floor_bracket
from polya_bernstein.operators import (
    BUILTIN_FUNCTIONS,
    CProfile,
    bernstein_eval,
    builtin_function,
    function_from_csv,
    function_from_samples,
    modulus_of_continuity,
    operator_curve,
    polya_operator_eval,
    popoviciu_scan,
)
from polya_bernstein.polya import PolyaParams, pmf, pmf_matrix, truncated_first_moment
from polya_bernstein.reports import GridSpec

CONST_ONE = operators.FunctionSpec("one", lambda t: np.ones_like(t))


def _outcome(call):
    """The bits of call()'s float result, or the type and message of its error."""
    try:
        return int(np.float64(call()).view(np.int64))
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _tables(draw):
    """function_from_samples tables on 2-6 knots, with values up to +-1e308."""
    inner = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                          max_size=4, unique=True))
    value = st.one_of(st.sampled_from([1e308, -1e308, 0.0]), st.floats(min_value=-1e308, max_value=1e308))
    fx = draw(st.lists(value, min_size=len(inner) + 2, max_size=len(inner) + 2))
    return function_from_samples([0.0, *sorted(inner), 1.0], fx)


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
            curve = operator_curve(f, n, xs, CProfile("zero"))
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
                lambda: operator_curve(f, n, xs, CProfile("zero")),
                lambda: polya_operator_eval(f, n, 0.5, CProfile("constant", 0.1)),
                lambda: operator_curve(f, n, xs, CProfile("constant", 0.1)),
            ):
                with pytest.raises(ValueError, match="n must be >= 1"):
                    call()

    def test_zero_profile_degenerates_to_bernstein(self):
        # the zero profile's Bernstein basis against the urn pmf at c = 0
        xs = np.linspace(0, 1, 101)
        for name, f in BUILTIN_FUNCTIONS.items():
            for n in (2, 7, 20):
                urn = f(np.arange(n + 1) / n) @ pmf_matrix(n, xs, 0.0)
                diff = np.abs(operator_curve(f, n, xs, CProfile("zero")) - urn).max()
                assert diff <= 1e-13, (name, n, diff)

    def test_every_zero_c_is_the_bernstein_point(self):
        rng = np.random.default_rng(29)
        zeros = (CProfile("zero"), CProfile("constant", 0.0))
        for f in BUILTIN_FUNCTIONS.values():
            for n in rng.integers(1, 201, size=4).tolist():
                for x in (0.0, 1.0, *rng.uniform(0.0, 1.0, size=3).tolist()):
                    want = bernstein_eval(f, n, x)
                    for profile in zeros:
                        assert polya_operator_eval(f, n, x, profile) == want, (f.name, n, x)
        # an rn grid of only the endpoints has c = 0 too
        ends = np.array([0.0, 1.0])
        for n in (2, 9):
            rn = operator_curve(CONST_ONE, n, ends, CProfile("rn"))
            assert rn.tolist() == operator_curve(CONST_ONE, n, ends, zeros[0]).tolist()

    def test_zero_profile_basis_sums_to_one_up_to_the_float_row_cap(self):
        # the c = 0 route skips pmf_matrix's sum check; it could not fire
        xs = np.linspace(0.0, 1.0, 2001)
        for n in (*range(1, 41), 100, 200, 500, 800, 1000, 1029):
            drift = np.abs(operator_curve(CONST_ONE, n, xs, CProfile("zero")) - 1.0).max()
            assert drift <= 1e-12, (n, drift)
        with pytest.raises(OverflowError, match="capped at n = 1029"):
            operator_curve(CONST_ONE, 1030, xs, CProfile("zero"))

    def test_zero_profile_rejects_x_outside_the_unit_interval(self):
        # the rn and constant profiles take the pmf route to the same check
        f = builtin_function("sin-pi")
        for profile in (CProfile("zero"), CProfile("rn"), CProfile("constant", 0.3)):
            for bad in (-0.1, 1.1, math.nan, 1 + 1e-15, -1e-15):
                with pytest.raises(polya.AdmissibilityError, match=r"x must lie in \[0,1\]"):
                    operator_curve(f, 5, np.array([0.5, bad]), profile)
                with pytest.raises(ValueError, match=r"x must lie in \[0,1\]"):
                    polya_operator_eval(f, 5, bad, profile)
        with pytest.raises(ValueError, match=r"x must lie in \[0,1\]"):
            bernstein_eval(f, 5, 1 + 1e-15)

    def test_reproduces_linear(self):
        for profile in (CProfile("zero"), CProfile("rn"), CProfile("constant", 0.3)):
            got = polya_operator_eval(builtin_function("linear"), 6, 0.4, profile)
            assert got == pytest.approx(0.4, abs=1e-12)

    def test_midpoint_degeneracy_n2(self):
        # the boundary profile at n=2, x=1/2 collapses the pmf to a point mass
        for name, f in BUILTIN_FUNCTIONS.items():
            got = polya_operator_eval(f, 2, 0.5, CProfile("rn"))
            assert got == pytest.approx(float(f(0.5)), abs=1e-13), name

    def test_point_query_is_the_one_point_curve(self):
        rng = np.random.default_rng(17)
        profiles = (CProfile("rn"), CProfile("zero"), CProfile("constant", 0.02))
        for f in BUILTIN_FUNCTIONS.values():
            for profile in profiles:
                for n in rng.integers(2, 201, size=4).tolist():
                    xs = [0.0, 1.0, *rng.uniform(0.0, 1.0, size=3).tolist()]
                    got = [polya_operator_eval(f, n, x, profile) for x in xs]
                    for x, value in zip(xs, got):
                        want = float(operator_curve(f, n, np.array([x]), profile)[0])
                        assert value == want, (f.name, n, x)
                    # a grid's value at x may differ by an ulp: numpy's power
                    # and matmul kernels depend on the shape
                    grid = operator_curve(f, n, np.array(xs), profile)
                    assert np.abs(grid - got).max() <= 1e-15, (f.name, n)

    def test_every_route_checks_the_pmf_sum(self, monkeypatch):
        # a binomial row 1e-9 too large or too small makes every interior
        # column sum drift; a too-large point mass at x = 0 clips back to 1,
        # so there only the second column of the first call drifts
        true_row = polya.binomial_row
        f = builtin_function("sin-pi")
        for error in (1e-9, -1e-9):
            monkeypatch.setattr(polya, "binomial_row", lambda n: true_row(n) * (1.0 + error))
            for call in (
                lambda: pmf_matrix(8, np.array([0.0, 0.3]), np.array([0.0, 0.01])),
                lambda: pmf(PolyaParams(8, 0.3, 0.7, 0.01)),
                lambda: operator_curve(f, 8, np.linspace(0.0, 1.0, 5), CProfile("rn")),
                lambda: polya_operator_eval(f, 8, 0.3, CProfile("rn")),
            ):
                with pytest.raises(ArithmeticError, match="drifts"):
                    call()

    def test_negative_constant_point_query_is_decided_by_validate(self):
        # validate admits the one column at x = 1/2 that c = -0.01 needs
        f = builtin_function("sqrt")
        want = float(f(np.arange(4) / 3) @ pmf(PolyaParams(3, 0.5, 0.5, -0.01)))
        assert polya_operator_eval(f, 3, 0.5, CProfile("constant", -0.01)) == want
        with pytest.raises(polya.AdmissibilityError, match=r"a \+ \(n-1\)c"):
            polya_operator_eval(f, 3, 0.5, CProfile("constant", -0.3))
        with pytest.raises(polya.AdmissibilityError):
            polya_operator_eval(f, 3, 0.1, CProfile("constant", -0.1))

    def test_negative_constant_grid_is_refused_at_the_endpoints(self):
        f = builtin_function("sqrt")
        with pytest.raises(polya.AdmissibilityError, match="somewhere in the sweep"):
            operator_curve(f, 3, np.linspace(0.0, 1.0, 5), CProfile("constant", -0.01))

    @settings(max_examples=600, deadline=None)
    @given(
        data=st.data(),
        x=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        kind=st.sampled_from(["rn", "constant", "zero", "bernstein_eval"]),
        u=st.floats(min_value=-0.2, max_value=5.0),
        f=st.one_of(st.sampled_from(sorted(BUILTIN_FUNCTIONS)).map(BUILTIN_FUNCTIONS.get), _tables()),
    )
    def test_point_query_is_the_one_point_curve_bit_for_bit(self, data, x, kind, u, f):
        # c(x) != 0 builds the one column, the curve a pmf_matrix column;
        # a refused column is refused by validate there, by validate_sweep
        # here.  The zero kind's Bernstein column is drawn past n = 1029,
        # the float row's cap, and both sums run under pbop's error rules,
        # so a +-1e308 table ends in the matmul's FloatingPointError.
        ns = (st.integers(min_value=1, max_value=200) if kind in ("rn", "constant") else
              st.one_of(st.sampled_from([1, 2, 1029, 1030]), st.integers(min_value=1, max_value=1031)))
        n = data.draw(ns, label="n")
        profile = CProfile("zero" if kind == "bernstein_eval" else kind, u)
        query = (lambda: bernstein_eval(f, n, x)) if kind == "bernstein_eval" else (
            lambda: polya_operator_eval(f, n, x, profile))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got, want = (_outcome(query),
                         _outcome(lambda: operator_curve(f, n, np.array([x]), profile)[0]))
        if isinstance(want, tuple) and want[0] is polya.AdmissibilityError:
            assert isinstance(got, tuple) and got[0] is polya.AdmissibilityError
        else:
            assert got == want

    @pytest.mark.parametrize("query", [
        lambda f: polya_operator_eval(f, 40, 0.3, CProfile("rn")),
        lambda f: polya_operator_eval(f, 40, 0.3, CProfile("constant", 0.02)),
        lambda f: polya_operator_eval(f, 40, 0.3, CProfile("constant", -0.005)),
        lambda f: pmf(PolyaParams(40, 0.3, 0.7, -0.005)),
        lambda f: truncated_first_moment(PolyaParams(40, 0.3, 0.7, -0.005), 11, "brute"),
    ], ids=["rn", "constant", "negative-constant", "pmf", "brute"])
    def test_pmf_point_query_validates_once_and_runs_no_sweep(self, monkeypatch, query):
        calls, true_validate = [], polya.validate

        def validate(params):
            calls.append(params)
            true_validate(params)

        def no_sweep(*args):
            raise AssertionError("a point query ran validate_sweep")

        for module in (polya, operators):
            monkeypatch.setattr(module, "validate", validate)
        monkeypatch.setattr(polya, "validate_sweep", no_sweep)
        query(builtin_function("sin-pi"))
        assert len(calls) == 1


class TestRn:
    def test_endpoint_interpolation(self):
        f = builtin_function("abs-mid")
        assert polya_operator_eval(f, 6, 0.0, CProfile("rn")) == 0.5
        assert polya_operator_eval(f, 6, 1.0, CProfile("rn")) == 0.5

    def test_linear_reproduction(self):
        assert polya_operator_eval(
            builtin_function("linear"), 10, 0.73, CProfile("rn")
        ) == pytest.approx(0.73, abs=1e-12)

    def test_square_n6_brute_force_oracle(self):
        # frozen from the direct pmf summation with c = -0.1
        assert polya_operator_eval(
            builtin_function("square"), 6, 0.5, CProfile("rn")
        ) == pytest.approx(0.2685185185185185, abs=1e-12)

    def test_rejects_n_one(self):
        with pytest.raises(ValueError):
            polya_operator_eval(builtin_function("linear"), 1, 0.5, CProfile("rn"))

    def test_curve_matches_pointwise(self, pmf_oracle):
        # against sum_k f(k/n) p_k(x) over the pmf in 50-digit arithmetic
        f = builtin_function("sqrt")
        xs = np.linspace(0, 1, 21)
        fk = f(np.arange(10) / 9)
        curve = operator_curve(f, 9, xs, CProfile("rn"))
        for x, v in zip(xs, curve):
            x = float(x)
            want = float(fk @ np.array(pmf_oracle(9, x, -min(x, 1 - x) / 8)))
            assert v == pytest.approx(want, abs=1e-13)
            assert polya_operator_eval(f, 9, x, CProfile("rn")) == pytest.approx(want, abs=1e-13)


class TestCProfile:
    XS = (0.0, -0.0, 1.0, 0.5, 0.1, 1 / 3, math.nextafter(0.5, 1.0), math.ulp(0.0), np.float64(0.7))
    PROFILES = [CProfile("zero"), CProfile("rn"), CProfile("constant", 0.0), CProfile("constant", 0.03),
                CProfile("constant", 2)]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_float_is_bit_identical_to_the_one_element_array(self, profile):
        # the float route is plain Python; the sign of a zero c counts too
        for n in range(2, 201):
            for x in self.XS:
                got = profile.c_at(x, n)
                want = profile.c_at(np.array([x]), n)
                assert isinstance(got, float) and want.shape == (1,)
                assert np.float64(got).tobytes() == want[0].tobytes(), (profile, n, x)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown profile kind 'bogus'"):
            CProfile("bogus")

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rn_refuses_n_below_two_on_both_routes(self, n):
        for x in (0.3, np.array([0.3])):
            with pytest.raises(ValueError, match="requires n > 1"):
                CProfile("rn").c_at(x, n)


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

    def test_an_array_of_deltas_is_the_scalar_calls_bit_for_bit(self):
        deltas = [n ** -0.5 for n in range(2, 201)]
        knots = np.linspace(0.0, 1.0, 25)
        table = function_from_samples(knots, np.random.default_rng(3).normal(size=25))
        for f in (*BUILTIN_FUNCTIONS.values(), table):
            got = modulus_of_continuity(f, deltas)
            want = [modulus_of_continuity(f, delta) for delta in deltas]
            assert isinstance(want[0], float) and got.shape == (199,)
            assert got.tolist() == want, f.name
            grid = modulus_of_continuity(f, np.reshape(deltas[:198], (18, 11)))
            assert grid.shape == (18, 11) and grid.ravel().tolist() == want[:198]

    def test_rejects_bad_inputs(self):
        f = builtin_function("linear")
        with pytest.raises(ValueError):
            modulus_of_continuity(f, 0.0)
        # one bad delta anywhere refuses the whole array
        for bad in (0.0, 1.5, math.nan):
            for where in (0, 100, -1):
                deltas = [n ** -0.5 for n in range(2, 201)]
                deltas[where] = bad
                with pytest.raises(ValueError, match=r"delta must lie in \(0,1\]"):
                    modulus_of_continuity(f, deltas)
        for delta in (0.5, [0.5, 0.25]):
            with pytest.raises(ValueError, match="resolution must be >= 100"):
                modulus_of_continuity(f, delta, resolution=10)


def deque_window_spread(vals, window):
    """Reference for the modulus: the largest max - min over every window of
    window+1 consecutive samples, by monotone deques, one sample at a time."""
    if window <= 0:
        return 0.0
    best = 0.0
    maxq, minq = deque(), deque()
    for i, v in enumerate(vals):
        while maxq and vals[maxq[-1]] <= v:
            maxq.pop()
        maxq.append(i)
        while minq and vals[minq[-1]] >= v:
            minq.pop()
        minq.append(i)
        lo = i - window
        if maxq[0] < lo:
            maxq.popleft()
        if minq[0] < lo:
            minq.popleft()
        spread = vals[maxq[0]] - vals[minq[0]]
        if spread > best:
            best = float(spread)
    return best


def _seeded_samples(seed, m):
    """Random walks, small integers (ties everywhere) and plateaus."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=m))
    ties = rng.integers(0, 4, size=m).astype(float)
    plateaus = np.repeat(rng.normal(size=m // 7 + 1), 7)[:m]
    return walk, ties, plateaus, np.round(walk, 1)


class TestBlockModulus:
    @pytest.mark.parametrize("m", [101, 1000, 1001, 4099])
    def test_equals_deque_loop_on_seeded_arrays(self, m):
        windows = {0, 1, 2, 3, 6, 7, m // 3, m // 2, m - 3, m - 2, m - 1, m, m + 5}
        for seed in range(3):
            for vals in _seeded_samples(seed, m):
                for window in sorted(windows):
                    got = operators._window_spread(vals, window)
                    assert got == deque_window_spread(vals, window), (seed, window)

    def test_windows_not_dividing_the_samples(self):
        vals = _seeded_samples(7, 1001)[0]
        for window in (2, 3, 5, 9, 11, 99, 250, 333, 998):
            assert 1001 % (window + 1) != 0
            assert operators._window_spread(vals, window) == deque_window_spread(vals, window)

    @pytest.mark.parametrize("resolution", [100, 1000, 4097, 10000])
    def test_modulus_equals_deque_loop(self, resolution):
        xs = np.linspace(0.0, 1.0, resolution + 1)
        for f in BUILTIN_FUNCTIONS.values():
            vals = np.asarray(f(xs), dtype=float)
            for delta in (0.5 / resolution, 1.0 / resolution, 0.013, 0.2, 2 ** -0.5, 0.99, 1.0):
                window = math.floor(delta * resolution + 1e-9)
                assert modulus_of_continuity(f, delta, resolution) == deque_window_spread(
                    vals, window
                ), (f.name, delta)

    def test_delta_one_is_the_whole_spread(self):
        f = builtin_function("sawtooth")
        assert modulus_of_continuity(f, 1.0, 999) == 1.0


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

    @pytest.mark.parametrize("xs, fx", [
        ([0.0, 1.0], [0.0, 1.0, 2.0]),          # unequal lengths
        ([0.0], [1.0]),                          # fewer than 2
        ([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]),  # 2-D
    ])
    def test_rejects_samples_of_the_wrong_shape(self, xs, fx):
        with pytest.raises(ValueError, match="equal-length 1-D sequences of length >= 2"):
            function_from_samples(xs, fx)

    def test_csv_skips_blank_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,fx\n0,0.5\n\n1,0.9\n\n")
        f = function_from_csv(str(path))
        assert float(f(0.5)) == pytest.approx(0.7)

    def test_csv_with_a_header_only_is_refused(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,fx\n")
        with pytest.raises(ValueError, match="no samples"):
            function_from_csv(str(path))

    def test_rejects_missing_endpoints(self):
        with pytest.raises(ValueError, match="x=0"):
            function_from_samples([0.1, 1.0], [0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["xs", "fx"])
    def test_rejects_non_finite_samples(self, bad, where):
        samples = {"xs": [0.0, 0.5, 1.0], "fx": [0.0, 1.0, 0.0]}
        samples[where][1] = bad
        with pytest.raises(ValueError, match="finite"):
            function_from_samples(samples["xs"], samples["fx"])

    def test_piecewise_linear_modulus_is_exact(self):
        f = function_from_samples([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert modulus_of_continuity(f, 0.25, 4000) == pytest.approx(0.5, abs=1e-3)


class TestPopoviciuRatio:
    """The ratio at one n, as the one-n scan."""

    GRID = GridSpec(points=2001)

    def test_linear_ratio_vanishes(self):
        rep = popoviciu_scan(builtin_function("linear"), [8], self.GRID, "rn")
        assert rep.sup <= 1e-10

    def test_rn_below_paper_constant(self):
        rep = popoviciu_scan(builtin_function("abs-mid"), [6], self.GRID, "rn")
        assert rep.sup <= 1.08970

    def test_bernstein_below_optimal_constant(self):
        rep = popoviciu_scan(builtin_function("abs-mid"), [6], self.GRID, "bernstein")
        assert rep.sup <= 1.0898874

    def test_rejects_constant_function(self, monkeypatch):
        def no_curve(*args):
            raise AssertionError("a constant function reached operator_curve")

        # refused from the one modulus call, before any operator curve
        monkeypatch.setattr(operators, "operator_curve", no_curve)
        for ns in ([6], range(2, 201)):
            with pytest.raises(ValueError, match="'one' is constant on the grid"):
                popoviciu_scan(CONST_ONE, ns, self.GRID, "rn")

    def test_report_witness_reproduces_sup(self):
        f = builtin_function("sawtooth")
        rep = popoviciu_scan(f, [5], self.GRID, "rn")
        omega = modulus_of_continuity(f, 5 ** -0.5)
        opx = polya_operator_eval(f, 5, rep.argmax_x, CProfile("rn"))
        val = abs(opx - float(f(rep.argmax_x))) / omega
        assert val == pytest.approx(rep.sup, rel=1e-12)


class TestPopoviciuScan:
    GRID = GridSpec(points=1001)

    @pytest.mark.parametrize("op", ["bernstein", "rn"])
    def test_entries_equal_the_one_n_ratio(self, op):
        knots = np.linspace(0.0, 1.0, 25)
        table = function_from_samples(knots, np.cumsum(np.random.default_rng(5).normal(size=25)))
        for f in (builtin_function("sqrt"), builtin_function("sawtooth"), table):
            ns = [2, 3, 5, 8, 13, 40]
            rep = popoviciu_scan(f, ns, self.GRID, op)
            singles = [popoviciu_scan(f, [n], self.GRID, op) for n in ns]
            assert all(r.per_n == ((r.argmax_n, r.sup, r.argmax_x),) for r in singles)
            assert rep.per_n == tuple(r.per_n[0] for r in singles)
            best = max(singles, key=lambda r: r.sup)
            assert (rep.argmax_n, rep.sup, rep.argmax_x) == (best.argmax_n, best.sup, best.argmax_x)
            assert rep.meta == {"operator": op, "function": f.name, "kind": "popoviciu-ratio"}

    def test_ties_go_to_the_smallest_n(self, monkeypatch):
        # f = 0 and omega = 1, so each n's ratio curve is the operator curve:
        # a single spike of sup_n at argmax_x_n
        spikes = {2: (0.5, 0.1), 3: (0.75, 0.2), 4: (0.75, 0.3)}

        def curve(f, n, xs, profile):
            out = np.zeros_like(xs)
            sup, x = spikes[n]
            out[int(np.flatnonzero(xs == x)[0])] = sup
            return out

        monkeypatch.setattr(operators, "_window_spread", lambda vals, window: 1.0)
        monkeypatch.setattr(operators, "operator_curve", curve)
        zero = operators.FunctionSpec("zero", np.zeros_like)
        rep = popoviciu_scan(zero, [2, 3, 4], self.GRID)
        assert rep.per_n == ((2, 0.5, 0.1), (3, 0.75, 0.2), (4, 0.75, 0.3))
        assert (rep.argmax_n, rep.sup, rep.argmax_x) == (3, 0.75, 0.2)

    def test_one_modulus_call_per_scan(self, monkeypatch):
        calls, true_modulus = [], operators.modulus_of_continuity

        def counted(f, delta, *args):
            calls.append(delta)
            return true_modulus(f, delta, *args)

        monkeypatch.setattr(operators, "modulus_of_continuity", counted)
        f = builtin_function("sawtooth")
        rep = popoviciu_scan(f, [2, 5, 40], self.GRID)
        assert calls == [[2 ** -0.5, 5 ** -0.5, 40 ** -0.5]]
        assert [row[0] for row in rep.per_n] == [2, 5, 40]

    def test_unsorted_and_duplicate_n_give_sorted_rows(self):
        f = builtin_function("sqrt")
        rep = popoviciu_scan(f, [40, 2, 13, 2, 40], self.GRID)
        assert rep == popoviciu_scan(f, [2, 13, 40], self.GRID)
        assert [row[0] for row in rep.per_n] == [2, 13, 40]

    def test_rejects_bad_inputs(self):
        f = builtin_function("sqrt")
        with pytest.raises(ValueError, match="n >= 2"):
            popoviciu_scan(f, [3, 1], self.GRID)
        with pytest.raises(ValueError, match="capped at n = 200"):
            popoviciu_scan(f, range(2, 10**9), self.GRID)
        with pytest.raises(ValueError, match="operator"):
            popoviciu_scan(f, [3], self.GRID, "polya")
        with pytest.raises(ValueError, match="empty"):
            popoviciu_scan(f, [], self.GRID)
        with pytest.raises(ValueError, match="constant"):
            popoviciu_scan(CONST_ONE, [2, 3], self.GRID)


class TestPointQueryPins:
    # (n, pmf(n, 0.6, 1.4, -0.3/(n-1)) and pmf(n, 0.3, 0.7, 0.5) at
    # k in {0, n//3, n//2, n}, polya_operator_eval(sin-pi, n, 0.3) under the
    # rn, zero and constant(0.02) profiles, bernstein_eval(sin-pi, n, 0.3),
    # truncated_first_moment(PolyaParams(n, 0.3, 0.7, -0.15/(n-1)), n//2)
    # closed and brute), recorded from the row-loop products and the
    # per-call math.comb tables.  The zero profile is the Bernstein route,
    # so its entry equals bernstein_eval's.
    PINS = (
        (
            2,
            (0.4529411764705882, 0.49411764705882355, 0.052941176470588235),
            (0.5599999999999999, 0.27999999999999997, 0.16),
            (0.6, 0.42, 0.4117647058823529),
            0.42,
            (0.03705882352941176, 0.03705882352941174),
        ),
        (
            57,
            (1.8256669247489137e-10, 0.10227088054934988, 0.0004996633639251206, 3.470029920977658e-36),
            (0.09839915896407767, 0.01723525343313708, 0.013303189419687344, 0.0022927544172560194),
            (0.7987878494929788, 0.7943631859573126, 0.778230052758089),
            0.7943631859573126,
            (5.7198306133533566e-05, 5.71983061335322e-05),
        ),
        (
            200,
            (6.799772408441843e-35, 0.03973868942562626, 5.3278306268413433e-11, 4.187788427067234e-125),
            (0.046748778870561336, 0.004999665890444407, 0.003771306367048525, 0.00040103349232100115),
            (0.8060880501110337, 0.804829511997496, 0.7884602146832591),
            0.804829511997496,
            (5.983769573362004e-12, 5.983750466726767e-12),
        ),
    )

    @pytest.mark.parametrize("pin", PINS, ids=lambda p: f"n={p[0]}")
    def test_point_queries_are_pinned(self, pin):
        n, pmf_neg, pmf_pos, ops, bern, moments = pin
        ks = sorted({0, n // 3, n // 2, n})
        cneg = -0.15 / (n - 1)
        assert tuple(pmf(PolyaParams(n, 0.6, 1.4, 2 * cneg))[ks]) == pmf_neg
        assert tuple(pmf(PolyaParams(n, 0.3, 0.7, 0.5))[ks]) == pmf_pos
        f = builtin_function("sin-pi")
        kinds = ("rn", "zero", "constant")
        assert tuple(polya_operator_eval(f, n, 0.3, CProfile(k, 0.02)) for k in kinds) == ops
        assert bernstein_eval(f, n, 0.3) == bern
        params = PolyaParams(n, 0.3, 0.7, cneg)
        methods = ("closed", "brute")
        assert tuple(truncated_first_moment(params, n // 2, m) for m in methods) == moments


class TestStaircaseWitness:
    """Sikkema's extremal function ties the operator to the bracket sum.

    For x not a node k/n, f_x(t) = 1 + max(]sqrt(n)|t - x|[, 0) for t != x
    and f_x(x) = 0 has omega(f_x, 1/sqrt(n)) = 1, so the operator's error at
    x is R_n f_x(x) = sum_k (1 + ]sqrt(n)|k/n - x|[) p_k(x) = S_n^c(x): the
    scan's bracket sum is the constant the operator attains.
    """

    @staticmethod
    def staircase(n: int, x: float) -> operators.FunctionSpec:
        def fn(t):
            steps = 1.0 + np.maximum(strict_floor_bracket(math.sqrt(n) * np.abs(t - x)), 0)
            return np.where(t == x, 0.0, steps)

        return operators.FunctionSpec("staircase", fn)

    @pytest.mark.parametrize("c_mode", ["zero", "rn"])
    def test_operator_attains_the_bracket_sum_at_the_argmax(self, c_mode, pmf_oracle):
        rep = analysis.scan_sup(range(2, 41), c_mode, GridSpec(points=2001), bound="bracket")
        profile = CProfile(c_mode)
        for n, sup, x in rep.per_n:
            # the scan evaluates x >= 1/2 and mirrors it; read its point
            x = max(x, 1.0 - x)
            if any(k / n == x for k in range(n + 1)):
                # rn at n = 2: the sum is 1 everywhere and the first argmax
                # is the node x = 0, where f_x is not the witness
                assert (c_mode, n) == ("rn", 2)
                x = 0.75
                assert analysis.bracket_curve(n, np.array([x]), c_mode)[0] == sup
            xs = np.array([x])
            got = operator_curve(self.staircase(n, x), n, xs, profile)[0]
            # R_n 1 - 1 is the pmf column's mass drift (1.6e-15 at rn n = 29),
            # which the operator reads and the bracket sum, 1 + sum_k w_k p_k,
            # does not
            drift = operator_curve(CONST_ONE, n, xs, profile)[0] - 1.0
            assert got - drift == pytest.approx(sup, rel=1e-15, abs=0), (n, x)
            # and against the pmf from its product definition in 50 digits
            c = float(profile.c_at(x, n))
            oracle = self.staircase(n, x)(np.arange(n + 1) / n) @ np.array(pmf_oracle(n, x, c))
            assert oracle == pytest.approx(sup, rel=1e-15, abs=0), (n, x)
