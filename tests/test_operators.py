import math
from collections import deque

import mpmath
import numpy as np
import pytest

from polya_bernstein import operators, polya
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
    popoviciu_scan,
)
from polya_bernstein.polya import PolyaParams, pmf, pmf_matrix, truncated_first_moment
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

    def test_point_query_is_the_one_point_curve(self):
        rng = np.random.default_rng(17)
        profiles = (CProfile("rn"), CProfile("zero"), CProfile("constant", 0.02))
        for f in BUILTIN_FUNCTIONS.values():
            for profile in profiles:
                for n in rng.integers(2, 201, size=4).tolist():
                    for x in (0.0, 1.0, *rng.uniform(0.0, 1.0, size=3).tolist()):
                        want = float(operator_curve(f, n, np.array([x]), profile)[0])
                        assert polya_operator_eval(f, n, x, profile) == want, (f.name, n, x)

    def test_every_route_checks_the_pmf_sum(self, monkeypatch):
        # a binomial row 1e-9 too large makes every interior column sum
        # drift; the point-mass column at x = 0 clips back to 1, so only the
        # second column of the first call drifts
        true_row = polya.binomial_row
        monkeypatch.setattr(polya, "binomial_row", lambda n: true_row(n) * (1.0 + 1e-9))
        f = builtin_function("sin-pi")
        for call in (
            lambda: pmf_matrix(8, np.array([0.0, 0.3]), np.array([0.0, 0.01])),
            lambda: pmf(PolyaParams(8, 0.3, 0.7, 0.01)),
            lambda: operator_curve(f, 8, np.linspace(0.0, 1.0, 5), CProfile("rn")),
            lambda: polya_operator_eval(f, 8, 0.3, CProfile("rn")),
        ):
            with pytest.raises(ArithmeticError, match="drifts"):
                call()

    def test_rejects_negative_constant_profile(self):
        with pytest.raises(ValueError):
            CProfile("constant", -0.1)


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

    def test_rejects_constant_function(self):
        with pytest.raises(ValueError, match="constant"):
            popoviciu_scan(CONST_ONE, [6], self.GRID, "rn")

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
    # per-call math.comb tables.
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
            (0.7987878494929788, 0.7943631859573127, 0.778230052758089),
            0.7943631859573126,
            (5.7198306133533566e-05, 5.71983061335322e-05),
        ),
        (
            200,
            (6.799772408441843e-35, 0.03973868942562626, 5.3278306268413433e-11, 4.187788427067234e-125),
            (0.046748778870561336, 0.004999665890444407, 0.003771306367048525, 0.00040103349232100115),
            (0.8060880501110337, 0.8048295119974958, 0.7884602146832591),
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
