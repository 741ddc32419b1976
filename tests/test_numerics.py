"""Quadrature and special-function checks against analytic oracles.

Expected values come from antiderivatives or classical constants, never
from the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recinacc import numerics
from recinacc.errors import (
    DomainError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    QuadratureError,
)
from recinacc.numerics import (
    IntegrationResult,
    QuadratureConfig,
    digamma,
    gamma_expectation,
    integrate,
    log_gamma,
)

EULER_GAMMA = 0.5772156649015329


class TestIntegrate:
    def test_constant(self):
        r = integrate(lambda x: np.ones_like(x), (0.0, 1.0))
        assert r.value == pytest.approx(1.0, abs=1e-14)
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations > 0

    def test_exponential_tail(self):
        r = integrate(lambda x: np.exp(-x), (0.0, math.inf))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_log_singularity(self):
        # antiderivative x - x log x gives exactly 1 on (0, 1)
        r = integrate(lambda x: -np.log(x), (0.0, 1.0))
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_whole_line_gaussian(self):
        r = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), (-math.inf, math.inf))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_left_infinite(self):
        r = integrate(lambda x: np.exp(x), (-math.inf, 0.0))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_algebraic_tail(self):
        # antiderivative -2 x^(-1/2) on (1, inf) gives 2
        r = integrate(lambda x: x**-1.5, (1.0, math.inf))
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_polynomial_exactness(self):
        r = integrate(lambda x: x**10, (0.0, 1.0))
        assert r.value == pytest.approx(1.0 / 11.0, rel=1e-14)

    def test_scalar_integrand_broadcast(self):
        r = integrate(lambda x: 1.0, (0.0, 2.0))
        assert r.value == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / x, (0.0, 1.0))

    def test_non_convergence_carries_partial_value(self):
        cfg = QuadratureConfig(max_subdivisions=3)
        with pytest.raises(NonConvergenceError) as exc:
            integrate(lambda x: -np.log(x), (0.0, 1.0), cfg)
        assert exc.value.partial_value == pytest.approx(1.0, abs=1e-2)
        assert exc.value.abs_error_estimate > 0.0

    def test_nan_integrand_identifies_abscissa(self):
        with pytest.raises(IntegrandError) as exc:
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), (0.0, 1.0))
        assert exc.value.abscissa is not None
        assert exc.value.abscissa > 0.5

    @pytest.mark.parametrize(
        "interval,sign",
        [((0.0, math.inf), 1.0), ((-math.inf, 0.0), -1.0), ((-math.inf, math.inf), -1.0)],
    )
    def test_nan_abscissa_reported_in_x_on_infinite_intervals(self, interval, sign):
        # the tails are integrated in u = 1/(1 + |x| - split); the error
        # names the x where the integrand failed, with its sign
        with pytest.raises(IntegrandError) as exc:
            integrate(lambda x: np.where(abs(x) > 5, np.nan, np.exp(-abs(x))), interval)
        assert abs(exc.value.abscissa) > 5
        assert math.copysign(1.0, exc.value.abscissa) == sign
        assert repr(exc.value.abscissa) in str(exc.value)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, (1.0, 1.0))
        with pytest.raises(DomainError):
            integrate(lambda x: x, (2.0, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        c0=st.floats(-5, 5),
        c1=st.floats(-5, 5),
        c2=st.floats(-5, 5),
        a=st.floats(-3, 3),
        w=st.floats(0.1, 4),
    )
    def test_quadratic_against_antiderivative(self, c0, c1, c2, a, w):
        b = a + w
        r = integrate(lambda x: c2 * x**2 + c1 * x + c0, (a, b))

        def anti(x):
            return c2 * x**3 / 3 + c1 * x**2 / 2 + c0 * x

        assert r.value == pytest.approx(anti(b) - anti(a), abs=1e-9, rel=1e-9)


class TestPanelEvaluation:
    """One integrand call per panel tree start, then one per bisection."""

    @staticmethod
    def counted(f):
        sizes = []

        def wrapped(x):
            sizes.append(np.size(x))
            return f(x)

        return wrapped, sizes

    @pytest.mark.parametrize(
        "f,interval,starts",
        [
            (lambda x: np.exp(-x) * np.cos(5.0 * x), (0.0, 3.0), 1),
            (lambda x: -np.log(x), (0.0, 1.0), 1),
            # head (a, a + 1) and mapped tail are two panel trees
            (lambda x: x * x * np.exp(-x) / (1.0 + x), (0.0, math.inf), 2),
        ],
    )
    def test_one_call_per_start_and_per_bisection(self, f, interval, starts):
        wrapped, sizes = self.counted(f)
        r = integrate(wrapped, interval)
        bisections = (r.evaluations - 15 * starts) // 30
        assert bisections > 0
        assert len(sizes) == starts + bisections
        assert sum(sizes) == r.evaluations
        # each tree's first call is its one 15-point panel; every later
        # call carries both halves of a bisected panel
        assert sizes[0] == 15
        assert sizes.count(15) == starts
        assert set(sizes) == {15, 30}
        if starts == 1:
            assert sizes[1:] == [30] * bisections

    @staticmethod
    def nan_near_quarters(x):
        # NaN near 1/4 and 3/4 only: neither is a node of the (0, 1) panel,
        # and each is the midpoint node of one of its two halves
        x = np.asarray(x, dtype=float)
        near = (np.abs(x - 0.25) < 0.01) | (np.abs(x - 0.75) < 0.01)
        return np.where(near, np.nan, -np.log(x))

    def test_both_halves_non_finite_reports_the_left_one(self):
        wrapped, sizes = self.counted(self.nan_near_quarters)
        with pytest.raises(IntegrandError) as exc:
            integrate(wrapped, (0.0, 1.0))
        assert sizes == [15, 30]
        assert exc.value.abscissa == 0.25

    @pytest.mark.parametrize(
        "interval,sign",
        [((0.0, math.inf), 1.0), ((-math.inf, 0.0), -1.0), ((-math.inf, math.inf), -1.0)],
    )
    def test_both_halves_non_finite_reported_in_x_on_infinite_intervals(self, interval, sign):
        # the first tail bisection splits u in (0, 1); both halves fail at
        # their midpoints u = 1/4 and 3/4, i.e. |x| = 4 and 4/3.  The left
        # half in u, the far one in x, is reported, in x and with its sign.
        def f(x):
            u = 1.0 / np.abs(x)  # u = 1/(1 + |x| - 1) on the tail
            return np.where(np.isnan(self.nan_near_quarters(u)), np.nan, np.exp(-np.abs(x)))

        wrapped, sizes = self.counted(f)
        with pytest.raises(IntegrandError) as exc:
            integrate(wrapped, interval)
        assert sizes[-1] == 30
        assert exc.value.abscissa == sign * 4.0
        assert repr(exc.value.abscissa) in str(exc.value)

    @pytest.mark.parametrize(
        "f,interval,value,error",
        [
            (lambda x: np.exp(-x) * np.cos(5.0 * x), (0.0, 3.0),
             "0x1.79ff9d79c7d17p-5", "0x1.14516c2ab0000p-45"),
            (lambda x: x * x * np.exp(-x) / (1.0 + x), (0.0, math.inf),
             "0x1.3154710477cc4p-1", "0x1.e1e7a8eb84504p-33"),
            (lambda x: np.exp(-0.5 * x * x) * np.cos(2.0 * x), (-math.inf, math.inf),
             "0x1.5b607c16eda28p-2", "0x1.404880aa75d5bp-39"),
            (lambda x: -np.log(x) / np.sqrt(x), (0.0, 1.0),
             "0x1.ffffffff8aa02p+1", "0x1.0c90e782fdc2ep-28"),
        ],
    )
    def test_results_pinned_to_the_bit(self, f, interval, value, error):
        # values from the one-panel-per-call integrator: evaluating both
        # halves of a bisection in one call must not move a bit
        r = integrate(f, interval)
        assert (r.value.hex(), r.abs_error_estimate.hex()) == (value, error)


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-10
        assert cfg.rel_tol == 1e-9
        assert cfg.max_subdivisions == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"rel_tol": 0.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureConfig(**kwargs)

    def test_result_validation(self):
        with pytest.raises(ParameterError):
            IntegrationResult(1.0, -1.0, 10)
        with pytest.raises(ParameterError):
            IntegrationResult(1.0, 0.0, -1)


class TestGammaExpectation:
    def test_unit_function(self):
        r = gamma_expectation(lambda t: np.ones_like(t), 3, 2)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_mean(self, n, k):
        r = gamma_expectation(lambda t: t, n, k)
        assert r.value == pytest.approx(n / k, rel=1e-12)

    def test_second_moment(self):
        # E[T^2] = n(n+1)/k^2
        r = gamma_expectation(lambda t: t * t, 4, 3)
        assert r.value == pytest.approx(4 * 5 / 9, rel=1e-11)

    def test_log_moment_n1(self):
        r = gamma_expectation(np.log, 1, 1)
        assert r.value == pytest.approx(-EULER_GAMMA, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_log_moment_cross_validates_digamma(self, n, k):
        # the independent quadrature route must reproduce psi(n) - log k
        r = gamma_expectation(np.log, n, k)
        assert r.value == pytest.approx(digamma(n) - math.log(k), abs=1e-8)

    def test_laplace_transform(self):
        # E[e^-sT] = (k/(k+s))^n
        r = gamma_expectation(lambda t: np.exp(-2.5 * t), 3, 2)
        assert r.value == pytest.approx((2 / 4.5) ** 3, rel=1e-10)

    def test_exhausted_ladder_builds_only_nonempty_rules(self, monkeypatch):
        # 1/sqrt(t) defeats every fixed rule, so the ladder runs out and the
        # adaptive fallback answers; a rung without nodes would estimate 0
        sizes = []
        rule = numerics._genlaguerre_rule

        def recording(nodes, alpha):
            x, w = rule(nodes, alpha)
            sizes.append(x.size)
            return x, w

        monkeypatch.setattr(numerics, "_genlaguerre_rule", recording)
        r = gamma_expectation(lambda t: 1.0 / np.sqrt(t), 1, 1)
        assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)
        assert r.evaluations > sum(sizes)  # the adaptive fallback ran
        assert sizes and min(sizes) > 0

    @pytest.mark.parametrize("n", [1, 20, 172])
    def test_far_tail_moment_within_estimate(self, n):
        # E[e^{T/2}] = 2^n weighs the far tail of the rule; squared
        # eigenvector components put it off by 1e26 at 128 nodes
        r = gamma_expectation(lambda t: np.exp(t / 2.0), n, 1)
        assert abs(r.value - 2.0**n) <= r.abs_error_estimate

    def test_adaptive_fallback_finds_mass_far_from_zero(self):
        # the kink at 700 defeats the fixed rules; one (0, inf) integral then
        # missed the mass near t = 600 and returned 2.6e-83
        from scipy.special import gammaincc

        n, c = 600, 700.0
        exact = n - (n * gammaincc(n + 1, c) - c * gammaincc(n, c))  # E[min(T, c)]
        r = gamma_expectation(lambda t: np.minimum(t, c), n, 1)
        assert abs(r.value - exact) <= r.abs_error_estimate <= 1e-9 * exact

    def test_non_finite_value_at_real_weight_raises(self):
        # the rungs go non-finite and hand over to the adaptive fallback,
        # which reports the non-finite value instead of dropping it
        with pytest.raises(IntegrandError):
            gamma_expectation(lambda t: np.where(t > 5, np.nan, 1.0), 2, 1)

    def test_invalid_shape_rate(self):
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, 0, 1)
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, 2, 0)
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, 2.5, 1)


class TestGammaRule:
    @pytest.mark.parametrize("alpha", [0, 19, 170, 171, 300, 1000])
    @pytest.mark.parametrize("nodes", [64, 128, 256])
    def test_normalised_weights_and_mean(self, alpha, nodes):
        x, w = numerics._genlaguerre_rule(nodes, alpha)
        assert abs(w.sum() - 1.0) <= 1e-14
        assert abs(w @ x - (alpha + 1)) <= 1e-14 * (alpha + 1)

    @pytest.mark.parametrize("nodes", [64, 128, 256])
    def test_far_tail_weights_match_scipy(self, nodes):
        # scipy's rule for t^19 e^-t, divided by 19!.  Against 40-digit
        # values both rules are accurate to about 1.3e-12 relative (scipy's
        # weights at 128 nodes are that far off), so they agree within
        # 3e-12; squared eigenvector components put the last 64-node
        # weight at 2.2e-57 instead of 9.6e-88.
        from scipy.special import roots_genlaguerre

        x, w = numerics._genlaguerre_rule(nodes, 19)
        xs, ws = roots_genlaguerre(nodes, 19)
        ws = ws / math.factorial(19)
        live = ws > 1e-300
        assert x.size >= np.count_nonzero(live)
        np.testing.assert_allclose(x[: live.sum()], xs[live], rtol=1e-13)
        np.testing.assert_allclose(w[: live.sum()], ws[live], rtol=3e-12)


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_small_integers_exact(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        assert log_gamma(21.0) == pytest.approx(math.log(math.factorial(20)), rel=1e-15)

    def test_recurrence(self):
        for x in np.arange(0.5, 30.0, 0.7):
            assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)

    def test_series_oracle(self):
        # psi(x) = -gamma + sum_j (1/(j+1) - 1/(j+x))
        for x in (0.5, 1.5, 3.25, 7.0):
            js = np.arange(200000)
            series = -EULER_GAMMA + np.sum(1.0 / (js + 1.0) - 1.0 / (js + x))
            assert digamma(x) == pytest.approx(float(series), abs=1e-4)

    @pytest.mark.parametrize("x", np.arange(0.5, 10.5, 0.5).tolist())
    def test_recurrence(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.5)
