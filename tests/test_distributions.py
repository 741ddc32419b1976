"""Catalog checks: closed-form values, normalization, inverse round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recinacc.distributions import (
    _log_pdf_through_inverse,
    affine_transform,
    make_custom,
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)
from recinacc.errors import ConsistencyError, ParameterError
from recinacc.measures import cumulative_past_inaccuracy
from recinacc.numerics import integrate
from recinacc.record_measures import kerridge_record
from recinacc.records import RecordSpec, gamma_transform_point


def catalog():
    return [
        make_exponential(1.0),
        make_exponential(2.5),
        make_pareto(2.0),
        make_pareto(0.5),
        make_weibull(1.0, 2.0),
        make_weibull(2.0, 0.5),
        make_uniform01(),
        make_power_decreasing(),
        make_power_increasing(2),
        make_power_increasing(3),
    ]


class TestClosedFormValues:
    def test_exponential(self):
        d = make_exponential(1.0)
        assert d.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        assert make_exponential(2.0).quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)
        assert d.pdf(0.0) == 1.0  # one-sided limit at the endpoint

    def test_pareto(self):
        assert make_pareto(2.0).cdf(2.0) == pytest.approx(0.75, rel=1e-15)
        assert make_pareto(1.0).quantile(0.5) == pytest.approx(2.0, rel=1e-15)
        assert make_pareto(3.0).pdf(1.0) == pytest.approx(3.0, rel=1e-15)

    def test_weibull(self):
        assert make_weibull(1.0, 2.0).survival(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        q = make_weibull(2.0, 0.5).quantile(-math.expm1(-2.0))
        assert q == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_weibull_log_pdf_is_the_xlogy_formula_to_the_bit(self, beta):
        # xlogy takes libm's log; numpy's own log differs from it in the
        # last bit on a fraction of a percent of inputs, so a swap to
        # np.log would move output bits (and give nan at x = 0 for beta = 1)
        from scipy.special import xlogy

        lam = 1.0 / beta
        rng = np.random.default_rng(16)
        x = np.concatenate([[0.0], rng.uniform(0.0, 2.0, 6000), np.geomspace(1e-300, 1e100, 4000)])
        with np.errstate(all="ignore"):
            want = math.log(lam * beta) + xlogy(beta - 1.0, x) - lam * x**beta
        got = np.asarray(make_weibull(lam, beta).log_pdf(x), float)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_weibull_beta_one_is_exponential(self):
        w = make_weibull(2.0, 1.0)
        e = make_exponential(2.0)
        for x in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0):
            assert w.pdf(x) == pytest.approx(e.pdf(x), abs=1e-12)
            assert w.cdf(x) == pytest.approx(e.cdf(x), abs=1e-12)
            assert w.survival(x) == pytest.approx(e.survival(x), abs=1e-12)

    def test_uniform(self):
        u = make_uniform01()
        assert u.hazard(0.5) == pytest.approx(2.0, rel=1e-15)
        assert u.reversed_hazard(0.5) == pytest.approx(2.0, rel=1e-15)
        assert u.pdf(-0.5) == 0.0 and u.pdf(1.5) == 0.0

    @pytest.mark.parametrize("measure, side", [("cri", "upper"), ("cpi", "lower")])
    def test_uniform_cumulative_closed_form_is_the_exact_sum_rounded_once(self, measure, side):
        # summed term by term in floats, n = 100 k = 1 gave 0.9999999999999999
        form = make_uniform01().closed_forms[measure]
        for n in [*range(1, 41), 60, 100, 200]:
            for k in (1, 2, 3, 5):
                exact = sum(Fraction((i + 1) * k**i, (k + 1) ** (i + 2)) for i in range(n))
                assert form(side, n, k) == float(exact), (n, k)
        assert form(side, 10**5, 1) == 1.0

    def test_power_decreasing(self):
        d = make_power_decreasing()
        assert d.pdf(0.0) == pytest.approx(3.0, rel=1e-15)
        assert d.cdf(0.5) == pytest.approx(0.875, rel=1e-15)
        assert d.quantile(0.875) == pytest.approx(0.5, rel=1e-12)

    def test_power_increasing(self):
        assert make_power_increasing(2).pdf(0.5) == pytest.approx(1.0, rel=1e-15)
        assert make_power_increasing(2).cdf(0.5) == pytest.approx(0.25, rel=1e-15)
        assert make_power_increasing(3).quantile(0.125) == pytest.approx(0.5, rel=1e-15)


    def test_log_tails_keep_values_below_machine_epsilon(self):
        # log(1 - e^a) with e^a below eps: log(-expm1(a)) rounds it to 0
        def close(value, expected, rel=1e-12):
            return value == pytest.approx(expected, rel=rel, abs=0.0)

        assert close(make_pareto(2.0).log_cdf(1e9), -1e-18)
        assert close(make_exponential(1.0).log_cdf(40.0), -math.exp(-40.0))
        assert close(make_weibull(1.0, 2.0).log_cdf(7.0), -math.exp(-49.0))
        assert close(make_power_decreasing().log_cdf(1.0 - 1e-7), -1e-21, rel=1e-6)
        assert close(make_power_increasing(2).log_survival(1e-9), -1e-18)

    def test_log_tails_agree_across_regimes(self):
        # one array straddling -log 2 matches the same points one by one
        d = make_exponential(1.0)
        xs = np.array([1e-12, 1e-3, 0.5, math.log(2.0), 1.0, 40.0, 800.0])
        together = d.log_cdf(xs)
        assert list(together) == [d.log_cdf(x) for x in xs]
        assert together[1] == pytest.approx(math.log(-math.expm1(-1e-3)), rel=1e-15)
        assert together[-2] == pytest.approx(-math.exp(-40.0), rel=1e-12, abs=0.0)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_exponential(0.0),
            lambda: make_exponential(-1.0),
            lambda: make_pareto(0.0),
            lambda: make_weibull(0.0, 1.0),
            lambda: make_weibull(1.0, 0.0),
            lambda: make_power_increasing(1),
            lambda: make_power_increasing(2.5),
            # a bool passed as a number; a string passed through float()
            lambda: make_power_increasing(True),
            lambda: make_exponential(True),
            lambda: make_pareto("2"),
            lambda: make_weibull(1.0, None),
        ],
    )
    def test_rejects_bad_parameters(self, factory):
        with pytest.raises(ParameterError):
            factory()

    @pytest.mark.parametrize("lam, beta", [(1e-300, 1e-300), (1e200, 1e200)])
    def test_weibull_parameters_whose_product_leaves_the_double_range(self, lam, beta):
        # log(lam * beta) raised a bare ValueError on the underflowed product
        d = make_weibull(lam, beta)
        assert d.log_pdf(1.0) == pytest.approx(math.log(lam) + math.log(beta) - lam, rel=1e-15)


class TestInvariants:
    @pytest.mark.parametrize("dist", catalog(), ids=lambda d: f"{d.name}{d.params}")
    def test_normalization(self, dist):
        r = integrate(dist.pdf, dist.support)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dist", catalog(), ids=lambda d: f"{d.name}{d.params}")
    def test_quantile_roundtrip(self, dist):
        ps = (np.arange(33) + 0.5) / 33.0
        xs = np.asarray(dist.quantile(ps), float)
        assert np.max(np.abs(np.asarray(dist.cdf(xs), float) - ps)) < 1e-8

    @pytest.mark.parametrize("dist", catalog(), ids=lambda d: f"{d.name}{d.params}")
    def test_survival_complements_cdf(self, dist):
        xs = np.asarray(dist.quantile((np.arange(17) + 0.5) / 17.0), float)
        c = np.asarray(dist.cdf(xs), float)
        s = np.asarray(dist.survival(xs), float)
        assert np.max(np.abs(c + s - 1.0)) < 1e-12

    @pytest.mark.parametrize("dist", catalog(), ids=lambda d: f"{d.name}{d.params}")
    def test_hazard_times_survival_is_pdf(self, dist):
        xs = np.asarray(dist.quantile((np.arange(9) + 0.5) / 9.0), float)
        for x in xs:
            assert dist.hazard(x) * dist.survival(x) == pytest.approx(float(dist.pdf(x)), rel=1e-12)

    @pytest.mark.parametrize("dist", catalog(), ids=lambda d: f"{d.name}{d.params}")
    def test_log_pdf_matches_pdf(self, dist):
        xs = np.asarray(dist.quantile((np.arange(9) + 0.5) / 9.0), float)
        assert np.max(np.abs(np.exp(np.asarray(dist.log_pdf(xs), float)) - np.asarray(dist.pdf(xs), float))) < 1e-12

    @pytest.mark.parametrize("dist", catalog(), ids=lambda d: f"{d.name}{d.params}")
    def test_inverse_survival_matches_quantile(self, dist):
        qs = (np.arange(15) + 0.5) / 15.0
        a = np.asarray(dist.inverse_survival(qs), float)
        b = np.asarray(dist.quantile(1.0 - qs), float)
        assert np.max(np.abs(a - b)) < 1e-9 * np.maximum(1.0, np.max(np.abs(b)))

    @pytest.mark.parametrize("dist", catalog(), ids=lambda d: f"{d.name}{d.params}")
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_log_pdf_at_tail_is_log_pdf_at_the_transform_point(self, dist, side):
        t = np.geomspace(0.01, 30.0, 61)
        want = np.asarray(dist.log_pdf(gamma_transform_point(dist, side, t)), float)
        np.testing.assert_allclose(dist.log_pdf_at_tail(side, t), want, rtol=1e-12, atol=1e-13)
        # the composition that laws without the family formula get
        composed = _log_pdf_through_inverse(dist.log_pdf, dist.quantile, dist.inverse_survival,
                                            side, t)
        np.testing.assert_allclose(composed, want, rtol=1e-12, atol=1e-13)

    def test_weibull_lower_log_pdf_at_tail_past_the_underflow_of_e_to_the_minus_t(self):
        # log f = log(lam beta) + ((beta-1)/beta)(log H - log lam) + log S,
        # with log H = -t and log S = 0 to working precision: t + log 2 here
        t = np.array([40.0, 745.0, 800.0, 1e4])
        got = make_weibull(2.0, 0.5).log_pdf_at_tail("lower", t)
        np.testing.assert_allclose(got, t + math.log(2.0), rtol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(0.05, 50.0), p=st.floats(0.001, 0.999))
    def test_exponential_roundtrip_property(self, theta, p):
        d = make_exponential(theta)
        assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-11)


class TestCustom:
    def test_uniform_via_custom(self):
        d = make_custom(
            lambda x: np.where((np.asarray(x, float) >= 0) & (np.asarray(x, float) <= 1), 1.0, 0.0)[()],
            lambda x: np.clip(np.asarray(x, float), 0.0, 1.0)[()],
            lambda p: np.asarray(p, float)[()],
            (0.0, 1.0),
        )
        assert d.pdf(0.3) == 1.0
        assert d.survival(0.25) == pytest.approx(0.75, rel=1e-15)

    def test_triangular_passes_probes(self, triangular):
        assert triangular.cdf(0.25) == pytest.approx(0.125, rel=1e-15)
        assert triangular.pdf(0.25) == pytest.approx(1.0, rel=1e-15)
        r = integrate(triangular.pdf, triangular.support)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_unclipped_functions_are_masked_at_the_support(self):
        # power-inc(2)'s formulas, which hold only on (0, 1): outside it they
        # gave pdf 4 and cdf 4 at x = 2, and cpi against exponential(1)
        # read 2.1646464674 where its catalog twin gives 0.6365810652
        law = make_custom(
            lambda x: 2.0 * np.asarray(x, float),
            lambda x: np.asarray(x, float) ** 2,
            lambda p: np.sqrt(np.asarray(p, float)),
            (0.0, 1.0),
        )
        assert law.pdf(2.0) == 0.0 and law.cdf(2.0) == 1.0 and law.survival(2.0) == 0.0
        assert law.pdf(-1.0) == 0.0 and law.cdf(-1.0) == 0.0 and law.survival(-1.0) == 1.0
        res = cumulative_past_inaccuracy(law, make_exponential(1.0))
        assert abs(res.value - 0.6365810651532333) <= res.abs_error_estimate

    @pytest.mark.parametrize("given", ["plain", "all"])
    def test_functions_may_return_lists(self, given):
        e2 = make_exponential(2.0)

        def listed(f):
            return lambda x: np.asarray(f(x)).tolist()

        optional = ("log_pdf", "survival", "inverse_survival", "log_cdf", "log_survival")
        law = make_custom(
            listed(e2.pdf), listed(e2.cdf), listed(e2.quantile), e2.support,
            **{name: listed(getattr(e2, name)) for name in optional if given == "all"},
        )
        xs = np.array([0.0, 0.5, 3.0])
        for name in ("pdf", "cdf", "survival", "log_pdf", "log_cdf", "log_survival"):
            got = getattr(law, name)(xs)
            assert isinstance(got, np.ndarray)
            np.testing.assert_allclose(got, getattr(e2, name)(xs), rtol=1e-12)
        assert isinstance(law.quantile(0.5), float)
        assert law.log_pdf_at_tail("upper", 1.0) == pytest.approx(math.log(2.0) - 1.0, rel=1e-12)
        res = kerridge_record(law, RecordSpec("upper", 2, 1))
        assert abs(res.value - (2.0 - math.log(2.0))) <= res.abs_error_estimate + 1e-12

    def test_mismatched_pdf_cdf_rejected(self):
        with pytest.raises(ConsistencyError, match="pdf-cdf") as exc:
            make_custom(
                lambda x: np.ones_like(np.asarray(x, float))[()],
                lambda x: np.asarray(x, float) ** 2,
                lambda p: np.sqrt(np.asarray(p, float)),
                (0.0, 1.0),
            )
        assert "np." not in str(exc.value)

    def test_broken_quantile_rejected(self):
        with pytest.raises(ConsistencyError, match="roundtrip") as exc:
            make_custom(
                lambda x: np.ones_like(np.asarray(x, float))[()],
                lambda x: np.clip(np.asarray(x, float), 0.0, 1.0)[()],
                lambda p: 0.5 * np.asarray(p, float),
                (0.0, 1.0),
            )
        assert "np." not in str(exc.value)

    def test_bad_support(self):
        with pytest.raises(ParameterError):
            make_custom(lambda x: x, lambda x: x, lambda p: p, (1.0, 1.0))


class TestAffineTransform:
    def test_exponential_scale_shift(self):
        d = affine_transform(make_exponential(1.0), 2.0, 3.0)
        assert d.support == (3.0, math.inf)
        assert d.pdf(3.0) == pytest.approx(0.5, rel=1e-15)
        assert d.cdf(5.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert d.quantile(0.5) == pytest.approx(2.0 * math.log(2.0) + 3.0, rel=1e-14)
        assert d.log_pdf_at_tail("upper", 5.0) == -5.0 - math.log(2.0)

    def test_uniform_negative_shift(self):
        d = affine_transform(make_uniform01(), 3.0, -1.0)
        assert d.support == (-1.0, 2.0)
        r = integrate(d.pdf, d.support)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            affine_transform(make_uniform01(), 0.0, 1.0)
        with pytest.raises(ParameterError):
            affine_transform(make_uniform01(), -2.0, 0.0)
