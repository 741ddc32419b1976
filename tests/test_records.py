"""Record-value distributions: densities, cdfs, transforms, sampling."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from recinacc.distributions import (
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)
from recinacc.errors import DomainError, ParameterError
from recinacc.numerics import gamma_expectation, integrate
from recinacc.records import (
    RecordSpec,
    gamma_transform_point,
    record_cdf,
    record_distribution,
    record_log_pdf,
    record_pdf,
    record_survival,
    sample_record,
)


def catalog():
    return [
        make_exponential(1.0),
        make_exponential(2.5),
        make_pareto(2.0),
        make_weibull(1.0, 2.0),
        make_weibull(2.0, 0.5),
        make_uniform01(),
        make_power_decreasing(),
        make_power_increasing(2),
    ]


class TestPointValues:
    def test_uniform_first_upper_record_density_is_parent(self):
        d = make_uniform01()
        assert record_pdf(d, RecordSpec("upper", 1, 1), 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_second_upper_record_density(self):
        # density x * exp(-x) at x = 1
        d = make_exponential(1.0)
        assert record_pdf(d, RecordSpec("upper", 2, 1), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_uniform_second_lower_record_density(self):
        # density -log(x) at x = 1/2
        d = make_uniform01()
        assert record_pdf(d, RecordSpec("lower", 2, 1), 0.5) == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_exponential_second_upper_record_cdf(self):
        d = make_exponential(1.0)
        assert record_cdf(d, RecordSpec("upper", 2, 1), 1.0) == pytest.approx(
            1.0 - 2.0 * math.exp(-1.0), rel=1e-13
        )

    def test_uniform_first_lower_two_record_cdf_is_square(self):
        d = make_uniform01()
        assert record_cdf(d, RecordSpec("lower", 1, 2), 0.5) == pytest.approx(0.25, rel=1e-13)

    def test_survival_complements_cdf(self):
        d = make_exponential(2.5)
        spec = RecordSpec("upper", 3, 2)
        for x in (0.1, 0.7, 2.0):
            total = record_cdf(d, spec, x) + record_survival(d, spec, x)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_deep_tail_log_density_stays_finite(self):
        # survival underflows to 0 near x = 750 for the unit exponential;
        # the log form must keep going on the cumulative hazard alone
        d = make_exponential(1.0)
        lp = record_log_pdf(d, RecordSpec("upper", 3, 1), 936.0)
        expected = -math.log(2.0) + 2.0 * math.log(936.0) - 936.0
        assert lp == pytest.approx(expected, rel=1e-12)
        assert record_pdf(d, RecordSpec("upper", 3, 1), 936.0) == 0.0

    def test_outside_support_is_zero(self):
        d = make_exponential(1.0)
        spec = RecordSpec("upper", 2, 2)
        assert record_pdf(d, spec, -1.0) == 0.0
        assert record_log_pdf(d, spec, -1.0) == -math.inf
        assert record_cdf(d, spec, -1.0) == 0.0
        assert record_survival(d, spec, -1.0) == 1.0

    @pytest.mark.parametrize(
        "parent,spec",
        [
            (make_pareto(2.0), RecordSpec("lower", 9, 1)),
            (make_power_increasing(2), RecordSpec("upper", 10, 1)),
        ],
    )
    def test_density_limit_where_base_function_vanishes(self, parent, spec):
        # at x = 1 the cdf (lower) or survival (upper) is exactly 0, so
        # (-log g)^(n-1) is infinite; the density's limit there is 0
        assert record_log_pdf(parent, spec, 1.0) == -math.inf
        assert record_pdf(parent, spec, 1.0) == 0.0


class TestFirstRecordIsParent:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_pdf_and_cdf_match_parent(self, side):
        spec = RecordSpec(side, 1, 1)
        for d in catalog():
            lo, hi = d.support
            xs = d.quantile(np.linspace(0.05, 0.95, 7))
            assert np.allclose(record_pdf(d, spec, xs), d.pdf(xs), rtol=1e-12, atol=1e-12)
            assert np.allclose(record_cdf(d, spec, xs), d.cdf(xs), rtol=1e-12, atol=1e-12)


class TestNormalization:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n,k", [(1, 2), (2, 1), (3, 2), (5, 1), (4, 5)])
    def test_density_integrates_to_one(self, side, n, k):
        spec = RecordSpec(side, n, k)
        for d in catalog():
            res = integrate(lambda x: record_pdf(d, spec, x), d.support)
            assert res.value == pytest.approx(1.0, abs=1e-8), d.name


class TestCdfConsistency:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_cdf_derivative_matches_density(self, side):
        spec = RecordSpec(side, 3, 2)
        for d in (make_exponential(1.0), make_uniform01(), make_weibull(1.0, 2.0)):
            rd = record_distribution(d, spec)
            for p in (0.2, 0.5, 0.8):
                x = float(rd.quantile(p))
                h = 1e-6 * max(1.0, abs(x))
                slope = (record_cdf(d, spec, x + h) - record_cdf(d, spec, x - h)) / (2 * h)
                assert slope == pytest.approx(record_pdf(d, spec, x), rel=1e-6)

    def test_upper_records_grow_stochastically_with_n(self):
        d = make_exponential(1.0)
        xs = np.linspace(0.1, 5.0, 20)
        prev = record_cdf(d, RecordSpec("upper", 1, 2), xs)
        for n in (2, 3, 4):
            cur = record_cdf(d, RecordSpec("upper", n, 2), xs)
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_lower_records_shrink_stochastically_with_n(self):
        d = make_uniform01()
        xs = np.linspace(0.05, 0.95, 20)
        prev = record_cdf(d, RecordSpec("lower", 1, 2), xs)
        for n in (2, 3, 4):
            cur = record_cdf(d, RecordSpec("lower", n, 2), xs)
            assert np.all(cur >= prev - 1e-15)
            prev = cur


class TestRecordLogTails:
    """A record law's log_cdf and log_survival against mpmath's regularised
    incomplete gamma, where the record cdf or survival underflows."""

    @pytest.mark.parametrize("x", [1e-3, 1e-80, 1e-200])
    def test_upper_log_cdf_through_hyp1f1(self, x):
        # P(5, 2x) underflows from x = 1e-80 on: log P is taken from 1F1
        law = record_distribution(make_exponential(1.0), RecordSpec("upper", 5, 2))
        with mp.workdps(40):
            ref = float(mp.log(mp.gammainc(5, 0, 2 * mp.mpf(x), regularized=True)))
        assert float(law.log_cdf(x)) == pytest.approx(ref, rel=1e-14)

    def test_log_cdf_array_matches_its_points(self):
        law = record_distribution(make_exponential(1.0), RecordSpec("upper", 5, 2))
        xs = [1e-3, 1e-80, 1e-200]
        assert law.log_cdf(np.array(xs)).tolist() == [float(law.log_cdf(x)) for x in xs]

    def test_upper_log_survival_through_log_gamma_tail(self):
        # Q(3, 800) = 1.2e-342 underflows
        law = record_distribution(make_exponential(1.0), RecordSpec("upper", 3, 1))
        with mp.workdps(40):
            ref = float(mp.log(mp.gammainc(3, 800, mp.inf, regularized=True)))
        assert float(law.log_survival(800.0)) == pytest.approx(ref, rel=1e-14)

    def test_lower_log_survival_through_hyp1f1(self):
        # P(5, y) at y = -log F(200) = e^-200 is about e^-1005: log P from 1F1
        law = record_distribution(make_exponential(1.0), RecordSpec("lower", 5, 1))
        with mp.workdps(40):
            # at 40 digits 1 - e^-200 rounds to 1
            y = -mp.log1p(-mp.exp(-200))
            ref = float(mp.log(mp.gammainc(5, 0, y, regularized=True)))
        assert float(law.log_survival(200.0)) == pytest.approx(ref, rel=1e-14)

    def test_lower_log_cdf_through_the_gamma_series(self):
        # Q(3, y) at y = -log F(1e-200) = 921 is about e^-908 and underflows
        law = record_distribution(make_power_increasing(2), RecordSpec("lower", 3, 1))
        with mp.workdps(40):
            y = -2 * mp.log(mp.mpf(1e-200))
            ref = float(mp.log(mp.gammainc(3, y, mp.inf, regularized=True)))
        assert float(law.log_cdf(1e-200)) == pytest.approx(ref, rel=1e-14)

    def test_lower_log_survival_near_the_upper_end(self):
        law = record_distribution(make_uniform01(), RecordSpec("lower", 3, 1))
        x = 1.0 - 1e-15
        with mp.workdps(40):
            ref = float(mp.log(mp.gammainc(3, 0, -mp.log(mp.mpf(x)), regularized=True)))
        assert float(law.log_survival(x)) == pytest.approx(ref, rel=1e-14)


class TestGammaTransform:
    def test_known_points(self):
        assert gamma_transform_point(make_exponential(1.0), "upper", 2.0) == pytest.approx(2.0)
        assert gamma_transform_point(make_pareto(2.0), "upper", 2.0) == pytest.approx(math.e)
        assert gamma_transform_point(make_uniform01(), "lower", 1.0) == pytest.approx(
            math.exp(-1.0)
        )

    def test_requires_positive_t(self):
        d = make_exponential(1.0)
        with pytest.raises(DomainError):
            gamma_transform_point(d, "upper", 0.0)
        with pytest.raises(DomainError):
            gamma_transform_point(d, "upper", -1.0)
        with pytest.raises(DomainError):
            gamma_transform_point(d, "upper", math.nan)
        with pytest.raises(ParameterError):
            gamma_transform_point(d, "sideways", 1.0)

    @pytest.mark.parametrize("bad", [math.nan, 0.0])
    def test_one_bad_point_in_an_array_raises(self, bad):
        t = np.array([0.5, bad, 2.0])
        with pytest.raises(DomainError, match=r"gamma transform requires t > 0"):
            gamma_transform_point(make_exponential(1.0), "upper", t)
        with pytest.raises(DomainError, match=r"gamma transform requires t > 0"):
            gamma_transform_point(make_uniform01(), "lower", t)

    @pytest.mark.parametrize(
        "d,side,n,k,power,exact",
        [
            (make_exponential(1.0), "upper", 2, 1, 2, 6.0),
            (make_exponential(1.0), "upper", 2, 1, 1, 2.0),
            (make_uniform01(), "lower", 3, 2, 1, (2.0 / 3.0) ** 3),
            (make_pareto(2.0), "upper", 2, 3, 2, (3.0 / (3.0 - 1.0)) ** 2),
        ],
    )
    def test_moments_agree_between_gamma_and_direct_form(self, d, side, n, k, power, exact):
        # E[(parent quantile transform of T)^p] computed two ways: through
        # the gamma weight, and by integrating the record density directly.
        spec = RecordSpec(side, n, k)
        via_gamma = gamma_expectation(
            lambda t: np.asarray(gamma_transform_point(d, side, t), float) ** power, n, k
        ).value
        via_x = integrate(lambda x: x**power * record_pdf(d, spec, x), d.support).value
        assert via_gamma == pytest.approx(exact, rel=1e-9)
        assert via_x == pytest.approx(exact, rel=1e-7)


class TestRecordDistribution:
    def test_quantile_roundtrips(self):
        for d in catalog():
            for side in ("upper", "lower"):
                rd = record_distribution(d, RecordSpec(side, 2, 3))
                ps = np.linspace(0.01, 0.99, 15)
                assert np.allclose(rd.cdf(rd.quantile(ps)), ps, atol=1e-10)
                assert np.allclose(rd.survival(rd.inverse_survival(ps)), ps, atol=1e-10)

    def test_carries_parent_and_spec(self):
        d = make_weibull(1.0, 2.0)
        spec = RecordSpec("upper", 4, 2)
        rd = record_distribution(d, spec)
        assert rd.parent is d
        assert rd.spec == spec
        assert "n=4" in rd.name and "k=2" in rd.name
        assert rd.support == d.support

    def test_behaves_as_plain_distribution(self):
        rd = record_distribution(make_exponential(1.0), RecordSpec("upper", 2, 1))
        x = 1.3
        assert rd.hazard(x) == pytest.approx(rd.pdf(x) / rd.survival(x))
        assert rd.log_pdf(x) == pytest.approx(math.log(rd.pdf(x)))
        res = integrate(rd.pdf, rd.support)
        assert res.value == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_deterministic_given_seed(self):
        d = make_exponential(1.0)
        spec = RecordSpec("upper", 2, 1)
        a = sample_record(d, spec, seed=123, count=1000)
        b = sample_record(d, spec, seed=123, count=1000)
        c = sample_record(d, spec, seed=124, count=1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_exponential_upper_record_mean(self):
        xs = sample_record(make_exponential(1.0), RecordSpec("upper", 2, 1), seed=7, count=10**6)
        # mean 2, variance 2: keep a 3 sigma band
        assert abs(xs.mean() - 2.0) < 3.0 * math.sqrt(2.0) / 1000.0

    def test_uniform_lower_record_mean(self):
        xs = sample_record(make_uniform01(), RecordSpec("lower", 2, 1), seed=11, count=10**6)
        var = 1.0 / 9.0 - 1.0 / 16.0
        assert abs(xs.mean() - 0.25) < 3.0 * math.sqrt(var) / 1000.0

    @pytest.mark.parametrize(
        "d,side",
        [
            (make_exponential(1.0), "upper"),
            (make_uniform01(), "lower"),
            (make_pareto(2.0), "upper"),
        ],
    )
    def test_samples_match_analytic_cdf(self, d, side):
        spec = RecordSpec(side, 2, 2)
        xs = sample_record(d, spec, seed=42, count=10**5)
        res = stats.kstest(xs, lambda x: record_cdf(d, spec, x))
        assert res.pvalue > 0.001

    def test_rejects_bad_count(self):
        with pytest.raises(ParameterError):
            sample_record(make_exponential(1.0), RecordSpec("upper", 1, 1), seed=0, count=0)

    def test_refuses_more_draws_than_the_budget(self):
        # 10^13 exponentials: numpy's allocator failed with a bare MemoryError
        with pytest.raises(ParameterError) as exc:
            sample_record(make_exponential(1.0), RecordSpec("upper", 10**8, 1), seed=0,
                          count=100_000)
        assert str(exc.value) == (
            "count * n = 10000000000000 draws exceeds the budget of 100000000")

    # True passed as 1, then numpy raised a bare TypeError
    @pytest.mark.parametrize("count", [2.5, "100", True])
    def test_rejects_non_integer_count(self, count):
        with pytest.raises(ParameterError, match="count"):
            sample_record(make_exponential(1.0), RecordSpec("upper", 1, 1), seed=0, count=count)

    @pytest.mark.parametrize("seed", [-1, 2.5, "x", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            sample_record(make_exponential(1.0), RecordSpec("upper", 1, 1), seed=seed, count=10)

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 128, 129, 300])
    def test_draws_match_row_sums_bit_for_bit(self, n, k, side):
        # The sampler adds short rows column by column; numpy's own
        # .sum(axis=1) is the reference.
        parent, spec = make_weibull(2.0, 0.5), RecordSpec(side, n, k)
        count = max(1000, 200_000 // n)
        t = np.random.default_rng(n).exponential(scale=1.0 / k, size=(count, n)).sum(axis=1)
        expected = gamma_transform_point(parent, side, np.maximum(t, np.finfo(float).tiny))
        assert np.array_equal(sample_record(parent, spec, n, count), expected)


class TestRecordSpecValidation:
    @pytest.mark.parametrize(
        "side,n,k",
        [
            ("middle", 1, 1),
            ("upper", 0, 1),
            ("upper", 1, 0),
            ("upper", 1.5, 1),
            ("lower", 2, 2.0),
            ("lower", -3, 1),
            # a bool passed as an integer
            ("upper", True, 1),
            ("upper", 1, False),
        ],
    )
    def test_rejects_invalid_fields(self, side, n, k):
        with pytest.raises(ParameterError):
            RecordSpec(side, n, k)

    def test_accepts_numpy_integers(self):
        spec = RecordSpec("upper", np.int64(3), np.int64(2))
        assert spec.n == 3 and spec.k == 2
