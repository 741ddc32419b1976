"""Two-distribution measures: frozen values, identities, error contracts.

Expected numbers come from hand integration; a scipy.integrate.quad
cross-check class recomputes a sample of them through a completely
separate quadrature stack.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as si

from recinacc import measures as M
from recinacc.distributions import (
    affine_transform,
    make_custom,
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)
from recinacc.errors import DivergenceError, ParameterError, SupportError
from recinacc.records import RecordSpec, record_distribution

E1 = make_exponential(1.0)
E2 = make_exponential(2.0)
E3 = make_exponential(3.0)
U = make_uniform01()
PD = make_power_decreasing()
P2 = make_power_increasing(2)
P3 = make_power_increasing(3)
PAR2 = make_pareto(2.0)
W12 = make_weibull(1.0, 2.0)
W205 = make_weibull(2.0, 0.5)

CATALOG = [E1, E2, PAR2, W12, W205, U, PD, P2, P3]

# pairs with assessed support covering the actual support and a finite
# kerridge/kl integral; used by the identity and sign sweeps
VALID_PAIRS = [
    (U, U), (U, PD), (U, P2), (U, E1), (U, W12),
    (PD, U), (PD, P2), (P2, U), (P2, PD), (P3, P2),
    (E1, E2), (E2, E1), (E1, W12), (W12, E1), (W12, W205), (W205, E1),
    (PAR2, PAR2), (PAR2, E1), (PAR2, W205),
]


class TestFrozenValues:
    @pytest.mark.parametrize(
        "fn,x,y,expected",
        [
            (M.kerridge, U, U, 0.0),
            (M.kerridge, E1, E1, 1.0),
            (M.kerridge, E2, E1, 0.5),
            (M.kerridge, U, P2, 1.0 - math.log(2.0)),
            (M.extropy_inaccuracy, U, U, -0.5),
            (M.extropy_inaccuracy, E1, E1, -0.25),
            (M.extropy_inaccuracy, U, E1, -0.5 * (1.0 - math.exp(-1.0))),
            (M.cumulative_residual_extropy_inaccuracy, E1, E1, -0.25),
            (M.cumulative_residual_extropy_inaccuracy, U, U, -1.0 / 6.0),
            (M.cumulative_residual_extropy_inaccuracy, E1, E3, -0.125),
            (M.cumulative_past_extropy_inaccuracy, U, U, -1.0 / 6.0),
            (M.cumulative_past_extropy_inaccuracy, U, P2, -0.125),
            (M.cumulative_past_extropy_inaccuracy, PD, PD, -9.0 / 28.0),
            (M.kl_divergence, E1, E2, 1.0 - math.log(2.0)),
            (M.kl_divergence, U, P2, 1.0 - math.log(2.0)),
            (M.relative_information, E1, E2, -1.0 / 12.0),
            (M.relative_information, U, E1, 0.5 * math.exp(-1.0)),
            (M.cumulative_residual_inaccuracy, E1, E1, 1.0),
            (M.cumulative_residual_inaccuracy, U, U, 0.25),
            (M.cumulative_residual_inaccuracy, E1, E2, 2.0),
            (M.cumulative_residual_inaccuracy, PAR2, PAR2, 2.0),
            (M.cumulative_past_inaccuracy, U, U, 0.25),
            (M.cumulative_past_inaccuracy, P2, P2, 2.0 / 9.0),
            (M.cumulative_past_inaccuracy, U, P2, 0.5),
        ],
    )
    def test_value(self, fn, x, y, expected):
        assert fn(x, y).value == pytest.approx(expected, abs=1e-9)

    def test_entropy_wrapper(self):
        assert M.shannon_entropy(E2).value == pytest.approx(1.0 - math.log(2.0), abs=1e-9)

    def test_extropy_wrappers(self):
        assert M.cumulative_residual_extropy(U).value == pytest.approx(-1.0 / 6.0, abs=1e-10)
        assert M.cumulative_past_extropy(U).value == pytest.approx(-1.0 / 6.0, abs=1e-10)

    def test_uniform_residual_and_past_agree_by_symmetry(self):
        a = M.cumulative_residual_inaccuracy(U, U).value
        b = M.cumulative_past_inaccuracy(U, U).value
        assert a == pytest.approx(b, abs=1e-10)


class TestScipyCrossCheck:
    """The same integrals through scipy's QUADPACK bindings."""

    def _quad(self, f, a, b):
        val, _ = si.quad(f, a, b, limit=400)
        return val

    def test_kerridge(self):
        want = self._quad(lambda x: -math.exp(-x) * (math.log(2.0) - 2.0 * x), 0, np.inf)
        assert M.kerridge(E1, E2).value == pytest.approx(want, abs=1e-8)

    def test_extropy_inaccuracy(self):
        want = self._quad(lambda x: -0.5 * math.exp(-x), 0, 1)
        assert M.extropy_inaccuracy(U, E1).value == pytest.approx(want, abs=1e-10)

    def test_residual_extropy_inaccuracy_mixed_supports(self):
        want = self._quad(lambda x: -0.5 * min(1.0, x**-2.0) * math.exp(-x), 0, np.inf)
        assert M.cumulative_residual_extropy_inaccuracy(PAR2, E1).value == pytest.approx(
            want, abs=1e-8
        )

    def test_residual_inaccuracy(self):
        want = self._quad(lambda x: math.exp(-x) * 2.0 * x, 0, np.inf)
        assert M.cumulative_residual_inaccuracy(E1, E2).value == pytest.approx(want, abs=1e-8)

    def test_past_inaccuracy(self):
        want = self._quad(lambda x: -x * 2.0 * math.log(x), 0, 1)
        assert M.cumulative_past_inaccuracy(U, P2).value == pytest.approx(want, abs=1e-9)

    def test_kl_weibull_pair(self):
        def integrand(x):
            fx = 2.0 * x * math.exp(-(x**2))
            lfx = math.log(2.0 * x) - x**2
            ly = math.log(2.0 * 0.5) - 0.5 * math.log(x) - 2.0 * math.sqrt(x)
            return fx * (lfx - ly)

        want = self._quad(integrand, 0, np.inf)
        assert M.kl_divergence(W12, W205).value == pytest.approx(want, abs=1e-8)

    def test_relative_information(self):
        want = 0.5 * (1.0 - self._quad(lambda x: math.exp(-x), 0, 1))
        assert M.relative_information(U, E1).value == pytest.approx(want, abs=1e-10)


class TestIdentities:
    @pytest.mark.parametrize("dist", CATALOG, ids=lambda d: d.name + str(d.params))
    def test_self_kl_and_relative_information_vanish(self, dist):
        assert abs(M.kl_divergence(dist, dist).value) < 1e-9
        assert abs(M.relative_information(dist, dist).value) < 1e-9

    @pytest.mark.parametrize("dist", CATALOG, ids=lambda d: d.name + str(d.params))
    def test_self_kerridge_is_entropy(self, dist):
        assert M.kerridge(dist, dist).value == pytest.approx(
            M.shannon_entropy(dist).value, abs=1e-12
        )

    @pytest.mark.parametrize("pair", VALID_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}")
    def test_kerridge_decomposes_into_entropy_plus_kl(self, pair):
        x, y = pair
        lhs = M.kerridge(x, y).value
        rhs = M.shannon_entropy(x).value + M.kl_divergence(x, y).value
        assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("pair", VALID_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}")
    def test_kl_nonnegative(self, pair):
        assert M.kl_divergence(*pair).value >= -1e-10

    @pytest.mark.parametrize("pair", VALID_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}")
    def test_extropy_style_measures_are_nonpositive(self, pair):
        x, y = pair
        assert M.extropy_inaccuracy(x, y).value <= 1e-12
        assert M.cumulative_residual_extropy_inaccuracy(x, y).value <= 1e-12
        if math.isfinite(x.support[1]) and math.isfinite(y.support[1]):
            assert M.cumulative_past_extropy_inaccuracy(x, y).value <= 1e-12

    @given(
        a=st.floats(0.2, 5.0),
        b=st.floats(0.2, 5.0),
    )
    def test_exponential_family_closed_forms(self, a, b):
        x, y = make_exponential(a), make_exponential(b)
        assert M.kerridge(x, y).value == pytest.approx(b / a - math.log(b), abs=1e-8)
        assert M.kl_divergence(x, y).value == pytest.approx(
            math.log(a / b) + b / a - 1.0, abs=1e-8
        )


class TestErrorContracts:
    def test_past_extropy_inaccuracy_rejects_infinite_support(self):
        with pytest.raises(DivergenceError):
            M.cumulative_past_extropy_inaccuracy(E1, E1)

    def test_residual_extropy_inaccuracy_rejects_heavy_tail_product(self):
        heavy = make_pareto(0.4)
        with pytest.raises(DivergenceError):
            M.cumulative_residual_extropy_inaccuracy(heavy, heavy)

    def test_residual_inaccuracy_rejects_log_divergent_tail(self):
        # survival x^-2 against a linear cumulative hazard integrates like 1/x
        with pytest.raises(DivergenceError):
            M.cumulative_residual_inaccuracy(PAR2, E1)

    def test_kerridge_rejects_uncovered_support(self):
        with pytest.raises(SupportError):
            M.kerridge(E1, U)
        with pytest.raises(SupportError):
            M.kerridge(E1, PAR2)

    def test_kl_rejects_uncovered_support(self):
        with pytest.raises(SupportError):
            M.kl_divergence(E1, U)

    def test_residual_inaccuracy_rejects_short_assessed_support(self):
        with pytest.raises(SupportError):
            M.cumulative_residual_inaccuracy(E1, U)

    def test_past_inaccuracy_rejects_late_assessed_support(self):
        with pytest.raises(SupportError):
            M.cumulative_past_inaccuracy(U, PAR2)

    def test_support_error_is_a_divergence_error(self):
        with pytest.raises(DivergenceError):
            M.kerridge(E1, U)

    def test_divergence_carries_partial_value_when_available(self):
        try:
            M.cumulative_residual_inaccuracy(PAR2, E1)
        except DivergenceError as exc:
            # raised by the decay certifier before quadrature runs, or by
            # the translator with a partial value; either way it is loud
            assert "diverg" in str(exc)


class TestFarTails:
    def test_entropy_of_a_custom_logistic_law(self):
        # a whole-line law: the tail ladder runs toward -inf as well
        def pdf(x):
            e = np.exp(-np.abs(np.asarray(x, float)))
            return (e / (1.0 + e) ** 2)[()]

        def cdf(x):
            x = np.asarray(x, float)
            e = np.exp(-np.abs(x))
            return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))[()]

        def quantile(p):
            p = np.asarray(p, float)
            return (np.log(p) - np.log1p(-p))[()]

        logistic = make_custom(pdf, cdf, quantile, (-math.inf, math.inf), name="logistic")
        res = M.shannon_entropy(logistic)
        assert abs(res.value - 2.0) <= res.abs_error_estimate < 1e-10

    @pytest.mark.parametrize("theta", [2.0, 3.0])
    def test_residual_inaccuracy_of_first_lower_record_on_pareto(self, theta):
        # the first lower 1-record law is the parent, with survival built
        # from log F; past x ~ 1e8 that log must keep F's x^-theta deficit
        # or the weight vanishes early (a false divergence at theta = 2, a
        # value outside its error estimate at theta = 3)
        parent = make_pareto(theta)
        record = record_distribution(parent, RecordSpec("lower", 1, 1))
        r = M.cumulative_residual_inaccuracy(record, parent)
        assert abs(r.value - theta / (theta - 1.0) ** 2) <= r.abs_error_estimate

    @pytest.mark.parametrize(
        "parent,side,n,k,expected",
        [
            # 30-digit mpmath integrals of -S(x) log S_record(x)
            (E1, "lower", 2, 1, 2.454294313414039),
            (E1, "lower", 3, 2, 2.761770037173339),
            (E1, "lower", 5, 3, 4.418984092069877),
            (E1, "upper", 3, 2, 0.6266724522858908),
            (E1, "upper", 5, 3, 0.5659458229861756),
            (W12, "lower", 2, 1, 1.156764667678625),
            (W12, "lower", 3, 2, 1.174842932096495),
            (W12, "lower", 5, 3, 1.842876889767854),
            (W12, "upper", 3, 2, 0.2176657308908995),
            (W12, "upper", 5, 3, 0.1788453674230931),
            (W205, "lower", 3, 2, 2.861835873190297),
            (W205, "lower", 5, 3, 4.661319264690315),
            (affine_transform(E1, 2.0, -1.0), "lower", 2, 1, 4.908588626828078),
            (affine_transform(E1, 2.0, -1.0), "lower", 3, 2, 5.523540074346678),
            (affine_transform(E1, 2.0, -1.0), "lower", 5, 3, 8.837968184139754),
            (affine_transform(E1, 2.0, -1.0), "upper", 3, 2, 1.253344904571782),
            (affine_transform(E1, 2.0, -1.0), "upper", 5, 3, 1.131891645972351),
        ],
    )
    def test_residual_inaccuracy_against_record_law_with_underflowing_tail(
        self, parent, side, n, k, expected
    ):
        # the record law's log survival must keep its value where
        # gammainc/gammaincc underflow to 0 (a lower record's P(n, y) far
        # right, an upper record's Q(n, y) far right); log of the plain
        # value gave -inf there and a false DivergenceError
        record = record_distribution(parent, RecordSpec(side, n, k))
        r = M.cumulative_residual_inaccuracy(parent, record)
        assert abs(r.value - expected) <= r.abs_error_estimate


class TestMeasureResult:
    def test_fields_pass_through(self):
        r = M.MeasureResult(1.5, "quadrature", 1e-9)
        assert r.value == 1.5 and r.method == "quadrature"

    @pytest.mark.parametrize(
        "value,method,err",
        [
            (1.0, "guesswork", 0.0),
            (math.nan, "quadrature", 0.0),
            (math.inf, "closed_form", 0.0),
            (1.0, "quadrature", -1e-3),
            (1.0, "quadrature", math.nan),
            (1.0, "closed_form", 1e-9),
        ],
    )
    def test_rejects_invalid_results(self, value, method, err):
        with pytest.raises(ParameterError):
            M.MeasureResult(value, method, err)

    def test_quadrature_results_report_small_error(self):
        r = M.kerridge(E1, E1)
        assert r.method == "quadrature"
        assert 0.0 <= r.abs_error_estimate < 1e-6
