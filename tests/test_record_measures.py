"""Record-data measures: closed forms, route agreement, alternate identities.

Every measure here has at least two genuinely independent evaluation
routes (closed form, direct quadrature over the observation axis, and a
gamma-weighted expectation over the transformed axis).  The grids below
pin them against each other and against hand-derived values.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from recinacc import measures, numerics
from recinacc import record_measures as RM
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
from recinacc.errors import (
    DivergenceError,
    IntegrandError,
    ParameterError,
    RecinaccError,
    SupportError,
    UnsupportedMethodError,
)
from recinacc.numerics import QuadratureConfig
from recinacc.oracle import mc_measure
from recinacc.records import RecordSpec, record_distribution

E1 = make_exponential(1.0)
E2 = make_exponential(2.0)
U = make_uniform01()
PD = make_power_decreasing()
P2 = make_power_increasing(2)
PAR2 = make_pareto(2.0)
W12 = make_weibull(1.0, 2.0)
W205 = make_weibull(2.0, 0.5)

CATALOG = [E1, E2, PAR2, W12, W205, U, PD, P2]

# exponential(2) through make_custom, whose log survival is log(1 - cdf):
# -inf from x ~ 18.4 on, where the density is still positive
CUSTOM_E2 = make_custom(
    lambda x: 2.0 * np.exp(-2.0 * np.asarray(x, float)),
    lambda x: -np.expm1(-2.0 * np.asarray(x, float)),
    lambda p: -np.log1p(-np.asarray(p, float)) / 2.0,
    (0.0, math.inf),
    name="custom-exponential",
)


def _logistic():
    """The standard logistic law on the whole line, with its own survival
    and inverse survival."""

    def pdf(x):
        a = np.abs(np.asarray(x, float))
        return np.exp(-a - 2.0 * np.logaddexp(0.0, -a))[()]

    def logit(p, q):
        with np.errstate(divide="ignore"):
            return (np.log(np.asarray(p, float)) - np.log(np.asarray(q, float)))[()]

    return make_custom(
        pdf,
        lambda x: np.exp(-np.logaddexp(0.0, -np.asarray(x, float)))[()],
        lambda p: logit(p, 1.0 - np.asarray(p, float)),
        (-math.inf, math.inf),
        name="logistic",
        survival=lambda x: np.exp(-np.logaddexp(0.0, np.asarray(x, float)))[()],
        inverse_survival=lambda q: logit(1.0 - np.asarray(q, float), q),
    )


LOGISTIC = _logistic()


def up(n, k=1):
    return RecordSpec("upper", n, k)


def low(n, k=1):
    return RecordSpec("lower", n, k)


class TestKerridgeClosedForms:
    @pytest.mark.parametrize(
        "parent,spec,expected",
        [
            (E1, up(1, 1), 1.0),
            (E2, up(3, 2), 1.5 - math.log(2.0)),
            (PAR2, up(2, 1), 3.0 - math.log(2.0)),
            (PD, up(2, 3), -math.log(3.0) + 4.0 / 9.0),
            (U, up(3, 2), 0.0),
            (U, low(4, 3), 0.0),
        ],
    )
    def test_known_values(self, parent, spec, expected):
        res = RM.kerridge_record(parent, spec)
        assert res.method == "closed_form"
        assert res.abs_error_estimate == 0.0
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_exponential_lower_records_match_series_value(self):
        # second lower record of a unit exponential: the defining integral
        # reduces to 2 - sum(1/(m*(1+m)^2)) = 2 - pi^2/6 after expanding
        # log(1 - e^-x) into a power series
        res = RM.kerridge_record(E1, low(2, 1))
        assert res.method == "gamma_expectation"
        assert res.value == pytest.approx(2.0 - math.pi**2 / 6.0, abs=1e-9)

    def test_closed_form_method_requires_known_family(self):
        with pytest.raises(UnsupportedMethodError):
            RM.kerridge_record(P2, up(1, 1), "closed_form")
        with pytest.raises(UnsupportedMethodError):
            # density formulas only cover the upper side
            RM.kerridge_record(E1, low(1, 1), "closed_form")
        with pytest.raises(UnsupportedMethodError) as exc:
            RM.compute_record_measure(RM.RecordMeasureRequest(E1, up(1, 1), "kij", "closed_form"))
        assert str(exc.value) == "no closed form is known for extropy inaccuracy on exponential"


class TestKerridgeRouteAgreement:
    @pytest.mark.parametrize("parent", CATALOG, ids=lambda d: d.name + str(d.params))
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 2), (4, 3)])
    def test_expectation_vs_direct_quadrature(self, parent, side, n, k):
        spec = RecordSpec(side, n, k)
        g = RM.kerridge_record(parent, spec, "gamma_expectation")
        q = RM.kerridge_record(parent, spec, "quadrature")
        assert g.value == pytest.approx(q.value, abs=1e-7)
        form = (parent.closed_forms or {}).get("kerridge")
        closed = form(side, n, k) if form else None
        if closed is not None:
            assert g.value == pytest.approx(closed, abs=1e-7)

    @pytest.mark.parametrize("lam,beta", [(1.0, 2.0), (2.0, 0.5)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weibull_closed_form_against_quadrature(self, lam, beta, n, k):
        # arbitration grid for the digamma term in the weibull formula
        w = make_weibull(lam, beta)
        spec = up(n, k)
        c = RM.kerridge_record(w, spec, "closed_form")
        q = RM.kerridge_record(w, spec, "quadrature")
        assert c.value == pytest.approx(q.value, abs=1e-7)

    @pytest.mark.parametrize("parent,spec", [(PAR2, low(6, 1)), (P2, up(7, 1))])
    def test_quadrature_reaching_a_vanished_base_function(self, parent, spec):
        # the integrator refines onto x = 1, where the cdf (lower) or
        # survival (upper) is exactly 0 and the record density is 0
        q = RM.kerridge_record(parent, spec, "quadrature")
        g = RM.kerridge_record(parent, spec, "gamma_expectation")
        assert q.value == pytest.approx(g.value, abs=1e-9)

    def test_quadrature_on_custom_law_with_underflowing_survival(self):
        q = RM.kerridge_record(CUSTOM_E2, up(2, 1), "quadrature")
        assert q.value == pytest.approx(RM.kerridge_record(E2, up(2, 1)).value, abs=1e-9)

    @pytest.mark.parametrize("n", [20, 80, 171, 172, 300])
    def test_gamma_route_error_estimate_covers_rounding(self, n):
        # only a rounding floor keeps the reported error a bound here
        g = RM.kerridge_record(W12, up(n, 1), "gamma_expectation")
        closed = RM.kerridge_record(W12, up(n, 1), "closed_form").value
        assert abs(g.value - closed) <= g.abs_error_estimate

    @pytest.mark.parametrize("n", [171, 172, 300])
    def test_gamma_route_past_the_factorial_overflow(self, n):
        # (n-1)! overflows a double from n = 172; the density needs no normaliser
        g = RM.kerridge_record(E1, up(n, 1), "gamma_expectation")
        assert abs(g.value - n) <= g.abs_error_estimate
        assert g.abs_error_estimate <= 1e-9 * n

    def test_gamma_route_reaches_mass_past_exp_underflow(self):
        # at n = 1000 the record mass lies past t = 700, where exp(-t)
        # underflows; the integrands in t never form it
        for res, exact in [
            (RM.kerridge_record(E1, up(1000, 1), "gamma_expectation"), 1000.0),
            (RM.residual_record_inaccuracy(E2, up(1000, 1), "gamma_expectation"), 250250.0),
        ]:
            assert abs(res.value - exact) <= res.abs_error_estimate

    @pytest.mark.parametrize("n", [60, 80])
    def test_gamma_route_reaches_mass_where_x_rounds_onto_the_support_end(self, n):
        # x(t) = 1 - e^(-t/3) rounds onto 1, where the density is 0, well
        # inside the record mass; the family's log-density in t does not
        res = RM.kerridge_record(PD, up(n, 1), "gamma_expectation")
        assert abs(res.value - (2.0 * n / 3.0 - math.log(3.0))) <= res.abs_error_estimate

    def test_quadrature_refuses_record_mass_on_a_zero_of_the_density(self):
        # the record law's quantiles round onto x = 1, where the parent
        # density is 0; x-space quadrature cannot resolve that mass (with
        # that probe skipped, as the cri/cpi cover check skips it, the
        # value came out 1e-41 against 65.568), so it must raise
        with pytest.raises(RecinaccError):
            RM.kerridge_record(PD, up(100, 1), "quadrature")

    def test_refusals_print_plain_floats(self):
        # the density cover check's probe rounded onto inf (D10's refusal on
        # an unbounded parent), reached without a numpy warning
        with pytest.raises(SupportError) as exc:
            RM.kerridge_record(E1, up(5000, 1), "quadrature")
        assert "is 0 at x=inf inside" in str(exc.value)
        # a custom law's inverse survival, 1 - cdf inverted, rounds onto inf
        # from t ~ 37 on: the gamma route names the first such t it meets
        with pytest.raises(UnsupportedMethodError) as exc:
            RM.kerridge_record(CUSTOM_E2, up(2, 1), "gamma_expectation")
        message = str(exc.value)
        assert "integrand at t=37.895" in message and 'method="quadrature"' in message
        assert "np.float64(" not in message

    def test_tail_ladder_refuses_where_log_f_is_not_finite(self):
        # exponential(2)'s own exact functions through make_custom: x(t)
        # is inf once e^-t underflows, and log f there is -inf.  The tail
        # ladder called that a divergence (D17's label); it is a refusal
        e2 = make_exponential(2.0)
        custom = make_custom(
            e2.pdf, e2.cdf, e2.quantile, e2.support, log_pdf=e2.log_pdf, survival=e2.survival,
            log_cdf=e2.log_cdf, log_survival=e2.log_survival, inverse_survival=e2.inverse_survival,
        )
        with pytest.raises(UnsupportedMethodError) as exc:
            RM.residual_record_inaccuracy(custom, up(1, 1), "gamma_expectation")
        assert str(exc.value) == (
            "the gamma route cannot evaluate residual inaccuracy expectation on custom: its "
            'integrand at t=1024.0 has a parent log-density of -inf; use method="quadrature"')
        # a catalog law's log f is finite at every rung: its divergence stays one
        with pytest.raises(DivergenceError, match="appears divergent"):
            RM.residual_record_inaccuracy(make_pareto(0.5), up(1, 1), "gamma_expectation")

    @pytest.mark.parametrize("route", [RM.kerridge_record, RM.residual_record_inaccuracy])
    def test_gamma_route_out_of_budget_is_likely_divergent(self, route):
        # a gamma route's non-convergence is not a refusal: no fallback takes it
        with pytest.raises(DivergenceError) as exc:
            route(W205, up(2, 1), "gamma_expectation", QuadratureConfig(max_subdivisions=1))
        assert "did not converge and is likely divergent (partial value " in str(exc.value)

    @pytest.mark.parametrize("route, truth", [
        (RM.kerridge_record, 2.0 - math.log(2.0)),
        (RM.residual_record_inaccuracy, 1.5),
    ], ids=["kerridge", "cri"])
    def test_auto_takes_quadrature_where_the_gamma_route_refuses(self, route, truth):
        res = route(CUSTOM_E2, up(2, 1))
        assert res.method == "quadrature"
        assert res.value == pytest.approx(truth, abs=1e-9)

    @pytest.mark.parametrize("theta", [2.0, 3.0])
    def test_auto_keeps_a_value_past_the_double_range(self, theta):
        # not a refusal of the parent: quadrature, taken in its place, raised
        # a false "appears divergent" at x = 3.21e+60
        with pytest.raises(IntegrandError) as exc:
            RM.residual_record_inaccuracy(make_pareto(theta), up(3000, 1))
        assert str(exc.value).endswith("passes the double range, and so does the value")

    def test_gamma_route_normaliser_is_exact_at_large_n(self):
        # normalising by exp(log_gamma(n)) alone put it 9e-13 off at n=80
        g = RM.kerridge_record(W12, up(80, 1), "gamma_expectation")
        closed = RM.kerridge_record(W12, up(80, 1), "closed_form").value
        assert abs(g.value - closed) <= 1e-13


# uniform on (0, 2) and exponential(2) through make_custom, under the
# names (and, for the exponential, parameters) of catalog families
CUSTOM_U02 = make_custom(
    lambda x: np.where((np.asarray(x, float) >= 0.0) & (np.asarray(x, float) <= 2.0), 0.5, 0.0),
    lambda x: np.clip(np.asarray(x, float), 0.0, 2.0) / 2.0,
    lambda p: 2.0 * np.asarray(p, float),
    (0.0, 2.0),
    name="uniform",
)
CUSTOM_E2_AS_THETA5 = make_custom(
    CUSTOM_E2.pdf, CUSTOM_E2.cdf, CUSTOM_E2.quantile, (0.0, math.inf),
    name="exponential", params={"theta": 5.0},
)


class TestClosedFormsBelongToTheFamily:
    @pytest.mark.parametrize("spec", [up(2, 1), low(2, 1)])
    def test_custom_law_named_uniform_takes_numeric_routes(self, spec):
        ker = RM.kerridge_record(CUSTOM_U02, spec)
        if spec.side == "upper":
            cum = RM.residual_record_inaccuracy(CUSTOM_U02, spec)
        else:
            cum = RM.past_record_inaccuracy(CUSTOM_U02, spec)
        assert ker.value == pytest.approx(math.log(2.0), abs=1e-9)
        assert cum.value == pytest.approx(1.0, abs=1e-9)
        assert ker.method != "closed_form" and cum.method != "closed_form"

    def test_custom_law_named_exponential_ignores_its_params(self):
        res = RM.residual_record_inaccuracy(CUSTOM_E2_AS_THETA5, up(2, 1))
        assert res.method != "closed_form"
        assert res.value == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize(
        "law",
        [CUSTOM_U02, affine_transform(E1, 2.0, 1.0), record_distribution(E1, up(1, 1))],
        ids=["custom", "affine", "record"],
    )
    def test_derived_laws_have_no_closed_form(self, law):
        assert law.closed_forms is None
        with pytest.raises(UnsupportedMethodError):
            RM.kerridge_record(law, up(1, 1), "closed_form")
        with pytest.raises(UnsupportedMethodError):
            RM.residual_record_inaccuracy(law, up(1, 1), "closed_form")

    def test_replacing_a_callable_keeps_the_closed_forms(self):
        wrapped = dataclasses.replace(E2, pdf=lambda x: E2.pdf(x))
        res = RM.kerridge_record(wrapped, up(3, 2))
        assert res.method == "closed_form"
        assert res.value == RM.kerridge_record(E2, up(3, 2)).value

    def test_closed_form_cells(self):
        parents = {
            "exp1": E1, "pareto2": PAR2, "weib2_0.5": W205, "weib1_2": W12,
            "uniform": U, "powdec": PD, "powinc2": P2,
        }
        cells = {
            (label, measure, side)
            for label, parent in parents.items()
            for measure, form in (parent.closed_forms or {}).items()
            for side in ("upper", "lower")
            if (measure, side) not in {("cri", "lower"), ("cpi", "upper")}
            and form(side, 2, 1) is not None
        }
        assert cells == {
            ("exp1", "kerridge", "upper"), ("pareto2", "kerridge", "upper"),
            ("weib2_0.5", "kerridge", "upper"), ("weib1_2", "kerridge", "upper"),
            ("powdec", "kerridge", "upper"), ("uniform", "kerridge", "upper"),
            ("uniform", "kerridge", "lower"), ("exp1", "cri", "upper"),
            ("uniform", "cri", "upper"), ("uniform", "cpi", "lower"),
        }


class TestResidualInaccuracy:
    @pytest.mark.parametrize(
        "parent,spec,expected",
        [
            (E1, up(1, 1), 1.0),
            (E1, up(2, 1), 3.0),
            (E2, up(2, 2), 3.0 / 8.0),
            (U, up(1, 1), 0.25),
            (U, up(1, 2), 1.0 / 9.0),
            (U, up(2, 1), 0.5),
            (U, up(3, 1), 0.6875),
        ],
    )
    def test_closed_values(self, parent, spec, expected):
        res = RM.residual_record_inaccuracy(parent, spec)
        assert res.method == "closed_form"
        assert res.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("method", ["quadrature", "gamma_expectation"])
    def test_numeric_routes_hit_closed_value(self, method):
        res = RM.residual_record_inaccuracy(E1, up(2, 1), method)
        assert res.method == method
        assert res.value == pytest.approx(3.0, abs=1e-8)

    def test_pareto_heavy_tail_with_enough_parallel_samples(self):
        # survival x^-1 alone is not integrable, but squaring it through
        # k=2 leaves integral of log(x)/x^2 over (1, inf) = 1
        res = RM.residual_record_inaccuracy(make_pareto(1.0), up(1, 2), "quadrature")
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_mean_difference_identity(self):
        res = RM.residual_inaccuracy_mean_difference_form(E1, up(2, 1))
        assert res.value == pytest.approx(3.0, abs=1e-7)
        res = RM.residual_inaccuracy_mean_difference_form(U, up(2, 2))
        direct = RM.residual_record_inaccuracy(U, up(2, 2))
        assert res.value == pytest.approx(direct.value, abs=1e-7)

    @pytest.mark.parametrize(
        "parent,spec,expected",
        [(E1, up(2, 1), 3.0), (U, up(1, 1), 0.25)],
    )
    def test_hazard_forms_on_known_values(self, parent, spec, expected):
        one, two = RM.residual_inaccuracy_hazard_forms(parent, spec)
        assert one.value == pytest.approx(expected, abs=1e-6)
        assert two.value == pytest.approx(expected, abs=1e-6)

    def test_hazard_forms_against_direct_route(self):
        spec = up(3, 3)
        one, two = RM.residual_inaccuracy_hazard_forms(W205, spec)
        direct = RM.residual_record_inaccuracy(W205, spec, "quadrature")
        assert one.value == pytest.approx(direct.value, abs=1e-6)
        assert two.value == pytest.approx(direct.value, abs=1e-6)

    @pytest.mark.parametrize("parent", CATALOG, ids=lambda d: d.name + str(d.params))
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
    def test_hazard_forms_across_catalog(self, parent, n, k):
        one, two = RM.residual_inaccuracy_hazard_forms(parent, up(n, k))
        direct = RM.residual_record_inaccuracy(parent, up(n, k), "quadrature")
        assert one.value == pytest.approx(direct.value, abs=1e-7)
        assert two.value == pytest.approx(direct.value, abs=1e-7)

    @pytest.mark.parametrize("parent, n", [(U, 20), (P2, 20), (make_power_increasing(3), 30)],
                             ids=["uniform", "power_increasing2", "power_increasing3"])
    def test_hazard_forms_where_the_record_mass_nears_the_upper_end(self, parent, n):
        # the mass sits a few float spacings below x = 1, where x-space head
        # integrals raised a false "likely divergent"
        direct = RM.residual_record_inaccuracy(parent, up(n, 1))
        for res in RM.residual_inaccuracy_hazard_forms(parent, up(n, 1)):
            assert abs(res.value - direct.value) <= res.abs_error_estimate + direct.abs_error_estimate

    def test_hazard_forms_on_a_custom_law_on_the_whole_line(self):
        # x-space tail integrals raised a false "likely divergent" here
        for res in RM.residual_inaccuracy_hazard_forms(LOGISTIC, up(2, 1)):
            # mpmath, 30 digits
            assert abs(res.value - 4.049047873167415) <= res.abs_error_estimate

    def test_hazard_forms_evaluation_budget(self, monkeypatch):
        # the knot chains keep each inner integral to the gap between
        # neighbouring outer nodes; restarting every inner integral from
        # the support end took 1.28M evaluations here.  Every integral,
        # outer or inner, single or batched, goes through integrate_each.
        evaluations = []
        real = numerics.integrate_each

        def counting(*args, **kwargs):
            results = real(*args, **kwargs)
            evaluations.extend(r.evaluations for r in results)
            return results

        monkeypatch.setattr(numerics, "integrate_each", counting)
        monkeypatch.setattr(measures, "integrate_each", counting)
        RM.residual_inaccuracy_hazard_forms(PAR2, up(2, 1))
        assert 0 < sum(evaluations) < 100_000

    @pytest.mark.parametrize(
        "parent,n,k,exact,pinned",
        [
            (E1, 2, 1, 3.0, ("2.9999999999999996", "1.3430784491126639e-10",
                             "2.9999999999999996", "2.2333073054787358e-10")),
            (PAR2, 2, 1, 10.0, ("10.0", "6.009051464340803e-10",
                                "10.0", "2.0789121940007901e-10")),
            (W205, 2, 1, 4.0, ("4.000000000000008", "1.0292869717589474e-08",
                               "4.0", "8.010301820522279e-10")),
            (W12, 2, 2, 0.391660667911094, ("0.3916606679102916", "1.3498667606015796e-09",
                                            "0.39166066791104565", "1.4029809226815425e-10")),
            (U, 2, 1, 0.5, ("0.5", "1.3333988945435016e-11", "0.5", "7.143187919551698e-11")),
            (PD, 2, 2, 0.166180758017493, ("0.16618075801749269", "1.2706606445133299e-11",
                                           "0.16618075801749219", "4.61180497729046e-10")),
            (P2, 2, 1, 0.342371497341588, ("0.342371497340786", "1.3531029871911962e-09",
                                           "0.3423714973414513", "4.243809089139274e-10")),
        ],
        ids=["exponential", "pareto2", "weibull2_0.5", "weibull1_2", "uniform",
             "power_decreasing", "power_increasing2"],
    )
    def test_hazard_forms_pinned_to_the_bit(self, parent, n, k, exact, pinned):
        # the outer integrands are stateful (knot chains), so how the
        # integrator batches and settles its integrals must not move a bit
        one, two = RM.residual_inaccuracy_hazard_forms(parent, up(n, k))
        values = (one.value, one.abs_error_estimate, two.value, two.abs_error_estimate)
        assert tuple(map(repr, values)) == pinned
        for res in (one, two):
            assert abs(res.value - exact) <= res.abs_error_estimate

    def test_hazard_inner_integrand_calls_pinned(self, monkeypatch):
        # a change in the inner integrand's calls is a change in the knots
        # the outer nodes lay, and so in the values
        log = _spy_integrands(monkeypatch)
        RM.residual_inaccuracy_hazard_forms(PAR2, up(2, 1))
        inner = [sizes for name, sizes, _ in log if name == "inner"]
        assert (sum(map(len, inner)), sum(map(sum, inner))) == (23, 10320)

    def test_hazard_tail_certification_lays_no_ladder_of_knots(self, monkeypatch):
        # form one's outer tail certification reads the ladder's last five
        # rungs, where its inner integrand is 0, and not the 196 below them,
        # each of which laid a knot and so ran an inner integral: reading
        # them all took 525 inner integrals on 7,920 consumed points
        inner = []
        real = numerics.integrate_each

        def counting(f, intervals, *args, **kwargs):
            results = real(f, intervals, *args, **kwargs)
            if f.__name__ == "inner":
                inner.extend(r.evaluations for r in results)
            return results

        monkeypatch.setattr(measures, "integrate_each", counting)
        RM.residual_inaccuracy_hazard_forms(E1, up(2, 1))
        assert (len(inner), sum(inner)) == (330, 5100)

    @pytest.mark.parametrize("parent, n, k", [(E1, 300, 1), (PAR2, 100, 1), (W12, 400, 2)],
                             ids=["exponential", "pareto2", "weibull1_2"])
    def test_hazard_forms_at_large_n(self, parent, n, k):
        # the record mass lies past the first outer call's largest node
        # (s ~ 238), and no knot stands between it and the tail
        # certification's rungs (s ~ 1e59): chaining from those zero knots
        # gave form one 29717.47 +- 9e-6 on exponential(1) n = 300
        spec = up(n, k)
        direct = RM.residual_record_inaccuracy(parent, spec)
        for res in RM.residual_inaccuracy_hazard_forms(parent, spec):
            assert abs(res.value - direct.value) <= res.abs_error_estimate + direct.abs_error_estimate

    @pytest.mark.parametrize("n", [100, 300])
    @pytest.mark.parametrize("k", [1, 2])
    def test_gamma_route_at_large_n(self, n, k):
        # one t-space integral; the per-shape ladders overflowed from n = 171
        res = RM.residual_record_inaccuracy(E2, up(n, k), "gamma_expectation")
        closed = n * (n + 1) / (2 * E2.params["theta"] * k**2)
        assert abs(res.value - closed) <= res.abs_error_estimate <= 1e-9 * closed

    @pytest.mark.parametrize("method", ["auto", "closed_form", "quadrature",
                                        "gamma_expectation", "monte_carlo"])
    @pytest.mark.parametrize("parent, spec", [(E1, low(1, 1)), (U, low(3, 2)), (PAR2, low(2, 1))])
    def test_requires_upper_records(self, parent, spec, method):
        # the request's text, from the named function too, whatever the route
        with pytest.raises(ParameterError) as exc:
            RM.residual_record_inaccuracy(parent, spec, method)
        assert str(exc.value) == "cri is defined for upper records; got side 'lower'"

    def test_infinite_mean_single_stream_diverges(self):
        with pytest.raises(DivergenceError):
            RM.residual_record_inaccuracy(make_pareto(1.0), up(1, 1), "quadrature")
        with pytest.raises(DivergenceError):
            RM.residual_record_inaccuracy(make_pareto(0.5), up(2, 1), "quadrature")

    @pytest.mark.parametrize("n", [1, 2])
    def test_gamma_route_calls_an_overflowing_tail_divergent(self, n):
        # on pareto(0.5) the integrand grows like t^n e^t and overflows on
        # the tail certification's last rungs: divergent, not a value past
        # the double range
        with pytest.raises(DivergenceError, match="appears divergent"):
            RM.residual_record_inaccuracy(make_pareto(0.5), up(n, 1), "gamma_expectation")


class TestHazardFormKnotChain:
    """The running inner integrals behind the hazard forms, queried in
    orders the outer integrator does not use."""

    INNER = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=400)

    def _tolerance(self, value):
        return max(self.INNER.abs_tol, self.INNER.rel_tol * abs(value))

    def _integrals(self, fn):
        return lambda spans: measures._quad_each(fn, spans, self.INNER, "inner")

    @staticmethod
    def _in_batches(at, xs, sizes=(1, 4, 8)):
        """at() over xs in consecutive batches of the given sizes, the last
        taking the rest."""
        out, start = [], 0
        for size in sizes:
            out += at(xs[start:start + size])
            start += size
        return out + at(xs[start:])

    @pytest.mark.parametrize("parent", [PAR2, W205, U, PD], ids=lambda d: d.name + str(d.params))
    @pytest.mark.parametrize("order", ["descending", "random"])
    def test_knots_match_direct_inner_integrals(self, parent, order):
        n, k = 3, 2
        head_sum = RM._hazard_inner_integrand(parent, n, k, 1.0, 1)
        tail_sum = RM._hazard_inner_integrand(parent, n, k, k + 1.0, 0)
        head = RM._knot_chain(self._integrals(head_sum), 0.0, self.INNER)
        tail = RM._knot_chain(self._integrals(tail_sum), math.inf, self.INNER)
        ts = np.asarray(parent.quantile(np.linspace(0.02, 0.98, 25)), float)
        if order == "descending":
            ts = ts[::-1]
        else:
            ts = np.random.default_rng(7).permutation(ts)
        s0s = [-float(parent.log_survival(t)) for t in ts]
        heads = self._in_batches(head, s0s)
        tails = self._in_batches(tail, s0s)
        for s0, got_head, got_tail in zip(s0s, heads, tails):
            want_head = measures._quad(head_sum, (0.0, s0), self.INNER, "head").value
            want_tail = measures._quad(tail_sum, (s0, math.inf), self.INNER, "tail").value
            assert abs(got_head - want_head) <= self._tolerance(want_head)
            assert abs(got_tail - want_tail) <= self._tolerance(want_tail)

    @pytest.mark.parametrize("parent", [PAR2, W205, U, PD], ids=lambda d: d.name + str(d.params))
    def test_batch_answers_are_the_one_by_one_answers(self, parent):
        head_sum = RM._hazard_inner_integrand(parent, 3, 2, 1.0, 1)
        ts = np.asarray(parent.quantile(np.linspace(0.02, 0.98, 25)), float)
        ts = np.random.default_rng(11).permutation(ts)
        s0s = [-float(parent.log_survival(t)) for t in ts]
        s0s = s0s[:10] + [0.0, s0s[3], s0s[12]] + s0s[10:] + [s0s[0], s0s[20]]  # anchor, duplicates
        one = RM._knot_chain(self._integrals(head_sum), 0.0, self.INNER)
        singles = [one([s0])[0] for s0 in s0s]
        batched = RM._knot_chain(self._integrals(head_sum), 0.0, self.INNER)
        got = self._in_batches(batched, s0s)
        assert [v.hex() for v in got] == [v.hex() for v in singles]

    @staticmethod
    def _fake(calls, error):
        # values that carry the order of their sums into their last bits
        def integrals(spans):
            calls.extend(spans)
            return [measures.MeasureResult(math.atan(b) - math.atan(a), "quadrature", error)
                    for a, b in spans]

        return integrals

    def test_a_zero_knot_serves_only_its_own_call(self):
        # a knot where the running integral is 0 says no more than the
        # anchor, and a finite gap up to it, however far, would have to
        # find the whole integral with one panel's nodes
        calls = []

        def integrals(spans):
            calls.extend(spans)
            return [measures.MeasureResult(0.0 if a >= 100.0 else 1.0, "quadrature", 0.0)
                    for a, b in spans]

        at = RM._knot_chain(integrals, math.inf, self.INNER)
        assert at([2.0**200, 2.0**199]) == [0.0, 0.0]
        assert at([5.0, 4.0]) == [1.0, 2.0]
        assert calls == [(2.0**200, math.inf), (2.0**199, 2.0**200),
                         (5.0, math.inf), (4.0, 5.0)]

    def test_chained_error_past_tolerance_restarts_from_anchor(self):
        calls = []

        def integrals(spans):
            calls.extend(spans)
            return [measures.MeasureResult(b - a, "quadrature", 0.6 * self.INNER.abs_tol)
                    for a, b in spans]

        at = RM._knot_chain(integrals, 0.0, self.INNER)
        assert at([0.01]) == [0.01]
        # two chained pieces would carry 1.2 * abs_tol: integrate directly
        assert at([0.02]) == [0.02]
        assert calls == [(0.0, 0.01), (0.01, 0.02), (0.0, 0.02)]
        # asked together, the same gaps and restart in the same order
        calls.clear()
        at = RM._knot_chain(integrals, 0.0, self.INNER)
        assert at([0.01, 0.02]) == [0.01, 0.02]
        assert calls == [(0.0, 0.01), (0.01, 0.02), (0.0, 0.02)]

    @pytest.mark.parametrize("anchor", [0.0, math.inf])
    def test_batch_restarts_and_duplicates_as_one_by_one(self, anchor):
        # the third piece of a chain passes the tolerance and restarts
        cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-15)
        xs = [0.5, 0.25, 0.75, 0.125, 0.375, 0.25, 0.625, 0.875, 0.0625, 0.5, 0.3, 0.31,
              0.32, 0.33, 0.34]
        if anchor == 0.0:
            xs.append(anchor)
        one_calls, batch_calls = [], []
        one = RM._knot_chain(self._fake(one_calls, 0.4 * cfg.abs_tol), anchor, cfg)
        singles = [one([x])[0] for x in xs]
        batched = RM._knot_chain(self._fake(batch_calls, 0.4 * cfg.abs_tol), anchor, cfg)
        got = self._in_batches(batched, xs, sizes=(2, 7))
        assert [v.hex() for v in got] == [v.hex() for v in singles]
        # the same gaps and restarts, the restarts after each batch's gaps
        assert sorted(batch_calls) == sorted(one_calls)
        new_knots = len(set(xs) - {anchor})
        assert len(one_calls) - new_knots >= 2  # restarts

    def test_failed_batch_raises_the_first_failure_and_leaves_the_chain(self):
        calls = []
        good = self._fake(calls, 0.0)
        failing = []

        def integrals(spans):
            results = good(spans)
            if failing:
                raise DivergenceError("third gap failed")
            return results

        at = RM._knot_chain(integrals, 0.0, self.INNER)
        assert at([0.5]) == [math.atan(0.5)]
        failing.append(True)
        with pytest.raises(DivergenceError, match="third gap failed"):
            at([0.1, 0.2, 0.3, 0.4])
        assert calls[1:] == [(0.0, 0.1), (0.1, 0.2), (0.2, 0.3), (0.3, 0.4)]
        # the failed call added no knot: 0.25 still chains from 0, not 0.2,
        # and 0.75 from 0.5
        failing.clear()
        calls.clear()
        assert at([0.25, 0.75]) == [math.atan(0.25),
                                    math.atan(0.5) + (math.atan(0.75) - math.atan(0.5))]
        assert calls == [(0.0, 0.25), (0.5, 0.75)]

    def test_failed_restart_from_the_anchor_raises_and_leaves_the_chain(self):
        calls = []
        failing = []

        def integrals(spans):
            calls.extend(spans)
            if failing and spans == [(0.0, 0.02)]:
                raise DivergenceError("restart failed")
            return [measures.MeasureResult(b - a, "quadrature", 0.6 * self.INNER.abs_tol)
                    for a, b in spans]

        at = RM._knot_chain(integrals, 0.0, self.INNER)
        assert at([0.01]) == [0.01]
        failing.append(True)
        # 0.005 settles from the anchor; 0.02 chains two pieces past the
        # tolerance, and its direct integral from the anchor fails
        with pytest.raises(DivergenceError, match="restart failed"):
            at([0.005, 0.02])
        assert calls[1:] == [(0.0, 0.005), (0.01, 0.02), (0.0, 0.02)]
        # the failed call added no knot: 0.007 still integrates from 0, not
        # 0.005, and 0.03 chains from 0.01, not 0.02, then restarts
        failing.clear()
        calls.clear()
        assert at([0.007, 0.03]) == [0.007, 0.03]
        assert calls == [(0.0, 0.007), (0.01, 0.03), (0.0, 0.03)]


def _spy_integrands(monkeypatch, modules=(measures,)):
    """Per integrate_each call from ``modules`` (the measures' by default):
    the integrand's name, its call sizes and the points its results
    consumed."""
    log = []
    real = numerics.integrate_each

    def spy(f, intervals, *args, **kwargs):
        sizes = []

        def counted(x, *index):
            sizes.append(np.size(x))
            return f(x, *index)

        results = real(counted, intervals, *args, **kwargs)
        log.append((f.__name__, sizes, sum(r.evaluations for r in results)))
        return results

    for module in modules:
        monkeypatch.setattr(module, "integrate_each", spy)
    return log


class TestLookAhead:
    """Look-ahead moves no bit of any value; only the integrand calls show it."""

    def test_quadrature_call_and_point_counts(self, monkeypatch):
        # without look-ahead this cell took 34 calls on 1,200 points, with
        # two levels and no spine 18 on 1,830, with a spine of 3 levels 8
        # on 1,830; a doubling spine and a seeded first call take 5
        log = _spy_integrands(monkeypatch)
        res = RM.kerridge_record(W205, up(2, 1), "quadrature")
        assert (res.value.hex(), res.abs_error_estimate.hex()) == (
            "0x1.bac98024b0b77p+0", "0x1.726e28ba4e09cp-33")
        [(_, sizes, consumed)] = log
        assert (len(sizes), sum(sizes), consumed) == (5, 1860, 1200)

    def test_route_grid_integrand_rounds_pinned(self, monkeypatch):
        # every integrand call of the quadrature and gamma routes of the
        # four record measures on the seven catalog parents at two cells:
        # a round costs a call and its bookkeeping whatever its size, so a
        # regression in rounds shows here before it shows in wall time.
        # A spine of 3 levels and no seeded first call took 417 calls on
        # 84,630 points
        log = _spy_integrands(monkeypatch, (measures, RM, numerics))
        routes = {"kerridge": RM.kerridge_record, "cri": RM.residual_record_inaccuracy,
                  "cpi": RM.past_record_inaccuracy}
        for parent in (E1, PAR2, W205, W12, U, PD, P2):
            for measure, side in (("kerridge", up), ("kerridge", low), ("cri", up),
                                  ("cpi", low)):
                for n, k in ((2, 1), (3, 2)):
                    for route in ("quadrature", "gamma_expectation"):
                        routes[measure](parent, side(n, k), route)
        calls = sum(len(sizes) for _, sizes, _ in log)
        points = sum(sum(sizes) for _, sizes, _ in log)
        assert (calls, points) == (331, 89580)

    def test_hazard_outer_integrands_see_only_consumed_nodes(self, monkeypatch):
        # an outer node lays a knot in its chain, so a node of a panel the
        # refinement never consumed would move later values
        log = _spy_integrands(monkeypatch)
        one, two = RM.residual_inaccuracy_hazard_forms(W205, up(2, 1))
        assert [(r.value.hex(), r.abs_error_estimate.hex()) for r in (one, two)] == [
            ("0x1.0000000000009p+2", "0x1.61a90a1cc343ep-27"),
            ("0x1.0000000000000p+2", "0x1.b85ef9d5d134ap-31"),
        ]
        outer = [(sum(sizes), consumed) for name, sizes, consumed in log if "outer" in name]
        assert len(outer) == 2
        assert all(seen == consumed for seen, consumed in outer)
        # the inner integrals do look ahead
        assert any(sum(sizes) > consumed for name, sizes, consumed in log if "outer" not in name)


# mean-difference (value, estimate) then cdf-difference (value, estimate) on
# perfbench's seven parents at its identity grid, by repr
_FORM_PARENTS = {"exp1": E1, "pareto2": PAR2, "weib2_0.5": W205, "weib1_2": W12, "uniform": U,
                 "powdec": PD, "powinc2": P2}
_FORM_PINS = {
    ("exp1", 1, 1): (
        "0.9999999999999996", "1.8188134135624548e-10",
        "0.6449340668483137", "1.055311582307819e-10"),
    ("exp1", 2, 1): (
        "3.0000000000000004", "5.27561330538416e-10",
        "1.0490478731675978", "2.5235045658546207e-10"),
    ("exp1", 2, 2): (
        "0.7499999999999998", "1.2919940112654564e-10",
        "0.7031616794865996", "4.582192302343804e-11"),
    ("exp1", 3, 2): (
        "1.5", "1.8269384636103464e-10",
        "0.9410404840202498", "8.636280770326914e-11"),
    ("exp1", 2, 3): (
        "0.3333333333333332", "1.3992969106646965e-11",
        "0.5239421524724557", "2.785272899606654e-11"),
    ("pareto2", 1, 1): (
        "1.9999999999984235", "8.579075415506137e-10",
        "0.7725887222398788", "4.2057911374946235e-11"),
    ("pareto2", 2, 1): (
        "9.999999999988702", "7.563069505710189e-09",
        "1.0538783227667798", "2.411732782851595e-10"),
    ("pareto2", 2, 2): (
        "0.8148148148148006", "1.2089869133298137e-10",
        "0.8373397989748499", "9.92583435962413e-11"),
    ("pareto2", 3, 2): (
        "1.9999999999999134", "7.940184010245234e-10",
        "0.9963329903836822", "3.244233635893662e-11"),
    ("pareto2", 2, 3): (
        "0.2720000000000148", "1.1211868948117076e-10",
        "0.7115974425963187", "5.8045171434768566e-11"),
    ("weib2_0.5", 1, 1): (
        "0.9999999999998248", "3.6198939571539356e-10",
        "0.4234954850039488", "5.926138063270259e-11"),
    ("weib2_0.5", 2, 1): (
        "4.000000000000564", "1.429165593389808e-09",
        "0.5410672634395719", "9.776189503712934e-11"),
    ("weib2_0.5", 2, 2): (
        "0.5000000000000705", "1.7841640671003806e-10",
        "0.46939649517097504", "1.166236099143423e-10"),
    ("weib2_0.5", 3, 2): (
        "1.2499999999999976", "3.6183648543288855e-10",
        "0.533344283430357", "1.1926422886456607e-10"),
    ("weib2_0.5", 2, 3): (
        "0.1481481481481815", "8.59844807104386e-11",
        "0.4131060303338835", "3.471140853547073e-11"),
    ("weib1_2", 1, 1): (
        "0.4431134627263792", "4.094350425851031e-11",
        "0.3796293753989259", "7.828570928968494e-11"),
    ("weib1_2", 2, 1): (
        "1.1077836568159478", "2.681950328307073e-10",
        "0.7581023633752737", "7.783714178870196e-11"),
    ("weib1_2", 2, 2): (
        "0.39166066791109416", "1.4475502403690874e-10",
        "0.3836677905264275", "4.471902965098737e-11"),
    ("weib1_2", 3, 2): (
        "0.6854061688444142", "5.644179154767372e-10",
        "0.5866798655281176", "3.782523291379312e-11"),
    ("weib1_2", 2, 3): (
        "0.2131930641555184", "3.314084897139324e-10",
        "0.24697531060582423", "6.60316645766355e-11"),
    ("uniform", 1, 1): (
        "0.2500000000003484", "3.3006363755144703e-10",
        "0.25000000000008715", "8.405115853170657e-11"),
    ("uniform", 2, 1): (
        "0.5000000000003739", "1.9070505708638415e-09",
        "0.5000000000001825", "2.3087014471555944e-10"),
    ("uniform", 2, 2): (
        "0.25925925925925364", "9.011624504788383e-10",
        "0.2592592592592302", "1.9701483630717e-10"),
    ("uniform", 3, 2): (
        "0.407407407407356", "1.6869837760988702e-09",
        "0.40740740740739545", "6.476803409579291e-11"),
    ("uniform", 2, 3): (
        "0.15624999999997416", "1.9458647819282316e-10",
        "0.15624999999995534", "1.0800503736540571e-10"),
    ("powdec", 1, 1): (
        "0.18749999999993971", "8.826749264846289e-11",
        "0.14638641366061025", "6.466916783153576e-11"),
    ("powdec", 2, 1): (
        "0.4687499999999225", "5.837594345784695e-10",
        "0.2588360958657227", "1.72924398933916e-10"),
    ("powdec", 2, 2): (
        "0.16618075801750493", "4.970692025864554e-11",
        "0.1577596501611632", "2.764914164688612e-11"),
    ("powdec", 3, 2): (
        "0.30112453144536766", "3.1450460883428974e-10",
        "0.22457471045590524", "7.046454794331662e-11"),
    ("powdec", 2, 3): (
        "0.0839999999999981", "1.0501307987051741e-10",
        "0.10885543576944812", "1.1476042067499074e-11"),
    ("powinc2", 1, 1): (
        "0.18691487036521415", "6.889745865456849e-10",
        "0.22222222222221624", "5.746523322414226e-11"),
    ("powinc2", 2, 1): (
        "0.3423714973422747", "3.8959571346181614e-09",
        "0.5185185185184604", "3.9402967261434e-10"),
    ("powinc2", 2, 2): (
        "0.19978307427151348", "1.1477556748503668e-09",
        "0.20800000000000957", "1.5029130164306143e-11"),
    ("powinc2", 3, 2): (
        "0.2922858495658693", "2.5826465381028983e-09",
        "0.3616000000001377", "2.5987189215838574e-10"),
    ("powinc2", 2, 3): (
        "0.13299067359693406", "1.0078003366594683e-10",
        "0.11078717201166986", "3.29954470256806e-11"),
}


class TestDifferenceForms:
    """The mean-difference and cdf-difference forms, pinned to the bit."""

    @pytest.mark.parametrize("family, n, k", list(_FORM_PINS), ids=str)
    def test_pinned_to_the_bit(self, family, n, k):
        parent = _FORM_PARENTS[family]
        md = RM.residual_inaccuracy_mean_difference_form(parent, up(n, k))
        cd = RM.past_inaccuracy_cdf_difference_form(parent, low(n, k))
        got = (md.value, md.abs_error_estimate, cd.value, cd.abs_error_estimate)
        assert tuple(map(repr, got)) == _FORM_PINS[family, n, k]

    def test_record_means_are_one_batch(self, monkeypatch):
        # the n + 1 means share their integrand calls, one parent call each:
        # one integral after another took 8 calls on the same 540 consumed points
        log = _spy_integrands(monkeypatch)
        RM.residual_inaccuracy_mean_difference_form(E1, up(3, 2))
        [(_, sizes, consumed)] = log
        assert (len(sizes), consumed) == (2, 540)


class TestPastInaccuracy:
    @pytest.mark.parametrize(
        "parent,spec,expected",
        [
            (U, low(1, 1), 0.25),
            (U, low(2, 1), 0.5),
            (U, low(1, 2), 1.0 / 9.0),
        ],
    )
    def test_closed_values(self, parent, spec, expected):
        res = RM.past_record_inaccuracy(parent, spec)
        assert res.method == "closed_form"
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_power_law_value(self):
        # cdf x^2 on (0,1): integrand x^2 * (-2 log x), integral 2/9
        res = RM.past_record_inaccuracy(P2, low(1, 1))
        assert res.value == pytest.approx(2.0 / 9.0, abs=1e-9)

    @pytest.mark.parametrize("method", ["quadrature", "gamma_expectation"])
    def test_numeric_routes_hit_closed_value(self, method):
        res = RM.past_record_inaccuracy(U, low(2, 1), method)
        assert res.value == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize(
        "parent,spec",
        [(U, low(2, 2)), (PD, low(3, 2)), (W12, low(2, 1))],
    )
    def test_cdf_difference_identity(self, parent, spec):
        alt = RM.past_inaccuracy_cdf_difference_form(parent, spec)
        direct = RM.past_record_inaccuracy(parent, spec, "quadrature")
        assert alt.value == pytest.approx(direct.value, abs=1e-7)

    @pytest.mark.parametrize("method", ["auto", "closed_form", "quadrature",
                                        "gamma_expectation", "monte_carlo"])
    @pytest.mark.parametrize("parent, spec", [(E1, up(1, 1)), (U, up(3, 2)), (PAR2, up(2, 1))])
    def test_requires_lower_records(self, parent, spec, method):
        with pytest.raises(ParameterError) as exc:
            RM.past_record_inaccuracy(parent, spec, method)
        assert str(exc.value) == "cpi is defined for lower records; got side 'upper'"


class TestQuadratureRouteIsTheGenericMeasure:
    def test_routes_equal_the_generic_measures_on_the_record_law(self):
        for route, generic, spec in [
            (RM.residual_record_inaccuracy, measures.cumulative_residual_inaccuracy, up(2, 3)),
            (RM.past_record_inaccuracy, measures.cumulative_past_inaccuracy, low(2, 3)),
        ]:
            law = record_distribution(W205, spec)
            assert route(W205, spec, "quadrature") == generic(law, W205)

    @pytest.mark.parametrize("n", [40, 60])
    def test_record_probes_on_the_vanishing_end_of_the_survival(self, n):
        # the record law's quantiles round onto x = 1, where the parent
        # survival is 0 by definition: no gap in the cover
        res = measures.cumulative_residual_inaccuracy(record_distribution(P2, up(n, 1)), P2)
        assert abs(res.value - (2.0 - 2.0 * math.log(2.0))) <= res.abs_error_estimate

    def test_record_probes_on_the_vanishing_end_of_the_cdf(self):
        res = measures.cumulative_past_inaccuracy(record_distribution(PAR2, low(40, 1)), PAR2)
        assert abs(res.value - 2.0 * math.log(2.0)) <= res.abs_error_estimate


def _outcome(call):
    """A result by the hex of its value and estimate, or a refusal by its
    type and text, with the texts of the warnings the call emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = call()
            out = res.value.hex(), res.abs_error_estimate.hex(), res.method
        except RecinaccError as exc:
            out = type(exc), str(exc)
    return out, [str(w.message) for w in caught]


class TestQuadratureOnlyMeasures:
    GENERIC = {
        "kij": measures.extropy_inaccuracy,
        "crij": measures.cumulative_residual_extropy_inaccuracy,
        "cpij": measures.cumulative_past_extropy_inaccuracy,
        "kl": measures.kl_divergence,
        "relinfo": measures.relative_information,
    }

    @pytest.mark.parametrize("measure", sorted(GENERIC))
    @pytest.mark.parametrize("parent", [E1, PAR2, W205, U],
                             ids=["exp1", "pareto2", "weib2_0.5", "uniform"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_auto_and_quadrature_are_the_generic_measure_bit_for_bit(self, measure, parent, side):
        # refusals included: the same error type and text
        for n, k in [(1, 1), (2, 2), (5, 1)]:
            spec = RecordSpec(side, n, k)
            want = _outcome(lambda: self.GENERIC[measure](record_distribution(parent, spec), parent))
            for method in ("auto", "quadrature"):
                request = RM.RecordMeasureRequest(parent, spec, measure, method)
                assert _outcome(lambda: RM.compute_record_measure(request)) == want

    @pytest.mark.parametrize("measure, side, n", [
        ("kij", "upper", 1), ("kij", "lower", 1), ("relinfo", "lower", 5),
    ])
    def test_a_divergence_emits_no_overflow_warning(self, measure, side, n):
        # weight x term overflows to inf near x = 0; the integrator reports
        # that inf as the divergence, and numpy must not warn of it first
        request = RM.RecordMeasureRequest(W205, RecordSpec(side, n, 1), measure)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-integrable singularity"):
                RM.compute_record_measure(request)

    def test_a_generic_refusal_passes_through(self):
        request = RM.RecordMeasureRequest(E1, low(2), "cpij")
        with pytest.raises(DivergenceError, match="both cdfs tend to 1"):
            RM.compute_record_measure(request)


class TestScaleShift:
    def test_exponential_scales_quadratically_in_a(self):
        lhs, rhs = RM.scale_shift_check(E1, up(2, 1), 2.0, 3.0)
        assert rhs.value == pytest.approx(6.0, abs=1e-12)
        assert lhs.value == pytest.approx(6.0, abs=1e-7)

    def test_uniform_with_negative_shift(self):
        lhs, rhs = RM.scale_shift_check(U, up(1, 2), 3.0, -1.0)
        assert lhs.value == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert lhs.value == pytest.approx(rhs.value, abs=1e-7)


_MEASURE_NAMES = "('kerridge', 'cri', 'cpi', 'cpij', 'crij', 'kij', 'kl', 'relinfo')"
_METHOD_NAMES = "('auto', 'closed_form', 'quadrature', 'gamma_expectation', 'monte_carlo')"


class TestRequestAndDispatch:
    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            (dict(parent=E1, spec=low(1), measure="cri"), ParameterError,
             "cri is defined for upper records; got side 'lower'"),
            (dict(parent=E1, spec=up(1), measure="cpi"), ParameterError,
             "cpi is defined for lower records; got side 'upper'"),
            (dict(parent=E1, spec=up(1), measure="entropy"), ParameterError,
             f"measure must be one of {_MEASURE_NAMES}, got 'entropy'"),
            (dict(parent=E1, spec=up(1), measure=["cri"]), ParameterError,
             f"measure must be one of {_MEASURE_NAMES}, got ['cri']"),
            (dict(parent=E1, spec=up(1), measure="cri", method="psychic"), ParameterError,
             f"method must be one of {_METHOD_NAMES}, got 'psychic'"),
            (dict(parent=E1, spec=up(1), measure="kerridge", method="bogus"), ParameterError,
             f"method must be one of {_METHOD_NAMES}, got 'bogus'"),
            # an unknown method is named before a wrong side
            (dict(parent=E1, spec=low(1), measure="cri", method="bogus"), ParameterError,
             f"method must be one of {_METHOD_NAMES}, got 'bogus'"),
            (dict(parent=E1, spec=low(2), measure="kij", method="quad"), ParameterError,
             f"method must be one of {_METHOD_NAMES}, got 'quad'"),
            (dict(parent=E1, spec=up(2), measure="kij", method="gamma_expectation"),
             UnsupportedMethodError, "no gamma_expectation route is known for extropy inaccuracy"),
            (dict(parent=PAR2, spec=low(2), measure="kl", method="monte_carlo"),
             UnsupportedMethodError, "no monte_carlo route is known for kl divergence"),
            (dict(parent=U, spec=up(1), measure="crij", method="gamma_expectation"),
             UnsupportedMethodError,
             "no gamma_expectation route is known for cumulative residual extropy inaccuracy"),
            (dict(parent=U, spec=low(3, 2), measure="relinfo", method="monte_carlo"),
             UnsupportedMethodError, "no monte_carlo route is known for relative information"),
        ],
    )
    def test_invalid_requests_rejected(self, kwargs, error, message):
        # one text per cause: the request and the dispatcher behind the
        # named functions refuse alike
        with pytest.raises(error) as exc:
            RM.RecordMeasureRequest(**kwargs)
        assert str(exc.value) == message
        with pytest.raises(error) as exc:
            RM._dispatch(kwargs["measure"], kwargs["parent"], kwargs["spec"],
                         kwargs.get("method", "auto"), numerics.DEFAULT_QUADRATURE)
        assert str(exc.value) == message
        named = {"kerridge": RM.kerridge_record, "cri": RM.residual_record_inaccuracy,
                 "cpi": RM.past_record_inaccuracy}.get(str(kwargs["measure"]))
        if named is not None:
            with pytest.raises(error) as exc:
                named(kwargs["parent"], kwargs["spec"], kwargs.get("method", "auto"))
            assert str(exc.value) == message

    @pytest.mark.parametrize("form, spec, what", [
        (RM.residual_inaccuracy_mean_difference_form, low(2), "mean-difference form"),
        (RM.residual_inaccuracy_hazard_forms, low(2), "hazard double-integral forms"),
        (RM.past_inaccuracy_cdf_difference_form, up(2), "cdf-difference form"),
        (lambda parent, spec: RM.scale_shift_check(parent, spec, 2.0, 1.0), low(2),
         "scale-shift check"),
    ], ids=["mean-difference", "hazard", "cdf-difference", "scale-shift"])
    def test_representation_forms_refuse_the_other_side(self, form, spec, what):
        # the measures' wording: one side check for requests and forms
        with pytest.raises(ParameterError) as exc:
            form(E1, spec)
        side, other = ("upper", "lower") if spec.side == "lower" else ("lower", "upper")
        assert str(exc.value) == f"{what} is defined for {side} records; got side '{other}'"

    @pytest.mark.parametrize("form, measure, spec", [
        (RM.kerridge_record, "kerridge", up(2, 1)),
        (RM.residual_record_inaccuracy, "cri", up(2, 1)),
        (RM.past_record_inaccuracy, "cpi", low(2, 1)),
    ], ids=["kerridge-upper", "cri-upper", "cpi-lower"])
    def test_monte_carlo_route_is_mc_measure(self, form, measure, spec):
        request = RM.RecordMeasureRequest(E1, spec, measure, "monte_carlo")
        assert form(E1, spec, "monte_carlo") == mc_measure(request)

    def test_dispatch_routes_to_each_measure(self):
        r = RM.compute_record_measure(
            RM.RecordMeasureRequest(E1, up(2, 1), "cri")
        )
        assert r.method == "closed_form"
        assert r.value == pytest.approx(3.0, abs=1e-12)
        r = RM.compute_record_measure(
            RM.RecordMeasureRequest(U, low(2, 1), "cpi", method="quadrature")
        )
        assert r.value == pytest.approx(0.5, abs=1e-9)
        r = RM.compute_record_measure(
            RM.RecordMeasureRequest(E2, up(3, 2), "kerridge")
        )
        assert r.value == pytest.approx(1.5 - math.log(2.0), abs=1e-12)
