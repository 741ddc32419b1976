"""The open defects of ROADMAP's defect ledger, each against its truth.

Every test here fails today and is marked ``xfail(strict=True)`` with its
D id, so the change that mends a defect turns its test into an unexpected
pass, and that change must drop the mark.
"""

import json
import math

import pytest

import numpy as np

from test_cli import run_cli
from recinacc.distributions import (
    make_custom,
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_weibull,
)
from recinacc.errors import DivergenceError
from recinacc.measures import shannon_entropy
from recinacc.record_measures import (
    RecordMeasureRequest,
    compute_record_measure,
    kerridge_record,
    residual_inaccuracy_hazard_forms,
    residual_record_inaccuracy,
)
from recinacc.records import RecordSpec


def assert_within(res, truth, truth_error=0.0):
    """The truth lies within the result's own estimate (plus the truth's
    own error, where it comes from another route)."""
    assert abs(res.value - truth) <= res.abs_error_estimate + truth_error


@pytest.mark.xfail(strict=True, reason="D2: the quadrature route never sees the record mass near x = 2e-18")
def test_d2_weibull_lower_kerridge_quadrature():
    res = kerridge_record(make_weibull(2.0, 0.5), RecordSpec("lower", 20, 1), "quadrature")
    assert res.value == pytest.approx(-20.6931457498, rel=1e-9)


D12_TRUTHS = pytest.mark.parametrize("measure, truth", [
    ("kij", -(1.0 - 2.0**-50) / 2.0),
    ("kl", 46.631750051622),
], ids=["kij", "kl"])


@pytest.mark.xfail(strict=True, reason="D12: the generic route misses the record mass at n = 50")
@D12_TRUTHS
def test_d12_library_default_path_on_a_record_law(measure, truth):
    res = compute_record_measure(
        RecordMeasureRequest(make_exponential(1.0), RecordSpec("lower", 50, 1), measure))
    assert math.isfinite(res.value)
    assert res.value == pytest.approx(truth, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="D12: the generic route misses the record mass at n = 50")
@D12_TRUTHS
def test_d12_cli_default_path_on_a_record_law(measure, truth):
    res = run_cli(
        "compute", "--dist", "exponential", "--param", "theta=1", "--measure", measure,
        "--side", "lower", "--n", "50", "--k", "1", "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    value = json.loads(res.stdout)["value"]
    assert math.isfinite(value)
    assert value == pytest.approx(truth, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="D4: a false 'likely divergent' where the k=1 mass sits within a float spacing of x=1")
def test_d4_pareto_lower_kerridge_quadrature():
    res = kerridge_record(make_pareto(2.0), RecordSpec("lower", 8, 1), "quadrature")
    # the gamma route's value and estimate
    assert_within(res, -0.6871646621999133, 1.7e-11)


def _arcsine():
    def pdf(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            return (1.0 / (math.pi * np.sqrt(x * (1.0 - x))))[()]

    return make_custom(
        pdf,
        lambda x: (2.0 / math.pi * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0))))[()],
        lambda p: (np.sin(0.5 * math.pi * np.asarray(p, float)) ** 2)[()],
        (0.0, 1.0),
        name="arcsine",
    )


@pytest.mark.xfail(strict=True, reason="D4: a false divergence where a node rounds onto the singular end x = 1")
def test_d4_custom_arcsine_entropy():
    assert_within(shannon_entropy(_arcsine()), math.log(math.pi / 4.0))


@pytest.mark.xfail(strict=True, reason="D5: a false SupportError at x = 1.0")
def test_d5_power_decreasing_upper_kerridge_quadrature():
    res = kerridge_record(make_power_decreasing(), RecordSpec("upper", 100, 1), "quadrature")
    assert_within(res, 2.0 * 100 / 3.0 - math.log(3.0), 1e-12)


@pytest.mark.xfail(strict=True, reason="D9: a false 'appears divergent' from the tail ladder, under auto")
def test_d9_pareto_upper_cri_under_auto():
    res = residual_record_inaccuracy(make_pareto(2.0), RecordSpec("upper", 100, 1))
    # the gamma route's value and estimate
    assert_within(res, 2.5099481884518957e32, 1.1e22)


@pytest.mark.xfail(strict=True, reason="D10: a false SupportError at x = inf")
def test_d10_exponential_upper_kerridge_quadrature_at_n_5000():
    res = kerridge_record(make_exponential(1.0), RecordSpec("upper", 5000, 1), "quadrature")
    assert_within(res, 5000.0)


@pytest.mark.xfail(strict=True, reason="D11: the kerridge quadrature route misses the record mass")
def test_d11_exponential_upper_kerridge_quadrature_at_n_100():
    res = kerridge_record(make_exponential(1.0), RecordSpec("upper", 100, 1), "quadrature")
    assert_within(res, 100.0)


@pytest.mark.xfail(strict=True, reason="D11: the error estimate is 10 times short")
def test_d11_pareto_upper_kerridge_quadrature_estimate():
    res = kerridge_record(make_pareto(2.0), RecordSpec("upper", 50, 2), "quadrature")
    assert_within(res, 1.5 * 50 / 2 - math.log(2.0), 1e-14)


@pytest.mark.xfail(strict=True, reason="D13: a refusal where the integral diverges")
def test_d13_pareto_cri_gamma_route_diverges():
    with pytest.raises(DivergenceError):
        residual_record_inaccuracy(make_pareto(1.0), RecordSpec("upper", 2, 1), "gamma_expectation")


@pytest.mark.xfail(strict=True, reason="D14: a false 'likely divergent' from the head integral")
def test_d14_hazard_forms_on_a_custom_exponential():
    e2 = make_exponential(2.0)
    custom = make_custom(e2.pdf, e2.cdf, e2.quantile, e2.support)
    for res in residual_inaccuracy_hazard_forms(custom, RecordSpec("upper", 1, 1)):
        assert_within(res, 0.5)


@pytest.mark.xfail(strict=True, reason="D15: 0 +- 0 where the record mass lies below x = 1e-307")
def test_d15_exponential_rate_1e308_kerridge_quadrature():
    res = kerridge_record(make_exponential(1e308), RecordSpec("upper", 2, 1), "quadrature")
    # the closed form, 2 - log(1e308)
    assert_within(res, -707.19620864216608, 1e-12)
