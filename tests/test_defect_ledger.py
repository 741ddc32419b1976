"""The open defects of ROADMAP's defect ledger, each against its truth.

Every open cell here fails today and is marked ``xfail(strict=True)`` with
its D id, so the change that mends a defect turns its test into an
unexpected pass, and that change must drop the mark.  The unmarked tests
here stand beside a defect's open cells: a cell a change has mended, or
a mirror cell that shows the truth the open cells are held to.
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
from recinacc import oracle
from recinacc.measures import shannon_entropy
from recinacc.numerics import gamma_expectation
from recinacc.oracle import McConfig, mc_measure
from recinacc.record_measures import (
    RecordMeasureRequest,
    compute_record_measure,
    kerridge_record,
    past_record_inaccuracy,
    residual_inaccuracy_hazard_forms,
    residual_record_inaccuracy,
)
from recinacc.records import RecordSpec, record_cdf
from recinacc.verify import _kstwo_sf


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


def test_d9_pareto_upper_cri_under_auto():
    # auto takes the gamma route, which certifies the (log x)^n tail
    res = residual_record_inaccuracy(make_pareto(2.0), RecordSpec("upper", 100, 1))
    assert res.method == "gamma_expectation"
    # the exact sum
    assert_within(res, 2.5099481884518942e32)


@pytest.mark.xfail(strict=True, reason="D9: a false 'appears divergent' from the tail ladder")
def test_d9_pareto_upper_cri_quadrature():
    res = residual_record_inaccuracy(make_pareto(2.0), RecordSpec("upper", 100, 1), "quadrature")
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


@pytest.mark.parametrize("theta, n, k", [(1.0, 1, 1), (1.0, 2, 1), (1.0, 8, 1), (0.5, 3, 2)])
@pytest.mark.parametrize("method", ["auto", "gamma_expectation"])
def test_d13_pareto_cri_gamma_route_diverges(theta, n, k, method):
    # mended: the gamma integrand's log Q kept -kt inside a sum that
    # rounded (n - 1) log kt away past t ~ 1e17, so the tail ladder passed
    # pareto(1) and the route refused at t = 2.45e154
    with pytest.raises(DivergenceError, match="appears divergent"):
        residual_record_inaccuracy(make_pareto(theta), RecordSpec("upper", n, k), method)


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


# mpmath, 30 digits: the defining integral of the triangular law's cri
TRIANGULAR_HAZARD_CRI = {(3, 2): 0.28725109433751307, (5, 1): 0.95007130579607422}


@pytest.mark.xfail(strict=True, reason="D21: the hazard forms' head integral stalls on an inverse survival that loses the digits of 1 - x")
@pytest.mark.parametrize("n, k", list(TRIANGULAR_HAZARD_CRI))
def test_d21_hazard_forms_on_a_custom_triangular(triangular, n, k):
    for res in residual_inaccuracy_hazard_forms(triangular, RecordSpec("upper", n, k)):
        assert_within(res, TRIANGULAR_HAZARD_CRI[n, k])


def _exact_wrapper(dist):
    """``dist`` through make_custom, with all eight of its own exact functions."""
    return make_custom(
        dist.pdf, dist.cdf, dist.quantile, dist.support, log_pdf=dist.log_pdf,
        survival=dist.survival, inverse_survival=dist.inverse_survival,
        log_cdf=dist.log_cdf, log_survival=dist.log_survival,
    )


@pytest.mark.xfail(strict=True, reason="D16: auto falls from a refused gamma route to quadrature, which misses the record mass")
def test_d16_custom_exponential_kerridge_under_auto():
    res = kerridge_record(_exact_wrapper(make_exponential(2.0)), RecordSpec("upper", 400, 1))
    # the closed form n/k - log(theta)
    assert_within(res, 400.0 - math.log(2.0))


@pytest.mark.xfail(strict=True, reason="D17: the gamma route cannot evaluate log f where x(t) has rounded")
def test_d17_custom_exponential_cri_gamma_route():
    res = residual_record_inaccuracy(
        _exact_wrapper(make_exponential(2.0)), RecordSpec("upper", 1, 1), "gamma_expectation")
    # the closed form n(n+1) / (2 theta k^2)
    assert_within(res, 0.5)


def test_d18_gamma_mass_at_n_ten_million():
    res = gamma_expectation(np.ones_like, 10**7, 1)
    assert_within(res, 1.0)


def test_d18_pareto_lower_kerridge_under_auto():
    res = kerridge_record(make_pareto(2.0), RecordSpec("lower", 10**7, 1))
    # -log 2 + 1.5 * 2^-n, which is -log 2 in double precision
    assert_within(res, -math.log(2.0))


@pytest.mark.xfail(strict=True, reason="D19: the quadrature route misses the record mass below x = 1e-3 at k = 10^4")
def test_d19_exponential_upper_kerridge_quadrature_at_k_ten_thousand():
    # right at k = 10^3
    res = kerridge_record(make_exponential(1.0), RecordSpec("upper", 1, 10**4), "quadrature")
    # the closed form n/k
    assert_within(res, 1e-4)


@pytest.mark.xfail(strict=True, reason="D19: the generic route misses the record mass at k = 10^4")
@pytest.mark.parametrize("measure, truth", [
    ("kl", math.log(1e4) - 1.0 + 1e-4),
    ("kij", -1e4 / (2.0 * (1e4 + 1.0))),
    ("relinfo", 1e4 / 4.0 - 1e4 / (2.0 * (1e4 + 1.0))),
], ids=["kl", "kij", "relinfo"])
def test_d19_cli_default_path_at_k_ten_thousand(measure, truth):
    res = run_cli(
        "compute", "--dist", "exponential", "--param", "theta=1", "--measure", measure,
        "--side", "upper", "--n", "1", "--k", "10000", "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["value"] == pytest.approx(truth, rel=1e-9)


# mpmath, 30 digits: the defining integral of the triangular law's cri
TRIANGULAR_CRI = {50: 1.446696661095674462, 100: 1.4466967002794841632}


@pytest.mark.xfail(strict=True, reason="D20: the survival 1 - cdf loses its digits where the record mass lies")
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_d20_custom_triangular_cri_silently_wrong(triangular, method):
    res = residual_record_inaccuracy(triangular, RecordSpec("upper", 100, 1), method)
    assert_within(res, TRIANGULAR_CRI[100])


def test_d20_custom_triangular_cpi_mirror_is_right(triangular):
    # the mirror cell reads the cdf, which keeps its digits there
    res = past_record_inaccuracy(triangular, RecordSpec("lower", 100, 1))
    assert_within(res, TRIANGULAR_CRI[100])


@pytest.mark.xfail(strict=True, reason="D20: a false SupportError where 1 - cdf rounds to 0")
def test_d20_custom_triangular_cri_false_support_error(triangular):
    res = residual_record_inaccuracy(triangular, RecordSpec("upper", 50, 1))
    assert_within(res, TRIANGULAR_CRI[50])


@pytest.mark.xfail(strict=True, reason="D20: a false 'likely divergent' where 1 - cdf loses its digits")
def test_d20_custom_exponential_cri_false_divergence():
    e2 = make_exponential(2.0)
    custom = make_custom(e2.pdf, e2.cdf, e2.quantile, e2.support,
                         inverse_survival=e2.inverse_survival)
    res = residual_record_inaccuracy(custom, RecordSpec("upper", 10, 1))
    # the closed form n(n+1) / (2 theta k^2)
    assert_within(res, 27.5)


def test_d22_kstwo_sf_at_a_tiny_distance():
    # 1.0 at d = 1.2e-5 and at d = 4e-5
    assert _kstwo_sf(1.8854330129967254e-05, 100000) == pytest.approx(1.0, abs=1e-15)


# the gamma route's value and estimate
PARETO_CRI_N200 = (6.395613416151002e62, 4.1e50)


@pytest.mark.xfail(strict=True, reason="D23: a false 'non-integrable singularity' where the head integrand overflows")
def test_d23_hazard_forms_on_pareto_at_n_200():
    truth, truth_error = PARETO_CRI_N200
    for res in residual_inaccuracy_hazard_forms(make_pareto(2.0), RecordSpec("upper", 200, 1)):
        assert_within(res, truth, truth_error)


@pytest.mark.xfail(strict=True, reason="D23: a false 'non-integrable singularity' where the head integrand overflows")
@pytest.mark.parametrize("n, k, truth, truth_error", [
    # the gamma route's values and estimates
    (150, 1, 4.2531981242637645e47, 5.2e37),
    (400, 1, 2.0606354027138794e123, 1.8e114),
    (400, 2, 2.501461891576085e52, 4.2e42),
    (400, 3, 7.432852352816397e33, 6.4e22),
])
def test_d23_hazard_forms_on_pareto_at_n_150_and_400(n, k, truth, truth_error):
    for res in residual_inaccuracy_hazard_forms(make_pareto(2.0), RecordSpec("upper", n, k)):
        assert_within(res, truth, truth_error)


@pytest.mark.xfail(strict=True, reason="D24: the 3-sigma bar of an infinite-variance functional misses the truth")
def test_d24_pareto_upper_cri_monte_carlo_bar():
    # S/f = x/2 has infinite variance at k = 1; 9.7605 +- 0.2347 at this seed
    res = mc_measure(RecordMeasureRequest(make_pareto(2.0), RecordSpec("upper", 2, 1), "cri"),
                     McConfig(seed=19))
    # the exact sum, 10 at n = 2
    assert_within(res, 10.0)


@pytest.mark.parametrize("method", ["auto", "gamma_expectation"])
def test_d25_weibull_upper_cri_at_n_hundred_million(method):
    res = residual_record_inaccuracy(make_weibull(2.0, 0.5), RecordSpec("upper", 10**8, 1), method)
    # n(n+1)(n+2) / 6, the exact sum
    assert_within(res, 1.666666716666667e23)


def test_d26_batch_stream_scan_under_a_cap(monkeypatch):
    # 100 scalar scans under the same cap finish, with mean 4.08
    monkeypatch.setattr(oracle, "STREAM_CAP", 2_000_000)
    values = oracle.stream_record_sample(make_exponential(1.0), "upper", 10, 40, reps=100, seed=0)
    # the 40th 10-record of exp(1) is Gamma(40, 10): mean 4, sd 0.632
    assert abs(values.mean() - 4.0) <= 4 * math.sqrt(40) / 10 / math.sqrt(100)


@pytest.mark.xfail(strict=True, reason="D27: scipy's gammainc is 38% off 4.5 sd below the mode at n = 10^8")
def test_d27_record_cdf_at_n_hundred_million():
    n = 10**8
    value = record_cdf(make_exponential(1.0), RecordSpec("upper", n, 1), n - 45000.0)
    # P(n, y) = y^n e^-y / n! 1F1(1; n+1; y) in mpmath
    assert value == pytest.approx(3.38742887984090e-06, rel=1e-9)


D28_CELLS = pytest.mark.parametrize("measure, side", [("cri", "upper"), ("cpi", "lower")],
                                    ids=["cri-upper", "cpi-lower"])


@pytest.mark.xfail(strict=True, reason="D28: a finite Monte Carlo value with a bar where the measure diverges")
@D28_CELLS
def test_d28_pareto_half_monte_carlo_on_a_divergent_cell(measure, side):
    # 23086716662.7 +- 53509520874.4 (cri) and 300.888 +- 197.629 (cpi) at
    # this seed; the cri is finite only for k theta > 1
    with pytest.raises(DivergenceError):
        mc_measure(RecordMeasureRequest(make_pareto(0.5), RecordSpec(side, 2, 1), measure),
                   McConfig(seed=0))


@pytest.mark.xfail(strict=True, reason="D28: a finite Monte Carlo value with a bar where the measure diverges")
def test_d28_cli_monte_carlo_on_a_divergent_cell():
    res = run_cli(
        "compute", "--dist", "pareto", "--param", "theta=0.5", "--measure", "cri",
        "--side", "upper", "--n", "2", "--k", "1", "--method", "mc",
    )
    assert res.returncode == 3
    assert res.stderr.startswith("divergent: ")
