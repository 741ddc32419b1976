"""Large-order gate for the gamma routes against exact references.

Every catalog cell of the kerridge, cri and cpi gamma routes that has an
exact reference, over n up to 10^5 and k in {1, 3, 10}, must return a
value within its own error estimate of the reference or raise a package
error that names why.  The references are written out here from the
families' definitions and summed in mpmath, so they share no code with
the routes.
"""

import math

import mpmath as mp
import pytest

from recinacc import record_measures as RM
from recinacc.distributions import (
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)
from recinacc.errors import RecinaccError
from recinacc.records import RecordSpec

NS = (1, 2, 5, 20, 100, 300, 1000, 10**4, 10**5)
KS = (1, 3, 10)

mp.mp.dps = 30


def _weighted_index_sum(r, n):
    """sum_{i<n} (i+1) r^i, in closed form."""
    r = mp.mpf(r)
    return (1 - (n + 1) * r**n + n * r ** (n + 1)) / (1 - r) ** 2


def _kerridge_weibull(lam, beta):
    def ref(n, k):
        return (n / mp.mpf(k) - mp.log(beta) - mp.log(lam) / beta
                - (beta - 1) / mp.mpf(beta) * (mp.digamma(n) - mp.log(k)))
    return ref


def _cri_pareto(theta):
    def ref(n, k):
        rate = k - mp.mpf(1) / theta
        return _weighted_index_sum(k / rate, n) / (theta * rate**2)
    return ref


def _cri_weibull(lam, beta):
    # sum_{i<n} Gamma(i + 1 + 1/beta) / i! = Gamma(n + 1 + 1/beta) / ((1 + 1/beta) Gamma(n))
    a = 1 + mp.mpf(1) / beta

    def ref(n, k):
        log_sum = mp.loggamma(n + a) - mp.loggamma(n) - mp.log(a)
        return mp.exp(log_sum) / (beta * mp.mpf(lam) ** (1 / mp.mpf(beta)) * mp.mpf(k) ** a)
    return ref


def _cumulative_uniform(n, k):
    return _weighted_index_sum(mp.mpf(k) / (k + 1), n) / (k + 1) ** 2


def _cpi_power_increasing(m):
    def ref(n, k):
        r = mp.mpf(k) / (k + mp.mpf(1) / m)
        return r**2 * _weighted_index_sum(r, n) / (m * k**2)
    return ref


# (label, parent, measure, side, exact reference of (n, k))
CELLS = [
    ("exp(1)", make_exponential(1.0), "kerridge", "upper", lambda n, k: mp.mpf(n) / k),
    ("pareto(2)", make_pareto(2.0), "kerridge", "upper",
     lambda n, k: mp.mpf(3) / 2 * n / k - mp.log(2)),
    ("weibull(2,0.5)", make_weibull(2.0, 0.5), "kerridge", "upper", _kerridge_weibull(2, 0.5)),
    ("weibull(1,2)", make_weibull(1.0, 2.0), "kerridge", "upper", _kerridge_weibull(1, 2)),
    ("power-dec", make_power_decreasing(), "kerridge", "upper",
     lambda n, k: mp.mpf(2) * n / (3 * k) - mp.log(3)),
    ("uniform", make_uniform01(), "kerridge", "upper", lambda n, k: mp.mpf(0)),
    ("uniform", make_uniform01(), "kerridge", "lower", lambda n, k: mp.mpf(0)),
    ("power-inc(2)", make_power_increasing(2), "kerridge", "lower",
     lambda n, k: mp.mpf(n) / (2 * k) - mp.log(2)),
    ("exp(2)", make_exponential(2.0), "cri", "upper",
     lambda n, k: mp.mpf(n) * (n + 1) / (4 * k**2)),
    ("pareto(2)", make_pareto(2.0), "cri", "upper", _cri_pareto(2)),
    ("pareto(3)", make_pareto(3.0), "cri", "upper", _cri_pareto(3)),
    ("weibull(2,0.5)", make_weibull(2.0, 0.5), "cri", "upper", _cri_weibull(2, 0.5)),
    ("weibull(1,2)", make_weibull(1.0, 2.0), "cri", "upper", _cri_weibull(1, 2)),
    ("uniform", make_uniform01(), "cri", "upper", _cumulative_uniform),
    ("uniform", make_uniform01(), "cpi", "lower", _cumulative_uniform),
    ("power-inc(2)", make_power_increasing(2), "cpi", "lower", _cpi_power_increasing(2)),
]

_ROUTE = {
    "kerridge": RM.kerridge_record,
    "cri": RM.residual_record_inaccuracy,
    "cpi": RM.past_record_inaccuracy,
}
_DOUBLE_MAX = mp.mpf(2) ** 1024


@pytest.mark.parametrize("label,parent,measure,side,reference", CELLS,
                         ids=[f"{c[2]}-{c[3]}-{c[0]}" for c in CELLS])
def test_gamma_route_within_its_estimate_of_the_exact_value(label, parent, measure, side,
                                                            reference):
    outside, refused = [], []
    for n in NS:
        for k in KS:
            ref = reference(n, k)
            try:
                res = _ROUTE[measure](parent, RecordSpec(side, n, k), "gamma_expectation")
            except RecinaccError as exc:
                refused.append((n, k, ref, str(exc)))
                continue
            if not abs(res.value - ref) <= res.abs_error_estimate:
                outside.append((n, k, res.value, res.abs_error_estimate, float(ref)))
    assert outside == []
    # the only refusals are values past the double range, and they say so
    for n, k, ref, message in refused:
        assert abs(ref) >= _DOUBLE_MAX, (n, k, message)
        assert "double range" in message and "divergent" not in message


def _cpi_pareto(theta, n, k):
    """sum_{i<n} (k^i / i!) (1/theta) integral over u in (0, 1) of
    (-log u)^(i+1) u^k (1 - u)^(-1 - 1/theta), the defining integral in
    u = F(x); u = 1 - s^2 smooths the end at u = 1."""
    def integrand(s):
        log_u = mp.log1p(-s * s)
        series = sum((-k * log_u) ** i / mp.factorial(i) for i in range(n))
        return -2 * log_u * (1 - s * s) ** k * series / (theta * s ** (1 + mp.mpf(2) / theta))
    return mp.quad(integrand, [0, 1])


# The cells of the defects the t-space routes mend, each silently wrong,
# falsely divergent or refused when the routes mapped t back to x.
LEDGER = (
    [("cpi", "lower", make_pareto(2.0), n, k, lambda n=n, k=k: _cpi_pareto(2, n, k))
     for n in range(1, 6) for k in range(1, 4)]
    + [("kerridge", "upper", make_power_decreasing(), 100, 1,
        lambda: mp.mpf(200) / 3 - mp.log(3))]
    + [("kerridge", "upper", make_exponential(1.0), n, 1, lambda n=n: mp.mpf(n))
       for n in (570, 1000, 10**4, 10**5)]
    + [("cri", "upper", make_pareto(2.0), n, 1, lambda n=n: _cri_pareto(2)(n, 1))
       for n in (110, 120, 200, 1000)]
    + [("cri", "upper", make_pareto(3.0), 150, 1, lambda: _cri_pareto(3)(150, 1))]
)


@pytest.mark.parametrize("measure,side,parent,n,k,reference", LEDGER,
                         ids=[f"{c[0]}-{c[2].name}{c[2].params}-n{c[3]}k{c[4]}" for c in LEDGER])
def test_defect_cells_within_their_estimates(measure, side, parent, n, k, reference):
    res = _ROUTE[measure](parent, RecordSpec(side, n, k), "gamma_expectation")
    assert abs(res.value - reference()) <= res.abs_error_estimate
