"""Named verification suites behind the command-line verify command.

Each suite is a list of independent checks with a pass flag and a detail
string carrying actual/expected/tolerance, so a failure is diagnosable
from the report alone.  Suites only use public package routines; the
point is to exercise disagreement between routes, not to re-derive them.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import measures as M
from . import numerics
from . import oracle as O
from . import record_measures as RM
from .distributions import (
    make_custom,
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)
from .errors import ParameterError
from .records import RecordSpec, record_cdf, sample_record


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _close(name: str, actual: float, expected: float, tol: float) -> CheckResult:
    passed = math.isfinite(actual) and abs(actual - expected) <= tol
    return CheckResult(
        name,
        passed,
        f"actual={actual:.12g} expected={expected:.12g} tol={tol:g}",
    )


def _bracket(name: str, actual: float, expected: float, half_width: float) -> CheckResult:
    passed = math.isfinite(actual) and abs(actual - expected) <= half_width
    return CheckResult(
        name,
        passed,
        f"actual={actual:.12g} expected={expected:.12g} interval=+-{half_width:.3g}",
    )


def _make_triangular():
    """Symmetric triangular law on (0, 1) through make_custom, which masks
    it outside that interval; used by the symmetry suite."""

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x <= 0.5, 4.0 * x, 4.0 * (1.0 - x))[()]

    def cdf(x):
        x = np.asarray(x, float)
        return np.where(x <= 0.5, 2.0 * x * x, 1.0 - 2.0 * (1.0 - x) ** 2)[()]

    def quantile(p):
        p = np.asarray(p, float)
        return np.where(p <= 0.5, np.sqrt(p / 2.0), 1.0 - np.sqrt((1.0 - p) / 2.0))[()]

    def inverse_survival(q):
        q = np.asarray(q, float)
        return np.where(q >= 0.5, np.sqrt((1.0 - q) / 2.0), 1.0 - np.sqrt(q / 2.0))[()]

    return make_custom(
        pdf, cdf, quantile, (0.0, 1.0),
        name="triangular", inverse_survival=inverse_survival,
    )


def suite_reference_values(seed: int = 0) -> list[CheckResult]:
    """Worked closed-form values against independent numeric routes."""
    e1 = make_exponential(1.0)
    e2 = make_exponential(2.0)
    u = make_uniform01()
    pd = make_power_decreasing()
    p2 = make_power_increasing(2)
    par2 = make_pareto(2.0)

    out = []
    up = RecordSpec("upper", 3, 2)
    out.append(_close(
        "kerridge exp(2) n=3 k=2",
        RM.kerridge_record(e2, up).value, 1.5 - math.log(2.0), 1e-12,
    ))
    out.append(_close(
        "kerridge exp(1) n=1 k=1",
        RM.kerridge_record(e1, RecordSpec("upper", 1, 1)).value, 1.0, 1e-12,
    ))
    out.append(_close(
        "kerridge pareto(2) n=2 k=1",
        RM.kerridge_record(par2, RecordSpec("upper", 2, 1)).value,
        3.0 - math.log(2.0), 1e-12,
    ))
    out.append(_close(
        "kerridge power-dec n=2 k=3",
        RM.kerridge_record(pd, RecordSpec("upper", 2, 3)).value,
        -math.log(3.0) + 4.0 / 9.0, 1e-12,
    ))
    out.append(_close(
        "kerridge uniform upper n=3 k=2",
        RM.kerridge_record(u, RecordSpec("upper", 3, 2)).value, 0.0, 1e-12,
    ))
    out.append(_close(
        "kerridge uniform lower n=4 k=3",
        RM.kerridge_record(u, RecordSpec("lower", 4, 3)).value, 0.0, 1e-12,
    ))
    for lam, beta, n, k in [(1.0, 2.0, 2, 2), (2.0, 0.5, 3, 1)]:
        w = make_weibull(lam, beta)
        spec = RecordSpec("upper", n, k)
        c = RM.kerridge_record(w, spec, "closed_form").value
        q = RM.kerridge_record(w, spec, "quadrature").value
        out.append(_close(f"kerridge weibull({lam},{beta}) n={n} k={k} two routes", c, q, 1e-7))

    out.append(_close(
        "cri exp(1) n=2 k=1",
        RM.residual_record_inaccuracy(e1, RecordSpec("upper", 2, 1)).value, 3.0, 1e-12,
    ))
    for n, want in [(1, 0.25), (2, 0.5), (3, 0.6875)]:
        out.append(_close(
            f"cri uniform n={n} k=1",
            RM.residual_record_inaccuracy(u, RecordSpec("upper", n, 1)).value,
            want, 1e-12,
        ))
    out.append(_close(
        "cri pareto(1) n=1 k=2",
        RM.residual_record_inaccuracy(
            make_pareto(1.0), RecordSpec("upper", 1, 2), "quadrature"
        ).value,
        1.0, 1e-8,
    ))
    out.append(_close(
        "cpi uniform n=1 k=1",
        RM.past_record_inaccuracy(u, RecordSpec("lower", 1, 1)).value, 0.25, 1e-12,
    ))
    out.append(_close(
        "cpi uniform n=2 k=1",
        RM.past_record_inaccuracy(u, RecordSpec("lower", 2, 1)).value, 0.5, 1e-12,
    ))
    out.append(_close(
        "cpi power-inc(2) n=1 k=1",
        RM.past_record_inaccuracy(p2, RecordSpec("lower", 1, 1)).value, 2.0 / 9.0, 1e-9,
    ))

    out.append(_close("kerridge identical exponentials", M.kerridge(e1, e1).value, 1.0, 1e-9))
    out.append(_close("extropy inaccuracy uniform self", M.extropy_inaccuracy(u, u).value, -0.5, 1e-9))
    out.append(_close(
        "cumulative residual extropy inaccuracy exp self",
        M.cumulative_residual_extropy_inaccuracy(e1, e1).value, -0.25, 1e-9,
    ))
    out.append(_close(
        "cumulative past extropy inaccuracy power-dec self",
        M.cumulative_past_extropy_inaccuracy(pd, pd).value, -9.0 / 28.0, 1e-9,
    ))
    out.append(_close(
        "kl exp(2) against exp(1)",
        M.kl_divergence(e2, e1).value, math.log(2.0) - 0.5, 1e-9,
    ))
    out.append(_close(
        "relative information uniform vs exp(1)",
        M.relative_information(u, e1).value, 0.5 * math.exp(-1.0), 1e-9,
    ))
    out.append(_close(
        "record cdf exp(1) n=2 k=1 at 1",
        float(record_cdf(e1, RecordSpec("upper", 2, 1), 1.0)),
        1.0 - 2.0 * math.exp(-1.0), 1e-12,
    ))
    out.append(_close(
        "log expectation of unit-rate transform variable",
        numerics.gamma_expectation(np.log, 1, 1).value, -0.5772156649015329, 1e-9,
    ))
    return out


def suite_identities(seed: int = 0) -> list[CheckResult]:
    """Alternate integral representations against the direct routes."""
    e1 = make_exponential(1.0)
    u = make_uniform01()
    pd = make_power_decreasing()
    w205 = make_weibull(2.0, 0.5)

    out = []
    spec = RecordSpec("upper", 2, 1)
    direct = RM.residual_record_inaccuracy(e1, spec).value
    out.append(_close(
        "cri mean-difference form, exp n=2 k=1",
        RM.residual_inaccuracy_mean_difference_form(e1, spec).value, direct, 1e-6,
    ))
    one, two = RM.residual_inaccuracy_hazard_forms(e1, spec)
    out.append(_close("cri hazard form one, exp n=2 k=1", one.value, direct, 1e-6))
    out.append(_close("cri hazard form two, exp n=2 k=1", two.value, direct, 1e-6))

    spec = RecordSpec("upper", 2, 2)
    direct = RM.residual_record_inaccuracy(u, spec).value
    out.append(_close(
        "cri mean-difference form, uniform n=2 k=2",
        RM.residual_inaccuracy_mean_difference_form(u, spec).value, direct, 1e-6,
    ))

    spec = RecordSpec("upper", 2, 2)
    direct = RM.residual_record_inaccuracy(w205, spec, "quadrature").value
    out.append(_close(
        "cri expectation form, weibull(2,0.5) n=2 k=2",
        RM.residual_record_inaccuracy(w205, spec, "gamma_expectation").value,
        direct, 1e-6,
    ))

    for parent, name, spec in [
        (u, "uniform", RecordSpec("lower", 2, 2)),
        (pd, "power-dec", RecordSpec("lower", 3, 2)),
    ]:
        direct = RM.past_record_inaccuracy(parent, spec).value
        out.append(_close(
            f"cpi cdf-difference form, {name} n={spec.n} k={spec.k}",
            RM.past_inaccuracy_cdf_difference_form(parent, spec).value, direct, 1e-6,
        ))

    lhs, rhs = RM.scale_shift_check(e1, RecordSpec("upper", 2, 1), 2.0, 3.0)
    out.append(_close("cri scale rule, exp scaled by 2 shifted by 3", lhs.value, rhs.value, 1e-7))
    lhs, rhs = RM.scale_shift_check(u, RecordSpec("upper", 1, 2), 3.0, -1.0)
    out.append(_close("cri scale rule, uniform scaled by 3 shifted by -1", lhs.value, rhs.value, 1e-7))

    for parent, name in [(e1, "exp"), (u, "uniform"), (w205, "weibull(2,0.5)")]:
        spec = RecordSpec("lower", 3, 2)
        g = RM.kerridge_record(parent, spec, "gamma_expectation").value
        q = RM.kerridge_record(parent, spec, "quadrature").value
        out.append(_close(f"kerridge two routes, {name} lower n=3 k=2", g, q, 1e-7))
    return out


def suite_monotonicity(seed: int = 0) -> list[CheckResult]:
    """Directional behavior of the closed forms in n, k and the parameter."""
    out = []
    slack = 1e-9

    # increasing densities push upper records into ever better explained
    # territory and lower records into the vanishing-density corner
    for m in (2, 3):
        parent = make_power_increasing(m)
        for k in (1, 2, 3):
            vals = [
                RM.kerridge_record(parent, RecordSpec("upper", n, k), "quadrature").value
                for n in range(1, 7)
            ]
            ok = all(b <= a + slack for a, b in zip(vals, vals[1:]))
            out.append(CheckResult(
                f"kerridge nonincreasing in n, power-inc({m}) upper k={k}",
                ok, f"values={[round(v, 6) for v in vals]}",
            ))
            vals = [
                RM.kerridge_record(parent, RecordSpec("lower", n, k), "quadrature").value
                for n in range(1, 7)
            ]
            ok = all(b >= a - slack for a, b in zip(vals, vals[1:]))
            out.append(CheckResult(
                f"kerridge nondecreasing in n, power-inc({m}) lower k={k}",
                ok, f"values={[round(v, 6) for v in vals]}",
            ))

    for theta in (0.5, 1.0, 2.0):
        e = make_exponential(theta)
        by_n = [RM.kerridge_record(e, RecordSpec("upper", n, 2)).value for n in (1, 2, 3, 4)]
        ok = all(b > a for a, b in zip(by_n, by_n[1:]))
        out.append(CheckResult(
            f"kerridge strictly increasing in n, exp({theta})",
            ok, f"values={[round(v, 6) for v in by_n]}",
        ))
        by_k = [RM.kerridge_record(e, RecordSpec("upper", 3, k)).value for k in (1, 2, 3, 4)]
        ok = all(b < a for a, b in zip(by_k, by_k[1:]))
        out.append(CheckResult(
            f"kerridge strictly decreasing in k, exp({theta})",
            ok, f"values={[round(v, 6) for v in by_k]}",
        ))

    for theta_lo, theta_hi in [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)]:
        lo = RM.kerridge_record(make_pareto(theta_lo), RecordSpec("upper", 2, 1)).value
        hi = RM.kerridge_record(make_pareto(theta_hi), RecordSpec("upper", 2, 1)).value
        out.append(CheckResult(
            f"kerridge decreasing in pareto tail index {theta_lo}->{theta_hi}",
            hi < lo, f"low={lo:.6g} high={hi:.6g}",
        ))
    return out


def suite_symmetry(seed: int = 0) -> list[CheckResult]:
    """Residual and past measures coincide for laws symmetric about 1/2."""
    out = []
    for parent, label in [(make_uniform01(), "uniform"), (_make_triangular(), "triangular")]:
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                cri = RM.residual_record_inaccuracy(
                    parent, RecordSpec("upper", n, k), "quadrature"
                ).value
                cpi = RM.past_record_inaccuracy(
                    parent, RecordSpec("lower", n, k), "quadrature"
                ).value
                out.append(_close(f"{label} n={n} k={k} residual==past", cri, cpi, 1e-8))
    e1 = make_exponential(1.0)
    cri = RM.residual_record_inaccuracy(e1, RecordSpec("upper", 2, 1)).value
    cpi = RM.past_record_inaccuracy(e1, RecordSpec("lower", 2, 1), "quadrature").value
    out.append(CheckResult(
        "asymmetric exp(1) n=2 k=1 differs across sides",
        abs(cri - cpi) > 0.1, f"residual={cri:.6g} past={cpi:.6g}",
    ))
    return out


# Two-sided Kolmogorov-Smirnov p-values, ported from scipy (BSD-3-Clause):
# the statistics of ks_1samp and ks_2samp (method "auto", stats/_stats_py.py)
# and the law of Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011) from
# _kolmogn and _kolmogn_PelzGood (stats/_ksstats.py), in scipy's operations,
# order and types, so each p-value is bit-identical to scipy's.  Only the
# branches that this suite's samples (over 10,000 each) reach are ported.
_PI2, _PI4, _PI6 = np.pi**2, np.pi**4, np.pi**6
_SQRT2PI = np.sqrt(2 * np.pi)


def _ks_1samp(sample, cdf):
    """p-value of the one-sample test of ``sample`` against ``cdf``."""
    x = np.sort(sample)
    cdfvals, n = cdf(x), x.shape[-1]
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    return _kstwo_sf(d_plus if d_plus > d_minus else d_minus, n)


def _ks_2samp(a, b):
    """p-value of the two-sample test of ``a`` against ``b``, by Smirnov's
    law at n = mn/(m + n), as scipy takes it past 10,000 per sample."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.shape[0], b.shape[0]
    both = np.concatenate([a, b])
    diffs = (np.searchsorted(a, both, side="right") / n1
             - np.searchsorted(b, both, side="right") / n2)
    min_s, max_s = np.clip(-diffs.min(), 0, 1), diffs.max()
    m, n = sorted([float(n1), float(n2)], reverse=True)
    return _kstwo_sf(min_s if min_s > max_s else max_s, np.round(m * n / (m + n)))


def _kstwo_sf(d, n):
    """``scipy.stats.kstwo.sf(d, n)``, the chance that D_n exceeds d, for
    n > 10,000.  There scipy's ends, n d <= 1 and d >= 1 - 1/n, read the 1
    and 0 that Pelz-Good and Smirnov give, and its Durbin matrix, taken
    where n d^1.5 <= 1.4, agrees with 1 - Pelz-Good within 2.2e-13."""
    n, x = int(n), np.asarray(d, dtype=float)
    nxsquared = n * x * x
    if x < 0.5 and nxsquared >= 370.0:
        return 0.0
    if x >= 0.5 or nxsquared >= 2.2:
        return np.clip(2 * numerics.smirnov(n, x), 0.0, 1.0)
    return np.clip(1.0 - _pelz_good_cdf(n, x), 0.0, 1.0)


def _pelz_good_cdf(n: int, x):
    """Pelz and Good's (1976) series for P(D_n <= x), x < 1/2; 0 if its q underflows."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI2 / 8 / zsquared
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)
    k1a, k1b = -zsquared, _PI2 / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI2 / 4
    k2c = _PI4 * (1 - 2 * zsquared) / 16
    k3d = _PI6 * (5 - 30 * zsquared) / 64
    k3c = _PI4 * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI2 * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    terms = np.zeros(4)
    # Horner's scheme over the odd m = 2k - 1 of sum c_m q^(m^2)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        terms *= np.power(q, 8 * k)
        terms += np.array([1.0, k1a + k1b * msquared, k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
    terms = terms * q * _SQRT2PI / np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])
    q = np.exp(-_PI2 / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z, kspi, qpowers = np.sqrt(3) * z, np.pi * ks, q**ksquared
    terms[2] += np.sum(ksquared * qpowers) * (_PI2 * _SQRT2PI / (-36 * zthree))
    terms[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpowers)
                 * (_PI2 * _SQRT2PI / (216 * zsix)))
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(terms)


def suite_oracle(seed: int = 42) -> list[CheckResult]:
    """Simulation against analytics: stream scans, transform draws, MC bars."""
    # the KS p-values above are scipy.stats's own, without its import,
    # which takes longer than the rest of this suite
    e1 = make_exponential(1.0)
    u = make_uniform01()
    out = []

    spec = RecordSpec("upper", 2, 2)
    draws = O.stream_record_sample(e1, "upper", 2, 2, reps=50_000, seed=seed)
    p = _ks_1samp(draws, lambda x: record_cdf(e1, spec, x))
    out.append(CheckResult(
        "stream scan matches analytic record cdf, exp n=2 k=2",
        p > 0.001, f"ks pvalue={p:.5g}",
    ))

    for parent, label, side, n, k in [
        (e1, "exp", "upper", 2, 1),
        (u, "uniform", "lower", 2, 1),
    ]:
        stream = O.stream_record_sample(parent, side, k, n, reps=30_000, seed=seed + 1)
        transform = sample_record(parent, RecordSpec(side, n, k), seed + 2, 30_000)
        p = _ks_2samp(stream, transform)
        out.append(CheckResult(
            f"stream scan vs transform draws, {label} {side} n={n} k={k}",
            p > 0.001, f"ks pvalue={p:.5g}",
        ))

    req = RM.RecordMeasureRequest(e1, RecordSpec("upper", 2, 1), "kerridge")
    res = O.mc_measure(req, O.McConfig(samples=100_000, seed=seed))
    out.append(_bracket(
        "mc kerridge brackets closed form, exp n=2 k=1",
        res.value, 2.0, res.abs_error_estimate,
    ))
    req = RM.RecordMeasureRequest(u, RecordSpec("upper", 1, 2), "cri")
    res = O.mc_measure(req, O.McConfig(samples=100_000, seed=seed))
    out.append(_bracket(
        "mc cri brackets closed form, uniform n=1 k=2",
        res.value, 1.0 / 9.0, res.abs_error_estimate,
    ))

    a = O.mc_measure(req, O.McConfig(samples=10_000, seed=seed))
    b = O.mc_measure(req, O.McConfig(samples=10_000, seed=seed))
    out.append(CheckResult(
        "mc estimate deterministic under a fixed seed",
        a == b, f"first={a.value!r} second={b.value!r}",
    ))
    return out


SUITES = {
    "paper-examples": suite_reference_values,
    "propositions": suite_identities,
    "monotonicity": suite_monotonicity,
    "symmetry": suite_symmetry,
    "oracle": suite_oracle,
}


def run_suite(name: str, seed: int | None = None) -> dict:
    """Run one suite and package the results for reporting."""
    if name not in SUITES:
        raise ParameterError(f"suite must be one of {tuple(SUITES)}, got {name!r}")
    fn = SUITES[name]
    checks = fn() if seed is None else fn(seed)
    return {
        "suite": name,
        "generator": O.GENERATOR_NAME,
        "seed": seed,
        "passed": bool(all(c.passed for c in checks)),
        "checks": [
            # bool() strips numpy truth values so the report serializes
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in checks
        ],
    }
