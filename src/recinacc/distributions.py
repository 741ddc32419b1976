"""Parametric distribution catalog built from log-space family descriptions.

Every distribution carries its density, log-density, cdf, survival
function, quantile function and inverse survival function as vectorized
callables.  The log-density and the inverse survival function are
first-class rather than derived, because record-value integrands push far
into the tails where exp/log round trips and 1-p cancellations destroy
precision.

Each catalog family is described once, in log space: its support, six
formulas for points inside it and the closed forms of the record measures
it admits.  One function, ``_family``, turns that into a Distribution,
and builds custom and affine laws from their log forms too.

Conventions: support endpoints are open; evaluating a pdf exactly at an
endpoint returns the one-sided limit, evaluation outside the support
returns 0 (pdf), 0/1 (cdf) and 1/0 (survival).  All callables accept
floats or numpy arrays and return matching scalars or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping

import numpy as np

from . import numerics as _nx
from .errors import ConsistencyError, ParameterError, check_integer, check_positive
from .numerics import digamma

__all__ = [
    "Distribution",
    "make_exponential",
    "make_pareto",
    "make_weibull",
    "make_uniform01",
    "make_power_decreasing",
    "make_power_increasing",
    "make_custom",
    "affine_transform",
]

_INF = math.inf


@dataclass(frozen=True, eq=False)
class Distribution:
    """A continuous distribution described by its standard functions.

    No field has a default: ``_family`` builds every law but record laws,
    which ``records.record_distribution`` builds.  Record-value densities
    need the log tails, the cumulative hazard -log S(x) far beyond the
    point where S(x) itself underflows.  ``hazard`` (pdf/survival) and
    ``reversed_hazard`` (pdf/cdf) are derived on demand.

    ``log_pdf_at_tail(side, t)`` is log f(x(t)) at x(t) = S^-1(e^-t) for
    upper records and F^-1(e^-t) for lower ones, t > 0.  Catalog families
    give it without forming x(t), which rounds onto a support end far out;
    an affine law shifts its parent's; other laws compose ``log_pdf`` with
    the inverse.

    ``closed_forms`` maps a record measure ('kerridge', 'cri', 'cpi') to a
    function of (side, n, k) giving its exact value, or None on a side it
    does not cover.  Only catalog factories set it: the name and params of
    a custom, affine or record law prove nothing about its functions.
    """

    name: str
    params: dict
    support: tuple[float, float]
    pdf: Callable
    log_pdf: Callable
    cdf: Callable
    survival: Callable
    quantile: Callable
    inverse_survival: Callable
    log_cdf: Callable
    log_survival: Callable
    log_pdf_at_tail: Callable
    closed_forms: Mapping[str, Callable] | None

    def hazard(self, x):
        return self.pdf(x) / self.survival(x)

    def reversed_hazard(self, x):
        return self.pdf(x) / self.cdf(x)


def _on_floats(f: Callable) -> Callable:
    return lambda x: np.asarray(f(np.asarray(x, float)), float)[()]


_LOG_2 = math.log(2.0)
_LOG_HALF = -_LOG_2


def _log_pdf_through_inverse(log_pdf: Callable, quantile: Callable,
                             inverse_survival: Callable, side: str, t):
    """``log_pdf`` at the inverse of e^-t, below t = log 2 at the other
    inverse of 1 - e^-t, which e^-t near 1 would round."""
    t = np.asarray(t, float)
    far, near = (inverse_survival, quantile) if side == "upper" else (quantile, inverse_survival)
    # where an inverse rounds onto a support end the value is not finite,
    # and the routes refuse it
    with np.errstate(all="ignore"):
        x = np.where(t < _LOG_2, near(-np.expm1(-t)), far(np.exp(-t)))
        return np.asarray(log_pdf(x), float)[()]


def _log1mexp(a):
    """log(1 - e^a) for a <= 0: log(-expm1(a)) above -log 2, where it is
    exact, and log1p(-exp(a)) below, where the first form would round
    1 - e^a to 1 once e^a < eps.  Arrays wholly on one side, the usual
    call, skip the masked assignment.
    """
    a = np.asarray(a, float)
    near = a > _LOG_HALF
    count = np.count_nonzero(near)
    if count == 0:
        return np.log1p(-np.exp(a))
    if count == a.size:
        return np.log(-np.expm1(a))
    # the log1p form would take log(0) where e^a rounds to 1, near a = 0
    out = np.log(-np.expm1(a))
    out[~near] = np.log1p(-np.exp(a[~near]))
    return out


def _upper_only(form: Callable) -> Callable:
    """A closed form of (n, k) that holds for upper records only."""
    return lambda side, n, k: form(n, k) if side == "upper" else None


def _on_support(f, lo: float, hi: float, closed: bool, below: float, above: float):
    """``f`` on [lo, hi] (``closed``) or (lo, hi), ``below``/``above`` left/right.

    Parents are called millions of times on scalars and short panels,
    where numpy's per-call overhead is the cost, so points strictly inside
    the support, the usual case, skip the masks.
    """
    half_infinite = hi == _INF

    def on_support(x):
        x = np.asarray(x, float)
        if x.size and x.min() > lo and (half_infinite or x.max() < hi):
            return f(x)[()]
        out = np.full(x.shape, below)
        out[x >= hi] = above
        m = (x >= lo) & (x <= hi) if closed else (x > lo) & (x < hi)
        # at a closed end a log formula takes its limit through log(0)
        with np.errstate(divide="ignore"):
            out[m] = f(x[m])
        return out[()]

    return on_support


def _family(
    name: str,
    params: dict,
    support: tuple[float, float],
    *,
    log_pdf: Callable,
    log_survival: Callable,
    log_cdf: Callable,
    quantile: Callable,
    inverse_survival: Callable,
    log_pdf_by_tails: Callable | None = None,
    **closed_forms: Callable,
) -> Distribution:
    """A Distribution from formulas valid inside its support and the
    closed forms of (side, n, k) of its record measures, by measure.

    ``log_pdf`` holds on the closed support (its endpoint values are the
    one-sided limits), the log tails on the open one.  ``log_pdf_by_tails``
    gives log f from (log S, log F), which at x(t) are (-t, log(1 - e^-t))
    for upper records and the reverse for lower ones; a law without it
    composes the masked ``log_pdf`` with the inverses.  pdf, cdf and
    survival exponentiate their own log forms: cdf = -expm1(log_survival)
    would lose a cdf below machine epsilon.  They close over the formulas,
    not the fields, so replacing one field leaves the others unchanged.
    """
    lo, hi = support

    def quiet_log_cdf(x):
        # -expm1 of an underflowing exponent is 0, whose log is the true limit
        with np.errstate(divide="ignore"):
            return log_cdf(x)

    log_density = _on_support(log_pdf, lo, hi, True, -_INF, -_INF)
    quantile, inverse_survival = _on_floats(quantile), _on_floats(inverse_survival)
    if log_pdf_by_tails is None:
        log_pdf_at_tail = partial(_log_pdf_through_inverse, log_density, quantile, inverse_survival)
    else:
        def log_pdf_at_tail(side, t):
            t = np.asarray(t, float)
            tails = (-t, _log1mexp(-t))
            return log_pdf_by_tails(*(tails if side == "upper" else tails[::-1]))[()]

    return Distribution(
        name, params, support,
        pdf=_on_support(lambda x: np.exp(log_pdf(x)), lo, hi, True, 0.0, 0.0),
        log_pdf=log_density,
        cdf=_on_support(lambda x: np.exp(quiet_log_cdf(x)), lo, hi, False, 0.0, 1.0),
        survival=_on_support(lambda x: np.exp(log_survival(x)), lo, hi, False, 1.0, 0.0),
        quantile=quantile,
        inverse_survival=inverse_survival,
        log_cdf=_on_support(quiet_log_cdf, lo, hi, False, -_INF, 0.0),
        log_survival=_on_support(log_survival, lo, hi, False, 0.0, -_INF),
        log_pdf_at_tail=log_pdf_at_tail,
        closed_forms=closed_forms or None,
    )


def make_exponential(theta: float) -> Distribution:
    """Exponential with rate theta: density theta * exp(-theta x) on (0, inf)."""
    theta = check_positive(theta, "exponential rate")
    log_theta = math.log(theta)
    return _family(
        "exponential", {"theta": theta}, (0.0, _INF),
        log_pdf=lambda x: log_theta - theta * x,
        log_survival=lambda x: -theta * x,
        log_cdf=lambda x: _log1mexp(-theta * x),
        quantile=lambda p: -np.log1p(-p) / theta,
        inverse_survival=lambda q: -np.log(q) / theta,
        log_pdf_by_tails=lambda log_s, log_f: log_theta + log_s,
        kerridge=_upper_only(lambda n, k: n / k - math.log(theta)),
        cri=lambda side, n, k: n * (n + 1) / (2.0 * theta * k**2),
    )


def make_pareto(theta: float) -> Distribution:
    """Pareto with tail index theta: density theta * x^-(theta+1) on (1, inf)."""
    theta = check_positive(theta, "pareto tail index")
    log_theta = math.log(theta)
    return _family(
        "pareto", {"theta": theta}, (1.0, _INF),
        log_pdf=lambda x: log_theta - (theta + 1.0) * np.log(x),
        log_survival=lambda x: -theta * np.log(x),
        log_cdf=lambda x: _log1mexp(-theta * np.log(x)),
        quantile=lambda p: (1.0 - p) ** (-1.0 / theta),
        inverse_survival=lambda q: q ** (-1.0 / theta),
        log_pdf_by_tails=lambda log_s, log_f: log_theta + (1.0 + 1.0 / theta) * log_s,
        kerridge=_upper_only(lambda n, k: (1.0 + 1.0 / theta) * n / k - math.log(theta)),
    )


def make_weibull(lam: float, beta: float) -> Distribution:
    """Weibull with survival exp(-lam * x^beta) on (0, inf).

    beta = 1 reduces to the exponential with rate lam.
    """
    lam = check_positive(lam, "weibull scale parameter")
    beta = check_positive(beta, "weibull shape parameter")
    lam_beta = lam * beta
    # in two logs only where the product leaves the normal range
    log_lam_beta = (math.log(lam_beta) if _nx._TINY <= lam_beta < _INF
                    else math.log(lam) + math.log(beta))
    log_lam = math.log(lam)

    def log_pdf_by_tails(log_s, log_f):
        # log of the cumulative hazard H = -log S, which is log F to working
        # precision once F < e^-36, where -log S first rounds, then is 0
        with np.errstate(divide="ignore"):
            log_h = np.where(log_f < -36.0, log_f, np.log(-log_s))
        return log_lam_beta + (beta - 1.0) / beta * (log_h - log_lam) + log_s

    return _family(
        "weibull", {"lambda": lam, "beta": beta}, (0.0, _INF),
        # xlogy takes the limit at x = 0: log(lam) for beta = 1, +inf below
        log_pdf=lambda x: log_lam_beta + _nx.xlogy(beta - 1.0, x) - lam * x**beta,
        log_survival=lambda x: -lam * x**beta,
        log_cdf=lambda x: _log1mexp(-lam * x**beta),
        quantile=lambda p: (-np.log1p(-p) / lam) ** (1.0 / beta),
        inverse_survival=lambda q: (-np.log(q) / lam) ** (1.0 / beta),
        log_pdf_by_tails=log_pdf_by_tails,
        kerridge=_upper_only(lambda n, k: (
            n / k
            - math.log(beta)
            - math.log(lam) / beta
            - (beta - 1.0) / beta * (digamma(n) - math.log(k))
        )),
    )


def make_uniform01() -> Distribution:
    """Uniform on (0, 1)."""

    def cumulative(side, n, k):
        # the uniform law is symmetric about 1/2, so cdf-side values mirror
        # the survival-side ones: sum_{i<n} (i+1) k^i / (k+1)^(i+2) is
        # 1 - k^n (k+1+n) / (k+1)^(n+1), one division of exact integers and
        # so correctly rounded; 1.0 once the subtracted term is below 2^-60
        if n * math.log1p(1.0 / k) - math.log((k + 1 + n) / (k + 1)) > 60.0 * math.log(2.0):
            return 1.0
        den = (k + 1) ** (n + 1)
        return (den - k**n * (k + 1 + n)) / den

    return _family(
        "uniform", {}, (0.0, 1.0),
        log_pdf=np.zeros_like,
        log_survival=lambda x: np.log1p(-x),
        log_cdf=np.log,
        quantile=lambda p: p + 0.0,
        inverse_survival=lambda q: 1.0 - q,
        log_pdf_by_tails=lambda log_s, log_f: np.zeros_like(log_s),
        # flat density: the log-density term vanishes identically
        kerridge=lambda side, n, k: 0.0,
        cri=cumulative,
        cpi=cumulative,
    )


def make_power_decreasing() -> Distribution:
    """Density 3(1-x)^2 on (0, 1); a strictly decreasing polynomial density."""
    log_3 = math.log(3.0)
    return _family(
        "power_decreasing", {}, (0.0, 1.0),
        log_pdf=lambda x: log_3 + 2.0 * np.log1p(-x),
        log_survival=lambda x: 3.0 * np.log1p(-x),
        log_cdf=lambda x: _log1mexp(3.0 * np.log1p(-x)),
        quantile=lambda p: 1.0 - (1.0 - p) ** (1.0 / 3.0),
        inverse_survival=lambda q: 1.0 - q ** (1.0 / 3.0),
        log_pdf_by_tails=lambda log_s, log_f: log_3 + 2.0 / 3.0 * log_s,
        kerridge=_upper_only(lambda n, k: -math.log(3.0) + 2.0 * n / (3.0 * k)),
    )


def make_power_increasing(m: int) -> Distribution:
    """Density m x^(m-1) on (0, 1) for integer m >= 2; strictly increasing."""
    m = int(check_integer(m, "power exponent", 2))
    log_m = math.log(m)
    return _family(
        "power_increasing", {"m": m}, (0.0, 1.0),
        log_pdf=lambda x: log_m + (m - 1) * np.log(x),
        log_survival=lambda x: _log1mexp(m * np.log(x)),
        log_cdf=lambda x: m * np.log(x),
        quantile=lambda p: p ** (1.0 / m),
        inverse_survival=lambda q: (1.0 - q) ** (1.0 / m),
        log_pdf_by_tails=lambda log_s, log_f: log_m + (m - 1) / m * log_f,
    )


_N_PROBES = 16


def _interior_probes(quantile: Callable) -> np.ndarray:
    # placed by the quantile function, so that infinite supports work
    return np.asarray(quantile((np.arange(_N_PROBES) + 0.5) / _N_PROBES), float)


def make_custom(
    pdf: Callable,
    cdf: Callable,
    quantile: Callable,
    support: tuple[float, float],
    *,
    name: str = "custom",
    params: dict | None = None,
    log_pdf: Callable | None = None,
    survival: Callable | None = None,
    inverse_survival: Callable | None = None,
    log_cdf: Callable | None = None,
    log_survival: Callable | None = None,
) -> Distribution:
    """Wrap user-supplied functions as a Distribution, after probing them.

    Consistency probes run at 16 interior points (placed by the quantile
    function so that infinite supports work): the cdf derivative must match
    the pdf, and quantile(cdf(x)) must return x.  A failure raises
    :class:`ConsistencyError` naming the probe, catching sign errors and
    mismatched parameterizations before they poison downstream integrals.
    Each function must be elementwise, its value at a point depending on
    that point alone: ``quantile`` in particular, since the stream scans
    map their draws in blocks whose shape depends on the scan's progress.
    Whatever its ``name`` and ``params``, the result has no closed forms.
    ``_family`` builds it from log forms (of the plain functions where none
    is given), so it is masked at its support as a catalog law is.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ParameterError(f"support must satisfy lo < hi, got {support!r}")

    for x in _interior_probes(quantile).tolist():
        h = 1e-6 * max(1.0, abs(x))
        a = max(x - h, lo)
        b = min(x + h, hi)
        deriv = (float(cdf(b)) - float(cdf(a))) / (b - a)
        density = float(pdf(x))
        if not math.isfinite(density) or abs(deriv - density) > 1e-3 * (1.0 + abs(density)):
            raise ConsistencyError(
                f"pdf-cdf consistency probe failed at x={x!r}: "
                f"cdf slope {deriv!r} vs pdf {density!r}"
            )
        roundtrip = float(quantile(float(cdf(x))))
        if abs(roundtrip - x) > 1e-6 * max(1.0, abs(x)):
            raise ConsistencyError(
                f"quantile-cdf roundtrip probe failed at x={x!r}: got {roundtrip!r}"
            )

    def log_form(log_f, f):
        def log_of(x):
            with np.errstate(divide="ignore"):
                return np.log(np.asarray(f(x), float))

        return log_of if log_f is None else _on_floats(log_f)

    survival = survival or (lambda x: 1.0 - np.asarray(cdf(x), float))
    return _family(
        name, dict(params or {}), (lo, hi),
        log_pdf=log_form(log_pdf, pdf),
        log_survival=log_form(log_survival, survival),
        log_cdf=log_form(log_cdf, cdf),
        quantile=quantile,
        inverse_survival=inverse_survival or (lambda q: quantile(1.0 - q)),
    )


def affine_transform(dist: Distribution, a: float, b: float) -> Distribution:
    """The distribution of a*X + b for a > 0."""
    a = float(a)
    b = float(b)
    if not (a > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"affine transform needs a > 0 and finite b, got a={a}, b={b}")
    lo, hi = dist.support
    log_a = math.log(a)

    law = _family(
        f"affine({dist.name})",
        {**dist.params, "scale": a, "shift": b},
        (a * lo + b, a * hi + b),
        log_pdf=lambda y: dist.log_pdf((y - b) / a) - log_a,
        log_survival=lambda y: dist.log_survival((y - b) / a),
        log_cdf=lambda y: dist.log_cdf((y - b) / a),
        quantile=lambda p: a * dist.quantile(p) + b,
        inverse_survival=lambda q: a * dist.inverse_survival(q) + b,
    )
    # the parent's t-space formula holds past where x(t) rounds
    return replace(law, log_pdf_at_tail=lambda side, t: dist.log_pdf_at_tail(side, t) - log_a)
