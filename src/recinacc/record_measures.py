"""Inaccuracy measures between a record distribution and its parent.

Eight measures are supported, one row each of ``MEASURES``.  Three have
several evaluation paths that must agree and are tested against one
another:

* kerridge: density inaccuracy of assuming the parent density while the
  data are record values.
* cri: cumulative residual inaccuracy between the upper record's
  survival function and the parent's.
* cpi: cumulative past inaccuracy between the lower record's cdf and the
  parent's.

The other five (the extropy inaccuracies cpij, crij and kij, kl and
relinfo) have only the quadrature route, on either record side.

The gamma routes integrate over t in the record representation
U = S^{-1}(e^{-T}), T ~ Gamma(n, rate k) (F in place of S for lower
records).  Their integrands are functions of t alone, through the
parent's ``log_pdf_at_tail``: they never map t back to x, which rounds
onto a support end long before the record mass ends.  A value they
cannot evaluate at some t refuses the route.  The quadrature route of
each measure is its generic two-distribution measure
(:mod:`recinacc.measures`) on the record law and the parent.

Closed forms belong to the parent: a catalog family carries them in
``Distribution.closed_forms``.  Under ``auto`` the one dispatcher
(``_dispatch``) takes the closed form where it exists, else the
measure's gamma route where it has one, else quadrature; it checks its
arguments in the validator requests use.  Every route is written once
for both sides.

The cri/cpi measures additionally have representation forms (mean
differences, hazard-weighted double integrals, cdf differences) exposed
as separate functions so the identity checks exercise genuinely
different arithmetic.  Both hazard forms run over the cumulative hazard
and take log f at the record scale from ``log_pdf_at_tail``, as the gamma
routes do.
"""

from __future__ import annotations

import bisect
import math
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import numerics as _nx
from .distributions import Distribution, affine_transform
from .errors import (
    DivergenceError,
    IntegrandError,
    ParameterError,
    QuadratureError,
    UnsupportedMethodError,
)
from . import measures as _measures
from .measures import MeasureResult, _certify_integrable_tail, _diverged, _quad, _quad_each
from .numerics import (
    _EPS,
    _TINY,
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    _log_gamma_series,
    gamma_expectation,
    gamma_mass_edges,
    integrate_each,
)
from .records import (
    RecordSpec,
    record_cdf,
    record_distribution,
    record_survival,
)

__all__ = [
    "RecordMeasureRequest",
    "kerridge_record",
    "residual_record_inaccuracy",
    "past_record_inaccuracy",
    "residual_inaccuracy_mean_difference_form",
    "residual_inaccuracy_hazard_forms",
    "past_inaccuracy_cdf_difference_form",
    "scale_shift_check",
    "compute_record_measure",
]

_LOG_MAX = math.log(float(np.finfo(float).max))


@dataclass(frozen=True)
class RecordMeasureRequest:
    """What to compute: which parent, which record sequence, which measure.

    ``measure`` is a key of ``MEASURES``.  What the measure does not allow
    (cri on lower records, cpi on upper ones, a route it lacks) is
    rejected here rather than producing a meaningless number.
    """

    parent: Distribution
    spec: RecordSpec
    measure: str
    method: str = "auto"

    def __post_init__(self) -> None:
        _validate(self.measure, self.spec, self.method)


# ---------------------------------------------------------------------------
# routes: one implementation per (measure, method), each side-parametrised


def _require_side(spec: RecordSpec, side: str, what: str) -> None:
    if spec.side != side:
        raise ParameterError(f"{what} is defined for {side} records; got side {spec.side!r}")


def _gamma_failure(parent: Distribution, side: str, what: str, exc: QuadratureError):
    """A gamma route's failure as the error it raises: a breakdown means the
    integral could not be certified finite (as in _quad); an integrand that
    is not finite at t refuses the route where log f is not finite there,
    and is an IntegrandError where it passes the double range."""
    if not isinstance(exc, IntegrandError):
        return _diverged(exc, what)
    t = exc.abscissa
    with np.errstate(all="ignore"):
        log_f = float(parent.log_pdf_at_tail(side, t))
    head = f"the gamma route cannot evaluate {what}: its integrand at t={t!r}"
    if math.isfinite(log_f):
        return IntegrandError(f"{head} passes the double range, and so does the value", t)
    return UnsupportedMethodError(
        f'{head} has a parent log-density of {log_f!r}; use method="quadrature"')


def _kerridge_expectation(measure: str, parent: Distribution, spec: RecordSpec,
                          config: QuadratureConfig):
    """E[-log f(x(T))] over T ~ Gamma(n, rate k)."""
    what = f"record kerridge expectation on {parent.name}"
    try:
        res = gamma_expectation(
            lambda t: -parent.log_pdf_at_tail(spec.side, t), spec.n, spec.k, config
        )
    except QuadratureError as exc:
        raise _gamma_failure(parent, spec.side, what, exc) from exc
    return MeasureResult(res.value, "gamma_expectation", res.abs_error_estimate)


def _cumulative_expectation(measure: str, parent: Distribution, spec: RecordSpec,
                            config: QuadratureConfig):
    """Expectation form: the integral over t > 0 of t Q(n, kt) e^-t / f(x(t)).

    e^-t is g(x(t)), the parent survival function for upper records and
    the cdf for lower ones, so the integrand holds the reciprocal (reversed)
    hazard.  The measure is (1/k^2) sum_{i<n} (i+1) E[g/f] over
    T ~ Gamma(i+2, k); those weighted gamma densities add up to t Q(n, kt).

    The mass need not sit near the gamma mode (on pareto(theta) upper it
    sits near t = n/(k - 1/theta)), so the integral is split at the rung
    of the tail-certification ladder where |t * integrand| peaks and at
    its two neighbours.  Inside that bracket it is split also where 1 - Q
    and Q reach 1e-16: Q(n, kt) falls from 1 to 0 over a few sqrt(n)/k,
    0.3% of the bracket at n = 10^5, which the rule of a piece holding
    that fall against one end does not see.
    """
    n, k, side = spec.n, spec.k, spec.side

    def integrand(t):
        t = np.asarray(t, float)
        expo = -t - np.asarray(parent.log_pdf_at_tail(side, t), float)
        q = _nx.gammaincc(n, k * t)
        out = t * q * np.exp(expo)
        # in logs where Q underflows against e^expo > 1, or e^expo overflows
        logs = (expo > 0.0) & ((q < _TINY) | (expo > _LOG_MAX))
        if np.any(logs):
            tl, ex, log_q = t[logs], expo[logs], np.log(q[logs])
            # where Q underflows, Q = e^-kt times a series whose log is kept
            # apart from -kt: past t ~ 1e17 the sum would round it away
            gone = q[logs] < _TINY
            if np.any(gone):
                log_q[gone] = _log_gamma_series(n, k * tl[gone])
                ex[gone] -= k * tl[gone]
            out[logs] = np.exp(np.log(tl) + log_q + ex)
        return out

    what = f"{MEASURES[measure].label} expectation on {parent.name}"
    edges = gamma_mass_edges(n, k)
    with np.errstate(all="ignore"):
        try:
            peak = _certify_integrable_tail(integrand, (0.0, math.inf), what)
        except DivergenceError as exc:
            # a rung where log f is not finite refuses the route, as a node does
            finite = np.isfinite(parent.log_pdf_at_tail(side, _measures._LADDER))
            if finite.all():
                raise
            t = float(_measures._LADDER[np.argmin(finite)])
            raise _gamma_failure(parent, side, what, IntegrandError("", t)) from exc
        cuts = sorted({0.0, 0.5 * peak, peak, 2.0 * peak}
                      | {e for e in edges if 0.5 * peak < e < 2.0 * peak}) + [math.inf]
        try:
            parts = integrate_each(integrand, list(zip(cuts, cuts[1:])), config)
        except QuadratureError as exc:
            raise _gamma_failure(parent, side, what, exc) from exc
        # the exponent rounds by about eps (t + |log f(t)|) relative to the
        # integrand, which no rule estimate sees; the mass lies below 2 * peak
        reach = 2.0 * peak + abs(float(parent.log_pdf_at_tail(side, 2.0 * peak)))
    value = sum(p.value for p in parts)
    err = sum(p.abs_error_estimate for p in parts) + _EPS * reach * abs(value)
    return MeasureResult(value, "gamma_expectation", err)


@dataclass(frozen=True)
class _Measure:
    """One record measure.  Its quadrature route is ``generic``, its
    two-distribution form in :mod:`recinacc.measures`, on the record law
    and the parent; ``gamma``, where there is one, is its t-space route."""

    label: str  # its name in messages
    generic: str
    side: str | None = None  # the one record side it is defined on
    gamma: Callable[..., MeasureResult] | None = None  # (measure, parent, spec, config)
    monte_carlo: bool = False  # whether oracle.mc_measure estimates it


# every record measure, in the order the CLI lists them
MEASURES = {
    "kerridge": _Measure("kerridge", "kerridge", None, _kerridge_expectation, True),
    "cri": _Measure("residual inaccuracy", "cumulative_residual_inaccuracy", "upper",
                    _cumulative_expectation, True),
    "cpi": _Measure("past inaccuracy", "cumulative_past_inaccuracy", "lower",
                    _cumulative_expectation, True),
    "cpij": _Measure("cumulative past extropy inaccuracy", "cumulative_past_extropy_inaccuracy"),
    "crij": _Measure("cumulative residual extropy inaccuracy",
                     "cumulative_residual_extropy_inaccuracy"),
    "kij": _Measure("extropy inaccuracy", "extropy_inaccuracy"),
    "kl": _Measure("kl divergence", "kl_divergence"),
    "relinfo": _Measure("relative information", "relative_information"),
}
_METHODS = ("auto", *_measures._METHODS)


def _validate(measure: str, spec: RecordSpec, method: str) -> _Measure:
    """``measure``'s row, once ``method`` and ``spec``'s side suit it.  A
    closed form depends on the parent, so the dispatcher checks that."""
    row = MEASURES.get(measure) if isinstance(measure, str) else None
    if row is None:
        raise ParameterError(f"measure must be one of {tuple(MEASURES)}, got {measure!r}")
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if row.side is not None:
        _require_side(spec, row.side, measure)
    if (row.gamma is None and method == "gamma_expectation"
            or not row.monte_carlo and method == "monte_carlo"):
        raise UnsupportedMethodError(f"no {method} route is known for {row.label}")
    return row


def _dispatch(
    measure: str,
    parent: Distribution,
    spec: RecordSpec,
    method: str,
    config: QuadratureConfig,
) -> MeasureResult:
    """The one route dispatch.  ``auto`` takes the family's closed form
    where it has one on this side; else the measure's gamma route where
    it has one; else quadrature, which also stands in where the gamma
    route refuses the parent (a custom law whose inverse rounds onto a
    support end)."""
    row = _validate(measure, spec, method)
    if method in ("auto", "closed_form"):
        form = (parent.closed_forms or {}).get(measure)
        value = None if form is None else form(spec.side, spec.n, spec.k)
        if value is not None:
            return MeasureResult(value, "closed_form", 0.0)
        if method == "closed_form":
            raise UnsupportedMethodError(f"no closed form is known for {row.label} on {parent.name}")
        if row.gamma is not None:
            with suppress(UnsupportedMethodError):
                return row.gamma(measure, parent, spec, config)
        method = "quadrature"
    if method == "quadrature":
        # looked up at call time, so that a wrapper installed on measures sees it
        generic = getattr(_measures, row.generic)
        return generic(record_distribution(parent, spec), parent, config)
    if method == "gamma_expectation":
        return row.gamma(measure, parent, spec, config)
    from .oracle import mc_measure

    return mc_measure(RecordMeasureRequest(parent, spec, measure))


def kerridge_record(
    parent: Distribution,
    spec: RecordSpec,
    method: str = "auto",
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Kerridge inaccuracy of assuming the parent density for record data."""
    return _dispatch("kerridge", parent, spec, method, config)


def residual_record_inaccuracy(
    parent: Distribution,
    spec: RecordSpec,
    method: str = "auto",
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Cumulative residual inaccuracy between the upper record and parent."""
    return _dispatch("cri", parent, spec, method, config)


def past_record_inaccuracy(
    parent: Distribution,
    spec: RecordSpec,
    method: str = "auto",
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Cumulative past inaccuracy between the lower record and parent."""
    return _dispatch("cpi", parent, spec, method, config)


# ---------------------------------------------------------------------------
# representation forms of the cumulative measures


def residual_inaccuracy_mean_difference_form(
    parent: Distribution,
    spec: RecordSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Representation through record means: sum_i ((i+1)/k) (m_{i+2} - m_{i+1}).

    m_j is the integral of the j-th upper k-record's survival function;
    a common lower integration limit makes the differences shift-free.
    """
    _require_side(spec, "upper", "mean-difference form")
    n, k = spec.n, spec.k
    mu: list[float] = []
    mu_err: list[float] = []
    for j in range(1, n + 2):
        rspec = RecordSpec("upper", j, k)
        res = _quad(
            lambda x, _rspec=rspec: np.asarray(record_survival(parent, _rspec, x), float),
            parent.support,
            config,
            f"record mean (index {j})",
        )
        mu.append(res.value)
        mu_err.append(res.abs_error_estimate)
    total = sum((i + 1) / k * (mu[i + 1] - mu[i]) for i in range(n))
    err = sum((i + 1) / k * (mu_err[i + 1] + mu_err[i]) for i in range(n))
    return MeasureResult(total, "quadrature", err)


def _hazard_inner_integrand(parent: Distribution, n: int, k: int, rate: float, power: int):
    """The hazard forms' inner integrand over the cumulative hazard u:

        sum_{i<n} (ku)^(i+power) / i! * e^(-rate u) / f(x(u)),

    x(u) the upper record-scale image of u, with log f(x(u)) from the
    parent's ``log_pdf_at_tail``.  Form one's tail integrand has rate
    k + 1 and power 0, form two's head integrand rate 1 and power 1; the
    n terms of either share their range, so they are integrated as one
    sum.  Points where log f is not finite (a custom law's inverse rounds
    onto a support end) are dropped.
    """
    log_k = math.log(k)
    log_fact = [math.lgamma(i + 1) for i in range(n)]

    def inner(u):
        u = np.asarray(u, float)
        with np.errstate(all="ignore"):
            lp = np.asarray(parent.log_pdf_at_tail("upper", u), float)
            base = -rate * u - lp
            log_ku = log_k + np.log(u)
            acc = np.zeros(u.shape)
            for i in range(n):
                acc += np.exp(base + (i + power) * log_ku - log_fact[i])
        return np.where(np.isfinite(lp), acc, 0.0)[()]

    return inner


def _knot_chain(integrals, anchor: float, cfg: QuadratureConfig):
    """Running integral between a fixed ``anchor`` and query points.

    Returns ``at(xs)``, the integrals over the spans between ``anchor``
    and each of ``xs``, answered as if one by one in the order given.
    Every answered query becomes a knot, and a new query only integrates
    the gap to the nearest knot on the anchor's side of it, adding that
    knot's value.  ``at`` plans every query's gap by that insertion
    order, integrates all the gaps in one call of ``integrals``, and then
    settles the values in query order.  ``integrals(spans)`` integrates
    over each (a, b), a < b, and returns the results in order or raises
    the first failure; an anchor of -inf or below all queries chains
    upward, an anchor of +inf or above all queries chains downward.

    Each knot carries the summed error estimate of its chain.  Where a
    new knot's sum would exceed the tolerance ``cfg`` holds one direct
    integral to, the knot is integrated directly from the anchor instead,
    so no knot is less accurate than a direct integral.  Nothing is ever
    subtracted: a downward chain adds tail pieces, which keeps a small
    far-tail value free of cancellation.  A call that raises leaves the
    chain as it was.
    """
    knots = [anchor]
    known = {anchor: (0.0, 0.0)}  # knot -> (value, error)

    def span(a, b):
        return (a, b) if a < b else (b, a)

    def at(xs) -> list[float]:
        planned = knots.copy()
        bases, gaps = [], []
        for x in xs:
            # nearest knot between x and the anchor, inclusive; the anchor
            # itself always qualifies
            if anchor < x:
                j = bisect.bisect_right(planned, x) - 1
                slot = j + 1
            else:
                j = bisect.bisect_left(planned, x)
                slot = j
            bases.append(planned[j])
            if planned[j] != x:
                gaps.append(span(planned[j], x))
                planned.insert(slot, x)
        pieces = iter(integrals(gaps))
        out = []
        for x, base in zip(xs, bases):
            if base != x:
                piece = next(pieces)
                value, err = known[base]
                value, err = value + piece.value, err + piece.abs_error_estimate
                if base != anchor and err > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
                    [direct] = integrals([span(anchor, x)])
                    value, err = direct.value, direct.abs_error_estimate
                known[x] = (value, err)
            out.append(known[x][0])
        knots[:] = planned
        return out

    return at


# double integrals: keep the budgets modest, agreement is checked at 1e-6
_HAZARD_QUADRATURE = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=400)


def residual_inaccuracy_hazard_forms(
    parent: Distribution,
    spec: RecordSpec,
    config: QuadratureConfig = _HAZARD_QUADRATURE,
) -> tuple[MeasureResult, MeasureResult]:
    """Two double-integral representations weighted by hazard quantities.

    Form one integrates the parent hazard rate against tail integrals of
    (-k log survival)^i survival^k; form two integrates the density
    weight survival^(k-1) pdf against head integrals of
    (-k log survival)^(i+1).  Both must agree with the direct path.  The
    outer integrals run to ``config``, the inner ones to a tenth of its
    tolerances.

    Both forms run over the cumulative hazard s = -log S(x), in which
    h(x) dx = ds and S^(k-1) f dx = e^(-ks) ds: form one is the integral
    over s > 0 of T(s), the integral of ``_hazard_inner_integrand`` (rate
    k + 1, power 0) from s to infinity, and form two the integral of
    e^(-ks) H(s), H(s) that of the integrand with rate 1 and power 1 from
    0 to s.  Neither evaluates the parent in x: a bounded law's record
    mass sits a few float spacings below its upper end, which x-space
    nodes do not resolve, and a heavy tail spreads it so thinly there
    that the integrator can declare convergence without sampling it.

    Inner integrals are chained over knots (see ``_knot_chain``) within
    one call.  Form two keeps knots s with H(s), anchored at H(0) = 0,
    and visits each batch of outer nodes in ascending s, so a node
    integrates only the gap from the nearest knot below it; nodes where
    e^(-ks) underflows are skipped, since H grows without bound there.
    Form one keeps knots s with T(s), anchored at T(inf) = 0, and visits
    the nodes in descending s, so a node integrates from s up to the
    nearest knot above it; only a node past the largest knot runs a full
    (s, inf) tail integral with its tail certification.  A knot whose
    chained error estimate would exceed the inner tolerance is integrated
    directly from its anchor instead.  The gaps of all nodes of one outer
    integrand call are integrated as one batch (``integrate_each``), so
    they share their integrand calls; each gap's result, and so each
    node's value, is the one it gets when the nodes are visited one by
    one.  A node's value depends, within the inner tolerance, on the
    knots laid before it, so the outer integrands are elementwise only to
    that tolerance, and they are integrated without look-ahead
    (``elementwise=False``): a node of a panel the refinement never
    consumed would lay a knot and move later values.

    This is a change of variable, not Fubini: each form stays an outer
    integral of inner integrals over s, so both remain arithmetically
    distinct from the direct single integral they are checked against.
    """
    _require_side(spec, "upper", "hazard double-integral forms")
    n, k = spec.n, spec.k
    inner_cfg = replace(config, abs_tol=config.abs_tol / 10, rel_tol=config.rel_tol / 10)

    def outer(rate, power, anchor, weight, what):
        # weight(s) times the inner integral between the anchor and s, the
        # nodes of a call visited from the anchor's side
        inner = _hazard_inner_integrand(parent, n, k, rate, power)
        at = _knot_chain(lambda spans: _quad_each(inner, spans, inner_cfg, what),
                         anchor, inner_cfg)

        def outer_integrand(s):
            s = np.asarray(s, float)
            flat = np.atleast_1d(s)
            order = np.argsort(flat)
            if anchor > 0.0:
                order = order[::-1]
            w = weight(flat[order])
            live = w != 0.0
            vals = np.zeros(flat.shape)
            vals[order[live]] = w[live] * np.array(at(flat[order[live]].tolist()))
            return vals.reshape(s.shape)[()]

        return outer_integrand

    # The outer head (0, 1) and mapped tail (1, inf) share integrand calls,
    # so one call may hold nodes on both sides of s = 1.  Their values are
    # still those of running head then tail only because the outer tail
    # certification probes s = 1 first and so lays a knot at the split in
    # each form's chain before either piece runs: no node then chains from
    # a knot on the other side.
    one = _quad(outer(k + 1.0, 0, math.inf, np.ones_like, "hazard-form tail integral"),
                (0.0, math.inf), config, "hazard-weighted form one", elementwise=False)
    two = _quad(outer(1.0, 1, 0.0, lambda s: np.exp(-k * s), "hazard-form head integral"),
                (0.0, math.inf), config, "hazard-weighted form two", elementwise=False)
    return one, two


def past_inaccuracy_cdf_difference_form(
    parent: Distribution,
    spec: RecordSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Representation through cdf gaps of successive lower records."""
    _require_side(spec, "lower", "cdf-difference form")
    n, k = spec.n, spec.k
    specs = [RecordSpec("lower", j, k) for j in range(1, n + 2)]

    def integrand(x):
        x = np.asarray(x, float)
        cdfs = [np.asarray(record_cdf(parent, s, x), float) for s in specs]
        acc = np.zeros(x.shape)
        for i in range(n):
            acc += (i + 1) / k * (cdfs[i + 1] - cdfs[i])
        return acc[()]

    return _quad(integrand, parent.support, config, "cdf-difference form")


# ---------------------------------------------------------------------------
# scale/shift behavior and requests


def scale_shift_check(
    parent: Distribution,
    spec: RecordSpec,
    a: float,
    b: float,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[MeasureResult, MeasureResult]:
    """Residual record inaccuracy scales linearly under x -> a*x + b.

    Returns the measure on the transformed parent next to a times the
    measure on the original; the two must agree.  The left side takes the
    quadrature route: under ``auto`` both sides would take the gamma
    route, whose integrand on the transformed parent is the original's
    shifted by log a, and the check would compare it with itself.
    """
    _require_side(spec, "upper", "scale-shift check")
    transformed = affine_transform(parent, a, b)
    lhs = residual_record_inaccuracy(transformed, spec, "quadrature", config)
    base = residual_record_inaccuracy(parent, spec, "auto", config)
    rhs = MeasureResult(a * base.value, base.method, a * base.abs_error_estimate)
    return lhs, rhs


def compute_record_measure(
    request: RecordMeasureRequest,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    return _dispatch(request.measure, request.parent, request.spec, request.method, config)
