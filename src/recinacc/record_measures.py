"""Inaccuracy measures between a record distribution and its parent.

Three measures are supported, each with several evaluation paths that
must agree and are tested against one another:

* kerridge: density inaccuracy of assuming the parent density while the
  data are record values.  The general path is a gamma-weighted
  expectation through the record representation U = S^{-1}(e^{-T}),
  T ~ Gamma(n, rate k), with plain x-space quadrature as a cross-check.
* cri: cumulative residual inaccuracy between the upper record's
  survival function and the parent's.
* cpi: cumulative past inaccuracy between the lower record's cdf and the
  parent's.

The quadrature route of each measure is its generic two-distribution
measure (:mod:`recinacc.measures`) on the record law and the parent.

Closed forms belong to the parent: a catalog family carries them in
``Distribution.closed_forms``, and the one dispatcher (``_dispatch``,
keyed by measure and method) takes them under ``auto`` where they exist.
Every route is written once for both record sides.

The cri/cpi measures additionally have representation forms (mean
differences, hazard-weighted double integrals, cdf differences) exposed
as separate functions so the identity checks exercise genuinely
different arithmetic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.special as _sc

from .distributions import Distribution, affine_transform
from .errors import (
    DivergenceError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    UnsupportedMethodError,
)
from . import measures as _measures
from .measures import MeasureResult, _quad
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    gamma_expectation,
)
from .records import (
    RecordSpec,
    gamma_transform_point,
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

_MEASURES = ("kerridge", "cri", "cpi")
_REQUEST_METHODS = ("auto", "closed_form", "quadrature", "gamma_expectation", "monte_carlo")


@dataclass(frozen=True)
class RecordMeasureRequest:
    """What to compute: which parent, which record sequence, which measure.

    The cumulative measures are tied to a side: cri compares upper-record
    and parent survival functions, cpi compares lower-record and parent
    cdfs, so requests mixing them up are rejected here rather than
    producing a meaningless number.
    """

    parent: Distribution
    spec: RecordSpec
    measure: str
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.measure not in _MEASURES:
            raise ParameterError(f"measure must be one of {_MEASURES}, got {self.measure!r}")
        if self.method not in _REQUEST_METHODS:
            raise ParameterError(
                f"method must be one of {_REQUEST_METHODS}, got {self.method!r}"
            )
        if self.measure == "cri" and self.spec.side != "upper":
            raise ParameterError("cri is defined for upper records; got side 'lower'")
        if self.measure == "cpi" and self.spec.side != "lower":
            raise ParameterError("cpi is defined for lower records; got side 'upper'")


# ---------------------------------------------------------------------------
# numeric helpers


def _finite_cap(fn, t_hi: float = 700.0) -> float:
    """Largest probe point where fn(t) still evaluates to a finite number.

    The t -> x round trip behind these integrands runs through exp(-t), so
    far enough out the intermediate either underflows to 0 or overflows to
    inf even though the true value is moderate.  Capping t at the last
    finite probe freezes the integrand on a region whose gamma weight is
    negligible (below exp(-cap)); the discarded mass is folded into the
    reported error estimate by the caller.
    """
    t = t_hi
    while t > 4.0:
        with np.errstate(all="ignore"):
            v = np.asarray(fn(np.asarray([t], float)), float)
        if np.all(np.isfinite(v)):
            return t
        t /= 2.0
    return t


def _capped(fn, cap: float):
    def capped_fn(t):
        return fn(np.minimum(np.asarray(t, float), cap))

    return capped_fn


def _cap_charge(charge: float, value: float, cap: float, config: QuadratureConfig, what: str):
    """Return ``charge``, the error charged for the gamma mass past the cap.
    A charge above the tolerance is no bound (from n = 580 at k = 1 on
    exp(1)), so the route refuses."""
    if charge > max(config.abs_tol, config.rel_tol * abs(value)):
        raise UnsupportedMethodError(
            f"the gamma route cannot certify {what}: the record mass past t={cap:g}, "
            f"the last probe where the integrand is finite, is charged {charge:.3g}; "
            "use method 'quadrature'"
        )
    return charge


# ---------------------------------------------------------------------------
# routes: one implementation per (measure, method), each side-parametrised


def _require_side(spec: RecordSpec, side: str, what: str) -> None:
    if spec.side != side:
        raise ParameterError(f"{what} is defined for {side} records, got {spec.side!r}")


# the cumulative measure defined on each record side, as messages name it
_CUMULATIVE_LABEL = {"upper": "residual", "lower": "past"}


def _kerridge_expectation(parent: Distribution, spec: RecordSpec, config: QuadratureConfig):
    def surprise(t):
        x = np.asarray(gamma_transform_point(parent, spec.side, t), float)
        return -np.asarray(parent.log_pdf(x), float)

    cap = _finite_cap(surprise)
    charge = float(_sc.gammaincc(spec.n, spec.k * cap))
    what = f"record kerridge expectation on {parent.name}"
    # as in _quad: a breakdown means the integral could not be certified finite
    try:
        res = gamma_expectation(_capped(surprise, cap), spec.n, spec.k, config)
    except NonConvergenceError as exc:
        # a cap short of the record mass (x(t) rounding onto a support end)
        # stalls the ladder too: then the cap failed, not the integral
        _cap_charge(charge, exc.partial_value, cap, config, what)
        raise DivergenceError(
            f"{what} did not converge and is likely divergent ({exc})",
            partial_value=exc.partial_value,
        ) from exc
    except IntegrandError as exc:
        raise DivergenceError(f"{what} could not be evaluated ({exc})") from exc
    err = res.abs_error_estimate + _cap_charge(charge, res.value, cap, config, what)
    return MeasureResult(res.value, "gamma_expectation", err)


def _cumulative_expectation(parent: Distribution, spec: RecordSpec, config: QuadratureConfig):
    """Expectation form: the integral over t > 0 of t Q(n, kt) e^-t / pdf(x(t)).

    e^-t is g(x(t)), the parent survival function for upper records and
    the cdf for lower ones, so the integrand holds the reciprocal (reversed)
    hazard.  The measure is (1/k^2) sum_{i<n} (i+1) E[g/pdf] over
    T ~ Gamma(i+2, k); those weighted gamma densities add up to t Q(n, kt).
    """
    n, k = spec.n, spec.k

    def reciprocal_hazard(t):
        x = np.asarray(gamma_transform_point(parent, spec.side, t), float)
        return np.exp(-t) / np.asarray(parent.pdf(x), float)

    cap = _finite_cap(reciprocal_hazard)
    capped = _capped(reciprocal_hazard, cap)

    def integrand(t):
        return t * _sc.gammaincc(n, k * t) * capped(t)

    what = f"{_CUMULATIVE_LABEL[spec.side]} inaccuracy expectation on {parent.name}"
    # a non-finite value still surfaces, as an IntegrandError in _quad
    with np.errstate(all="ignore"):
        res = _quad(integrand, (0.0, math.inf), config, what)
    # each term is charged its gamma mass past the cap, where capped() is frozen
    charge = sum((i + 1) / k**2 * float(_sc.gammaincc(i + 2, k * cap)) for i in range(n))
    err = res.abs_error_estimate + _cap_charge(charge, res.value, cap, config, what)
    return MeasureResult(res.value, "gamma_expectation", err)


# each measure's generic form, named in recinacc.measures and looked up
# there at call time, so that a wrapper installed on that module sees it
_GENERIC = {
    "kerridge": "kerridge",
    "cri": "cumulative_residual_inaccuracy",
    "cpi": "cumulative_past_inaccuracy",
}


def _quadrature(measure: str, parent: Distribution, spec: RecordSpec, config: QuadratureConfig):
    generic = getattr(_measures, _GENERIC[measure])
    return generic(record_distribution(parent, spec), parent, config)


def _monte_carlo(measure: str, parent: Distribution, spec: RecordSpec, config: QuadratureConfig):
    from .oracle import McConfig, mc_measure

    return mc_measure(RecordMeasureRequest(parent, spec, measure), McConfig())


_ROUTES = {
    ("kerridge", "gamma_expectation"): _kerridge_expectation,
    ("cri", "gamma_expectation"): _cumulative_expectation,
    ("cpi", "gamma_expectation"): _cumulative_expectation,
    **{(measure, "quadrature"): partial(_quadrature, measure) for measure in _MEASURES},
    **{(measure, "monte_carlo"): partial(_monte_carlo, measure) for measure in _MEASURES},
}
_DEFAULT_ROUTE = {"kerridge": "gamma_expectation", "cri": "quadrature", "cpi": "quadrature"}
_MEASURE_LABEL = {"kerridge": "kerridge", "cri": "residual inaccuracy", "cpi": "past inaccuracy"}


def _dispatch(
    measure: str,
    parent: Distribution,
    spec: RecordSpec,
    method: str,
    config: QuadratureConfig,
) -> MeasureResult:
    """The one route dispatch: ``auto`` takes the family's closed form
    where it has one on this side, and the measure's default route
    otherwise."""
    if method in ("auto", "closed_form"):
        form = (parent.closed_forms or {}).get(measure)
        value = None if form is None else form(spec.side, spec.n, spec.k)
        if value is not None:
            return MeasureResult(value, "closed_form", 0.0)
        if method == "closed_form":
            raise UnsupportedMethodError(
                f"no closed form is known for {_MEASURE_LABEL[measure]} on {parent.name}"
            )
        method = _DEFAULT_ROUTE[measure]
    route = _ROUTES.get((measure, method))
    if route is None:
        raise UnsupportedMethodError(f"unknown method {method!r}")
    return route(parent, spec, config)


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
    _require_side(spec, "upper", "residual record inaccuracy")
    return _dispatch("cri", parent, spec, method, config)


def past_record_inaccuracy(
    parent: Distribution,
    spec: RecordSpec,
    method: str = "auto",
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Cumulative past inaccuracy between the lower record and parent."""
    _require_side(spec, "lower", "past record inaccuracy")
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


def _hazard_tail_integrand(parent: Distribution, n: int, k: int):
    """Form one's inner integrand in cumulative-hazard space.

    sum_i (ks)^i/i! * e^{-(k+1)s} / f(x(s)), x(s) the record-scale image
    of the cumulative hazard s.  Points where the transformed abscissa has
    collapsed onto a support endpoint carry true mass below working
    precision and are dropped.
    """
    log_k = math.log(k)
    log_fact = [math.lgamma(i + 1) for i in range(n)]

    def tail_sum(s):
        s = np.asarray(s, float)
        flat = np.atleast_1d(s).astype(float)
        out = np.zeros(flat.shape)
        live = flat < 700.0
        if np.any(live):
            sl = flat[live]
            with np.errstate(all="ignore"):
                x = np.asarray(gamma_transform_point(parent, "upper", sl), float)
                lp = np.asarray(parent.log_pdf(x), float)
                base = -(k + 1.0) * sl - lp
                ls = np.log(sl)
                acc = np.zeros(sl.shape)
                for i in range(n):
                    acc += np.exp(base + i * (log_k + ls) - log_fact[i])
            out[live] = np.where(np.isfinite(lp), acc, 0.0)
        return out.reshape(s.shape)[()]

    return tail_sum


def _hazard_head_integrand(parent: Distribution, n: int, k: int):
    """Form two's inner integrand: sum_i (-k log survival)^(i+1) / i!.

    The n head integrals of form two share their range, so they are
    integrated as this one sum.  A vanished survival function (past the
    upper endpoint) is reported as +inf so that an inner range reaching
    there surfaces as a divergence rather than a silent zero.
    """
    log_k = math.log(k)
    log_fact = [math.lgamma(i + 1) for i in range(n)]

    def head_sum(x):
        lg = np.asarray(parent.log_survival(x), float)
        out = np.zeros(lg.shape)
        m = np.isfinite(lg) & (lg < 0.0)
        if np.any(m):
            log_ky = log_k + np.log(-lg[m])
            acc = np.zeros(log_ky.shape)
            for i in range(n):
                acc += np.exp((i + 1) * log_ky - log_fact[i])
            out[m] = acc
        out[~np.isfinite(lg)] = np.inf
        return out[()]

    return head_sum


def _knot_chain(integral, anchor: float, cfg: QuadratureConfig):
    """Running integral between a fixed ``anchor`` and query points.

    Returns ``at(x)``, the integral over the span between ``anchor`` and
    ``x``.  Every answered query becomes a knot, and a new query only
    integrates the gap to the nearest knot on the anchor's side of it,
    adding that knot's value.  ``integral(a, b)`` integrates over (a, b)
    with a < b; an anchor of -inf or below all queries chains upward, an
    anchor of +inf or above all queries chains downward.

    Each knot carries the summed error estimate of its chain.  Where a
    new knot's sum would exceed the tolerance ``cfg`` holds one direct
    integral to, the knot is integrated directly from the anchor instead,
    so no knot is less accurate than a direct integral.  Nothing is ever
    subtracted: a downward chain adds tail pieces, which keeps a small
    far-tail value free of cancellation.
    """
    knots = [anchor]
    values = [0.0]
    errors = [0.0]

    def span(a, b):
        return integral(a, b) if a < b else integral(b, a)

    def at(x: float) -> float:
        # nearest knot between x and the anchor, inclusive; the anchor
        # itself always qualifies
        if anchor < x:
            j = bisect.bisect_right(knots, x) - 1
            slot = j + 1
        else:
            j = bisect.bisect_left(knots, x)
            slot = j
        if knots[j] == x:
            return values[j]
        piece = span(knots[j], x)
        value = values[j] + piece.value
        err = errors[j] + piece.abs_error_estimate
        if knots[j] != anchor and err > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            direct = span(anchor, x)
            value, err = direct.value, direct.abs_error_estimate
        knots.insert(slot, x)
        values.insert(slot, value)
        errors.insert(slot, err)
        return value

    return at


def residual_inaccuracy_hazard_forms(
    parent: Distribution,
    spec: RecordSpec,
    config: QuadratureConfig | None = None,
) -> tuple[MeasureResult, MeasureResult]:
    """Two double-integral representations weighted by hazard quantities.

    Form one integrates the parent hazard rate against tail integrals of
    (-k log survival)^i survival^k; form two integrates the density
    weight survival^(k-1) pdf against head integrals of
    (-k log survival)^(i+1).  Both must agree with the direct path.

    Form one's tail integrals are evaluated after substituting the
    cumulative hazard s for the integration variable.  In x-space a heavy
    tail spreads the mass so thinly that the adaptive integrator can
    declare convergence below its absolute floor without ever sampling
    it; in hazard-space the mass sits against the finite endpoint where
    the first panel sees it.

    Inner integrals are chained over knots (see ``_knot_chain``) within
    one call.  Form two sums its n head pieces into one integrand, keeps
    knots t with H(t) = integral from the lower support end to t, anchored
    at H(lo) = 0, and visits each batch of outer nodes in ascending t, so
    a node integrates only the gap from the nearest knot below it.  Form
    one keeps knots s with T(s) = integral from s to infinity, anchored at
    T(inf) = 0; the cumulative hazard s0 rises with t, so it visits the
    nodes in descending t and integrates from s0 up to the nearest knot
    above it; only a node past the largest knot runs a full (s0, inf)
    tail integral with its tail certification.  A knot whose chained
    error estimate would exceed the inner tolerance is integrated
    directly from its anchor instead.

    This is not Fubini: the outer integral stays over t and the inner
    ones over x (form two) and s (form one), so both forms remain
    arithmetically distinct from the direct single integral they are
    checked against.
    """
    _require_side(spec, "upper", "hazard double-integral forms")
    n, k = spec.n, spec.k
    lo, hi = parent.support
    if config is None:
        # double integrals: keep the budgets modest, agreement is checked
        # at 1e-6 anyway
        outer_cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=400)
        inner_cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=400)
    else:
        outer_cfg = config
        inner_cfg = replace(
            config, abs_tol=0.1 * config.abs_tol, rel_tol=0.1 * config.rel_tol
        )
    tail_sum = _hazard_tail_integrand(parent, n, k)
    head_sum = _hazard_head_integrand(parent, n, k)
    tail = _knot_chain(
        lambda a, b: _quad(tail_sum, (a, b), inner_cfg, "hazard-form tail integral"),
        math.inf,
        inner_cfg,
    )
    head = _knot_chain(
        lambda a, b: _quad(head_sum, (a, b), inner_cfg, "hazard-form head integral"),
        lo,
        inner_cfg,
    )

    def form_one_outer(ts):
        ts = np.asarray(ts, float)
        flat = np.atleast_1d(ts)
        vals = np.empty(flat.shape)
        for j in np.argsort(flat)[::-1]:
            t = flat[j]
            log_s = float(parent.log_survival(t))
            log_dens = float(parent.log_pdf(t))
            if not (math.isfinite(log_s) and math.isfinite(log_dens)):
                vals[j] = 0.0
                continue
            s0 = max(-log_s, 1e-300)
            vals[j] = math.exp(log_dens - log_s) * tail(s0)
        return vals.reshape(ts.shape)[()]

    def form_two_outer(ts):
        ts = np.asarray(ts, float)
        flat = np.atleast_1d(ts)
        vals = np.empty(flat.shape)
        for j in np.argsort(flat):
            t = flat[j]
            dens = float(parent.pdf(t))
            s = float(parent.survival(t))
            weight = s ** (k - 1) * dens
            if weight == 0.0 or not math.isfinite(weight):
                vals[j] = 0.0
                continue
            vals[j] = weight * head(float(t))
        return vals.reshape(ts.shape)[()]

    one = _quad(form_one_outer, (lo, hi), outer_cfg, "hazard-weighted form one")
    two = _quad(form_two_outer, (lo, hi), outer_cfg, "hazard-weighted form two")
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
    measure on the original; the two must agree.  The transformed parent
    never hits a closed form, so the left side exercises the quadrature
    path even when the right side is exact.
    """
    _require_side(spec, "upper", "scale-shift check")
    transformed = affine_transform(parent, a, b)
    lhs = residual_record_inaccuracy(transformed, spec, "auto", config)
    base = residual_record_inaccuracy(parent, spec, "auto", config)
    rhs = MeasureResult(a * base.value, base.method, a * base.abs_error_estimate)
    return lhs, rhs


def compute_record_measure(
    request: RecordMeasureRequest,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    return _dispatch(request.measure, request.parent, request.spec, request.method, config)
