"""Two-distribution inaccuracy and divergence measures.

Every measure compares an *actual* distribution (the one generating the
data) against an *assessed* one (the one an analyst asserts).  All take
plain :class:`~recinacc.distributions.Distribution` values, so record
laws built by :func:`~recinacc.records.record_distribution` pass through
unchanged; the record-specialized fast paths live in
:mod:`recinacc.record_measures`.

Each measure is one weighted integral: a weight from the actual law
(density, survival function or cdf) times a term from the assessed law.
Density-weighted measures (kerridge, kl_divergence, relative_information,
extropy_inaccuracy) integrate over the actual support.  The cumulative
measures come in residual (survival) and past (cdf) mirror pairs, each
pair written once and parameterised by side; their weights stay nonzero
outside the actual support, so those run over the union of both
supports with explicit guards where the weight vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _interior_probes
from .errors import (
    DivergenceError,
    NonConvergenceError,
    ParameterError,
    QuadratureError,
    SupportError,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate_each

__all__ = [
    "MeasureResult",
    "kerridge",
    "extropy_inaccuracy",
    "cumulative_residual_extropy_inaccuracy",
    "cumulative_past_extropy_inaccuracy",
    "kl_divergence",
    "relative_information",
    "cumulative_residual_inaccuracy",
    "cumulative_past_inaccuracy",
    "shannon_entropy",
    "cumulative_residual_extropy",
    "cumulative_past_extropy",
]

_METHODS = ("closed_form", "quadrature", "gamma_expectation", "monte_carlo")

# below this, a survival/cdf weight is treated as exactly 0: the limit
# u log u -> 0 would otherwise surface as 0 * inf = nan at support edges
_WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class MeasureResult:
    """A measure value together with how it was obtained.

    ``abs_error_estimate`` is an absolute error bound reported by the
    evaluation path; exact closed forms carry 0.
    """

    value: float
    method: str
    abs_error_estimate: float

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ParameterError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not math.isfinite(self.value):
            raise ParameterError(f"measure value must be finite, got {self.value!r}")
        if not (self.abs_error_estimate >= 0.0 and math.isfinite(self.abs_error_estimate)):
            raise ParameterError(
                f"abs_error_estimate must be finite and >= 0, got {self.abs_error_estimate!r}"
            )
        if self.method == "closed_form" and self.abs_error_estimate != 0.0:
            raise ParameterError("closed_form results must carry abs_error_estimate 0")


def _require_positive_inside(actual: Distribution, fn, name: str, what: str,
                             end: float = math.nan) -> None:
    """``fn`` (the assessed law's ``name``) must be positive strictly
    inside the actual support, probed where the actual quantile puts it.
    A probe that rounded onto ``end``, where fn is 0 by definition, is
    not counted."""
    probes = _interior_probes(actual.quantile)
    bad = ~(np.asarray(fn(probes), float) > 0.0) & (probes != end)
    if np.any(bad):
        x = float(probes[bad][0])
        raise SupportError(
            f"{what} diverges: assessed {name} is 0 at x={x!r} inside the actual support"
        )


def _require_density_cover(actual: Distribution, assessed: Distribution, what: str) -> None:
    """The assessed law must put density wherever the actual one does.

    The support intervals are compared at the endpoints and the assessed
    density is probed strictly inside; a zero at a shared endpoint is
    fine (an integrable log singularity), a zero anywhere interior makes
    the defining integral infinite.
    """
    lo_x, hi_x = actual.support
    lo_y, hi_y = assessed.support
    if lo_y > lo_x or hi_y < hi_x:
        raise SupportError(
            f"{what} diverges: assessed support ({lo_y}, {hi_y}) does not cover "
            f"actual support ({lo_x}, {hi_x})"
        )
    _require_positive_inside(actual, assessed.pdf, "density", what)


# Probe ladder for tail-decay certification: x0 * 2^j up to ~1.6e60 * x0.
_LADDER = 2.0 ** np.arange(201)


def _certify_integrable_tail(fn, interval, what: str, *, whole_ladder=False) -> float:
    """Reject integrands that decay no faster than 1/x toward an infinite end.

    Floating-point underflow can truncate a divergent tail to exact zeros
    far out (a Pareto survival weight underflows near 1e154), and adaptive
    quadrature then converges to a plausible-looking but meaningless
    number.  Probing x*f(x) on a geometric ladder catches this long before
    the underflow horizon.  Slowly convergent tails between x^-1 and
    roughly x^-1.04 are rejected too: they cannot be certified finite by
    sampling, and the error type says so.

    The verdict and its message are the whole ladder's, 201 rungs per
    infinite end, but ``fn`` is called first on the last five alone:
    they decide the check, and where |x f| is 0 on all five it passes
    without the other 196, which are otherwise evaluated in one more call
    (no point twice).  ``whole_ladder`` evaluates all 201 in one call, for
    a caller that reads the return value: the |x| of the rung where
    |x f(x)| peaks on the last ladder probed (1 if none is).
    """

    def scaled(xs):
        t = np.abs(xs) * np.asarray(fn(xs), float)
        return np.where(np.isfinite(t), np.abs(t), math.inf)

    lo, hi = interval
    rung = 1.0
    sides = []
    if math.isinf(hi):
        sides.append(1.0)
    if math.isinf(lo):
        sides.append(-1.0)
    first = 0 if whole_ladder else len(_LADDER) - 5
    for sign in sides:
        anchor = lo if sign > 0 else hi
        x0 = max(1.0, abs(anchor) + 1.0) if math.isfinite(anchor) else 1.0
        xs = sign * x0 * _LADDER
        t = scaled(xs[first:])
        if first and t.any():
            t = np.concatenate([scaled(xs[:first]), t])
        # five zeros give the first rung, as a ladder of zeros does
        rung = float(abs(xs[np.argmax(t)]))
        peak = float(np.max(t))
        if peak == 0.0:
            continue
        tail = float(np.max(t[-5:]))
        # inf > 1e-8 * inf is False: an overflowing last rung is divergent too
        if tail > 1e-8 * peak or math.isinf(tail):
            raise DivergenceError(
                f"{what} appears divergent: the integrand decays no faster than "
                f"1/x toward {'+' if sign > 0 else '-'}inf "
                f"(x*f at |x|={abs(xs[-1]):.3g} is {tail:.3g}, peak {peak:.3g})"
            )
    return rung


def _diverged(exc: QuadratureError, what: str) -> DivergenceError:
    """A quadrature failure as the DivergenceError the measures raise:
    a breakdown means the integral could not be certified finite."""
    if isinstance(exc, NonConvergenceError):
        return DivergenceError(
            f"{what} did not converge and is likely divergent "
            f"(partial value {exc.partial_value!r})",
            partial_value=exc.partial_value,
        )
    return DivergenceError(f"{what} has a non-integrable singularity: {exc}")


def _quad_each(fn, intervals, config: QuadratureConfig, what, *, elementwise=True,
               indexed=False):
    """Certify the tail of ``fn`` on each interval with an infinite end
    (``_certify_integrable_tail``, which calls ``fn`` on the last five
    rungs of the end's ladder, and on the 196 others only where one of
    the five is not 0) and integrate it there, the integrals sharing
    integrand calls (``integrate_each``, which takes ``elementwise`` and
    ``indexed``); a failed integration becomes a DivergenceError
    (``_diverged``).  With ``indexed`` the integral over interval j is
    that of fn(x, j), whose tail is certified as such, and ``what`` is a
    list of one name per interval for the messages.

    Returns the IntegrationResults in order, or raises the failure of the
    first interval that fails its tail certification or its integration:
    for an ``fn`` that returns rather than raises, the outcome of one
    interval after another.  No interval after a failed certification is
    integrated.
    """
    names = what if indexed else [what] * len(intervals)
    certified = []
    failure = None
    for j, interval in enumerate(intervals):
        if math.isinf(interval[0]) or math.isinf(interval[1]):
            try:
                _certify_integrable_tail((lambda xs: fn(xs, j)) if indexed else fn,
                                         interval, names[j])
            except DivergenceError as exc:
                failure = exc
                break
        certified.append(interval)
    try:
        results = integrate_each(fn, certified, config, elementwise=elementwise,
                                 indexed=indexed)
    except QuadratureError as exc:
        raise _diverged(exc, names[exc.interval]) from exc
    if failure is not None:
        raise failure
    return results


def _quad(fn, interval, config: QuadratureConfig, what: str, *,
          elementwise=True) -> MeasureResult:
    [res] = _quad_each(fn, [interval], config, what, elementwise=elementwise)
    return MeasureResult(res.value, "quadrature", res.abs_error_estimate)


def _weighted_integral(weight, term, scale: float, floor: float, interval,
                       config: QuadratureConfig, what: str) -> MeasureResult:
    """The skeleton of every measure here: the integral over ``interval``
    of scale * weight(x) * term(x, weight(x)).

    ``weight`` is a function of the actual law (density, survival or
    cdf), ``term`` one of the assessed law.  A point whose weight is at
    or below ``floor`` adds exactly 0, so the term is never multiplied
    in where the weight has vanished (a log term would give 0 * inf).
    """

    def integrand(x):
        w = np.asarray(weight(x), float)
        out = np.zeros(w.shape)
        m = w > floor
        out[m] = scale * w[m] * np.asarray(term(x, w), float)[m]
        return out[()]

    # near a singular end the product can overflow to inf, which the
    # integrator reports as the divergence; set once here, not per call
    with np.errstate(over="ignore"):
        return _quad(integrand, interval, config, what)


def kerridge(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Expected surprise of the assessed density under the actual law.

    With ``assessed is actual`` this is the Shannon entropy; in general
    it is the entropy plus the Kullback-Leibler divergence.
    """
    _require_density_cover(actual, assessed, "kerridge inaccuracy")
    return _weighted_integral(
        actual.pdf, lambda x, fx: assessed.log_pdf(x), -1.0, 0.0, actual.support, config,
        "kerridge inaccuracy",
    )


def extropy_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Negative half the overlap integral of the two densities."""
    return _weighted_integral(
        actual.pdf, lambda x, fx: assessed.pdf(x), -0.5, 0.0, actual.support, config,
        "extropy inaccuracy",
    )


def kl_divergence(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Kullback-Leibler divergence from the assessed law to the actual one."""
    _require_density_cover(actual, assessed, "kl divergence")

    def log_ratio(x, fx):
        log_fx = np.asarray(actual.log_pdf(x), float)
        log_gx = np.asarray(assessed.log_pdf(x), float)
        # -inf - -inf where the actual density vanishes; the weight masks it
        with np.errstate(invalid="ignore"):
            return log_fx - log_gx

    return _weighted_integral(
        actual.pdf, log_ratio, 1.0, 0.0, actual.support, config, "kl divergence"
    )


def relative_information(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Half the actual-density-weighted difference of the two densities."""
    return _weighted_integral(
        actual.pdf, lambda x, fx: fx - np.asarray(assessed.pdf(x), float), 0.5, 0.0,
        actual.support, config, "relative information",
    )


@dataclass(frozen=True)
class _Side:
    """One side of the residual/past mirror.

    ``tail`` names the Distribution function that weights the integrand
    (survival or cdf; its log is ``"log_" + tail``) and ``end`` the
    support end (0 lower, 1 upper) where that tail vanishes.  Beyond the
    other end the tail is 1, so it weights the union of both supports.
    The two texts complete the divergence messages of the two measures.
    """

    label: str
    tail: str
    end: int
    cover_gap: str
    open_end: str


_RESIDUAL = _Side(
    "residual", "survival", 1,
    "the assessed survival function vanishes before the actual one does "
    "(assessed upper end {y} < actual {x})",
    "both survival functions tend to 1 toward an infinite lower endpoint",
)
_PAST = _Side(
    "past", "cdf", 0,
    "the assessed cdf vanishes after the actual one rises "
    "(assessed lower end {y} > actual {x})",
    "both cdfs tend to 1 toward an infinite upper endpoint",
)


def _union(actual: Distribution, assessed: Distribution) -> list[float]:
    return [min(actual.support[0], assessed.support[0]),
            max(actual.support[1], assessed.support[1])]


def _cumulative_inaccuracy(side: _Side, actual: Distribution, assessed: Distribution,
                           config: QuadratureConfig) -> MeasureResult:
    what = f"cumulative {side.label} inaccuracy"
    interval = _union(actual, assessed)
    end_y = assessed.support[side.end]
    # the assessed tail must reach the actual one's vanishing end
    if interval[side.end] != end_y:
        raise SupportError(
            f"{what} diverges: "
            + side.cover_gap.format(y=end_y, x=actual.support[side.end])
        )
    _require_positive_inside(actual, getattr(assessed, side.tail), side.tail, what, end_y)
    # past the actual tail's vanishing end the weight is 0
    interval[side.end] = actual.support[side.end]
    log_tail = getattr(assessed, "log_" + side.tail)
    return _weighted_integral(
        getattr(actual, side.tail), lambda x, w: log_tail(x), -1.0, _WEIGHT_FLOOR,
        tuple(interval), config, what,
    )


def _cumulative_extropy_inaccuracy(side: _Side, actual: Distribution, assessed: Distribution,
                                   config: QuadratureConfig) -> MeasureResult:
    what = f"cumulative {side.label} extropy inaccuracy"
    interval = _union(actual, assessed)
    if not math.isfinite(interval[1 - side.end]):
        raise DivergenceError(f"{what} diverges: {side.open_end}")
    assessed_tail = getattr(assessed, side.tail)
    return _weighted_integral(
        getattr(actual, side.tail), lambda x, w: assessed_tail(x), -0.5, _WEIGHT_FLOOR,
        tuple(interval), config, what,
    )


def cumulative_residual_extropy_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Negative half the integral of the two survival functions' product."""
    return _cumulative_extropy_inaccuracy(_RESIDUAL, actual, assessed, config)


def cumulative_past_extropy_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Negative half the integral of the two cdfs' product."""
    return _cumulative_extropy_inaccuracy(_PAST, actual, assessed, config)


def cumulative_residual_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Survival-function analogue of the kerridge measure.

    The actual survival weight is nonzero below the actual support's
    lower end, so integration starts at the lower of the two supports.
    """
    return _cumulative_inaccuracy(_RESIDUAL, actual, assessed, config)


def cumulative_past_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Cdf analogue of the kerridge measure, the mirror of the residual form."""
    return _cumulative_inaccuracy(_PAST, actual, assessed, config)


def shannon_entropy(
    dist: Distribution, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> MeasureResult:
    return kerridge(dist, dist, config)


def cumulative_residual_extropy(
    dist: Distribution, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> MeasureResult:
    return cumulative_residual_extropy_inaccuracy(dist, dist, config)


def cumulative_past_extropy(
    dist: Distribution, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> MeasureResult:
    return cumulative_past_extropy_inaccuracy(dist, dist, config)
