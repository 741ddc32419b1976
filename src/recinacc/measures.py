"""Two-distribution inaccuracy and divergence measures.

Every measure compares an *actual* distribution (the one generating the
data) against an *assessed* one (the one an analyst asserts).  All take
plain :class:`~recinacc.distributions.Distribution` values, so record
laws built by :func:`~recinacc.records.record_distribution` pass through
unchanged; the record-specialized fast paths live in
:mod:`recinacc.record_measures`.

Density-weighted measures (kerridge, kl_divergence, relative_information,
extropy_inaccuracy) integrate over the actual support.  The cumulative
measures integrate survival or cdf weights, which stay nonzero outside
the actual support, so those run over the union of both supports with
explicit guards where the weight vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _interior_probes
from .errors import (
    DivergenceError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    SupportError,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate

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
    probes = _interior_probes(actual.quantile)
    dens = np.asarray(assessed.pdf(probes), float)
    bad = ~(dens > 0.0)
    if np.any(bad):
        x = probes[bad][0]
        raise SupportError(
            f"{what} diverges: assessed density is 0 at x={x!r} inside the actual support"
        )


# Probe ladder for tail-decay certification: x0 * 2^j up to ~1.6e60 * x0.
_LADDER = 2.0 ** np.arange(201)


def _certify_integrable_tail(fn, interval, what: str) -> None:
    """Reject integrands that decay no faster than 1/x toward an infinite end.

    Floating-point underflow can truncate a divergent tail to exact zeros
    far out (a Pareto survival weight underflows near 1e154), and adaptive
    quadrature then converges to a plausible-looking but meaningless
    number.  Probing x*f(x) on a geometric ladder catches this long before
    the underflow horizon.  Slowly convergent tails between x^-1 and
    roughly x^-1.04 are rejected too: they cannot be certified finite by
    sampling, and the error type says so.
    """
    lo, hi = interval
    sides = []
    if math.isinf(hi):
        sides.append(1.0)
    if math.isinf(lo):
        sides.append(-1.0)
    for sign in sides:
        anchor = lo if sign > 0 else hi
        x0 = max(1.0, abs(anchor) + 1.0) if math.isfinite(anchor) else 1.0
        xs = sign * x0 * _LADDER
        t = np.abs(xs) * np.asarray(fn(xs), float)
        t = np.where(np.isfinite(t), np.abs(t), math.inf)
        peak = float(np.max(t))
        if peak == 0.0:
            continue
        tail = float(np.max(t[-5:]))
        if tail > 1e-8 * peak:
            raise DivergenceError(
                f"{what} appears divergent: the integrand decays no faster than "
                f"1/x toward {'+' if sign > 0 else '-'}inf "
                f"(x*f at |x|={abs(xs[-1]):.3g} is {tail:.3g}, peak {peak:.3g})"
            )


def _quad(fn, interval, config: QuadratureConfig, what: str) -> MeasureResult:
    _certify_integrable_tail(fn, interval, what)
    try:
        res = integrate(fn, interval, config)
    except NonConvergenceError as exc:
        raise DivergenceError(
            f"{what} did not converge and is likely divergent "
            f"(partial value {exc.partial_value!r})",
            partial_value=exc.partial_value,
        ) from exc
    except IntegrandError as exc:
        raise DivergenceError(f"{what} has a non-integrable singularity: {exc}") from exc
    return MeasureResult(res.value, "quadrature", res.abs_error_estimate)


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

    def integrand(x):
        fx = np.asarray(actual.pdf(x), float)
        out = np.zeros(fx.shape)
        m = fx > 0.0
        out[m] = -fx[m] * np.asarray(assessed.log_pdf(x), float)[m]
        return out[()]

    return _quad(integrand, actual.support, config, "kerridge inaccuracy")


def extropy_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Negative half the overlap integral of the two densities."""

    def integrand(x):
        fx = np.asarray(actual.pdf(x), float)
        out = np.zeros(fx.shape)
        m = fx > 0.0
        out[m] = -0.5 * fx[m] * np.asarray(assessed.pdf(x), float)[m]
        return out[()]

    return _quad(integrand, actual.support, config, "extropy inaccuracy")


def _union_interval(a: Distribution, b: Distribution) -> tuple[float, float]:
    return (min(a.support[0], b.support[0]), max(a.support[1], b.support[1]))


def cumulative_residual_extropy_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Negative half the integral of the two survival functions' product."""
    lo = min(actual.support[0], assessed.support[0])
    if not math.isfinite(lo):
        raise DivergenceError(
            "cumulative residual extropy inaccuracy diverges: both survival "
            "functions tend to 1 toward an infinite lower endpoint"
        )

    def integrand(x):
        sx = np.asarray(actual.survival(x), float)
        out = np.zeros(sx.shape)
        m = sx > _WEIGHT_FLOOR
        out[m] = -0.5 * sx[m] * np.asarray(assessed.survival(x), float)[m]
        return out[()]

    return _quad(
        integrand,
        (lo, max(actual.support[1], assessed.support[1])),
        config,
        "cumulative residual extropy inaccuracy",
    )


def cumulative_past_extropy_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Negative half the integral of the two cdfs' product."""
    hi = max(actual.support[1], assessed.support[1])
    if not math.isfinite(hi):
        raise DivergenceError(
            "cumulative past extropy inaccuracy diverges: both cdfs tend to 1 "
            "toward an infinite upper endpoint"
        )

    def integrand(x):
        fx = np.asarray(actual.cdf(x), float)
        out = np.zeros(fx.shape)
        m = fx > _WEIGHT_FLOOR
        out[m] = -0.5 * fx[m] * np.asarray(assessed.cdf(x), float)[m]
        return out[()]

    return _quad(
        integrand,
        (min(actual.support[0], assessed.support[0]), hi),
        config,
        "cumulative past extropy inaccuracy",
    )


def kl_divergence(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Kullback-Leibler divergence from the assessed law to the actual one."""
    _require_density_cover(actual, assessed, "kl divergence")

    def integrand(x):
        fx = np.asarray(actual.pdf(x), float)
        out = np.zeros(fx.shape)
        m = fx > 0.0
        ratio = np.asarray(actual.log_pdf(x), float)[m] - np.asarray(
            assessed.log_pdf(x), float
        )[m]
        out[m] = fx[m] * ratio
        return out[()]

    return _quad(integrand, actual.support, config, "kl divergence")


def relative_information(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Half the actual-density-weighted difference of the two densities."""

    def integrand(x):
        fx = np.asarray(actual.pdf(x), float)
        out = np.zeros(fx.shape)
        m = fx > 0.0
        out[m] = 0.5 * fx[m] * (fx[m] - np.asarray(assessed.pdf(x), float)[m])
        return out[()]

    return _quad(integrand, actual.support, config, "relative information")


def cumulative_residual_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Survival-function analogue of the kerridge measure.

    The actual survival weight is nonzero below the actual support's
    lower end, so integration starts at the lower of the two supports.
    """
    lo_x, hi_x = actual.support
    if assessed.support[1] < hi_x:
        raise SupportError(
            "cumulative residual inaccuracy diverges: the assessed survival "
            "function vanishes before the actual one does "
            f"(assessed upper end {assessed.support[1]} < actual {hi_x})"
        )
    probes = _interior_probes(actual.quantile)
    sp = np.asarray(assessed.survival(probes), float)
    if np.any(~(sp > 0.0)):
        x = probes[~(sp > 0.0)][0]
        raise SupportError(
            f"cumulative residual inaccuracy diverges: assessed survival is 0 "
            f"at x={x!r} inside the actual support"
        )

    def integrand(x):
        sx = np.asarray(actual.survival(x), float)
        out = np.zeros(sx.shape)
        m = sx > _WEIGHT_FLOOR
        out[m] = -sx[m] * np.asarray(assessed.log_survival(x), float)[m]
        return out[()]

    return _quad(
        integrand,
        (min(lo_x, assessed.support[0]), hi_x),
        config,
        "cumulative residual inaccuracy",
    )


def cumulative_past_inaccuracy(
    actual: Distribution,
    assessed: Distribution,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MeasureResult:
    """Cdf analogue of the kerridge measure, the mirror of the residual form."""
    lo_x, hi_x = actual.support
    if assessed.support[0] > lo_x:
        raise SupportError(
            "cumulative past inaccuracy diverges: the assessed cdf vanishes "
            "after the actual one rises "
            f"(assessed lower end {assessed.support[0]} > actual {lo_x})"
        )
    probes = _interior_probes(actual.quantile)
    cp = np.asarray(assessed.cdf(probes), float)
    if np.any(~(cp > 0.0)):
        x = probes[~(cp > 0.0)][0]
        raise SupportError(
            f"cumulative past inaccuracy diverges: assessed cdf is 0 "
            f"at x={x!r} inside the actual support"
        )

    def integrand(x):
        fx = np.asarray(actual.cdf(x), float)
        out = np.zeros(fx.shape)
        m = fx > _WEIGHT_FLOOR
        out[m] = -fx[m] * np.asarray(assessed.log_cdf(x), float)[m]
        return out[()]

    return _quad(
        integrand,
        (lo_x, max(hi_x, assessed.support[1])),
        config,
        "cumulative past inaccuracy",
    )


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
