"""Distributions of upper and lower k-record values.

For a parent with cdf F and survival S, the n-th upper k-record value has
density

    k^n / (n-1)! * (-log S(x))^(n-1) * S(x)^(k-1) * f(x)

and cdf 1 - S(x)^k * sum_{i<n} (-k log S(x))^i / i!, which is the
regularized lower incomplete gamma function P(n, -k log S(x)).  Lower
records mirror the same formulas with F in place of S.  A single code
path parameterized by the side serves both.

Both facts express the same representation: the n-th upper k-record value
is distributed as S^{-1}(e^{-T}) where T is gamma with integer shape n and
rate k.  That transform is exposed directly because expectations of
record functionals reduce to gamma-weighted integrals through it, and it
is also how record values are sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .distributions import Distribution
from .errors import DomainError, ParameterError
from .numerics import log_gamma

__all__ = [
    "RecordSpec",
    "RecordDistribution",
    "record_pdf",
    "record_log_pdf",
    "record_cdf",
    "record_survival",
    "record_distribution",
    "gamma_transform_point",
    "sample_record",
]

_SIDES = ("upper", "lower")
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RecordSpec:
    """Which record sequence: side ('upper' or 'lower'), index n, level k."""

    side: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise ParameterError(f"side must be 'upper' or 'lower', got {self.side!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ParameterError(f"record index n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ParameterError(f"record level k must be an integer >= 1, got {self.k!r}")


def _base_log_function(parent: Distribution, side: str):
    # The survival function drives upper records, the cdf lower records.
    # Working from the log form keeps the cumulative hazard -log g finite
    # far past the point where g itself underflows to zero.
    return parent.log_survival if side == "upper" else parent.log_cdf


def record_log_pdf(parent: Distribution, spec: RecordSpec, x):
    """Log-density of the record value; -inf outside the support."""
    x = np.asarray(x, float)
    n, k = spec.n, spec.k
    log_g = np.asarray(_base_log_function(parent, spec.side)(x), float)
    base = np.asarray(parent.log_pdf(x), float)
    const = n * math.log(k) - log_gamma(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = const + base
        if n > 1:
            # where g has vanished (-log g)^(n-1) is infinite, but the
            # density's limit there is 0: take the limit instead of +inf
            term = np.where(np.isneginf(log_g), -math.inf, term + (n - 1) * np.log(-log_g))
        if k > 1:
            term = term + (k - 1) * log_g
    # inf - inf combinations arise exactly where the density limit is 0
    # (e.g. past the far endpoint, where the power of g wins over the log).
    term = np.where(np.isnan(term), -math.inf, term)
    return term[()]


def record_pdf(parent: Distribution, spec: RecordSpec, x):
    """Density of the n-th k-record value; 0 outside the parent support."""
    return np.exp(record_log_pdf(parent, spec, x))[()]


def _is_lower_gamma(spec: RecordSpec, cdf: bool) -> bool:
    # With y = -k log g, the record cdf is the regularized lower incomplete
    # gamma P(n, y) for upper records and Q(n, y) = 1 - P(n, y) for lower
    # ones; the record survival function is the other of the two.
    return (spec.side == "upper") == cdf


def _record_tail(parent: Distribution, spec: RecordSpec, x, cdf: bool):
    log_g = np.asarray(_base_log_function(parent, spec.side)(np.asarray(x, float)), float)
    y = np.maximum(-spec.k * log_g, 0.0)
    gamma_tail = _sp.gammainc if _is_lower_gamma(spec, cdf) else _sp.gammaincc
    return gamma_tail(spec.n, y)[()]


def _record_log_tail(parent: Distribution, spec: RecordSpec, x, cdf: bool):
    """log of ``_record_tail``, also where the gamma tail underflows.

    There P(n, y) = y^n e^-y / n! 1F1(1; n+1; y) (small y) and
    Q(n, y) = e^-y sum_{i<n} y^i / i! (large y) are taken in logs.
    """
    log_g = np.asarray(_base_log_function(parent, spec.side)(np.asarray(x, float)), float)
    y = np.atleast_1d(np.maximum(-spec.k * log_g, 0.0))
    n, lower = spec.n, _is_lower_gamma(spec, cdf)
    value = (_sp.gammainc if lower else _sp.gammaincc)(n, y)
    with np.errstate(divide="ignore"):
        out = np.log(value)
        gone = (value < _TINY) & np.isfinite(y)
        if np.any(gone):
            yg = y[gone]
            log_y = np.log(yg)
            if lower:
                out[gone] = n * log_y - yg - math.lgamma(n + 1) + np.log(_sp.hyp1f1(1, n + 1, yg))
            else:
                i = np.arange(n)
                out[gone] = -yg + _sp.logsumexp(i * log_y[:, None] - _sp.gammaln(i + 1), axis=1)
    return out.reshape(log_g.shape)[()]


def record_cdf(parent: Distribution, spec: RecordSpec, x):
    return _record_tail(parent, spec, x, cdf=True)


def record_survival(parent: Distribution, spec: RecordSpec, x):
    return _record_tail(parent, spec, x, cdf=False)


def gamma_transform_point(parent: Distribution, side: str, t):
    """Map a gamma variate t > 0 (shape n, rate 1 scale already applied)
    to the record scale: S^{-1}(e^{-t}) for upper records, F^{-1}(e^{-t})
    for lower ones."""
    if side not in _SIDES:
        raise ParameterError(f"side must be 'upper' or 'lower', got {side!r}")
    t = np.asarray(t, float)
    if not np.all(t > 0.0):  # also rejects NaN
        raise DomainError("gamma transform requires t > 0")
    e = np.exp(-t)
    if side == "upper":
        return np.asarray(parent.inverse_survival(e), float)[()]
    return np.asarray(parent.quantile(e), float)[()]


@dataclass(frozen=True, eq=False)
class RecordDistribution(Distribution):
    """The record-value law itself, as a first-class Distribution.

    Generic two-distribution measures accept it unchanged, which is what
    keeps record-vs-parent comparisons free of special cases.
    """

    parent: Distribution = None
    spec: RecordSpec = None


def record_distribution(parent: Distribution, spec: RecordSpec) -> RecordDistribution:
    n, k = spec.n, spec.k
    back = parent.inverse_survival if spec.side == "upper" else parent.quantile

    def inverse(level, cdf: bool):
        # invert the gamma tail for y = -k log g, then g = e^(-y/k)
        inv = _sp.gammaincinv if _is_lower_gamma(spec, cdf) else _sp.gammainccinv
        y = inv(n, np.asarray(level, float))
        return np.asarray(back(np.exp(-y / k)), float)[()]

    return RecordDistribution(
        name=f"{spec.side}_record[n={n},k={k}]({parent.name})",
        params=dict(parent.params),
        support=parent.support,
        pdf=lambda x: record_pdf(parent, spec, x),
        log_pdf=lambda x: record_log_pdf(parent, spec, x),
        cdf=lambda x: record_cdf(parent, spec, x),
        survival=lambda x: record_survival(parent, spec, x),
        log_cdf=lambda x: _record_log_tail(parent, spec, x, cdf=True),
        log_survival=lambda x: _record_log_tail(parent, spec, x, cdf=False),
        quantile=lambda p: inverse(p, cdf=True),
        inverse_survival=lambda q: inverse(q, cdf=False),
        parent=parent,
        spec=spec,
    )


def sample_record(parent: Distribution, spec: RecordSpec, seed: int, count: int) -> np.ndarray:
    """Draw record values through the gamma representation.

    The gamma variate with integer shape n and rate k is formed as a sum
    of n exponentials, so the sampler shares no series or special-function
    code with the density/cdf routines it is later tested against.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    t = rng.exponential(scale=1.0 / spec.k, size=(count, spec.n)).sum(axis=1)
    # sums of positive exponentials cannot round to zero in practice, but
    # the transform requires strict positivity
    t = np.maximum(t, np.finfo(float).tiny)
    return np.asarray(gamma_transform_point(parent, spec.side, t), float)
