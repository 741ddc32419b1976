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
rate k.  Expectations of record functionals reduce to gamma-weighted
integrals in t through it; the gamma routes take the parent's density at
the record scale as a function of t (``Distribution.log_pdf_at_tail``).
The transform itself, ``gamma_transform_point``, is how record values
are sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import numerics as _nx
from .distributions import Distribution, _log_pdf_through_inverse
from .errors import DomainError, ParameterError, check_integer
from .numerics import _TINY, log_gamma

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

# the most draws one sampler call makes: a stream scan or sample_record
STREAM_CAP = 100_000_000


@dataclass(frozen=True)
class RecordSpec:
    """Which record sequence: side ('upper' or 'lower'), index n, level k."""

    side: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise ParameterError(f"side must be 'upper' or 'lower', got {self.side!r}")
        check_integer(self.n, "record index n")
        check_integer(self.k, "record level k")


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


def _gamma_argument(parent: Distribution, side: str, k: int, x) -> np.ndarray:
    """y = -k log g(x), clipped at 0: the record cdf and survival at x are
    the incomplete gammas P and Q of (n, y) for records of every order n."""
    log_g = np.asarray(_base_log_function(parent, side)(np.asarray(x, float)), float)
    return np.maximum(-k * log_g, 0.0)


def _record_tail(parent: Distribution, spec: RecordSpec, x, cdf: bool, log: bool = False):
    # the record cdf or survival function at x; with ``log``, its log, also
    # where the gamma tail underflows
    y = _gamma_argument(parent, spec.side, spec.k, x)
    lower = _is_lower_gamma(spec, cdf)
    if log:
        return _nx.log_gamma_tail(spec.n, y, lower)
    return (_nx.gammainc if lower else _nx.gammaincc)(spec.n, y)[()]


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
    return (parent.inverse_survival if side == "upper" else parent.quantile)(np.exp(-t))


@dataclass(frozen=True, eq=False)
class RecordDistribution(Distribution):
    """The record-value law itself, as a first-class Distribution.

    Generic two-distribution measures accept it unchanged, which is what
    keeps record-vs-parent comparisons free of special cases.
    """

    parent: Distribution
    spec: RecordSpec


def record_distribution(parent: Distribution, spec: RecordSpec) -> RecordDistribution:
    n, k = spec.n, spec.k
    back = parent.inverse_survival if spec.side == "upper" else parent.quantile

    def inverse(level, cdf: bool):
        # invert the gamma tail for y = -k log g, then g = e^(-y/k)
        inv = _nx.gammaincinv if _is_lower_gamma(spec, cdf) else _nx.gammainccinv
        y = inv(n, np.asarray(level, float))
        # a level of 0 or 1 maps g to 0, where back takes its support-end limit
        with np.errstate(divide="ignore"):
            return back(np.exp(-y / k))

    log_pdf = partial(record_log_pdf, parent, spec)
    quantile, inverse_survival = partial(inverse, cdf=True), partial(inverse, cdf=False)
    return RecordDistribution(
        name=f"{spec.side}_record[n={n},k={k}]({parent.name})",
        params=dict(parent.params),
        support=parent.support,
        pdf=lambda x: record_pdf(parent, spec, x),
        log_pdf=log_pdf,
        cdf=lambda x: record_cdf(parent, spec, x),
        survival=lambda x: record_survival(parent, spec, x),
        log_cdf=lambda x: _record_tail(parent, spec, x, cdf=True, log=True),
        log_survival=lambda x: _record_tail(parent, spec, x, cdf=False, log=True),
        quantile=quantile,
        inverse_survival=inverse_survival,
        log_pdf_at_tail=partial(_log_pdf_through_inverse, log_pdf, quantile, inverse_survival),
        closed_forms=None,
        parent=parent,
        spec=spec,
    )


def check_seed(seed) -> None:
    """Raise ParameterError unless seed is an integer >= 0 or a SeedSequence,
    the seeds every sampler hands to ``np.random.default_rng``."""
    if not isinstance(seed, np.random.SeedSequence):
        check_integer(seed, "seed", 0)


def check_draws(count: int, n: int) -> None:
    """Raise ParameterError if ``sample_record`` would refuse count n-th
    records: more than ``STREAM_CAP`` draws in all."""
    draws = int(count) * n
    if draws > STREAM_CAP:
        raise ParameterError(f"count * n = {draws} draws exceeds the budget of {STREAM_CAP}")


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` bit for bit.

    numpy reduces each row with its own inner-loop call, which costs more
    than the additions when rows are short.  Below 8 terms numpy adds a row
    left to right, so adding whole columns in that order gives the same
    sums.  From 8 terms on it sums pairwise in blocks of 8, the per-row
    call is spread over at least 8 terms, and a row fills a cache line, so
    a column pass would read a line per term: the row reduction stays.
    """
    n = a.shape[1]
    if n >= 8:
        return a.sum(axis=1)
    t = a[:, 0].copy()
    for j in range(1, n):
        t += a[:, j]
    return t


def sample_record(
    parent: Distribution, spec: RecordSpec, seed: int | np.random.SeedSequence, count: int
) -> np.ndarray:
    """Draw record values through the gamma representation.

    The gamma variate with integer shape n and rate k is formed as a sum
    of n exponentials, so the sampler shares no series or special-function
    code with the density/cdf routines it is later tested against.  The
    sums are those of ``.sum(axis=1)`` on the (count, n) draws, bit for
    bit, but rows of fewer than 8 terms are added column by column: the
    row reduction costs one inner-loop call per row (see ``_row_sums``).
    More than ``STREAM_CAP`` draws in all (count * n) are refused.
    """
    check_integer(count, "count")
    check_draws(count, spec.n)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    # exponential(scale=1/k) is standard_exponential times 1/k, bit for bit
    e = rng.standard_exponential(size=(count, spec.n))
    if spec.k != 1:
        e *= 1.0 / spec.k
    t = _row_sums(e)
    # sums of positive exponentials cannot round to zero in practice, but
    # the transform requires strict positivity
    np.maximum(t, _TINY, out=t)
    return np.asarray(gamma_transform_point(parent, spec.side, t), float)
