"""Adaptive quadrature and the small set of special functions the package needs.

The integration core is a 15-point Gauss--Kronrod rule with bisection
refinement driven by a worst-panel-first heap (QUADPACK's QAG scheme).
Independent integrals advance together, each with its own heap and
budget: every round makes one integrand call on the abscissae of every
unfinished integral's next panels, 15 for its first panel and 30 for
both halves of a bisected one.  One call may so carry the abscissae of
many integrals, and the integrand must be elementwise, each value
depending on its own abscissa only; each integral's result is then the
one it gets alone, to the bit, as long as the integrand returns values
rather than raising.  Semi-infinite integrals over (a, inf)
are mapped onto (0, 1) through u = 1/(1 + x - a), so tail behaviour is
handled by the same adaptive machinery instead of an ad hoc truncation
point; integrals over the whole line are split at zero.

Expectations under an integer-shape gamma weight get a dedicated routine
built on Gauss rules for the normalised Gamma(n, 1) density.  Node counts
start at 64 and double until two successive estimates agree, because fixed
rules silently lose accuracy on log-singular integrands; if 256 nodes are
still not enough the routine falls back to the adaptive integrator, which
handles endpoint singularities robustly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as _sp

from .errors import (
    DomainError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    RecinaccError,
)

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "integrate",
    "integrate_each",
    "gamma_expectation",
    "log_gamma",
    "log_gammaincc",
    "digamma",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the adaptive integrator.

    abs_tol, rel_tol
        Convergence targets: refinement stops once the summed panel error
        drops below max(abs_tol, rel_tol * |integral|).
    max_subdivisions
        Budget of panel bisections before giving up with an explicit
        non-convergence error.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ParameterError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ParameterError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ParameterError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0.0:
            raise ParameterError("abs_error_estimate must be non-negative")
        if self.evaluations < 0:
            raise ParameterError("evaluations must be non-negative")


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Abscissae with even index are Kronrod-only; odd-index abscissae carry
# the embedded Gauss rule whose weights are listed separately.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# Expanded to full 15-node arrays ordered left to right.
_NODES = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in reversed(_XGK[:-1])])
_WK = np.array(list(_WGK[:-1]) + [_WGK[-1]] + list(reversed(_WGK[:-1])))
_WGAUSS = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:-1]):
    _WGAUSS[_i] = _w
    _WGAUSS[14 - _i] = _w
_WGAUSS[7] = _WG[-1]
_WKG = np.stack([_WK, _WGAUSS])


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Panels whose content and error both fall below this fraction of the
# running scale are accepted as-is; this is what bounds how far into a
# mapped tail the refinement will chase negligible mass.
_TAIL_MASS_BOUND = 1e-14


class _Piece(NamedTuple):
    """One adaptive integral over (a, b) in its own variable v.  The
    integrand sees x = sign * v, or on a mapped tail (``split`` set)
    x = sign * y with y = split + (1 - v) / v, where its value is divided
    by v^2."""

    a: float
    b: float
    cfg: QuadratureConfig
    sign: float = 1.0
    split: float | None = None


def _halved(cfg: QuadratureConfig) -> QuadratureConfig:
    return replace(cfg, abs_tol=0.5 * cfg.abs_tol, rel_tol=0.5 * cfg.rel_tol)


def _half_line(a: float, sign: float, cfg: QuadratureConfig) -> list[_Piece]:
    """The pieces of the integral over (a, inf) for sign 1, over (-inf, -a)
    for sign -1, in y = sign * x.

    The first unit of the range stays in y-space so that an integrable
    singularity at the finite endpoint is refined there (no node can
    round onto it); only the genuine tail goes through
    u = 1/(1 + y - split), dy = du/u^2.  For very large a the unit offset
    would round away, so widen it until the head panel is representable.
    """
    split = a + max(1.0, 8.0 * abs(a) * _EPS)
    half = _halved(cfg)
    return [_Piece(a, split, half, sign), _Piece(0.0, 1.0, half, sign, split)]


def _pieces(interval: tuple[float, float], cfg: QuadratureConfig) -> list[_Piece]:
    """An interval as one finite piece, or the two or four pieces of a half
    or whole line (split at zero), each with its share of the tolerance."""
    a, b = float(interval[0]), float(interval[1])
    if math.isnan(a) or math.isnan(b):
        raise DomainError("interval endpoints must not be NaN")
    if a >= b:
        raise DomainError(f"interval must satisfy a < b, got ({a}, {b})")
    if math.isinf(a) and math.isinf(b):
        half = _halved(cfg)
        return _half_line(0.0, -1.0, half) + _half_line(0.0, 1.0, half)
    if math.isinf(a):
        return _half_line(-b, -1.0, cfg)
    if math.isinf(b):
        return _half_line(a, 1.0, cfg)
    return [_Piece(a, b, cfg)]


def _join(parts: list[IntegrationResult]) -> IntegrationResult:
    """Sum an interval's pieces pairwise: head + tail, then left + right."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    left, right = _join(parts[:mid]), _join(parts[mid:])
    return IntegrationResult(
        left.value + right.value,
        left.abs_error_estimate + right.abs_error_estimate,
        left.evaluations + right.evaluations,
    )


def _refine(a: float, b: float, cfg: QuadratureConfig):
    """One adaptive integral as a generator: it yields the edges of the
    panels it needs next, (a, b) and then (left, mid, right) of each
    bisection, is sent one (value, error) per panel, and returns its
    IntegrationResult or raises NonConvergenceError."""
    [(value, err)] = yield (a, b)
    evals = 15
    # Heap entries: (-error, tiebreak, a, b, value, error).  Panels that are
    # negligible or at the width floor are retired from the heap for good.
    heap = [(-err, 0, a, b, value, err)]
    total_val = value
    total_err = err
    tick = 1
    for _ in range(cfg.max_subdivisions):
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        if total_err <= tol:
            return IntegrationResult(total_val, total_err, evals)
        if not heap:
            break
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        scale = max(1.0, abs(total_val))
        # Refinement floor: stop once the endpoints are (nearly) adjacent
        # floats; panels hugging zero may legitimately get much narrower
        # than any span-relative cutoff.
        width_floor = abs(pb - pa) <= 4.0 * _EPS * max(abs(pa), abs(pb), 1e-300)
        negligible = abs(pv) <= _TAIL_MASS_BOUND * scale and pe <= _TAIL_MASS_BOUND * scale
        if width_floor or negligible:
            continue
        pm = 0.5 * (pa + pb)
        (lv, le), (rv, re) = yield (pa, pm, pb)
        evals += 30
        total_val += lv + rv - pv
        total_err += le + re - pe
        heapq.heappush(heap, (-le, tick, pa, pm, lv, le))
        heapq.heappush(heap, (-re, tick + 1, pm, pb, rv, re))
        tick += 2
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        return IntegrationResult(total_val, total_err, evals)
    raise NonConvergenceError(
        f"no convergence after {cfg.max_subdivisions} subdivisions: "
        f"value ~ {total_val!r}, error ~ {total_err!r}",
        partial_value=total_val,
        abs_error_estimate=total_err,
    )


def _panel_rules(fp: np.ndarray, half: list, width: list) -> list[tuple[float, float]]:
    """The Gauss--Kronrod pair on each row of ``fp``, the 15 values of one
    panel of half-width ``half``: one (value, error) per panel.

    The error estimate rescales |K - G| against the panel's total
    variation, which credits smooth panels with their true (much smaller)
    error instead of the raw rule difference.  ``np.vecdot`` sums each row
    as ``_WK @ row`` does, to the bit (a matrix product would not), and
    the rest is the per-panel scalar arithmetic, numpy's vectorised power
    not being libm's to the last bit.
    """
    sums = np.vecdot(fp[:, None, :], _WKG).tolist()
    kronrod = [h * ks for h, (ks, _) in zip(half, sums)]
    # rows 0: |f|, 1: |f - K/width|, against each panel's own mean
    centre = np.array([[0.0] * len(half), [k / w for k, w in zip(kronrod, width)]])
    res = np.vecdot(np.abs(fp - centre[:, :, None]), _WK).tolist()
    out = []
    for h, k, (_, gs), rabs, rasc in zip(half, kronrod, sums, *res):
        err = abs(k - h * gs)
        rabs, rasc = abs(h) * rabs, abs(h) * rasc
        if rasc != 0.0 and err != 0.0:
            err = rasc * min(1.0, (200.0 * err / rasc) ** 1.5)
        out.append((k, max(err, 50.0 * _EPS * rabs)))
    return out


def _advance(f: Callable, pieces: list[_Piece]):
    """Run the adaptive integrals ``pieces`` together, one integrand call
    per round on the abscissae of every live piece's next panels.

    Each piece refines as it would alone.  Returns the results of the
    pieces before the first one, in order, that failed, and that
    failure (None if none did): a piece is dropped once an earlier one
    fails, so for an ``f`` that returns values the outcome is that of
    running the pieces one by one.  A non-finite value fails its piece
    with the first such abscissa, left to right in the piece's variable,
    reported in x.  An exception ``f`` raises propagates from the round
    it is raised in, whichever piece's abscissae caused it, where a run
    one by one could first have stopped on an earlier piece's failure.
    """
    refiners = [_refine(p.a, p.b, p.cfg) for p in pieces]
    asks = [next(r) for r in refiners]
    done: list[IntegrationResult | None] = [None] * len(pieces)
    stop, failure = len(pieces), None
    live = list(range(len(pieces)))
    while live:
        owner, half, centre, width, rows, mapped = [], [], [], [], [], []
        for i in live:
            edges = asks[i]
            first = len(owner)
            slots = []
            for a, b in zip(edges, edges[1:]):
                h = 0.5 * (b - a)
                if h == 0.0:  # a collapsed panel holds no mass
                    slots.append(None)
                    continue
                slots.append(len(owner))
                owner.append(i)
                half.append(h)
                centre.append(0.5 * (a + b))
                width.append(b - a)
            rows.append(slots)
            p = pieces[i]
            if (p.sign < 0.0 or p.split is not None) and len(owner) > first:
                mapped.append((slice(first, len(owner)), p))
        first_bad = stop
        if owner:
            x = np.array(centre)[:, None] + np.array(half)[:, None] * _NODES
            jacobians = []
            for rs, p in mapped:
                if p.split is not None:
                    u = x[rs]
                    jacobians.append((rs, u * u))
                    x[rs] = p.split + (1.0 - u) / u
                if p.sign < 0.0:
                    x[rs] *= p.sign
            fx = np.asarray(f(x.ravel()), dtype=float)
            fx = fx.reshape(x.shape) if fx.size == x.size else np.broadcast_to(fx, x.shape)
            if jacobians:
                fx = fx.copy()
                for rs, uu in jacobians:
                    fx[rs] /= uu
            finite = np.isfinite(fx)
            good = len(owner)
            if not finite.all():
                r = int(np.argmin(finite.all(axis=1)))
                c = int(np.argmin(finite[r]))
                first_bad, bad_x = owner[r], float(x[r, c])
                bad = IntegrandError(
                    f"integrand returned {float(fx[r, c])!r} at x={bad_x!r}", abscissa=bad_x
                )
                good = owner.index(first_bad)
            panels = _panel_rules(fx[:good], half[:good], width[:good])
        for i, slots in zip(live, rows):
            if i == first_bad:
                stop, failure = i, bad
                break
            try:
                asks[i] = refiners[i].send([(0.0, 0.0) if r is None else panels[r] for r in slots])
            except StopIteration as end:
                done[i] = end.value
            except NonConvergenceError as exc:
                stop, failure = i, exc
                break
        live = [i for i in live if i < stop and done[i] is None]
    return done[:stop], failure


def integrate_each(
    f: Callable,
    intervals,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[list[IntegrationResult], RecinaccError | None]:
    """Integrate ``f`` over each of ``intervals``, the integrals sharing
    integrand calls; see :func:`integrate` for one.

    Each integral's value, error estimate and evaluation count are those
    it gets alone.  Returns the results of the intervals before the first
    one, in order, that fails, and that failure (a DomainError,
    IntegrandError or NonConvergenceError; None if none fails): for an
    ``f`` that returns values, the same outcome as integrating them one
    after another.  An exception raised by ``f`` itself propagates from
    the shared call, even where an earlier integral would have failed
    first alone.
    """
    pieces: list[_Piece] = []
    ends = []
    failure = None
    for interval in intervals:
        try:
            pieces += _pieces(interval, cfg)
        except DomainError as exc:
            failure = exc
            break
        ends.append(len(pieces))
    done, error = _advance(f, pieces)
    results, start = [], 0
    for end in ends:
        if end > len(done):
            break
        results.append(_join(done[start:end]))
        start = end
    return results, error if error is not None else failure


def integrate(
    f: Callable,
    interval: tuple[float, float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IntegrationResult:
    """Integrate ``f`` over ``interval`` adaptively.

    ``interval`` is an ``(a, b)`` pair; either endpoint may be infinite.
    An infinite interval is integrated in two pieces (a half line: a unit
    head and a mapped tail) or four (the whole line, split at zero), and
    every round of refinement makes one integrand call on the abscissae of
    all pieces' next panels: 15 for a piece's first panel, 30 for both
    halves of a bisected one.  One call may so carry the abscissae of many
    integrals (see :func:`integrate_each`), and the integrand must accept
    numpy arrays and act on them elementwise.  It is never called exactly
    at the endpoints, so integrable endpoint singularities are fine.

    Raises :class:`IntegrandError` on a non-finite integrand value and
    :class:`NonConvergenceError` (carrying the partial value) when the
    subdivision budget runs out.
    """
    results, failure = integrate_each(f, [interval], cfg)
    if failure is not None:
        raise failure
    return results[0]


# Room for every (nodes, alpha) pair of a kerridge gamma-route ladder up to
# n ~ 340; rules hold at most 256 nodes, so a full cache is a few MB.
@lru_cache(maxsize=1024)
def _genlaguerre_rule(nodes: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the Gamma(alpha + 1, 1) density: E[g(T)] ~ w @ g(x).

    Nodes: eigenvalues of the generalised-Laguerre Jacobi matrix (Golub &
    Welsch, 1969), polished by one Newton step.  Weights: the Christoffel
    function 1/sum_{j<nodes} p_j(x)^2 of the orthonormal polynomials
    (Gautschi, 2004), accurate far into the tail, unlike squared
    eigenvector components.  They sum to 1; a node whose sum of squares
    overflows has weight below 1e-308 and is dropped.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    j = np.arange(nodes, dtype=float)
    a = 2.0 * j + alpha + 1.0
    b = np.sqrt(j * (j + alpha))
    x = eigvalsh_tridiagonal(a, b[1:])
    # p_j and p_j' by b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1}, p_0 = 1;
    # p_nodes, whose zeros are the nodes, is needed only up to scale
    a, b = a.tolist(), b.tolist() + [1.0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for polish in (True, False):
            p_prev, p, d_prev, d, total = 0.0, np.ones_like(x), 0.0, 0.0, 0.0
            for i in range(nodes):
                total += p * p
                shifted = x - a[i]
                d, d_prev = (shifted * d + p - b[i] * d_prev) / b[i + 1], d
                p, p_prev = (shifted * p - b[i] * p_prev) / b[i + 1], p
            if polish:
                step = p / d
                x = np.where(np.isfinite(step), x - step, x)
    keep = np.isfinite(total)
    return x[keep], 1.0 / total[keep]


def _gamma_log_pdf(t: np.ndarray, n: int, k: int) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return n * math.log(k) + _sp.xlogy(n - 1, t) - k * t - log_gamma(n)


def gamma_expectation(
    g: Callable,
    n: int,
    k: int,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IntegrationResult:
    """E[g(T)] for T with density k^n t^(n-1) e^(-kt) / (n-1)! on (0, inf).

    Starts from a 64-node Gauss rule for the Gamma(n, 1) density, whose
    weights sum to 1 at every n, and doubles the node count until two
    successive estimates agree within tolerance, capping at 256 nodes.
    Past the cap the adaptive integrator takes over; that path is slower
    but converges on integrands with logarithmic endpoint singularities,
    which defeat any fixed rule.  A rung with a non-finite value goes there
    too; it leaves out only t where the weight is below 1e-260.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"shape n must be an integer >= 1, got {n!r}")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"rate k must be an integer >= 1, got {k!r}")
    prev = None
    evals = 0
    for nodes in (64, 128, 256):
        x, w = _genlaguerre_rule(nodes, n - 1)
        with np.errstate(all="ignore"):
            gv = np.asarray(g(x / k), dtype=float)
            # a non-finite value leaves est non-finite: on to the fallback
            est = float(w @ gv)
        evals += x.size
        if prev is not None and math.isfinite(est):
            diff = abs(est - prev)
            if diff <= max(cfg.abs_tol, cfg.rel_tol * abs(est)):
                # Two rules can agree to the last bit while both carry the
                # rounding of the weighted sum, bounded as _eval_panel
                # bounds a panel
                floor = 50.0 * _EPS * float(w @ np.abs(gv))
                return IntegrationResult(est, max(diff, floor), evals)
        prev = est

    def weighted(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lw = _gamma_log_pdf(t, n, k)
        live = lw > -600.0  # weight < 1e-260 out there, and exp(-t) round trips break down
        out = np.zeros_like(t)
        if np.any(live):
            with np.errstate(all="ignore"):
                gv = np.asarray(g(t[live]), dtype=float)
            out[live] = gv * np.exp(lw[live])
        return out

    # Split at the mode: for large n the mass sits far from 0, where the
    # mapped tail of one (0, inf) integral squeezes it between the nodes.
    mode = (n - 1) / k
    spans = ((0.0, mode), (mode, math.inf)) if mode > 0.0 else ((0.0, math.inf),)
    part_cfg = replace(cfg, abs_tol=cfg.abs_tol / len(spans), rel_tol=cfg.rel_tol / len(spans))
    parts, failure = integrate_each(weighted, spans, part_cfg)
    if failure is not None:
        raise failure
    return IntegrationResult(
        sum(p.value for p in parts),
        sum(p.abs_error_estimate for p in parts),
        evals + sum(p.evaluations for p in parts),
    )


def log_gamma(x: float) -> float:
    """log of the gamma function for x > 0; exact factorials for small integers."""
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x.is_integer() and x <= 21.0:
        return math.log(math.factorial(int(x) - 1))
    return math.lgamma(x)


def log_gammaincc(n: int, y):
    """log Q(n, y) for integer n >= 1, Q the regularised upper incomplete
    gamma function, also where Q underflows.  There y is far above n, and
    the terms of Q = e^-y sum_{i<n} y^i / i! fall from the last by a factor
    (n-1)/y or less per step: only those down to e^-45 of it are summed."""
    y = np.asarray(y, float)
    q = _sp.gammaincc(n, y)
    with np.errstate(divide="ignore"):
        out = np.log(q)
    gone = (q < _TINY) & np.isfinite(y)
    if np.any(gone):
        yg = y[gone]
        step = math.log(yg.min() / max(n - 1, 1))
        i = np.arange(max(0, n - 1 - math.ceil(45.0 / step)), n)[:, None]
        terms = i * np.log(yg) - _sp.gammaln(i + 1.0)
        out[gone] = terms[-1] - yg + np.log(np.exp(terms - terms[-1]).sum(axis=0))
    return out[()]


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    return float(_sp.digamma(x))
