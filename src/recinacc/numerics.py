"""Adaptive quadrature and the small set of special functions the package needs.

The integration core is a 15-point Gauss--Kronrod rule with bisection
refinement driven by a worst-panel-first heap (QUADPACK's QAG scheme).
Independent integrals advance together, each with its own heap and
budget: every round makes one integrand call on the abscissae of every
unfinished integral's next panels.  That is 15 for its first panel and,
where it bisects a panel whose halves it does not hold yet, the two
halves and their four halves (look-ahead), 90 points; where that panel
touches an end of its piece, also the halves of the panel at that end
for 3 more levels (the spine), 90 points per end.  All are held until
the refinement consumes them, so that most bisections need no call: the
mass and singularities of record laws sit at the ends of their support,
where the refinement chases a chain of panels toward one end.  One call
may so carry the abscissae of many integrals, and of panels that are
never consumed, and the integrand must be elementwise, each value
depending on its own abscissa only; each integral's result is then the
one it gets alone and without look-ahead, to the bit, and a batch that
fails raises the failure of its first integral, in order, that fails
alone, as long as the integrand returns values rather than raising.
``evaluations`` counts consumed points, 15 plus 30 per bisection.  An
integrand that is not elementwise passes ``elementwise=False``: a
bisection then evaluates its two halves alone, 30 points.
Semi-infinite integrals over (a, inf) are mapped onto (0, 1) through
u = 1/(1 + x - a), so tail behaviour is handled by the same adaptive
machinery instead of an ad hoc truncation point; integrals over the
whole line are split at zero.

Expectations under an integer-shape gamma weight are one batch of the
same adaptive integrals, split where the mass starts, peaks and ends; the
gamma density is scipy's kernel x^a e^-x / Gamma(a), accurate to a few
eps of its peak at every shape.

This module is the package's one gateway to ``scipy.special``, and it
loads scipy on first use: the closed forms need only ``math`` and numpy.
Each special function the package uses is a module-level name here
(``gammainc``, ``gammaincc``, ``gammaincinv``, ``gammainccinv``, ``gammaln``,
``hyp1f1``, ``psi``, ``smirnov``, ``xlogy``, ``_igam_fac``) that starts as
a stand-in; its first call loads the compiled module
``scipy.special._ufuncs`` and puts scipy's function in its place.  That
skips ``scipy.special``'s package init, whose array-API layer imports much
of numpy (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``) and costs more
than the rest of a command; the functions are the ones ``scipy.special``
exports, the same objects, but for ``_igam_fac``: the kernel of scipy's
incomplete gammas, which only ``_ufuncs`` holds.
Other modules call them as ``numerics.<name>``, so that from then on a
call costs one attribute lookup, as ``scipy.special.<name>`` would.
"""

from __future__ import annotations

import heapq
import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    check_integer,
    check_positive,
)

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "IntegrationResult",
    "integrate",
    "gamma_expectation",
    "log_gamma",
    "digamma",
]


def _ufuncs():
    """``scipy.special._ufuncs``, without running scipy.special's init
    unless something has already imported it."""
    if "scipy.special" in sys.modules:
        return importlib.import_module("scipy.special._ufuncs")
    # an empty package module stands in for scipy.special while its compiled
    # submodule loads; a later ``import scipy.special`` runs the real init,
    # which reuses the loaded submodule
    spec = importlib.util.find_spec("scipy.special")
    sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        del sys.modules["scipy.special"]


def _from_scipy(name: str) -> Callable:
    """A stand-in for ``scipy.special.<name>``: its first call loads
    scipy.special's compiled ufuncs and binds scipy's function to ``name``
    in this module."""

    def first_call(*args, **kwargs):
        fn = globals()[name] = getattr(_ufuncs(), name)
        return fn(*args, **kwargs)

    first_call.__name__ = first_call.__qualname__ = name
    return first_call


gammainc = _from_scipy("gammainc")
gammaincc = _from_scipy("gammaincc")
gammaincinv = _from_scipy("gammaincinv")
gammainccinv = _from_scipy("gammainccinv")
gammaln = _from_scipy("gammaln")
hyp1f1 = _from_scipy("hyp1f1")
psi = _from_scipy("psi")
smirnov = _from_scipy("smirnov")
xlogy = _from_scipy("xlogy")
_igam_fac = _from_scipy("_igam_fac")


def __getattr__(name: str):
    # ``numerics._sp`` is scipy.special itself, imported on first access:
    # perfbench's tracer patches scipy.special through it
    if name != "_sp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special

    globals()["_sp"] = special
    return special


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
        check_positive(self.abs_tol, "abs_tol")
        check_positive(self.rel_tol, "rel_tol")
        check_integer(self.max_subdivisions, "max_subdivisions")


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

# Levels of panels below a bisected panel that one integrand call
# evaluates for an elementwise integrand: its halves and their halves.
# A third level gained 2-3% more speed for 1.6 times the points.
_LOOK_AHEAD = 2

# Further levels, below those, of the one panel at the edge of its piece
# where the bisected panel touches that edge: the record laws' mass and
# singularities sit at the ends of their support, so the refinement
# mostly chases a chain of panels toward one end.
_SPINE = 3

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


def _subtree(
    a: float, b: float, pa: float, pb: float, elementwise: bool
) -> list[tuple[float, float]]:
    """The panels below (pa, pb), a panel of the piece (a, b), level by
    level, each split at its midpoint as ``_refine`` splits it.

    That is one level, the halves, for an integrand that is not
    elementwise.  For an elementwise one it is ``_LOOK_AHEAD`` levels and,
    where (pa, pb) shares an edge with its piece, ``_SPINE`` more levels of
    the panel at that edge alone: its two halves per level, for both
    edges when (pa, pb) is the whole piece.
    """
    depth, spine = (_LOOK_AHEAD, _SPINE) if elementwise else (1, 0)
    panels, level = [], [(pa, pb)]
    for i in range(depth + spine):
        if i >= depth:
            level = ([level[0]] if pa == a else []) + ([level[-1]] if pb == b else [])
        halves = []
        for qa, qb in level:
            qm = 0.5 * (qa + qb)
            halves += [(qa, qm), (qm, qb)]
        panels += halves
        level = halves
    return panels


def _take(cache: dict, a: float, b: float) -> tuple[float, float]:
    """Panel (a, b)'s (value, error), removed from ``cache``; a panel that
    held a non-finite value raises its IntegrandError here."""
    panel = cache.pop((a, b))
    if isinstance(panel, IntegrandError):
        raise panel
    return panel


def _refine(a: float, b: float, cfg: QuadratureConfig, elementwise: bool):
    """One adaptive integral as a generator: it yields a list of (a, b)
    panels it needs, first (a, b) alone and then the ``_subtree`` of each
    bisected panel whose halves it does not hold yet.
    It is sent one (value, error) or IntegrandError per panel, keeps them
    by their edges until the refinement consumes them, and returns its
    IntegrationResult or raises IntegrandError or NonConvergenceError."""
    cache: dict = {}
    asked = [(a, b)]
    cache.update(zip(asked, (yield asked)))
    value, err = _take(cache, a, b)
    evals = 15
    # Heap entries: (-error, tiebreak, a, b, value, error).  Panels that are
    # negligible or at the width floor are retired from the heap for good.
    heap = [(-err, 0, a, b, value, err)]
    retired: list[tuple[float, float]] = []
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
            retired.append((pv, pe))
            continue
        pm = 0.5 * (pa + pb)
        if (pa, pm) not in cache or (pm, pb) not in cache:
            asked = _subtree(a, b, pa, pb, elementwise)
            cache.update(zip(asked, (yield asked)))
        lv, le = _take(cache, pa, pm)
        rv, re = _take(cache, pm, pb)
        evals += 30
        total_val += lv + rv - pv
        total_err += le + re - pe
        heapq.heappush(heap, (-le, tick, pa, pm, lv, le))
        heapq.heappush(heap, (-re, tick + 1, pm, pb, rv, re))
        tick += 2
        # the running totals keep a replaced panel's digits only to an ulp
        # of it; where that ulp could reach the tolerance (halves far
        # smaller than their panel), they restart from the panels' own sums
        if max(abs(pv), pe) > 2.0**48 * max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
            total_val, total_err = (math.fsum(col) for col in zip(*[e[4:] for e in heap], *retired))
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        return IntegrationResult(total_val, total_err, evals)
    floor = "" if heap else " (every panel left is negligible or at the float-spacing floor)"
    raise NonConvergenceError(
        f"no convergence after {(evals - 15) // 30} of {cfg.max_subdivisions} subdivisions"
        f"{floor}: value ~ {total_val!r}, error ~ {total_err!r}",
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


def _advance(f: Callable, pieces: list[_Piece], elementwise: bool):
    """Run the adaptive integrals ``pieces`` together, one integrand call
    per round on the abscissae of the panels every live piece asks for
    next: its first panel, then the ``_subtree`` of a bisected panel.

    Each piece refines as it would alone.  Returns the pieces' results,
    in order, or raises the failure of the first one, in order, that
    fails: a piece is dropped once an earlier one fails, and the earlier
    ones run to their end, so for an ``f`` that returns values the
    outcome is that of running the pieces one by one.  A panel holding a
    non-finite value fails its piece only once the refinement consumes
    it, with the panel's first such abscissa, left to right in the
    piece's variable, reported in x.  An exception ``f`` raises
    propagates from the round it is raised in, whichever piece's
    abscissae caused it, where a run one by one could first have stopped
    on an earlier piece's failure, or have never asked for the panel.
    """
    refiners = [_refine(p.a, p.b, p.cfg, elementwise) for p in pieces]
    asks = [next(r) for r in refiners]
    done: list[IntegrationResult | None] = [None] * len(pieces)
    stop, failure = len(pieces), None
    live = list(range(len(pieces)))
    while live:
        half, centre, width, rows, mapped = [], [], [], [], []
        for i in live:
            first = len(half)
            slots = []
            for a, b in asks[i]:
                h = 0.5 * (b - a)
                if h == 0.0:  # a collapsed panel holds no mass
                    slots.append(None)
                    continue
                slots.append(len(half))
                half.append(h)
                centre.append(0.5 * (a + b))
                width.append(b - a)
            rows.append(slots)
            p = pieces[i]
            if (p.sign < 0.0 or p.split is not None) and len(half) > first:
                mapped.append((slice(first, len(half)), p))
        if half:
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
            bad = [] if finite.all() else np.flatnonzero(~finite.all(axis=1)).tolist()
            # each row's rule is its own, so zeroing a bad row moves no other
            panels = _panel_rules(np.where(finite, fx, 0.0) if bad else fx, half, width)
            for r in bad:
                c = int(np.argmin(finite[r]))
                bad_x = float(x[r, c])
                panels[r] = IntegrandError(
                    f"integrand returned {float(fx[r, c])!r} at x={bad_x!r}", abscissa=bad_x
                )
        for i, slots in zip(live, rows):
            try:
                asks[i] = refiners[i].send([(0.0, 0.0) if r is None else panels[r] for r in slots])
            except StopIteration as end:
                done[i] = end.value
            except (IntegrandError, NonConvergenceError) as exc:
                stop, failure = i, exc
                break
        live = [i for i in live if i < stop and done[i] is None]
    if failure is not None:
        raise failure
    return done


def integrate_each(
    f: Callable,
    intervals,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    elementwise: bool = True,
) -> list[IntegrationResult]:
    """Integrate ``f`` over each of ``intervals``, the integrals sharing
    integrand calls; see :func:`integrate` for one, and for ``f`` and
    ``elementwise``.

    Each integral's value, error estimate and evaluation count (of
    consumed points) are those it gets alone, with or without look-ahead:
    however many panels below a bisection a call evaluates.  Returns the
    results in order.  An interval that is not (a, b) with a < b raises
    DomainError before any integral runs; otherwise the first integral,
    in order, that fails raises its IntegrandError or
    NonConvergenceError: for an ``f`` that returns values, the same
    outcome as integrating them one after another.  An exception raised
    by ``f`` itself propagates from the shared call, even where an
    earlier integral would have failed first alone, or where it was
    raised at an abscissa of a panel that is never consumed.
    """
    pieces: list[_Piece] = []
    ends = [0]
    for interval in intervals:
        pieces += _pieces(interval, cfg)
        ends.append(len(pieces))
    done = _advance(f, pieces, elementwise)
    return [_join(done[a:b]) for a, b in zip(ends, ends[1:])]


def integrate(
    f: Callable,
    interval: tuple[float, float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    elementwise: bool = True,
) -> IntegrationResult:
    """Integrate ``f`` over ``interval`` adaptively.

    ``interval`` is an ``(a, b)`` pair; either endpoint may be infinite.
    An infinite interval is integrated in two pieces (a half line: a unit
    head and a mapped tail) or four (the whole line, split at zero), and
    every round of refinement makes one integrand call on the abscissae of
    all pieces' next panels: 15 for a piece's first panel and, where a
    piece bisects a panel whose halves were not evaluated yet, 90 for the
    halves and their halves, plus 90 for each end of the piece that the
    panel touches, the halves of the panel at that end for 3 more levels,
    so that most later bisections need no call.  One call may so carry
    the abscissae of many integrals (see :func:`integrate_each`), and the
    integrand must accept numpy arrays and act on them elementwise: ``f``
    may be called at abscissae of panels the refinement never consumes,
    anywhere inside the interval.  With ``elementwise=False`` a bisection
    evaluates its two halves only, 30 points, and ``f`` sees the
    abscissae of consumed panels alone.  ``evaluations`` counts consumed
    points, 15 plus 30 per bisection either way, and the value and error
    estimate do not depend on ``elementwise``.  ``f`` is called inside the
    closed interval.  Near a finite endpoint other than 0, refinement can
    narrow a panel to about a hundred float spacings, where a node rounds
    onto the endpoint: an integrand singular there must return a finite
    value at the endpoint itself, or the integral raises IntegrandError.
    Near 0 floats are dense enough that no node rounds onto it.

    Raises :class:`IntegrandError` on a non-finite integrand value in a
    panel the refinement consumes (one in a panel it never consumes is
    ignored) and :class:`NonConvergenceError` (carrying the partial value)
    when the subdivision budget runs out.
    """
    return integrate_each(f, [interval], cfg, elementwise=elementwise)[0]


def gamma_mass_edges(n: int, k: int) -> tuple[float, float]:
    """The t below and above which Gamma(n, rate k) has mass 1e-16."""
    return float(gammaincinv(n, 1e-16)) / k, float(gammainccinv(n, 1e-16)) / k


def _gamma_pdf(t: np.ndarray, n: int, k: int) -> np.ndarray:
    """The Gamma(n, rate k) density at t, k y^(n-1) e^-y / (n-1)! at y = kt.

    For n >= 2 that is k / (n-1) times scipy's kernel y^a e^-y / Gamma(a)
    at a = n - 1, the factor its incomplete gammas scale by: a Lanczos sum
    with log1pmx near the peak, within a few eps of the peak at every n.
    """
    y = k * np.asarray(t, dtype=float)
    if n == 1:
        return k * np.exp(-y)
    # the kernel is NaN at y = inf, where the density is 0
    return np.where(y < math.inf, k / (n - 1) * _igam_fac(n - 1, y), 0.0)


def gamma_expectation(
    g: Callable,
    n: int,
    k: int,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IntegrationResult:
    """E[g(T)] for T with density k^n t^(n-1) e^(-kt) / (n-1)! on (0, inf).

    One batch of adaptive integrals of the density times g, split at the
    mode and where the mass below and above reaches 1e-16: for large n
    the mass sits far from 0, where one (0, inf) integral squeezes it
    between the nodes of its mapped tail.  It leaves out t where the
    density is below 1e-260, and raises on a non-finite g elsewhere.
    """
    check_integer(n, "shape n", error=DomainError)
    check_integer(k, "rate k", error=DomainError)

    def weighted(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        w = _gamma_pdf(t, n, k)
        live = w > 1e-260
        out = np.zeros_like(t)
        if np.any(live):
            with np.errstate(all="ignore"):
                gv = np.asarray(g(t[live]), dtype=float)
            out[live] = gv * w[live]
        return out

    cuts = sorted({0.0, (n - 1) / k, *gamma_mass_edges(n, k)}) + [math.inf]
    spans = list(zip(cuts, cuts[1:]))
    part_cfg = replace(cfg, abs_tol=cfg.abs_tol / len(spans), rel_tol=cfg.rel_tol / len(spans))
    parts = integrate_each(weighted, spans, part_cfg)
    return IntegrationResult(
        sum(p.value for p in parts),
        sum(p.abs_error_estimate for p in parts),
        sum(p.evaluations for p in parts),
    )


def log_gamma(x: float) -> float:
    """log of the gamma function for x > 0; exact factorials for small integers."""
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x.is_integer() and x <= 21.0:
        return math.log(math.factorial(int(x) - 1))
    return math.lgamma(x)


def _log_gamma_series(n: int, y: np.ndarray) -> np.ndarray:
    """log sum_{i<n} y^i / i!, which is y + log Q(n, y), for y far above n
    (where Q underflows).  Its terms fall from the last by a factor (n-1)/y
    or less per step: only those down to e^-45 of it are summed."""
    step = math.log(y.min() / max(n - 1, 1))
    i = np.arange(max(0, n - 1 - math.ceil(45.0 / step)), n)[:, None]
    terms = i * np.log(y) - gammaln(i + 1.0)
    return terms[-1] + np.log(np.exp(terms - terms[-1]).sum(axis=0))


def log_gamma_tail(n: int, y, lower: bool):
    """log P(n, y) if ``lower``, else log Q(n, y), for integer n >= 1, also
    where the tail underflows: there log P is taken from y^n e^-y / n!
    1F1(1; n+1; y) (small y) and log Q from ``_log_gamma_series`` (large y)."""
    y = np.asarray(y, float)
    value = (gammainc if lower else gammaincc)(n, y)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(value))
        gone = (value < _TINY) & np.isfinite(y)
        if np.any(gone):
            yg = y[gone]
            if lower:
                out[gone] = n * np.log(yg) - yg - math.lgamma(n + 1) + np.log(hyp1f1(1, n + 1, yg))
            else:
                out[gone] = _log_gamma_series(n, yg) - yg
    return out[()]


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    x = float(x)
    if not (x > 0.0):
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    return float(psi(x))
