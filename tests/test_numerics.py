"""Quadrature and special-function checks against analytic oracles.

Expected values come from antiderivatives or classical constants, never
from the code under test.
"""

import inspect
import math
import subprocess
import sys
import textwrap

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHILD_ENV
from recinacc import numerics
from recinacc.errors import (
    DomainError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    QuadratureError,
)
from recinacc.numerics import (
    IntegrationResult,
    QuadratureConfig,
    digamma,
    gamma_expectation,
    integrate,
    log_gamma,
)

EULER_GAMMA = 0.5772156649015329
DEFAULT = QuadratureConfig()


class TestIntegrate:
    def test_constant(self):
        r = integrate(lambda x: np.ones_like(x), (0.0, 1.0))
        assert r.value == pytest.approx(1.0, abs=1e-14)
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations > 0

    def test_exponential_tail(self):
        r = integrate(lambda x: np.exp(-x), (0.0, math.inf))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_log_singularity(self):
        # antiderivative x - x log x gives exactly 1 on (0, 1)
        r = integrate(lambda x: -np.log(x), (0.0, 1.0))
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_whole_line_gaussian(self):
        r = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), (-math.inf, math.inf))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_left_infinite(self):
        r = integrate(lambda x: np.exp(x), (-math.inf, 0.0))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_algebraic_tail(self):
        # antiderivative -2 x^(-1/2) on (1, inf) gives 2
        r = integrate(lambda x: x**-1.5, (1.0, math.inf))
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_panel_far_above_its_halves_leaves_no_trace_in_the_totals(self):
        # s^201 e^(-s/2) / 201!, mass 2^202 near s = 400: the first tail
        # panel reads 1e61 and its halves 3e32, so running totals updated by
        # difference cancelled to 0 +- 0, and the integral stopped there
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
        r = integrate(lambda s: np.exp(201.0 * np.log(s) - 0.5 * s - math.lgamma(202.0)),
                      (0.0, math.inf), cfg)
        assert abs(r.value - 2.0**202) <= r.abs_error_estimate <= 1e-8 * 2.0**202

    @pytest.mark.parametrize("f, cfg, exact", [
        (lambda x: 1e-15 * np.exp(-100.0 * (x - 3.0) ** 2),
         QuadratureConfig(abs_tol=1e-30, rel_tol=1e-12), 1e-15 * math.sqrt(math.pi) / 10.0),
        (lambda x: 1e-16 * np.sin(x) ** 2, QuadratureConfig(abs_tol=1e-40, rel_tol=1e-13),
         1e-16 * (5.0 - math.sin(20.0) / 4.0)),
    ], ids=["gaussian", "sine-squared"])
    def test_integral_below_1e14_refines_to_its_tolerance(self, f, cfg, exact):
        # integrals far below 1: their panels are bisected down to the
        # tolerance asked for, however little mass each holds
        r = integrate(f, (0.0, 10.0), cfg)
        assert abs(r.value - exact) <= r.abs_error_estimate <= cfg.rel_tol * abs(r.value)

    def test_polynomial_exactness(self):
        r = integrate(lambda x: x**10, (0.0, 1.0))
        assert r.value == pytest.approx(1.0 / 11.0, rel=1e-14)

    def test_scalar_integrand_broadcast(self):
        r = integrate(lambda x: 1.0, (0.0, 2.0))
        assert r.value == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / x, (0.0, 1.0))

    def test_non_convergence_carries_partial_value(self):
        cfg = QuadratureConfig(max_subdivisions=3)
        with pytest.raises(NonConvergenceError) as exc:
            integrate(lambda x: -np.log(x), (0.0, 1.0), cfg)
        assert exc.value.partial_value == pytest.approx(1.0, abs=1e-2)
        assert exc.value.abs_error_estimate > 0.0

    def test_nan_integrand_identifies_abscissa(self):
        with pytest.raises(IntegrandError) as exc:
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), (0.0, 1.0))
        assert exc.value.abscissa is not None
        assert exc.value.abscissa > 0.5

    @pytest.mark.parametrize(
        "interval,sign",
        [((0.0, math.inf), 1.0), ((-math.inf, 0.0), -1.0), ((-math.inf, math.inf), -1.0)],
    )
    def test_nan_abscissa_reported_in_x_on_infinite_intervals(self, interval, sign):
        # the tails are integrated in u = 1/(1 + |x| - split); the error
        # names the x where the integrand failed, with its sign
        with pytest.raises(IntegrandError) as exc:
            integrate(lambda x: np.where(abs(x) > 5, np.nan, np.exp(-abs(x))), interval)
        assert abs(exc.value.abscissa) > 5
        assert math.copysign(1.0, exc.value.abscissa) == sign
        assert repr(exc.value.abscissa) in str(exc.value)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, (1.0, 1.0))
        with pytest.raises(DomainError):
            integrate(lambda x: x, (2.0, 1.0))
        for interval in [(math.nan, 1.0), (0.0, math.nan)]:
            with pytest.raises(DomainError, match="must not be NaN"):
                integrate(lambda x: x, interval)

    def test_nodes_round_onto_an_endpoint_only_away_from_zero(self):
        # refinement toward a singular end narrows a panel there until a
        # node rounds onto the end; floats are dense enough near 0 that no
        # node reaches it
        seen = []

        def inv_sqrt(x):
            x = np.asarray(x, float)
            seen.append(float(x.min()))
            with np.errstate(divide="ignore"):
                return 1.0 / np.sqrt(x)

        with pytest.raises(IntegrandError) as exc:
            integrate(lambda x: inv_sqrt(1.0 - x), (0.0, 1.0))
        assert exc.value.abscissa == 1.0
        seen.clear()
        r = integrate(inv_sqrt, (0.0, 1.0))
        assert r.value == pytest.approx(2.0, abs=1e-8)
        assert min(seen) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        c0=st.floats(-5, 5),
        c1=st.floats(-5, 5),
        c2=st.floats(-5, 5),
        a=st.floats(-3, 3),
        w=st.floats(0.1, 4),
    )
    def test_quadratic_against_antiderivative(self, c0, c1, c2, a, w):
        b = a + w
        r = integrate(lambda x: c2 * x**2 + c1 * x + c0, (a, b))

        def anti(x):
            return c2 * x**3 / 3 + c1 * x**2 / 2 + c0 * x

        assert r.value == pytest.approx(anti(b) - anti(a), abs=1e-9, rel=1e-9)


ROUND_CASES = [
    (lambda x: np.exp(-x) * np.cos(5.0 * x), (0.0, 3.0), 1),
    (lambda x: -np.log(x), (0.0, 1.0), 1),
    # head (a, a + 1) and mapped tail are two panel trees
    (lambda x: x * x * np.exp(-x) / (1.0 + x), (0.0, math.inf), 2),
    (lambda x: np.exp(-0.5 * x * x) * np.cos(2.0 * x), (-math.inf, math.inf), 4),
    # singular at the left end, at the right end, at both ends; a slowly
    # decaying mapped tail; the whole line, singular at the split and
    # slowly decaying: the refinement chases chains of panels toward ends
    (lambda x: -np.log(x) / np.sqrt(x), (0.0, 1.0), 1),
    (lambda x: -np.log(-x) / np.sqrt(-x), (-1.0, 0.0), 1),
    (lambda x: -np.log(x) / np.sqrt(x) - np.log1p(-x), (0.0, 1.0), 1),
    (lambda x: x**-1.5, (1.0, math.inf), 2),
    (lambda x: 1.0 / ((1.0 + x * x) * np.sqrt(np.abs(x))), (-math.inf, math.inf), 4),
]


class TestPanelEvaluation:
    """One integrand call per round: every live piece's next panels.

    Without look-ahead (``elementwise=False``) a bisection asks for its
    two halves; with it (the default) for its halves and their halves,
    and, where the bisected panel touches an end of its piece, for more
    levels of the panel at that end (the spine), so that most later
    bisections need no call.  Each end's spine is 2 levels deep at
    first, doubles each time the refinement asks at that end again, and
    stops at a panel at the width floor.  A lone integral's first call
    holds each piece's first panel and the subtree of its first
    bisection.
    """

    @staticmethod
    def counted(f):
        sizes = []

        def wrapped(x):
            sizes.append(np.size(x))
            return f(x)

        return wrapped, sizes

    @pytest.mark.parametrize("f,interval,starts", ROUND_CASES)
    def test_one_call_per_round(self, f, interval, starts):
        wrapped, sizes = self.counted(f)
        r = integrate(wrapped, interval, elementwise=False)
        bisections = (r.evaluations - 15 * starts) // 30
        assert bisections > 0
        assert sum(sizes) == r.evaluations
        # the first call carries every tree's 15-point panel; every later
        # call both halves of one bisected panel per tree still refining
        assert sizes[0] == 15 * starts
        assert all(size % 30 == 0 and 0 < size <= 30 * starts for size in sizes[1:])
        if starts == 1:
            assert sizes[1:] == [30] * bisections
        else:
            assert len(sizes) < starts + bisections

    @pytest.mark.parametrize("f,interval,starts", ROUND_CASES)
    def test_look_ahead_calls(self, f, interval, starts):
        wrapped, sizes = self.counted(f)
        r = integrate(wrapped, interval)
        bisections = (r.evaluations - 15 * starts) // 30
        # the first call carries every tree's 15-point panel and the 14
        # panels below its first bisection: 6 and 2 per spine level at
        # each end.  A later call, for each tree that does not hold its
        # halves yet, the 6 panels below a bisected panel and 2 per spine
        # level at the end of the piece that the panel touches, the depth
        # at each end 2, 4, 8, ... in turn; most bisections need no call
        assert sizes[0] == 225 * starts
        assert all(size % 15 == 0 and size > 0 for size in sizes[1:])
        if starts == 1:
            depths = [(size // 15 - 6) // 2 for size in sizes[1:]]
            assert all(d == 0 or (d >= 2 and d & (d - 1) == 0) for d in depths)
        assert len(sizes) - 1 < bisections
        assert sum(sizes) >= r.evaluations
        # consumed points and the result are those without look-ahead
        alone = integrate(f, interval, elementwise=False)
        assert _outcome(r) == _outcome(alone)

    def test_end_chain_takes_fewer_calls_than_two_levels(self):
        # 67 bisections chase the singularity at 0: after the first call,
        # one call each without look-ahead, 34 with two levels and no
        # spine, 14 with a spine of 3 levels, 5 with one that doubles
        wrapped, sizes = self.counted(lambda x: -np.log(x) / np.sqrt(x))
        r = integrate(wrapped, (0.0, 1.0))
        assert r.evaluations == 15 + 30 * 67
        # the first call holds the first panel and its first bisection's
        # subtree, which reaches both ends; later ones 6 panels plus 2 per
        # spine level at 0, 2, 4, 8, 16 and 32 levels deep
        assert sizes == [225, 150, 210, 330, 570, 1050]

    @pytest.mark.parametrize(
        "f,interval,cfg",
        [
            # toward 0: a chain of 290 bisections, and of 657 and 105 where
            # the refinement also splits panels beside the chain
            (lambda x: x**-0.9, (0.0, 1.0), DEFAULT),
            (lambda x: -np.log(x) * x**-0.95, (0.0, 1.0), DEFAULT),
            (lambda x: -np.log(x) / np.sqrt(x), (0.0, 1.0),
             QuadratureConfig(abs_tol=1e-300, rel_tol=1e-13)),
            # toward 1, where floats run out: a node rounds onto 1 after
            # 47 bisections, where the integrand is inf (IntegrandError);
            # at a looser tolerance the chase stops after 38
            (lambda x: (1.0 - x) ** -0.5, (0.0, 1.0), DEFAULT),
            (lambda x: np.where(x < 1.0, (1.0 - x) ** -0.5, 0.0), (0.0, 1.0),
             QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)),
            # down a mapped heavy tail, toward u = 0: 301 bisections.  The
            # spine reaches u where u^2 underflows, which must raise no
            # floating-point warning (an error under this suite's filters)
            (lambda x: x**-1.1, (1.0, math.inf), DEFAULT),
        ],
    )
    def test_deep_chase_calls_grow_logarithmically(self, f, interval, cfg):
        # each end's spine doubles each time the chase asks there again,
        # so a chase of m bisections takes about log2(m) calls, against
        # m/5 with a spine of 3 levels; the outcome is that without
        # look-ahead, to the bit
        def quiet(x):
            with np.errstate(divide="ignore"):
                return f(x)

        outcomes, calls = [], []
        for elementwise in (False, True):
            wrapped, sizes = self.counted(quiet)
            try:
                outcomes.append(_outcome(integrate(wrapped, interval, cfg,
                                                   elementwise=elementwise)))
            except IntegrandError as exc:
                outcomes.append(_outcome(exc))
            calls.append(len(sizes))
        assert outcomes[0] == outcomes[1]
        bisections = calls[0] - 1  # one per call without look-ahead
        assert bisections >= 38
        assert calls[1] <= 2.0 * math.log2(bisections)

    def test_spine_stops_at_the_width_floor(self):
        # below (1 - 64 s, 1) the panels at 1 reach the floor, 4 float
        # spacings s wide, two levels below the quarters: a spine of 64
        # levels stops there, where the refinement retires panels
        s = np.spacing(1.0)
        panels = numerics._subtree(1.0 - 64.0 * s, 1.0, 2, 0, 64)
        assert len(panels) == 6 + 2 * 2
        assert panels[-1] == (1.0 - 4.0 * s, 1.0)
        assert numerics._at_floor(*panels[-1])
        assert not any(numerics._at_floor(*p) for p in panels[:-2])

    def test_first_call_of_a_lone_integral(self):
        # a lone integral's first call holds its first panel and the 14
        # panels below its first bisection; one that settles on its first
        # panel makes no other call
        wrapped, sizes = self.counted(lambda x: x**10)
        r = integrate(wrapped, (0.0, 1.0))
        assert (sizes, r.evaluations) == ([225], 15)
        # a batch of more than one holds first panels only
        wrapped, sizes = self.counted(lambda x: x**10)
        numerics.integrate_each(wrapped, [(0.0, 1.0), (1.0, 2.0)])
        assert sizes == [30]
        # and so does an integrand that is not elementwise, alone, where
        # the first panel does not settle
        wrapped, sizes = self.counted(lambda x: -np.log(x))
        integrate(wrapped, (0.0, 1.0), elementwise=False)
        assert sizes[:2] == [15, 30]

    @staticmethod
    def nan_near_quarters(x):
        # NaN near 1/4 and 3/4 only: neither is a node of the (0, 1) panel,
        # and each is the midpoint node of one of its two halves
        x = np.asarray(x, dtype=float)
        near = (np.abs(x - 0.25) < 0.01) | (np.abs(x - 0.75) < 0.01)
        return np.where(near, np.nan, -np.log(x))

    def test_both_halves_non_finite_reports_the_left_one(self):
        wrapped, sizes = self.counted(self.nan_near_quarters)
        with pytest.raises(IntegrandError) as exc:
            integrate(wrapped, (0.0, 1.0), elementwise=False)
        assert sizes == [15, 30]
        assert exc.value.abscissa == 0.25
        # with look-ahead the first call holds the halves, the quarters'
        # halves and the spines at both ends too
        wrapped, sizes = self.counted(self.nan_near_quarters)
        with pytest.raises(IntegrandError) as exc:
            integrate(wrapped, (0.0, 1.0))
        assert sizes == [225]
        assert exc.value.abscissa == 0.25

    def test_non_finite_panel_never_consumed_is_ignored(self):
        # x = 7/8 is a node of (3/4, 1) and of panels below it only: the
        # look-ahead evaluates it with the first bisection, but the
        # refinement, busy at the log singularity, never bisects (1/2, 1)
        seen = []

        def f(x):
            seen.append(np.any(x == 0.875))
            return np.where(x == 0.875, np.nan, -np.log(x))

        r = integrate(f, (0.0, 1.0))
        assert any(seen)
        del seen[:]
        alone = integrate(f, (0.0, 1.0), elementwise=False)
        assert not any(seen)
        assert _outcome(r) == _outcome(alone)

    @pytest.mark.parametrize(
        "bad,consumed,call",
        [
            # the centre node of (15/16, 1), the last spine panel at the
            # right end below the first bisection, which the first call
            # holds; -log x is smooth there
            (31 / 32, False, 0),
            # the centre node of (1/32, 1/16), on the spine at the left
            # end below the bisection of (0, 1/16), which asks for it and
            # consumes it
            (3 / 64, True, 1),
        ],
    )
    def test_non_finite_spine_panel(self, bad, consumed, call):
        seen = []

        def f(x):
            seen.append(bool(np.any(x == bad)))
            return np.where(x == bad, np.nan, -np.log(x))

        outcomes = []
        for elementwise in (True, False):
            del seen[:]
            try:
                outcomes.append(_outcome(integrate(f, (0.0, 1.0), elementwise=elementwise)))
            except IntegrandError as exc:
                outcomes.append(_outcome(exc))
            if elementwise:
                assert seen.index(True) == call
            else:
                assert any(seen) == consumed
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] is IntegrandError) == consumed
        if consumed:
            assert outcomes[0][2] == bad

    @pytest.mark.parametrize(
        "interval,sign,trees",
        [((0.0, math.inf), 1.0, 2), ((-math.inf, 0.0), -1.0, 2),
         ((-math.inf, math.inf), -1.0, 4)],
    )
    def test_both_halves_non_finite_reported_in_x_on_infinite_intervals(self, interval, sign,
                                                                         trees):
        # the first tail bisection splits u in (0, 1); both halves fail at
        # their midpoints u = 1/4 and 3/4, i.e. |x| = 4 and 4/3.  The left
        # half in u, the far one in x, is reported, in x and with its sign.
        def f(x):
            u = 1.0 / np.abs(x)  # u = 1/(1 + |x| - 1) on the tail
            return np.where(np.isnan(self.nan_near_quarters(u)), np.nan, np.exp(-np.abs(x)))

        # without look-ahead a second call holds the tails' halves; on the
        # whole line both tails bisect in it and both fail, and the left
        # one, first in order, is reported.  With look-ahead the first
        # call holds every piece's first bisection
        for elementwise, calls in ((False, [15 * trees, 15 * trees]), (True, [225 * trees])):
            wrapped, sizes = self.counted(f)
            with pytest.raises(IntegrandError) as exc:
                integrate(wrapped, interval, elementwise=elementwise)
            assert sizes == calls
            assert exc.value.abscissa == sign * 4.0
            assert str(exc.value) == f"integrand returned nan at x={sign * 4.0!r}"

    @pytest.mark.parametrize(
        "f,interval,value,error",
        [
            (lambda x: np.exp(-x) * np.cos(5.0 * x), (0.0, 3.0),
             "0x1.79ff9d79c7d17p-5", "0x1.14516c2ab0000p-45"),
            (lambda x: x * x * np.exp(-x) / (1.0 + x), (0.0, math.inf),
             "0x1.3154710477cc4p-1", "0x1.e1e7a8eb84504p-33"),
            (lambda x: np.exp(-0.5 * x * x) * np.cos(2.0 * x), (-math.inf, math.inf),
             "0x1.5b607c16eda28p-2", "0x1.404880aa75d5bp-39"),
            (lambda x: -np.log(x) / np.sqrt(x), (0.0, 1.0),
             "0x1.ffffffff8aa02p+1", "0x1.0c90e782fdc2ep-28"),
        ],
    )
    def test_results_pinned_to_the_bit(self, f, interval, value, error):
        # values from the one-panel-per-call integrator: evaluating both
        # halves of a bisection in one call, or their halves as well, must
        # not move a bit
        for elementwise in (True, False):
            r = integrate(f, interval, elementwise=elementwise)
            assert (r.value.hex(), r.abs_error_estimate.hex()) == (value, error)


def _outcome(r):
    """A result or failure, to the bit."""
    if isinstance(r, Exception):
        return (type(r), str(r), getattr(r, "abscissa", None), getattr(r, "partial_value", None))
    return (r.value.hex(), r.abs_error_estimate.hex(), r.evaluations)


def _alone(f, interval, cfg, elementwise=True):
    try:
        return integrate(f, interval, cfg, elementwise=elementwise)
    except QuadratureError as exc:
        return exc


def _piecewise(x):
    # a different integrand on each interval of BATCH: a log singularity
    # at 0, an oscillation, an algebraic half-line tail and an
    # exponential left half-line
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return np.select(
            [x < -1.0, x < 1.0, x < 3.0],
            [np.exp(x), -np.log(np.abs(x)) / np.sqrt(np.abs(x)), np.exp(-x) * np.cos(5.0 * x)],
            x**-1.5,
        )


BATCH = [(0.0, 1.0), (1.0, 3.0), (3.0, math.inf), (-math.inf, -1.0), (1.5, 2.5)]


class TestBatchedIntegrals:
    """integrate_each: every integral as it comes out alone, in fewer calls."""

    @pytest.mark.parametrize(
        "f,intervals",
        [
            (_piecewise, BATCH),
            (lambda x: np.exp(-0.5 * x * x) * np.cos(2.0 * x),
             [(-math.inf, math.inf), (0.0, 1.0), (-math.inf, 0.5), (0.25, math.inf)]),
        ],
    )
    def test_each_result_is_the_single_result(self, f, intervals):
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return f(x)

        results = numerics.integrate_each(counted, intervals, elementwise=False)
        batch_calls = len(calls)
        singles = [_alone(counted, iv, DEFAULT, False) for iv in intervals]
        assert [_outcome(r) for r in results] == [_outcome(r) for r in singles]
        assert sum(calls[:batch_calls]) == sum(r.evaluations for r in results)
        assert batch_calls < len(calls) - batch_calls
        # with look-ahead: the same results, batched and alone, in fewer calls
        del calls[:]
        ahead = numerics.integrate_each(counted, intervals)
        ahead_calls = len(calls)
        ahead_singles = [_alone(counted, iv, DEFAULT) for iv in intervals]
        assert [_outcome(r) for r in ahead] == [_outcome(r) for r in results]
        assert [_outcome(r) for r in ahead_singles] == [_outcome(r) for r in singles]
        assert ahead_calls < len(calls) - ahead_calls
        assert ahead_calls < batch_calls

    @pytest.mark.parametrize("bad_at", [0.5, 2.0, 2.2, 5.0, -3.0])
    def test_first_failure_in_order_is_the_single_failure(self, bad_at):
        # non-finite in one narrow spot: every interval holding it fails
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - bad_at) < 0.02, np.nan, _piecewise(x))

        singles = [_alone(f, iv, DEFAULT) for iv in BATCH]
        first = next(i for i, r in enumerate(singles) if isinstance(r, Exception))
        with pytest.raises(IntegrandError) as failure:
            numerics.integrate_each(f, BATCH)
        assert _outcome(failure.value) == _outcome(singles[first])

    @pytest.mark.parametrize("budget", [1, 3, 4])
    def test_tiny_subdivision_budget(self, budget):
        cfg = QuadratureConfig(max_subdivisions=budget)
        intervals = [BATCH[i] for i in (4, 1, 3, 0, 2)]
        singles = [_alone(_piecewise, iv, cfg) for iv in intervals]
        failed = [i for i, r in enumerate(singles) if isinstance(r, Exception)]
        assert failed and failed[0] > 0  # some integrals finish before the first failure
        with pytest.raises(NonConvergenceError) as failure:
            numerics.integrate_each(_piecewise, intervals, cfg)
        assert _outcome(failure.value) == _outcome(singles[failed[0]])

    @staticmethod
    def mixed(x):
        # a log singularity at 0 and a sharp peak at 2.5, which refine; a
        # cosine whose quarter-wide intervals settle on their first panel;
        # the singularity again at 60, with NaN at the centres of its first
        # halves; NaN at 50.5, the centre of (50, 51)'s first panel
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return np.select(
                [x < 1.5, x < 5.0, x < 45.0, x == 50.5, x < 55.0,
                 np.abs(x - 60.5) % 0.5 == 0.25],
                [-np.log(x) / np.sqrt(x), 1.0 / (1e-4 + (x - 2.5) ** 2), np.cos(x),
                 np.nan, 1.0, np.nan],
                -np.log(x - 60.0) / np.sqrt(x - 60.0),
            )

    ONE_PANEL = [(10.0 + 0.25 * i, 10.25 + 0.25 * i) for i in range(40)]

    def test_one_panel_refining_and_failing_integrals_in_one_batch(self):
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return self.mixed(x)

        ones, late, first_panel = self.ONE_PANEL, (60.0, 61.0), (50.0, 51.0)
        ok = ones[:20] + [(0.0, 1.0)] + ones[20:30] + [(2.0, 3.0)] + ones[30:]
        singles = [_alone(self.mixed, iv, DEFAULT) for iv in ok]
        assert [i for i, r in enumerate(singles) if r.evaluations > 15] == [20, 31]
        results = numerics.integrate_each(counted, ok)
        assert [_outcome(r) for r in results] == [_outcome(r) for r in singles]
        # the first call carries every first panel (a batch of many is not
        # seeded), the later ones the look-ahead of the two integrals that
        # refine, with the spine at 0 doubling
        assert calls == [15 * 42, 420, 300, 420, 660, 1140, 90, 90]
        # a first panel that is not finite fails its integral in the first
        # round, but an earlier integral that fails later still comes first
        for batch, failing in (
            (ok[:25] + [first_panel] + ok[25:], first_panel),
            (ok[:21] + [late] + ok[21:25] + [first_panel] + ok[25:], late),
        ):
            with pytest.raises(IntegrandError) as failure:
                numerics.integrate_each(self.mixed, batch)
            alone = _alone(self.mixed, failing, DEFAULT)
            assert isinstance(alone, IntegrandError)
            assert _outcome(failure.value) == _outcome(alone)
        # integrals that all settle on their first panel take one call
        del calls[:]
        results = numerics.integrate_each(counted, ones)
        assert calls == [15 * len(ones)]
        assert [_outcome(r) for r in results] == [
            _outcome(_alone(self.mixed, iv, DEFAULT)) for iv in ones]

    def test_one_result_built_per_interval(self, monkeypatch):
        # the four pieces of the whole line and the one of (0, 1) are
        # summed as plain numbers: only each interval's result is built
        def f(x):
            return np.exp(-0.5 * x * x) * np.cos(2.0 * x)

        intervals = [(-math.inf, math.inf), (0.0, 1.0)]
        singles = [_outcome(_alone(f, iv, DEFAULT)) for iv in intervals]
        built = []
        check = IntegrationResult.__post_init__
        monkeypatch.setattr(IntegrationResult, "__post_init__", lambda r: built.append(check(r)))
        results = numerics.integrate_each(f, intervals)
        assert len(built) == 2
        assert [_outcome(r) for r in results] == singles

    def test_bad_interval_stops_the_batch_there(self):
        with pytest.raises(DomainError):
            numerics.integrate_each(_piecewise, [(0.0, 1.0), (2.0, 1.0), (1.0, 3.0)])

    def test_bad_interval_raises_before_any_integral_runs(self):
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return _piecewise(x)

        with pytest.raises(DomainError, match=r"a < b, got \(2.0, 1.0\)"):
            numerics.integrate_each(counted, [(0.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
        assert calls == []

    def test_panel_sums_match_the_per_panel_loop(self):
        # reference: each panel summed on its own with `@`
        def per_panel(fp, half, width):
            out = []
            for row, h, w in zip(fp, half, width):
                kronrod = h * float(numerics._WK @ row)
                gauss = h * float(numerics._WGAUSS @ row)
                resabs = abs(h) * float(numerics._WK @ np.abs(row))
                resasc = abs(h) * float(numerics._WK @ np.abs(row - kronrod / w))
                err = abs(kronrod - gauss)
                if resasc != 0.0 and err != 0.0:
                    err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
                out.append((kronrod, max(err, 50.0 * numerics._EPS * resabs)))
            return out

        rng = np.random.default_rng(3)
        for panels in (1, 2, 3, 17, 200):
            scale = 10.0 ** rng.uniform(-200, 200, size=(panels, 1))
            fp = rng.standard_normal((panels, 15)) * scale
            fp[rng.random(fp.shape) < 0.1] = 0.0
            half = (10.0 ** rng.uniform(-12, 3, size=panels)).tolist()
            width = [2.0 * h for h in half]
            assert numerics._panel_rules(fp, half, width) == per_panel(fp, half, width)


class TestPieceIndex:
    """integrate_each(..., indexed=True): integral j is that of f(., j) alone."""

    # finite, half-line and whole-line intervals, overlapping, so that only
    # the index tells their integrands apart: a piece of an infinite
    # interval that saw another index would integrate another function
    INTERVALS = [(0.0, 1.0), (0.0, math.inf), (-math.inf, math.inf), (-math.inf, 0.5),
                 (1.0, 3.0), (0.0, math.inf)]
    INTEGRANDS = [
        lambda x: -np.log(x) / np.sqrt(x),
        lambda x: np.exp(-x) * np.cos(3.0 * x),
        lambda x: np.exp(-0.5 * x * x) * np.cos(2.0 * x),
        lambda x: np.exp(x),
        lambda x: 1.0 / (1e-3 + (x - 2.0) ** 2),
        lambda x: (1.0 + x) ** -1.5,
    ]

    @staticmethod
    def indexed(integrands, seen=None):
        def f(x, j):
            assert x.shape == j.shape and j.dtype.kind == "i"
            if seen is not None:
                seen.append(sorted(set(j.tolist())))
            out = np.empty_like(x)
            with np.errstate(all="ignore"):
                for i in np.unique(j).tolist():
                    out[j == i] = integrands[i](x[j == i])
            return out

        return f

    @pytest.mark.parametrize("elementwise", [True, False])
    def test_each_result_is_its_own_integrands_alone(self, elementwise):
        seen = []
        f = self.indexed(self.INTEGRANDS, seen)
        results = numerics.integrate_each(f, self.INTERVALS, elementwise=elementwise,
                                          indexed=True)
        singles = []
        for g, iv in zip(self.INTEGRANDS, self.INTERVALS):
            calls = []

            def counted(x, g=g):
                calls.append(np.size(x))
                with np.errstate(all="ignore"):
                    return g(x)

            singles.append((_alone(counted, iv, DEFAULT, elementwise), len(calls)))
        assert [_outcome(r) for r in results] == [_outcome(r) for r, _ in singles]
        # one call per round: the batch takes as many calls as its longest
        # integral alone, not their sum, or one more with look-ahead, where
        # an integral alone holds its first bisection from its first call
        longest = max(n for _, n in singles)
        assert len(seen) - elementwise <= longest <= len(seen) < sum(n for _, n in singles)
        assert seen[0] == list(range(len(self.INTERVALS)))

    @pytest.mark.parametrize("bad", [[4], [1, 3], [5, 0]])
    def test_first_failure_in_order_is_raised_with_its_index(self, bad):
        def failing(g):
            # NaN near 0.3 and 2.3, inside every interval
            return lambda x: np.where(np.abs(np.abs(x - 1.3) - 1.0) < 0.15, np.nan, g(x))

        integrands = [failing(g) if i in bad else g for i, g in enumerate(self.INTEGRANDS)]
        first = min(bad)
        alone = _alone(integrands[first], self.INTERVALS[first], DEFAULT)
        assert isinstance(alone, IntegrandError)
        with pytest.raises(IntegrandError) as failure:
            numerics.integrate_each(self.indexed(integrands), self.INTERVALS, indexed=True)
        assert _outcome(failure.value) == _outcome(alone)
        assert failure.value.interval == first

    def test_non_convergence_carries_its_index(self):
        cfg = QuadratureConfig(max_subdivisions=3)
        with pytest.raises(NonConvergenceError) as failure:
            numerics.integrate_each(self.indexed(self.INTEGRANDS), self.INTERVALS, cfg,
                                    indexed=True)
        singles = [_alone(g, iv, cfg) for g, iv in zip(self.INTEGRANDS, self.INTERVALS)]
        first = next(i for i, r in enumerate(singles) if isinstance(r, Exception))
        assert _outcome(failure.value) == _outcome(singles[first])
        assert failure.value.interval == first


class TestMessages:
    """Error messages print plain floats, not numpy reprs."""

    def test_integrand_error(self):
        with pytest.raises(IntegrandError) as exc:
            integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), (0.0, 1.0))
        x = exc.value.abscissa
        assert type(x) is float
        assert str(exc.value) == f"integrand returned inf at x={x!r}"

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError) as exc:
            integrate(lambda x: -np.log(x), (0.0, 1.0), QuadratureConfig(max_subdivisions=3))
        assert str(exc.value).startswith("no convergence after 3 of 3 subdivisions: ")
        assert "np." not in str(exc.value)
        assert repr(exc.value.partial_value) in str(exc.value)

    @pytest.mark.parametrize("width, jump, made, budget", [(2, 1, 0, 2000), (16, 8, 3, 2000),
                                                           (16, 8, 3, 4)])
    def test_non_convergence_at_the_float_spacing_floor(self, width, jump, made, budget):
        # a jump of 1e30 on (1, 1 + width s), s the float spacing at 1: every
        # panel reaches the floor long before the budget; the narrower
        # interval's first panel is at the floor, and its first call also
        # holds collapsed panels below it.  Retiring a panel is not a
        # subdivision, so a budget of 4 reaches the floor too
        s = np.spacing(1.0)
        with pytest.raises(NonConvergenceError) as exc:
            integrate(lambda x: np.where(x > 1.0 + jump * s, 1e30, 0.0), (1.0, 1.0 + width * s),
                      QuadratureConfig(max_subdivisions=budget))
        assert str(exc.value).startswith(
            f"no convergence after {made} of {budget} subdivisions "
            "(every panel left is at the float-spacing floor): value ~ "
        )


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-10
        assert cfg.rel_tol == 1e-9
        assert cfg.max_subdivisions == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"rel_tol": 0.0},
            {"max_subdivisions": 0},
            # floats passed the check, then raised TypeError from range()
            # on the first integral
            {"max_subdivisions": 2.5},
            {"max_subdivisions": 1e9},
            {"max_subdivisions": math.nan},
            # a bool passed as an integer
            {"max_subdivisions": True},
            # these raised a bare TypeError from the comparison
            {"abs_tol": "1e-3"},
            {"rel_tol": None},
            {"abs_tol": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureConfig(**kwargs)

    def test_result_validation(self):
        with pytest.raises(ParameterError):
            IntegrationResult(1.0, -1.0, 10)
        with pytest.raises(ParameterError):
            IntegrationResult(1.0, 0.0, -1)


class TestGammaExpectation:
    def test_unit_function(self):
        r = gamma_expectation(lambda t: np.ones_like(t), 3, 2)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_mean(self, n, k):
        r = gamma_expectation(lambda t: t, n, k)
        assert r.value == pytest.approx(n / k, rel=1e-12)

    def test_second_moment(self):
        # E[T^2] = n(n+1)/k^2
        r = gamma_expectation(lambda t: t * t, 4, 3)
        assert r.value == pytest.approx(4 * 5 / 9, rel=1e-11)

    def test_log_moment_n1(self):
        r = gamma_expectation(np.log, 1, 1)
        assert r.value == pytest.approx(-EULER_GAMMA, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_log_moment_cross_validates_digamma(self, n, k):
        # the independent quadrature route must reproduce psi(n) - log k
        r = gamma_expectation(np.log, n, k)
        assert r.value == pytest.approx(digamma(n) - math.log(k), abs=1e-8)

    def test_laplace_transform(self):
        # E[e^-sT] = (k/(k+s))^n
        r = gamma_expectation(lambda t: np.exp(-2.5 * t), 3, 2)
        assert r.value == pytest.approx((2 / 4.5) ** 3, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 20, 172])
    def test_far_tail_moment_within_estimate(self, n):
        # E[e^{T/2}] = 2^n weighs the far tail of the density
        r = gamma_expectation(lambda t: np.exp(t / 2.0), n, 1)
        assert abs(r.value - 2.0**n) <= r.abs_error_estimate

    def test_adaptive_fallback_finds_mass_far_from_zero(self):
        # one (0, inf) integral missed the mass near t = 600 and returned
        # 2.6e-83; the split at the mode finds it
        from scipy.special import gammaincc

        n, c = 600, 700.0
        exact = n - (n * gammaincc(n + 1, c) - c * gammaincc(n, c))  # E[min(T, c)]
        r = gamma_expectation(lambda t: np.minimum(t, c), n, 1)
        assert abs(r.value - exact) <= r.abs_error_estimate <= 1e-9 * exact

    def test_non_finite_value_at_real_weight_raises(self):
        # a non-finite value where the density is not negligible is
        # reported, not dropped
        with pytest.raises(IntegrandError):
            gamma_expectation(lambda t: np.where(t > 5, np.nan, 1.0), 2, 1)

    @pytest.mark.parametrize("n", [1, 2, 80, 10**3, 10**5, 10**7, 10**9])
    @pytest.mark.parametrize("k", [1, 3])
    def test_density_within_eps_of_its_peak(self, n, k):
        # against 40 digits over the mean +- 8 sd; exp of the log form
        # n log k + (n-1) log t - kt - log (n-1)! is 4.8e-10 of the peak off
        # at n = 10^5.  The reference is taken at y = kt as rounded to a
        # double, the density's own argument: at n = 10^9 and k = 3 that
        # rounding alone moves it by 1.1e-12 of its peak.
        mean, sd = n / k, math.sqrt(n) / k
        t = np.linspace(max(mean - 8.0 * sd, 0.0), mean + 8.0 * sd, 161)
        with mp.workdps(40):
            exact = np.array([
                float(k * mp.mpf(y) ** (n - 1) * mp.exp(-mp.mpf(y)) / mp.factorial(n - 1))
                for y in (k * t).tolist()
            ])
        gap = np.abs(numerics._gamma_pdf(t, n, k) - exact)
        assert gap.max() <= 1e-12 * exact.max()

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (80, 1), (10**7, 3)])
    def test_density_is_zero_at_both_ends(self, n, k):
        # scipy's kernel is NaN at t = inf, where the density is 0
        density = numerics._gamma_pdf(np.array([0.0, math.inf]), n, k)
        assert density.tolist() == [k if n == 1 else 0.0, 0.0]

    def test_mass_mean_and_log_moment_to_a_billion(self):
        # 41 log-spaced n in [10^5, 10^9], k in {1, 3}: E[1] = 1,
        # E[T] = n / k and E[log T] = psi(n) - log k, each within its estimate
        outside = []
        for n in np.unique(np.round(np.logspace(5, 9, 41))).astype(int).tolist():
            for k in (1, 3):
                with mp.workdps(30):
                    log_moment = float(mp.digamma(n) - mp.log(k))
                for g, exact in ((np.ones_like, 1.0), (lambda t: t, n / k), (np.log, log_moment)):
                    r = gamma_expectation(g, n, k)
                    if not abs(r.value - exact) <= r.abs_error_estimate:
                        outside.append((n, k, exact, r.value, r.abs_error_estimate))
        assert outside == []

    @pytest.mark.parametrize("n", [1, 20, 171, 172, 301, 1001])
    def test_unit_mass_and_mean(self, n):
        # E[1] = 1 and E[T] = n to a few eps, also past the factorial
        # overflow at n = 172
        one = gamma_expectation(np.ones_like, n, 1)
        mean = gamma_expectation(lambda t: t, n, 1)
        assert abs(one.value - 1.0) <= 1e-14
        assert abs(mean.value - n) <= 1e-14 * n

    @pytest.mark.parametrize("n", [1, 2, 80, 10**3, 10**5])
    def test_mass_edges_leave_1e16_on_each_side(self, n):
        # against 40-digit regularised incomplete gamma functions at rate 3
        lo, hi = numerics.gamma_mass_edges(n, 3)
        assert lo < n / 3 < hi
        with mp.workdps(40):
            below = float(mp.gammainc(n, 0, 3 * mp.mpf(lo), regularized=True))
            above = float(mp.gammainc(n, 3 * mp.mpf(hi), mp.inf, regularized=True))
        assert below == pytest.approx(1e-16, rel=1e-10)
        assert above == pytest.approx(1e-16, rel=1e-10)

    def test_invalid_shape_rate(self):
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, 0, 1)
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, 2, 0)
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, 2.5, 1)
        # a bool passed as an integer
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, True, 1)
        with pytest.raises(DomainError):
            gamma_expectation(lambda t: t, 2, True)


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_small_integers_exact(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        assert log_gamma(21.0) == pytest.approx(math.log(math.factorial(20)), rel=1e-15)

    def test_recurrence(self):
        for x in np.arange(0.5, 30.0, 0.7):
            assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)

    def test_series_oracle(self):
        # psi(x) = -gamma + sum_j (1/(j+1) - 1/(j+x))
        for x in (0.5, 1.5, 3.25, 7.0):
            js = np.arange(200000)
            series = -EULER_GAMMA + np.sum(1.0 / (js + 1.0) - 1.0 / (js + x))
            assert digamma(x) == pytest.approx(float(series), abs=1e-4)

    @pytest.mark.parametrize("x", np.arange(0.5, 10.5, 0.5).tolist())
    def test_recurrence(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.5)


# each special function numerics stands in for, with arguments to call it on
SPECIAL_CASES = [
    ("gammainc", (3, 1.5)),
    ("gammaincc", (3, 1.5)),
    ("gammaincinv", (3, 0.25)),
    ("gammainccinv", (3, 0.25)),
    ("gammaln", (7.5,)),
    ("hyp1f1", (1, 4, 0.5)),
    ("psi", (2.5,)),
    ("xlogy", (0.5, 3.0)),
    ("smirnov", (5, 0.3)),
    # scipy's incomplete-gamma kernel, which scipy.special does not export
    ("_igam_fac", (3, 1.5)),
]


def scipys(name):
    """scipy's function of this name; a private one from the compiled
    module, so that a scipy without it fails here."""
    import scipy.special._ufuncs

    return getattr(scipy.special._ufuncs if name.startswith("_") else scipy.special, name)


class TestScipySpecialGateway:
    @pytest.mark.parametrize("name, args", SPECIAL_CASES)
    def test_first_call_puts_scipys_function_in_place(self, name, args):
        # from the first call on, numerics.<name> is scipy's ufunc itself,
        # so a call through it costs no Python frame of the package's own
        assert getattr(numerics, name)(*args) == scipys(name)(*args)
        assert getattr(numerics, name) is scipys(name)

    # This process has imported scipy.special already (through the tests
    # that use scipy.stats), so the stand-ins' load without the package
    # init runs in fresh interpreters.
    @pytest.mark.parametrize("probe", [
        # stand-ins first: the package init that a later import runs reuses
        # the loaded ufuncs, so numerics and scipy.special share them
        """
        first = {name: getattr(numerics, name)(*args) for name, args in CASES}
        assert "scipy.special" not in sys.modules
        for name, args in CASES:
            assert getattr(numerics, name) is scipys(name), name
            assert scipys(name)(*args) == first[name], name
        """,
        # scipy.stats imports after the stand-ins' load, and its kstwo.sf
        # equals verify's port of it
        """
        numerics.smirnov(5, 0.3)
        assert "scipy.special" not in sys.modules
        from scipy import stats
        assert stats.kstwo.sf(0.01, 15_000) == verify._kstwo_sf(0.01, 15_000)
        """,
        # scipy.special imported first: the gateway takes its ufuncs from it
        # and leaves the package in place
        """
        import scipy.special
        package = sys.modules["scipy.special"]
        for name, args in CASES:
            getattr(numerics, name)(*args)
            assert getattr(numerics, name) is scipys(name), name
        assert sys.modules["scipy.special"] is package
        """,
    ], ids=["stand-ins-first", "scipy-stats-after", "scipy-special-first"])
    def test_fresh_interpreter(self, probe):
        script = "\n".join([
            "import sys",
            "from recinacc import numerics, verify",
            f"CASES = {SPECIAL_CASES!r}",
            inspect.getsource(scipys),
            textwrap.dedent(probe),
        ])
        res = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=600,
            env=CHILD_ENV,
        )
        assert res.returncode == 0, res.stderr

    def test_sp_is_scipy_special(self):
        from scipy import special

        assert numerics._sp is special
        with pytest.raises(AttributeError):
            numerics.no_such_name
