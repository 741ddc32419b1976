"""Brute-force verification paths that avoid the analytic machinery.

stream_extract_records runs the textbook process: scan an iid stream and
write down the k-th largest (or smallest) observation each time the
current top-k set changes.  mc_measure replaces each defining integral
with a sample mean over simulated record values.  Both exist to disagree
loudly with the closed forms and quadrature routines if a sign or
convention error ever slips in, so they must not share series or
special-function code with them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import ContaminationError, StreamCapError, check_integer
from .measures import MeasureResult
from .record_measures import _validate
from .records import STREAM_CAP, RecordSpec, check_draws, check_seed, sample_record

__all__ = [
    "GENERATOR_NAME",
    "McConfig",
    "mc_measure",
    "stream_extract_records",
    "stream_record_sample",
]

# every stochastic routine in this package derives its stream from this
# generator family; recorded in verification reports for reproducibility
GENERATOR_NAME = "numpy PCG64 (seeded via SeedSequence, substreams by spawn)"

_BAD_FRACTION = 1e-4  # tolerated share of non-finite functional evaluations


@dataclass(frozen=True)
class McConfig:
    """Sample budget and stream identity for Monte Carlo estimates."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer(self.samples, "samples", 1000)
        # the samplers also take a SeedSequence, but mc_measure builds its
        # own from this seed, so the seed must be an integer
        check_integer(self.seed, "seed", 0)


def stream_extract_records(
    parent: Distribution,
    side: str,
    k: int,
    n_max: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """First n_max k-record values of one simulated observation stream.

    Maintains the k most extreme observations seen so far; every time a
    new observation displaces one of them, the k-th most extreme value
    has changed and is appended as the next record.  The first record is
    therefore available after exactly k observations.  Draws are capped
    so a heavy-tailed waiting time cannot hang the caller.
    """
    RecordSpec(side, n_max, k)  # argument validation lives on RecordSpec
    check_seed(seed)
    # lower records are the upper records of the negated stream
    sgn = 1.0 if side == "upper" else -1.0
    rng = np.random.default_rng(seed)
    buf: list[float] = []
    out: list[float] = []
    drawn = 0
    while True:
        take = min(8192, STREAM_CAP - drawn)
        if take == 0:
            raise StreamCapError(
                f"stream cap of {STREAM_CAP} draws reached with "
                f"{len(out)} of {n_max} records extracted",
                records_found=len(out),
            )
        xs = sgn * np.asarray(parent.quantile(rng.random(take)), float)
        drawn += take
        for x in xs.tolist():
            if len(buf) < k:
                bisect.insort(buf, x)
                if len(buf) < k:
                    continue
            elif x > buf[0]:
                buf.pop(0)
                bisect.insort(buf, x)
            else:
                continue
            out.append(sgn * buf[0])
            if len(out) == n_max:
                return np.asarray(out, float)


def stream_record_sample(
    parent: Distribution,
    side: str,
    k: int,
    n: int,
    reps: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """reps independent n-th k-record values, each from its own stream scan.

    Vectorized form of stream_extract_records: all replications advance
    through their streams together, and a replication drops out of the
    scan once its n-th record has appeared.  Observations are still drawn
    one stream position at a time per replication and compared against
    the current k-th extreme, so this is the same definitional process.
    The total draw budget across all replications is capped.

    Each round draws a chunk of uniforms per active replication and maps
    all of them through ``parent.quantile``, so the stream and the cap
    count every draw.  Within a round a row's scan stops at its first draw
    past the current k-th extreme, and the rest of its chunk goes unread.
    The chunk starts at 4 draws and doubles after a round in which fewer
    than half of the active replications met a record.
    """
    RecordSpec(side, n, k)
    check_integer(reps, "reps")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    # every draw goes into this one buffer, sized for the first k per row and
    # for the largest round the chunk bound allows: rounds of changing size
    # would each allocate anew, and the blocks they free move glibc's dynamic
    # mmap threshold, so the allocation pattern, and the speed, of all later
    # work in the process would depend on the chunk rule
    buf = np.empty(max(k * reps, 4 * reps, 4_000_000))
    drawn = 0

    def observe(shape) -> np.ndarray:
        # the sign-adjusted observations of a fresh (rows, draws) block
        nonlocal drawn
        count = shape[0] * shape[1]
        if drawn + count > STREAM_CAP:
            raise StreamCapError(
                f"stream cap of {STREAM_CAP} draws reached with "
                f"{int(done.sum())} of {reps} replications finished",
                records_found=int(done.sum()),
            )
        drawn += count
        x = np.asarray(parent.quantile(rng.random(out=buf[:count].reshape(shape))), float)
        return x if side == "upper" else -x

    done = np.zeros(reps, dtype=bool)
    # top-k buffer of the sign-adjusted stream, ascending; column 0 holds the
    # k-th largest, whose sign-adjusted value is the current record
    z = np.sort(observe((reps, k)), axis=1)
    count = np.ones(reps, dtype=np.int64)
    done = count >= n

    active = np.flatnonzero(~done)
    chunk = 4
    while active.size:
        xs = observe((active.size, chunk))
        # each row's first draw above its current record, and whether there is one
        hit = xs > z[active, 0][:, None]
        at = (np.arange(active.size), hit.argmax(axis=1))
        found = hit[at]
        rows = active[found]
        if rows.size:
            # the new value displaces the k-th largest; compare-swaps move
            # it up the ascending row to its place
            top = z[rows]
            top[:, 0] = xs[at][found]
            for j in range(1, k):
                low = np.minimum(top[:, j - 1], top[:, j])
                np.maximum(top[:, j - 1], top[:, j], out=top[:, j])
                top[:, j - 1] = low
            z[rows] = top
            count[rows] += 1
            finished = rows[count[rows] >= n]
            done[finished] = True
        # heavy-tailed waiting times: widen the window while most rows miss,
        # bounded so a round never exceeds a few million draws
        if 2 * rows.size < active.size:
            chunk = min(2 * chunk, max(4, 4_000_000 // active.size))
        active = np.flatnonzero(~done)
    return z[:, 0].copy() if side == "upper" else -z[:, 0]


def _functional_mean(vals: np.ndarray, what: str) -> tuple[float, float, int]:
    bad = ~np.isfinite(vals)
    n_bad = int(bad.sum())
    if n_bad > _BAD_FRACTION * vals.size:
        raise ContaminationError(
            f"{what}: {n_bad} of {vals.size} functional evaluations were "
            f"non-finite, above the {_BAD_FRACTION:.2%} tolerance"
        )
    good = vals[~bad] if n_bad else vals
    mean = float(good.mean())
    var = float(good.var(ddof=1)) if good.size > 1 else 0.0
    return mean, var, good.size


def mc_measure(request, cfg: McConfig = McConfig()) -> MeasureResult:
    """Monte Carlo estimate of a record measure with a 3-sigma error bar.

    An estimate is a sum of terms coeff * E[h(X)], each mean taken over
    simulated record values of one order.  kerridge is the one term
    E[-log f(X_n)]; the cumulative measures have a term (i+1)/k^2 * E[g/f]
    per order i + 2 of their expansion, g the survival function (upper) or
    the cdf (lower), each drawn from its own spawned substream so results
    do not depend on evaluation sequencing.  A measure with no Monte Carlo
    route is refused whatever the request's method.
    """
    _validate(request.measure, request.spec, "monte_carlo")
    parent, spec = request.parent, request.spec
    n, k = spec.n, spec.k
    root = np.random.SeedSequence(cfg.seed)

    if request.measure == "kerridge":
        terms = [(1.0, n, lambda x: -np.asarray(parent.log_pdf(x), float),
                  "kerridge surprise", root)]
    else:
        tail = parent.survival if spec.side == "upper" else parent.cdf

        def ratio(x):
            return np.asarray(tail(x), float) / np.asarray(parent.pdf(x), float)

        # the last term, of order n + 1, draws the most: refuse before sampling
        check_draws(cfg.samples, n + 1)
        terms = [((i + 1) / k**2, i + 2, ratio, f"{request.measure} term {i}", child)
                 for i, child in enumerate(root.spawn(n))]

    total = var_total = 0.0
    for coeff, order, functional, what, seed in terms:
        draws = sample_record(parent, RecordSpec(spec.side, order, k), seed, cfg.samples)
        mean, var, m = _functional_mean(functional(draws), what)
        total += coeff * mean
        var_total += coeff**2 * var / m
    return MeasureResult(total, "monte_carlo", 3.0 * float(np.sqrt(var_total)))
