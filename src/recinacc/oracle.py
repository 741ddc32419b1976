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
from .errors import ContaminationError, ParameterError, StreamCapError
from .measures import MeasureResult
from .record_measures import _validate
from .records import STREAM_CAP, RecordSpec, check_seed, sample_record

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
        if not (isinstance(self.samples, (int, np.integer)) and self.samples >= 1000):
            raise ParameterError(
                f"samples must be an integer >= 1000, got {self.samples!r}"
            )
        # the samplers also take a SeedSequence, but mc_measure builds its
        # own from this seed, so the seed must be an integer
        if isinstance(self.seed, np.random.SeedSequence):
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")
        check_seed(self.seed)


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
    """
    RecordSpec(side, n, k)
    if not (isinstance(reps, (int, np.integer)) and reps >= 1):
        raise ParameterError(f"reps must be a positive integer, got {reps!r}")
    check_seed(seed)
    sgn = 1.0 if side == "upper" else -1.0
    rng = np.random.default_rng(seed)

    drawn = 0

    def draw(shape) -> np.ndarray:
        nonlocal drawn
        count = int(np.prod(shape))
        if drawn + count > STREAM_CAP:
            raise StreamCapError(
                f"stream cap of {STREAM_CAP} draws reached with "
                f"{int(done.sum())} of {reps} replications finished",
                records_found=int(done.sum()),
            )
        drawn += count
        return sgn * np.asarray(parent.quantile(rng.random(shape)), float)

    done = np.zeros(reps, dtype=bool)
    # top-k buffer of the sign-adjusted stream, ascending; column 0 holds the
    # k-th largest, whose sign-adjusted value is the current record
    z = np.sort(draw((reps, k)), axis=1)
    count = np.ones(reps, dtype=np.int64)
    record = z[:, 0].copy()
    done = count >= n

    active = np.flatnonzero(~done)
    chunk = 16
    while active.size:
        zs = draw((active.size, chunk))
        hit = zs > z[active, 0][:, None]
        any_hit = hit.any(axis=1)
        rows = active[any_hit]
        if rows.size:
            first = hit[any_hit].argmax(axis=1)
            z[rows, 0] = zs[any_hit, first]
            z[rows] = np.sort(z[rows], axis=1)
            count[rows] += 1
            record[rows] = z[rows, 0]
            finished = rows[count[rows] >= n]
            done[finished] = True
        active = np.flatnonzero(~done)
        # heavy-tailed waiting times: widen the window for the stragglers,
        # bounded so the chunk never exceeds a few million draws
        if active.size:
            chunk = min(2 * chunk, max(16, 4_000_000 // active.size))
    return sgn * record


def _functional_mean(vals: np.ndarray, what: str) -> tuple[float, float, int]:
    bad = ~np.isfinite(vals)
    n_bad = int(bad.sum())
    if n_bad > _BAD_FRACTION * vals.size:
        raise ContaminationError(
            f"{what}: {n_bad} of {vals.size} functional evaluations were "
            f"non-finite, above the {_BAD_FRACTION:.2%} tolerance"
        )
    good = vals[~bad]
    mean = float(good.mean())
    var = float(good.var(ddof=1)) if good.size > 1 else 0.0
    return mean, var, good.size


def mc_measure(request, cfg: McConfig | None = None) -> MeasureResult:
    """Monte Carlo estimate of a record measure with a 3-sigma error bar.

    kerridge averages the log-density surprise over simulated record
    values.  The cumulative measures average survival/pdf (upper) or
    cdf/pdf (lower) ratios over record values of the next orders up,
    which is what their defining integrals reduce to; each order's draws
    come from an independently spawned substream, so replication results
    do not depend on evaluation sequencing.  A measure with no Monte Carlo
    route is refused whatever the request's method.
    """
    _validate(request.measure, request.spec, "monte_carlo")
    # built here, not as the default: McConfig's check imports numpy.random
    cfg = McConfig() if cfg is None else cfg
    parent, spec = request.parent, request.spec
    root = np.random.SeedSequence(cfg.seed)

    if request.measure == "kerridge":
        draws = sample_record(parent, spec, root, cfg.samples)
        surprise = -np.asarray(parent.log_pdf(draws), float)
        mean, var, m = _functional_mean(surprise, "kerridge surprise")
        return MeasureResult(mean, "monte_carlo", 3.0 * float(np.sqrt(var / m)))

    # cumulative measures: one substream per term of the order expansion
    n, k = spec.n, spec.k
    ratio_num = parent.survival if request.measure == "cri" else parent.cdf
    children = root.spawn(n)
    total = 0.0
    var_total = 0.0
    for i in range(n):
        term_spec = RecordSpec(spec.side, i + 2, k)
        u = sample_record(parent, term_spec, children[i], cfg.samples)
        vals = np.asarray(ratio_num(u), float) / np.asarray(parent.pdf(u), float)
        mean, var, m = _functional_mean(vals, f"{request.measure} term {i}")
        coeff = (i + 1) / k**2
        total += coeff * mean
        var_total += coeff**2 * var / m
    return MeasureResult(total, "monte_carlo", 3.0 * float(np.sqrt(var_total)))
