"""What the benchmark runs: parent families, cell lists and exclusions.

This module imports nothing from the program, so that the reference
generator (reference.py) and the workloads (workloads.py) read one list
of cells.  The family formulas here are written out from the parents'
definitions; they are the benchmark's own and are used only to compute
references and to test sampler output.
"""

from __future__ import annotations

import math

# id -> (catalog factory name, factory args)
FAMILIES = {
    "exp1": ("make_exponential", (1.0,)),
    "pareto2": ("make_pareto", (2.0,)),
    "weib2_0.5": ("make_weibull", (2.0, 0.5)),
    "weib1_2": ("make_weibull", (1.0, 2.0)),
    "uniform": ("make_uniform01", ()),
    "powdec": ("make_power_decreasing", ()),
    "powinc2": ("make_power_increasing", (2,)),
}

# (measure, side) pairs of the record measures
RECORD_MEASURES = (("kerridge", "upper"), ("kerridge", "lower"), ("cri", "upper"), ("cpi", "lower"))

# (family, measure, side) triples the program has a closed form for
CLOSED_FORMS = {
    ("exp1", "kerridge", "upper"), ("pareto2", "kerridge", "upper"),
    ("weib2_0.5", "kerridge", "upper"), ("weib1_2", "kerridge", "upper"),
    ("powdec", "kerridge", "upper"), ("uniform", "kerridge", "upper"),
    ("uniform", "kerridge", "lower"), ("exp1", "cri", "upper"),
    ("uniform", "cri", "upper"), ("uniform", "cpi", "lower"),
}

GRID = tuple((n, k) for n in range(1, 6) for k in range(1, 4))

# Kept program faults: every operation on these cells fails today.
# F1: cpi gamma route on pareto(2) -- a false DivergenceError from the
#     adaptive fallback evaluating quantile(exp(-t)) where exp(-t) rounds to 1.
# F2: kerridge gamma route at n >= 171 -- 1.3e-15 for 171 at n=171, OverflowError at 172.
FAULT_F1 = {("cpi", "lower", "pareto2", n, k, "gamma_expectation") for n, k in GRID}
LADDER_FAULT_F2 = (("exp1", 171, 1), ("exp1", 172, 1))

# Gamma-route ladder across the 64-entry Gauss--Laguerre rule cache.
LADDER_FAMILIES = ("exp1", "weib2_0.5", "weib1_2")
LADDER_KERRIDGE = tuple((n, k) for n in (20, 40, 100) for k in (1, 2))
LADDER_CRI = ((20, 1), (40, 1), (100, 1))

# Monte Carlo cells: only those whose functional has finite variance.
# cpi on exp, pareto and weibull averages F/f at lower records, which
# grows like 1/T (T ~ Gamma) near T = 0: infinite variance for every n.
MC_ROUTE_CELL = (3, 2)
MC_CPI_FAMILIES = ("uniform", "powdec", "powinc2")

# Generic two-distribution measures on (record law, parent).
GENERIC_MEASURES = (
    "kerridge", "kl_divergence", "relative_information", "extropy_inaccuracy",
    "cumulative_residual_inaccuracy", "cumulative_past_inaccuracy",
    "cumulative_residual_extropy_inaccuracy", "cumulative_past_extropy_inaccuracy",
)
GENERIC_GRID = ((2, 1), (3, 2), (2, 3))
INFINITE_UPPER = ("exp1", "pareto2", "weib2_0.5", "weib1_2")


def generic_divergent(measure: str, fam: str, side: str, n: int, k: int) -> str | None:
    """Why a generic cell's defining integral is infinite, or None."""
    if measure == "cumulative_past_extropy_inaccuracy" and fam in INFINITE_UPPER:
        return "both cdfs tend to 1 toward the infinite upper end"
    if fam == "weib2_0.5" and side == "lower" and k == 1 and measure in (
        "extropy_inaccuracy", "relative_information"
    ):
        # lower record density ~ x^(beta-1) log^(n-1)(1/x) at 0: its product
        # with f or with itself behaves like x^-1 log^(n-1)(1/x)
        return "the record density times a density is not integrable at 0"
    return None


# Identity forms: (family, n, k) cells.
HAZARD_CELLS = (
    ("exp1", 2, 1), ("pareto2", 2, 1), ("weib2_0.5", 2, 1), ("weib1_2", 2, 2),
    ("uniform", 2, 1), ("powdec", 2, 2), ("powinc2", 2, 1),
)
IDENTITY_GRID = ((1, 1), (2, 1), (2, 2), (3, 2), (2, 3))
SCALE_SHIFT_GRID = ((2, 1), (3, 2))
SCALE_SHIFT = (2.0, 0.5)

# Monte Carlo workload.
MC_MEASURE_CELLS = tuple(
    [(fam, "kerridge", "upper", 3, 2) for fam in FAMILIES]
    + [(fam, "kerridge", "lower", 2, 1) for fam in FAMILIES]
    + [(fam, "cri", "upper", 2, 2) for fam in FAMILIES]
    + [(fam, "cpi", "lower", 2, 2) for fam in MC_CPI_FAMILIES]
)
# (family, side, k, n, reps).  The k=1 scan waits a heavy-tailed time for
# its second record (P(wait > m) = 1/(m+1)), so its reps stay small.
STREAM_CELLS = (
    ("exp1", "upper", 2, 2, 50_000),
    ("pareto2", "upper", 3, 3, 20_000),
    ("weib2_0.5", "lower", 2, 3, 20_000),
    ("uniform", "lower", 1, 2, 1_000),
)
SAMPLE_CELLS = tuple(
    (fam, "upper" if i % 2 == 0 else "lower", 1 + i % 4, 1 + i % 3)
    for i, fam in enumerate(FAMILIES)
)
SAMPLE_DRAWS = 100_000

# CLI workload: (label, argv after "python -m recinacc").  "{seed}" is
# replaced by a seed drawn from the workload seed.
VERIFY_SUITES = ("paper-examples", "propositions", "monotonicity", "symmetry", "oracle")
CLI_INVOCATIONS = (
    ("compute-closed", "compute --dist exponential --param theta=2 --measure cri "
                       "--side upper --n 3 --k 2"),
    ("compute-gamma", "compute --dist weibull --param lambda=1 --param beta=2 "
                      "--measure kerridge --side lower --n 3 --k 2 --method gamma"),
    ("compute-mc", "compute --dist weibull --param lambda=2 --param beta=0.5 "
                   "--measure kerridge --side upper --n 3 --k 2 --method mc --seed {seed}"),
    ("compute-mc-repeat", "compute --dist weibull --param lambda=2 --param beta=0.5 "
                          "--measure kerridge --side upper --n 3 --k 2 --method mc --seed {seed}"),
    ("table", "table --dist pareto --param-grid theta=2,3 --measure kerridge --side upper "
              "--n 1..3 --k 1..2 --method quad --format json"),
) + tuple((f"verify-{s}", f"verify --suite {s}") for s in VERIFY_SUITES)


# ---------------------------------------------------------------------------
# family formulas: log f, H = -log S and L = -log F, for a math-like module
# (mpmath for references, numpy for sampler tests)


def family_functions(fam: str, m):
    """(log_pdf, H, L, support) of a family, written with module ``m``.

    ``m`` provides log, exp, expm1 and log1p (mpmath or numpy).
    """
    if fam == "exp1":
        return (lambda x: -x, lambda x: x, lambda x: -m.log(-m.expm1(-x)), (0.0, math.inf))
    if fam == "pareto2":
        th = 2.0
        return (
            lambda x: math.log(th) - (th + 1) * m.log(x),
            lambda x: th * m.log(x),
            lambda x: -m.log(-m.expm1(-th * m.log(x))),
            (1.0, math.inf),
        )
    if fam.startswith("weib"):
        lam, beta = FAMILIES[fam][1]
        return (
            lambda x: math.log(lam * beta) + (beta - 1) * m.log(x) - lam * x**beta,
            lambda x: lam * x**beta,
            lambda x: -m.log(-m.expm1(-lam * x**beta)),
            (0.0, math.inf),
        )
    if fam == "uniform":
        return (lambda x: 0 * x, lambda x: -m.log1p(-x), lambda x: -m.log(x), (0.0, 1.0))
    if fam == "powdec":
        return (
            lambda x: math.log(3.0) + 2 * m.log1p(-x),
            lambda x: -3 * m.log1p(-x),
            lambda x: -m.log(-m.expm1(3 * m.log1p(-x))),
            (0.0, 1.0),
        )
    if fam == "powinc2":
        return (
            lambda x: math.log(2.0) + m.log(x),
            lambda x: -m.log(-m.expm1(2 * m.log(x))),
            lambda x: -2 * m.log(x),
            (0.0, 1.0),
        )
    raise KeyError(fam)


def record_key(measure: str, side: str, fam: str, n: int, k: int) -> str:
    return f"{measure}|{side}|{fam}|{n}|{k}"


def generic_key(measure: str, side: str, fam: str, n: int, k: int) -> str:
    return f"generic:{measure}|{side}|{fam}|{n}|{k}"
