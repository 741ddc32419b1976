"""Reference values for every cell the benchmark checks, computed apart from the program.

    python3 perfbench/reference.py

rewrites perfbench/references.json.  Closed forms are written out here
from the parents' formulas; everything else is the defining integral in
x-space, evaluated with mpmath's tanh-sinh quadrature at 30 digits.  Where
both exist the two are compared, which tests the formulas below.  This
script imports nothing from the program.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

mp.mp.dps = 30
OUT = Path(__file__).resolve().parent / "references.json"


# ---------------------------------------------------------------------------
# closed forms


def kerridge_upper_pareto(theta, n, k):
    return (1 + mp.mpf(1) / theta) * n / k - mp.log(theta)


def cri_exponential(theta, n, k):
    return mp.mpf(n * (n + 1)) / (2 * theta * k * k)


def closed_form(measure, side, fam, n, k):
    """Closed form of a record measure, or None where none is written here."""
    n, k = mp.mpf(n), mp.mpf(k)
    if measure == "kerridge" and fam == "uniform":
        return mp.mpf(0)  # flat density
    if (measure, side) == ("kerridge", "upper"):
        # X = S^-1(exp(-T)), T ~ Gamma(n, rate k): E[T] = n/k, E[log T] = psi(n) - log k
        if fam == "exp1":
            return n / k
        if fam == "pareto2":
            return kerridge_upper_pareto(2, n, k)
        if fam.startswith("weib"):
            lam, beta = spec.FAMILIES[fam][1]
            return (n / k - mp.log(lam * beta)
                    - (beta - 1) / beta * (mp.digamma(n) - mp.log(k) - mp.log(lam)))
        if fam == "powdec":
            return -mp.log(3) + 2 * n / (3 * k)
    if (measure, side) == ("kerridge", "lower") and fam == "powinc2":
        return -mp.log(2) + n / (2 * k)
    terms = range(int(n))
    if (measure, side) == ("cri", "upper"):
        # sum_i k^i/i! * integral of S^k H^(i+1), H = -log S
        if fam == "exp1":
            return cri_exponential(1, int(n), int(k))
        if fam == "pareto2":
            th = mp.mpf(2)
            return mp.fsum((i + 1) * k**i / (th * (k - 1 / th) ** (i + 2)) for i in terms)
        if fam.startswith("weib"):
            lam, beta = spec.FAMILIES[fam][1]
            return mp.fsum(
                lam ** (-1 / mp.mpf(beta)) * mp.gamma(i + 1 + 1 / mp.mpf(beta))
                / (beta * mp.factorial(i) * k ** (1 + 1 / mp.mpf(beta)))
                for i in terms
            )
        if fam == "uniform":
            return mp.fsum((i + 1) * k**i / (k + 1) ** (i + 2) for i in terms)
        if fam == "powdec":
            return mp.fsum((i + 1) * 3 ** (i + 1) * k**i / (3 * k + 1) ** (i + 2) for i in terms)
    if (measure, side) == ("cpi", "lower"):
        if fam == "uniform":
            return mp.fsum((i + 1) * k**i / (k + 1) ** (i + 2) for i in terms)
        if fam == "powinc2":
            return mp.fsum((i + 1) * 2 ** (i + 1) * k**i / (2 * k + 1) ** (i + 2) for i in terms)
    return None


# ---------------------------------------------------------------------------
# defining integrals


def _breakpoints(support):
    lo, hi = support
    if math.isinf(hi):
        return [lo] + [lo + 10.0**j for j in range(-12, 7, 2)] + [mp.inf]
    return ([lo] + [10.0**j for j in range(-12, 0, 2)] + [0.5]
            + [1 - 10.0**j for j in range(-2, -13, -2)] + [hi])


def record_law(fam, side, n, k):
    """(log f, parent tail G = -log g, record pdf, record survival, record cdf)."""
    log_f, H, L, support = spec.family_functions(fam, mp)
    G = H if side == "upper" else L
    const = mp.mpf(k) ** n / mp.factorial(n - 1)

    # Tanh-sinh nodes can round onto a support endpoint, where g is 0 or
    # infinite; the record law's limits there are taken explicitly.
    def pdf(x):
        g = G(x)
        if mp.isinf(g) or (g == 0 and n > 1):
            return mp.mpf(0)
        return const * g ** (n - 1) * mp.exp(-(k - 1) * g + log_f(x))

    def tail(x):  # S_rec for upper records, F_rec for lower ones
        g = G(x)
        if mp.isinf(g):
            return mp.mpf(0)
        return mp.exp(-k * g) * mp.fsum((k * g) ** i / mp.factorial(i) for i in range(n))

    if side == "upper":
        return log_f, H, L, support, pdf, tail, lambda x: 1 - tail(x)
    return log_f, H, L, support, pdf, lambda x: 1 - tail(x), tail


def _quad(fn, support):
    def guarded(x):
        # a weight that vanishes at an endpoint node times a log factor that
        # is infinite there: the integrand's limit is 0
        v = fn(x)
        return mp.mpf(0) if mp.isnan(v) else v

    return mp.quad(guarded, _breakpoints(support), maxdegree=10)


def record_numeric(measure, side, fam, n, k):
    log_f, H, L, support, pdf, sf, cdf = record_law(fam, side, n, k)
    if measure == "kerridge":
        return _quad(lambda x: -pdf(x) * log_f(x), support)
    if measure == "cri":
        return _quad(lambda x: sf(x) * H(x), support)
    return _quad(lambda x: cdf(x) * L(x), support)


def _kl_term(p, log_f):
    return p * (mp.log(p) - log_f) if p > 0 else mp.mpf(0)


def generic_numeric(measure, side, fam, n, k):
    log_f, H, L, support, pdf, sf, cdf = record_law(fam, side, n, k)

    def f(x):
        return mp.exp(log_f(x))

    integrand = {
        "kerridge": lambda x: -pdf(x) * log_f(x),
        "kl_divergence": lambda x: _kl_term(pdf(x), log_f(x)),
        "relative_information": lambda x: pdf(x) * (pdf(x) - f(x)) / 2,
        "extropy_inaccuracy": lambda x: -pdf(x) * f(x) / 2,
        "cumulative_residual_inaccuracy": lambda x: sf(x) * H(x),
        "cumulative_past_inaccuracy": lambda x: cdf(x) * L(x),
        "cumulative_residual_extropy_inaccuracy": lambda x: -sf(x) * mp.exp(-H(x)) / 2,
        "cumulative_past_extropy_inaccuracy": lambda x: -cdf(x) * mp.exp(-L(x)) / 2,
    }[measure]
    return _quad(integrand, support)


# ---------------------------------------------------------------------------


def build() -> tuple[dict, float]:
    values: dict[str, float] = {}
    worst = 0.0
    for fam in spec.FAMILIES:
        for measure, side in spec.RECORD_MEASURES:
            for n, k in spec.GRID:
                num = record_numeric(measure, side, fam, n, k)
                ref = closed_form(measure, side, fam, n, k)
                if ref is not None:
                    dev = abs(num - ref) / max(1, abs(ref))
                    worst = max(worst, float(dev))
                    if dev > 1e-12:
                        raise SystemExit(
                            f"closed form and integral disagree on {measure} {side} "
                            f"{fam} n={n} k={k}: {ref} vs {num}"
                        )
                else:
                    ref = num
                values[spec.record_key(measure, side, fam, n, k)] = float(ref)
    for fam in spec.LADDER_FAMILIES:
        for n, k in spec.LADDER_KERRIDGE:
            values[spec.record_key("kerridge", "upper", fam, n, k)] = float(
                closed_form("kerridge", "upper", fam, n, k))
        for n, k in spec.LADDER_CRI:
            values[spec.record_key("cri", "upper", fam, n, k)] = float(
                closed_form("cri", "upper", fam, n, k))
    for fam, n, k in spec.LADDER_FAULT_F2:
        values[spec.record_key("kerridge", "upper", fam, n, k)] = float(
            closed_form("kerridge", "upper", fam, n, k))
    for fam in spec.FAMILIES:
        for side in ("upper", "lower"):
            for n, k in spec.GENERIC_GRID:
                for measure in spec.GENERIC_MEASURES:
                    if spec.generic_divergent(measure, fam, side, n, k) is None:
                        values[spec.generic_key(measure, side, fam, n, k)] = float(
                            generic_numeric(measure, side, fam, n, k))
    values["cli:compute-closed"] = float(cri_exponential(2, 3, 2))
    for theta in (2, 3):
        for n in (1, 2, 3):
            for k in (1, 2):
                values[f"cli:table|{theta}|{n}|{k}"] = float(kerridge_upper_pareto(theta, n, k))
    return values, worst


def main() -> int:
    t0 = time.perf_counter()
    values, worst = build()
    OUT.write_text(json.dumps(
        {"command": "python3 perfbench/reference.py", "mpmath_dps": mp.mp.dps,
         "values": dict(sorted(values.items()))},
        indent=1,
    ) + "\n")
    print(f"{len(values)} references written to {OUT.name} in "
          f"{time.perf_counter() - t0:.0f} s; closed form vs integral, worst "
          f"relative gap {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
