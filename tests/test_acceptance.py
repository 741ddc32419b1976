"""Acceptance sweep: the nine top-level guarantees, one verdict line each.

Each test prints a PASS/FAIL line outside pytest's capture so a full run
shows the scoreboard at any verbosity, then asserts.  The expected
numbers are the same frozen formulas the unit suites pin down; here they
gate whole parameter grids at the advertised tolerances, with the
sampling checks run under seeds that are frozen after validation.
"""

import json
import math
import subprocess
import sys

import pytest
from scipy import stats

from conftest import CHILD_ENV

from recinacc.distributions import (
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)
from recinacc.measures import (
    kerridge,
    kl_divergence,
    relative_information,
    shannon_entropy,
)
from recinacc.numerics import QuadratureConfig, digamma
from recinacc.oracle import McConfig, StreamCapError, mc_measure, stream_record_sample
from recinacc.record_measures import (
    RecordMeasureRequest,
    kerridge_record,
    past_inaccuracy_cdf_difference_form,
    past_record_inaccuracy,
    residual_inaccuracy_hazard_forms,
    residual_inaccuracy_mean_difference_form,
    residual_record_inaccuracy,
    scale_shift_check,
)
from recinacc.records import RecordSpec, sample_record

E1 = make_exponential(1.0)
E2 = make_exponential(2.0)
PAR2 = make_pareto(2.0)
W12 = make_weibull(1.0, 2.0)
W205 = make_weibull(2.0, 0.5)
U = make_uniform01()
PD = make_power_decreasing()
P2 = make_power_increasing(2)
P3 = make_power_increasing(3)

CATALOG = [E1, E2, PAR2, W12, W205, U, PD, P2, P3]

# deliberately duplicated from the measures suite so this file stays
# self-contained: pairs whose assessed support covers the actual one and
# whose kerridge/kl integrals are finite
VALID_PAIRS = [
    (U, U), (U, PD), (U, P2), (U, E1), (U, W12),
    (PD, U), (PD, P2), (P2, U), (P2, PD), (P3, P2),
    (E1, E2), (E2, E1), (E1, W12), (W12, E1), (W12, W205), (W205, E1),
    (PAR2, PAR2), (PAR2, E1), (PAR2, W205),
]


def _verdict(capsys, label, failures):
    ok = not failures
    with capsys.disabled():
        detail = "" if ok else f"  ({len(failures)} violations, first: {failures[0]})"
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"{label}: {failures[:5]}"


def test_density_inaccuracy_closed_forms_and_quadrature(capsys):
    """Exponential, pareto, uniform and bounded-power parents: the closed
    forms reproduce their stated formulas bit-for-bit and the direct
    quadrature lands within 1e-7, over n,k in 1..5 and four scales."""
    failures = []
    for theta in (0.5, 1.0, 2.0, 5.0):
        exp_d = make_exponential(theta)
        par_d = make_pareto(theta)
        for n in range(1, 6):
            for k in range(1, 6):
                spec = RecordSpec("upper", n, k)
                cases = (
                    ("exponential", exp_d, n / k - math.log(theta)),
                    ("pareto", par_d, (1.0 + 1.0 / theta) * n / k - math.log(theta)),
                )
                for tag, dist, expected in cases:
                    closed = kerridge_record(dist, spec, method="closed_form").value
                    if closed != expected:
                        failures.append((tag, theta, n, k, "closed", closed, expected))
                    quad = kerridge_record(dist, spec, method="quadrature").value
                    if abs(quad - expected) > 1e-7:
                        failures.append((tag, theta, n, k, "quad", quad, expected))
    for n in range(1, 6):
        for k in range(1, 6):
            for side in ("upper", "lower"):
                spec = RecordSpec(side, n, k)
                closed = kerridge_record(U, spec, method="closed_form").value
                if closed != 0.0:
                    failures.append(("uniform", side, n, k, "closed", closed, 0.0))
                quad = kerridge_record(U, spec, method="quadrature").value
                if abs(quad) > 1e-7:
                    failures.append(("uniform", side, n, k, "quad", quad, 0.0))
            spec = RecordSpec("upper", n, k)
            expected = -math.log(3.0) + 2.0 * n / (3.0 * k)
            closed = kerridge_record(PD, spec, method="closed_form").value
            if closed != expected:
                failures.append(("power_dec", n, k, "closed", closed, expected))
            quad = kerridge_record(PD, spec, method="quadrature").value
            if abs(quad - expected) > 1e-7:
                failures.append(("power_dec", n, k, "quad", quad, expected))
    _verdict(capsys, "density inaccuracy closed forms vs quadrature", failures)


def test_weibull_closed_form_arbitrated_by_quadrature(capsys):
    """The weibull closed form (record-count term n/k, log k correction on
    the digamma) agrees with quadrature within 1e-7 and collapses to the
    single-record form exactly at k=1."""
    failures = []
    for lam, beta in ((1.0, 2.0), (2.0, 0.5)):
        dist = make_weibull(lam, beta)
        for n in range(1, 5):
            for k in range(1, 4):
                spec = RecordSpec("upper", n, k)
                derived = (
                    n / k
                    - math.log(beta)
                    - math.log(lam) / beta
                    - (beta - 1.0) / beta * (digamma(n) - math.log(k))
                )
                closed = kerridge_record(dist, spec, method="closed_form").value
                if closed != derived:
                    failures.append((lam, beta, n, k, "closed", closed, derived))
                quad = kerridge_record(dist, spec, method="quadrature").value
                if abs(quad - derived) > 1e-7:
                    failures.append((lam, beta, n, k, "quad", quad, derived))
                if k == 1:
                    single = (
                        n
                        - math.log(beta)
                        - math.log(lam) / beta
                        - (beta - 1.0) / beta * digamma(n)
                    )
                    if closed != single:
                        failures.append((lam, beta, n, "k=1 form", closed, single))
    _verdict(capsys, "weibull closed form vs quadrature (k=1 specialization exact)", failures)


def test_residual_inaccuracy_formula_reproduction(capsys):
    """Survival-side cumulative inaccuracy: n(n+1)/(2 theta k^2) for
    exponential parents within 1e-8 and the finite geometric-style sum
    for the uniform parent within 1e-10, via closed form and a tightened
    quadrature, n,k in 1..5."""
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=2000)
    failures = []
    for theta in (0.5, 1.0, 2.0):
        dist = make_exponential(theta)
        for n in range(1, 6):
            for k in range(1, 6):
                spec = RecordSpec("upper", n, k)
                expected = n * (n + 1) / (2.0 * theta * k**2)
                for method in ("closed_form", "quadrature"):
                    got = residual_record_inaccuracy(dist, spec, method=method, config=cfg).value
                    if abs(got - expected) > 1e-8:
                        failures.append(("exponential", theta, n, k, method, got, expected))
    for n in range(1, 6):
        for k in range(1, 6):
            spec = RecordSpec("upper", n, k)
            expected = sum((i + 1) * k**i / (k + 1) ** (i + 2) for i in range(n))
            for method in ("closed_form", "quadrature"):
                got = residual_record_inaccuracy(U, spec, method=method, config=cfg).value
                if abs(got - expected) > 1e-10:
                    failures.append(("uniform", n, k, method, got, expected))
    _verdict(capsys, "residual inaccuracy closed formulas (exponential, uniform)", failures)


def test_representation_identities_across_catalog(capsys):
    """Mean-difference, both hazard-weighted double integrals, and the
    cdf-difference representation each match the direct integral within
    1e-6 over every catalog parent and n,k in 1..3; the scale-shift
    relation holds within 1e-7."""
    failures = []
    for dist in CATALOG:
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                up = RecordSpec("upper", n, k)
                low = RecordSpec("lower", n, k)
                direct = residual_record_inaccuracy(dist, up, method="quadrature").value
                md = residual_inaccuracy_mean_difference_form(dist, up).value
                h1, h2 = residual_inaccuracy_hazard_forms(dist, up)
                past = past_record_inaccuracy(dist, low, method="quadrature").value
                cd = past_inaccuracy_cdf_difference_form(dist, low).value
                checks = (
                    ("mean-difference", md, direct),
                    ("hazard form one", h1.value, direct),
                    ("hazard form two", h2.value, direct),
                    ("cdf-difference", cd, past),
                )
                for tag, got, ref in checks:
                    if abs(got - ref) > 1e-6:
                        failures.append((dist.name, n, k, tag, got, ref))
    for dist in (E1, U, PD, W12):
        for a, b in ((2.0, 3.0), (0.5, -1.0)):
            for n, k in ((1, 1), (2, 2)):
                lhs, rhs = scale_shift_check(dist, RecordSpec("upper", n, k), a, b)
                if abs(lhs.value - rhs.value) > 1e-7:
                    failures.append((dist.name, n, k, f"scale a={a} b={b}", lhs.value, rhs.value))
    _verdict(capsys, "representation identities across the catalog", failures)


def test_monotonicity_for_increasing_density_parents(capsys):
    """Parents with increasing densities: upper-record inaccuracy is
    nonincreasing and lower-record inaccuracy nondecreasing in the record
    index (slack 1e-9), for n up to 6 and k in 1..3."""
    failures = []
    for m in (2, 3):
        dist = make_power_increasing(m)
        for k in (1, 2, 3):
            upper = [
                kerridge_record(dist, RecordSpec("upper", n, k)).value for n in range(1, 7)
            ]
            lower = [
                kerridge_record(dist, RecordSpec("lower", n, k)).value for n in range(1, 7)
            ]
            for i in range(5):
                if upper[i + 1] > upper[i] + 1e-9:
                    failures.append((m, k, "upper", i + 1, upper[i], upper[i + 1]))
                if lower[i + 1] < lower[i] - 1e-9:
                    failures.append((m, k, "lower", i + 1, lower[i], lower[i + 1]))
    _verdict(capsys, "record-index monotonicity for increasing densities", failures)


def test_upper_lower_equality_characterizes_symmetry(capsys, triangular):
    """Symmetric parents give equal upper and lower record inaccuracy
    within 1e-8 for n,k in 1..4; the asymmetric exponential splits the
    two sides by more than 0.1 already at n=2, k=1."""
    failures = []
    for dist in (U, triangular):
        for n in range(1, 5):
            for k in range(1, 5):
                up = kerridge_record(dist, RecordSpec("upper", n, k)).value
                low = kerridge_record(dist, RecordSpec("lower", n, k)).value
                if abs(up - low) > 1e-8:
                    failures.append((dist.name, n, k, up, low))
    up = kerridge_record(E1, RecordSpec("upper", 2, 1)).value
    low = kerridge_record(E1, RecordSpec("lower", 2, 1)).value
    if not abs(up - low) > 0.1:
        failures.append(("exponential sides too close", up, low))
    _verdict(capsys, "upper/lower equality for symmetric parents only", failures)


def test_stream_sampling_agrees_with_transform_sampling(capsys):
    """The literal stream-scan sampler and the gamma-transform sampler
    pass a two-sample KS test (alpha 0.001, 1e5 draws each) on every
    exponential and uniform cell with n,k up to 3, and the Monte Carlo
    3-sigma interval covers the quadrature value in at least 99% of 200
    seeded runs.  Seeds are frozen after validating the draw-budget and
    significance margins."""
    failures = []
    cells = 0
    for dist, tag in ((E1, "exponential"), (U, "uniform")):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                cells += 1
                try:
                    a = stream_record_sample(dist, "upper", k, n, 100_000, cells)
                except StreamCapError as exc:
                    failures.append((tag, n, k, "stream cap", str(exc)))
                    continue
                b = sample_record(dist, RecordSpec("upper", n, k), cells + 1, 100_000)
                p = stats.ks_2samp(a, b).pvalue
                if p <= 0.001:
                    failures.append((tag, n, k, "ks p-value", p))
    spec = RecordSpec("upper", 2, 1)
    reference = kerridge_record(E1, spec, method="quadrature").value
    request = RecordMeasureRequest(E1, spec, "kerridge")
    covered = 0
    for seed in range(200):
        res = mc_measure(request, McConfig(seed=seed))
        if abs(res.value - reference) <= res.abs_error_estimate:
            covered += 1
    if covered < 198:
        failures.append(("mc 3-sigma coverage", covered, "of 200"))
    _verdict(capsys, "stream vs transform sampling, mc interval coverage", failures)


def test_generic_measure_self_identities_and_decomposition(capsys):
    """kerridge(X,X) equals the entropy, kl(X,X) and the mean relative
    information vanish (1e-9, all catalog members), and kerridge(X,Y)
    decomposes as entropy(X) + kl(X,Y) within 1e-8 on valid pairs."""
    failures = []
    for dist in CATALOG:
        name = (dist.name, tuple(sorted(dist.params.items())))
        ker = kerridge(dist, dist).value
        ent = shannon_entropy(dist).value
        if abs(ker - ent) > 1e-9:
            failures.append((name, "kerridge vs entropy", ker, ent))
        kl = kl_divergence(dist, dist).value
        if abs(kl) > 1e-9:
            failures.append((name, "kl self", kl))
        ri = relative_information(dist, dist).value
        if abs(ri) > 1e-9:
            failures.append((name, "relative information self", ri))
    for x, y in VALID_PAIRS:
        lhs = kerridge(x, y).value
        rhs = shannon_entropy(x).value + kl_divergence(x, y).value
        if abs(lhs - rhs) > 1e-8:
            failures.append((x.name, y.name, "decomposition", lhs, rhs))
    _verdict(capsys, "self-identities and entropy + divergence decomposition", failures)


def test_cli_seeded_determinism_and_reference_suite(capsys):
    """A seeded Monte Carlo table is byte-identical across invocations,
    and the reference-value verification suite exits 0."""
    failures = []
    args = [
        sys.executable, "-m", "recinacc", "table",
        "--dist", "exponential", "--param", "theta=1",
        "--measure", "kerridge", "--side", "upper",
        "--n", "1..2", "--k", "1..2", "--method", "mc", "--seed", "7",
    ]
    first = subprocess.run(args, capture_output=True, text=True, timeout=600, env=CHILD_ENV)
    second = subprocess.run(args, capture_output=True, text=True, timeout=600, env=CHILD_ENV)
    if first.returncode != 0:
        failures.append(("table exit code", first.returncode, first.stderr))
    if first.stdout != second.stdout:
        failures.append(("table output differs between identical invocations",))
    verify = subprocess.run(
        [sys.executable, "-m", "recinacc", "verify", "--suite", "paper-examples"],
        capture_output=True, text=True, timeout=600, env=CHILD_ENV,
    )
    if verify.returncode != 0:
        failures.append(("verify exit code", verify.returncode, verify.stderr))
    else:
        report = json.loads(verify.stdout.splitlines()[-1])
        if not report["passed"]:
            failures.append(("verification report not passed", report))
    _verdict(capsys, "CLI seeded determinism and reference verification", failures)
