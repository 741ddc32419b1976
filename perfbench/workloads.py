"""The four workloads: their operations, inputs drawn from the seed, and checks.

An operation is one call into the program -- one measure value, one
identity-form check, one Monte Carlo estimate or sampler call, or one CLI
invocation -- followed, outside its timing, by a check against a
reference computed apart from the program (references.json, written by
reference.py) or against a property the method must have.

The in-process workloads import the program inside their builders, so
that the cli workload's own process never imports it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Stated tolerances, relative to max(1, |reference|).  A value passes when
# it is within the larger of its reported abs_error_estimate and this.
TOL_CLOSED = 1e-12
TOL_NUMERIC = 1e-9
TOL_IDENTITY = 1e-7
# Monte Carlo: within this multiple of the reported 3-sigma bar (6 sigma).
MC_BAR_MULTIPLE = 2.0
# Sampler KS tests fail below this p-value.
KS_MIN_P = 1e-7


@dataclass
class Op:
    name: str
    layer: str  # span name of the operation in the traced run
    run: Callable[[int], object]  # argument: the operation's seed
    check: Callable[[object], str | None]  # None when correct, else why not
    fault: str | None = None  # kept program fault this operation hits


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], object]
    fixed_tail: int = 0  # the last ops keep their order in every pass
    seed_per_pass: bool = False  # every op of a pass gets the same seed
    cal_task: str = "numpy"  # the reference task that scales its times (calibrate.py)
    cal_burst: int = 1  # reference tasks timed before each op

    def order(self, seed: int, pass_index: int) -> list[int]:
        head = list(range(len(self.ops) - self.fixed_tail))
        random.Random(f"{seed}/{pass_index}").shuffle(head)
        return head + list(range(len(head), len(self.ops)))

    def op_seed(self, seed: int, pass_index: int, op_index: int) -> int:
        key = [seed, pass_index] if self.seed_per_pass else [seed, pass_index, op_index]
        return int(np.random.SeedSequence(key).generate_state(1)[0] % 2**31)


def load_references() -> dict[str, float]:
    return json.loads((HERE / "references.json").read_text())["values"]


def within(value: float, err: float, ref: float, stated: float) -> str | None:
    tol = max(err, stated * max(1.0, abs(ref)))
    if math.isfinite(value) and abs(value - ref) <= tol:
        return None
    return f"value {value!r} vs reference {ref!r} (tolerance {tol:.3g})"


def check_result(ref: float, stated: float) -> Callable[[object], str | None]:
    return lambda res: within(res.value, res.abs_error_estimate, ref, stated)


def check_mc(ref: float) -> Callable[[object], str | None]:
    return lambda res: within(
        res.value, MC_BAR_MULTIPLE * res.abs_error_estimate, ref, 1e-12)


def check_pair(ref: float, stated: float) -> Callable[[object], str | None]:
    def check(pair):
        for res in pair:
            why = within(res.value, res.abs_error_estimate, ref, stated)
            if why:
                return why
        return None

    return check


def _ks_check(fam: str, side: str, n: int, k: int) -> Callable[[object], str | None]:
    """-k log S(X) (upper) or -k log F(X) (lower) must be Gamma(n, 1)."""
    _, H, L, _ = spec.family_functions(fam, np)
    tail = H if side == "upper" else L

    def check(draws):
        from scipy import stats  # imported at the first check, after setup

        x = np.asarray(draws, float)
        with np.errstate(all="ignore"):
            y = k * tail(x)
        if not np.all(np.isfinite(y)):
            return "a draw lies outside the support"
        p = stats.kstest(y, stats.gamma(n).cdf).pvalue
        return None if p >= KS_MIN_P else f"KS p-value {p:.3g} against Gamma({n}, 1)"

    return check


# ---------------------------------------------------------------------------
# in-process workloads


def import_program():
    import recinacc
    from recinacc import measures, oracle, record_measures, records

    if Path(recinacc.__file__).resolve().parent != SRC / "recinacc":
        raise SystemExit(f"recinacc was imported from {recinacc.__file__}, not {SRC}")
    return recinacc, measures, oracle, record_measures, records


def build_parents(wrap=None) -> dict:
    recinacc = import_program()[0]
    parents = {}
    for fam, (factory, args) in spec.FAMILIES.items():
        parent = getattr(recinacc, factory)(*args)
        parents[fam] = wrap(parent) if wrap else parent
    return parents


def route_matrix(parents: dict, refs: dict) -> Workload:
    recinacc, measures, oracle, rm, _ = import_program()
    route_fn = {"kerridge": "kerridge_record", "cri": "residual_record_inaccuracy",
                "cpi": "past_record_inaccuracy"}
    stated = {"closed_form": TOL_CLOSED, "quadrature": TOL_NUMERIC,
              "gamma_expectation": TOL_NUMERIC}

    def value_op(measure, side, fam, n, k, route, fault=None):
        parent, rspec = parents[fam], recinacc.RecordSpec(side, n, k)
        fn = route_fn[measure]
        return Op(
            f"{measure}/{side}/{fam}/n{n}k{k}/{route}", f"route.{route}",
            lambda s: getattr(rm, fn)(parent, rspec, route),
            check_result(refs[spec.record_key(measure, side, fam, n, k)], stated[route]),
            fault,
        )

    def mc_op(measure, side, fam, n, k):
        request = recinacc.RecordMeasureRequest(
            parents[fam], recinacc.RecordSpec(side, n, k), measure, "monte_carlo")
        return Op(
            f"{measure}/{side}/{fam}/n{n}k{k}/monte_carlo", "route.monte_carlo",
            lambda s: oracle.mc_measure(request, recinacc.McConfig(seed=s)),
            check_mc(refs[spec.record_key(measure, side, fam, n, k)]),
        )

    def generic_op(measure, side, fam, n, k):
        parent = parents[fam]
        law = recinacc.record_distribution(parent, recinacc.RecordSpec(side, n, k))
        return Op(
            f"generic:{measure}/{side}/{fam}/n{n}k{k}", "route.generic",
            lambda s: getattr(measures, measure)(law, parent),
            check_result(refs[spec.generic_key(measure, side, fam, n, k)], TOL_NUMERIC),
        )

    ops = []
    for fam in spec.FAMILIES:
        for measure, side in spec.RECORD_MEASURES:
            routes = ["quadrature", "gamma_expectation"]
            if (fam, measure, side) in spec.CLOSED_FORMS:
                routes.insert(0, "closed_form")
            for n, k in spec.GRID:
                for route in routes:
                    f1 = (measure, side, fam, n, k, route) in spec.FAULT_F1
                    ops.append(value_op(measure, side, fam, n, k, route, "F1" if f1 else None))
            if measure != "cpi" or fam in spec.MC_CPI_FAMILIES:
                ops.append(mc_op(measure, side, fam, *spec.MC_ROUTE_CELL))
        for side in ("upper", "lower"):
            for n, k in spec.GENERIC_GRID:
                for measure in spec.GENERIC_MEASURES:
                    if spec.generic_divergent(measure, fam, side, n, k) is None:
                        ops.append(generic_op(measure, side, fam, n, k))
    # The ladder runs last in every pass, in ascending n, so that the
    # Gauss--Laguerre rule cache goes through the same states in every pass.
    ladder = []
    for fam in spec.LADDER_FAMILIES:
        ladder += [("kerridge", fam, n, k, None) for n, k in spec.LADDER_KERRIDGE]
        ladder += [("cri", fam, n, k, None) for n, k in spec.LADDER_CRI]
    ladder += [("kerridge", fam, n, k, "F2") for fam, n, k in spec.LADDER_FAULT_F2]
    ladder.sort(key=lambda cell: (cell[2], cell[0], cell[1], cell[3]))
    for measure, fam, n, k, fault in ladder:
        ops.append(value_op(measure, "upper", fam, n, k, "gamma_expectation", fault))
    n_tail = len(ladder)
    # the warm-up leaves the rule cache as the end of a pass leaves it
    last_ok = [op for op in ops[-n_tail:] if op.fault is None][-1]
    return Workload("route-matrix", ops, lambda: last_ok.run(0), fixed_tail=n_tail)


def identity_forms(parents: dict, refs: dict) -> Workload:
    recinacc, _, _, rm, _ = import_program()
    RecordSpec = recinacc.RecordSpec
    a, b = spec.SCALE_SHIFT
    ops = []
    for fam, n, k in spec.HAZARD_CELLS:
        ref = refs[spec.record_key("cri", "upper", fam, n, k)]
        ops.append(Op(
            f"hazard_forms/{fam}/n{n}k{k}", "identity.hazard_forms",
            lambda s, p=parents[fam], r=RecordSpec("upper", n, k):
                rm.residual_inaccuracy_hazard_forms(p, r),
            check_pair(ref, TOL_IDENTITY),
        ))
    for fam in spec.FAMILIES:
        p = parents[fam]
        for n, k in spec.IDENTITY_GRID:
            ops.append(Op(
                f"mean_difference/{fam}/n{n}k{k}", "identity.mean_difference",
                lambda s, r=RecordSpec("upper", n, k), p=p:
                    rm.residual_inaccuracy_mean_difference_form(p, r),
                check_result(refs[spec.record_key("cri", "upper", fam, n, k)], TOL_IDENTITY),
            ))
            ops.append(Op(
                f"cdf_difference/{fam}/n{n}k{k}", "identity.cdf_difference",
                lambda s, r=RecordSpec("lower", n, k), p=p:
                    rm.past_inaccuracy_cdf_difference_form(p, r),
                check_result(refs[spec.record_key("cpi", "lower", fam, n, k)], TOL_IDENTITY),
            ))
        for n, k in spec.SCALE_SHIFT_GRID:
            ops.append(Op(
                f"scale_shift/{fam}/n{n}k{k}", "identity.scale_shift",
                lambda s, r=RecordSpec("upper", n, k), p=p:
                    rm.scale_shift_check(p, r, a, b),
                check_pair(a * refs[spec.record_key("cri", "upper", fam, n, k)], TOL_IDENTITY),
            ))
    warm = ops[len(spec.HAZARD_CELLS)]  # the first mean-difference form
    return Workload("identity-forms", ops, lambda: warm.run(0), cal_burst=3)


def monte_carlo(parents: dict, refs: dict) -> Workload:
    recinacc, _, oracle, _, records = import_program()
    RecordSpec = recinacc.RecordSpec
    ops = []
    for fam, measure, side, n, k in spec.MC_MEASURE_CELLS:
        request = recinacc.RecordMeasureRequest(
            parents[fam], RecordSpec(side, n, k), measure, "monte_carlo")
        ops.append(Op(
            f"mc_measure/{measure}/{side}/{fam}/n{n}k{k}", "mc.mc_measure",
            lambda s, q=request: oracle.mc_measure(q, recinacc.McConfig(seed=s)),
            check_mc(refs[spec.record_key(measure, side, fam, n, k)]),
        ))
    for fam, side, k, n, reps in spec.STREAM_CELLS:
        ops.append(Op(
            f"stream/{side}/{fam}/n{n}k{k}/reps{reps}", "mc.stream_record_sample",
            lambda s, p=parents[fam], side=side, k=k, n=n, reps=reps:
                oracle.stream_record_sample(p, side, k, n, reps, s),
            _ks_check(fam, side, n, k),
        ))
    for fam, side, n, k in spec.SAMPLE_CELLS:
        ops.append(Op(
            f"sample/{side}/{fam}/n{n}k{k}", "mc.sample_record",
            lambda s, p=parents[fam], r=RecordSpec(side, n, k):
                records.sample_record(p, r, s, spec.SAMPLE_DRAWS),
            _ks_check(fam, side, n, k),
        ))
    warm = ops[-1]
    return Workload("monte-carlo", ops, lambda: warm.run(0), cal_task="bulk")


# ---------------------------------------------------------------------------
# cli workload


def spawn(argv: list[str], env: dict) -> tuple[int, str, str, float, int]:
    """Run one child to completion: (exit code, stdout, stderr, start wall time, peak RSS in KiB)."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"child-{os.getpid()}"
    with open(f"{stem}.out", "w+b") as fo, open(f"{stem}.err", "w+b") as fe:
        start = time.time()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        out, err = fo.read().decode(), fe.read().decode()
    os.unlink(f"{stem}.out")
    os.unlink(f"{stem}.err")
    return proc.returncode, out, err, start, usage.ru_maxrss


def _csv_row(out: str) -> dict:
    lines = out.strip().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    return dict(zip(header, row))


def _check_compute(method: str, ref: float, stated: float, bar_multiple: float = 1.0):
    def check(res):
        rc, out, err = res[:3]
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-200:]}"
        row = _csv_row(out)
        if row["method"] != method:
            return f"method {row['method']!r}, expected {method!r}"
        value, bar = float(row["value"]), float(row["abs_error_estimate"])
        return within(value, bar_multiple * bar, ref, stated)

    return check


def _check_table(refs: dict):
    def check(res):
        rc, out, err = res[:3]
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-200:]}"
        rows = [json.loads(line) for line in out.strip().splitlines()]
        if len(rows) != 12:
            return f"{len(rows)} rows, expected 12"
        for row in rows:
            if row["method"] != "quadrature":
                return f"row {row}: method {row['method']!r}"
            ref = refs[f"cli:table|{row['params']['theta']:g}|{row['n']}|{row['k']}"]
            why = within(row["value"], row["abs_error_estimate"], ref, TOL_NUMERIC)
            if why:
                return f"row {row}: {why}"
        return None

    return check


def _check_verify(suite: str):
    def check(res):
        rc, out, err = res[:3]
        lines = out.strip().splitlines()
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(lines[-1])
        checks = lines[:-2]
        bad = [line for line in checks if not line.startswith("PASS")]
        if bad or not checks or not report["passed"] or report["suite"] != suite:
            return f"not every check passed: {bad[:3]}"
        if lines[-2] != f"suite {suite}: {len(checks)}/{len(checks)} checks passed":
            return f"summary line {lines[-2]!r}"
        return None

    return check


def cli(refs: dict, probe: bool) -> Workload:
    """Fresh `python -m recinacc` invocations; with ``probe`` they run under
    cli_probe.py with -X importtime, which the traced run reads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lead = [sys.executable, "-X", "importtime", str(HERE / "cli_probe.py")] if probe else [
        sys.executable, "-m", "recinacc"]
    memo: dict = {}

    def run_with_seed(template):
        def run(seed):
            argv = template.format(seed=seed).split()
            return spawn(lead + argv, env) + (argv,)

        return run

    def repeat_check(inner):
        # both seeded MC invocations of a pass (same argv, seed included)
        # must print the same bytes
        def check(res):
            why = inner(res)
            if why:
                return why
            previous = memo.pop(tuple(res[-1]), None)
            if previous is None:
                memo[tuple(res[-1])] = res[1]
            elif previous != res[1]:
                return "repeated seeded invocation printed different output"
            return None

        return check

    ref_mc = refs[spec.record_key("kerridge", "upper", "weib2_0.5", 3, 2)]
    checks = {
        "compute-closed": _check_compute("closed_form", refs["cli:compute-closed"], TOL_CLOSED),
        "compute-gamma": _check_compute(
            "gamma_expectation", refs[spec.record_key("kerridge", "lower", "weib1_2", 3, 2)],
            TOL_NUMERIC),
        "table": _check_table(refs),
    }
    for label in ("compute-mc", "compute-mc-repeat"):
        checks[label] = repeat_check(
            _check_compute("monte_carlo", ref_mc, 1e-12, MC_BAR_MULTIPLE))
    ops = []
    for label, template in spec.CLI_INVOCATIONS:
        suite = label.removeprefix("verify-")
        ops.append(Op(
            label, f"cli.{label}", run_with_seed(template),
            checks.get(label) or _check_verify(suite),
        ))
    warm = [sys.executable, "-m", "recinacc", "--help"]
    # both seeded invocations of a pass share the pass's seed
    return Workload("cli", ops, lambda: spawn(warm, env), seed_per_pass=True,
                    cal_task="process")
