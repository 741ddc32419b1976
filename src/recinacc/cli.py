"""Command-line front end: single values, grid sweeps, verification suites.

Output is deterministic byte-for-byte for identical invocations,
including seeded Monte Carlo runs.  Reals are serialized with 17
significant digits so every printed value round-trips to the exact
float.  Exit codes: 0 success, 1 failed verification, 2 usage or
unsupported-combination errors, 3 divergent or non-evaluable integrals,
Monte Carlo contamination or any other failed evaluation.  A package
error ends in one line on standard error, never in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .distributions import (
    Distribution,
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)
from .errors import (
    DivergenceError,
    ParameterError,
    QuadratureError,
    RecinaccError,
    UnsupportedMethodError,
)
from . import verify as V
from .oracle import McConfig, mc_measure
from .record_measures import MEASURES, RecordMeasureRequest, compute_record_measure
from .records import RecordSpec

# the output columns, in order; JSON rows leave out a None seed and add
# "error" when it is set
_FIELDS = ("measure", "dist", "params", "side", "n", "k", "method", "value",
           "abs_error_estimate", "seed")

# each failure kind: its stderr prefix and exit code; the first match wins
_FAILURES = (
    ((ParameterError, UnsupportedMethodError), "error", 2),
    (DivergenceError, "divergent", 3),
    (QuadratureError, "quadrature failure", 3),
    (RecinaccError, "failed", 3),
)

_METHOD_TOKENS = {
    "auto": "auto",
    "closed": "closed_form",
    "quad": "quadrature",
    "gamma": "gamma_expectation",
    "mc": "monte_carlo",
}


def _power_increasing(m: float) -> Distribution:
    if not float(m).is_integer():
        raise ParameterError(f"parameter m must be an integer, got {m!r}")
    return make_power_increasing(int(m))


# each --dist choice: its factory and the parameters it takes, in order
_DISTS = {
    "exponential": (make_exponential, ("theta",)),
    "pareto": (make_pareto, ("theta",)),
    "weibull": (make_weibull, ("lambda", "beta")),
    "uniform": (make_uniform01, ()),
    "power-dec": (make_power_decreasing, ()),
    "power-inc": (_power_increasing, ("m",)),
}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _param_names(name: str, params: dict[str, float]) -> tuple[str, ...]:
    """The parameter names distribution ``name`` takes, once ``params`` has exactly them."""
    wanted = _DISTS[name][1]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing or extra:
        raise ParameterError(
            f"distribution {name} takes parameters {list(wanted)}; "
            f"missing {missing}, unknown {extra}"
        )
    return wanted


def _build_dist(name: str, params: dict[str, float]) -> Distribution:
    return _DISTS[name][0](*(params[p] for p in _param_names(name, params)))


def _parse_params(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ParameterError(f"--param expects name=value, got {pair!r}")
        if name in out:
            raise ParameterError(f"parameter {name} is given twice")
        try:
            out[name] = float(raw)
        except ValueError as exc:
            raise ParameterError(f"parameter {name} has non-numeric value {raw!r}") from exc
    return out


def _parse_range(raw: str, flag: str) -> list[int]:
    lo, sep, hi = raw.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError as exc:
        raise ParameterError(f"{flag} expects INT or LO..HI, got {raw!r}") from exc
    if hi_i < lo_i:
        raise ParameterError(f"{flag} range {raw!r} is empty")
    return list(range(lo_i, hi_i + 1))


def _failure(exc: RecinaccError) -> tuple[str, int]:
    return next((prefix, code) for kind, prefix, code in _FAILURES if isinstance(exc, kind))


def _evaluate(args, params, n, k):
    request = RecordMeasureRequest(
        _build_dist(args.dist, params), RecordSpec(args.side, n, k), args.measure,
        _METHOD_TOKENS[args.method],
    )
    # only this call carries the seed
    if request.method == "monte_carlo":
        return mc_measure(request, McConfig(seed=args.seed))
    return compute_record_measure(request)


def _make_row(args, params, n, k, result=None, error=None):
    row = {
        "measure": args.measure, "dist": args.dist, "params": params, "side": args.side,
        "n": n, "k": k, "method": "error", "value": None, "abs_error_estimate": None,
        "seed": None, "error": error,
    }
    if result is not None:
        row.update(
            method=result.method, value=result.value,
            abs_error_estimate=result.abs_error_estimate,
            seed=args.seed if result.method == "monte_carlo" else None,
        )
    return row


def _field(row: dict, name: str, as_json: bool) -> str:
    value = row[name]
    if name == "params":
        order = _DISTS[row["dist"]][1]
        if as_json:
            return "{%s}" % ", ".join(f"{json.dumps(p)}: {_fmt(value[p])}" for p in order)
        return ";".join(f"{p}={_fmt(value[p])}" for p in order)
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, str):
        return json.dumps(value) if as_json else value
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def _emit(rows: list[dict], fmt: str, out) -> None:
    # out=None prints to sys.stdout as it is at call time
    if fmt == "csv":
        print(",".join(_FIELDS), file=out)
        for row in rows:
            print(",".join(_field(row, name, False) for name in _FIELDS), file=out)
        return
    for row in rows:
        names = [f for f in _FIELDS if f != "seed" or row["seed"] is not None]
        names += ["error"] if row["error"] else []
        print("{%s}" % ", ".join(f'"{f}": {_field(row, f, True)}' for f in names), file=out)


def cmd_compute(args, out=None) -> int:
    params = _parse_params(args.param)
    row = _make_row(args, params, args.n, args.k, _evaluate(args, params, args.n, args.k))
    _emit([row], args.format, out)
    return 0


def cmd_table(args, out=None) -> int:
    params = _parse_params(args.param)
    ns = _parse_range(args.n, "--n")
    ks = _parse_range(args.k, "--k")

    grids: dict[str, list[float]] = {}
    for raw in args.param_grid:
        name, sep, values = raw.partition("=")
        if not sep or not values:
            raise ParameterError(f"--param-grid expects name=v1,v2,..., got {raw!r}")
        if name in params or name in grids:
            raise ParameterError(f"parameter {name} is given twice")
        try:
            grids[name] = [float(v) for v in values.split(",")]
        except ValueError as exc:
            raise ParameterError(f"--param-grid {raw!r} has a non-numeric value") from exc
        if len(set(grids[name])) < len(grids[name]):
            raise ParameterError(f"--param-grid {raw!r} lists a value twice")

    combos: list[dict[str, float]] = [dict(params)]
    for name, values in grids.items():
        combos = [{**combo, name: v} for combo in combos for v in sorted(values)]
    order = _param_names(args.dist, combos[0])  # every combo has the same names

    cells = sorted(
        ((n, k, combo) for n in ns for k in ks for combo in combos),
        key=lambda cell: (
            cell[0], cell[1], tuple(cell[2].get(p, 0.0) for p in order),
        ),
    )

    rows = []
    codes = []  # the exit code of each failed cell
    for n, k, combo in cells:
        try:
            rows.append(_make_row(args, combo, n, k, _evaluate(args, combo, n, k)))
        except RecinaccError as exc:
            codes.append(_failure(exc)[1])
            rows.append(_make_row(args, combo, n, k, error=str(exc)))
    _emit(rows, args.format, out)
    return max(codes) if len(codes) == len(rows) else 0


def cmd_verify(args, out=None) -> int:
    report = V.run_suite(args.suite, args.seed)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}  ({check['detail']})", file=out)
    total = len(report["checks"])
    good = sum(1 for c in report["checks"] if c["passed"])
    print(f"suite {args.suite}: {good}/{total} checks passed", file=out)
    print(json.dumps(report, sort_keys=True), file=out)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recinacc",
        description="Inaccuracy measures between record-value laws and their parent distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, table: bool) -> None:
        p.add_argument("--dist", required=True, choices=sorted(_DISTS))
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=VALUE",
            help="distribution parameter, repeatable",
        )
        p.add_argument("--measure", required=True, choices=tuple(MEASURES))
        p.add_argument("--side", required=True, choices=("upper", "lower"))
        if table:
            p.add_argument("--n", required=True, help="INT or LO..HI")
            p.add_argument("--k", required=True, help="INT or LO..HI")
            p.add_argument(
                "--param-grid", action="append", default=[], metavar="NAME=V1,V2,...",
                help="sweep a parameter over listed values, repeatable",
            )
        else:
            p.add_argument("--n", required=True, type=int)
            p.add_argument("--k", required=True, type=int)
        p.add_argument("--method", default="auto", choices=sorted(_METHOD_TOKENS))
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=0)

    p_compute = sub.add_parser("compute", help="one measure value")
    add_common(p_compute, table=False)
    p_compute.set_defaults(fn=cmd_compute)

    p_table = sub.add_parser("table", help="sweep a grid of n, k, parameters")
    add_common(p_table, table=True)
    p_table.set_defaults(fn=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(V.SUITES))
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite value is caught where it matters (the
        # integrator's IntegrandError, the Monte Carlo contamination
        # check), so numpy's own warnings would only be noise
        with np.errstate(all="ignore"):
            return args.fn(args)
    except RecinaccError as exc:
        prefix, code = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
