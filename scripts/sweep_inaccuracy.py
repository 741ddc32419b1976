#!/usr/bin/env python3
"""Sweep record inaccuracy measures over the catalog and emit plot-ready CSV.

Produces one row per (family, measure, side, n, k) cell using the best
available route for each, plus a short trend summary on stderr: how each
family's inaccuracy moves with the record index n and the stream
multiplicity k.  Typical use:

    python scripts/sweep_inaccuracy.py --n-max 6 --k-max 3 --out sweep.csv
"""

import argparse
import csv
import sys
from pathlib import Path

from recinacc import (
    DivergenceError,
    RecordMeasureRequest,
    RecordSpec,
    UnsupportedMethodError,
    compute_record_measure,
    make_exponential,
    make_pareto,
    make_power_decreasing,
    make_power_increasing,
    make_uniform01,
    make_weibull,
)

FAMILIES = [
    ("exponential(1)", make_exponential(1.0)),
    ("exponential(2)", make_exponential(2.0)),
    ("pareto(2)", make_pareto(2.0)),
    ("weibull(1,2)", make_weibull(1.0, 2.0)),
    ("weibull(2,0.5)", make_weibull(2.0, 0.5)),
    ("uniform01", make_uniform01()),
    ("power-dec", make_power_decreasing()),
    ("power-inc(2)", make_power_increasing(2)),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--k-max", type=int, default=3)
    ap.add_argument("--out", type=Path, default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    handle = args.out.open("w", newline="") if args.out else sys.stdout
    writer = csv.writer(handle)
    writer.writerow(["family", "measure", "side", "n", "k", "method", "value", "abs_error_estimate"])

    series = {}
    for label, parent in FAMILIES:
        for measure, sides in [("kerridge", ("upper", "lower")), ("cri", ("upper",)), ("cpi", ("lower",))]:
            for side in sides:
                for k in range(1, args.k_max + 1):
                    values = []
                    for n in range(1, args.n_max + 1):
                        try:
                            res = compute_record_measure(
                                RecordMeasureRequest(parent, RecordSpec(side, n, k), measure)
                            )
                        except (DivergenceError, UnsupportedMethodError) as exc:
                            writer.writerow([label, measure, side, n, k, "error", "", ""])
                            print(f"note: {label} {measure} {side} n={n} k={k}: {exc}",
                                  file=sys.stderr)
                            continue
                        writer.writerow([
                            label, measure, side, n, k,
                            res.method, f"{res.value:.12g}", f"{res.abs_error_estimate:.3g}",
                        ])
                        values.append(res.value)
                    if len(values) == args.n_max:
                        series[(label, measure, side, k)] = values

    def trend(vals):
        if all(b >= a for a, b in zip(vals, vals[1:])):
            return "nondecreasing"
        if all(b <= a for a, b in zip(vals, vals[1:])):
            return "nonincreasing"
        return "mixed"

    print("\ntrend in n by (family, measure, side, k):", file=sys.stderr)
    for key, vals in sorted(series.items()):
        print(f"  {key[0]:16s} {key[1]:8s} {key[2]:5s} k={key[3]}  {trend(vals)}",
              file=sys.stderr)

    if args.out:
        handle.close()
        print(f"\nwrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
