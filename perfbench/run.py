"""recinacc benchmark: one workload per run, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is cli, route-matrix, identity-forms or monte-carlo (see README.md).
A run repeats whole passes over the workload's operations until S seconds
have gone by, checks every output, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from spans recorded around each layer's public functions.
Run it from the root of a source checkout: the program is imported from
./src.
"""

import os
import sys

# The run, its reference tasks (calibrate.py) and every child it starts
# share one CPU, so that the reference tasks time the CPU the operations
# run on (this machine's CPUs change speed independently of each other),
# and numpy/scipy pools get one thread.  Both are set before numpy loads:
# threads started later inherit the affinity, and a second pool thread
# could only take turns on the same CPU.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from calibrate import Calibration  # noqa: E402

WORKLOADS = ("cli", "route-matrix", "identity-forms", "monte-carlo")
SETUP_REPEATS = 5
UNITS = {"setup_s": "s", "values_per_s": "1/s", "value_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a run would, print the time, exit
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, tracer):
    import workloads as W

    refs = W.load_references()
    if workload == "cli":
        w = W.cli(refs, probe=tracer is not None)
    else:
        sys.path.insert(0, str(SRC))
        if tracer is not None:
            tracer.install()
        parents = W.build_parents(tracer.wrap_parent if tracer else None)
        build = {"route-matrix": W.route_matrix, "identity-forms": W.identity_forms,
                 "monte-carlo": W.monte_carlo}[workload]
        w = build(parents, refs)
    w.warmup()
    return w


def run_window(w, seed: int, seconds: float, tracer, cal) -> dict:
    """Whole passes until ``seconds`` have gone by; every output checked.
    Reference tasks run before every operation and after the last."""
    peak_child_kib, probes = 0, []
    timed = []  # (start, wall time, correct) of every operation
    attempted = failed = 0
    faults: dict[str, int] = {}
    problems: list[str] = []
    busy = 0.0
    pass_busy = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        busy_before = busy
        for i in w.order(seed, passes):
            op = w.ops[i]
            s = w.op_seed(seed, passes, i)
            cal.sample(w.cal_burst)
            t0 = time.perf_counter()
            try:
                out = tracer.span(op.layer, op.run, (s,)) if tracer else op.run(s)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {str(exc)[:160]}"
            dt = time.perf_counter() - t0
            busy += dt
            attempted += 1
            why = error or op.check(out)
            if w.name == "cli" and out is not None:
                peak_child_kib = max(peak_child_kib, out[4])
                if tracer and why is None:
                    probes.append(probe_row(op.name, out))
            timed.append((t0, dt, why is None))
            if why is None:
                continue
            failed += error is not None or op.fault is not None
            if op.fault:
                faults[op.fault] = faults.get(op.fault, 0) + 1
            else:
                problems.append(f"{op.name}: {why}")
        passes += 1
        pass_busy.append(busy - busy_before)
    cal.sample(w.cal_burst)
    scaled = [(cal.scale(t0, dt), ok) for t0, dt, ok in timed]
    return {"passes": passes, "attempted": attempted, "failed": failed, "faults": faults,
            "problems": problems, "busy": busy, "pass_busy": pass_busy,
            "times": [dt for _, dt, ok in timed if ok],
            "scaled_times": [dt for dt, ok in scaled if ok],
            "scaled_busy": sum(dt for dt, _ in scaled),
            "peak_child_kib": peak_child_kib, "probes": probes}


def probe_row(label: str, out) -> dict:
    from tracer import importtime

    _, _, err, start = out[:4]
    line = [x for x in err.splitlines() if x.startswith("PROBE ")][-1]
    probe = json.loads(line[len("PROBE "):])
    return {"label": label, "interpreter_ms": (probe["start"] - start) * 1e3,
            "command_ms": probe["command_ms"], **importtime(err)}


def measure_setup(args, cal) -> tuple[list[float], list[float]]:
    """Set-up time of fresh workload processes, start to first timed
    operation: (wall times, the same on the scale of ``cal``, whose task
    is timed before and after each)."""
    from workloads import spawn

    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    timed = []
    for _ in range(SETUP_REPEATS):
        cal.sample(1)
        t0 = time.perf_counter()
        rc, stdout, err, start, _ = spawn(argv, dict(os.environ))
        if rc != 0:
            raise SystemExit(f"set-up probe failed: {err.strip()[-400:]}")
        timed.append((t0, float(stdout.strip().splitlines()[-1]) - start))
    cal.sample(1)
    return [dt for _, dt in timed], [cal.scale(t0, dt) for t0, dt in timed]


def run_one(args) -> int:
    if args.setup_probe:
        setup(args.workload, None)
        print(repr(time.time()))
        return 0
    tracer = None
    if args.trace:
        from tracer import COUNT_METRICS, Tracer

        tracer = Tracer()
    w = setup(args.workload, tracer)
    if tracer:
        tracer.spans.clear()  # the warm-up is set-up, not part of any pass
    cal = Calibration(w.cal_task)
    res = run_window(w, args.seed, args.seconds, tracer, cal)
    ok = len(res["times"])
    for line in res["problems"][:20]:
        print(f"INCORRECT {line}", file=sys.stderr)
    faults = ", ".join(f"{name}: {n}" for name, n in sorted(res["faults"].items()))
    summary = (f"{args.workload} seed {args.seed}{' traced' if tracer else ''}: "
               f"{res['passes']} passes, {res['busy'] / res['passes']:.3f} s of operation "
               f"time per pass, {res['attempted']} operations attempted, {res['failed']} "
               f"failed{f' ({faults})' if faults else ''}, {len(res['problems'])} incorrect")
    print(summary)
    print(f"  operation time of each pass: {[round(x, 3) for x in res['pass_busy']]} s")
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}{'-trace' if tracer else ''}"
    if tracer:
        metrics = tracer.metrics(res["passes"], res["probes"])
        # one spans file per workload, so repeated traced runs do not pile up
        tracer.dump(out_dir / f"{args.workload}.spans.json", args.seed)
        result["metrics"] = {
            name: {"value": value, "unit": "count" if name in COUNT_METRICS else "ms"}
            for name, value in metrics.items()
        }
    else:
        if args.workload == "cli":
            peak_kib = res["peak_child_kib"]
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups, scaled_setups = measure_setup(args, Calibration("process"))
        values = {
            "setup_s": statistics.median(scaled_setups),
            "values_per_s": ok / res["scaled_busy"],
            "value_p50_ms": statistics.median(res["scaled_times"]) * 1e3 if ok else 0.0,
            "peak_rss_mb": peak_kib / 1024,
        }
        # the scaled values are the metrics; the wall-clock ones are shown beside them
        print(f"  {cal.name} reference task: median {statistics.median(cal.durations) * 1e3:.4f} "
              f"ms of {len(cal.durations)} timings; times are scaled to {cal.ref * 1e3:g} ms")
        print(f"  setup_s       {values['setup_s']:.4f} s   median of {len(setups)} fresh "
              f"set-ups {[round(x, 3) for x in scaled_setups]} "
              f"(wall {statistics.median(setups):.4f} s)")
        print(f"  values_per_s  {values['values_per_s']:.4f} 1/s   {ok} correct operations "
              f"in {res['scaled_busy']:.2f} s of operation time "
              f"(wall {ok / res['busy']:.4f} 1/s in {res['busy']:.2f} s)")
        wall_p50 = statistics.median(res["times"]) * 1e3 if ok else 0.0
        print(f"  value_p50_ms  {values['value_p50_ms']:.4f} ms   median of {ok} "
              f"successful operations (wall {wall_p50:.4f} ms)")
        print(f"  peak_rss_mb   {values['peak_rss_mb']:.2f} MB")
        result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    stem.with_suffix(".result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, and a table of metrics."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:40s} {mv['value']:14.4f} {mv['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recinacc" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'recinacc'} is missing; run from "
              "the root of a recinacc source checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
