"""Spans for the traced run, recorded from the benchmark's side.

Each layer's public functions are wrapped where their callers bind them
(the module attribute a caller looks up at call time), so the program
itself is unchanged.  A span is [name, start, end, parent index, count];
spans stay in memory and are written out when the run ends.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from spec import VERIFY_SUITES

DENSITY = ("record_pdf", "record_log_pdf", "record_cdf", "record_survival")
GENERIC = (
    "kerridge", "kl_divergence", "relative_information", "extropy_inaccuracy",
    "cumulative_residual_inaccuracy", "cumulative_past_inaccuracy",
    "cumulative_residual_extropy_inaccuracy", "cumulative_past_extropy_inaccuracy",
)
PARENT_CALLABLES = ("pdf", "log_pdf", "cdf", "survival", "quantile", "inverse_survival",
                    "log_cdf", "log_survival")

COUNT_METRICS = (
    "numerics.integrate.calls", "numerics.integrate.evals",
    "numerics.gamma_expectation.calls", "numerics.gamma_expectation.evals",
    "numerics.gamma_expectation.fallbacks", "numerics.laguerre_rule.builds",
    "records.density.points", "records.transform.points", "records.sample.draws",
    "distributions.parent.points",
)
MS_METRICS = (
    "cli.interpreter_ms", "cli.import_ms", "cli.import.scipy_stats_ms", "cli.command_ms",
    *(f"verify.{suite}.ms" for suite in VERIFY_SUITES),
    "numerics.integrate.self_ms", "numerics.gamma_expectation.self_ms",
    "numerics.laguerre_rule.ms", "records.density.self_ms", "records.transform.self_ms",
    "records.sample.self_ms", "distributions.parent.self_ms", "measures.generic.self_ms",
    "record_measures.closed_form.ms", "record_measures.quadrature.ms",
    "record_measures.gamma_expectation.ms", "record_measures.monte_carlo.ms",
    "record_measures.hazard_forms.ms", "record_measures.mean_difference.ms",
    "record_measures.cdf_difference.ms", "record_measures.scale_shift.ms",
    "oracle.mc_measure.ms", "oracle.stream_record_sample.ms",
)
PER_LAYER = COUNT_METRICS + MS_METRICS


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, fn, args=(), kwargs=None, count=None):
        """fn(*args, **kwargs) inside a span; ``count`` gives the span's count."""
        kwargs = kwargs or {}
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        if count is not None:
            rec[4] = count(args, kwargs, out)
        return out

    def wrap(self, name: str, fn, count=None, skip_caller=None):
        """fn, recording a span per call.  Calls made from ``skip_caller``'s
        own body (recursion) pass straight through."""
        def wrapper(*args, **kwargs):
            if skip_caller is not None and sys._getframe(1).f_code is skip_caller:
                return fn(*args, **kwargs)
            return self.span(name, fn, args, kwargs, count)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, name: str, bindings, attr: str, count=None, recursive=False) -> None:
        """Wrap ``attr`` in every module of ``bindings`` that binds it."""
        fn = getattr(bindings[0], attr)
        wrapped = self.wrap(name, fn, count, fn.__code__ if recursive else None)
        for module in bindings:
            if getattr(module, attr, None) is fn:
                setattr(module, attr, wrapped)

    def install(self) -> None:
        from recinacc import measures, numerics, oracle, record_measures as rm, records

        def evals(args, kwargs, out):
            return out.evaluations

        def size_of(i):
            return lambda args, kwargs, out: int(np.size(args[i]))

        self.patch("integrate", [numerics, measures], "integrate", evals, recursive=True)
        self.patch("gamma_expectation", [numerics, rm], "gamma_expectation", evals)
        self.patch("laguerre_rule", [numerics._sp], "roots_genlaguerre", lambda *a: 1)
        for attr in DENSITY:
            self.patch("density", [records, rm], attr, size_of(2))
        self.patch("transform", [records, rm], "gamma_transform_point", size_of(2))
        self.patch("sample", [records, oracle], "sample_record",
                   lambda args, kwargs, out: int(np.size(out)))
        for attr in GENERIC:
            self.patch("generic", [measures], attr)
        # record_measures binds measures.kerridge under this private name
        rm._generic_kerridge = measures.kerridge
        self.patch("mc_measure", [oracle], "mc_measure")
        self.patch("stream_record_sample", [oracle], "stream_record_sample")

    def wrap_parent(self, parent):
        """The parent with every callable wrapped; name and params unchanged,
        so closed-form dispatch still fires."""
        size = lambda args, kwargs, out: int(np.size(args[0]))  # noqa: E731
        return dataclasses.replace(parent, **{
            attr: self.wrap("parent", getattr(parent, attr), size) for attr in PARENT_CALLABLES
        })

    # -----------------------------------------------------------------------

    def metrics(self, passes: int, cli_probes: list[dict]) -> dict[str, float]:
        names = [s[0] for s in self.spans]
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        count = np.array([s[4] for s in self.spans], dtype=np.int64)
        child = np.zeros(len(self.spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = (dur - child) * 1e3
        by = defaultdict(list)
        for i, name in enumerate(names):
            by[name].append(i)

        def total(name, values):
            return float(values[by[name]].sum()) / passes if by[name] else 0.0

        def median_ms(name):
            return statistics.median(dur[by[name]]) * 1e3 if by[name] else 0.0

        parent_name = [names[p] if p >= 0 else "" for p in parent]
        outer_density = [i for i in by["density"] if parent_name[i] != "density"]
        m = {
            "numerics.integrate.calls": len(by["integrate"]) / passes,
            "numerics.integrate.evals": total("integrate", count),
            "numerics.integrate.self_ms": total("integrate", self_ms),
            "numerics.gamma_expectation.calls": len(by["gamma_expectation"]) / passes,
            "numerics.gamma_expectation.evals": total("gamma_expectation", count),
            "numerics.gamma_expectation.fallbacks": sum(
                parent_name[i] == "gamma_expectation" for i in by["integrate"]) / passes,
            "numerics.gamma_expectation.self_ms": total("gamma_expectation", self_ms),
            "numerics.laguerre_rule.builds": len(by["laguerre_rule"]) / passes,
            "numerics.laguerre_rule.ms": total("laguerre_rule", dur) * 1e3,
            "records.density.points": float(count[outer_density].sum()) / passes,
            "records.density.self_ms": total("density", self_ms),
            "records.transform.points": total("transform", count),
            "records.transform.self_ms": total("transform", self_ms),
            "records.sample.draws": total("sample", count),
            "records.sample.self_ms": total("sample", self_ms),
            "distributions.parent.points": total("parent", count),
            "distributions.parent.self_ms": total("parent", self_ms),
            "measures.generic.self_ms": total("generic", self_ms),
            "oracle.mc_measure.ms": median_ms("mc_measure"),
            "oracle.stream_record_sample.ms": median_ms("stream_record_sample"),
        }
        for route in ("closed_form", "quadrature", "gamma_expectation", "monte_carlo"):
            m[f"record_measures.{route}.ms"] = median_ms(f"route.{route}")
        for form in ("hazard_forms", "mean_difference", "cdf_difference", "scale_shift"):
            m[f"record_measures.{form}.ms"] = median_ms(f"identity.{form}")
        m.update(cli_metrics(cli_probes))
        return {name: m[name] for name in PER_LAYER}

    def dump(self, path, seed: int) -> None:
        path.write_text(json.dumps({"seed": seed,
                                    "fields": ["name", "start", "end", "parent", "count"],
                                    "spans": self.spans}))


def importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times in ms from -X importtime: the program's own
    top-level imports, and the outermost scipy.stats entries (scipy loads
    the package lazily, so its submodules can be the outermost lines)."""
    program = 0.0
    stats: dict[int, float] = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        ms = int(cumulative) / 1e3
        depth = len(name) - len(name.lstrip())
        if depth == 1 and name.startswith(" recinacc"):
            program += ms
        elif name.strip().startswith("scipy.stats"):
            stats[depth] += ms
    return {"import_ms": program, "scipy_stats_ms": stats[min(stats)] if stats else 0.0}


def cli_metrics(probes: list[dict]) -> dict[str, float]:
    """Per-invocation medians from cli_probe.py reports (zeros when none)."""
    def med(key, rows):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    m = {
        "cli.interpreter_ms": med("interpreter_ms", probes),
        "cli.import_ms": med("import_ms", probes),
        "cli.import.scipy_stats_ms": med("scipy_stats_ms", probes),
        "cli.command_ms": med("command_ms", probes),
    }
    for suite in VERIFY_SUITES:
        rows = [r for r in probes if r["label"] == f"verify-{suite}"]
        m[f"verify.{suite}.ms"] = med("command_ms", rows)
    return m
