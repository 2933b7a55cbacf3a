"""Per-layer metrics from one traced run of a workload, in this process.

The workload's condrisk commands run through condrisk.cli.main: once to
warm up and check the outputs, once untraced, and once with timers
wrapped around the functions at the module attributes the program calls
(so the program's own calls are timed, not a copy of its logic).  A
command asking for worker processes runs with --threads 1 in those
passes, then once more untraced with its own count for the speed-up.
A function a later version removes is reported absent (value null).
"""

import contextlib
import io
import os
import sys
import time
from collections import defaultdict

from workloads import Verifier

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Tracer:
    """Timers and counters wrapped around module attributes; undo() removes them."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.present = set()
        self.missing = []
        self.cells = 0
        self.margins = set()
        self.model_seconds = defaultdict(float)
        self.reps = 0
        self.nondegenerate = 0
        self.subjects = 0
        self.input_bytes = 0
        self._saved = []

    def wrap(self, module, attr, layer, observe=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.calls[layer] += 1
            self.seconds[layer] += elapsed
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result

        self.present.add(layer)
        self._saved.append((module, attr, original))
        setattr(module, attr, timed)

    def undo(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # observers: counts taken from the call's arguments and result

    def kernel_cells(self, args, kwargs, result, elapsed):
        a_lo, a_hi, c_lo, c_hi = args[2:6]
        self.cells += max(0, a_hi - a_lo + 1) * max(0, c_hi - c_lo + 1)

    def margin(self, args, kwargs, result, elapsed):
        self.margins.add((args[0], args[1]))

    def mc_run(self, args, kwargs, result, elapsed):
        self.model_seconds[result.margin_model] += elapsed
        self.reps += result.reps
        self.nondegenerate += result.nondegenerate

    def parsed(self, args, kwargs, result, elapsed):
        self.subjects += len(result.subjects) + result.dropped_incomplete
        self.input_bytes += os.path.getsize(args[0])


def install(tracer):
    """Wrap the layer functions condrisk's commands call."""
    from condrisk import _backend, coverage, ingest, mc
    tracer.wrap(_backend, "cover_sums", "kernel", tracer.kernel_cells)
    tracer.wrap(coverage, "pmf_vector", "pmf", tracer.margin)
    tracer.wrap(coverage, "neumaier_sum", "sum")
    tracer.wrap(coverage, "prune_window", "window")
    tracer.wrap(coverage, "exact_coverage", "exact")
    tracer.wrap(coverage, "write_coverage_csv", "csv")
    tracer.wrap(mc, "mc_coverage", "mc", tracer.mc_run)
    tracer.wrap(mc, "simulate_cohort", "simulate")
    tracer.wrap(mc, "stratum_rr_estimate", "estimate")
    for attr in ("rr_crude", "rr1_estimate", "rr0_estimate"):
        tracer.wrap(ingest, attr, "estimate")
    tracer.wrap(ingest, "parse_dataset", "parse_wide", tracer.parsed)
    tracer.wrap(ingest, "parse_long_dataset", "parse_long", tracer.parsed)
    tracer.wrap(ingest, "analyze", "analyze")
    tracer.wrap(ingest, "write_report_files", "write")


def _with_threads(argv, threads):
    if "--threads" not in argv:
        return argv
    i = argv.index("--threads") + 1
    return argv[:i] + [str(threads)] + argv[i + 1:]


def _threads(argv):
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1


def _total(*values):
    return None if any(v is None for v in values) else sum(values)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(t, untraced, traced, speedup):
    """The per-layer metrics; None where the program no longer has the function."""
    def secs(layer):
        return t.seconds[layer] if layer in t.present else None

    def calls(layer):
        return t.calls[layer] if layer in t.present else None

    def only(layer, value):
        return value if layer in t.present else None

    fixed, cohort = only("mc", t.model_seconds["fixed_margin"]), only("mc", t.model_seconds["cohort"])
    parse = _total(secs("parse_wide"), secs("parse_long"))
    inner = _total(secs("kernel"), secs("pmf"), secs("sum"), secs("window"))
    values = {
        "kernel.s": (secs("kernel"), "s"),
        "kernel.calls": (calls("kernel"), "count"),
        "kernel.cells": (only("kernel", t.cells), "count"),
        "kernel.cells_per_s": (_ratio(only("kernel", t.cells), secs("kernel")), "1/s"),
        "binomial.pmf_s": (secs("pmf"), "s"),
        "binomial.pmf_calls": (calls("pmf"), "count"),
        "binomial.sum_s": (secs("sum"), "s"),
        "binomial.sum_calls": (calls("sum"), "count"),
        "binomial.window_s": (secs("window"), "s"),
        "binomial.window_calls": (calls("window"), "count"),
        "binomial.margin_reuse": (_ratio(only("pmf", len(t.margins)), calls("pmf")), "ratio"),
        "coverage.scenarios": (calls("exact"), "count"),
        "coverage.exact_s": (secs("exact"), "s"),
        "coverage.self_s": (None if inner is None else _total(secs("exact"), -inner), "s"),
        "coverage.csv_s": (secs("csv"), "s"),
        "coverage.parallel_speedup": (speedup, "ratio"),
        "mc.reps": (only("mc", t.reps), "count"),
        "mc.fixed_margin_s": (fixed, "s"),
        "mc.cohort_s": (cohort, "s"),
        "mc.simulate_s": (secs("simulate"), "s"),
        "mc.reps_per_s": (_ratio(only("mc", t.reps), _total(fixed, cohort)), "1/s"),
        "mc.nondegenerate_ratio": (_ratio(only("mc", t.nondegenerate), only("mc", t.reps)), "ratio"),
        "measures.estimate_s": (secs("estimate"), "s"),
        "measures.estimate_calls": (calls("estimate"), "count"),
        "ingest.parse_wide_s": (secs("parse_wide"), "s"),
        "ingest.parse_long_s": (secs("parse_long"), "s"),
        "ingest.analyze_s": (secs("analyze"), "s"),
        "ingest.write_s": (secs("write"), "s"),
        "ingest.subjects": (only("parse_wide", t.subjects), "count"),
        "ingest.input_mb": (only("parse_wide", t.input_bytes / 1e6), "MB"),
        "ingest.subjects_per_s": (_ratio(only("parse_wide", t.subjects), parse), "1/s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.traced_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_run(ops):
    """Run the workload's commands in-process; returns what run.end_to_end returns."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from condrisk import cli

    verify = Verifier()
    counts = {"attempted": 0, "failed": 0}

    def run_pass(threads):
        total = 0.0
        for index, op in enumerate(ops):
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(_with_threads(op.argv, threads))
            except SystemExit as exc:
                code = exc.code
            total += time.perf_counter() - start
            counts["attempted"] += 1
            if code != 0:
                counts["failed"] += 1
                sys.stderr.write(f"condrisk {' '.join(op.argv)}: exit {code}\n")
                continue
            verify(index, op, out.getvalue())
        return total

    run_pass(1)  # warm-up: imports, lazily grown tables; outputs checked here
    untraced = run_pass(1)
    tracer = Tracer()
    try:
        install(tracer)
        traced = run_pass(1)
    finally:
        tracer.undo()
    threads = max(_threads(op.argv) for op in ops)
    speedup = untraced / run_pass(threads) if threads > 1 else 0.0
    metrics = layer_metrics(tracer, untraced, traced, speedup)
    samples = {"untraced_s": untraced, "traced_s": traced, "threads": threads,
               "missing_functions": tracer.missing}
    return verify.errors, counts["attempted"], counts["failed"], metrics, samples
