"""Tests of the benchmark's references and output checks.

The references must reproduce cases worked exhaustively or by hand, and
each workload's check must reject a deliberately corrupted output of the
real program.  Run with `PYTHONPATH=src python -m pytest -q bench`.
"""

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import types
from importlib.machinery import EXTENSION_SUFFIXES
from statistics import NormalDist

import numpy as np
import pytest

import reference
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

Z95 = NormalDist().inv_cdf(0.975)


def run_condrisk(argv):
    """Run a condrisk command in this process; returns its stdout."""
    from condrisk import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def brute_force_coverage(n_e, n_ne, p_e, p_ne, true_rr):
    """Coverage mass over every nondegenerate (a, c), in plain Python."""
    def pmf(n, k, p):
        return math.comb(n, k) * p ** k * (1 - p) ** (n - k)

    total = []
    for a, c in itertools.product(range(1, n_e), range(1, n_ne)):
        r_e, r_ne = a / n_e, c / n_ne
        half = Z95 * math.sqrt((1 - r_e) / (n_e * r_e) + (1 - r_ne) / (n_ne * r_ne))
        if (r_e / r_ne) * math.exp(-half) <= true_rr <= (r_e / r_ne) * math.exp(half):
            total.append(pmf(n_e, a, p_e) * pmf(n_ne, c, p_ne))
    return math.fsum(total)


def test_reference_coverage_by_hand():
    # n = 2 in each group: only a = c = 1 is nondegenerate; its point
    # estimate is 1 and its log-scale SE is 1, so the CI is exp(+-z).
    ref = reference.exact_coverage(2, 2, 0.3, 0.6, 0.5, 0.95)
    assert ref["p_c"] == pytest.approx(0.42 * 0.48, rel=1e-14)
    assert ref["degenerate_mass"] == pytest.approx(1 - 0.42 * 0.48, rel=1e-14)
    ref = reference.exact_coverage(2, 2, 0.9, 0.09, 10.0, 0.95)  # 10 > exp(1.96)
    assert ref["p_c"] == 0.0


@pytest.mark.parametrize("n_e,n_ne,p_e,p_ne", [(7, 9, 0.3, 0.5), (12, 5, 0.8, 0.35), (15, 15, 0.1, 0.12)])
def test_reference_coverage_exhaustive(n_e, n_ne, p_e, p_ne):
    ref = reference.exact_coverage(n_e, n_ne, p_e, p_ne, p_e / p_ne, 0.95)
    assert ref["outside"] == 0.0
    assert ref["p_c"] == pytest.approx(brute_force_coverage(n_e, n_ne, p_e, p_ne, p_e / p_ne),
                                       rel=1e-13, abs=1e-15)


def test_reference_cohort_simulation_matches_enumeration():
    # Three subjects per group: every joint history (4**3 per group) enumerated.
    n, pi_e, pi_ne, rho_e, rho_ne = 3, 0.5, 0.4, 0.3, 0.2

    def histories(pi, rho):
        p1, p0 = reference.stratum_risk(pi, rho, 1), reference.stratum_risk(pi, rho, 0)
        cell = {(1, 1): pi * p1, (1, 0): pi * (1 - p1), (0, 1): (1 - pi) * p0, (0, 0): (1 - pi) * (1 - p0)}
        for subjects in itertools.product(cell, repeat=n):
            m = sum(1 for earlier, _ in subjects if earlier == 1)
            a = sum(1 for earlier, later in subjects if earlier == 1 and later == 1)
            yield m, a, math.prod(cell[s] for s in subjects)

    true_rr = reference.stratum_risk(pi_e, rho_e, 1) / reference.stratum_risk(pi_ne, rho_ne, 1)
    exact = 0.0
    for (m_e, a, w_e), (m_ne, c, w_ne) in itertools.product(histories(pi_e, rho_e), histories(pi_ne, rho_ne)):
        if 1 <= a <= m_e - 1 and 1 <= c <= m_ne - 1:
            lo, hi = reference.log_wald_bounds(a, m_e, c, m_ne, Z95)
            exact += w_e * w_ne * (lo <= math.log(true_rr) <= hi)
    est, se = reference.simulate_cohort_coverage(n, n, pi_e, pi_ne, rho_e, rho_ne, 1, 0.95,
                                                 reps=200_000, seed=3)
    assert abs(est - exact) <= 4 * se


def test_reference_analysis_by_hand():
    # Exposed: earlier outcome 1 for four subjects (later 1, 1, 0, 0) and 0
    # for two (later 1, 0).  Non-exposed: earlier 1 for five (later 1, 0, 0,
    # 0, 0) and 0 for three (later 0, 0, 1).
    exposed = [True] * 6 + [False] * 8
    earlier = [1, 1, 1, 1, 0, 0] + [1, 1, 1, 1, 1, 0, 0, 0]
    later = [1, 1, 0, 0, 1, 0] + [1, 0, 0, 0, 0, 0, 0, 1]
    risks, measures = reference.cohort_analysis(
        np.array(exposed), np.array([earlier, later]).T, 0.95)
    assert risks[(2, "E")] == 3 / 6 and risks[(1, "nonE")] == 5 / 8
    (point, lower, upper), _, _ = measures[(2, 1, "rr1")]
    assert point == pytest.approx((2 / 4) / (1 / 5))
    assert math.log(upper / point) == pytest.approx(Z95 * math.sqrt(0.5 / 2 + 0.8 / 1))
    (point, _, _), _, _ = measures[(2, 1, "rr0")]
    assert point == pytest.approx((1 / 2) / (1 / 3))
    (point, lower, _), _, _ = measures[(2, 1, "rr")]
    assert point == pytest.approx((3 / 6) / (2 / 8))
    assert math.log(point / lower) == pytest.approx(Z95 * math.sqrt(1 / 3 - 1 / 6 + 1 / 2 - 1 / 8))
    _, rho_e, _ = measures[(2, 1, "rr")]
    # exposed 2x2 of (earlier, later): [[2, 2], [1, 1]] -> phi = 0
    assert rho_e == 0.0


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    edit(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _set_fields(lines, index, changes):
    header = lines[1].rstrip("\n").split(",")
    fields = lines[index].rstrip("\n").split(",")
    for name, value in changes.items():
        fields[header.index(name)] = value
    lines[index] = ",".join(fields) + "\n"


@pytest.fixture
def coverage_run(tmp_path):
    axes = ((30, 45), (40,), (0.21, 0.62), (0.33,), (0.4,), (0.15,))
    grid, out = str(tmp_path / "t.grid"), str(tmp_path / "t.csv")
    workloads._write_grid(grid, axes)
    run_condrisk(["coverage", "--grid", grid, "--stratum", "1", "--out", out])

    def check():
        workloads.check_coverage(out, axes, 1, workloads._rng(0, 0))

    check()
    return out, check


def test_coverage_check_rejects_altered_p_c(coverage_run):
    out, check = coverage_run
    _rewrite(out, lambda lines: _set_fields(lines, 3, {"p_c": "0.5"}))
    with pytest.raises(workloads.CheckFailed, match="p_c_normalized"):
        check()


def test_coverage_check_rejects_p_c_off_the_reference(coverage_run):
    # p_c and p_c_normalized moved together, so only the reference sees it.
    out, check = coverage_run

    def edit(lines):
        header = lines[1].rstrip("\n").split(",")
        fields = lines[3].rstrip("\n").split(",")
        p_c = float(fields[header.index("p_c")]) - 1e-6
        degenerate = float(fields[header.index("degenerate_mass")])
        _set_fields(lines, 3, {"p_c": format(p_c, ".12g"),
                               "p_c_normalized": format(p_c / (1 - degenerate), ".12g")})

    _rewrite(out, edit)
    with pytest.raises(workloads.CheckFailed, match="vs reference"):
        check()


def test_analyze_check_rejects_swapped_ci_bounds(tmp_path):
    exposed, y, missing = workloads.make_cohort(seed=5, subjects=3000)
    wide, long_ = str(tmp_path / "w.csv"), str(tmp_path / "l.csv")
    workloads.write_cohort(exposed, y, missing, wide, long_, seed=5)
    out = str(tmp_path / "out")
    run_condrisk(["analyze", "--input", wide, "--exposed-value", workloads.EXPOSED, "--out", out])
    workloads.check_analysis(out, exposed, y, missing)

    def swap(lines):
        header = lines[1].rstrip("\n").split(",")
        fields = lines[4].rstrip("\n").split(",")
        lower, upper = header.index("ci_lower"), header.index("ci_upper")
        _set_fields(lines, 4, {"ci_lower": fields[upper], "ci_upper": fields[lower]})

    _rewrite(os.path.join(out, "measures.csv"), swap)
    with pytest.raises(workloads.CheckFailed, match="ci_lower"):
        workloads.check_analysis(out, exposed, y, missing)


def test_oracle_check_rejects_estimate_moved_by_5_se(tmp_path):
    op = workloads.oracle(seed=2, work=str(tmp_path))[0]  # fixed_margin
    assert "fixed_margin" in op.argv
    op.check(run_condrisk(op.argv))

    def move(lines):
        header = lines[1].rstrip("\n").split(",")
        fields = lines[2].rstrip("\n").split(",")
        est = float(fields[header.index("estimate")])
        est -= 5 * math.sqrt(est * (1 - est) / workloads.ORACLE_REPS)
        norm = est * float(fields[header.index("estimate_normalized")]) / float(fields[header.index("estimate")])
        _set_fields(lines, 2, {"estimate": format(est, ".12g"),
                               "std_error": format(math.sqrt(est * (1 - est) / workloads.ORACLE_REPS), ".12g"),
                               "estimate_normalized": format(norm, ".12g")})

    _rewrite(op.outputs[0], move)
    with pytest.raises(workloads.CheckFailed, match="SE apart"):
        op.check("")


def test_verifier_flags_a_rerun_that_differs(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a")
    op = workloads.Operation(["x"], [str(path)], lambda stdout: None)
    verify = workloads.Verifier()
    verify(0, op, "stdout")
    verify(0, op, "stdout")
    assert verify.errors == []
    path.write_text("b")
    verify(0, op, "stdout")
    assert len(verify.errors) == 1 and "differs" in verify.errors[0]


def _run_bench_in(root):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "coverage-paper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=root, capture_output=True,
                          text=True, timeout=120)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench_in(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no condrisk source" in proc.stderr


def test_refuses_a_checkout_with_a_compiled_kernel(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src" / "condrisk" / f"_coverage_ext{EXTENSION_SUFFIXES[0]}").write_bytes(b"")
    proc = _run_bench_in(tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "compiled extension" in proc.stderr


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def test_tracer_times_calls_and_reports_removed_functions_as_absent():
    module = types.SimpleNamespace(__name__="fake", neumaier_sum=lambda values, lo, hi: sum(values[lo:hi]))
    tracer = tracing.Tracer()
    tracer.wrap(module, "neumaier_sum", "sum")
    tracer.wrap(module, "prune_window", "window")  # not in this module
    assert module.neumaier_sum([1, 2, 3], 0, 2) == 3
    tracer.undo()
    assert tracer.calls["sum"] == 1 and tracer.missing == ["fake.prune_window"]
    metrics = tracing.layer_metrics(tracer, untraced=1.0, traced=1.5, speedup=0.0)
    assert metrics["binomial.sum_calls"]["value"] == 1
    assert metrics["binomial.window_s"]["value"] is None
    assert metrics["trace.overhead_s"]["value"] == 0.5
