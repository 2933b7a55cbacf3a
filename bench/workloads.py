"""The benchmark's workloads: seeded inputs, condrisk commands, output checks.

A workload is a list of operations.  An operation is one condrisk command
line together with the check of what it printed and wrote.  Inputs come
from the benchmark seed alone; checks compare with bench/reference.py or
with properties the method must have, never with stored outputs.
"""

import csv
import itertools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

import reference

LEVEL = 0.95
PRUNE = 1e-12  # condrisk's default tail-pruning epsilon, which these grids keep

# Absolute slack on a p_c or degenerate-mass comparison with the reference,
# beyond the certified truncation bound and the reference's own left-out
# and ambiguous mass.  It covers the 12 significant digits condrisk prints
# and the relative pmf error of both implementations (each ~1e-13 or below,
# summed over the window); the largest gap seen is given in the README.
ROUND_TOL = 1e-11
# Relative slack on quantities printed to 12 significant digits.
PRINT_REL = 1e-11
# analyze writes repr() floats, so only the two formulas' rounding remains.
ANALYZE_REL = 1e-12
ORACLE_SIGMAS = 4.0
COVERAGE_SAMPLE = 10  # rows per coverage command checked against the reference


class CheckFailed(Exception):
    """An output of condrisk disagrees with the reference or a property."""


@dataclass
class Operation:
    """One condrisk command and the check of its stdout and output files."""

    argv: list
    outputs: list
    check: object  # callable(stdout: str) -> None, raises CheckFailed


class Verifier:
    """Checks each operation's first output fully, later ones for identical bytes.

    condrisk promises byte-identical reruns, so a rerun that matches a
    checked output is as correct as it; one that differs is not.
    """

    def __init__(self):
        self.baseline = {}
        self.errors = []

    def __call__(self, index, op, stdout):
        try:
            produced = [stdout.encode()] + [_read_bytes(path) for path in op.outputs]
            if index not in self.baseline:
                op.check(stdout)
                self.baseline[index] = produced
            elif produced != self.baseline[index]:
                raise CheckFailed(f"condrisk {' '.join(op.argv)}: output differs from the first run")
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def _jitter(rng, values, width, digits):
    return tuple(round(v + rng.uniform(-width, width), digits) for v in values)


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_csv(path):
    """Rows of a condrisk CSV after its '# condrisk <version>' line."""
    with open(path, encoding="utf-8", newline="") as handle:
        first = handle.readline()
        _expect(first.startswith("# condrisk "), f"{path}: no '# condrisk' version line")
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------- coverage

GRID_KEYS = ("n_E", "n_nonE", "pi_E", "pi_nonE", "rho_E", "rho_nonE")


def _write_grid(path, axes):
    with open(path, "w", encoding="utf-8") as handle:
        for key, values in zip(GRID_KEYS, axes):
            handle.write(f"{key} = {' '.join(str(v) for v in values)}\n")


def check_coverage(path, axes, stratum, sample_rng):
    """Check every row's properties and a seeded sample against the reference."""
    rows = _read_csv(path)
    points = list(itertools.product(*axes))
    _expect(len(rows) == len(points), f"{path}: {len(rows)} rows for {len(points)} grid points")
    for row, point in zip(rows, points):
        got = (int(row["n_E"]), int(row["n_nonE"])) + tuple(float(row[k]) for k in GRID_KEYS[2:])
        _expect(got == point, f"{path}: row {got} out of grid order, expected {point}")
        _expect(int(row["stratum"]) == stratum and float(row["level"]) == LEVEL,
                f"{path}: row {point} has stratum/level {row['stratum']}/{row['level']}")
        _, _, pi_e, pi_ne, rho_e, rho_ne = point
        true_rr = (reference.stratum_risk(pi_e, rho_e, stratum)
                   / reference.stratum_risk(pi_ne, rho_ne, stratum))
        p_c, p_norm = float(row["p_c"]), float(row["p_c_normalized"])
        degenerate, bound = float(row["degenerate_mass"]), float(row["truncation_bound"])
        _expect(math.isclose(float(row["true_rr"]), true_rr, rel_tol=PRINT_REL),
                f"{path}: row {point} true_rr {row['true_rr']} != closed form {true_rr!r}")
        _expect(0.0 <= p_c <= 1.0 - degenerate + PRINT_REL,
                f"{path}: row {point} p_c {p_c!r} outside [0, 1 - degenerate_mass]")
        _expect(math.isclose(p_norm, p_c / (1.0 - degenerate), rel_tol=PRINT_REL),
                f"{path}: row {point} p_c_normalized {p_norm!r} != p_c / (1 - degenerate_mass)")
        _expect(0.0 <= bound <= PRUNE * (1.0 + PRINT_REL),
                f"{path}: row {point} truncation_bound {bound!r} outside [0, {PRUNE}]")
    for i in sorted(sample_rng.choice(len(rows), size=min(COVERAGE_SAMPLE, len(rows)), replace=False)):
        row, (n_e, n_ne, pi_e, pi_ne, rho_e, rho_ne) = rows[i], points[i]
        p_e = reference.stratum_risk(pi_e, rho_e, stratum)
        p_ne = reference.stratum_risk(pi_ne, rho_ne, stratum)
        ref = reference.exact_coverage(n_e, n_ne, p_e, p_ne, p_e / p_ne, LEVEL)
        slack = float(row["truncation_bound"]) + ref["outside"] + ref["ambiguous"] + ROUND_TOL
        gap = abs(float(row["p_c"]) - ref["p_c"])
        _expect(gap <= slack, f"{path}: row {points[i]} p_c {row['p_c']} vs reference "
                              f"{ref['p_c']!r}: gap {gap:.3g} > {slack:.3g}")
        gap = abs(float(row["degenerate_mass"]) - ref["degenerate_mass"])
        _expect(gap <= ROUND_TOL, f"{path}: row {points[i]} degenerate_mass "
                                  f"{row['degenerate_mass']} vs reference {ref['degenerate_mass']!r}")


def _check_kernel_line(stdout, rows):
    _expect(re.search(rf"wrote {rows} rows to .* \[\w+ kernel\]", stdout) is not None,
            f"coverage stdout does not report {rows} rows and the kernel: {stdout!r}")


def _coverage_ops(seed, work, name, axes, strata, threads):
    grid = os.path.join(work, f"{name}.grid")
    _write_grid(grid, axes)
    size = math.prod(len(a) for a in axes)
    ops = []
    for stratum in strata:
        out = os.path.join(work, f"{name}-s{stratum}.csv")

        def check(stdout, out=out, stratum=stratum):
            _check_kernel_line(stdout, size)
            check_coverage(out, axes, stratum, _rng(seed, 100 + stratum))

        ops.append(Operation(
            ["coverage", "--grid", grid, "--stratum", str(stratum),
             "--threads", str(threads), "--out", out],
            [out], check))
    return ops


def coverage_paper(seed, work):
    """Slice of the paper's study grid, both strata, two worker processes.

    Sizes {500, 1000, 2000} in both groups, the paper's five exposed
    marginals and three exposed correlations, one non-exposed marginal
    and correlation.  Each value moves by a seeded jitter of at most 0.02,
    so every seed gives other scenarios at nearly the same amount of work.
    """
    rng = _rng(seed, 1)
    axes = ((500, 1000, 2000), (500, 1000, 2000),
            _jitter(rng, (0.1, 0.3, 0.5, 0.7, 0.9), 0.02, 4), _jitter(rng, (0.3,), 0.02, 4),
            _jitter(rng, (0.1, 0.5, 0.9), 0.02, 4), _jitter(rng, (0.5,), 0.02, 4))
    return _coverage_ops(seed, work, "paper", axes, (1, 0), threads=2)


def coverage_rare(seed, work):
    """Large cohorts with rare outcomes, stratum 0, one process.

    n in {2e4, 1e5}, marginals near {0.01, 0.05} (seeded, within 10%),
    correlations near {0.5, 0.9} (within 0.02): 64 scenarios over only 8
    distinct margins per group.
    """
    rng = _rng(seed, 2)

    def rare():
        return tuple(round(v * rng.uniform(0.9, 1.1), 6) for v in (0.01, 0.05))

    axes = ((20000, 100000), (20000, 100000), rare(), rare(),
            _jitter(rng, (0.5, 0.9), 0.02, 4), _jitter(rng, (0.5, 0.9), 0.02, 4))
    return _coverage_ops(seed, work, "rare", axes, (0,), threads=1)


# ------------------------------------------------------------------ oracle

ORACLE_N = 500
ORACLE_REPS = 20000
ORACLE_STRATUM = 1


def check_oracle(path, scenario, model, seed, expected):
    """Check the oracle row against the reference coverage within 4 SE."""
    rows = _read_csv(path)
    _expect(len(rows) == 1, f"{path}: {len(rows)} rows, expected 1")
    row = rows[0]
    n, pi_e, pi_ne, rho_e, rho_ne = scenario
    got = (int(row["n_E"]), int(row["n_nonE"]), float(row["pi_E"]), float(row["pi_nonE"]),
           float(row["rho_E"]), float(row["rho_nonE"]), int(row["stratum"]),
           row["margin_model"], int(row["reps"]), int(row["seed"]))
    want = (n, n, pi_e, pi_ne, rho_e, rho_ne, ORACLE_STRATUM, model, ORACLE_REPS, seed)
    _expect(got == want, f"{path}: scenario columns {got} != {want}")
    est, se, norm = float(row["estimate"]), float(row["std_error"]), float(row["estimate_normalized"])
    _expect(0.0 <= est <= norm <= 1.0, f"{path}: estimate {est!r} / normalized {norm!r} out of order")
    _expect(math.isclose(se, math.sqrt(est * (1.0 - est) / ORACLE_REPS), rel_tol=PRINT_REL),
            f"{path}: std_error {se!r} is not the binomial SE of {est!r}")
    ref, ref_var = expected()
    sigma = math.sqrt(ref_var + est * (1.0 - est) / ORACLE_REPS)
    _expect(abs(est - ref) <= ORACLE_SIGMAS * sigma,
            f"{path}: {model} estimate {est!r} vs reference {ref!r}: "
            f"{abs(est - ref) / sigma:.2f} SE apart")


def oracle(seed, work):
    """One scenario (n = 500 per group, 20,000 replications) in each margin model.

    Marginals and correlations are drawn from the seed; the oracle's own
    --seed is the benchmark seed.
    """
    rng = _rng(seed, 3)
    scenario = (ORACLE_N, round(rng.uniform(0.25, 0.35), 4), round(rng.uniform(0.10, 0.20), 4),
                round(rng.uniform(0.3, 0.6), 4), round(rng.uniform(0.3, 0.6), 4))
    n, pi_e, pi_ne, rho_e, rho_ne = scenario

    def exact():
        # The fixed-margin estimate is binomial around the exact coverage.
        p_e = reference.stratum_risk(pi_e, rho_e, ORACLE_STRATUM)
        p_ne = reference.stratum_risk(pi_ne, rho_ne, ORACLE_STRATUM)
        p_c = reference.exact_coverage(n, n, p_e, p_ne, p_e / p_ne, LEVEL)["p_c"]
        return p_c, 0.0

    def simulated():
        est, se = reference.simulate_cohort_coverage(
            n, n, pi_e, pi_ne, rho_e, rho_ne, ORACLE_STRATUM, LEVEL, ORACLE_REPS, seed)
        return est, se * se

    ops = []
    for model, expected in (("fixed_margin", exact), ("cohort", simulated)):
        out = os.path.join(work, f"oracle-{model}.csv")
        ops.append(Operation(
            ["oracle", "--n-e", str(n), "--n-ne", str(n), "--pi-e", str(pi_e),
             "--pi-ne", str(pi_ne), "--rho-e", str(rho_e), "--rho-ne", str(rho_ne),
             "--stratum", str(ORACLE_STRATUM), "--reps", str(ORACLE_REPS), "--seed", str(seed),
             "--margin-model", model, "--threads", "1", "--out", out],
            [out],
            lambda stdout, out=out, model=model, expected=expected:
                check_oracle(out, scenario, model, seed, expected)))
    return ops


# ----------------------------------------------------------------- analyze

COHORT_SUBJECTS = 100_000
COHORT_VISITS = 4
MISSING_SHARE = 0.03
EXPOSED, UNEXPOSED = "exposed", "control"


def make_cohort(seed, subjects=COHORT_SUBJECTS, visits=COHORT_VISITS):
    """Seeded cohort: exposure, 0/1 outcomes as a Markov chain, missing cells.

    Returns (exposed bool array, outcomes int8 array, missing visit per
    subject or -1).
    """
    rng = _rng(seed, 4)
    exposed = rng.random(subjects) < 0.4
    pi = np.where(exposed, rng.uniform(0.2, 0.4), rng.uniform(0.1, 0.3))
    rho = np.where(exposed, rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6))
    y = np.empty((subjects, visits), dtype=np.int8)
    y[:, 0] = rng.random(subjects) < pi
    for v in range(1, visits):
        p = np.where(y[:, v - 1] == 1, pi + rho * (1 - pi), (1 - rho) * pi)
        y[:, v] = rng.random(subjects) < p
    missing = np.where(rng.random(subjects) < MISSING_SHARE, rng.integers(0, visits, subjects), -1)
    return exposed, y, missing


def write_cohort(exposed, y, missing, wide_path, long_path, seed):
    """Write the cohort wide and long; a missing outcome in long format is
    an empty y for some subjects and an absent row for the others."""
    labels = np.where(exposed, EXPOSED, UNEXPOSED)
    ids = [f"S{i:06d}" for i in range(len(exposed))]
    cells = y.astype(str).astype(object)
    cells[missing >= 0, missing[missing >= 0]] = ""
    visits = y.shape[1]
    with open(wide_path, "w", encoding="utf-8") as handle:
        handle.write("id,exposure," + ",".join(f"y{v}" for v in range(1, visits + 1)) + "\n")
        handle.writelines(f"{i},{lab},{','.join(row)}\n" for i, lab, row in zip(ids, labels, cells))
    omit = _rng(seed, 5).random(len(exposed)) < 0.5
    with open(long_path, "w", encoding="utf-8") as handle:
        handle.write("id,exposure,visit,y\n")
        for v in range(visits):  # visit-major, as waves are appended
            keep = (missing != v) | ~omit
            handle.writelines(f"{ids[s]},{labels[s]},{v + 1},{cells[s, v]}\n"
                              for s in np.flatnonzero(keep))


def _close(got, want):
    if want is None:
        return got == ""
    return got != "" and math.isclose(float(got), want, rel_tol=ANALYZE_REL, abs_tol=1e-300)


def check_analysis(out_dir, exposed, y, missing):
    """Check risks.csv, measures.csv and the report's counts against the arrays."""
    complete = missing < 0
    risks, measures = reference.cohort_analysis(exposed[complete], y[complete], LEVEL)
    rows = _read_csv(os.path.join(out_dir, "risks.csv"))
    _expect(len(rows) == len(risks), f"{out_dir}/risks.csv: {len(rows)} rows, expected {len(risks)}")
    for row in rows:
        key = (int(row["visit"]), row["group"])
        _expect(key in risks and _close(row["risk"], risks[key]),
                f"{out_dir}/risks.csv: {key} risk {row['risk']} != reference {risks.get(key)!r}")
    rows = _read_csv(os.path.join(out_dir, "measures.csv"))
    _expect(len(rows) == len(measures),
            f"{out_dir}/measures.csv: {len(rows)} rows, expected {len(measures)}")
    for row in rows:
        key = (int(row["j"]), int(row["k"]), row["measure"])
        _expect(key in measures, f"{out_dir}/measures.csv: unexpected row {key}")
        est, rho_e, rho_ne = measures[key]
        fields = ("point", "ci_lower", "ci_upper")
        for name, want in zip(fields, est if est is not None else (None,) * 3):
            _expect(_close(row[name], want),
                    f"{out_dir}/measures.csv: {key} {name} {row[name]} != reference {want!r}")
        for name, want in (("rho_E", rho_e), ("rho_nonE", rho_ne)):
            _expect(_close(row[name], want),
                    f"{out_dir}/measures.csv: {key} {name} {row[name]} != reference {want!r}")
    with open(os.path.join(out_dir, "report.txt"), encoding="utf-8") as handle:
        report = handle.read()
    counts = re.search(r"exposed \[.*?\]: (\d+), non-exposed \[.*?\]: (\d+)", report)
    dropped = re.search(r"subjects dropped \(incomplete outcomes\): (\d+)", report)
    want = (int(np.count_nonzero(exposed & complete)), int(np.count_nonzero(~exposed & complete)),
            int(np.count_nonzero(~complete)))
    got = counts and dropped and (int(counts[1]), int(counts[2]), int(dropped[1]))
    _expect(got == want, f"{out_dir}/report.txt: (exposed, non-exposed, dropped) {got} != {want}")


REPORT_FILES = ("report.txt", "risks.csv", "measures.csv")


def analyze(seed, work):
    """One seeded cohort of 100,000 subjects x 4 visits, 3% with a missing
    outcome, analyzed from its wide and from its long file."""
    exposed, y, missing = make_cohort(seed)
    wide, long_ = os.path.join(work, "cohort-wide.csv"), os.path.join(work, "cohort-long.csv")
    write_cohort(exposed, y, missing, wide, long_, seed)
    out_wide, out_long = os.path.join(work, "analyze-wide"), os.path.join(work, "analyze-long")

    def check_long(stdout):
        for name in REPORT_FILES:
            _expect(_read_bytes(os.path.join(out_wide, name)) == _read_bytes(os.path.join(out_long, name)),
                    f"{name}: wide and long analyses differ")

    return [
        Operation(["analyze", "--input", wide, "--exposed-value", EXPOSED, "--out", out_wide],
                  [os.path.join(out_wide, n) for n in REPORT_FILES],
                  lambda stdout: check_analysis(out_wide, exposed, y, missing)),
        Operation(["analyze", "--input", long_, "--long", "--exposed-value", EXPOSED, "--out", out_long],
                  [os.path.join(out_long, n) for n in REPORT_FILES], check_long),
    ]


def rare_oracle_analyze(seed, work):
    """coverage_rare()'s grid, the oracle's two commands and the two
    analyses, in one round.

    Per-margin set-up, mc and ingest share no code with each other, and
    none of them is a large part of coverage-paper, so each layer still
    has one workload that uses it and one where it is absent or small.  Two workloads
    instead of four leave time for runs long enough to be steady (see
    README).
    """
    return coverage_rare(seed, work) + oracle(seed, work) + analyze(seed, work)


WORKLOADS = {
    "coverage-paper": coverage_paper,
    "rare-oracle-analyze": rare_oracle_analyze,
}
