"""Benchmark of the condrisk CLI on two workloads (see bench/README.md).

    python3 bench/run.py --workload coverage-paper --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout with no build step: condrisk is
imported from src/ (PYTHONPATH), as a default install without a C
compiler runs it.  --trace 0 repeats the workload's commands as separate
processes for --seconds and reports the end-to-end metrics; --trace 1
runs them in this process, untraced and then with the program's layer
functions wrapped, and reports the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import importlib.machinery
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import tomllib

from workloads import WORKLOADS, Verifier

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "condrisk")

SETUP_SAMPLES = 9     # `condrisk --version` starts per run, at least
SETUP_EVERY = 2.0     # seconds between two of them
MIN_ROUNDS = 3        # rounds of the workload's commands per run, at least
COMMAND_TIMEOUT = 150  # seconds before a hung command's process group is killed


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def _guard_checkout():
    """Refuse to run without the source tree, or with a built extension in it."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise BenchError(f"no condrisk source at {PACKAGE}: run from the root of a source checkout")
    built = sorted(
        name for name in os.listdir(PACKAGE)
        if any(name.endswith(suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    )
    if built:
        raise BenchError(
            f"compiled extension in {PACKAGE}: {', '.join(built)}. The benchmark measures the "
            "configuration without a build step; remove the built file(s) and run again."
        )


def _launcher():
    """Python source of the `condrisk` console script pip would generate."""
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["condrisk"]
    module, func = target.split(":")
    return f"import sys\nfrom {module} import {func}\nsys.exit({func}())"


class Cli:
    """Runs `condrisk` commands through bench/launcher.py and measures each one."""

    def __init__(self, work):
        self.work = work
        self.launch = _launcher()
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(BENCH, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))

    def close(self):
        """End the launcher and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv):
        """Run one command; returns (exit code, wall s, cpu s, peak RSS MB, stdout)."""
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        request = [[sys.executable, "-c", self.launch, *argv], out_path, err_path, COMMAND_TIMEOUT]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchError("the command launcher ended unexpectedly")
        code, wall, cpu, rss_kb = json.loads(answer)
        with open(out_path, encoding="utf-8") as handle:
            stdout = handle.read()
        if code != 0:
            with open(err_path, encoding="utf-8") as handle:
                sys.stderr.write(f"condrisk {' '.join(argv)}: exit {code}\n{handle.read()}")
        return code, wall, cpu, rss_kb / 1024.0, stdout


def environment_facts(cli):
    """Host and program facts recorded with every run."""
    import numpy
    sha = None
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
            text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        top, _, head = git.stdout.partition("\n")
        if git.returncode == 0 and os.path.samefile(top, ROOT):
            sha = head.strip()
    except (OSError, ValueError):
        pass
    grid = os.path.join(cli.work, "facts.grid")
    with open(grid, "w", encoding="utf-8") as handle:
        handle.write("n_E = 5\nn_nonE = 5\npi_E = 0.3\npi_nonE = 0.3\nrho_E = 0.5\nrho_nonE = 0.5\n")
    code, _, _, _, stdout = cli.run(["coverage", "--grid", grid, "--out", grid + ".csv"])
    kernel = re.search(r"\[(\w+) kernel\]", stdout) if code == 0 else None
    if kernel is None:
        raise BenchError(f"`condrisk coverage` did not run or named no kernel: {stdout!r}")
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel": kernel[1],
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, cli, seconds):
    """Repeat whole rounds of the workload's commands for `seconds`.

    A round is not started if a round of median length would end past
    `seconds`, unless fewer than MIN_ROUNDS have run.  Set-up samples
    (`condrisk --version`) are spread over the run, one every SETUP_EVERY
    seconds: a shared host's CPUs change speed in phases of a few
    seconds, and samples taken together would all fall in one.
    Each metric is the median over the run's rounds (or set-up samples).
    """
    setup = []
    verify = Verifier()
    rounds, lengths, commands, attempted, failed = [], [], [], 0, 0
    start = last_setup = time.perf_counter()
    setup.append(cli.run(["--version"])[1])
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - start + statistics.median(lengths) <= seconds):
        round_start = time.perf_counter()
        wall = cpu = rss = 0.0
        for index, op in enumerate(ops):
            if time.perf_counter() - last_setup >= SETUP_EVERY:
                last_setup = time.perf_counter()
                setup.append(cli.run(["--version"])[1])
            code, w, c, r, stdout = cli.run(op.argv)
            attempted += 1
            if code != 0:
                failed += 1
                continue
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            commands.append((index, w, c))
            verify(index, op, stdout)
        rounds.append((wall, cpu, rss))
        lengths.append(time.perf_counter() - round_start)
    while len(setup) < SETUP_SAMPLES:
        setup.append(cli.run(["--version"])[1])
    metrics = {
        "wall_s": _metric(statistics.median(r[0] for r in rounds), "s"),
        "cpu_s": _metric(statistics.median(r[1] for r in rounds), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(statistics.median(r[2] for r in rounds), "MB"),
    }
    samples = {"rounds": rounds, "commands": commands, "setup_s": setup}
    return verify.errors, attempted, failed, metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        _guard_checkout()
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, WORKLOADS[name], args)
        except BenchError as exc:
            sys.stderr.write(f"bench: {name}: {exc}\n")
            return 2
        print(json.dumps(result), flush=True)
    return 0


def run_workload(name, make, args):
    work = os.path.join(BENCH, ".work", f"{name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    cli = Cli(work)
    try:
        facts = environment_facts(cli)
        ops = make(args.seed, work)
        if args.trace:
            from tracing import traced_run
            errors, attempted, failed, metrics, samples = traced_run(ops)
        else:
            errors, attempted, failed, metrics, samples = end_to_end(ops, cli, args.seconds)
    finally:
        cli.close()
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        sys.stderr.write(f"bench: {name}: check failed: {error}\n")
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "facts": facts, "errors": errors, "samples": samples}
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**record, "attempted": attempted, "failed": failed, "metrics": metrics},
                  handle, indent=1)
    print(f"# {name} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"kernel {facts['kernel']}, git {facts['git_sha']}, nproc {facts['nproc']}, "
          f"python {facts['python']}, numpy {facts['numpy']}")
    for key, metric in metrics.items():
        print(f"#   {key:<26} {metric['value']!s:>22} {metric['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
