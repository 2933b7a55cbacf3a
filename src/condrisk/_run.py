"""The result-table format and the worker-pool policy all commands share.

A command decides its worker count once, with worker_count, and passes
that count to map_jobs, which starts exactly that many workers.

Imports no NumPy and nothing else heavy: compare, which needs no NumPy,
loads none, and the parser takes MARGIN_MODELS from here without slowing
`--version`.
"""

import os
from functools import partial

from ._version import __version__

# How mc's oracle samples a stratum table: fixed_margin fixes the stratum
# sizes, cohort draws them with the whole cohort.
MARGIN_MODELS = ("fixed_margin", "cohort")


def write_table(out, header: str, rows) -> None:
    """Write `# condrisk <version>`, the header and the comma-joined rows
    (sequences of formatted fields) to a text handle or to a path, opened
    as UTF-8 without newline translation so the bytes match everywhere.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            write_table(handle, header, rows)
        return
    out.write(f"# condrisk {__version__}\n{header}\n")
    for row in rows:
        out.write(",".join(row) + "\n")


def _process_pool(max_workers: int):
    from concurrent.futures import ProcessPoolExecutor  # only when a pool starts

    return ProcessPoolExecutor(max_workers=max_workers)


def usable_cpus():
    """The number of CPUs this process may run on: its affinity set where
    the platform has one (a restricted cpuset holds fewer than the host),
    else os.cpu_count(), which may be None."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def worker_count(threads: int, jobs: int, work: int, quota: int) -> int:
    """Worker processes for jobs independent jobs of work units in all: min(threads, jobs,
    1 + work // quota, usable CPUs), at least 1.  The CPUs are counted only when the rest allow a pool."""
    workers = min(threads, jobs, 1 + work // quota)
    return min(workers, usable_cpus() or 1) if workers > 1 else 1


def _run_all(fn, jobs: list) -> list:
    return [fn(job) for job in jobs]


def map_jobs(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs] over workers processes, as the caller decided (worker_count).

    With one worker, no pool starts.  A pool gets one task per worker,
    the jobs dealt round-robin, and pickles fn and each task as one
    object: an object many jobs share, such as a grid's margin, is sent
    once per worker, not once per job.  fn must be a module-level function.
    """
    if workers == 1:
        return _run_all(fn, jobs)
    results = [None] * len(jobs)
    with _process_pool(workers) as pool:
        dealt = pool.map(partial(_run_all, fn), [jobs[i::workers] for i in range(workers)])
        for i, part in enumerate(dealt):
            results[i::workers] = part
    return results
