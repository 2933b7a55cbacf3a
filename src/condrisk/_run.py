"""The result-table format and the worker-pool policy all commands share.

Imports no NumPy, so compare, which needs none, still loads none.
"""

import os

from ._version import __version__


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


def worker_count(threads: int, jobs: int) -> int:
    """Worker processes map_jobs uses: min(threads, jobs, CPUs), at least 1."""
    return max(1, min(threads, jobs, os.cpu_count() or 1))


def map_jobs(fn, jobs: list, threads: int) -> list:
    """[fn(job) for job in jobs] over worker_count(threads, len(jobs)) processes.

    With one worker, no pool starts.  A pool pickles fn and the jobs, so
    fn must be a module-level function.
    """
    workers = worker_count(threads, len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    chunk = max(1, len(jobs) // (workers * 8))
    with _process_pool(workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunk))
