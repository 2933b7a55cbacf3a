"""Starts and measures the condrisk commands of bench/run.py.

bench/run.py holds NumPy, SciPy and the workload's inputs in memory.  A
child forked from it starts with that resident set, and the kernel folds
the pre-exec resident set into the peak RSS wait4 reports.  Commands are
therefore forked from this small process instead, which imports only the
standard library.

Protocol: one JSON request per stdin line, [argv, stdout path, stderr
path, timeout s]; one JSON answer per stdout line, [exit code, wall s,
user + system CPU s, peak RSS kB].  CPU and peak RSS include the pool
workers a command waits for.  A command still running at its timeout is
killed with its whole process group.
"""

import json
import os
import signal
import sys
import time


def main():
    for line in sys.stdin:
        argv, out_path, err_path, timeout = json.loads(line)
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.setsid()
                os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
                for fd, path in ((1, out_path), (2, err_path)):
                    os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
                os.execv(argv[0], argv)
            finally:
                os._exit(127)

        def kill(signum, frame, pid=pid):
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        signal.signal(signal.SIGALRM, kill)
        signal.alarm(timeout)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        answer = [os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss]
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
