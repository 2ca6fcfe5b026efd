"""Starts the benchmark's CLI processes and measures each on its own.

Run by ``harness.Launcher`` as a separate interpreter that imports only the
standard library.  It reads one JSON request a line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
runs that command in its own working directory, and answers with one JSON
line ``{"seconds": wall time, "maxrss_kb": peak RSS, "status": wait status}``.

Peak RSS comes from ``wait4`` on that one child.  Linux starts a child's
peak at the peak of the memory image its ``exec`` replaced, which is this
small process's, not that of the benchmark that imported numpy and built
the inputs; ``RUSAGE_CHILDREN`` would report the largest child reaped so far.
A command still running at its timeout is killed.
"""

import json
import os
import signal
import sys
import time


def run(argv, stdout, stderr, timeout):
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, write, 0o644),
    ])
    running = [True]

    def kill(*_):
        if running[0]:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        running[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"seconds": time.perf_counter() - started, "maxrss_kb": usage.ru_maxrss,
            "status": status}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
