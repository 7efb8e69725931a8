"""Runs one command on one CPU and prints its cost and the CPU's speed meanwhile.

Run it as ``python3 -S launch.py TIMEOUT_S STDOUT_FILE STDERR_FILE COMMAND...``.
It prints one line: wall seconds, CPU seconds (user + system), peak RSS in
KiB, exit code, and the mean thread CPU seconds of one calibration chunk.

Peak RSS: a child's ru_maxrss starts at the resident size of the process
that spawned it, so the spawner must be smaller than the program
measured. This one imports only os, signal, sys, threading and time, and
``-S`` skips site-packages.

CPU speed: the host is shared, and the speed of one CPU swings by up to
half within seconds as other tenants load it. While the child runs, a
thread pinned to the child's CPU at nice 19 runs a fixed pure-Python
kernel in chunks. It gets about 1.5% of the CPU, in slices spread over
the child's run, so its CPU time per chunk measures how fast that CPU
was while the child ran. The kernel allocates small objects and
dispatches operators, as msslab's hot paths do.
"""

import os
import signal
import sys
import threading
import time


class _Cell:
    __slots__ = ("mask",)

    def __init__(self, mask):
        self.mask = mask

    def __or__(self, other):
        return _Cell(self.mask | other.mask)

    def __le__(self, other):
        return self.mask & ~other.mask == 0


CELLS = [_Cell(m) for m in range(16)]


def chunk() -> int:
    n = 0
    for a in CELLS:
        for b in CELLS:
            if (a | b) <= (b | a):
                n += 1
    return n


def calibrate(done: threading.Event, totals: list) -> None:
    os.nice(19)  # per thread on Linux
    while True:  # at least one chunk, however short the child
        start = time.thread_time()
        chunk()
        totals[0] += 1
        totals[1] += time.thread_time() - start
        if done.is_set():
            return


def main(timeout_s: str, output: str, errors: str, command: list) -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.setswitchinterval(0.0002)  # hand the GIL back fast when the child exits
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, output, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, errors, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    done = threading.Event()
    totals = [0, 0.0]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(timeout_s))
    calibration = threading.Thread(target=calibrate, args=(done, totals))
    calibration.start()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    done.set()
    calibration.join()
    print(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
          os.waitstatus_to_exitcode(status), totals[1] / totals[0])


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:])
