"""Run one command; report its wall time, its own rusage and the CPU speed.

    python3 -S perfbench/launch.py RESULT TIMEOUT_S CMD [ARG...]

Writes `exit wall_s cpu_s maxrss_kib probe_s samples` to RESULT; exit is -1
when the command was killed after TIMEOUT_S seconds. Wall time runs from
spawn to reap.

A process's ru_maxrss also covers the memory of the process that forked it,
up to its exec. The benchmark's own process holds the corpus it generated,
so it starts this small launcher, which spawns the command from a fresh,
small address space and reads the command's rusage with os.wait4 (the
RUSAGE_CHILDREN total would mix in every other child).

probe_s measures how fast the CPU ran while the command did. Other tenants
of a shared host can slow a CPU by half for seconds at a time, which moves
a run's times far more than any change worth detecting. So every 20 ms the
launcher, pinned to the command's CPU, times a short fixed loop of dict and
string work. probe_s is the mean of those times with the slowest tenth
dropped (a loop the command preempted); the benchmark divides the command's
times by probe_s / CAL_REF_S. The loop costs the command about 1% of its
CPU, the same in every run.
"""

import os
import signal
import sys
import time

_KEYS = [f"w{i}x" for i in range(64)]


def probe() -> float:
    start = time.perf_counter()
    counts = {}
    for i in range(300):
        key = _KEYS[i & 63] + str(i)
        counts[key] = counts.get(key, 0) + 1
    " ".join(sorted(counts)).split()
    return time.perf_counter() - start


def main() -> None:
    result, timeout, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
    samples = [probe() for _ in range(3)][1:]  # the first call warms up
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, setsigmask=())
    code = usage = None
    while code is None:
        if signal.sigtimedwait({signal.SIGCHLD}, 0.02) is not None:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                code = os.waitstatus_to_exitcode(status)
        elif time.perf_counter() - start > timeout:
            os.kill(pid, signal.SIGKILL)
            _, _, usage = os.wait4(pid, 0)
            code = -1
        else:
            samples.append(probe())
    wall = time.perf_counter() - start
    kept = sorted(samples)[: max(1, len(samples) * 9 // 10)]
    probe_s = sum(kept) / len(kept)
    with open(result, "w") as fh:
        fh.write(
            f"{code} {wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} "
            f"{probe_s!r} {len(samples)}\n"
        )


if __name__ == "__main__":
    main()
