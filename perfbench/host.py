"""Host-speed probe and CPU choice, shared by run.py and worker.py."""

from __future__ import annotations

import os
import time

CALIBRATION_STEPS = 200_000


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop: a host-speed diagnostic."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x = (x * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1000.0


def pin_fastest_cpu(cpus) -> float:
    """Pin this process to the CPU of `cpus` where the loop runs fastest.

    On a shared 2-vCPU VM, a co-tenant often slows one vCPU by a third
    while the other runs at full speed, and which one flips within
    seconds.  A child process inherits the pinning.  Returns the
    calibration time on the chosen CPU.
    """
    if len(cpus) < 2:
        return calibrate()
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((calibrate(), cpu))
    best_ms, best_cpu = min(timings)
    os.sched_setaffinity(0, {best_cpu})
    return best_ms
