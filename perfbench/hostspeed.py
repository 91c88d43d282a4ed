"""Host speed, measured next to every timed operation.

The benchmark host is shared. On a 2-vCPU AMD EPYC virtual machine the
same pure-Python work ran up to 1.8x slower in some stretches than in
others, for seconds to minutes at a time, and the two CPUs slowed
independently of each other. So times are reported as if a fixed
reference computation took REFERENCE_S:

    normalized = raw * REFERENCE_S / reference

where `reference` is that computation's time next to the operation:
bracketing it in the same process (reference_s), or, for operations that
run in other processes, sampled by this module run as a script alongside
them (sampled_reference). A slower program still reads slower; a slower
host does not.

    python3 hostspeed.py   # "time cpu seconds" lines until stdin closes
"""

from __future__ import annotations

import gc
import os
import select
import statistics
import sys
import time
from collections.abc import Collection

REFERENCE_S = 0.001
REPEATS = 3
SAMPLE_INTERVAL_S = 0.1


def _unit() -> int:
    # bitmask list filtering, bit scans and dict counts: the shapes of the
    # package's inner loops, in code the package does not share
    masks = [(i * 2654435761) & 0xFFFFFFFFFF for i in range(1, 500)]
    counts: dict[int, int] = {}
    for v in range(32):
        kept = [m for m in masks if not (m >> v) & 1]
        for m in kept[:50]:
            low = (m & -m).bit_length()
            counts[low] = counts.get(low, 0) + 1
    return len(counts)


def reference_s(cpus: Collection[int]) -> float:
    """Harmonic mean over `cpus` of the median time of REPEATS runs of the
    reference computation pinned to that CPU (CPU speeds add, so their
    times combine harmonically). The caller's CPU affinity and garbage
    collector state are restored."""
    saved = os.sched_getaffinity(0)
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the caller's heap, not the host
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                _unit()
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, saved)
        if collecting:
            gc.enable()
    return statistics.harmonic_mean(per_cpu)


def sample_until_eof() -> None:
    """Print "end_time cpu used_seconds" for one reference computation
    every SAMPLE_INTERVAL_S, on each allowed CPU in turn, until stdin
    closes. Process CPU time leaves out time spent waiting for a CPU that
    the measured processes hold; end_time is perf_counter, which every
    process on the host shares."""
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while True:
        cpu = cpus[turn % len(cpus)]
        turn += 1
        os.sched_setaffinity(0, {cpu})
        start = time.process_time()
        _unit()
        used = time.process_time() - start
        print(f"{time.perf_counter()} {cpu} {used}", flush=True)
        if select.select([sys.stdin], [], [], SAMPLE_INTERVAL_S)[0]:
            return


def sampled_reference(samples: list[tuple[float, int, float]], start: float, end: float) -> float:
    """Harmonic mean over CPUs of the median sample taken within
    [start, end]; a CPU with no sample inside contributes its sample
    nearest to the interval."""
    per_cpu = []
    for cpu in sorted({s[1] for s in samples}):
        mine = [s for s in samples if s[1] == cpu]
        inside = [used for t, _, used in mine if start <= t <= end]
        if not inside:
            nearest = min(mine, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))
            inside = [nearest[2]]
        per_cpu.append(statistics.median(inside))
    return statistics.harmonic_mean(per_cpu)


if __name__ == "__main__":
    sample_until_eof()
