"""Calibration of measured times against the host's changing speed.

On a shared host the speed available to this process changes by up to 2x,
in phases that last tens of seconds, so a whole run can fall in a slow
phase.  Two fixed probes, timed right before every op and once after the
last, track that speed: an interpreter probe (list and dict work in pure
Python) and a memory probe (fill and sum a fresh 4 MiB array, page faults
included).  An op's calibrated time is its measured time divided by the
geometric mean of the two probes' slowdowns, each taken as the mean of the
probes that bracket the op over the probe's reference time.  The reference
times are the probes' full-speed times on the 2-core x86 virtual machine on
which the benchmark was defined.

Why both, and why the geometric mean: over 6-12 passes on that machine,
pass times of ``exact`` (numpy subset DP) followed the memory probe
(log-log slope 0.73, interpreter probe 0.09), and those of ``mc-lines``
(pure Python) the interpreter probe (0.65).  Dividing by the geometric
mean brought the pass-to-pass coefficient of variation to 3-4% on all
three workloads, from 11% (``exact``) and 9% (``mc-lines``) uncalibrated.
"""

from __future__ import annotations

from time import perf_counter_ns

INTERPRETER_REF_NS = 250_000
MEMORY_REF_NS = 400_000
_REPS = 3


def _interpreter_probe() -> int:
    a = list(range(64))
    d: dict[int, int] = {}
    s = 0
    for i in range(1500):
        j = (i * 7) & 63
        a[j], a[63 - j] = a[63 - j], a[j]
        d[j] = d.get(j, 0) + 1
        s += a[j]
    return s


def _memory_probe() -> int:
    import numpy as np  # imported here so that set-up timing includes numpy

    a = np.empty(1 << 19, dtype=np.int64)
    a.fill(1)
    return int(a.sum())


def _best_ns(fn) -> int:
    best = None
    for _ in range(_REPS):
        t0 = perf_counter_ns()
        fn()
        dt = perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def probe_ns() -> tuple[int, int]:
    """Current (interpreter, memory) probe times, each the best of a few."""
    return _best_ns(_interpreter_probe), _best_ns(_memory_probe)


def calibrated(ns: int, before: tuple[int, int], after: tuple[int, int]) -> float:
    """``ns`` scaled to the reference speed, in nanoseconds."""
    slow_cpu = (before[0] + after[0]) / (2 * INTERPRETER_REF_NS)
    slow_mem = (before[1] + after[1]) / (2 * MEMORY_REF_NS)
    return ns / (slow_cpu * slow_mem) ** 0.5
