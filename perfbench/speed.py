"""Machine-speed probe: expresses CPU times at one fixed reference speed.

On a shared host the same code runs at different speeds from second to
second, and each vCPU at its own speed: other tenants load the cores and
caches, and the host may take a core away.  CPU time already leaves out the
time a process waits for a core.  For the rest, a thread pinned to each CPU
the program runs on times a small fixed kernel (a Python loop and numpy
calls on a 4096-element array, about 2 ms) every PERIOD_S for as long as
the program runs, in that thread's CPU time.  The program's CPU time is
scaled by ``REFERENCE_PROBE_S`` over the harmonic mean of the kernel times.  The kernel never changes, so a change to mmwcov moves the
scaled time, while a change in machine speed moves both and cancels.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
# The kernel's median time beside a running scenario on a 2-vCPU Xeon VM;
# scaled times are CPU seconds on a machine that runs the kernel this fast.
REFERENCE_PROBE_S = 0.0017

_SMALL = np.random.default_rng(0).standard_normal(4096)


def _kernel() -> float:
    total = 0
    for i in range(8000):
        total += i * i % 7
    for _ in range(8):
        weights = np.cos(_SMALL) * np.exp(-_SMALL * _SMALL)
        total += float(np.sort(_SMALL)[np.argsort(weights)].sum())
    return total


class SpeedProbe:
    """Times the kernel on each of ``cpus`` while the ``with`` block runs."""

    def __init__(self, cpus):
        self.samples = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(cpu,), daemon=True)
                         for cpu in self.samples]

    def __enter__(self) -> "SpeedProbe":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})   # this thread only
        while True:
            start = time.thread_time()
            _kernel()
            self.samples[cpu].append(time.thread_time() - start)
            if self._stop.wait(PERIOD_S):
                return

    def seconds(self) -> float:
        """Harmonic mean of the kernel times on all CPUs.

        A kernel time is the inverse of the speed at that moment, and the
        program's work is its speed integrated over its CPU time, so the
        inverses are what average to the program's mean speed."""
        return statistics.harmonic_mean([t for s in self.samples.values() for t in s])


def scale(cpu_seconds: float, probe_s: float) -> float:
    """``cpu_seconds`` used while the kernel took ``probe_s``, at the reference speed."""
    return cpu_seconds * REFERENCE_PROBE_S / probe_s
