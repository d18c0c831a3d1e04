"""Host-speed normalization of the benchmark's end-to-end timings.

On a shared host the CPU time of identical work swings with what the
other tenants run.  On the 2-core VM the seed numbers were taken on, one
``par-corpus`` pass varied by 16-20% (coefficient of variation) from one
second to the next, and whole runs a minute apart by 20%.  A fixed
*reference slice* runs between requests: pure-Python dict and frozenset
work shaped like the pipeline's, with the cyclic GC paused so that
nothing the program sets (thresholds, freezes) changes its cost.  Every
``WINDOW`` consecutive requests are scaled by
``NOMINAL_SLICE_S / (mean slice time among them)``, so a timing reads
what it would on a host where the slice takes ``NOMINAL_SLICE_S``.  The
scaled pass time varied by 2-3% where the raw one varied by 16-20%.

A change to the program cannot move the slice: it is the benchmark's
own code, runs with the GC paused, and touches no ``repro`` state.

Run as a script, this file is the set-up probe: a fresh interpreter that
runs reference slices, then ``import repro`` plus a first request on a
paper figure, then slices again, and prints the two slice times.
"""

from __future__ import annotations

import gc
import sys
import time

#: Thread CPU time of one reference slice on an uncontended core of the
#: VM the seed numbers were taken on (the lower quartile of 2000 slices).
NOMINAL_SLICE_S = 0.00057

#: Consecutive requests that share one speed estimate.
WINDOW = 16

#: Slices the set-up probe runs before and after its timed work.
SETUP_SLICES = 40


def reference_slice() -> float:
    """Run one reference slice; its thread CPU time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table = {}
        for i in range(600):
            table[i] = frozenset(range(i % 24))
        total = 0
        for key, members in table.items():
            total += len(members | {key})
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def reference_time(slices: int) -> float:
    return sum(reference_slice() for _ in range(slices))


class Normalizer:
    """Collects ``(kind, seconds)`` request times, runs one reference
    slice after each, and hands them on scaled, a window at a time."""

    def __init__(self, latencies):
        self.latencies = latencies
        self.pending = []
        self.slice_total = 0.0

    def add(self, kind: str, seconds: float) -> None:
        self.pending.append((kind, seconds))
        self.slice_total += reference_slice()
        if len(self.pending) >= WINDOW:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        factor = NOMINAL_SLICE_S * len(self.pending) / self.slice_total
        for kind, seconds in self.pending:
            self.latencies[kind].append(seconds * factor)
        self.pending = []
        self.slice_total = 0.0


def _setup_probe(src: str) -> None:
    before = reference_time(SETUP_SLICES)
    sys.path.insert(0, src)
    import repro
    from repro.paper.programs import SOURCES

    repro.optimize(SOURCES["fig1b"])
    after = reference_time(SETUP_SLICES)
    print(before, after)


if __name__ == "__main__":
    _setup_probe(sys.argv[1])
