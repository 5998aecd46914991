"""What every workload returns, and the set-up timing they share."""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field

from spans import percentile

__all__ = ["Outcome", "percentile_ms", "pin_to_one_cpu", "timed_setup"]


@dataclass
class Outcome:
    """One run's counts, figures and output-check failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        """Record *message* as an output-check failure unless *condition*."""
        if not condition and len(self.errors) < 20:
            self.errors.append(message)
        elif not condition:
            self.errors[-1] = f"(more failures) {message}"


def timed_setup(setup, times: list[float], parts: dict[str, list[float]]) -> None:
    """Run *setup* once; add its wall time to *times* and its parts to *parts*.

    *setup* returns its own timed parts (seconds by name).  Workloads set
    up again between the passes or rounds of their timed phase and report
    the mean, so that ``setup_s`` averages over the whole run.  Not the
    median: on a host whose speed switches between two levels every few
    seconds, short set-ups fall into two modes (0.11 and 0.19 s for one
    that generates, cleans and compiles a small Apache trace), and a
    median jumps from one to the other with the share of slow stretches
    in the run.
    """
    gc.collect()  # each set-up starts from a collected heap
    start = time.perf_counter()
    for name, seconds in setup().items():
        parts.setdefault(name, []).append(seconds)
    times.append(time.perf_counter() - start)


def percentile_ms(seconds: list[float], fraction: float) -> float:
    return percentile(seconds, fraction) * 1000.0


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU.

    On an oversubscribed 2-vCPU host, serve-lb's closed-loop capacity
    varied between runs more than twice as much when its client ran on
    one vCPU and the LB and origin on the other (spread 0.28 and 0.52
    over two sets of ten runs) as with all three on one CPU (0.20); the
    speed of each vCPU drifts on its own.  The offline workloads are
    single-threaded.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
