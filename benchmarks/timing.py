"""Wall-clock timing shared by the perf gates under ``benchmarks/``.

Each script imports this module by name: pytest and ``python
benchmarks/<script>.py`` both put this directory on ``sys.path``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence


def time_best_of(function: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall time of ``function`` (one warmup call)."""
    function()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def time_interleaved(
    functions: Sequence[Callable[[], object]], repeats: int = 15, min_seconds: float = 0.03
) -> List[float]:
    """Best-of-N time per call of each function, the functions sampled in turn.

    Each sample loops one function for at least ``min_seconds``, so a
    sub-millisecond call is timed over many calls, and every round samples
    each function once, so host drift during the run meets all of them alike.
    """
    for function in functions:
        function()  # warmup
    best = [float("inf")] * len(functions)
    for _ in range(repeats):
        for index, function in enumerate(functions):
            calls = 0
            start = time.perf_counter()
            while True:
                function()
                calls += 1
                elapsed = time.perf_counter() - start
                if elapsed >= min_seconds:
                    break
            best[index] = min(best[index], elapsed / calls)
    return best
