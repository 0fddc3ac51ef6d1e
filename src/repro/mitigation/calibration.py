"""Engine-level caching of mitigation calibration data.

Calibration jobs are real executions — a tensored readout calibration costs
two circuits, a full one ``2**n`` — so the
:class:`~repro.execution.engine.ExecutionEngine` memoises their digested
result in a :class:`CalibrationCache` keyed on

``(device name, physical qubit tuple, noise fingerprint, technique key)``

where the noise fingerprint (:meth:`NoiseModel.fingerprint
<repro.simulation.noise_model.NoiseModel.fingerprint>`) captures every
calibration constant of the compacted register: re-running the same
benchmark (or any benchmark landing on the same physical qubits) never
re-issues calibration jobs, while a different qubit subset, a re-calibrated
device, or a different calibration protocol automatically occupies a new
entry.

The cache is thread-safe and mirrors the
:class:`~repro.execution.cache.TranspileCache` contract: hit/miss counters,
``stats()`` for observability, factory execution outside the lock.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, Optional, Tuple

from ..telemetry import LiveSet, get_metrics

__all__ = ["CalibrationCache", "calibration_seed"]

#: A calibration-cache key: (device, physical qubits, noise fingerprint,
#: technique-specific calibration key).
CalibrationKey = Tuple[str, Tuple[int, ...], str, str]


def calibration_seed(key: CalibrationKey) -> int:
    """Deterministic RNG seed for the calibration jobs of one cache key.

    Calibration results must not depend on when they are (re)computed — a
    cleared cache re-issues the identical job, so seeded pipelines stay
    reproducible end to end.
    """
    digest = hashlib.sha1(repr(key).encode()).digest()
    return int.from_bytes(digest[:4], "big")


_LOOKUPS = get_metrics().counter(
    "repro_calibration_cache_lookups_total",
    "Calibration-cache lookups by result.",
    ("result",),
)
_HITS = _LOOKUPS.labels(result="hit")
_MISSES = _LOOKUPS.labels(result="miss")
_LIVE = LiveSet()
get_metrics().gauge(
    "repro_calibration_cache_entries",
    "Calibration entries held by the live calibration caches of this process.",
).set_callback(lambda: _LIVE.total(len))


class CalibrationCache:
    """Memoises calibration data keyed on (device, qubits, noise, technique).

    Attributes:
        hits: Lookups answered from the cache.
        misses: Lookups that had to issue calibration jobs.

    Every lookup also adds to the process total
    ``repro_calibration_cache_lookups_total``, which :meth:`clear` leaves
    alone.
    """

    def __init__(self) -> None:
        self._entries: Dict[CalibrationKey, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        _LIVE.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(
        self, key: CalibrationKey, compute: Callable[[], object]
    ) -> object:
        """Return the cached calibration for ``key``, invoking ``compute`` on miss.

        ``compute`` (which schedules and awaits the calibration jobs) runs
        outside the lock so a slow calibration does not serialise unrelated
        lookups; a concurrent duplicate is harmless — results are
        deterministic functions of the key (see :func:`calibration_seed`)
        and the first inserted entry wins.  Any value ``compute`` returns —
        including ``None`` — is cached; presence is tested by key, not by
        value.
        """
        with self._lock:
            if key in self._entries:
                self.hits += 1
                _HITS.add(1.0)
                return self._entries[key]
            self.misses += 1
            _MISSES.add(1.0)
        value = compute()
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            self._entries[key] = value
            return value

    def peek(self, key: CalibrationKey) -> Optional[object]:
        """Non-counting lookup (for tests and diagnostics)."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus current size, for logging and tests."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CalibrationCache(entries={len(self)}, hits={self.hits}, misses={self.misses})"
