"""Transpile caching: fingerprint circuits and pipelines, compile once.

The experiment drivers execute the same logical circuits over and over —
``repetitions`` times per benchmark, and once more for the compiled-circuit
metadata of :class:`~repro.execution.results.BenchmarkRun`.  Transpilation is
deterministic for a fixed circuit, device and pipeline, so the
:class:`TranspileCache` memoises the full pipeline output (including the
compacted simulation circuit) behind a structural circuit fingerprint paired
with the pipeline's own fingerprint
(:attr:`~repro.transpiler.passmanager.PassManager.fingerprint`).

Keying on the pipeline fingerprint — rather than on the loose
``optimization_level`` integer the cache historically used — means every
knob that changes compilation (placement strategy, explicit initial layout,
custom device presets, new passes) automatically separates cache entries;
two calls that compile differently can never return the same cached circuit.

The cache is thread-safe: the :class:`~repro.execution.engine.ExecutionEngine`
shares one instance across its worker pool and fans cold compilations out
over it.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import Circuit
from ..circuits.columnar import OPCODE_TABLE_DIGEST
from ..devices import Device
from ..simulation.noise_model import NoiseModel
from ..telemetry import LiveSet, Span, get_metrics, get_tracer
from ..transpiler import TranspiledCircuit, preset_pipeline, transpile
from ..transpiler.placement import Placement

__all__ = ["FINGERPRINT_VERSION", "circuit_fingerprint", "CacheEntry", "TranspileCache"]

#: Version of the fingerprint scheme.  v1 hashed per-instruction ``repr()``
#: strings; v2 hashes the packed columnar buffers (PR 8).  Bump this whenever
#: the bytes fed to the hash change meaning — the version is part of the
#: hashed header, so old and new fingerprints can never collide silently.
#: Persisted-key consumers version independently via
#: ``repro.store.keys.KEY_SCHEMA`` (see docs/ir.md for the migration story).
FINGERPRINT_VERSION = 2

_FINGERPRINT_HEADER = (
    f"repro-circuit-v{FINGERPRINT_VERSION}:{OPCODE_TABLE_DIGEST};".encode()
)
_NATIVE_LITTLE = sys.byteorder == "little"


def circuit_fingerprint(circuit: Circuit) -> str:
    """Stable structural fingerprint of a circuit.

    Two circuits with the same qubit/clbit counts and the same instruction
    sequence (gate names, parameters, qubit and clbit operands) produce the
    same fingerprint, independently of object identity or circuit name.

    The hash runs over the packed columnar buffers
    (:meth:`~repro.circuits.circuit.Circuit.packed`): a handful of
    ``hashlib`` updates on contiguous arrays instead of one per
    instruction.  Parameters are hashed as their raw little-endian float64
    bytes, so equal floats always hash equal regardless of ``repr()``
    formatting.  The header pins the fingerprint version and the opcode
    table digest: any change to either loudly changes every fingerprint.
    """
    packed = circuit.packed()
    hasher = hashlib.sha1(_FINGERPRINT_HEADER)
    hasher.update(struct.pack("<qq", packed.num_qubits, packed.num_clbits))
    for _label, buffer in packed.buffers():
        if not _NATIVE_LITTLE:  # pragma: no cover - big-endian hosts only
            buffer = buffer.astype(buffer.dtype.newbyteorder("<"))
        hasher.update(struct.pack("<q", buffer.size))
        hasher.update(buffer.tobytes())
    return hasher.hexdigest()


@dataclass
class CacheEntry:
    """Everything derived from one ``transpile()`` call.

    Attributes:
        transpiled: Full transpiler output (metadata source).
        compact: The compiled circuit relabelled onto ``0..k-1`` for simulation.
        physical: Physical qubits backing each compact qubit, in order.
        two_qubit_gates: Two-qubit gate count of the compiled circuit.
        depth: Depth of the compiled circuit.
        pipeline: Fingerprint of the pipeline that produced the compilation.
    """

    transpiled: TranspiledCircuit
    compact: Circuit
    physical: Tuple[int, ...]
    two_qubit_gates: int
    depth: int
    pipeline: str = ""
    _noise_model: Optional[NoiseModel] = field(default=None, repr=False)
    _noise_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def noise_model(self) -> NoiseModel:
        """Device noise model matching the compacted circuit (built lazily, once)."""
        with self._noise_lock:
            if self._noise_model is None:
                self._noise_model = self.transpiled.device.noise_model(self.physical)
            return self._noise_model


_LOOKUPS = get_metrics().counter(
    "repro_transpile_cache_lookups_total",
    "Transpile-cache lookups by result.",
    ("result",),
)
_HITS = _LOOKUPS.labels(result="hit")
_MISSES = _LOOKUPS.labels(result="miss")
_LIVE = LiveSet()
get_metrics().gauge(
    "repro_transpile_cache_entries",
    "Compiled entries held by the live transpile caches of this process.",
).set_callback(lambda: _LIVE.total(len))


class TranspileCache:
    """Memoises ``transpile()`` keyed on ``(circuit, device, pipeline)`` fingerprints.

    Attributes:
        hits: Number of lookups answered from the cache.
        misses: Number of lookups that had to invoke the transpiler.

    Every lookup also adds to the process total
    ``repro_transpile_cache_lookups_total``, which :meth:`clear` leaves
    alone.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str, str], CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        _LIVE.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_transpile(
        self,
        circuit: Circuit,
        device: Device,
        optimization_level: int = 1,
        placement: str = "noise_aware",
        initial_layout: Optional[Placement] = None,
    ) -> CacheEntry:
        """Return the cached compilation of ``circuit`` for ``device``, compiling on miss.

        The preset pipeline for ``(device, optimization_level, placement,
        initial_layout)`` is resolved first and its fingerprint — not the raw
        arguments — forms the cache key, so e.g. two placement strategies (or
        a re-registered device preset) always occupy distinct entries.  A
        one-circuit :meth:`get_or_transpile_many`: one hit or one miss.
        """
        return self.get_or_transpile_many(
            [circuit],
            device,
            optimization_level=optimization_level,
            placement=placement,
            initial_layout=initial_layout,
        )[0]

    def get_or_transpile_many(
        self,
        circuits: "Sequence[Circuit]",
        device: Device,
        optimization_level: int = 1,
        placement: str = "noise_aware",
        initial_layout: Optional[Placement] = None,
        executor=None,
    ) -> "List[CacheEntry]":
        """Batch form of :meth:`get_or_transpile`: one compile per distinct circuit.

        The pipeline is resolved once for the whole batch and every circuit
        is fingerprinted exactly once (the fingerprint packs the circuit, so
        the packed passes reuse that pack for free).  Cache lookup
        happens under a single lock acquisition; intra-batch duplicates are
        deduplicated *before* counting, so a batch of N copies of one new
        circuit records one miss (and one hit if it was already cached), and
        compiles at most once — unlike N racing :meth:`get_or_transpile`
        calls, which each count and may each compile.

        Args:
            executor: Optional ``concurrent.futures`` executor; missing
                circuits compile through ``executor.submit`` (the engine
                passes its worker pool).  ``None`` compiles serially.

        Returns:
            Cache entries parallel to ``circuits``; duplicates share the
            identical :class:`CacheEntry`.
        """
        pipeline = preset_pipeline(
            device,
            optimization_level=optimization_level,
            placement=placement,
            initial_layout=initial_layout,
        )
        keys = [
            (circuit_fingerprint(circuit), device.name, pipeline.fingerprint)
            for circuit in circuits
        ]
        resolved: Dict[Tuple[str, str, str], CacheEntry] = {}
        missing: Dict[Tuple[str, str, str], Circuit] = {}
        with self._lock:
            for key, circuit in zip(keys, circuits):
                if key in resolved or key in missing:
                    continue
                entry = self._entries.get(key)
                if entry is not None:
                    self.hits += 1
                    _HITS.add(1.0)
                    resolved[key] = entry
                else:
                    self.misses += 1
                    _MISSES.add(1.0)
                    missing[key] = circuit
        # Compile outside the lock so a slow compilation does not serialise
        # unrelated lookups; each distinct missing circuit compiles exactly
        # once, optionally fanned out over the caller's worker pool.  A
        # concurrent duplicate compile by another caller is harmless: output
        # is deterministic and setdefault keeps the first inserted entry.
        # The exact pipeline instance the keys were fingerprinted from runs,
        # so a concurrently re-registered device preset can never produce a
        # compilation stored under another pipeline's fingerprint.
        def _compile(circuit: Circuit, parent: Optional[Span] = None) -> CacheEntry:
            # ``parent`` is the submitter's span: pool-thread spans join its trace.
            with get_tracer().resume(parent):
                transpiled = transpile(circuit, device, pass_manager=pipeline)
                compact, physical = transpiled.compact()
                return CacheEntry(
                    transpiled=transpiled,
                    compact=compact,
                    physical=tuple(physical),
                    two_qubit_gates=transpiled.two_qubit_gate_count(),
                    depth=transpiled.depth(),
                    pipeline=pipeline.fingerprint,
                )

        if missing:
            if executor is not None:
                parent = get_tracer().current_span()
                futures = {
                    key: executor.submit(_compile, circuit, parent)
                    for key, circuit in missing.items()
                }
                compiled = {key: future.result() for key, future in futures.items()}
            else:
                compiled = {key: _compile(circuit) for key, circuit in missing.items()}
            with self._lock:
                for key, entry in compiled.items():
                    resolved[key] = self._entries.setdefault(key, entry)
        return [resolved[key] for key in keys]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus current size, for logging and tests."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}
