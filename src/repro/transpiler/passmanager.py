"""The pass manager: run a declared pipeline, record per-pass metrics.

A :class:`PassManager` holds an ordered list of
:class:`~repro.transpiler.passes.BasePass` objects and runs them in sequence
over a circuit, threading one shared
:class:`~repro.transpiler.passes.PropertySet` through the whole pipeline.
Every run records one :class:`PassRecord` per pass (wall-clock time plus
gate-count before/after) into ``property_set["pass_records"]`` and onto
:attr:`PassManager.last_records`; the same timing also feeds the telemetry
layer — a completed ``transpiler.pass`` span and the
``repro_transpiler_pass_seconds`` latency histogram, both labelled with the
pass name.

**One circuit form.**  Passes consume and produce the columnar
:class:`~repro.circuits.columnar.PackedCircuit`: a run takes the input
circuit's (cached) pack once, hands packs from pass to pass, and unpacks
once at the end.

The :attr:`PassManager.fingerprint` is a stable hash of the pipeline's pass
names and configurations; the execution layer's
:class:`~repro.execution.cache.TranspileCache` keys compiled circuits on it,
so two pipelines that compile differently can never collide in the cache.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..circuits.columnar import BARRIER_OP, PackedCircuit
from ..exceptions import TranspilerError
from ..telemetry import get_metrics, get_tracer
from .passes import BasePass, PropertySet

__all__ = ["PassRecord", "PassManager"]

#: Version salt for pipeline fingerprints; bump when pass semantics change
#: in a way that should invalidate previously cached compilations.
_FINGERPRINT_VERSION = "repro-pipeline-v1"

_PASS_SECONDS = get_metrics().histogram(
    "repro_transpiler_pass_seconds",
    "Wall-clock latency of individual transpiler passes.",
    ("pass_name",),
)


@dataclass(frozen=True)
class PassRecord:
    """Timing and effect of one pass execution.

    Attributes:
        name: Pass name.
        seconds: Wall-clock duration of the pass.
        gates_before: Operation count (barriers excluded) entering the pass.
        gates_after: Operation count leaving the pass.
        analysis: True when the pass was an analysis pass.
    """

    name: str
    seconds: float
    gates_before: int
    gates_after: int
    analysis: bool = False

    @property
    def gate_delta(self) -> int:
        """Gates removed (negative: added) by the pass."""
        return self.gates_before - self.gates_after

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "analysis" if self.analysis else "transform"
        return (
            f"{self.name:<36s} {kind:<9s} {self.seconds * 1e3:8.3f} ms  "
            f"{self.gates_before:>5d} -> {self.gates_after:<5d} gates"
        )


def _gate_count(packed: PackedCircuit) -> int:
    """Operation count excluding barriers."""
    return int(np.count_nonzero(packed.opcodes != BARRIER_OP))


class PassManager:
    """Runs an ordered pipeline of passes over circuits.

    Args:
        passes: The pipeline, in execution order.  May be empty and extended
            with :meth:`append`.

    A single :class:`PassManager` may be reused across circuits; each
    :meth:`run` gets a fresh property set unless one is passed in.
    :attr:`last_records` holds the records of the most recent run on *this*
    instance (not thread-safe; concurrent callers should read
    ``property_set["pass_records"]`` instead).
    """

    def __init__(self, passes: Iterable[BasePass] = ()) -> None:
        self._passes: List[BasePass] = []
        for pass_ in passes:
            self.append(pass_)
        self.last_records: Tuple[PassRecord, ...] = ()

    # ------------------------------------------------------------------
    @property
    def passes(self) -> Tuple[BasePass, ...]:
        return tuple(self._passes)

    def append(self, pass_: BasePass) -> "PassManager":
        """Add a pass to the end of the pipeline (chainable)."""
        if not isinstance(pass_, BasePass):
            raise TranspilerError(
                f"pipeline entries must derive from BasePass, got {type(pass_).__name__}"
            )
        self._passes.append(pass_)
        return self

    def extend(self, passes: Iterable[BasePass]) -> "PassManager":
        for pass_ in passes:
            self.append(pass_)
        return self

    def __len__(self) -> int:
        return len(self._passes)

    def __iter__(self):
        return iter(self._passes)

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Stable hash of the pipeline structure and pass configurations.

        Equal fingerprints guarantee identical compilation behaviour (every
        pass contributes its name and
        :meth:`~repro.transpiler.passes.BasePass.signature`), which is what
        lets the transpile cache key on the pipeline instead of on loose
        ``optimization_level`` integers.
        """
        hasher = hashlib.sha1(_FINGERPRINT_VERSION.encode())
        for pass_ in self._passes:
            hasher.update(pass_.fingerprint_token().encode())
            hasher.update(b"|")
        return hasher.hexdigest()

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        property_set: Optional[PropertySet] = None,
    ) -> Circuit:
        """Run the pipeline over ``circuit`` and return the final circuit.

        Args:
            circuit: Input circuit (never mutated).
            property_set: Shared pipeline state; a fresh
                :class:`~repro.transpiler.passes.PropertySet` is created when
                omitted.  After the run it holds everything analysis passes
                recorded plus ``"pass_records"``.
        """
        properties = property_set if property_set is not None else PropertySet()
        tracer = get_tracer()
        records: List[PassRecord] = []
        packed = circuit.packed()
        gates_before = _gate_count(packed)
        for pass_ in self._passes:
            started = time.perf_counter()
            result = pass_.run(packed, properties)
            elapsed = time.perf_counter() - started
            if result is None:  # analysis passes may return nothing
                result = packed
            if pass_.is_analysis and result is not packed:
                raise TranspilerError(
                    f"analysis pass {pass_.name!r} must not replace the circuit"
                )
            gates_after = _gate_count(result)
            records.append(
                PassRecord(
                    name=pass_.name,
                    seconds=elapsed,
                    gates_before=gates_before,
                    gates_after=gates_after,
                    analysis=pass_.is_analysis,
                )
            )
            # One timing, three consumers: the PassRecord above, the latency
            # histogram and a completed span, so `repro run --trace` and
            # report() agree.
            _PASS_SECONDS.observe(elapsed, pass_name=pass_.name)
            tracer.emit(
                "transpiler.pass",
                elapsed,
                pass_name=pass_.name,
                gates_before=gates_before,
                gates_after=gates_after,
            )
            packed, gates_before = result, gates_after
        record_tuple = tuple(records)
        properties["pass_records"] = record_tuple
        self.last_records = record_tuple
        # The unpack wraps this pack (no row copied, no Instruction made), so
        # fingerprint and feature consumers downstream reuse it for free.
        return packed.unpack()

    # ------------------------------------------------------------------
    def report(self, records: Optional[Sequence[PassRecord]] = None) -> str:
        """Human-readable per-pass timing table (defaults to the last run)."""
        rows = records if records is not None else self.last_records
        lines = [str(record) for record in rows]
        total = sum(record.seconds for record in rows)
        lines.append(f"{'total':<36s} {'':<9s} {total * 1e3:8.3f} ms")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(pass_.name for pass_ in self._passes)
        return f"PassManager([{names}])"
