"""Canonical content keys for the result store.

A *content key* is the stable identity of one scored execution: the hash of
every input that can change the resulting scores.  Two runs with equal
content keys are guaranteed to produce byte-identical score payloads (all
execution in this repository is seed-deterministic), so the store can answer
a repeat request from disk instead of re-simulating.

The key composes the stable fingerprints the stack already computes:

==================  =====================================================
component           source
==================  =====================================================
``spec``            :meth:`repro.suite.spec.BenchmarkSpec.key` (or the
                    benchmark's string label for hand-built instances)
``device``          device name
``backend``         :func:`repro.execution.backends.backend_metadata`
                    (name, noisy flag, trajectory count, batch caps —
                    everything seeded counts depend on)
``pipeline``        :attr:`repro.transpiler.passmanager.PassManager.fingerprint`
                    of the preset pipeline (captures optimization level,
                    placement strategy, device presets, every pass knob)
``noise``           :meth:`repro.simulation.noise_model.NoiseModel.fingerprint`
                    of the whole-device model (``"ideal"`` for noise-free
                    backends)
``mitigation``      :meth:`repro.mitigation.Mitigator.calibration_key`
                    (``"raw"`` for unmitigated runs)
``shots`` /
``repetitions`` /
``seed``            execution knobs
==================  =====================================================

The composed payload is hashed with sha256; :func:`content_key` returns the
hex digest and :func:`key_payload` the raw dict (stored alongside rows for
debuggability).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Union

__all__ = [
    "KEY_SCHEMA",
    "key_payload",
    "content_key",
    "spec_identity",
    "mitigation_identity",
]

#: Version of the key derivation itself.  Bumping it invalidates every
#: previously stored row (old keys simply stop matching), which is exactly
#: the behaviour wanted when the key composition changes.
#:
#: History:
#:
#: * 1 — original composition.
#: * 2 — circuit fingerprints moved to the packed-buffer scheme
#:   (``repro.execution.cache.FINGERPRINT_VERSION == 2``).  Store keys do
#:   not embed circuit fingerprints directly, but any key derived under the
#:   old scheme must not silently alias a new-scheme key, so the schema
#:   version is bumped in lock-step.  Old rows become unreachable (reads
#:   miss and re-execute; ``ResultStore.purge_stale_keys()`` reclaims the
#:   space) — whereas opening a database written by a *newer* release
#:   raises :class:`~repro.exceptions.SchemaVersionError` loudly.  See
#:   ``docs/ir.md`` for the full migration story.
KEY_SCHEMA = 2


def spec_identity(benchmark: object) -> str:
    """Stable spec identity of a benchmark instance.

    Registry-built instances carry the originating
    :meth:`~repro.suite.spec.BenchmarkSpec.key` as a ``spec_key`` attribute
    (stamped by :meth:`~repro.suite.registry.BenchmarkRegistry.build`), which
    is canonical across processes.  Hand-built instances fall back to their
    parameter-bearing string label (``"ghz[5q]"``), which is equally stable
    for the repository's families.
    """
    stamped = getattr(benchmark, "spec_key", None)
    if stamped:
        return str(stamped)
    return str(benchmark)


def mitigation_identity(mitigation: Any) -> str:
    """Stable identity of a mitigation specification.

    ``None`` / ``"raw"`` / ``"none"`` map to ``"raw"``; names are resolved so
    a string spec and the instance it resolves to share one identity; and
    resolved instances contribute their
    :meth:`~repro.mitigation.Mitigator.calibration_key`, which parameterised
    techniques override to include their knobs.
    """
    from ..mitigation import resolve_mitigator

    mitigator = resolve_mitigator(mitigation)
    return "raw" if mitigator is None else mitigator.calibration_key()


def _canonical(value: Any) -> Any:
    """Normalise a payload value into a JSON-stable form."""
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def key_payload(
    spec: str,
    device: str,
    backend: Union[str, Mapping[str, Any]],
    pipeline: str,
    noise: str,
    mitigation: str,
    shots: int,
    repetitions: int,
    seed: Optional[int],
) -> Dict[str, Any]:
    """The composed identity payload (see the module table for each field)."""
    return {
        "key_schema": KEY_SCHEMA,
        "spec": spec,
        "device": device,
        "backend": _canonical(backend),
        "pipeline": pipeline,
        "noise": noise,
        "mitigation": mitigation,
        "shots": int(shots),
        "repetitions": int(repetitions),
        "seed": seed,
    }


def content_key(
    spec: str,
    device: str,
    backend: Union[str, Mapping[str, Any]],
    pipeline: str,
    noise: str,
    mitigation: str,
    shots: int,
    repetitions: int,
    seed: Optional[int],
) -> str:
    """The sha256 hex digest of the canonical key payload."""
    payload = key_payload(
        spec, device, backend, pipeline, noise, mitigation, shots, repetitions, seed
    )
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
