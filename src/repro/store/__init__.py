"""Content-addressed persistence of benchmark results.

The store layer turns the repository's deterministic execution stack into a
cache: every scored run is persisted under a :func:`~repro.store.keys.content_key`
composed from the stable fingerprints the stack already computes
(:meth:`BenchmarkSpec.key() <repro.suite.spec.BenchmarkSpec.key>` ×
:attr:`PassManager.fingerprint <repro.transpiler.passmanager.PassManager.fingerprint>`
× :meth:`NoiseModel.fingerprint() <repro.simulation.noise_model.NoiseModel.fingerprint>`
× mitigation technique × execution knobs), so a repeat request is a sqlite
read instead of a re-simulation.

Integration points:

* :func:`run_scenario(store=...) <repro.suite.runner.run_scenario>` looks
  every pending unit up before planning, and writes every produced
  :class:`~repro.execution.results.BenchmarkRun` back together with its
  :class:`~repro.suite.results.SpecOutcome` row (skips included).
* The service layer (:mod:`repro.service`) serves stored rows over REST.

See ``docs/store.md`` for the full walkthrough.
"""

from .keys import (
    KEY_SCHEMA,
    content_key,
    key_payload,
    mitigation_identity,
    spec_identity,
)
from .store import PAYLOAD_VERSION, STORE_SCHEMA_VERSION, ResultStore

__all__ = [
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "PAYLOAD_VERSION",
    "KEY_SCHEMA",
    "content_key",
    "key_payload",
    "spec_identity",
    "mitigation_identity",
]
