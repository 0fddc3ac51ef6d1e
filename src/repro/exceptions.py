"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can distinguish library failures from
programming mistakes (``TypeError``, ``ValueError`` raised by numpy, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Raised for malformed circuits or invalid circuit operations."""


class GateError(CircuitError):
    """Raised when a gate is constructed or used incorrectly."""


class QasmError(ReproError):
    """Raised when OpenQASM text cannot be parsed or emitted."""


class SimulationError(ReproError):
    """Raised when a simulator cannot execute a circuit."""


class NoiseModelError(SimulationError):
    """Raised when a noise model is inconsistent or incomplete."""


class TranspilerError(ReproError):
    """Raised when a circuit cannot be compiled to a target device."""


class DeviceError(ReproError):
    """Raised when a device description is invalid or unknown."""


class BackendCapacityError(DeviceError):
    """Raised when a circuit fits the device but exceeds an execution
    backend's capacity (e.g. the density-matrix width limit)."""


class MitigationError(ReproError):
    """Raised when an error-mitigation technique is misconfigured or cannot
    be applied to the given circuit / counts."""


class BenchmarkError(ReproError):
    """Raised when a benchmark is instantiated with invalid parameters."""


class UnknownBenchmarkError(BenchmarkError, KeyError):
    """Raised when a benchmark family name is not registered.

    Subclasses :class:`KeyError` for backward compatibility with callers that
    caught the bare ``KeyError`` historically raised by ``make_benchmark``.
    Use :func:`unknown_benchmark` to build an instance with a did-you-mean
    suggestion.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message (useful for dict keys, noise
        # here); restore the plain Exception rendering.
        return Exception.__str__(self)


def unknown_benchmark(family: str, known) -> UnknownBenchmarkError:
    """Build an :class:`UnknownBenchmarkError` with a did-you-mean suggestion.

    Args:
        family: The unknown family name that was requested.
        known: Iterable of registered family names.
    """
    import difflib

    known = sorted(known)
    message = f"unknown benchmark family {family!r}; known: {known}"
    close = difflib.get_close_matches(family, known, n=1, cutoff=0.5)
    if close:
        message += f" — did you mean {close[0]!r}?"
    return UnknownBenchmarkError(message)


class AnalysisError(ReproError):
    """Raised when an analysis routine receives unusable data."""


class StoreError(ReproError):
    """Raised when the content-addressed result store cannot serve a request
    (corrupt database, unusable path, malformed persisted payload)."""


class SchemaVersionError(StoreError, AnalysisError):
    """Raised when a persisted payload (suite-result JSON, store row, store
    database) carries a schema version this release does not understand.

    Subclasses both :class:`StoreError` and :class:`AnalysisError`: store
    rows and suite-result files share one payload schema, and callers of
    either layer historically caught :class:`AnalysisError` for unreadable
    result files.
    """


class ServiceError(ReproError):
    """Raised by the benchmark service layer (job queue, REST surface) for
    invalid submissions or lookups of unknown jobs."""


class DistributedError(ReproError):
    """Raised by the process-parallel sweep scheduler: unserializable work
    (backend instances / Mitigator instances crossing a process boundary),
    exhausted lease retries, or a worker pool that cannot be (re)started."""


def is_deterministic(error: BaseException) -> bool:
    """Whether ``error`` would recur on a retry: a library error other than a
    :class:`DistributedError` (which reports lost or exhausted work).

    The lease scheduler raises such an error at once instead of leasing the
    task again, and the job queue fails the job instead of retrying it.
    """
    return isinstance(error, ReproError) and not isinstance(error, DistributedError)
