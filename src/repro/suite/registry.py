"""Decorator-based registry of benchmark families.

Benchmark family classes register themselves at definition time::

    @register_family("ghz")
    class GHZBenchmark(Benchmark):
        ...

so new workloads become available to the whole suite layer (sweeps,
scenarios, the experiment drivers, ``make_benchmark``) without touching any
orchestration code — scenarios are data, the registry is the lookup.

The registry also owns the per-spec memoization: :meth:`BenchmarkRegistry.build`
constructs a benchmark instance at most once per :class:`BenchmarkSpec`
(circuit construction and the variational families' classical
pre-optimisation are the expensive parts of a sweep) and
:meth:`BenchmarkRegistry.features` memoizes the SupermarQ feature vector per
spec on top of it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Type

from ..exceptions import BenchmarkError, unknown_benchmark
from ..telemetry import LiveSet, get_metrics
from .spec import BenchmarkSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..benchmarks.base import Benchmark
    from ..features import FeatureVector

__all__ = ["BenchmarkRegistry", "register_family", "get_registry", "DEFAULT_REGISTRY"]

_LIVE = LiveSet()
_ENTRIES = get_metrics().gauge(
    "repro_registry_entries",
    "Occupancy of the live benchmark registries of this process "
    "(registered families, memoized instances).",
    ("kind",),
)
_ENTRIES.set_callback(lambda: _LIVE.total(lambda r: len(r._families)), kind="families")
_ENTRIES.set_callback(lambda: _LIVE.total(lambda r: len(r._instances)), kind="instances")


class BenchmarkRegistry:
    """Maps family names to benchmark classes and memoizes built instances."""

    def __init__(self) -> None:
        self._families: Dict[str, Type["Benchmark"]] = {}
        self._instances: Dict[BenchmarkSpec, "Benchmark"] = {}
        self._lock = threading.RLock()
        _LIVE.add(self)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, name: Optional[str] = None, *, overwrite: bool = False
    ) -> Callable[[Type["Benchmark"]], Type["Benchmark"]]:
        """Class decorator registering a benchmark family.

        Args:
            name: Family name; defaults to the class's ``name`` attribute.
            overwrite: Allow replacing an existing registration (useful for
                tests and downstream customisation); otherwise a duplicate
                name raises :class:`~repro.exceptions.BenchmarkError`.
        """

        def decorator(cls: Type["Benchmark"]) -> Type["Benchmark"]:
            family = name if name is not None else getattr(cls, "name", None)
            if not family or not isinstance(family, str):
                raise BenchmarkError(
                    f"cannot register {cls.__name__}: no family name given and "
                    f"no ``name`` class attribute"
                )
            with self._lock:
                if family in self._families and not overwrite:
                    raise BenchmarkError(
                        f"benchmark family {family!r} is already registered "
                        f"({self._families[family].__name__}); pass overwrite=True "
                        f"to replace it"
                    )
                self._families[family] = cls
            return cls

        return decorator

    def families(self) -> Tuple[str, ...]:
        """Registered family names, sorted."""
        with self._lock:
            return tuple(sorted(self._families))

    def __contains__(self, family: str) -> bool:
        with self._lock:
            return family in self._families

    def family(self, name: str) -> Type["Benchmark"]:
        """The class registered under ``name``.

        Raises:
            UnknownBenchmarkError: for unregistered names, with a
                did-you-mean suggestion.
        """
        with self._lock:
            try:
                return self._families[name]
            except KeyError:
                raise unknown_benchmark(name, self._families) from None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def make(self, family: str, *args, **kwargs) -> "Benchmark":
        """Directly construct a (non-memoized) benchmark instance."""
        return self.family(family)(*args, **kwargs)

    def spec(self, family: str, **params) -> BenchmarkSpec:
        """Build a :class:`BenchmarkSpec`, validating the family name."""
        self.family(family)  # raises UnknownBenchmarkError early
        return BenchmarkSpec.make(family, **params)

    def build(self, spec: BenchmarkSpec) -> "Benchmark":
        """The benchmark instance for ``spec`` — lazily built, memoized.

        Construction happens at most once per spec for the lifetime of the
        registry; repeated sweeps over overlapping grids share instances
        (and therefore their cached circuits and feature vectors).  For
        very large transient instances that should stay garbage-collectable
        (e.g. the 1000-qubit coverage circuits), use :meth:`create`.
        """
        with self._lock:
            instance = self._instances.get(spec)
            if instance is None:
                instance = self.family(spec.family)(**spec.as_kwargs())
                # Stamp the canonical spec identity so downstream layers
                # (the content-addressed result store in particular) can key
                # on the spec rather than the looser display label.
                instance.spec_key = spec.key()
                self._instances[spec] = instance
            return instance

    def create(self, spec: BenchmarkSpec) -> "Benchmark":
        """A fresh, **non-memoized** instance of ``spec``.

        The instance still caches its own circuits/features but is not
        retained by the registry — the right constructor for one-shot
        profiling of very large circuits, which :meth:`build` would pin in
        memory for the process lifetime.
        """
        instance = self.family(spec.family)(**spec.as_kwargs())
        instance.spec_key = spec.key()
        return instance

    def features(self, spec: BenchmarkSpec) -> "FeatureVector":
        """SupermarQ feature vector of ``spec``.

        Memoized transitively: :meth:`build` hands back one instance per
        spec and :meth:`~repro.benchmarks.Benchmark.features` caches on the
        instance, so the vector is computed at most once per spec.
        """
        return self.build(spec).features()

    def clear_cache(self) -> None:
        """Drop memoized instances (registrations stay)."""
        with self._lock:
            self._instances.clear()

    def stats(self) -> Dict[str, int]:
        """Registry cache occupancy (observable from the bench harness)."""
        with self._lock:
            return {
                "families": len(self._families),
                "instances": len(self._instances),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"BenchmarkRegistry(families={stats['families']}, "
            f"instances={stats['instances']})"
        )


#: The process-wide default registry the benchmark family modules register into.
DEFAULT_REGISTRY = BenchmarkRegistry()


def get_registry() -> BenchmarkRegistry:
    """The default registry (populated by importing :mod:`repro.benchmarks`)."""
    return DEFAULT_REGISTRY


def register_family(
    name: Optional[str] = None, *, registry: Optional[BenchmarkRegistry] = None,
    overwrite: bool = False,
) -> Callable[[Type["Benchmark"]], Type["Benchmark"]]:
    """Module-level registration decorator targeting the default registry."""
    target = registry if registry is not None else DEFAULT_REGISTRY
    return target.register(name, overwrite=overwrite)
