"""Declarative sweeps and scenarios.

A :class:`Sweep` describes a family of benchmark instances as data — a
parameter grid (cross-product, last axis fastest) or an explicit point list —
and expands to :class:`~repro.suite.spec.BenchmarkSpec` objects.  A
:class:`Scenario` combines sweeps with the execution axes of an experiment
(devices × backends × optimization levels × placements × mitigation
techniques) and expands to the full cross-product of run units, grouped into
per-engine shards so each device's
:class:`~repro.execution.ExecutionEngine` (and its transpile / calibration
caches) is shared across every unit landing on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import BenchmarkError
from .spec import BenchmarkSpec, _freeze

__all__ = ["Sweep", "Scenario", "EngineConfig", "RunUnit", "Shard"]


@dataclass(frozen=True)
class Sweep:
    """A declarative set of benchmark instances of one family.

    Attributes:
        family: Registered benchmark family name.
        grid: Ordered ``(param, values)`` axes; expansion is the
            cross-product with the **last axis varying fastest** (matching
            how the paper lists its instance tables).
        points: Explicit parameter points (each a ``(param, value)`` tuple
            set).  Used instead of ``grid`` when the instances do not form a
            rectangular grid.  ``grid`` and ``points`` are mutually exclusive.
    """

    family: str
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    points: Tuple[Tuple[Tuple[str, Any], ...], ...] = ()

    def __post_init__(self) -> None:
        if self.grid and self.points:
            raise BenchmarkError("a Sweep takes either a grid or explicit points, not both")

    @classmethod
    def of(cls, family: str, **axes: Sequence[Any]) -> "Sweep":
        """Grid sweep: ``Sweep.of("ghz", num_qubits=(3, 5, 7, 11))``."""
        grid = tuple((name, tuple(_freeze(v) for v in values)) for name, values in axes.items())
        return cls(family=family, grid=grid)

    @classmethod
    def explicit(cls, family: str, points: Iterable[Mapping[str, Any]]) -> "Sweep":
        """Point-list sweep: ``Sweep.explicit("vqe", [{"num_qubits": 4}, ...])``."""
        frozen = tuple(
            tuple(sorted((name, _freeze(value)) for name, value in point.items()))
            for point in points
        )
        return cls(family=family, points=frozen)

    def specs(self) -> List[BenchmarkSpec]:
        """Expand the sweep into concrete benchmark specs, in grid order."""
        if self.points:
            return [BenchmarkSpec(family=self.family, params=point) for point in self.points]
        if not self.grid:
            return [BenchmarkSpec(family=self.family)]
        names = [name for name, _ in self.grid]
        value_axes = [values for _, values in self.grid]
        specs = []
        for combination in itertools.product(*value_axes):
            specs.append(BenchmarkSpec.make(self.family, **dict(zip(names, combination))))
        return specs

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (sweeps are data and can live in config files)."""
        if self.points:
            return {
                "family": self.family,
                "points": [dict(point) for point in self.points],
            }
        return {"family": self.family, "grid": {name: list(values) for name, values in self.grid}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        if "points" in data:
            return cls.explicit(data["family"], data["points"])
        return cls.of(data["family"], **{k: tuple(v) for k, v in data.get("grid", {}).items()})


@dataclass(frozen=True)
class EngineConfig:
    """The execution axes that pin one :class:`ExecutionEngine` instance."""

    device: str
    backend: Optional[str] = None
    optimization_level: int = 1
    placement: str = "noise_aware"

    def key(self) -> str:
        backend = self.backend or "default"
        return f"{self.device}/{backend}/O{self.optimization_level}/{self.placement}"


@dataclass(frozen=True)
class RunUnit:
    """One (spec, engine configuration, mitigation) execution of a scenario.

    ``index`` is the unit's position in the scenario's expansion order, used
    to report results in a deterministic, scenario-defined order regardless
    of the sharded execution schedule.
    """

    spec: BenchmarkSpec
    engine: EngineConfig
    mitigation: Any = "raw"
    index: int = 0

    @property
    def mitigation_label(self) -> str:
        if isinstance(self.mitigation, str):
            return self.mitigation
        return getattr(self.mitigation, "name", str(self.mitigation))

    def key(self) -> str:
        """Stable identity within a scenario (keys resumable partial results)."""
        return f"{self.spec.key()}|{self.engine.key()}|{self.mitigation_label}"


@dataclass(frozen=True)
class Shard:
    """All run units of a scenario sharing one engine configuration.

    ``groups`` preserves the scenario's mitigation ordering: the planner
    chunks each group into leased tasks, and an executor runs every task of
    a configuration on one shared engine, so transpile and calibration
    caches are shared across every technique and benchmark landing on the
    device.
    """

    engine: EngineConfig
    groups: Tuple[Tuple[Any, Tuple[RunUnit, ...]], ...]

    @property
    def units(self) -> Tuple[RunUnit, ...]:
        return tuple(unit for _, group in self.groups for unit in group)


@dataclass(frozen=True)
class Scenario:
    """A named, declarative experiment: sweeps × execution axes.

    Attributes:
        name: Scenario identifier (used in results and persisted files).
        sweeps: The benchmark instance definitions.
        devices: Device names; empty means "every registered device",
            resolved by the runner at execution time.
        mitigations: Mitigation techniques (names or
            :class:`~repro.mitigation.Mitigator` instances); ``"raw"`` is
            unmitigated execution.
        backends: Backend names (``None`` = the engine default).
        optimization_levels / placements: Transpiler axes.
    """

    name: str
    sweeps: Tuple[Sweep, ...]
    devices: Tuple[str, ...] = ()
    mitigations: Tuple[Any, ...] = ("raw",)
    backends: Tuple[Optional[str], ...] = (None,)
    optimization_levels: Tuple[int, ...] = (1,)
    placements: Tuple[str, ...] = ("noise_aware",)

    def specs(self) -> List[BenchmarkSpec]:
        """All benchmark specs, sweep-by-sweep in declaration order."""
        return [spec for sweep in self.sweeps for spec in sweep.specs()]

    def engine_configs(self, devices: Optional[Sequence[str]] = None) -> List[EngineConfig]:
        """The engine-axis cross-product (device fastest-last in expansion)."""
        resolved = self._resolve_devices(devices)
        return [
            EngineConfig(device, backend, level, placement)
            for device in resolved
            for backend in self.backends
            for level in self.optimization_levels
            for placement in self.placements
        ]

    def _resolve_devices(self, devices: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
        if devices is not None:
            return tuple(devices)
        if self.devices:
            return self.devices
        from ..devices import all_devices

        return tuple(device.name for device in all_devices())

    def expand(self, devices: Optional[Sequence[str]] = None) -> List[RunUnit]:
        """The full cross-product, spec-major: spec → engine axes → mitigation.

        The order defines the scenario's canonical result ordering; the
        runner may execute units in a different (sharded) schedule but
        reports results in this order.
        """
        units: List[RunUnit] = []
        index = 0
        configs = self.engine_configs(devices)
        for spec in self.specs():
            for config in configs:
                for mitigation in self.mitigations:
                    units.append(RunUnit(spec, config, mitigation, index))
                    index += 1
        return units

    def shards(self, devices: Optional[Sequence[str]] = None) -> List[Shard]:
        """Group the expansion by engine configuration (execution schedule)."""
        by_engine: Dict[EngineConfig, Dict[str, Tuple[Any, List[RunUnit]]]] = {}
        engine_order: List[EngineConfig] = []
        for unit in self.expand(devices):
            if unit.engine not in by_engine:
                by_engine[unit.engine] = {}
                engine_order.append(unit.engine)
            groups = by_engine[unit.engine]
            label = unit.mitigation_label
            if label not in groups:
                groups[label] = (unit.mitigation, [])
            groups[label][1].append(unit)
        return [
            Shard(
                engine=config,
                groups=tuple(
                    (mitigation, tuple(units))
                    for mitigation, units in by_engine[config].values()
                ),
            )
            for config in engine_order
        ]

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form; raises for non-string mitigation instances."""
        for mitigation in self.mitigations:
            if not isinstance(mitigation, str):
                raise BenchmarkError(
                    "scenarios holding Mitigator instances cannot be serialized; "
                    "use technique names"
                )
        return {
            "name": self.name,
            "sweeps": [sweep.as_dict() for sweep in self.sweeps],
            "devices": list(self.devices),
            "mitigations": list(self.mitigations),
            "backends": list(self.backends),
            "optimization_levels": list(self.optimization_levels),
            "placements": list(self.placements),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        return cls(
            name=data["name"],
            sweeps=tuple(Sweep.from_dict(sweep) for sweep in data.get("sweeps", [])),
            devices=tuple(data.get("devices", ())),
            mitigations=tuple(data.get("mitigations", ("raw",))),
            backends=tuple(data.get("backends", (None,))),
            optimization_levels=tuple(data.get("optimization_levels", (1,))),
            placements=tuple(data.get("placements", ("noise_aware",))),
        )
