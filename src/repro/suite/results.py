"""Streaming, resumable suite results.

:class:`SuiteResult` accumulates one :class:`SpecOutcome` per executed
:class:`~repro.suite.sweep.RunUnit` as the runner streams them in, keyed on
the unit's stable key so a persisted partial result can be reloaded and the
remaining units executed without repeating finished work (crash-resumable
sweeps).  Alongside the per-spec scores and feature vectors it aggregates
per-engine wall time and transpile/calibration cache statistics.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Union

from ..exceptions import AnalysisError, SchemaVersionError
from ..execution.results import BenchmarkRun

__all__ = ["SpecOutcome", "SuiteResult", "coerce_runs", "merge_engine_stats", "SCHEMA_VERSION"]

#: Version stamped into every persisted :class:`SpecOutcome` /
#: :class:`SuiteResult` payload.  Loading a payload carrying a *newer*
#: version fails loudly with :class:`~repro.exceptions.SchemaVersionError`
#: instead of silently misreading fields — the result store's migrations
#: depend on this being reliable.
SCHEMA_VERSION = 2

#: Payload versions this release can read.  Version 1 predates the
#: ``schema_version`` stamp on outcomes (it used a bare ``schema`` field on
#: the suite level only).
_SUPPORTED_VERSIONS = (1, 2)


def _check_schema_version(version, what: str) -> None:
    """Reject payloads written by newer (or unknown) releases, loudly."""
    if version is None:
        return  # version-1 outcome payloads carry no stamp
    if version not in _SUPPORTED_VERSIONS:
        raise SchemaVersionError(
            f"{what} carries schema version {version!r}, but this release "
            f"understands versions {list(_SUPPORTED_VERSIONS)} — upgrade the "
            f"library or regenerate the payload"
        )


def merge_engine_stats(into: Dict[str, Any], stats: Mapping[str, Any]) -> None:
    """Fold one engine-statistics map into ``into``, in place.

    Counters (hits, misses, executions, seconds, leases, ...) sum, so the
    aggregate reflects the total work of every execution folded in, while
    occupancy gauges (``entries`` / ``calibration_entries``) take the
    maximum, since each execution's cache held its own distinct set.
    """
    for key, value in stats.items():
        if key.endswith("entries"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def coerce_runs(runs) -> List[BenchmarkRun]:
    """Normalise a run collection: a :class:`SuiteResult` or an iterable of
    :class:`BenchmarkRun` becomes a plain run list.

    The single adapter behind every experiment driver that accepts either
    form (``figure2_records``, the Fig. 3/4 reproductions, ...).
    """
    if isinstance(runs, SuiteResult):
        return runs.runs()
    return list(runs)


@dataclass
class SpecOutcome:
    """The result of one run unit: an executed run, or a recorded skip.

    Attributes:
        key: The unit's stable identity (``spec|engine|mitigation``).
        spec: The benchmark spec as a JSON-friendly dict.
        device: Device name.
        mitigation: Technique label (``"raw"`` for unmitigated).
        index: Position in the scenario's canonical expansion order.
        status: ``"ok"`` or ``"skipped"``.
        reason: Skip reason (empty for executed units).
        run: The :class:`BenchmarkRun` (``None`` for skips).
        seconds: Wall time of the unit (0.0 for skips).
    """

    key: str
    spec: Dict[str, Any]
    device: str
    mitigation: str
    index: int
    status: str = "ok"
    reason: str = ""
    run: Optional[BenchmarkRun] = None
    seconds: float = 0.0

    @classmethod
    def of(
        cls,
        key: str,
        spec: Dict[str, Any],
        device: str,
        mitigation: str,
        index: int,
        run: Optional[BenchmarkRun] = None,
        error: Optional[Exception] = None,
    ) -> "SpecOutcome":
        """One unit's outcome: its ``run`` (executed or read from a store),
        or a skip recording the ``error`` it was skipped with."""
        if run is None:
            return cls(key, spec, device, mitigation, index, status="skipped", reason=str(error))
        return cls(key, spec, device, mitigation, index, run=run, seconds=run.seconds)

    def as_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["schema_version"] = SCHEMA_VERSION
        return data

    def unit_payload(self) -> Dict[str, Any]:
        """The outcome's *content* — everything except volatile fields.

        Two outcomes of the same unit produced by (deterministic) repeat
        executions agree on this payload even though their wall times and
        scenario positions differ; :meth:`SuiteResult.merge` uses it to
        distinguish benign duplicates from genuine conflicts.
        """
        data = asdict(self)
        data.pop("seconds", None)
        data.pop("index", None)
        if data.get("run") is not None:
            data["run"].pop("seconds", None)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpecOutcome":
        payload = dict(data)
        _check_schema_version(payload.pop("schema_version", None), "suite outcome payload")
        run = payload.get("run")
        if run is not None:
            payload["run"] = BenchmarkRun(**run)
        return cls(**payload)


class SuiteResult:
    """Streaming aggregation of a scenario's outcomes.

    The container is append-only: the runner calls :meth:`add` as each unit
    finishes, optional observers see every outcome immediately, and
    :meth:`to_json` / :meth:`from_json` round-trip the full state for
    resumable execution (see :func:`repro.suite.runner.run_scenario`'s
    ``partial`` argument).
    """

    def __init__(self, scenario: str = "") -> None:
        self.scenario = scenario
        #: The execution knobs the outcomes were produced with (recorded by
        #: the runner; resuming with different knobs is rejected).
        self.config: Dict[str, Any] = {}
        self._outcomes: Dict[str, SpecOutcome] = {}
        self.engine_stats: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def add(self, outcome: SpecOutcome) -> None:
        """Record one outcome (last write wins for a repeated key).

        This is the *streaming* accumulator: the runner re-records a unit
        when explicitly re-executing it.  To combine two persisted partials
        safely, use :meth:`merge`, which refuses conflicting payloads.
        """
        self._outcomes[outcome.key] = outcome

    def merge(self, other: "SuiteResult") -> "SuiteResult":
        """Fold another result's outcomes into this one, rejecting conflicts.

        Outcomes present in both results must agree on their
        :meth:`~SpecOutcome.unit_payload` (status, spec, scores, ... — wall
        time excluded, since repeat executions of a deterministic unit differ
        only in timing).  A disagreement means the two partials were *not*
        produced by the same configuration and silently keeping either side
        would present wrong scores, so it raises instead.

        Returns ``self`` (mutated in place) for chaining.

        Raises:
            AnalysisError: when the results belong to different scenarios,
                were produced with different knobs, or record conflicting
                payloads under the same unit key.
        """
        if other.scenario:
            self.bind_config(other.scenario, other.config)
        conflicts = []
        for key, theirs in other._outcomes.items():
            ours = self._outcomes.get(key)
            if ours is not None and ours.unit_payload() != theirs.unit_payload():
                conflicts.append(key)
        if conflicts:
            listing = ", ".join(sorted(conflicts)[:3])
            if len(conflicts) > 3:
                listing += f", ... ({len(conflicts)} total)"
            raise AnalysisError(
                f"cannot merge suite results: conflicting payloads under unit "
                f"key(s) {listing} — the partials were not produced by the same "
                f"configuration"
            )
        for key, theirs in other._outcomes.items():
            self._outcomes.setdefault(key, theirs)
        for engine_key, stats in other.engine_stats.items():
            self.note_engine_stats(engine_key, stats)
        return self

    def bind_config(self, scenario: str, config: Mapping[str, Any]) -> None:
        """Pin the scenario name and execution knobs the outcomes belong to.

        Raises:
            AnalysisError: when the result already carries a different
                scenario name or knob values — resuming a persisted partial
                under a different configuration would silently present stale
                scores as the new configuration's results.
        """
        if self.scenario and self.scenario != scenario:
            raise AnalysisError(
                f"partial results belong to scenario {self.scenario!r}, "
                f"cannot resume scenario {scenario!r}"
            )
        self.scenario = scenario
        mismatched = {
            key: (self.config[key], value)
            for key, value in config.items()
            if key in self.config and self.config[key] != value
        }
        if mismatched:
            detail = ", ".join(
                f"{key}: recorded {old!r} != requested {new!r}"
                for key, (old, new) in sorted(mismatched.items())
            )
            raise AnalysisError(f"partial results were produced with different knobs — {detail}")
        self.config.update(config)

    def note_engine_stats(self, engine_key: str, stats: Mapping[str, int]) -> None:
        """Attach an engine's cache statistics.

        Repeat shards (a resumed sweep re-running a shard's remainder on a
        fresh engine) fold into the existing entry by
        :func:`merge_engine_stats`.
        """
        merge_engine_stats(self.engine_stats.setdefault(engine_key, {}), stats)

    def __contains__(self, key: str) -> bool:
        return key in self._outcomes

    def __len__(self) -> int:
        return len(self._outcomes)

    def completed_keys(self) -> frozenset:
        """Keys of every recorded unit (executed and skipped)."""
        return frozenset(self._outcomes)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def outcomes(self) -> List[SpecOutcome]:
        """All outcomes ordered by the scenario's canonical expansion order."""
        return sorted(self._outcomes.values(), key=lambda outcome: outcome.index)

    def runs(self) -> List[BenchmarkRun]:
        """Executed runs in scenario order (skips excluded)."""
        return [outcome.run for outcome in self.outcomes() if outcome.run is not None]

    def skipped(self) -> List[SpecOutcome]:
        return [outcome for outcome in self.outcomes() if outcome.status == "skipped"]

    def records(self) -> List[Dict[str, Any]]:
        """Flat per-run records (scores + features), for the analysis layer."""
        rows = []
        for outcome in self.outcomes():
            if outcome.run is None:
                continue
            row = outcome.run.record()
            row["seconds"] = outcome.seconds
            rows.append(row)
        return rows

    def scores(self) -> Dict[str, float]:
        """Mean score per unit key (executed units only)."""
        return {
            outcome.key: outcome.run.mean_score
            for outcome in self.outcomes()
            if outcome.run is not None
        }

    def feature_vectors(self) -> Dict[str, Dict[str, float]]:
        """The six SupermarQ features per executed spec key."""
        from .spec import BenchmarkSpec

        vectors: Dict[str, Dict[str, float]] = {}
        for outcome in self.outcomes():
            if outcome.run is not None:
                spec_key = BenchmarkSpec.from_dict(outcome.spec).key()
                vectors.setdefault(spec_key, outcome.run.features)
        return vectors

    def total_seconds(self) -> float:
        """Summed wall time of every executed unit."""
        return sum(outcome.seconds for outcome in self._outcomes.values())

    # ------------------------------------------------------------------
    # persistence (resumable partial results)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "config": self.config,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes()],
            "engine_stats": self.engine_stats,
        }

    def to_json(self, path: Union[str, pathlib.Path, None] = None) -> str:
        """Serialize; when ``path`` is given the JSON is also written there."""
        text = json.dumps(self.as_dict(), indent=1, sort_keys=True)
        if path is not None:
            pathlib.Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteResult":
        # Version-1 files stamped a bare "schema" field; read both spellings
        # and fail loudly on anything newer than this release understands.
        version = data.get("schema_version", data.get("schema"))
        if version is None:
            raise SchemaVersionError(
                "suite-result payload carries no schema version — not a "
                "persisted SuiteResult"
            )
        _check_schema_version(version, "suite-result payload")
        result = cls(scenario=data.get("scenario", ""))
        result.config = dict(data.get("config", {}))
        for outcome in data.get("outcomes", []):
            result.add(SpecOutcome.from_dict(outcome))
        for key, stats in data.get("engine_stats", {}).items():
            result.note_engine_stats(key, stats)
        return result

    @classmethod
    def from_json(cls, text_or_path: Union[str, pathlib.Path]) -> "SuiteResult":
        """Load from a JSON string or a path to a JSON file."""
        if isinstance(text_or_path, pathlib.Path):
            text = text_or_path.read_text()
        else:
            text = str(text_or_path)
            if not text.lstrip().startswith("{"):
                text = pathlib.Path(text).read_text()
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        executed = sum(1 for o in self._outcomes.values() if o.status == "ok")
        skipped = len(self._outcomes) - executed
        return (
            f"SuiteResult(scenario={self.scenario!r}, executed={executed}, "
            f"skipped={skipped}, seconds={self.total_seconds():.2f})"
        )
