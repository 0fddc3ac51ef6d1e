"""Process-wide metrics: typed instruments, labeled series, mergeable snapshots.

A :class:`MetricsRegistry` holds named instruments — :class:`Counter`,
:class:`Gauge` and :class:`Histogram` — each fanning out into labeled
series.  The write path is *lock-free*: every series shards its state into
per-thread cells (a thread registers its cell once, under a lock, then
increments it without any synchronisation), so instrumenting a hot loop
costs one ``threading.local`` attribute read plus a float add.  Reads —
:meth:`MetricsRegistry.snapshot` — sum across cells under the registry lock.

The registry holds process totals only.  A component that exists in
multiples (a cache, a store, an engine) keeps its own counts for its
``stats()`` and adds every event to one series pre-bound at module level;
no label names an object, so the number of series does not grow with the
number of components a process has built.

Snapshots are plain nested dicts (JSON- and pickle-safe), which is what
makes cross-process aggregation work: a worker process takes the
:meth:`MetricsRegistry.totals` of its registry (counters and histograms)
before and after a lease, ships :func:`diff_snapshots` of the two inside
the ``LeaseResult``, and the scheduler folds the delta into the parent
registry via :meth:`MetricsRegistry.merge_snapshot`, which sums.

Occupancy-style values (cache entry counts, store row counts, jobs by
status) are gauges: each series is one callback, evaluated at collect time,
that sums over the :class:`LiveSet` of the components alive in this
process.  Gauges describe the process that collects them, so lease deltas
never carry them.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "diff_snapshots",
    "LiveSet",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds — tuned for the latency
#: range of transpile passes, store queries and benchmark executions).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: A series key: the label values in the instrument's declared label order.
LabelKey = Tuple[str, ...]


def _label_key(labelnames: Sequence[str], labels: Mapping[str, str]) -> LabelKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {tuple(labelnames)}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _ThreadCells:
    """Per-thread cells behind one lock: the lock-free write fast path.

    Each writing thread owns one cell and only that thread writes it, so no
    two threads ever write the same object.  A thread registers its cell
    once, under the shared lock; registering first folds the cells of
    finished threads into one retired cell, so a process that keeps
    starting threads (one per HTTP request) holds as many cells as it has
    live writers, and their counts stay in the total.  Reads sum every cell
    under the lock.
    """

    __slots__ = ("_cells", "_local", "_lock", "_retired")

    def __init__(self, lock: threading.Lock) -> None:
        self._cells: List[Tuple[threading.Thread, Any]] = []
        self._local = threading.local()
        self._lock = lock
        self._retired = self._new_cell()

    def _new_cell(self) -> Any:
        raise NotImplementedError

    def _fold(self, into: Any, cell: Any) -> None:
        raise NotImplementedError

    def _register(self) -> Any:
        """A new cell for the calling thread (its first write to this series)."""
        cell = self._new_cell()
        with self._lock:
            live = []
            for thread, other in self._cells:
                if thread.is_alive():
                    live.append((thread, other))
                else:  # a finished thread never writes its cell again
                    self._fold(self._retired, other)
            live.append((threading.current_thread(), cell))
            self._cells = live
        self._local.cell = cell
        return cell

    def _all(self) -> List[Any]:
        """The retired cell and every live one (caller holds the lock)."""
        return [self._retired] + [cell for _, cell in self._cells]


class _CounterCells(_ThreadCells):
    """Thread-sharded float accumulator; a cell is a one-element list."""

    __slots__ = ()

    def _new_cell(self) -> List[float]:
        return [0.0]

    def _fold(self, into: List[float], cell: List[float]) -> None:
        into[0] += cell[0]

    def add(self, amount: float) -> None:
        cell = getattr(self._local, "cell", None) or self._register()
        cell[0] += amount

    def value(self) -> float:
        with self._lock:
            return sum(cell[0] for cell in self._all())


class _HistogramCells(_ThreadCells):
    """Thread-sharded histogram state: per-thread bucket counts + sum/count."""

    __slots__ = ("_bounds",)

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]) -> None:
        self._bounds = bounds
        super().__init__(lock)

    def _new_cell(self) -> List[Any]:
        return [[0] * (len(self._bounds) + 1), 0.0, 0]  # bucket counts, sum, count

    def _fold(self, into: List[Any], cell: List[Any]) -> None:
        into[0] = [a + b for a, b in zip(into[0], cell[0])]
        into[1] += cell[1]
        into[2] += cell[2]

    def observe(self, value: float) -> None:
        cell = getattr(self._local, "cell", None) or self._register()
        cell[0][bisect.bisect_left(self._bounds, value)] += 1
        cell[1] += value
        cell[2] += 1

    def collect(self) -> Dict[str, Any]:
        total = self._new_cell()
        with self._lock:
            for cell in self._all():
                self._fold(total, cell)
        counts, total_sum, count = total
        return {"buckets": list(self._bounds), "counts": counts, "sum": total_sum, "count": count}


class _Instrument:
    """Shared machinery: name, help text, declared labels, series map."""

    kind = ""

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:  # noqa: A002
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, Any] = {}

    def _series_for(self, labels: Mapping[str, str], factory: Callable[[], Any]) -> Any:
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, factory())
        return series

    def series_keys(self) -> List[LabelKey]:
        with self._lock:
            return list(self._series)

    def _labels_dict(self, key: LabelKey) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    def entry(self) -> Dict[str, Any]:
        """This instrument as one snapshot entry."""
        return {
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": self.collect(),
        }


class Counter(_Instrument):
    """A monotonically increasing value (events: hits, misses, executions)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the series selected by ``labels``."""
        self._series_for(labels, lambda: _CounterCells(self._lock)).add(amount)

    def labels(self, **labels: str) -> _CounterCells:
        """Pre-bind one series for hot paths: ``.add(n)`` / ``.value()``
        without per-call label validation."""
        return self._series_for(labels, lambda: _CounterCells(self._lock))

    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 for a never-written series)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
        return series.value() if series is not None else 0.0

    def collect(self) -> List[Dict[str, Any]]:
        return [
            {"labels": self._labels_dict(key), "value": series.value()}
            for key, series in sorted(self._series.items())
        ]


class Gauge(_Instrument):
    """A point-in-time value (occupancy: cache entries, rows, queue depth).

    Each series is one zero-argument callback (:meth:`set_callback`),
    evaluated at every collect, typically a :meth:`LiveSet.total` over the
    live components of one class.
    """

    kind = "gauge"

    def set_callback(self, callback: Callable[[], float], **labels: str) -> None:
        """Evaluate ``callback`` at every collect for this series."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = callback

    def value(self, **labels: str) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            callback = self._series.get(key)
        return 0.0 if callback is None else float(callback())

    def collect(self) -> List[Dict[str, Any]]:
        with self._lock:
            series = sorted(self._series.items())
        return [
            {"labels": self._labels_dict(key), "value": float(callback())}
            for key, callback in series
        ]


class Histogram(_Instrument):
    """A distribution (latencies): fixed buckets plus running sum and count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        self._series_for(
            labels, lambda: _HistogramCells(self._lock, self.buckets)
        ).observe(value)

    def labels(self, **labels: str) -> _HistogramCells:
        """Pre-bind one series for hot paths: ``.observe(v)`` directly."""
        return self._series_for(labels, lambda: _HistogramCells(self._lock, self.buckets))

    def collect(self) -> List[Dict[str, Any]]:
        return [
            {"labels": self._labels_dict(key), **series.collect()}
            for key, series in sorted(self._series.items())
        ]


class LiveSet:
    """The live components of one class: what that class's gauges sum over.

    A ``weakref.WeakSet`` behind a lock.  A component adds itself when it is
    built and leaves when it is garbage-collected, or earlier through
    :meth:`discard` (a store does, in ``close()``).  :meth:`total` measures
    the members under the lock, so a component that discards itself before
    tearing down is never measured half torn down.
    """

    def __init__(self) -> None:
        self._members: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def add(self, component: Any) -> None:
        with self._lock:
            self._members.add(component)

    def discard(self, component: Any) -> None:
        with self._lock:
            self._members.discard(component)

    def total(self, measure: Callable[[Any], float]) -> float:
        """The sum of ``measure(component)`` over the live components."""
        with self._lock:
            return float(sum(measure(component) for component in list(self._members)))


class MetricsRegistry:
    """Named instruments, one process-wide instance by default.

    Instrument constructors are idempotent get-or-creates: two subsystems
    asking for the same counter name share the instrument (a kind or label
    mismatch raises — one name, one meaning).  :meth:`snapshot` renders the
    whole registry as plain data; :meth:`merge_snapshot` folds a (worker)
    delta back in, kept apart from the local cells and summed with them at
    snapshot time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        #: Snapshot data merged in from other processes, by instrument name.
        self._merged: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # instrument constructors
    # ------------------------------------------------------------------
    def _instrument(
        self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs: Any  # noqa: A002
    ) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} with "
                        f"labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:  # noqa: A002
        return self._instrument(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:  # noqa: A002
        return self._instrument(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._instrument(Histogram, name, help, labelnames, buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, Any]]:
        """The counters and histograms of :meth:`snapshot`: what sums across processes.

        Series merged in from other processes are folded into the same rows.
        A worker diffs this across a lease; it evaluates no gauge callback.
        """
        data = {
            instrument.name: instrument.entry()
            for instrument in self.instruments()
            if not isinstance(instrument, Gauge)
        }
        with self._lock:
            merged = dict(self._merged)
        for name, entry in merged.items():
            local = data.setdefault(name, {**entry, "series": []})
            local["series"] = _merge_series(local["type"], local["series"], entry["series"])
        return data

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The whole registry as plain nested dicts (JSON/pickle-safe).

        Shape: ``{name: {"type", "help", "labelnames", "series": [...]}}``
        where counter/gauge series carry ``"value"`` and histogram series
        carry ``"buckets"/"counts"/"sum"/"count"``: :meth:`totals` plus every
        gauge, evaluated now.
        """
        data = self.totals()
        for instrument in self.instruments():
            if isinstance(instrument, Gauge):
                data[instrument.name] = instrument.entry()
        return data

    def merge_snapshot(self, delta: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold counters and histograms from another registry into this one.

        ``delta`` is :func:`diff_snapshots` of two :meth:`totals` of a worker
        process; every call adds.
        """
        with self._lock:
            for name, entry in delta.items():
                mine = self._merged.get(name)
                if mine is None:
                    self._merged[name] = {**entry, "series": [dict(row) for row in entry["series"]]}
                    continue
                mine["series"] = _merge_series(entry["type"], mine["series"], entry["series"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry(instruments={len(self._instruments)})"


def _merge_series(
    kind: str,
    ours: Iterable[Mapping[str, Any]],
    theirs: Iterable[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Merge two collected counter or histogram series lists by summing."""
    by_labels: Dict[Tuple[Tuple[str, str], ...], Dict[str, Any]] = {}
    for row in ours:
        by_labels[tuple(sorted(row["labels"].items()))] = dict(row)
    for row in theirs:
        key = tuple(sorted(row["labels"].items()))
        mine = by_labels.get(key)
        if mine is None:
            by_labels[key] = dict(row)
            continue
        if kind == "counter":
            mine["value"] = mine["value"] + row["value"]
        else:  # histogram: pointwise bucket sums
            mine["counts"] = [a + b for a, b in zip(mine["counts"], row["counts"])]
            mine["sum"] = mine["sum"] + row["sum"]
            mine["count"] = mine["count"] + row["count"]
    return [by_labels[key] for key in sorted(by_labels)]


def diff_snapshots(
    after: Mapping[str, Mapping[str, Any]],
    before: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The counter and histogram delta between two :meth:`MetricsRegistry.totals`.

    Counters and histogram counts subtract (events that happened between the
    two); series absent from ``before`` pass through unchanged, and series
    that did not move are dropped.  This is what a worker ships per lease,
    so a long-lived worker process reports only the lease's own traffic
    however many leases preceded it.
    """
    delta: Dict[str, Dict[str, Any]] = {}
    for name, entry in after.items():
        old_rows = {
            tuple(sorted(row["labels"].items())): row
            for row in before.get(name, {}).get("series", [])
        }
        series: List[Dict[str, Any]] = []
        for row in entry["series"]:
            row = dict(row)
            old = old_rows.get(tuple(sorted(row["labels"].items())))
            if entry["type"] == "counter":
                if old is not None:
                    row["value"] = row["value"] - old["value"]
                if row["value"] == 0:
                    continue
            else:
                if old is not None:
                    row["counts"] = [a - b for a, b in zip(row["counts"], old["counts"])]
                    row["sum"] = row["sum"] - old["sum"]
                    row["count"] = row["count"] - old["count"]
                if row["count"] == 0:
                    continue
            series.append(row)
        if series:
            delta[name] = {**entry, "series": series}
    return delta


#: The process-wide default registry every subsystem instruments into.
_DEFAULT = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` (what ``GET /metrics`` serves)."""
    return _DEFAULT
