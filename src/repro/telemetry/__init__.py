"""Unified telemetry: metrics registry, tracing spans, exporters.

The observability layer every subsystem instruments into: a process-wide
:class:`MetricsRegistry` of typed :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments (lock-free thread-sharded writes, labeled
series holding process totals, gauges summed over the live components of
one class, snapshot/merge/diff for cross-process aggregation), a process-wide
:class:`Tracer` producing nested :class:`Span` records (wall + CPU time,
deterministic ids under a fixed seed, near-zero cost when disabled), and
exporters for the three surfaces: Prometheus text (``GET /metrics``),
NDJSON spans (``GET /jobs/<id>/trace``) and Chrome trace-event JSON
(``repro run --trace out.json``; open in Perfetto).

See ``docs/telemetry.md`` for the instrument table and span taxonomy.
"""

from .export import spans_to_chrome_trace, spans_to_ndjson, to_json, to_prometheus
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LiveSet,
    MetricsRegistry,
    diff_snapshots,
    get_metrics,
)
from .tracing import NULL_SPAN, Span, Tracer, configure_tracing, get_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "diff_snapshots",
    "LiveSet",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "configure_tracing",
    "to_prometheus",
    "to_json",
    "spans_to_ndjson",
    "spans_to_chrome_trace",
]
