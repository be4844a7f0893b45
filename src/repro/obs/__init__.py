"""``repro.obs`` — the telemetry layer: span tracing, metrics, exposition.

Three pieces, used together by the serving stack and individually by tests
and tools:

* :mod:`repro.obs.tracer` — opt-in hierarchical span tracing with JSONL
  export (``repro batch --trace``); free when inactive.
* :mod:`repro.obs.metrics` — counters/gauges/fixed-bucket histograms in a
  thread-safe registry with Prometheus text exposition (``repro daemon
  status --prom``, the daemon's ``metrics`` protocol verb).
* :mod:`repro.obs.soak` — the multi-client soak harness driving a daemon at
  a sustained target qps while scraping its metrics (``repro soak``).

:mod:`repro.obs.trace_tools` turns exported traces into per-phase totals,
the critical path and the slowest pairs (``repro trace summarize``).
"""

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    global_registry,
    parse_exposition,
    render_registries,
)
from repro.obs.tracer import (
    NULL_SPAN,
    Span,
    SpanRecord,
    Tracer,
    activate,
    active_tracer,
    deactivate,
    read_spans_jsonl,
    record_span,
    span,
    start_span,
    tracing,
)

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "SpanRecord",
    "Tracer",
    "activate",
    "active_tracer",
    "deactivate",
    "global_registry",
    "parse_exposition",
    "read_spans_jsonl",
    "record_span",
    "render_registries",
    "span",
    "start_span",
    "tracing",
]
