"""Observability for the query pipeline: tracing, metrics, telemetry.

Cooperating pieces, all optional and all free when disabled:

* :mod:`repro.obs.trace` — hierarchical span tracer over the query
  lifecycle (parse → GHD search → attribute ordering → codegen →
  plan-cache lookup → bags → intersections), with lane attribution.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON export
  (``chrome://tracing`` / Perfetto) and schema validation.
* :mod:`repro.obs.metrics` — cross-query counters/gauges/histograms
  (with an optional labels dimension) superseding the scattered
  per-query ``ExecStats`` counters.
* :mod:`repro.obs.explain` — EXPLAIN ANALYZE rendering with
  predicted-vs-actual cost-model error per GHD bag.
* :mod:`repro.obs.telemetry` — process-lifetime pipeline for
  long-lived operation: structured JSONL query log with rotation, the
  :class:`~repro.obs.telemetry.TelemetryHub` lifetime aggregation, and
  slow-query promotion.
* :mod:`repro.obs.flight` — flight recorder: bounded rings of recent
  queries/spans, a write-ahead in-flight journal, post-mortem dumps.
* :mod:`repro.obs.openmetrics` — OpenMetrics/Prometheus text
  exposition, strict in-tree validation, and a stdlib scrape endpoint.

Entry points: ``Database.enable_tracing()`` / ``enable_metrics()`` /
``enable_telemetry()`` / ``explain_analyze()``, the CLI flags
``--trace`` / ``--metrics`` / ``--telemetry`` and the ``repro top``
monitor, and the ``REPRO_TRACE`` environment variable.
"""

from .metrics import MetricsRegistry
from .trace import Tracer, maybe_span

__all__ = ["MetricsRegistry", "Tracer", "maybe_span"]
