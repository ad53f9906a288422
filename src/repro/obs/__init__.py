"""Unified observability layer: tracing, metrics, and report plots.

Three independent, dependency-light pieces threaded through the execution
stack (see ROADMAP.md's telemetry prerequisite for adaptive sweeps):

* :mod:`repro.obs.trace` -- run/phase/round span tracing.  A
  :class:`~repro.obs.trace.Tracer` attaches to :class:`repro.run.Session`
  (``Session(tracer=...)`` or ``session.run(spec, tracer=...)``) and to the
  CLI (``repro run --trace PATH``, ``repro sweep --trace-dir DIR``);
  :class:`~repro.obs.trace.FileTracer` writes one JSONL record per span.
  Every round loop stamps its rounds' start times into one list per run
  whether or not a tracer is attached, so traced and untraced runs take
  the same code path on all four tiers: a tracer only emits what the run
  already recorded (E17 gates the tracing-off overhead at 2%), and
  ``result_bytes`` stays byte-identical with a tracer attached.
* :mod:`repro.obs.metrics` -- process-local counters, gauges and
  fixed-bucket histograms with a Prometheus text renderer (no third-party
  metrics client).  ``repro serve`` aggregates per-request observations
  into ``GET /metrics``; the sweep runner stamps per-cell wall time and
  memory high-water onto every :class:`~repro.orchestration.runner.CellResult`.
* :mod:`repro.obs.report` -- ``repro report --plots``: scaling curves and
  quality-vs-fault frontiers rendered from cached sweep records
  (matplotlib is an *optional* dependency; everything degrades to a clear
  message without it).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    FileTracer,
    NullTracer,
    Tracer,
    load_trace,
    span_tree,
    validate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "NullTracer",
    "FileTracer",
    "load_trace",
    "span_tree",
    "validate_trace",
]
