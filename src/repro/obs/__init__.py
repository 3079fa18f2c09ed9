"""Fleet-wide observability: metrics registry, tracing spans, exposition.

Stdlib-only telemetry for the hot layers.  Modules instrument themselves by
creating metrics at import time and opening spans around their stages::

    from repro import obs

    _ROUND_SECONDS = obs.histogram(
        "repro_fleet_round_latency_seconds", "Wall time of one fleet round."
    )

    with obs.trace("fleet.run_round", devices=len(devices)) as root:
        ...
    _ROUND_SECONDS.observe(root.duration_s)

Everything lands in one process-wide :data:`~repro.obs.metrics.REGISTRY` /
:data:`~repro.obs.tracing.TRACER`, surfaced three ways: ``GET /metrics``
(+ ``/metrics.json``) on the fleet service, the ``repro.cli metrics``
command, and ``--trace <path>`` span-tree dumps.  This module is also the
repository's sanctioned wall-clock home (analysis rule ``OBS001``): direct
``time.perf_counter()`` timing in the instrumented layers is linted away in
favour of spans, so latency numbers and traces can never disagree.

See :mod:`repro.obs.metrics` and :mod:`repro.obs.tracing` for the design
notes (per-metric locking, log-spaced buckets, thread-local span stacks,
the bounded trace ring, and the global enable flag the overhead benchmark
toggles).
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    disabled,
    gauge,
    histogram,
    is_enabled,
    registry,
    set_enabled,
)
from repro.obs.tracing import (
    TRACER,
    Span,
    Tracer,
    clear_traces,
    export_traces,
    span,
    span_under,
    trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "set_enabled",
    "is_enabled",
    "disabled",
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "span_under",
    "trace",
    "export_traces",
    "clear_traces",
]
