"""Online identification service over the stage-graph engine.

PR 1 made the pipeline an engine (memoized stages, batch APIs); this
package makes it a *service*: a bounded request queue with explicit
rejection, a micro-batching scheduler that co-schedules concurrent
sessions through one denoiser pass, a pool of worker threads with
per-request fault isolation and retry-with-backoff, and a
dependency-free metrics registry covering the whole path.

* :mod:`repro.serve.service` -- ``submit() -> RequestHandle`` request
  layer, deadlines, lifecycle, backpressure semantics;
* :mod:`repro.serve.batcher` -- max-batch-size / max-wait drain policy;
* :mod:`repro.serve.workers` -- engine views over the shared
  :class:`repro.engine.StageCache`, isolation and retries;
* :mod:`repro.serve.metrics` -- counters, gauges, fixed-bucket
  histograms (p50/p95/p99), snapshots and text rendering;
* :mod:`repro.serve.streaming` -- packet-streaming identification
  sessions (submit packets, poll the converging estimate, finalize).

``benchmarks/test_perf_serve.py`` replays a synthetic multi-material
workload through the service and prints the whole dashboard.
"""

from repro.serve.metrics import (
    BATCH_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    StageEventRecorder,
)
from repro.serve.service import (
    DeadlineExceededError,
    IdentificationService,
    OverloadError,
    QueueFullError,
    RequestHandle,
    ServeError,
    ServiceConfig,
    ServiceStoppedError,
)
from repro.serve.signals import GracefulShutdown, install_graceful_shutdown
from repro.serve.streaming import (
    StreamClosedError,
    StreamLimitError,
    StreamingGateway,
    StreamingSession,
)
from repro.serve.workers import WorkerPool, default_runner

__all__ = [
    "GracefulShutdown",
    "install_graceful_shutdown",
    "StreamClosedError",
    "StreamLimitError",
    "StreamingGateway",
    "StreamingSession",
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "DeadlineExceededError",
    "Gauge",
    "Histogram",
    "IdentificationService",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "OverloadError",
    "QueueFullError",
    "RequestHandle",
    "ServeError",
    "ServiceConfig",
    "ServiceStoppedError",
    "StageEventRecorder",
    "WorkerPool",
    "default_runner",
]
