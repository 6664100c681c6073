"""Multi-process sharded serving cluster.

PR 2 made the pipeline a *service* (one process, thread pool, shared
stage cache); this package makes it a *cluster*: N worker **processes**
consuming enveloped requests from a broker-style work queue, each
warm-booted from the model registry against its own shard of the
artifact store, supervised by a client that health-checks, restarts
crashed workers, redelivers their in-flight requests and aggregates
per-worker metrics into one dashboard.

* :mod:`repro.cluster.broker` -- message envelopes, the
  ``multiprocessing``-queue transport :class:`LocalQueueBroker` and the
  consistent-hash :class:`ShardRing` router;
* :mod:`repro.cluster.worker` -- the worker process: registry warm
  boot, then a :class:`repro.serve.IdentificationService` behind a
  broker adapter, heartbeats, SIGTERM drain;
* :mod:`repro.cluster.client` -- :class:`ClusterClient`, the
  ``submit()/identify()`` front door mirroring
  :class:`repro.serve.IdentificationService`, which also owns process
  supervision, health checks, restart + redelivery and cross-process
  metrics aggregation.

``tests/test_cluster.py`` holds its contracts: labels equal to the
single-process engine, and a SIGKILLed worker restarted with zero lost
requests.  ``BENCH_PR7.json`` records one cluster vs single-process
service run.
"""

from repro.cluster.broker import (
    Envelope,
    Heartbeat,
    LocalQueueBroker,
    Reply,
    ShardRing,
    Shutdown,
)
from repro.cluster.client import (
    ClusterClient,
    ClusterConfig,
    ClusterError,
    RemoteError,
)
from repro.cluster.worker import WorkerBoot, worker_main

__all__ = [
    "ClusterClient",
    "ClusterConfig",
    "ClusterError",
    "Envelope",
    "Heartbeat",
    "LocalQueueBroker",
    "RemoteError",
    "Reply",
    "ShardRing",
    "Shutdown",
    "WorkerBoot",
    "worker_main",
]
