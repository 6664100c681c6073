"""The four WiMi benchmark workloads and how each one is measured.

Every input is generated before any timing starts.  One simulated
deployment (:func:`repro.experiments.datasets.standard_scene` through a
:class:`repro.csi.collector.DataCollector`) supplies the training
sessions (ten paper liquids, 20 packets each) from the fixed
:data:`DEPLOYMENT_SEED`, and then, from the run's seed, the workload's
test sessions.  Every run therefore fits the same model, and only the
captured test sessions change with the seed.  The open-loop arrival
schedules are seeded by per-workload constants, so every run of
``serve`` (and of ``cluster``) offers the same arrival pattern.

Why these four workloads:

* ``batch`` -- closed loop of ``WiMi.identify_batch`` on distinct
  200-packet sessions, ten per call (one per liquid), with the stage
  cache cleared before every call.  Compute-bound in ``engine``/``dsp``;
  bypasses ``serve`` and gets no cross-request cache hits, so denoise,
  quality-gate and batch-stacking work shows here.
* ``serve`` -- open loop into ``IdentificationService`` with 20-packet
  sessions (the paper's default) at a fixed Poisson rate a little under
  half the service's closed-loop capacity; half the arrivals resubmit an
  earlier session.  Per-request compute is small, so queueing, batching
  and memory-tier hits make up much of the latency.
* ``stream`` -- one stream at a time through ``StreamingGateway``, fed
  packet by packet (200 per trace).  Exercises the streaming extractor
  and ``stream_window_denoise``; bypasses the queue and the batcher.
* ``cluster`` -- the ``serve`` schedule shape, at a lower rate, sent to
  ``ClusterClient`` with one worker process (parent and worker fit on
  two cores) and a fresh artifact store, so every stage compute writes
  through to disk.  The only workload that measures ``cluster``,
  ``persist`` writes and broker transit.

Every workload reports every metric ``BENCHMARK.json`` declares.  End to
end (untraced run):

* ``setup_s`` -- median of several set-ups: ``WiMi.fit`` on the training
  sessions, then the start of the workload's front end (nothing for
  ``batch``; the service; the gateway; for ``cluster``,
  ``save_to_registry`` plus the worker's boot).
* ``identify_ms`` -- median wall time to identify one session as the
  workload's caller sees it: for ``batch``, an ``identify_batch`` call's
  time divided by its sessions; for ``serve``, from the due time of a
  request that sends a session for the first time to when the benchmark
  observes its label; for ``cluster``, the same for a request that
  resubmits a session (see :class:`ClusterWorkload`); the medians over
  all requests and over the other kind are in the detail line; for
  ``stream``, from the first target packet pushed to the label that
  ``finalize`` returns.
* ``accuracy``, ``ok_frac`` and ``peak_rss_mb`` (see :class:`Checker`).

Per layer (traced run), on every workload: ``core.fit_s`` and
``ml.fit_s`` of the set-up, ``engine.computes`` per session and
``engine.cache_hit_frac``, ``core.compute_ms`` (time per session inside
WiMi's identification calls; for ``cluster``, the worker's own
``handle_ms``, since its engine runs in another process) and
``trace.overhead_frac``.  The finer breakdown that exists only on some
workloads -- engine stage self times, the denoiser, the ``serve``,
``cluster``, ``persist`` and generator layers -- is printed by name in
the detail line's ``layers``, not as metrics, because a metric must
mean the same measured thing on every workload.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import math
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro.cluster import ClusterClient, ClusterConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.quality import CorruptTraceError
from repro.engine.cache import StageCache
from repro.experiments.datasets import paper_liquids, standard_scene
from repro.persist.store import ArtifactStore
from repro.serve import IdentificationService, ServiceConfig
from repro.serve.service import ServeError
from repro.serve.streaming import StreamingGateway

from spans import Tracer

#: Open-loop offered rates (arrivals per second).  Closed-loop capacity on
#: this schedule's mix (half repeats, 20-packet sessions) with two callers
#: waiting for replies was about 105/s for the service and 69/s for the
#: one-worker cluster, measured on a 2-vCPU x86 VM.  The service runs a
#: little under half of that; at 50-60/s its latency tail spread past the
#: benchmark's bounds from run to run.  The cluster runs at about a fifth,
#: so that a slow phase of the host does not push it past a sustainable
#: rate.
SERVE_RATE = 40.0
CLUSTER_RATE = 15.0
#: Seed of the simulated deployment and its training sessions
#: (independent of ``--seed``, which seeds the test sessions).
DEPLOYMENT_SEED = 20190707
#: Seeds of the fixed arrival schedules (independent of ``--seed``).
SERVE_SCHEDULE_SEED = 1
CLUSTER_SCHEDULE_SEED = 2
#: Share of arrivals that resubmit an earlier session.
REPEAT_SHARE = 0.5
#: Backlog growth (in seconds of arrivals) between the first and the last
#: quarter of a schedule beyond which the rate counts as unsustainable.
BACKLOG_GROWTH_LIMIT_S = 0.25
#: Percentiles a tail may be reported at; the highest one with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is used.  The ladder stops at
#: p99: further out, a run of a dozen seconds holds too few samples for
#: the tail to repeat from run to run on a shared 2-vCPU machine.
TAIL_LADDER = (50.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10
#: Closure gate of the traced ``batch`` breakdown.
MAX_BREAKDOWN_RESIDUAL = 0.10
#: Spans whose subtree is set-up work, not identification.
SETUP_ROOTS = ("core.fit", "persist.registry_save")

@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`PAPER` is the benchmark, :data:`TINY` the self-test."""

    train_reps: int = 8
    setup_repeats: int = 5
    short_packets: int = 20
    long_packets: int = 200
    batch_reps: int = 8
    stream_reps: int = 5


PAPER = Sizes()
TINY = Sizes(
    train_reps=3, setup_repeats=1, long_packets=40, batch_reps=1, stream_reps=1
)


@dataclasses.dataclass
class Outcome:
    """What one run reports."""

    #: Metric name to value; the units are declared in ``BENCHMARK.json``.
    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    details: dict


class Checker:
    """Compares every returned label with in-process ``WiMi.identify``.

    An operation that errors or is refused (``label is None``) counts in
    ``errors``; one that returns a different label counts in
    ``mismatches``.  Both are failures against ``ok_frac``.
    """

    def __init__(self, sessions: list, expected: list[str | None]):
        self.sessions = sessions
        self.expected = expected
        self.first_label: dict[int, str] = {}
        self.attempted = 0
        self.ok = 0
        self.errors = 0
        self.mismatches = 0

    def record(self, index: int, label: str | None) -> None:
        self.attempted += 1
        if label is None:
            self.errors += 1
            return
        self.first_label.setdefault(index, label)
        if label == self.expected[index]:
            self.ok += 1
        else:
            self.mismatches += 1

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def outputs_correct(self, exact: bool) -> bool:
        """No errors, and no mismatches where the workload runs exactly
        the computation ``identify`` runs."""
        return self.errors == 0 and (not exact or self.mismatches == 0)

    def accuracy(self) -> float:
        if not self.sessions:
            raise RuntimeError("no sessions to score: accuracy is undefined")
        right = sum(
            self.first_label.get(i) == session.material_name
            for i, session in enumerate(self.sessions)
        )
        return right / len(self.sessions)

    def ok_frac(self) -> float:
        if self.attempted == 0:
            raise RuntimeError("no operation was attempted: ok_frac is undefined")
        return self.ok / self.attempted


def reference_labels(wimi: WiMi, sessions: list) -> list[str | None]:
    """In-process ``identify`` per session, on a cache of its own."""
    view = wimi.clone_view(cache=StageCache())
    labels: list[str | None] = []
    for session in sessions:
        try:
            labels.append(view.identify(session))
        except CorruptTraceError:
            labels.append(None)
    return labels


def tail(values, ladder=TAIL_LADDER) -> tuple[float, float]:
    """``(percentile, value)`` at the highest ladder percentile with at
    least :data:`TAIL_MIN_BEYOND` samples beyond it."""
    n = len(values)
    supported = [p for p in ladder if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND]
    if not supported:
        raise RuntimeError(
            f"{n} samples cannot support a tail with {TAIL_MIN_BEYOND} beyond"
        )
    p = supported[-1]
    return p, float(np.percentile(values, p))


def machine_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy + interpreter workload.

    Not a metric of WiMi: it is reported next to the metrics so that a
    shift in them can be told apart from a shift in the machine's speed.
    """
    data = np.random.default_rng(0).normal(size=(200, 180))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(100):
            acc += float(np.median(np.sort(data, axis=0)[:, :50], axis=0).sum())
            for i in range(2000):
                acc += i * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def cache_counts(snapshot: dict) -> tuple[int, int]:
    """``(hits, misses)`` summed over the stages of a cache snapshot."""
    hits = sum(stage["hits"] for stage in snapshot.values())
    misses = sum(stage["misses"] for stage in snapshot.values())
    return hits, misses


def peak_rss_mb(include_children: bool = False) -> float:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def arrival_schedule(rate: float, seconds: float, seed: int):
    """Poisson due times plus, per arrival, the distinct session it sends.

    Returns ``(due_s, picks, num_distinct)``; an arrival either introduces
    the next distinct session or, with probability :data:`REPEAT_SHARE`,
    resubmits a uniformly chosen earlier one.
    """
    rng = np.random.default_rng(seed)
    due: list[float] = []
    t = rng.exponential(1.0 / rate)
    while t < seconds:
        due.append(float(t))
        t += rng.exponential(1.0 / rate)
    picks: list[int] = []
    distinct = 0
    for _ in due:
        if distinct and rng.random() < REPEAT_SHARE:
            picks.append(int(rng.integers(distinct)))
        else:
            picks.append(distinct)
            distinct += 1
    return due, picks, distinct


# ----------------------------------------------------------------------
# Open-loop load generator
# ----------------------------------------------------------------------


class OpenLoop:
    """Sends a fixed schedule regardless of how fast replies come back.

    The calling thread is the generator: it sleeps until each due time
    and submits.  One observer thread stamps each request's completion
    with the benchmark's own clock: it blocks on the oldest outstanding
    handle for at most :data:`POLL_S` and then sweeps all of them, so an
    out-of-order completion is seen within that interval.
    """

    POLL_S = 0.001
    LEAD_S = 0.05

    def __init__(self, submit, sessions, due, picks):
        self.submit = submit
        self.sessions = sessions
        self.due = due
        self.picks = picks
        n = len(due)
        self.sent = [math.nan] * n
        self.observed = [math.nan] * n
        self.handles: list = [None] * n
        self.errors: list = [None] * n
        self.backlog: list[int] = []
        self.start = math.nan
        self._pending: collections.deque = collections.deque()
        self._cond = threading.Condition()
        self._closed = False

    def _observe(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return
                oldest = self._pending[0][1]
            try:
                oldest.exception(timeout=self.POLL_S)
            except TimeoutError:
                pass
            now = time.perf_counter()
            with self._cond:
                still = collections.deque()
                for index, handle in self._pending:
                    if handle.done():
                        self.observed[index] = now
                    else:
                        still.append((index, handle))
                self._pending = still

    def run(self, drain_timeout_s: float) -> None:
        """Send the schedule and wait for every reply."""
        observer = threading.Thread(target=self._observe, name="bench-observer")
        observer.start()
        self.start = time.perf_counter() + self.LEAD_S
        try:
            for k, (due, pick) in enumerate(zip(self.due, self.picks)):
                delay = self.start + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.sent[k] = time.perf_counter()
                try:
                    handle = self.submit(self.sessions[pick])
                except ServeError as error:
                    self.errors[k] = error
                    continue
                self.handles[k] = handle
                with self._cond:
                    self._pending.append((k, handle))
                    self.backlog.append(len(self._pending))
                    self._cond.notify()
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify()
            observer.join(timeout=drain_timeout_s)
        if observer.is_alive():
            raise RuntimeError(
                f"replies still outstanding {drain_timeout_s:.0f}s after the "
                "schedule ended"
            )
        for k, handle in enumerate(self.handles):
            if handle is not None and handle.exception() is not None:
                self.errors[k] = handle.exception()

    def label(self, k: int) -> str | None:
        if self.errors[k] is not None or self.handles[k] is None:
            return None
        return self.handles[k].result()

    def latencies_ms(self, requests=None) -> list[float]:
        """Due time to observed reply, for every successful request (or
        every successful one of ``requests``)."""
        return [
            (self.observed[k] - (self.start + self.due[k])) * 1000.0
            for k in (range(len(self.due)) if requests is None else requests)
            if self.label(k) is not None
        ]

    def late_ms(self) -> list[float]:
        return [
            (self.sent[k] - (self.start + self.due[k])) * 1000.0
            for k in range(len(self.due))
        ]

    def backlog_growth(self) -> float:
        """Mean backlog of the last quarter minus that of the first."""
        quarter = max(1, len(self.backlog) // 4)
        return statistics.fmean(self.backlog[-quarter:]) - statistics.fmean(
            self.backlog[:quarter]
        )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Inputs, front end and measurement of one workload.

    ``measure`` returns a dict with at least the :class:`Checker` of the
    pass, ``identify_ms`` (the gated per-session time), ``primary_s`` (the
    time the trace overhead is judged on), and the stage cache ``hits``
    and ``misses`` of the pass.
    """

    name = ""
    #: Whether the workload computes exactly what ``WiMi.identify`` does,
    #: so that any label disagreement is a wrong output.
    exact = True

    def __init__(self, sizes: Sizes, run_dir: Path, seconds: float):
        self.sizes = sizes
        self.run_dir = run_dir
        self.seconds = seconds
        self.sessions: list = []

    def make_inputs(self, collector: DataCollector, liquids) -> None:
        raise NotImplementedError

    def start(self, wimi: WiMi, slot: str):
        raise NotImplementedError

    def stop(self, front) -> None:
        raise NotImplementedError

    def warm_up(self, front) -> None:
        """Run a few sessions outside the measured pool through a freshly
        started front end, so that measuring starts warm.

        Nothing by default: in a closed loop a slow first call delays no
        other, and the reported median passes over it.
        """

    def measure(self, front, expected) -> dict:
        raise NotImplementedError

    def compute_ms(self, result: dict, tracer: Tracer) -> float:
        """Time per session inside WiMi's identification calls."""
        raise NotImplementedError

    def layer_details(self, result: dict, tracer: Tracer) -> dict[str, float]:
        """This workload's own breakdown, printed in the detail line."""
        raise NotImplementedError

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def sessions_measured(self, result: dict) -> int:
        return result["checker"].attempted

    def layers(self, result: dict, tracer: Tracer):
        """``(metrics, details)`` of a traced pass.

        The metrics are the per-layer metrics every workload reports; the
        details are the workload's own breakdown.
        """
        sessions = self.sessions_measured(result)
        hits, misses = result["hits"], result["misses"]
        metrics = {
            "engine.computes": misses / sessions,
            "engine.cache_hit_frac": hits / max(hits + misses, 1),
            "core.compute_ms": self.compute_ms(result, tracer),
        }
        return metrics, self.layer_details(result, tracer)

    def _collect(self, collector, liquids, count: int, packets: int) -> None:
        config = SessionConfig(num_packets=packets)
        self.sessions = [
            collector.collect(liquids[i % len(liquids)], config)
            for i in range(count)
        ]


def engine_layers(
    tracer: Tracer, sessions: int, stages: tuple[str, ...]
) -> dict[str, float]:
    """Per-session engine stage self times and the denoiser."""
    out: dict[str, float] = {}
    for stage in stages:
        total = tracer.self_total_s(f"engine.{stage}", SETUP_ROOTS)
        out[f"engine.{stage}.self_ms"] = total * 1000.0 / sessions
    denoise = tracer.named("dsp.denoise", SETUP_ROOTS)
    out["dsp.denoise_ms"] = sum(s.duration_s for s in denoise) * 1000.0 / sessions
    out["dsp.denoise_calls"] = len(denoise) / sessions
    return out


def histogram_delta_mean(before: dict, after: dict) -> float:
    """Mean of the observations a histogram gained between two snapshots."""
    count = after["count"] - before["count"]
    if count <= 0:
        raise RuntimeError("no observation between the two snapshots")
    return (after["mean"] * after["count"] - before["mean"] * before["count"]) / count


def fit_layers(tracer: Tracer) -> dict[str, float]:
    return {
        "ml.fit_s": tracer.mean_s("ml.fit"),
        "core.fit_s": tracer.mean_s("core.fit"),
    }


def identify_batch_ms(tracer: Tracer) -> float:
    """Total time of the traced ``identify_batch`` calls, in ms."""
    return sum(
        span.duration_s for span in tracer.named("core.identify_batch")
    ) * 1000.0


class BatchWorkload(Workload):
    name = "batch"
    #: Stages every identify runs.  Subcarrier re-selection runs only for
    #: degraded captures; its time still enters the breakdown closure.
    STAGES = (
        "trace_quality", "phase_calibration", "amplitude_denoise",
        "observables", "extract_feature", "classify",
    )

    def make_inputs(self, collector, liquids):
        self.batch_size = len(liquids)
        self._collect(
            collector, liquids, self.sizes.batch_reps * len(liquids),
            self.sizes.long_packets,
        )

    def start(self, wimi, slot):
        return wimi

    def stop(self, front):
        pass

    def measure(self, wimi, expected):
        checker = Checker(self.sessions, expected)
        batches = [
            list(range(i, min(i + self.batch_size, len(self.sessions))))
            for i in range(0, len(self.sessions), self.batch_size)
        ]
        per_session_s: list[float] = []
        hits = misses = 0
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < len(batches) or time.perf_counter() < deadline:
            indices = batches[k % len(batches)]
            k += 1
            wimi.cache.clear()
            batch = [self.sessions[i] for i in indices]
            t0 = time.perf_counter()
            try:
                labels = wimi.identify_batch(batch)
            except CorruptTraceError:
                labels = [None] * len(batch)
            elapsed = time.perf_counter() - t0
            h, m = cache_counts(wimi.cache.snapshot())
            hits, misses = hits + h, misses + m
            per_session_s.append(elapsed / len(batch))
            for index, label in zip(indices, labels):
                checker.record(index, label)
        median_s = statistics.median(per_session_s)
        return {
            "checker": checker,
            "identify_ms": median_s * 1000.0,
            "throughput_sps": 1.0 / median_s,
            "primary_s": median_s,
            "hits": hits,
            "misses": misses,
        }

    def compute_ms(self, result, tracer):
        return identify_batch_ms(tracer) / self.sessions_measured(result)

    def layer_details(self, result, tracer):
        sessions = self.sessions_measured(result)
        out = engine_layers(tracer, sessions, self.STAGES)
        calls = tracer.named("core.identify_batch")
        total_ms = identify_batch_ms(tracer) / sessions
        call_ids = {id(span) for span in calls}
        stage_time: dict[int, float] = collections.defaultdict(float)
        for span in tracer.spans:
            if span.layer == "engine" and id(span.parent) in call_ids:
                stage_time[id(span.parent)] += span.duration_s
        out["core.glue_ms"] = sum(
            span.duration_s - stage_time[id(span)] for span in calls
        ) * 1000.0 / sessions
        # Closure over the reported stages: time in an engine stage that
        # is not reported (or in one that is not traced) shows as residual.
        reported_ms = out["core.glue_ms"] + sum(
            out[f"engine.{stage}.self_ms"] for stage in self.STAGES
        )
        result["breakdown"] = {
            "identify_batch_ms": total_ms,
            "stages_plus_glue_ms": reported_ms,
            "residual": (reported_ms - total_ms) / total_ms,
        }
        return out


class OpenLoopWorkload(Workload):
    """Shared shape of ``serve`` and ``cluster``: a fixed open-loop schedule
    of 20-packet sessions."""

    rate = 0.0
    schedule_seed = 0
    #: Large enough that a transient stall queues instead of rejecting.
    QUEUE_CAPACITY = 1024
    #: Time to wait for a warm-up reply.
    WARM_UP_TIMEOUT_S = 60.0
    #: Whether ``identify_ms`` is the median latency of resubmitted
    #: sessions instead of that of first sends.
    gate_repeats = False

    def make_inputs(self, collector, liquids):
        self.due, self.picks, distinct = arrival_schedule(
            self.rate, self.seconds, self.schedule_seed
        )
        self._collect(collector, liquids, distinct, self.sizes.short_packets)
        config = SessionConfig(num_packets=self.sizes.short_packets)
        self.warm_sessions = [
            collector.collect(material, config) for material in liquids
        ]

    def warm_up(self, front):
        # A fresh front end's first requests pay for lazy imports and cold
        # code paths; in an open loop they would queue the requests behind
        # them.  One request at a time, each a session the schedule never
        # sends, so the measured cache hits are unchanged.
        for session in self.warm_sessions:
            front.submit(session).result(timeout=self.WARM_UP_TIMEOUT_S)

    def sessions_measured(self, result):
        return len(self.due)

    def drive(self, front, expected) -> dict:
        loop = OpenLoop(front.submit, self.sessions, self.due, self.picks)
        loop.run(drain_timeout_s=60.0 + self.seconds)
        checker = Checker(self.sessions, expected)
        for k, pick in enumerate(self.picks):
            checker.record(pick, loop.label(k))
        latencies = loop.latencies_ms()
        # A request that sends a session for the first time is computed;
        # a resubmission is mostly a cache hit, several times faster.  The
        # two modes are about equally common, so the median over all
        # requests falls in the gap between them and jumps from run to
        # run; the median of each mode does not.
        seen: set[int] = set()
        first_sends = []
        for k, pick in enumerate(self.picks):
            if pick not in seen:
                seen.add(pick)
                first_sends.append(k)
        repeats = sorted(set(range(len(self.picks))) - set(first_sends))
        new_ms = loop.latencies_ms(first_sends)
        repeat_ms = loop.latencies_ms(repeats)
        if not new_ms or not repeat_ms:
            raise RuntimeError("no request succeeded: latency is undefined")
        percentile, tail_ms = tail(latencies)
        late_percentile, late_ms = tail(loop.late_ms())
        growth = loop.backlog_growth()
        new_p50_ms = statistics.median(new_ms)
        repeat_p50_ms = statistics.median(repeat_ms)
        identify_ms = repeat_p50_ms if self.gate_repeats else new_p50_ms
        return {
            "checker": checker,
            "loop": loop,
            "identify_ms": identify_ms,
            "p50_ms": statistics.median(latencies),
            "new_p50_ms": new_p50_ms,
            "repeat_p50_ms": repeat_p50_ms,
            "tail": (percentile, tail_ms, len(latencies)),
            "primary_s": identify_ms / 1000.0,
            "late": (late_percentile, late_ms),
            "backlog_growth": growth,
            "valid": growth <= BACKLOG_GROWTH_LIMIT_S * self.rate,
        }

    def latency_layers(self, result) -> dict[str, float]:
        return {
            f"{self.name}.latency_p50_ms": result["p50_ms"],
            f"{self.name}.latency_new_p50_ms": result["new_p50_ms"],
            f"{self.name}.latency_repeat_p50_ms": result["repeat_p50_ms"],
            f"{self.name}.latency_tail_ms": result["tail"][1],
            "gen.late_ms": result["late"][1],
        }


class ServeWorkload(OpenLoopWorkload):
    name = "serve"
    rate = SERVE_RATE
    schedule_seed = SERVE_SCHEDULE_SEED
    STAGES = BatchWorkload.STAGES

    def start(self, wimi, slot):
        return IdentificationService(
            wimi, ServiceConfig(queue_capacity=self.QUEUE_CAPACITY)
        ).start()

    def stop(self, service):
        service.stop()

    def measure(self, service, expected):
        before = service.snapshot()
        result = self.drive(service, expected)
        after = service.snapshot()
        b_hits, b_misses = cache_counts(before["stage_cache"])
        a_hits, a_misses = cache_counts(after["stage_cache"])
        result["hits"] = a_hits - b_hits
        result["misses"] = a_misses - b_misses
        result["batch_size_mean"] = histogram_delta_mean(
            before["histograms"]["batch_size"], after["histograms"]["batch_size"]
        )
        result["requests"] = {
            name: after["counters"][f"requests.{name}"]
            - before["counters"][f"requests.{name}"]
            for name in ("retries", "shed", "rejected")
        }
        return result

    def compute_ms(self, result, tracer):
        return identify_batch_ms(tracer) / self.sessions_measured(result)

    def layer_details(self, result, tracer):
        loop: OpenLoop = result["loop"]
        out = engine_layers(tracer, self.sessions_measured(result), self.STAGES)
        # Each request's covering identify_batch: the first batch holding
        # its session that started after the request was sent.
        batches: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
        for span in tracer.named("core.identify_batch"):
            for session_id in span.attrs:
                batches[session_id].append((span.start, span.duration_s))
        for spans in batches.values():
            spans.sort()
        waits = []
        for k, pick in enumerate(self.picks):
            if loop.label(k) is None:
                continue
            spans = batches[id(self.sessions[pick])]
            i = bisect.bisect_left(spans, (loop.sent[k], -math.inf))
            if i == len(spans):
                raise RuntimeError(f"request {k} has no covering identify_batch")
            e2e_s = loop.observed[k] - (loop.start + self.due[k])
            waits.append(e2e_s - spans[i][1])
        out.update(self.latency_layers(result))
        out["serve.submit_ms"] = tracer.mean_s("serve.submit") * 1000.0
        out["serve.wait_ms"] = statistics.fmean(waits) * 1000.0
        out["serve.batch_size_mean"] = result["batch_size_mean"]
        for name, count in result["requests"].items():
            out[f"requests.{name}"] = count
        return out


class ClusterWorkload(OpenLoopWorkload):
    name = "cluster"
    rate = CLUSTER_RATE
    schedule_seed = CLUSTER_SCHEDULE_SEED
    # A first send's latency is mostly the worker's compute and its
    # write-through to the store, and the worker process's compute speed
    # moved by up to 45% between runs of one seed on a 2-vCPU VM (handle
    # time 5.7 vs 8.3 ms per request); over ten consecutive runs the
    # median first-send latency drifted from 18.6 to 27.5 ms, a spread of
    # 0.27 of its median.  A resubmission's latency -- broker transit,
    # worker batching and a memory-tier hit -- stayed within 3%, so that
    # is what the cluster gates; first sends are in the detail line.
    gate_repeats = True

    def start(self, wimi, slot):
        root = self.run_dir / slot
        registry = root / "registry"
        wimi.save_to_registry(registry)
        self.store_root = root / "store"
        client = ClusterClient(
            registry,
            config=ClusterConfig(
                num_workers=1, queue_capacity=self.QUEUE_CAPACITY
            ),
            store_root=self.store_root,
        )
        return client.start()

    def stop(self, client):
        client.stop()

    def rss_mb(self):
        return peak_rss_mb(include_children=True)

    def warm_up(self, client):
        super().warm_up(client)
        # The worker's metrics reach this process with its heartbeats; wait
        # for one that holds every warm-up reply, and subtract it later.
        deadline = time.perf_counter() + self.WARM_UP_TIMEOUT_S
        while True:
            merged = client.snapshot()["merged"]
            completed = merged["counters"].get("requests.completed", 0)
            if completed >= len(self.warm_sessions):
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("the worker's heartbeats never counted the warm-up")
            time.sleep(0.05)
        self.warm_metrics = merged
        self.warm_store = self.store_stats()

    def store_stats(self) -> dict:
        return ArtifactStore(self.store_root / "shard-0").stats()

    def measure(self, client, expected):
        result = self.drive(client, expected)
        # Stopping drains the workers' final heartbeats into the snapshot.
        client.stop()
        snap = client.snapshot()
        result["snapshot"] = snap
        store, warm = self.store_stats(), self.warm_store
        result["store"] = {
            "entries": store["entries"] - warm["entries"],
            "bytes": store["bytes"] - warm["bytes"],
            "quarantined": store["quarantine"]["entries"]
            - warm["quarantine"]["entries"],
        }
        # The engine runs in the worker: its stage resolutions reach this
        # process as the worker's cache counters, less the warm-up's.
        after = snap["merged"]["counters"]
        before = self.warm_metrics["counters"]

        def delta(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        result["hits"] = delta("cache.memory_hits") + delta("cache.disk_hits")
        result["misses"] = delta("cache.misses")
        result["worker"] = {
            name: histogram_delta_mean(
                self.warm_metrics["histograms"][name],
                snap["merged"]["histograms"][name],
            )
            for name in ("queue_wait_ms", "handle_ms", "batch_size")
        }
        return result

    def compute_ms(self, result, tracer):
        # The worker's share of each batch's identify_batch time, per
        # request, from its own metrics (the tracer lives in this process).
        return result["worker"]["handle_ms"]

    def layer_details(self, result, tracer):
        worker = result["worker"]
        # Worker-side time per request: its queue wait (stamped when the
        # envelope was built, so it includes the trip through the broker)
        # plus the time of the batch it rode in.  The rest of the
        # end-to-end latency is the reply's transit and the parent side.
        worker_ms = worker["queue_wait_ms"] + worker["handle_ms"] * worker["batch_size"]
        latencies = result["loop"].latencies_ms()
        counters = result["snapshot"]["cluster"]["counters"]
        store = result["store"]
        out = {
            **self.latency_layers(result),
            "cluster.submit_ms": tracer.mean_s("cluster.submit") * 1000.0,
            "cluster.worker_ms": worker_ms,
            "cluster.transit_ms": statistics.fmean(latencies) - worker_ms,
            "persist.objects_written": store["entries"],
            "persist.bytes_written": store["bytes"],
            "persist.quarantined": store["quarantined"],
            "persist.registry_save_s": tracer.mean_s("persist.registry_save"),
        }
        for name in ("hedges", "redeliveries", "duplicate_replies", "restarts"):
            out[f"cluster.{name}"] = counters[f"cluster.{name}"]
        return out


class StreamWorkload(Workload):
    name = "stream"
    # Streaming features come from overlap-added window denoising, not the
    # whole-trace denoise, so a borderline session may get another label
    # than batch identify: counted against ok_frac, not a wrong output.
    exact = False
    #: Stages the streaming path runs (finalize gates and classifies).
    STAGES = ("stream_window_denoise", "trace_quality", "classify")
    #: The streaming extractor's traced entry points.
    CALLS = ("push", "estimate", "finalize")

    def make_inputs(self, collector, liquids):
        self._collect(
            collector, liquids, self.sizes.stream_reps * len(liquids),
            self.sizes.long_packets,
        )

    def start(self, wimi, slot):
        return StreamingGateway(wimi, max_streams=1)

    def stop(self, gateway):
        gateway.drain()

    def measure(self, gateway, expected):
        checker = Checker(self.sessions, expected)
        cache = gateway.wimi.cache
        steps: list[float] = []
        first_estimates: list[float] = []
        finalizes: list[float] = []
        stream_times: list[float] = []
        hits = misses = 0
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < len(self.sessions) or time.perf_counter() < deadline:
            index = k % len(self.sessions)
            if index == 0:
                # Each pass over the pool starts cold, like distinct sessions.
                if k:
                    h, m = cache_counts(cache.snapshot())
                    hits, misses = hits + h, misses + m
                cache.clear()
            k += 1
            session = self.sessions[index]
            stream = gateway.open(
                scene=session.scene, material_name=session.material_name
            )
            stream.submit_baseline(session.baseline)
            spent = 0.0
            first = math.nan
            for packet in session.target.packets:
                t0 = time.perf_counter()
                stream.submit_target(packet)
                estimate = stream.poll()
                step = time.perf_counter() - t0
                steps.append(step)
                spent += step
                if math.isnan(first) and estimate.ready:
                    first = spent
            t0 = time.perf_counter()
            try:
                label = stream.finalize().label
            except CorruptTraceError:
                stream.abort()
                label = None
            finalize_s = time.perf_counter() - t0
            finalizes.append(finalize_s)
            stream_times.append(spent + finalize_s)
            if math.isnan(first):
                label = None  # never produced an estimate: a failed stream
            else:
                first_estimates.append(first)
            checker.record(index, label)
        h, m = cache_counts(cache.snapshot())
        if not first_estimates:
            raise RuntimeError("no stream produced a finite estimate")
        percentile, packet_tail_s = tail(steps)
        median_s = statistics.median(stream_times)
        return {
            "checker": checker,
            "identify_ms": median_s * 1000.0,
            "first_estimate_ms": statistics.median(first_estimates) * 1000.0,
            "packet_tail": (percentile, packet_tail_s * 1000.0, len(steps)),
            "finalize_ms": statistics.median(finalizes) * 1000.0,
            "primary_s": median_s,
            "hits": hits + h,
            "misses": misses + m,
        }

    def compute_ms(self, result, tracer):
        # Outermost extractor calls only, so a nested one is not counted
        # twice.
        names = {f"core.stream.{call}" for call in self.CALLS}
        total_s = sum(
            span.duration_s for span in tracer.spans
            if span.name in names
            and (span.parent is None or span.parent.name not in names)
        )
        return total_s * 1000.0 / self.sessions_measured(result)

    def layer_details(self, result, tracer):
        out = engine_layers(tracer, self.sessions_measured(result), self.STAGES)
        for name in self.CALLS:
            out[f"core.stream.{name}_ms"] = (
                tracer.mean_s(f"core.stream.{name}") * 1000.0
            )
        out["core.stream.first_estimate_ms"] = result["first_estimate_ms"]
        out["core.stream.finalize_median_ms"] = result["finalize_ms"]
        out["stream.packet_tail_ms"] = result["packet_tail"][1]
        return out


WORKLOADS = {
    workload.name: workload
    for workload in (BatchWorkload, ServeWorkload, StreamWorkload, ClusterWorkload)
}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    run_dir: Path,
    sizes: Sizes = PAPER,
) -> Outcome:
    """Generate inputs, set up, measure, and check one workload run."""
    if workload_name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[workload_name](sizes, run_dir, seconds)
    liquids = paper_liquids()
    collector = DataCollector(standard_scene(), rng=DEPLOYMENT_SEED)
    train_config = SessionConfig(num_packets=sizes.short_packets)
    train = [
        session
        for material in liquids
        for session in collector.collect_many(
            material, sizes.train_reps, train_config
        )
    ]
    # Same deployment (multipath realisation), new captures: from here on
    # every draw comes from the run's seed.
    collector.rng = np.random.default_rng(seed)
    workload.make_inputs(collector, liquids)

    def fitted() -> WiMi:
        return WiMi(theory_reference_omegas(liquids)).fit(train)

    setup_times: list[float] = []
    expected = None
    for repeat in range(sizes.setup_repeats):
        t0 = time.perf_counter()
        wimi = fitted()
        front = workload.start(wimi, f"setup-{repeat}")
        setup_times.append(time.perf_counter() - t0)
        try:
            if expected is None:
                expected = reference_labels(wimi, workload.sessions)
            if repeat == sizes.setup_repeats - 1:
                workload.warm_up(front)
                result = workload.measure(front, expected)
        finally:
            workload.stop(front)
    rss_mb = workload.rss_mb()
    checker = result["checker"]
    attempted = checker.attempted
    failed = checker.failed
    details = {
        "machine_probe_ms": machine_probe_ms(),
        "setup_s_samples": setup_times,
        "sessions": len(workload.sessions),
        "valid": result.get("valid", True),
    }
    for key in (
        "throughput_sps", "p50_ms", "new_p50_ms", "repeat_p50_ms",
        "first_estimate_ms", "finalize_ms",
    ):
        if key in result:
            details[key] = result[key]
    for key in ("tail", "packet_tail"):
        if key in result:
            percentile, value, samples = result[key]
            details[key] = {
                "percentile": percentile, "value_ms": value, "samples": samples
            }
    if "late" in result:
        details["gen_late_ms"] = {
            "percentile": result["late"][0], "value": result["late"][1]
        }
        details["backlog_growth"] = result["backlog_growth"]
    details["mismatches"] = checker.mismatches
    details["errors"] = checker.errors
    correct = details["valid"] and checker.outputs_correct(workload.exact)

    if not trace:
        return Outcome(
            metrics={
                "setup_s": statistics.median(setup_times),
                "identify_ms": result["identify_ms"],
                "accuracy": checker.accuracy(),
                "ok_frac": checker.ok_frac(),
                "peak_rss_mb": rss_mb,
            },
            attempted=attempted,
            failed=failed,
            correct=correct,
            details=details,
        )

    with Tracer() as tracer:
        wimi = fitted()
        front = workload.start(wimi, "traced")
        try:
            with tracer.paused():
                workload.warm_up(front)
            traced = workload.measure(front, expected)
        finally:
            workload.stop(front)
    metrics = fit_layers(tracer)
    layers, details["layers"] = workload.layers(traced, tracer)
    metrics.update(layers)
    metrics["trace.overhead_frac"] = traced["primary_s"] / result["primary_s"] - 1.0
    if "breakdown" in traced:
        details["breakdown"] = traced["breakdown"]
        residual = traced["breakdown"]["residual"]
        correct = correct and abs(residual) <= MAX_BREAKDOWN_RESIDUAL
    correct = (
        correct
        and traced.get("valid", True)
        and traced["checker"].outputs_correct(workload.exact)
    )
    attempted += traced["checker"].attempted
    failed += traced["checker"].failed
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        correct=correct,
        details=details,
    )
