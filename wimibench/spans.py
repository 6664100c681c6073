"""Span tracing of WiMi's layers, done from the benchmark's own files.

:class:`Tracer` patches the public entry points listed in
:data:`ENTRY_POINTS` on their classes, records one :class:`Span` per
call (name, start, end, the enclosing span on the same thread) and puts
every original function back when it exits.  The program itself carries
no tracing code, so an untraced run executes exactly the shipped code.

Self time follows the usual rule -- a span's duration minus the part its
child spans cover -- with one refinement: only children of the *same*
layer are subtracted.  ``dsp.denoise`` runs inside
``engine.amplitude_denoise``; counting it as part of that stage keeps the
engine stage times a complete partition of the ``identify_batch`` span,
while ``dsp.denoise_ms`` still reports the denoiser on its own.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time

from repro.cluster.client import ClusterClient
from repro.core.pipeline import WiMi
from repro.core.streaming import StreamingExtractor
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.engine.graph import PipelineEngine
from repro.ml.multiclass import OneVsOneSVC
from repro.persist.registry import ModelRegistry
from repro.serve.service import IdentificationService

#: Engine stages, in Fig. 5 order; each is a public PipelineEngine method.
ENGINE_STAGES = (
    "trace_quality",
    "phase_calibration",
    "amplitude_denoise",
    "observables",
    "select_subcarriers",
    "extract_feature",
    "classify",
    "stream_window_denoise",
)


def _session_ids(args) -> tuple[int, ...]:
    """Identity of every session in an ``identify_batch(sessions)`` call."""
    return tuple(id(session) for session in args[1])


#: ``(owner class, method, span name, attribute extractor or None)``.
ENTRY_POINTS = (
    *(
        (PipelineEngine, stage, f"engine.{stage}", None)
        for stage in ENGINE_STAGES
    ),
    (SpatiallySelectiveDenoiser, "denoise", "dsp.denoise", None),
    (WiMi, "fit", "core.fit", None),
    (WiMi, "identify_batch", "core.identify_batch", _session_ids),
    (StreamingExtractor, "push_target", "core.stream.push", None),
    (StreamingExtractor, "estimate", "core.stream.estimate", None),
    (StreamingExtractor, "finalize", "core.stream.finalize", None),
    (OneVsOneSVC, "fit", "ml.fit", None),
    (IdentificationService, "submit", "serve.submit", None),
    (ClusterClient, "submit", "cluster.submit", None),
    (ModelRegistry, "save", "persist.registry_save", None),
)


class Span:
    """One traced call."""

    __slots__ = ("name", "layer", "start", "end", "parent", "attrs",
                 "same_layer_child_s")

    def __init__(self, name: str, parent: "Span | None", attrs):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.same_layer_child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by same-layer child spans."""
        return self.duration_s - self.same_layer_child_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Context manager that traces :data:`ENTRY_POINTS` while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._paused = False
        self._local = threading.local()
        self._originals: list[tuple[type, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function, name: str, attrs_of):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer._paused:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span = Span(
                name,
                stack[-1] if stack else None,
                attrs_of(args) if attrs_of is not None else None,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                parent = span.parent
                if parent is not None and parent.layer == span.layer:
                    parent.same_layer_child_s += span.duration_s
                tracer.spans.append(span)

        return traced

    def __enter__(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, method, name, attrs_of in ENTRY_POINTS:
                original = owner.__dict__[method]
                self._originals.append((owner, method, original))
                setattr(owner, method, self._wrap(original, name, attrs_of))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the entry points stay patched)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def restore(self) -> None:
        """Put back every patched entry point (idempotent)."""
        while self._originals:
            owner, method, original = self._originals.pop()
            setattr(owner, method, original)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def named(self, name: str, exclude_roots: tuple[str, ...] = ()):
        """Spans called ``name`` whose outermost span is not excluded."""
        return [
            span for span in self.spans
            if span.name == name and span.root().name not in exclude_roots
        ]

    def self_total_s(
        self, name: str, exclude_roots: tuple[str, ...] = ()
    ) -> float:
        return sum(span.self_s for span in self.named(name, exclude_roots))

    def mean_s(self, name: str) -> float:
        spans = self.named(name)
        if not spans:
            raise RuntimeError(f"no {name} span was recorded")
        return sum(span.duration_s for span in spans) / len(spans)

