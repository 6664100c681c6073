"""Train / identify / score loop shared by the accuracy experiments."""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.channel.materials import Material
from repro.core.config import WiMiConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.impairments import HardwareProfile
from repro.csi.quality import (
    CorruptTraceError,
    DegradedTraceWarning,
    gate_report,
)
from repro.csi.simulator import SimulationScene
from repro.engine.cache import StageCache
from repro.experiments.datasets import collect_dataset, split_dataset
from repro.ml.validation import ConfusionMatrix, confusion_matrix


@dataclass
class ExperimentResult:
    """Outcome of one identification experiment.

    Attributes:
        confusion: Confusion matrix of the answered test sessions.
        extras: Free-form experiment-specific diagnostics.
        unanswered: Test sessions without a label (quality-gate rejects,
            or every one when no training session was clean).
    """

    confusion: ConfusionMatrix
    extras: dict = field(default_factory=dict)
    unanswered: int = 0

    @property
    def accuracy(self) -> float:
        """Overall identification accuracy; unanswered sessions are wrong."""
        total = self.confusion.matrix.sum() + self.unanswered
        if total == 0:
            raise ValueError("no test sessions")
        return float(np.trace(self.confusion.matrix) / total)

    def per_class_accuracy(self) -> dict:
        """Per-material accuracy (confusion diagonal)."""
        return self.confusion.per_class_accuracy()


def run_identification(
    materials: list[Material],
    scene: SimulationScene | None = None,
    config: WiMiConfig | None = None,
    repetitions: int = 20,
    num_packets: int = 20,
    train_fraction: float = 0.6,
    seed: int = 0,
    profile: HardwareProfile | None = None,
    reference_materials: list[Material] | None = None,
    cache: StageCache | None = None,
) -> ExperimentResult:
    """One full WiMi experiment: collect, train, identify, score.

    Args:
        materials: The liquids under test (the classifier's classes).
        scene: Deployment scene (defaults to the paper's lab at 2 m).
        config: WiMi configuration.
        repetitions: Sessions per material (paper: 20).
        num_packets: Packets per trace (paper: 20).
        train_fraction: Share of sessions used for the feature database.
        seed: Deployment seed (multipath realisation + all noise).
        profile: Hardware impairment profile.
        reference_materials: Materials whose theory features seed the
            gamma-resolution dictionary; defaults to ``materials``.
        cache: Optional shared :class:`repro.engine.StageCache`.  Stage
            keys embed the trace content, so sharing one cache across the
            experiments of a sweep is always safe: artifacts common to
            several runs (e.g. the baseline captures a seed sweep re-uses)
            are computed once instead of per run.
    """
    if len(materials) < 2:
        raise ValueError("need at least two materials to identify")
    dataset = collect_dataset(
        materials,
        scene=scene,
        repetitions=repetitions,
        num_packets=num_packets,
        seed=seed,
        profile=profile,
    )
    train, test = split_dataset(dataset, train_fraction)
    result = fit_and_score(
        train,
        test,
        [m.name for m in materials],
        reference_materials if reference_materials else materials,
        config,
        cache,
    )
    result.extras.update(num_train=len(train), num_test=len(test))
    return result


@dataclass(frozen=True)
class GatedScore:
    """Answers for a test split under the quality gate.

    Attributes:
        predictions: Label per test session; None where it went
            unanswered (rejected by the gate, or no model to answer with).
        trained: Clean training sessions the model was fitted on.
        rejected: Test sessions the gate refused.
        degraded: Test sessions answered through the degradation path.
    """

    predictions: list
    trained: int
    rejected: int
    degraded: int


def _rejected(wimi: WiMi, session) -> bool:
    """Whether the quality gate refuses ``session``."""
    try:
        gate_report(wimi.assess(session))
    except CorruptTraceError:
        return True
    return False


def _trainable(wimi: WiMi, session) -> bool:
    """Whether ``session`` may enter the feature database: the gate finds
    nothing wrong with it (calibration pools every training session, so
    one dead chain would void a whole antenna pair)."""
    report = wimi.assess(session)
    return not (report.is_corrupt or report.is_degraded)


def fit_and_identify_gated(wimi: WiMi, train: list, test: list) -> GatedScore:
    """Fit on the clean training sessions; identify every test session.

    A test session the quality gate rejects is unanswered and so scores
    as wrong: a deployment that refuses to answer has not identified the
    target.  When no training session is clean, nothing is answered.
    Degraded test sessions are answered through the fallbacks and
    counted; their :class:`DegradedTraceWarning` is not raised.
    """
    trainable = [s for s in train if _trainable(wimi, s)]
    if not trainable:
        rejected = sum(_rejected(wimi, s) for s in test)
        return GatedScore([None] * len(test), 0, rejected, 0)
    wimi.fit(trainable)
    predictions: list = []
    rejected = degraded = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedTraceWarning)
        for session in test:
            try:
                features = wimi.extract(session)
            except CorruptTraceError:
                rejected += 1
                predictions.append(None)
                continue
            if features.quality is not None and features.quality.is_degraded:
                degraded += 1
            predictions.append(wimi.identify_measurement(features))
    return GatedScore(predictions, len(trainable), rejected, degraded)


def fit_and_score(
    train: list,
    test: list,
    labels: list[str],
    reference_materials: list[Material],
    config: WiMiConfig | None = None,
    cache: StageCache | None = None,
) -> ExperimentResult:
    """Train on pre-collected sessions and score on held-out ones.

    Lower-level sibling of :func:`run_identification` for experiments that
    reuse one dataset under several configurations (e.g. the Fig. 18
    packet sweep truncates the same sessions to different lengths).
    Scored through :func:`fit_and_identify_gated`: only clean captures
    train, and test captures the quality gate rejects count as wrong;
    ``extras`` carries the ``trained`` count and the ``rejected`` and
    ``degraded`` test counts.

    Args:
        cache: Optional shared :class:`repro.engine.StageCache`.  Pass
            the same instance across a configuration sweep over one
            dataset and every stage unaffected by the config change
            (calibration, denoising, subcarrier scoring) is served from
            cache instead of recomputed -- stage keys embed the
            stage-relevant config fields, so sharing is always safe.
    """
    if not train or not test:
        raise ValueError("need non-empty train and test session lists")
    refs = theory_reference_omegas(reference_materials)
    wimi = WiMi(refs, config, cache=cache)
    score = fit_and_identify_gated(wimi, train, test)
    y_true = [
        s.material_name
        for s, label in zip(test, score.predictions)
        if label is not None
    ]
    y_pred = [label for label in score.predictions if label is not None]
    cm = confusion_matrix(np.array(y_true), np.array(y_pred), labels=labels)
    calibration = wimi.calibration
    return ExperimentResult(
        confusion=cm,
        extras={
            "selected_subcarriers": (
                list(calibration.main_subcarriers) if calibration else None
            ),
            "antenna_pair": calibration.pair if calibration else None,
            "coarse_pair": calibration.coarse_pair if calibration else None,
            "trained": score.trained,
            "rejected": score.rejected,
            "degraded": score.degraded,
        },
        unanswered=len(test) - len(y_pred),
    )


def parallel_map(
    fn: Callable, items: Iterable, workers: int = 1
) -> list:
    """Order-preserving map over ``items``, optionally across processes.

    With ``workers <= 1`` this is a plain serial comprehension (no pool,
    no pickling requirements).  With more workers, items are dispatched to
    a ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
    -- ``fn`` and every item must then be picklable, which in this module
    means module-level functions over dataclass payloads.  ``spawn`` is
    used even where ``fork`` is available: it is the only start method
    that is safe on every platform and that cannot inherit a copied BLAS
    or RNG state mid-operation.

    Results come back in input order regardless of completion order, so a
    parallel sweep is bit-identical to its serial counterpart whenever
    ``fn`` itself is deterministic.
    """
    items = list(items)
    workers = max(1, int(workers))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)), mp_context=ctx
    ) as pool:
        return list(pool.map(fn, items))


def _seed_accuracy_task(args: tuple) -> float:
    """Picklable worker for :func:`mean_accuracy_over_seeds`."""
    materials, seed, kwargs = args
    return run_identification(materials, seed=seed, **kwargs).accuracy


def mean_accuracy_over_seeds(
    materials: list[Material],
    seeds: Sequence[int],
    workers: int = 1,
    **kwargs,
) -> tuple[float, list[float]]:
    """Average :func:`run_identification` accuracy over deployments.

    With ``workers > 1`` the seeds run in parallel processes; results are
    identical to the serial path (each seed is fully self-contained and
    deterministic).  The serial path shares one :class:`StageCache`
    across seeds so any artifact common to several deployments -- the
    free-space baselines a sweep re-derives, identical traces after
    truncation -- is computed once.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    cache = kwargs.pop("cache", None)
    if workers > 1:
        # A cross-process cache cannot be shared; each worker builds its
        # own per-run cache inside run_identification.
        tasks = [(materials, int(s), kwargs) for s in seeds]
        accs = parallel_map(_seed_accuracy_task, tasks, workers=workers)
    else:
        if cache is None:
            cache = StageCache()
        accs = [
            run_identification(
                materials, seed=s, cache=cache, **kwargs
            ).accuracy
            for s in seeds
        ]
    return float(np.mean(accs)), accs
