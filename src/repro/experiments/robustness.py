"""Accuracy-under-fault sweeps: how gracefully does WiMi degrade?

The paper's evaluation assumes clean captures; a deployed sniffer does
not get that luxury.  This module measures identification accuracy when
the *test* sessions are damaged by the :mod:`repro.csi.faults`
injectors while training stays clean -- the realistic asymmetry, since
the feature database is built once under supervision but identification
runs unattended.

Two sweeps, mirroring the acceptance scenarios of the robustness PR:

* :func:`packet_loss_sweep` -- accuracy vs. dropped-packet rate.
* :func:`antenna_dropout_sweep` -- accuracy with one RX chain dead
  (NaN or zeroed), per antenna, exercising the fallback-pair path.

A session the quality gate rejects (:class:`CorruptTraceError`) counts
as *wrong*: a deployment that refuses to answer has not identified the
target.  Rejections and degraded-but-answered sessions are reported
separately so the sweep distinguishes "still accurate", "accurate via
fallbacks" and "refused".

Scenarios are self-contained picklable payloads run through
:func:`repro.experiments.runner.parallel_map`, so ``workers > 1``
spreads a sweep across processes bit-identically to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.faults import AntennaDropout, PacketLoss, TraceFault
from repro.csi.faults import inject_session
from repro.experiments.datasets import collect_dataset, split_dataset
from repro.experiments.runner import fit_and_identify_gated, parallel_map

#: A small, well-separated material set keeps the sweep fast while the
#: clean-capture point still sits at or near 100% accuracy, so any drop
#: is attributable to the injected fault rather than task difficulty.
DEFAULT_MATERIALS = ("pure_water", "pepsi", "vinegar")

DEFAULT_LOSS_RATES = (0.0, 0.1, 0.2, 0.3)
DEFAULT_REPETITIONS = 8
DEFAULT_PACKETS = 16
DEFAULT_TRAIN_FRACTION = 0.5
#: Worker processes ``run_suite`` spreads each sweep across.
SUITE_WORKERS = 2


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one fault scenario over one deployment's test split.

    Attributes:
        sweep: Which sweep produced this point.
        scenario: Human-readable fault description (e.g. ``loss=0.2``).
        parameter: The swept value (loss rate, or ``antenna:mode``).
        total: Test sessions evaluated.
        correct: Sessions identified as their true material.
        rejected: Sessions the quality gate refused
            (:class:`CorruptTraceError`); counted as wrong.
        degraded: Sessions answered *through* the degradation path
            (fallback pair / subcarrier exclusion engaged).
    """

    sweep: str
    scenario: str
    parameter: float | str
    total: int
    correct: int
    rejected: int
    degraded: int

    @property
    def accuracy(self) -> float:
        """Fraction of test sessions answered correctly (rejects count)."""
        return self.correct / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "sweep": self.sweep,
            "scenario": self.scenario,
            "parameter": self.parameter,
            "total": self.total,
            "correct": self.correct,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "accuracy": round(self.accuracy, 4),
        }


def _scenario_task(payload: tuple) -> ScenarioResult:
    """Picklable worker: one fault scenario, end to end.

    Collects its own deployment (deterministic in ``seed``), injects
    ``faults`` into every test session under a per-session seed, and
    scores through :func:`repro.experiments.runner.fit_and_identify_gated`
    (fit on the clean train sessions the gate passes).  Fully self-contained so
    :func:`parallel_map` can ship it to a spawn-context process.
    """
    (sweep, scenario, parameter, material_names, faults, seed,
     repetitions, num_packets, train_fraction) = payload
    catalog = default_catalog()
    materials = [catalog.get(name) for name in material_names]
    dataset = collect_dataset(
        materials,
        repetitions=repetitions,
        num_packets=num_packets,
        seed=seed,
    )
    train, test = split_dataset(dataset, train_fraction)
    if faults:
        test = [
            inject_session(session, faults, seed=1000 * seed + index)
            for index, session in enumerate(test)
        ]
    score = fit_and_identify_gated(
        WiMi(theory_reference_omegas(materials)), train, test
    )
    correct = sum(
        label == session.material_name
        for session, label in zip(test, score.predictions)
    )
    return ScenarioResult(
        sweep=sweep,
        scenario=scenario,
        parameter=parameter,
        total=len(test),
        correct=correct,
        rejected=score.rejected,
        degraded=score.degraded,
    )


def _payload(
    sweep: str,
    scenario: str,
    parameter: float | str,
    faults: tuple[TraceFault, ...],
    materials: Sequence[str],
    seed: int,
    repetitions: int,
    num_packets: int,
    train_fraction: float,
) -> tuple:
    return (
        sweep, scenario, parameter, tuple(materials), faults, seed,
        repetitions, num_packets, train_fraction,
    )


def packet_loss_sweep(
    rates: Sequence[float] = DEFAULT_LOSS_RATES,
    materials: Sequence[str] = DEFAULT_MATERIALS,
    seed: int = 0,
    repetitions: int = DEFAULT_REPETITIONS,
    num_packets: int = DEFAULT_PACKETS,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Accuracy vs. dropped-packet rate on the test sessions."""
    payloads = [
        _payload(
            "packet_loss",
            f"loss={rate:g}",
            float(rate),
            (PacketLoss(rate),) if rate > 0 else (),
            materials, seed, repetitions, num_packets, train_fraction,
        )
        for rate in rates
    ]
    return parallel_map(_scenario_task, payloads, workers=workers)


def antenna_dropout_sweep(
    materials: Sequence[str] = DEFAULT_MATERIALS,
    modes: Sequence[str] = ("nan", "zero"),
    seed: int = 0,
    repetitions: int = DEFAULT_REPETITIONS,
    num_packets: int = DEFAULT_PACKETS,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Accuracy with one RX chain dead, per antenna and failure mode.

    The ``none`` scenario anchors the sweep; each other point kills one
    specific antenna on every test session (same chain on baseline and
    target, as a broken RX cable would), forcing identification through
    the fallback antenna-pair path.
    """
    payloads = [
        _payload(
            "antenna_dropout", "none", "none", (),
            materials, seed, repetitions, num_packets, train_fraction,
        )
    ]
    for mode in modes:
        for antenna in range(3):
            payloads.append(
                _payload(
                    "antenna_dropout",
                    f"antenna={antenna},mode={mode}",
                    f"{antenna}:{mode}",
                    (AntennaDropout(antenna=antenna, mode=mode),),
                    materials, seed, repetitions, num_packets,
                    train_fraction,
                )
            )
    return parallel_map(_scenario_task, payloads, workers=workers)


def run_suite(mode: str = "full", seed: int = 0, progress=None) -> dict:
    """Both sweeps, on :data:`SUITE_WORKERS` processes.

    The sweeps have one (CI-sized) size, so ``mode`` is always
    ``"full"``: ``repro bench robustness --smoke`` exits 2.

    Returns ``{"materials": [...], "sweeps": {sweep_name: [point dict,
    ...]}}``; the sweeps report accuracy and carry no gates.
    """
    sweeps = {}
    for name, sweep in (
        ("packet_loss", packet_loss_sweep),
        ("antenna_dropout", antenna_dropout_sweep),
    ):
        if progress is not None:
            progress(name)
        results = sweep(seed=seed, workers=SUITE_WORKERS)
        sweeps[name] = [point.to_dict() for point in results]
    return {"materials": list(DEFAULT_MATERIALS), "sweeps": sweeps}


def render_report(results: dict) -> str:
    """Human-readable sweep table for the CLI."""
    lines = ["robustness sweeps (clean training, faulty test captures):"]
    for sweep, points in results["sweeps"].items():
        lines.append(f"  {sweep}:")
        for point in points:
            lines.append(
                f"    {point['scenario']:<22} accuracy "
                f"{point['accuracy']:>6.1%}  ({point['correct']}/"
                f"{point['total']} correct, {point['rejected']} rejected, "
                f"{point['degraded']} degraded)"
            )
    return "\n".join(lines)
