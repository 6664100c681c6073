"""One entry point per evaluation figure of the paper.

Every function regenerates the data behind one figure (Fig. 2-21 of the
paper) and returns a plain dict of the rows/series the paper plots, ready
for :mod:`repro.experiments.reporting`.  Default sizes are chosen so each
experiment runs in seconds-to-a-minute; pass larger ``repetitions`` /
``seeds`` for tighter statistics.

Shape targets (from the paper's text) are noted per function; see
EXPERIMENTS.md for the measured outcomes.
"""

from __future__ import annotations

import numpy as np

from repro.channel.materials import default_catalog, saltwater
from repro.core.amplitude import AmplitudeProcessor
from repro.core.antenna import AntennaPairSelector
from repro.core.config import WiMiConfig
from repro.core.feature import theory_reference_omegas
from repro.core.phase import PhaseCalibrator
from repro.core.pipeline import WiMi
from repro.core.subcarrier import SubcarrierSelector
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.impairments import HardwareProfile
from repro.dsp.filters import (
    butterworth_filter,
    median_filter,
    sliding_mean_filter,
)
from repro.dsp.stats import angular_spread_deg
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.engine.cache import StageCache
from repro.experiments.datasets import (
    collect_dataset,
    paper_liquids,
    split_dataset,
    standard_scene,
    standard_target,
)
from repro.experiments.runner import (
    fit_and_score,
    parallel_map,
    run_identification,
)

_CATALOG = default_catalog()

#: The five liquids of the Fig. 9 benchmark (Sec. III-E).
FIVE_LIQUIDS = ("saltwater_2.7g", "vinegar", "pepsi", "milk", "pure_water")
#: The five liquids of the Fig. 14 ablation.
FIG14_LIQUIDS = ("pepsi", "oil", "vinegar", "soy", "milk")
#: The mutually-adjacent water-family liquids -- the hardest subset; used
#: where an experiment needs headroom to show a *difference* (Fig. 13/14).
HARD_LIQUIDS = ("pure_water", "sweet_water", "pepsi", "coke", "milk")
THREE_LIQUIDS = ("pure_water", "pepsi", "vinegar")


def _materials(names) -> list:
    return [_CATALOG.get(n) for n in names]


# ----------------------------------------------------------------------
# Fig. 2 + Fig. 12 -- phase calibration microbenchmark
# ----------------------------------------------------------------------


def phase_calibration_microbenchmark(
    environment: str = "library",
    num_packets: int = 50,
    seed: int = 0,
) -> dict:
    """Fig. 2 / Fig. 12: raw phase vs antenna difference vs good subcarriers.

    Shape target: raw per-antenna phase is uniform over the circle
    (spread saturates at 180 deg); the inter-antenna phase difference
    concentrates to tens of degrees ("around 18 degrees"); selecting good
    subcarriers tightens it further ("around 5 degrees").
    """
    scene = standard_scene(environment)
    collector = DataCollector(scene, rng=seed)
    session = collector.collect(
        _CATALOG.get("milk"), SessionConfig(num_packets=num_packets)
    )
    calibrator = PhaseCalibrator()
    selector = SubcarrierSelector(calibrator)
    pair = (0, 1)
    trace = session.baseline

    raw = calibrator.angular_fluctuation_deg(trace, antenna=0)
    per_subcarrier = [
        angular_spread_deg(calibrator.phase_difference(trace, pair)[:, k])
        for k in range(trace.num_subcarriers)
    ]
    selected = selector.select(session.baseline, session.target, pair, 4)
    return {
        "raw_spread_deg": raw,
        "pair_difference_spread_deg": float(np.median(per_subcarrier)),
        "selected_spread_deg": float(
            np.mean([per_subcarrier[k] for k in selected])
        ),
        "selected_subcarriers": selected,
    }


# ----------------------------------------------------------------------
# Fig. 3 -- raw amplitude noise
# ----------------------------------------------------------------------


def raw_amplitude_microbenchmark(
    num_packets: int = 200, seed: int = 0
) -> dict:
    """Fig. 3: raw CSI amplitude has outliers and impulse noise.

    Shape target: a visible fraction of samples outside the 3-sigma band
    and heavy tails (positive excess kurtosis) versus a clean capture.
    """
    scene = standard_scene("lab")
    collector = DataCollector(scene, rng=seed)
    session = collector.collect(
        _CATALOG.get("milk"), SessionConfig(num_packets=num_packets)
    )
    amps = session.baseline.amplitudes()[:, 15, 0]
    mu, sigma = float(np.mean(amps)), float(np.std(amps))
    outlier_fraction = float(np.mean(np.abs(amps - mu) > 3 * sigma))
    centred = (amps - mu) / sigma if sigma > 0 else amps - mu
    kurtosis = float(np.mean(centred**4) - 3.0)
    return {
        "mean_amplitude": mu,
        "std_amplitude": sigma,
        "outlier_fraction": outlier_fraction,
        "excess_kurtosis": kurtosis,
    }


# ----------------------------------------------------------------------
# Fig. 6 -- per-subcarrier phase-difference variance
# ----------------------------------------------------------------------


def subcarrier_variance_profile(
    environment: str = "lab", num_packets: int = 50, seed: int = 0
) -> dict:
    """Fig. 6: Eq. 7 variance per subcarrier, and the P=4 good ones.

    Shape target: the variance profile is frequency selective (some
    subcarriers are much quieter) and the selected subcarriers sit at its
    minima.
    """
    scene = standard_scene(environment)
    collector = DataCollector(scene, rng=seed)
    session = collector.collect(
        _CATALOG.get("milk"), SessionConfig(num_packets=num_packets)
    )
    selector = SubcarrierSelector()
    pair = (0, 1)
    variances = selector.combined_variances(
        session.baseline, session.target, pair
    )
    selected = selector.select(session.baseline, session.target, pair, 4)
    return {
        "variances": variances,
        "selected_subcarriers": selected,
        "min_variance": float(np.min(variances)),
        "median_variance": float(np.median(variances)),
    }


# ----------------------------------------------------------------------
# Fig. 7 -- denoising method comparison
# ----------------------------------------------------------------------


def denoise_filter_comparison(
    num_samples: int = 128, trials: int = 10, seed: int = 0
) -> dict:
    """Fig. 7: median / slide / Butterworth vs the proposed denoiser.

    A known slowly-varying amplitude is corrupted with the hardware
    profile's outlier + impulse statistics; each method's RMSE against the
    ground truth is reported.  Shape target: the proposed spatially-
    selective wavelet denoiser has the lowest error.
    """
    rng = np.random.default_rng(seed)
    profile = HardwareProfile()
    denoiser = SpatiallySelectiveDenoiser()
    errors = {"median": [], "slide": [], "butterworth": [], "proposed": []}
    for _ in range(trials):
        t = np.arange(num_samples)
        truth = 1.0 + 0.05 * np.sin(2 * np.pi * t / num_samples)
        noisy = truth * (1.0 + rng.normal(0, profile.amplitude_noise, num_samples))
        # Impulse noise: additive spikes comparable to the signal.
        mask = rng.random(num_samples) < profile.impulse_probability
        noisy[mask] += rng.standard_normal(mask.sum()) * (
            profile.impulse_magnitude * truth[mask]
        )
        # Outliers: rare multiplicative excursions.
        mask = rng.random(num_samples) < profile.outlier_probability
        lo, hi = profile.outlier_magnitude_range
        noisy[mask] *= rng.uniform(lo, hi, mask.sum())

        candidates = {
            "median": median_filter(noisy, 5),
            "slide": sliding_mean_filter(noisy, 5),
            "butterworth": butterworth_filter(noisy, 0.2, 3),
            "proposed": denoiser.denoise(noisy),
        }
        for name, out in candidates.items():
            errors[name].append(float(np.sqrt(np.mean((out - truth) ** 2))))
    return {name: float(np.mean(errs)) for name, errs in errors.items()}


# ----------------------------------------------------------------------
# Fig. 8 -- amplitude-ratio variance
# ----------------------------------------------------------------------


def amplitude_ratio_variance(
    num_packets: int = 100, seed: int = 0
) -> dict:
    """Fig. 8: per-antenna amplitude variance vs antenna-ratio variance.

    Shape target: the ratio's normalised variance is well below each
    individual antenna's.
    """
    scene = standard_scene("lab")
    collector = DataCollector(scene, rng=seed)
    session = collector.collect(
        _CATALOG.get("milk"), SessionConfig(num_packets=num_packets)
    )
    amp = AmplitudeProcessor(denoise=False)
    trace = session.baseline
    return {
        "antenna0_variance": float(
            np.mean(amp.amplitude_variance_per_subcarrier(trace, 0))
        ),
        "antenna1_variance": float(
            np.mean(amp.amplitude_variance_per_subcarrier(trace, 1))
        ),
        "ratio_variance": float(
            np.mean(amp.ratio_variance_per_subcarrier(trace, (0, 1)))
        ),
    }


# ----------------------------------------------------------------------
# Fig. 9 -- material feature clusters
# ----------------------------------------------------------------------


def material_feature_clusters(
    repetitions: int = 8, seed: int = 0
) -> dict:
    """Fig. 9: Omega-bar clusters for five liquids in the office.

    Shape target: the five liquids form distinct clusters ordered like
    their theory features; cluster spread is small versus the gaps.
    """
    materials = _materials(FIVE_LIQUIDS)
    refs = theory_reference_omegas(materials)
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        seed=seed,
    )
    sessions = [s for group in dataset.values() for s in group]
    wimi = WiMi(refs)
    wimi.calibrate(sessions)
    clusters = {}
    for name, group in dataset.items():
        values = [wimi.extract_labelled(s).omega_mean for s in group]
        clusters[name] = {
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "theory": refs[name],
        }
    return clusters


# ----------------------------------------------------------------------
# Fig. 10 -- per-antenna-combination variance
# ----------------------------------------------------------------------


def antenna_combination_variance(
    num_packets: int = 50, seed: int = 0
) -> dict:
    """Fig. 10: phase-difference / amplitude-ratio variance per pair.

    Shape target: the three antenna combinations have clearly different
    stability (the basis for pair selection).
    """
    scene = standard_scene("lab")
    collector = DataCollector(scene, rng=seed)
    session = collector.collect(
        _CATALOG.get("milk"), SessionConfig(num_packets=num_packets)
    )
    selector = AntennaPairSelector()
    out = {}
    for stat in selector.rank(session):
        out[stat.pair] = {
            "phase_variance": stat.phase_variance,
            "ratio_variance": stat.ratio_variance,
        }
    return out


# ----------------------------------------------------------------------
# Fig. 13 -- subcarrier choice vs accuracy
# ----------------------------------------------------------------------


def subcarrier_choice_accuracy(
    repetitions: int = 10, seed: int = 0, num_packets: int = 10
) -> dict:
    """Fig. 13: subcarrier choice vs identification accuracy.

    Uses the adjacent water-family liquids in the paper's single-pair
    mode.  Compares the worst-variance subcarriers (standing in for the
    paper's blind picks 2/7/12), the best ("good") ones, and combinations.
    Shape target: good subcarriers do at least as well as bad ones, and
    combining subcarriers beats single ones.  Note (EXPERIMENTS.md): the
    paper reports a large gap; in the simulator the gap is mild, because
    after packet averaging the dominant residual noise is only weakly
    frequency selective.
    """
    materials = _materials(HARD_LIQUIDS)
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        num_packets=num_packets, seed=seed,
    )
    train, test = split_dataset(dataset)
    labels = [m.name for m in materials]

    # One stage cache across the whole sweep: every configuration reuses
    # the calibration/denoising artifacts of the shared dataset.
    shared_cache = StageCache()
    probe = WiMi(
        theory_reference_omegas(materials),
        WiMiConfig(num_feature_pairs=1),
        cache=shared_cache,
    )
    probe.calibrate(train)
    ranking = probe.subcarrier_selector.rank_pooled(
        train, probe.calibration.pair
    )
    good = [int(k) for k in ranking[:4]]
    bad = [int(k) for k in ranking[-3:]]

    results = {}
    for label, subcarriers in (
        (f"worst_{bad[0]}", (bad[0],)),
        (f"worst_{bad[1]}", (bad[1],)),
        (f"worst_{bad[2]}", (bad[2],)),
        (f"good_{good[0]}", (good[0],)),
        (f"good_{good[1]}", (good[1],)),
        (f"good_{good[0]}_and_{good[1]}", (good[0], good[1])),
        ("good_top4", tuple(good)),
    ):
        config = WiMiConfig(
            subcarrier_override=tuple(subcarriers),
            num_feature_pairs=1,
        )
        result = fit_and_score(
            train, test, labels, materials, config, cache=shared_cache
        )
        results[label] = result.accuracy
    return results


# ----------------------------------------------------------------------
# Fig. 14 -- amplitude denoising vs accuracy
# ----------------------------------------------------------------------


def denoise_ablation_accuracy(
    repetitions: int = 10, seed: int = 0
) -> dict:
    """Fig. 14: identification accuracy with and without denoising.

    Shape target: denoising is consistently at least as good, with a
    visible gain for some liquids.
    """
    materials = _materials(FIG14_LIQUIDS + ("coke", "sweet_water"))
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        num_packets=10, seed=seed,
    )
    train, test = split_dataset(dataset)
    labels = [m.name for m in materials]
    out = {}
    # Shared cache: the denoise flag flips the amplitude stage's key, but
    # phase calibration and subcarrier scoring are reused across the two
    # arms of the ablation.
    shared_cache = StageCache()
    for label, flag in (("without_denoising", False), ("with_denoising", True)):
        result = fit_and_score(
            train, test, labels, materials,
            WiMiConfig(denoise_amplitude=flag, num_feature_pairs=1),
            cache=shared_cache,
        )
        out[label] = {
            "overall": result.accuracy,
            "per_class": result.per_class_accuracy(),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 15 -- ten liquids
# ----------------------------------------------------------------------


def ten_liquid_confusion(
    repetitions: int = 20, seed: int = 0
) -> dict:
    """Fig. 15: confusion matrix over the ten liquids in the lab.

    Shape target: average accuracy around 96%; Pepsi and Coke are the
    most confusable pair but still above 90%.
    """
    materials = paper_liquids(_CATALOG)
    result = run_identification(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        seed=seed,
    )
    return {
        "accuracy": result.accuracy,
        "per_class": result.per_class_accuracy(),
        "confusion": result.confusion,
    }


# ----------------------------------------------------------------------
# Fig. 16 -- saltwater concentrations
# ----------------------------------------------------------------------


def concentration_confusion(
    repetitions: int = 12, seed: int = 0
) -> dict:
    """Fig. 16: pure water vs 1.2 / 2.7 / 5.9 g per 100 ml saltwater.

    Shape target: higher than 95% accuracy; confusion only between
    neighbouring concentrations.
    """
    materials = [
        _CATALOG.get("pure_water"),
        saltwater(1.2),
        saltwater(2.7),
        saltwater(5.9),
    ]
    result = run_identification(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        seed=seed,
    )
    return {
        "accuracy": result.accuracy,
        "per_class": result.per_class_accuracy(),
        "confusion": result.confusion,
    }


# ----------------------------------------------------------------------
# Fig. 17 -- Tx-Rx distance sweep
# ----------------------------------------------------------------------


def _distance_task(args: tuple) -> float:
    """Picklable worker for :func:`distance_sweep` (one env x distance)."""
    material_names, env, distance, repetitions, seed = args
    return run_identification(
        _materials(material_names),
        scene=standard_scene(env, distance_m=distance),
        repetitions=repetitions,
        seed=seed,
    ).accuracy


def distance_sweep(
    distances_m=(1.0, 1.5, 2.0, 2.5, 3.0),
    environments=("hall", "lab", "library"),
    repetitions: int = 8,
    seed: int = 0,
    material_names=HARD_LIQUIDS,
    workers: int = 1,
) -> dict:
    """Fig. 17: accuracy vs Tx-Rx distance, per environment.

    Shape target: accuracy decreases with distance (98% -> ~87% in the
    paper) and richer-multipath environments sit lower.

    With ``workers > 1`` the (environment, distance) grid points run in
    parallel processes; each point is self-contained and deterministic,
    so the result is identical to the serial sweep.
    """
    material_names = tuple(material_names)
    grid = [
        (material_names, env, distance, repetitions, seed)
        for env in environments
        for distance in distances_m
    ]
    accuracies = parallel_map(_distance_task, grid, workers=workers)
    out = {}
    for (_, env, distance, _, _), accuracy in zip(grid, accuracies):
        out.setdefault(env, []).append((distance, accuracy))
    return out


# ----------------------------------------------------------------------
# Fig. 18 -- packet-count sweep
# ----------------------------------------------------------------------


def _packet_env_task(args: tuple) -> list:
    """Picklable worker for :func:`packet_sweep` (one environment)."""
    material_names, env, packet_counts, repetitions, seed = args
    materials = _materials(material_names)
    labels = [m.name for m in materials]
    dataset = collect_dataset(
        materials,
        scene=standard_scene(env),
        repetitions=repetitions,
        num_packets=max(packet_counts),
        seed=seed,
    )
    # Artifacts are keyed by trace *content*, so the full-length
    # truncation (count == max_packets) hits the artifacts already
    # computed for the untruncated dataset despite being new objects.
    env_cache = StageCache()
    series = []
    for count in packet_counts:
        truncated = {
            name: [s.truncated(count) for s in group]
            for name, group in dataset.items()
        }
        train, test = split_dataset(truncated)
        result = fit_and_score(
            train, test, labels, materials, cache=env_cache
        )
        series.append((count, result.accuracy))
    return series


def packet_sweep(
    packet_counts=(3, 5, 10, 20, 30),
    environments=("hall", "lab", "library"),
    repetitions: int = 8,
    seed: int = 0,
    material_names=HARD_LIQUIDS,
    workers: int = 1,
) -> dict:
    """Fig. 18: accuracy vs number of packets per measurement.

    Shape target: accuracy rises with packets and saturates around 20
    (the paper's operating point).

    With ``workers > 1`` the environments run in parallel processes --
    each environment is self-contained (own dataset, own stage cache), so
    the result is identical to the serial sweep.
    """
    material_names = tuple(material_names)
    packet_counts = tuple(packet_counts)
    tasks = [
        (material_names, env, packet_counts, repetitions, seed)
        for env in environments
    ]
    series_per_env = parallel_map(_packet_env_task, tasks, workers=workers)
    return dict(zip(environments, series_per_env))


# ----------------------------------------------------------------------
# Fig. 19 -- container size sweep
# ----------------------------------------------------------------------

#: Paper beaker diameters (Size 1..5), metres.
CONTAINER_DIAMETERS_M = (0.143, 0.110, 0.089, 0.061, 0.032)


def container_size_sweep(
    repetitions: int = 10,
    seed: int = 0,
    material_names=THREE_LIQUIDS,
) -> dict:
    """Fig. 19: accuracy vs beaker diameter.

    Shape target: mild degradation down to ~8.9 cm, then a clear drop
    once the diameter falls below the ~6 cm wavelength (diffraction).
    """
    materials = _materials(material_names)
    out = {}
    for index, diameter in enumerate(CONTAINER_DIAMETERS_M, start=1):
        # The beaker is repositioned closer to the axis when it is small.
        offset = min(0.020, diameter / 4.0)
        target = standard_target(diameter=diameter, lateral_offset=offset)
        result = run_identification(
            materials,
            scene=standard_scene("lab", target=target),
            repetitions=repetitions,
            seed=seed,
        )
        out[f"size{index}_{diameter * 100:.1f}cm"] = result.accuracy
    return out


# ----------------------------------------------------------------------
# Fig. 20 -- container material
# ----------------------------------------------------------------------


def container_material_comparison(
    repetitions: int = 10,
    seed: int = 0,
    material_names=THREE_LIQUIDS,
) -> dict:
    """Fig. 20: plastic vs glass beaker.

    Shape target: nearly identical accuracy -- the empty-container
    baseline cancels the wall.
    """
    materials = _materials(material_names)
    out = {}
    for wall in ("plastic", "glass"):
        target = standard_target(wall_material=wall)
        result = run_identification(
            materials,
            scene=standard_scene("lab", target=target),
            repetitions=repetitions,
            seed=seed,
        )
        out[wall] = {
            "overall": result.accuracy,
            "per_class": result.per_class_accuracy(),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 21 -- antenna combinations vs accuracy
# ----------------------------------------------------------------------


def antenna_pair_accuracy(
    repetitions: int = 10,
    seed: int = 0,
    material_names=HARD_LIQUIDS,
) -> dict:
    """Fig. 21: identification accuracy per antenna combination.

    Shape target: combinations differ; pairs avoiding the noisiest RF
    chain (antenna 3) do best.
    """
    materials = _materials(material_names)
    labels = [m.name for m in materials]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        seed=seed,
    )
    train, test = split_dataset(dataset)
    out = {}
    # Shared cache: the three configurations differ only in which pair is
    # the main one, so every trace's denoised cube and every pair's
    # observables are computed once for the whole figure.
    shared_cache = StageCache()
    for pair in ((0, 1), (0, 2), (1, 2)):
        config = WiMiConfig(
            antenna_pair=pair, num_feature_pairs=1, use_coarse_pair=True
        )
        result = fit_and_score(
            train, test, labels, materials, config, cache=shared_cache
        )
        out[f"antennas_{pair[0] + 1}&{pair[1] + 1}"] = result.accuracy
    return out


# ----------------------------------------------------------------------
# Extensions beyond the paper's figures
# ----------------------------------------------------------------------


def motion_ablation(
    repetitions: int = 8,
    seed: int = 0,
    motion_levels_mm=(0.0, 2.0, 6.0),
    material_names=THREE_LIQUIDS,
) -> dict:
    """Discussion-section limitation: moving / flowing liquids.

    The paper states WiMi "can only identify the material type of a
    static liquid".  This experiment sweeps the per-packet sloshing
    amplitude of the liquid column; identification should degrade as the
    motion grows.
    """
    from repro.csi.collector import SessionConfig

    materials = _materials(material_names)
    labels = [m.name for m in materials]
    out = {}
    for motion_mm in motion_levels_mm:
        scene = standard_scene("lab")
        collector = DataCollector(scene, rng=seed)
        config = SessionConfig(target_motion_std=motion_mm / 1000.0)
        dataset = {
            m.name: collector.collect_many(m, repetitions, config)
            for m in materials
        }
        train, test = split_dataset(dataset)
        result = fit_and_score(train, test, labels, materials)
        out[f"motion_{motion_mm:g}mm"] = result.accuracy
    return out


def absolute_feature_comparison(
    repetitions: int = 8, seed: int = 0, material_names=FIVE_LIQUIDS
) -> dict:
    """Sec. III-D claim: TagScan's absolute feature fails on Wi-Fi CSI.

    Trains two classifiers on the same sessions: WiMi's differential
    feature, and the single-antenna absolute feature (phase + amplitude
    change of one antenna).  Per-packet clock errors randomise the
    absolute phase, so the baseline should sit near chance while WiMi
    stays high.
    """
    from repro.core.baselines import AbsoluteFeatureExtractor
    from repro.core.database import DatabaseClassifier, MaterialDatabase

    materials = _materials(material_names)
    refs = theory_reference_omegas(materials)
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        seed=seed,
    )
    train, test = split_dataset(dataset)
    labels = [m.name for m in materials]

    wimi_result = fit_and_score(train, test, labels, materials)

    # Absolute-feature baseline: same subcarriers, antenna 0.
    subcarriers = wimi_result.extras["selected_subcarriers"] or [3, 10, 20, 25]
    nominal = float(np.median(list(refs.values())))
    extractor = AbsoluteFeatureExtractor(nominal)
    db = MaterialDatabase()
    for s in train:
        db.add(extractor.measure(s, subcarriers))
    clf = DatabaseClassifier().fit(db)
    correct = sum(
        clf.predict_one(extractor.measure(s, subcarriers)) == s.material_name
        for s in test
    )
    return {
        "wimi_differential": wimi_result.accuracy,
        "absolute_feature": correct / len(test),
        "chance": 1.0 / len(materials),
    }


def multi_material_limitation(
    repetitions: int = 8, seed: int = 0, fractions=(0.25, 0.5, 0.75)
) -> dict:
    """Discussion-section limitation: multi-material targets.

    WiMi assumes a single material; a mixed target presents an effective
    medium whose feature lands between the components'.  Train on the
    pure liquids, test on water/oil mixtures: every mixture is reported
    as *some pure liquid*, with the reported label sliding from oil-like
    to water-like as the water fraction grows.
    """
    from repro.channel.materials import mixture
    from repro.csi.collector import DataCollector

    pure = _materials(("pure_water", "oil", "milk", "soy"))
    refs = theory_reference_omegas(pure)
    scene = standard_scene("lab")
    collector = DataCollector(scene, rng=seed)
    train = [s for m in pure for s in collector.collect_many(m, repetitions)]
    wimi = WiMi(refs)
    wimi.fit(train)

    out = {}
    water, oil = pure[0], pure[1]
    for fraction in fractions:
        blend = mixture(water, oil, fraction)
        votes = {}
        for _ in range(max(3, repetitions // 2)):
            predicted = wimi.identify(collector.collect(blend))
            votes[predicted] = votes.get(predicted, 0) + 1
        reported = max(votes, key=lambda k: votes[k])
        out[f"water_fraction_{fraction:g}"] = {
            "reported_as": reported,
            "votes": votes,
        }
    return out


def multi_link_fusion(
    repetitions: int = 8,
    seed: int = 0,
    num_links: int = 3,
    material_names=HARD_LIQUIDS,
) -> dict:
    """Discussion-section future work: fuse several Wi-Fi links.

    "more Wi-Fi links can be available to be employed for material
    sensing": each link is an independent deployment (own multipath, own
    impairments) looking at the same liquid; a majority vote over the
    per-link decisions should beat the average single link.  The links
    are deliberately stressed (library multipath, 3 m, short captures) so
    fusion has headroom to help.
    """
    from repro.csi.collector import DataCollector, SessionConfig

    if num_links < 1:
        raise ValueError(f"num_links must be >= 1, got {num_links}")
    materials = _materials(material_names)
    refs = theory_reference_omegas(materials)

    config = SessionConfig(num_packets=8)
    links = []
    for link in range(num_links):
        collector = DataCollector(
            standard_scene("library", distance_m=3.0), rng=seed * 101 + link
        )
        dataset = {
            m.name: collector.collect_many(m, repetitions, config)
            for m in materials
        }
        train, test = split_dataset(dataset)
        wimi = WiMi(refs)
        wimi.fit(train)
        links.append((wimi, test))

    # Per-link accuracy (batched: one denoiser pass per trace, and the
    # fused vote below reuses every cached stage).
    per_link = []
    for wimi, test in links:
        predictions = wimi.identify_batch(test)
        correct = sum(
            p == s.material_name for p, s in zip(predictions, test)
        )
        per_link.append(correct / len(test))

    # Fused: the k-th test session of every link observes the same
    # ground-truth liquid (identical collection order), so a majority
    # vote across links is well defined.
    num_test = len(links[0][1])
    fused_correct = 0
    for idx in range(num_test):
        truth = links[0][1][idx].material_name
        votes = {}
        for wimi, test in links:
            predicted = wimi.identify(test[idx])
            votes[predicted] = votes.get(predicted, 0) + 1
        if max(votes, key=lambda k: votes[k]) == truth:
            fused_correct += 1

    return {
        "per_link": per_link,
        "fused": fused_correct / num_test,
        "best_single": max(per_link),
        "mean_single": float(np.mean(per_link)),
    }
