"""ModelRegistry: versioning, promotion, rollback, and WiMi bundles."""

import json

import numpy as np
import pytest

from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.core.database import DatabaseClassifier
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import DeploymentCalibration, WiMi
from repro.csi.faults import flip_bits
from repro.csi.quality import quality_thresholds
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.persist import ModelRegistry, RegistryError

RNG = np.random.default_rng(11)


def _bundle(seed: int = 0):
    rng = np.random.default_rng(seed)
    meta = {"kind": "test-bundle", "seed": seed}
    arrays = {"weights": rng.normal(size=(3, 4)), "bias": rng.normal(size=3)}
    return meta, arrays


class TestSaveLoad:
    def test_save_load_is_bit_exact(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        meta, arrays = _bundle()
        version = registry.save("m", meta, arrays, manifest={"accuracy": 0.9})
        assert version == "v0001"
        out_meta, out_arrays, manifest = registry.load("m")
        assert out_meta == meta
        for name in arrays:
            assert np.array_equal(out_arrays[name], arrays[name])
        assert manifest["accuracy"] == 0.9
        assert manifest["version"] == "v0001"
        assert manifest["bundle_bytes"] > 0
        assert "created_at" in manifest

    def test_versions_are_monotonic(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.save("m", *_bundle(0)) == "v0001"
        assert registry.save("m", *_bundle(1)) == "v0002"
        assert registry.current_version("m") == "v0002"

    def test_load_explicit_version(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle(0))
        registry.save("m", *_bundle(1))
        meta, _, _ = registry.load("m", "v0001")
        assert meta["seed"] == 0

    def test_save_without_promote_keeps_current(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle(0))
        registry.save("m", *_bundle(1), promote=False)
        assert registry.current_version("m") == "v0001"
        meta, _, _ = registry.load("m", "v0002")
        assert meta["seed"] == 1

    def test_load_missing_model_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="no current version"):
            registry.load("ghost")
        with pytest.raises(RegistryError, match="not found"):
            registry.load("ghost", "v0001")

    def test_invalid_model_names_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(RegistryError, match="invalid model name"):
                registry.save(bad, *_bundle())

    def test_corrupt_bundle_fails_verification(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle())
        bundle = tmp_path / "reg" / "m" / "versions" / "v0001" / "bundle.bin"
        flip_bits(bundle, num_flips=12, seed=3)
        with pytest.raises(RegistryError, match="failed verification"):
            registry.load("m")


class TestPromoteRollback:
    def test_promote_records_history(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle(0))
        registry.save("m", *_bundle(1))
        state = json.loads((tmp_path / "reg" / "m" / "CURRENT").read_text())
        assert state == {"version": "v0002", "history": ["v0001"]}

    def test_promote_missing_version_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle())
        with pytest.raises(RegistryError, match="cannot promote"):
            registry.promote("m", "v0099")

    def test_promote_same_version_is_a_noop(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle())
        registry.promote("m", "v0001")
        state = json.loads((tmp_path / "reg" / "m" / "CURRENT").read_text())
        assert state["history"] == []

    def test_rollback_restores_previous_and_keeps_data(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle(0))
        registry.save("m", *_bundle(1))
        assert registry.rollback("m") == "v0001"
        assert registry.current_version("m") == "v0001"
        # Rollback is a pointer move: the newer bundle stays loadable.
        meta, _, _ = registry.load("m", "v0002")
        assert meta["seed"] == 1

    def test_rollback_on_fresh_model_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save("m", *_bundle())
        with pytest.raises(RegistryError, match="no promotion history"):
            registry.rollback("m")


CATALOG = default_catalog()
NAMES = ("pure_water", "oil")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A fitted pipeline saved into a registry, plus its test sessions."""
    materials = [CATALOG.get(n) for n in NAMES]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=4,
        num_packets=8, seed=5,
    )
    train, test = split_dataset(dataset)
    registry_path = tmp_path_factory.mktemp("registry")
    config = WiMiConfig(model_registry_path=str(registry_path))
    wimi = WiMi(theory_reference_omegas(materials), config)
    wimi.fit(train)
    wimi.save_to_registry(metrics={"train_sessions": len(train)})
    return wimi, ModelRegistry(registry_path), test


class TestWiMiBundles:
    def test_restored_pipeline_predicts_identically(self, trained):
        wimi, registry, test = trained
        restored = WiMi.from_registry(registry)
        assert restored.identify_batch(test) == wimi.identify_batch(test)

    def test_manifest_carries_provenance(self, trained):
        _, registry, _ = trained
        manifest = registry.manifest("wimi", registry.current_version("wimi"))
        assert manifest["metrics"]["train_sessions"] > 0
        assert sorted(manifest["materials"]) == sorted(NAMES)
        assert manifest["config_fingerprint"]
        assert manifest["training_set_hash"]
        assert manifest["classifier_token"].startswith("clf-")

    def test_restored_calibration_matches(self, trained):
        wimi, registry, _ = trained
        restored = WiMi.from_registry(registry)
        assert restored.calibration == wimi.calibration

    def test_rollback_serves_the_older_model(self, trained):
        wimi, registry, test = trained
        expected = wimi.identify_batch(test)
        wimi.save_to_registry(metrics={"note": 2})  # v0002, promoted
        registry.rollback("wimi")
        restored = WiMi.from_registry(registry)
        assert restored.identify_batch(test) == expected

    def test_save_requires_a_registry_destination(self, trained):
        wimi, _, _ = trained
        bare = WiMi(wimi.extractor.reference_omegas, WiMiConfig())
        with pytest.raises((ValueError, RuntimeError)):
            bare.save_to_registry()


class TestLegacyPrecisionBundles:
    """Bundles saved while the pipeline had a float32 compute path carry
    ``config["compute_precision"]`` and ``classifier["precision"]``."""

    def _legacy(self, trained, tmp_path, precision):
        _, registry, _ = trained
        meta, arrays, _ = registry.load("wimi")
        meta["config"]["compute_precision"] = precision
        meta["classifier"]["precision"] = precision
        legacy = ModelRegistry(tmp_path / "legacy")
        legacy.save("wimi", meta, arrays)
        return legacy

    def test_float64_bundle_loads_unchanged(self, trained, tmp_path):
        wimi, _, test = trained
        restored = WiMi.from_registry(
            self._legacy(trained, tmp_path, "float64")
        )
        assert restored.config == wimi.config
        assert restored.identify_batch(test) == wimi.identify_batch(test)

    def test_float32_bundle_is_refused(self, trained, tmp_path):
        # Its SVM was trained on a float32 Gram: serving it on the
        # float64 pipeline would silently shift predictions.
        legacy = self._legacy(trained, tmp_path, "float32")
        with pytest.raises(ValueError, match="compute_precision"):
            WiMi.from_registry(legacy)
        meta, arrays, _ = legacy.load("wimi")
        with pytest.raises(ValueError, match="precision='float32'"):
            DatabaseClassifier.from_state(meta["classifier"], arrays)


class TestLegacyStreamWindowBundles:
    """Bundles saved while the preview windows were config fields carry
    ``config["stream_window_size"]`` and ``config["stream_hop"]``."""

    def _legacy(self, trained, tmp_path, window, hop):
        _, registry, _ = trained
        meta, arrays, _ = registry.load("wimi")
        meta["config"]["stream_window_size"] = window
        meta["config"]["stream_hop"] = hop
        legacy = ModelRegistry(tmp_path / "legacy")
        legacy.save("wimi", meta, arrays)
        return legacy

    def test_constant_windows_load_unchanged(self, trained, tmp_path):
        wimi, _, test = trained
        restored = WiMi.from_registry(self._legacy(trained, tmp_path, 8, 4))
        assert restored.config == wimi.config
        assert restored.identify_batch(test) == wimi.identify_batch(test)

    @pytest.mark.parametrize(
        "window, hop, field",
        [(16, 4, "stream_window_size"), (8, 16, "stream_hop")],
    )
    def test_other_windows_are_refused(
        self, trained, tmp_path, window, hop, field
    ):
        legacy = self._legacy(trained, tmp_path, window, hop)
        with pytest.raises(ValueError, match=f"{field}=16"):
            WiMi.from_registry(legacy)


#: Fields that were ``WiMiConfig`` fields before the pipeline fixed
#: them, with the value it fixes.
FIXED_FIELDS = {
    "wavelet_name": "db2",
    "wavelet_levels": 3,
    "outlier_sigmas": 3.0,
    "svm_c": 10.0,
    "knn_k": 5,
    "max_gamma": 4,
    "quality_thresholds": quality_thresholds(),
    "degradation_policy": "degrade",
}

#: A value other than the fixed one, per field.
OTHER_VALUES = {
    "wavelet_name": "haar",
    "wavelet_levels": 2,
    "outlier_sigmas": 2.0,
    "svm_c": 1.0,
    "knn_k": 3,
    "max_gamma": 2,
    "quality_thresholds": {**quality_thresholds(), "max_loss_rate": 0.1},
    "degradation_policy": "raise",
}


class TestLegacyConfigFieldBundles:
    """Bundles saved while the fixed pipeline constants were config
    fields carry them in ``config``; the classifier state of such a
    bundle also carries ``kernel_params``."""

    def _legacy(self, trained, tmp_path, fields, kernel_name="rbf"):
        _, registry, _ = trained
        meta, arrays, _ = registry.load("wimi")
        meta["config"].update(fields)
        meta["classifier"]["svm"]["kernel_name"] = kernel_name
        meta["classifier"]["svm"]["kernel_params"] = {}
        legacy = ModelRegistry(tmp_path / "legacy")
        legacy.save("wimi", meta, arrays)
        return legacy

    def test_fixed_values_load_unchanged(self, trained, tmp_path):
        wimi, _, test = trained
        restored = WiMi.from_registry(
            self._legacy(trained, tmp_path, FIXED_FIELDS)
        )
        assert restored.config == wimi.config
        assert restored.identify_batch(test) == wimi.identify_batch(test)

    @pytest.mark.parametrize("field", sorted(OTHER_VALUES))
    def test_other_values_are_refused(self, trained, tmp_path, field):
        legacy = self._legacy(
            trained, tmp_path, {**FIXED_FIELDS, field: OTHER_VALUES[field]}
        )
        with pytest.raises(ValueError, match=f"saved state has {field}="):
            WiMi.from_registry(legacy)

    @pytest.mark.parametrize("field", sorted(FIXED_FIELDS))
    def test_overrides_cannot_set_a_fixed_field(self, trained, field):
        _, registry, _ = trained
        with pytest.raises(TypeError, match=field):
            WiMi.from_registry(
                registry, config_overrides={field: FIXED_FIELDS[field]}
            )

    def test_non_rbf_kernel_is_refused(self, trained, tmp_path):
        legacy = self._legacy(trained, tmp_path, {}, kernel_name="linear")
        with pytest.raises(ValueError, match="kernel_name='linear'"):
            WiMi.from_registry(legacy)

    @pytest.mark.parametrize(
        "field, value", [("svm_c", 1.0), ("knn_k", 3)]
    )
    def test_other_classifier_constants_are_refused(
        self, trained, field, value
    ):
        _, registry, _ = trained
        meta, arrays, _ = registry.load("wimi")
        state = {**meta["classifier"], field: value}
        with pytest.raises(ValueError, match=f"{field}={value!r}"):
            DatabaseClassifier.from_state(state, arrays)


class TestCalibrationBundles:
    """The bundle's ``calibration`` layout: ``pair`` and ``subcarriers``
    repeat the main entries of ``feature_pairs``/``subcarriers_by_pair``."""

    def _saved(self, trained, tmp_path, **changes):
        _, registry, _ = trained
        meta, arrays, _ = registry.load("wimi")
        for key, value in changes.items():
            if key == "reference_omegas":
                meta[key] = value
            else:
                meta["calibration"][key] = value
        saved = ModelRegistry(tmp_path / "saved")
        saved.save("wimi", meta, arrays)
        return saved

    def test_hand_built_calibration_loads_to_an_equal_record(
        self, trained, tmp_path
    ):
        state = {
            "pair": [0, 2],
            "feature_pairs": [[0, 2], [0, 1]],
            "ranked_pairs": [[0, 2], [0, 1]],
            "coarse_pair": [1, 2],
            "subcarriers": [4, 9, 17, 22],
            "subcarriers_by_pair": {
                "0,2": [4, 9, 17, 22],
                "0,1": [3, 5, 20, 23],
            },
        }
        restored = WiMi.from_registry(
            self._saved(trained, tmp_path, **state)
        )
        assert restored.calibration == DeploymentCalibration(
            feature_pairs=((0, 2), (0, 1)),
            ranked_pairs=((0, 2), (0, 1)),
            coarse_pair=(1, 2),
            subcarriers={(0, 2): (4, 9, 17, 22), (0, 1): (3, 5, 20, 23)},
        )
        assert restored.calibration.to_state() == state

    def test_pair_disagreeing_with_the_feature_pairs_is_refused(
        self, trained, tmp_path
    ):
        wimi, _, _ = trained
        other = next(
            p for p in wimi.calibration.ranked_pairs
            if p != wimi.calibration.pair
        )
        saved = self._saved(trained, tmp_path, pair=list(other))
        with pytest.raises(ValueError, match="calibration has pair="):
            WiMi.from_registry(saved)

    def test_list_form_reference_omegas_is_refused(self, trained, tmp_path):
        wimi, _, _ = trained
        refs = list(wimi.extractor.reference_omegas.values())
        saved = self._saved(trained, tmp_path, reference_omegas=refs)
        with pytest.raises(ValueError, match="reference_omegas"):
            WiMi.from_registry(saved)
