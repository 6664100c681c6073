"""Versioned model registry: durable, promotable trained-model bundles.

A *bundle* is anything expressible in the repo's npz/json payload codec
(:mod:`repro.persist.serialize`): a JSON-able ``meta`` dict plus named
float arrays.  :meth:`repro.core.pipeline.WiMi.save_to_registry` packs
the trained classifier, the feature database and the calibration
profile into one bundle; the registry itself is model-agnostic so the
pipeline-zoo direction can register competing pipelines side by side.

Layout::

    <root>/<name>/
        versions/v0001/
            manifest.json    version, created_at, config fingerprint,
                             training-set hash, classifier token, metrics
            bundle.bin       framed payload (same integrity frame as the
                             artifact store)
        CURRENT              {"version": ..., "history": [...]} (atomic)

Version directories are allocated with ``mkdir`` (atomic on every POSIX
filesystem), so two processes saving concurrently get distinct
versions.  ``CURRENT`` is replaced atomically via tmp + ``os.replace``;
``promote`` appends to its history and ``rollback`` pops it, which
makes rollback an O(1) pointer move that never deletes data.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.persist.serialize import (
    IntegrityError,
    frame,
    pack,
    unframe,
    unpack,
)

#: Width of the zero-padded version number in directory names.
_VERSION_DIGITS = 4

_BUNDLE_FILE = "bundle.bin"
_MANIFEST_FILE = "manifest.json"
_CURRENT_FILE = "CURRENT"


class RegistryError(ValueError):
    """A registry operation referenced a missing or invalid entry."""


def _format_version(number: int) -> str:
    return f"v{number:0{_VERSION_DIGITS}d}"


def _parse_version(version: str) -> int:
    if not version.startswith("v"):
        raise RegistryError(f"malformed version {version!r}")
    try:
        return int(version[1:])
    except ValueError as exc:
        raise RegistryError(f"malformed version {version!r}") from exc


class ModelRegistry:
    """Save/load/list/promote/rollback over one registry root.

    All mutating operations are multi-process-safe: version allocation
    uses atomic ``mkdir`` and the ``CURRENT`` pointer uses tmp +
    ``os.replace``.  A thread lock additionally serialises pointer
    read-modify-write within a process.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _model_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise RegistryError(f"invalid model name {name!r}")
        return self.root / name

    def _version_dir(self, name: str, version: str) -> Path:
        return self._model_dir(name) / "versions" / version

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------

    def save(
        self,
        name: str,
        meta: dict,
        arrays: dict[str, np.ndarray],
        manifest: dict | None = None,
        promote: bool = True,
    ) -> str:
        """Persist one bundle as a fresh version; returns the version id.

        ``manifest`` fields (config fingerprint, training-set hash,
        metrics...) are merged into the written manifest alongside the
        registry-owned ``version``/``created_at`` keys.  With
        ``promote=True`` (default) the new version also becomes
        ``CURRENT``.
        """
        versions_root = self._model_dir(name) / "versions"
        versions_root.mkdir(parents=True, exist_ok=True)
        existing = self._version_numbers(name)
        number = (max(existing) + 1) if existing else 1
        # mkdir is atomic: on a race, step past the winner and retry.
        while True:
            version = _format_version(number)
            try:
                self._version_dir(name, version).mkdir()
                break
            except FileExistsError:
                number += 1
        version_dir = self._version_dir(name, version)

        payload = frame(pack(meta, arrays))
        full_manifest = dict(manifest or {})
        full_manifest["version"] = version
        full_manifest["created_at"] = time.time()
        full_manifest["bundle_bytes"] = len(payload)

        self._write_atomic(version_dir / _BUNDLE_FILE, payload)
        self._write_atomic(
            version_dir / _MANIFEST_FILE,
            json.dumps(full_manifest, sort_keys=True, indent=2).encode(),
        )
        if promote:
            self.promote(name, version)
        return version

    def load(
        self, name: str, version: str | None = None
    ) -> tuple[dict, dict[str, np.ndarray], dict]:
        """Load ``(meta, arrays, manifest)`` for a version (None=CURRENT)."""
        if version is None:
            version = self.current_version(name)
            if version is None:
                raise RegistryError(f"model {name!r} has no current version")
        version_dir = self._version_dir(name, version)
        bundle_path = version_dir / _BUNDLE_FILE
        try:
            data = bundle_path.read_bytes()
        except FileNotFoundError as exc:
            raise RegistryError(
                f"model {name!r} version {version} not found"
            ) from exc
        try:
            meta, arrays = unpack(unframe(data))
        except IntegrityError as exc:
            raise RegistryError(
                f"model {name!r} version {version} failed verification: {exc}"
            ) from exc
        manifest = self.manifest(name, version)
        return meta, arrays, manifest

    def manifest(self, name: str, version: str) -> dict:
        """The manifest dict of one version."""
        path = self._version_dir(name, version) / _MANIFEST_FILE
        try:
            return json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise RegistryError(
                f"model {name!r} version {version} has no manifest"
            ) from exc

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------

    def _version_numbers(self, name: str) -> list[int]:
        versions_root = self._model_dir(name) / "versions"
        if not versions_root.is_dir():
            return []
        numbers = []
        for path in versions_root.iterdir():
            try:
                numbers.append(_parse_version(path.name))
            except RegistryError:
                continue
        return sorted(numbers)

    # ------------------------------------------------------------------
    # CURRENT pointer
    # ------------------------------------------------------------------

    def current_version(self, name: str) -> str | None:
        """The promoted version of ``name`` (None if never promoted)."""
        state = self._read_pointer(name)
        return state.get("version") if state else None

    def promote(self, name: str, version: str) -> None:
        """Point ``CURRENT`` at ``version``, recording the old one."""
        if not (self._version_dir(name, version) / _BUNDLE_FILE).exists():
            raise RegistryError(
                f"cannot promote missing version {version} of {name!r}"
            )
        with self._lock:
            state = self._read_pointer(name) or {"version": None, "history": []}
            if state["version"] == version:
                return
            if state["version"] is not None:
                state.setdefault("history", []).append(state["version"])
            state["version"] = version
            self._write_pointer(name, state)

    def rollback(self, name: str) -> str:
        """Undo the last promote; returns the re-instated version."""
        with self._lock:
            state = self._read_pointer(name)
            if not state or not state.get("history"):
                raise RegistryError(
                    f"model {name!r} has no promotion history to roll back"
                )
            previous = state["history"].pop()
            state["version"] = previous
            self._write_pointer(name, state)
            return previous

    def _read_pointer(self, name: str) -> dict | None:
        path = self._model_dir(name) / _CURRENT_FILE
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def _write_pointer(self, name: str, state: dict) -> None:
        path = self._model_dir(name) / _CURRENT_FILE
        self._write_atomic(
            path, json.dumps(state, sort_keys=True).encode()
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_bytes(data)
        os.replace(tmp, path)
