"""Content-addressed, multi-process-safe on-disk artifact store.

The store is the disk tier behind :class:`repro.engine.StageCache`.
Layout (all under one root directory)::

    <root>/
      objects/<stage>/<digest[:2]>/<digest>.art    framed artifact files
      quarantine/<stage>/<digest>.art              verify-failed entries
      *.tmp                                        in-flight writes

where ``digest`` is the blake2b-128 hex of ``stage + "\\0" + key`` --
the engine's cache keys are already content hashes of trace bytes plus
stage-relevant config, so addressing by (stage, key) *is* content
addressing and concurrent writers of the same key always carry
identical payloads.

Concurrency contract (the part ``parallel_map`` fleets depend on):

* **Writes are atomic.** A put writes to a unique ``.tmp`` file in the
  *same directory* and then ``os.replace``-es it into place.  Readers
  can never observe a torn file; two processes racing on one key both
  succeed and the survivor is a complete, valid entry.
* **Reads are verified.** Every get re-checks the integrity frame
  (magic + digest) and the recorded (stage, key); any mismatch --
  truncation, bit flips, a foreign file dropped into the tree -- is
  counted and reported as a miss, never an exception.
* **Corruption is quarantined.** A verify-failed entry is *moved* to
  ``quarantine/`` in the same get, so known-bad bytes are never re-read
  (later gets are plain not-found misses, not repeated verification of
  garbage) and the address is freed for the self-heal path: the miss
  triggers a recompute, whose put lands a fresh valid entry
  (``healed`` counts such re-puts of previously quarantined
  addresses).

The store deliberately has **no index file**: the filesystem tree is
the index, so there is nothing to lock and nothing to corrupt.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
from pathlib import Path

from repro.engine.artifacts import Artifact
from repro.persist.serialize import (
    IntegrityError,
    deserialize_artifact,
    payload_array_dtypes,
    serialize_artifact,
)

#: File extension of completed entries.
_ENTRY_SUFFIX = ".art"

#: Per-process counter making tmp names unique within a thread+pid.
_TMP_COUNTER = itertools.count()


def _address(stage: str, key: str) -> str:
    """Hex digest addressing one (stage, key) entry on disk."""
    raw = stage.encode("utf-8") + b"\0" + key.encode("utf-8")
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


class ArtifactStore:
    """Durable artifact tier; see module docstring for guarantees.

    Args:
        root: Directory for the store (created on first use).

    Instance counters (``hits``/``misses``/``writes``/``corrupt``/
    ``errors``) are process-local and thread-safe; they feed the serve
    metrics and ``repro store`` output but carry no durable state.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._quarantine = self.root / "quarantine"
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.errors = 0
        self.quarantined = 0
        self.healed = 0
        #: Addresses quarantined by this process, pending self-heal
        #: (a later put of the same address counts as ``healed``).
        self._pending_heal: set[str] = set()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def path_for(self, stage: str, key: str) -> Path:
        """Where the entry for (stage, key) lives (whether or not it exists)."""
        digest = _address(stage, key)
        return self._objects / stage / digest[:2] / (digest + _ENTRY_SUFFIX)

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, stage: str, key: str) -> Artifact | None:
        """Load and verify one entry; any problem is a miss, not a crash."""
        path = self.path_for(stage, key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:
            with self._lock:
                self.errors += 1
                self.misses += 1
            return None
        try:
            artifact = deserialize_artifact(data)
        except (IntegrityError, ValueError, KeyError, OSError):
            # Truncated, bit-flipped, or foreign file: treat as a miss
            # and quarantine the bytes so they are never re-read.
            self._quarantine_entry(stage, key, path)
            return None
        if artifact.key != key:
            # An address collision or a file moved by hand; do not
            # serve an artifact for a key it was not computed under.
            self._quarantine_entry(stage, key, path)
            return None
        with self._lock:
            self.hits += 1
        return artifact

    def _quarantine_entry(self, stage: str, key: str, path: Path) -> None:
        """Move a verify-failed entry out of the addressable tree.

        ``os.replace`` keeps this race-safe: if two readers hit the
        same bad entry, one move wins and the loser's (FileNotFoundError)
        is ignored -- either way the address is freed, so the caller's
        miss triggers a recompute whose put self-heals the entry.
        """
        moved = already_gone = False
        dest = self._quarantine / stage / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            moved = True
        except FileNotFoundError:
            already_gone = True  # a concurrent reader quarantined it first
        except OSError:
            # Could not move (e.g. permissions): fall back to the old
            # behaviour -- the entry stays and will re-verify-fail.
            pass
        with self._lock:
            self.corrupt += 1
            self.misses += 1
            if moved:
                self.quarantined += 1
            if moved or already_gone:
                self._pending_heal.add(_address(stage, key))
            else:
                self.errors += 1

    def put(self, stage: str, key: str, artifact: Artifact) -> bool:
        """Persist one entry atomically; returns False if already stored.

        Content addressing makes the existence check safe: a concurrent
        writer of the same (stage, key) holds byte-equivalent content,
        so whichever ``os.replace`` lands last leaves a valid entry.
        """
        path = self.path_for(stage, key)
        if path.exists():
            return False
        try:
            data = serialize_artifact(artifact)
        except TypeError:
            # Artifact type without a codec: skip persistence silently;
            # the memory tier still serves it for this process.
            return False
        tmp = path.parent / (
            f"{path.stem}.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_COUNTER)}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            with self._lock:
                self.errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        with self._lock:
            self.writes += 1
            address = _address(stage, key)
            if address in self._pending_heal:
                self._pending_heal.discard(address)
                self.healed += 1
        return True

    def __contains__(self, stage_key: tuple[str, str]) -> bool:
        stage, key = stage_key
        return self.path_for(stage, key).exists()

    # ------------------------------------------------------------------
    # Inspection / maintenance
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Process-local activity counters as a plain dict."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corrupt": self.corrupt,
                "errors": self.errors,
                "quarantined": self.quarantined,
                "healed": self.healed,
            }

    def stats(self) -> dict:
        """Walk the tree: total/per-stage entry counts, sizes and dtypes.

        Each stage additionally reports how many stored *arrays* it
        holds per dtype (``{"float64": 12}``), read from the npz member
        headers without re-materialising the artifacts.  Unreadable
        entries are skipped here exactly as reads treat them (a miss,
        not a crash).
        """
        stages: dict[str, dict] = {}
        total_entries = 0
        total_bytes = 0
        if self._objects.is_dir():
            for stage_dir in sorted(self._objects.iterdir()):
                if not stage_dir.is_dir():
                    continue
                entries = 0
                size = 0
                dtypes: dict[str, int] = {}
                for path in stage_dir.rglob("*" + _ENTRY_SUFFIX):
                    try:
                        size += path.stat().st_size
                        member_dtypes = payload_array_dtypes(
                            path.read_bytes()
                        )
                    except (IntegrityError, ValueError, KeyError, OSError):
                        continue
                    entries += 1
                    for dtype in member_dtypes.values():
                        dtypes[dtype] = dtypes.get(dtype, 0) + 1
                stages[stage_dir.name] = {
                    "entries": entries,
                    "bytes": size,
                    "dtypes": dict(sorted(dtypes.items())),
                }
                total_entries += entries
                total_bytes += size
        quarantine_entries = 0
        quarantine_bytes = 0
        if self._quarantine.is_dir():
            for path in self._quarantine.rglob("*" + _ENTRY_SUFFIX):
                try:
                    quarantine_bytes += path.stat().st_size
                except OSError:
                    continue
                quarantine_entries += 1
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "stages": stages,
            "quarantine": {
                "entries": quarantine_entries,
                "bytes": quarantine_bytes,
            },
            "counters": self.counters(),
        }

    def gc(self) -> dict[str, int]:
        """Prune leftovers: stale tmp files, corrupt and quarantined entries.

        Returns counts of removed tmp files, corrupt entries (found by
        re-verifying the addressable tree) and purged quarantine files.
        Valid entries are never touched -- content addressing means an
        entry can only ever be stale by corruption, not by age.
        """
        removed_tmp = 0
        removed_corrupt = 0
        removed_quarantined = 0
        if self.root.is_dir():
            for tmp in self.root.rglob("*.tmp"):
                try:
                    tmp.unlink()
                    removed_tmp += 1
                except OSError:
                    continue
        if self._objects.is_dir():
            for path in self._objects.rglob("*" + _ENTRY_SUFFIX):
                try:
                    deserialize_artifact(path.read_bytes())
                except (IntegrityError, ValueError, KeyError, OSError):
                    try:
                        path.unlink()
                        removed_corrupt += 1
                    except OSError:
                        continue
        if self._quarantine.is_dir():
            for path in self._quarantine.rglob("*" + _ENTRY_SUFFIX):
                try:
                    path.unlink()
                    removed_quarantined += 1
                except OSError:
                    continue
        return {
            "tmp_removed": removed_tmp,
            "corrupt_removed": removed_corrupt,
            "quarantine_removed": removed_quarantined,
        }
