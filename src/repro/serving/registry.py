"""Persistent registry of fitted detectors shared across tenants.

Training an ImDiffusion detector is by far the most expensive step of the
serving pipeline, so fitted models are checkpointed once and shared: the
registry stores each model as a single ``.npz`` checkpoint (denoiser weights,
scaler statistics, configuration and random-generator state) written through
:mod:`repro.nn.serialization`, and any number of serving processes can load
the same warm model.  Restored detectors produce bit-identical predictions to
the detector that was saved.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core import ImDiffusionDetector
from ..nn.serialization import (atomic_save_checkpoint,
                                exclusive_save_checkpoint, load_checkpoint,
                                load_checkpoint_metadata)

__all__ = ["ModelRecord", "ModelRegistry"]

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_SUFFIX = ".ckpt.npz"


@dataclass(frozen=True)
class ModelRecord:
    """Catalogue entry describing one registered model."""

    name: str
    path: str
    num_features: int
    window_size: int
    num_steps: int
    created_at: float
    size_bytes: int

    def describe(self) -> str:
        return (f"{self.name}: {self.num_features} features, "
                f"window {self.window_size}, {self.num_steps} diffusion steps, "
                f"{self.size_bytes / 1024:.1f} KiB")


class ModelRegistry:
    """File-system backed catalogue of fitted :class:`ImDiffusionDetector` models.

    Models are stored flat, one atomic ``.npz`` checkpoint per name.  Two
    conventions coexist:

    * **Unversioned** names (``save``/``load``): publishing under an existing
      name atomically replaces the previous checkpoint.
    * **Versioned** lineages (``publish_version``/``load_version``): each
      publish appends an immutable ``name.v<N>`` checkpoint, so the online
      adaptation loop can roll back to (or audit) any earlier model.

    Examples
    --------
    >>> registry = ModelRegistry("/tmp/registry-example")
    >>> detector.fit(train)                                # doctest: +SKIP
    >>> registry.save("served", detector)                  # doctest: +SKIP
    >>> registry.publish_version("served", detector)       # doctest: +SKIP
    1
    >>> registry.load_version("served", 1)                 # doctest: +SKIP
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, name: str) -> str:
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid model name {name!r}: use letters, digits, '.', '_' or '-'"
            )
        return os.path.join(self.root, name + _SUFFIX)

    # ------------------------------------------------------------------
    def save(self, name: str, detector: ImDiffusionDetector,
             metadata: Optional[dict] = None) -> str:
        """Checkpoint a fitted detector under ``name``; returns the file path.

        Saving under an existing name overwrites the previous checkpoint
        (publishing a retrained model is an atomic file replacement).
        """
        path = self._path(name)
        atomic_save_checkpoint(path, *self._payload(name, detector, metadata))
        return path

    @staticmethod
    def _payload(name: str, detector: ImDiffusionDetector,
                 metadata: Optional[dict]):
        arrays, meta = detector.to_checkpoint()
        meta["registry"] = {
            "name": name,
            "created_at": time.time(),
            "extra": metadata or {},
        }
        return arrays, meta

    def load(self, name: str) -> ImDiffusionDetector:
        """Rebuild the fitted detector registered under ``name``."""
        path = self._path(name)
        if not os.path.exists(path):
            raise KeyError(f"no model named {name!r} in registry at {self.root}")
        arrays, meta = load_checkpoint(path)
        return ImDiffusionDetector.from_checkpoint(arrays, meta)

    # ------------------------------------------------------------------
    def record(self, name: str) -> ModelRecord:
        """Catalogue metadata for ``name`` without rebuilding the network."""
        path = self._path(name)
        if not os.path.exists(path):
            raise KeyError(f"no model named {name!r} in registry at {self.root}")
        meta = load_checkpoint_metadata(path)
        config = meta["config"]
        return ModelRecord(
            name=name,
            path=path,
            num_features=int(meta["num_features"]),
            window_size=int(config["window_size"]),
            num_steps=int(config["num_steps"]),
            created_at=float(meta.get("registry", {}).get("created_at", 0.0)),
            size_bytes=os.path.getsize(path),
        )

    def list_models(self) -> List[str]:
        """Sorted names of every checkpoint in the registry directory."""
        names = [
            entry[: -len(_SUFFIX)]
            for entry in os.listdir(self.root)
            if entry.endswith(_SUFFIX)
        ]
        return sorted(names)

    def records(self) -> Dict[str, ModelRecord]:
        """Metadata records of every registered model, keyed by name."""
        return {name: self.record(name) for name in self.list_models()}

    def __contains__(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        """Remove the checkpoint registered under ``name``."""
        path = self._path(name)
        if not os.path.exists(path):
            raise KeyError(f"no model named {name!r} in registry at {self.root}")
        os.remove(path)

    # ------------------------------------------------------------------
    # Versioned lineages (the online-adaptation publish/rollback surface)
    # ------------------------------------------------------------------
    @staticmethod
    def version_name(name: str, version: int) -> str:
        """The registry name of version ``version`` of lineage ``name``."""
        if version < 1:
            raise ValueError("versions start at 1")
        return f"{name}.v{int(version)}"

    def versions(self, name: str) -> List[int]:
        """All published versions of lineage ``name``, ascending."""
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid model name {name!r}")
        pattern = re.compile(re.escape(name) + r"\.v(\d+)$")
        found = []
        for registered in self.list_models():
            match = pattern.match(registered)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> Optional[int]:
        """The newest published version of ``name`` (``None`` if none)."""
        published = self.versions(name)
        return published[-1] if published else None

    def publish_version(self, name: str, detector: ImDiffusionDetector,
                        metadata: Optional[dict] = None) -> int:
        """Publish ``detector`` as the next version of lineage ``name``.

        Versions are immutable and dense: the first publish creates
        ``name.v1``, the next ``name.v2``, and so on.  Returns the new
        version number.  Each version file is created exclusively, so
        publishers sharing a root never overwrite one another: one that
        finds its number already taken (it read :meth:`latest_version`
        before another publish landed) retries on the next number.
        """
        version = (self.latest_version(name) or 0) + 1
        while True:
            extra = dict(metadata or {})
            extra.setdefault("model", name)
            extra.setdefault("version", version)
            versioned = self.version_name(name, version)
            if exclusive_save_checkpoint(
                    self._path(versioned),
                    *self._payload(versioned, detector, extra)):
                return version
            version += 1

    def load_version(self, name: str, version: int) -> ImDiffusionDetector:
        """Rebuild one published version; raises ``KeyError`` if its
        checkpoint is missing (e.g. deleted by retention)."""
        return self.load(self.version_name(name, version))
