"""Saving and loading module parameters to ``.npz`` archives."""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from typing import Dict, Tuple

import numpy as np

from .layers import Module

__all__ = [
    "save_module",
    "load_module",
    "save_state_dict",
    "load_state_dict",
    "save_checkpoint",
    "atomic_save_checkpoint",
    "exclusive_save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_metadata",
]

#: Reserved archive key holding the JSON metadata of a checkpoint.
METADATA_KEY = "__checkpoint_metadata__"


def save_state_dict(state: Dict[str, np.ndarray], path: str) -> None:
    """Persist a ``state_dict`` mapping to a compressed ``.npz`` file.

    Parameter names may contain dots, which ``np.savez`` handles fine because
    keys are plain strings inside the archive.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez_compressed(path, **state)


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a ``state_dict`` previously written by :func:`save_state_dict`."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def save_checkpoint(path: str, arrays: Dict[str, np.ndarray], metadata: dict) -> None:
    """Persist named arrays plus a JSON-serialisable metadata dict in one archive.

    The metadata is stored as a UTF-8 byte array under :data:`METADATA_KEY`
    inside the same ``.npz`` file, so a checkpoint is a single portable file.
    JSON keeps arbitrary-precision integers, which matters for the random
    generator state stored by the model registry.
    """
    if METADATA_KEY in arrays:
        raise ValueError(f"array name {METADATA_KEY!r} is reserved for metadata")
    payload = dict(arrays)
    encoded = json.dumps(metadata).encode("utf-8")
    payload[METADATA_KEY] = np.frombuffer(encoded, dtype=np.uint8)
    save_state_dict(payload, path)


def _publish_checkpoint(path: str, arrays: Dict[str, np.ndarray],
                        metadata: dict, publish):
    """Write the archive to a private temp file, then ``publish(tmp, path)``.

    Each writer gets its own temp name, so concurrent writers of one path
    never share (and clobber) a half-written archive; the temp file is
    removed whether or not publishing succeeded.  Returns what ``publish``
    returns.
    """
    tmp_path = f"{path}.{uuid.uuid4().hex}.tmp.npz"  # np.savez keeps a .npz name
    try:
        save_checkpoint(tmp_path, arrays, metadata)
        return publish(tmp_path, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)


def atomic_save_checkpoint(path: str, arrays: Dict[str, np.ndarray],
                           metadata: dict) -> None:
    """:func:`save_checkpoint` through a temp file + atomic rename.

    A reader never observes a half-written archive: the payload lands in a
    private temp file first and is moved over ``path`` with ``os.replace``
    (publishing a new checkpoint is an atomic file swap).  Used by both the
    serving :class:`~repro.serving.ModelRegistry` and the training
    :class:`~repro.training.Checkpoint` callback.
    """
    _publish_checkpoint(path, arrays, metadata, os.replace)


def exclusive_save_checkpoint(path: str, arrays: Dict[str, np.ndarray],
                              metadata: dict) -> bool:
    """:func:`save_checkpoint` to a path that must not exist yet.

    The payload lands in a private temp file and is hard-linked to ``path``;
    ``os.link`` fails atomically when ``path`` exists, so of two writers
    racing for one name exactly one wins and neither overwrites the other.
    Returns ``False`` (and writes nothing) when ``path`` is already taken.
    """
    def link(tmp_path: str, target: str) -> bool:
        try:
            os.link(tmp_path, target)
        except FileExistsError:
            return False
        return True

    return _publish_checkpoint(path, arrays, metadata, link)


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Load ``(arrays, metadata)`` previously written by :func:`save_checkpoint`."""
    state = load_state_dict(path)
    raw = state.pop(METADATA_KEY, None)
    if raw is None:
        raise KeyError(f"{path!r} is not a checkpoint: missing {METADATA_KEY!r}")
    metadata = json.loads(raw.tobytes().decode("utf-8"))
    return state, metadata


def load_checkpoint_metadata(path: str) -> dict:
    """Read only the metadata of a checkpoint, without decompressing arrays.

    ``np.load`` on an ``.npz`` archive is lazy per entry, so cataloguing many
    checkpoints stays cheap regardless of model size.
    """
    with np.load(path) as archive:
        if METADATA_KEY not in archive.files:
            raise KeyError(f"{path!r} is not a checkpoint: missing {METADATA_KEY!r}")
        return json.loads(archive[METADATA_KEY].tobytes().decode("utf-8"))


def save_module(module: Module, path: str) -> None:
    """Save all parameters of ``module`` to ``path`` (``.npz``)."""
    save_state_dict(module.state_dict(), path)


def load_module(module: Module, path: str) -> Module:
    """Load parameters into ``module`` from ``path`` and return the module."""
    module.load_state_dict(load_state_dict(path))
    return module
