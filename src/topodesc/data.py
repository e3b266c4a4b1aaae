"""Synthetic two-view patch pairs and the binary dataset container.

A scene is a latent vector; view A adds isotropic Gaussian noise, view B is
the latent pushed through a shared near-identity linear distortion plus its
own noise. Files store float32 payloads with a fixed little-endian header;
loading promotes views to float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DatasetFormatError, InvalidArgumentError

DATASET_MAGIC = b"TCPD"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sIIIQdd")

# Largest dim whose record (a uint32 id, then 2 * dim float32) numpy can
# describe: a record dtype is at most 2**31 - 1 bytes.
MAX_DIM = (2**31 - 1 - 4) // 8

# Fraction of scenes (the trailing block) reserved for evaluation.
HOLDOUT_FRACTION = 0.2


@dataclass(frozen=True)
class DatasetFile:
    """In-memory dataset: header fields plus parallel per-scene arrays."""

    version: int
    dim: int
    seed: int
    noise_sigma: float
    distortion: float
    scene_ids: np.ndarray
    views_a: np.ndarray
    views_p: np.ndarray

    @property
    def scene_count(self) -> int:
        return self.scene_ids.shape[0]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is caught as non-finite patches
def generate(
    seed: int, scenes: int, dim: int, noise_sigma: float, distortion: float
) -> DatasetFile:
    """Draw a synthetic dataset deterministically from one integer seed.

    Per scene: latent z ~ N(0, I); view_a = z + sigma * e_a and
    view_p = R z + sigma * e_p with R = I + distortion * G / ||G||_F for one
    shared standard normal G, so ||R - I||_F equals the distortion exactly.
    With distortion == 0 the second view uses the latent unchanged. Values
    are rounded through float32 so written files reproduce them bit for bit.
    """
    if scenes < 2:
        raise InvalidArgumentError(f"need at least 2 scenes, got {scenes}")
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if not (0 <= noise_sigma < np.inf and 0 <= distortion < np.inf):
        raise InvalidArgumentError(
            f"noise_sigma and distortion must be finite and >= 0, got {noise_sigma}, {distortion}"
        )
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((scenes, dim))
    if distortion > 0:
        g = rng.standard_normal((dim, dim))
        r = np.eye(dim) + distortion * g / np.sqrt(np.sum(g * g))
        warped = latents @ r.T
    else:
        warped = latents
    noise_a = rng.standard_normal((scenes, dim))
    noise_p = rng.standard_normal((scenes, dim))
    views_a = (latents + noise_sigma * noise_a).astype(np.float32).astype(np.float64)
    views_p = (warped + noise_sigma * noise_p).astype(np.float32).astype(np.float64)
    if not (np.isfinite(views_a).all() and np.isfinite(views_p).all()):
        raise InvalidArgumentError(
            f"noise_sigma {noise_sigma} and distortion {distortion} overflow float32 patches"
        )
    return DatasetFile(
        version=DATASET_VERSION,
        dim=dim,
        seed=seed,
        noise_sigma=noise_sigma,
        distortion=distortion,
        scene_ids=np.arange(scenes, dtype=np.int64),
        views_a=views_a,
        views_p=views_p,
    )


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("sid", "<u4"), ("va", "<f4", (dim,)), ("vp", "<f4", (dim,))])


def write_dataset(ds: DatasetFile, path: str) -> None:
    """Serialize header and per-scene records in scene order."""
    header = _HEADER.pack(
        DATASET_MAGIC,
        ds.version,
        ds.scene_count,
        ds.dim,
        ds.seed,
        ds.noise_sigma,
        ds.distortion,
    )
    records = np.empty(ds.scene_count, dtype=_record_dtype(ds.dim))
    records["sid"] = ds.scene_ids
    records["va"] = ds.views_a
    records["vp"] = ds.views_p
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_dataset(path: str) -> DatasetFile:
    """Parse a dataset file, naming the byte offset of any malformation."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DatasetFormatError(
            f"file truncated at offset {len(blob)}: header needs {_HEADER.size} bytes"
        )
    magic, version, scene_count, dim, seed, noise_sigma, distortion = _HEADER.unpack_from(
        blob, 0
    )
    if magic != DATASET_MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r} at offset 0")
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"unsupported version {version} at offset 4")
    if not 1 <= dim <= MAX_DIM:
        raise DatasetFormatError(f"header dim {dim} at offset 12 must be in [1, {MAX_DIM}]")
    rec = _record_dtype(dim)
    expected = _HEADER.size + scene_count * rec.itemsize
    if len(blob) < expected:
        raise DatasetFormatError(
            f"file truncated at offset {len(blob)}: {scene_count} records need {expected} bytes"
        )
    if len(blob) > expected:
        raise DatasetFormatError(f"unexpected trailing bytes at offset {expected}")
    records = np.frombuffer(blob, dtype=rec, count=scene_count, offset=_HEADER.size)
    # Each record is one uint32 scene id, then 2 * dim float32 values.
    values = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(scene_count, 1 + 2 * dim)
    bad = ~np.isfinite(values[:, 1:])
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), 2 * dim)
        offset = _HEADER.size + rec.itemsize * row + 4 * (1 + col)
        raise DatasetFormatError(f"non-finite patch value at offset {offset}")
    return DatasetFile(
        version=version,
        dim=dim,
        seed=seed,
        noise_sigma=noise_sigma,
        distortion=distortion,
        scene_ids=records["sid"].astype(np.int64),
        views_a=records["va"].astype(np.float64),
        views_p=records["vp"].astype(np.float64),
    )


def subset(ds: DatasetFile, indices: np.ndarray) -> DatasetFile:
    """New dataset restricted to the given scene positions."""
    idx = np.asarray(indices)
    return replace(
        ds,
        scene_ids=ds.scene_ids[idx].copy(),
        views_a=ds.views_a[idx].copy(),
        views_p=ds.views_p[idx].copy(),
    )


def split_train_heldout(ds: DatasetFile) -> tuple[DatasetFile, DatasetFile]:
    """Leading (1 - HOLDOUT_FRACTION) of scenes for training, trailing block held out.

    Both halves keep at least one scene so a split never silently empties.
    """
    n = ds.scene_count
    cut = int(round(n * (1.0 - HOLDOUT_FRACTION)))
    cut = min(max(cut, 1), n - 1)
    return subset(ds, np.arange(cut)), subset(ds, np.arange(cut, n))


def sample_batch(
    ds: DatasetFile, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw batch_size distinct scenes; returns (scene_ids, views_a, views_p)."""
    if not 1 <= batch_size <= ds.scene_count:
        raise InvalidArgumentError(
            f"batch_size must be in [1, {ds.scene_count}], got {batch_size}"
        )
    idx = rng.choice(ds.scene_count, size=batch_size, replace=False)
    return ds.scene_ids[idx], ds.views_a[idx], ds.views_p[idx]
