"""Datasets: synthetic class-template rasters, IDX file I/O, split management,
and the weak augmentation used by the contrastive branch.

Weak views are deliberately mild (flip, small brightness jitter, light pixel
noise) so that the contrastive positives stay close; the strong composite
pool lives in ``augment``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import ConfigError, atomic_write_bytes, read_input
from .numcore import make_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

SPLIT_NAMES = ("unlabeled_train", "labeled_train", "eval_train", "eval_test")


@dataclass
class Dataset:
    """Rasters with optional labels and disjoint split index sets."""

    images: np.ndarray            # (N, H, W, C) float64 in [0, 1]
    labels: np.ndarray | None     # (N,) int64 or None
    classes: int
    splits: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, H, W, C), got {self.images.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.images.shape[0],):
                raise ValueError("labels length must match image count")
            if np.any(self.labels < 0) or np.any(self.labels >= self.classes):
                raise ValueError(f"labels must lie in [0, {self.classes})")
        self._validate_splits()

    def _validate_splits(self):
        seen: set[int] = set()
        for name, idx in self.splits.items():
            if name not in SPLIT_NAMES:
                raise ValueError(f"unknown split {name!r}")
            idx = np.asarray(idx, dtype=np.int64)
            self.splits[name] = idx
            if idx.size and (idx.min() < 0 or idx.max() >= self.images.shape[0]):
                raise ValueError(f"split {name!r} has out-of-range indices")
            overlap = seen.intersection(idx.tolist())
            if overlap:
                raise ValueError(f"split {name!r} overlaps another split")
            seen.update(idx.tolist())
            if name != "unlabeled_train" and idx.size and self.labels is None:
                raise ValueError(f"split {name!r} requires labels")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.images.shape[1:]

    def split_images(self, name: str) -> np.ndarray:
        return self.images[self.splits[name]]

    def split_labels(self, name: str) -> np.ndarray:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return self.labels[self.splits[name]]


def assign_splits(classes: int, labels: np.ndarray, labeled_frac: float,
                  rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Per-class split: 75% train (labeled_frac of it carved out as labeled),
    remainder halved into eval-train / eval-test. All four sets are disjoint."""
    unlabeled, labeled, eval_train, eval_test = [], [], [], []
    for c in range(classes):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        n_train = int(round(0.75 * idx.size))
        n_lab = max(1, int(round(labeled_frac * n_train))) if n_train else 0
        train = idx[:n_train]
        rest = idx[n_train:]
        labeled.append(train[:n_lab])
        unlabeled.append(train[n_lab:])
        half = rest.size // 2
        eval_train.append(rest[:half])
        eval_test.append(rest[half:])
    return {
        "unlabeled_train": np.concatenate(unlabeled) if unlabeled else np.zeros(0, np.int64),
        "labeled_train": np.concatenate(labeled) if labeled else np.zeros(0, np.int64),
        "eval_train": np.concatenate(eval_train) if eval_train else np.zeros(0, np.int64),
        "eval_test": np.concatenate(eval_test) if eval_test else np.zeros(0, np.int64),
    }


def class_template(c: int, classes: int, height: int, width: int,
                   channels: int) -> np.ndarray:
    """Smooth per-class template: a Gaussian bump at a class-indexed grid
    location plus a class-indexed intensity ramp."""
    grid = max(1, int(np.ceil(np.sqrt(classes))))
    gy, gx = divmod(c, grid)
    cy = height * (0.5 + gy) / grid
    cx = width * (0.5 + gx) / grid
    sigma_b = 0.11 * min(height, width)
    ys, xs = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    bump = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma_b ** 2))
    ramp_strength = 0.08 + 0.12 * (c % 4) / 3.0
    ramp_axis = xs / max(1, width - 1) if c % 2 == 0 else ys / max(1, height - 1)
    base = 0.25 + 0.4 * bump + ramp_strength * ramp_axis
    img = np.repeat(base[:, :, None], channels, axis=2)
    return np.clip(img, 0.0, 1.0)


def synth_dataset(classes: int, per_class: int, height: int, width: int,
                  noise: float, rng: np.random.Generator, channels: int = 1,
                  labeled_frac: float = 0.1) -> Dataset:
    """Template-plus-noise dataset; deterministic given the generator state."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1 or height < 2 or width < 2:
        raise ValueError("degenerate dataset dimensions")
    templates = [class_template(c, classes, height, width, channels)
                 for c in range(classes)]
    images = np.zeros((classes * per_class, height, width, channels))
    labels = np.zeros(classes * per_class, dtype=np.int64)
    pos = 0
    for c in range(classes):
        for _ in range(per_class):
            noisy = templates[c] + noise * rng.standard_normal(templates[c].shape)
            images[pos] = np.clip(noisy, 0.0, 1.0)
            labels[pos] = c
            pos += 1
    splits = assign_splits(classes, labels, labeled_frac, rng)
    return Dataset(images=images, labels=labels, classes=classes, splits=splits)


# ---------------------------------------------------------------------------
# IDX file format (big-endian, u8 pixels)


def _read_idx(path: str, magic: int, kind: str, ndim: int) -> np.ndarray:
    """The u8 payload of an IDX file with the given magic and ``ndim`` dims."""
    data = read_input(path)
    header = 4 * (1 + ndim)  # the magic and each dim, big-endian u32
    if len(data) < header:
        raise ConfigError(f"{path}: truncated header")
    found, *shape = struct.unpack_from(f">{1 + ndim}I", data)
    if found != magic:
        raise ConfigError(f"{path}: bad {kind} magic 0x{found:08x}")
    payload = data[header:]
    if len(payload) != math.prod(shape):
        raise ConfigError(f"{path}: payload is {len(payload)} bytes, "
                         f"declared {'x'.join(map(str, shape))}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def read_idx_images(path: str) -> np.ndarray:
    return _read_idx(path, IDX_IMAGE_MAGIC, "image", 3).astype(np.float64)[:, :, :, None] / 255.0


def read_idx_labels(path: str) -> np.ndarray:
    return _read_idx(path, IDX_LABEL_MAGIC, "label", 1).astype(np.int64)


def load_idx(images_path: str, labels_path: str, labeled_frac: float = 0.1,
             seed: int = 0) -> Dataset:
    """Load an images/labels IDX pair into a split Dataset (single channel)."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ConfigError(f"{images_path} has {images.shape[0]} images but "
                          f"{labels_path} has {labels.shape[0]} labels")
    classes = int(labels.max()) + 1 if labels.size else 0
    return resplit(Dataset(images=images, labels=labels, classes=classes), labeled_frac, seed)


def resplit(dataset: Dataset, labeled_frac: float, seed: int) -> Dataset:
    """``dataset``'s rasters and labels, shared, under ``load_idx``'s split for ``seed``."""
    return replace(dataset, splits=assign_splits(dataset.classes, dataset.labels, labeled_frac,
                                                 make_rng(seed, 901)))


def write_idx(images_path: str, labels_path: str, images: np.ndarray,
              labels: np.ndarray) -> None:
    """Write rasters (quantized to u8) and labels as an IDX pair, checking both first."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[3] != 1:
        raise ValueError("IDX export supports single-channel rasters only")
    n, rows, cols, _ = images.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError("labels length must match image count")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("IDX labels must fit in a byte")
    pixels = np.round(images[:, :, :, 0] * 255.0).astype(np.uint8)
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols)
    atomic_write_bytes(images_path, header + pixels.tobytes())
    atomic_write_bytes(labels_path,
                       struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Weak augmentation for the contrastive branch


def weak_augment(imgs: np.ndarray, rngs) -> np.ndarray:
    """Horizontal flip (p=0.5) + per-channel brightness jitter (+-0.2)
    + pixel noise (sigma 0.02), clamped to [0, 1], for an (N, H, W, C) batch.

    ``rngs`` yields one generator per raster; raster i's draws come from the
    i-th, in the order flip, jitter, noise.
    """
    imgs = np.asarray(imgs, dtype=np.float64)
    n, _, _, channels = imgs.shape
    flip = np.empty(n, dtype=bool)
    jitter = np.empty((n, channels))
    noise = np.empty(imgs.shape)
    for i, rng in zip(range(n), rngs, strict=True):
        flip[i] = rng.random() < 0.5
        jitter[i] = rng.uniform(-0.2, 0.2, size=channels)
        rng.standard_normal(out=noise[i])
    out = imgs.copy()
    out[flip] = imgs[flip, :, ::-1]
    out += jitter[:, None, None, :]
    noise *= 0.02
    out += noise
    return np.clip(out, 0.0, 1.0, out=out)
