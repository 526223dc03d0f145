"""Composite image augmentations over a fixed pool of 14 basic transforms.

A raster is an (H, W, C) float64 array with values in [0, 1], C in {1, 3};
the transforms take an (N, H, W, C) batch of rasters, and a single raster is
a batch of one. Every transform preserves dimensions and clamps its output
back into [0, 1]; geometric transforms fill vacated pixels with 0.5 instead
of resizing. Their bilinear sampling plans are cached per (transform, H, W).

A composite augmentation is an ordered chain of basic transforms; its
composition vector counts how many times each pool member appears, so it is
invariant under reordering of the chain and its entries sum to the chain
length.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class TransformId(enum.IntEnum):
    """The augmentation pool. Index order defines composition-vector coordinates."""

    AUTOCONTRAST = 0
    BRIGHTNESS = 1
    COLOR = 2
    CONTRAST = 3
    EQUALIZE = 4
    IDENTITY = 5
    POSTERIZE = 6
    ROTATE = 7
    SHARPNESS = 8
    SHEAR_X = 9
    SHEAR_Y = 10
    TRANSLATE_X = 11
    TRANSLATE_Y = 12
    SOLARIZE = 13


POOL_SIZE = len(TransformId)

GEOMETRIC_FILL = 0.5

# Enhancement blend factor: f(0) = 0.1, f(0.5) = 1.0 (neutral), f(1) = 1.9.
_BLEND_LO, _BLEND_SPAN = 0.1, 1.8

# Bounds for the geometric distortions.
_MAX_ROTATE_DEG = 30.0
_MAX_SHEAR = 0.3
_MAX_TRANSLATE_FRAC = 0.3


@dataclass(frozen=True)
class BasicTransform:
    """One pool member with a strength in [0, 1] and a direction sign."""

    id: TransformId
    magnitude: float = 0.5
    sign: int = 1

    def __post_init__(self):
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(f"magnitude {self.magnitude} outside [0, 1]")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class CompositeAugmentation:
    """Ordered chain of at least one basic transform."""

    transforms: tuple[BasicTransform, ...]

    def __post_init__(self):
        if len(self.transforms) == 0:
            raise ValueError("composite augmentation must contain at least one transform")
        object.__setattr__(self, "transforms", tuple(self.transforms))

    def __len__(self) -> int:
        return len(self.transforms)

    def __iter__(self):
        return iter(self.transforms)


def validate_batch(imgs: np.ndarray) -> np.ndarray:
    imgs = np.asarray(imgs, dtype=np.float64)
    if imgs.ndim != 4 or imgs.shape[3] not in (1, 3):
        raise ValueError(f"raster batch must be (N, H, W, C) with C in {{1, 3}}, "
                         f"got {imgs.shape}")
    return imgs


def _clamp(imgs: np.ndarray) -> np.ndarray:
    return np.clip(imgs, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Every transform maps an (N, H, W, C) batch to a batch of the same shape;
# each raster is transformed on its own, so a batch of one gives the same
# bits as that raster inside any batch.
#
# Enhancement transforms: out = base + f * (img - base)


def _blend_factor(t: BasicTransform) -> float:
    return _BLEND_LO + _BLEND_SPAN * t.magnitude


def _brightness(imgs, t):
    return _blend_factor(t) * imgs


def _grayscale(imgs: np.ndarray) -> np.ndarray:
    if imgs.shape[3] == 1:
        return imgs
    luma = 0.299 * imgs[..., 0] + 0.587 * imgs[..., 1] + 0.114 * imgs[..., 2]
    return np.repeat(luma[..., None], 3, axis=3)


def _color(imgs, t):
    base = _grayscale(imgs)
    return base + _blend_factor(t) * (imgs - base)


def _contrast(imgs, t):
    base = imgs.mean(axis=(1, 2), keepdims=True)
    return base + _blend_factor(t) * (imgs - base)


def _box_blur3(imgs: np.ndarray) -> np.ndarray:
    # 3x3 mean with edge replication at the border.
    _, h, w, _ = imgs.shape
    padded = np.concatenate([imgs[:, :1], imgs, imgs[:, -1:]], axis=1)
    padded = np.concatenate([padded[:, :, :1], padded, padded[:, :, -1:]], axis=2)
    out = np.zeros_like(imgs)
    for dy in range(3):
        for dx in range(3):
            out += padded[:, dy:dy + h, dx:dx + w]
    return out / 9.0


def _sharpness(imgs, t):
    base = _box_blur3(imgs)
    return base + _blend_factor(t) * (imgs - base)


# ---------------------------------------------------------------------------
# Histogram transforms, per raster and channel


def _autocontrast(imgs, t):
    lo = imgs.min(axis=(1, 2), keepdims=True)
    hi = imgs.max(axis=(1, 2), keepdims=True)
    flat = hi - lo < 1.0 / 255.0
    stretched = (imgs - lo) / np.where(flat, 1.0, hi - lo)
    return np.where(flat, imgs, stretched)


def _equalize(imgs, t):
    n, h, w, c = imgs.shape
    npix = h * w
    q = np.round(imgs * 255.0).astype(np.int64)
    if q.min() < 0:
        raise ValueError("equalize needs pixel values >= 0")
    levels = max(256, int(q.max()) + 1)
    # one histogram per (raster, channel): offset each pair's levels
    lane = np.arange(n * c).reshape(n, 1, 1, c) * levels
    hist = np.bincount((q + lane).ravel(), minlength=n * c * levels).reshape(n, c, levels)
    cdf = np.cumsum(hist, axis=2)
    cdf_min = np.take_along_axis(cdf, np.argmax(hist > 0, axis=2)[..., None], axis=2)
    single = npix == cdf_min  # one gray level, nothing to spread
    lut = np.round(255.0 * (cdf - cdf_min) / np.where(single, 1, npix - cdf_min))
    lut = np.clip(lut, 0, 255).reshape(-1)
    out = lut[q + lane] / 255.0
    return np.where(single.reshape(n, 1, 1, c), imgs, out)


def _posterize(imgs, t):
    keep_bits = 8 - int(round(4.0 * t.magnitude))
    drop = 8 - keep_bits
    q = np.round(imgs * 255.0).astype(np.int64)
    q = (q >> drop) << drop
    return q / 255.0


def _solarize(imgs, t):
    threshold = 1.0 - t.magnitude
    return np.where(imgs > threshold, 1.0 - imgs, imgs)


# ---------------------------------------------------------------------------
# Geometric transforms: inverse-mapped bilinear sampling, constant fill


def _source_coords(t: BasicTransform, h: int, w: int):
    """Fractional source (y, x) of every destination pixel; translations
    move by whole pixels, so their coordinates are integers."""
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    if t.id == TransformId.TRANSLATE_X:
        return ys, xs - t.sign * round(_MAX_TRANSLATE_FRAC * w * t.magnitude)
    if t.id == TransformId.TRANSLATE_Y:
        return ys - t.sign * round(_MAX_TRANSLATE_FRAC * h * t.magnitude), xs
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    if t.id == TransformId.ROTATE:
        angle = math.radians(t.sign * _MAX_ROTATE_DEG * t.magnitude)
        dy, dx = ys - cy, xs - cx
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        return cos_a * dy - sin_a * dx + cy, sin_a * dy + cos_a * dx + cx
    s = t.sign * _MAX_SHEAR * t.magnitude
    if t.id == TransformId.SHEAR_X:
        return ys, xs + s * (ys - cy)
    return ys + s * (xs - cx), xs  # SHEAR_Y


@functools.lru_cache(maxsize=64)
def _bilinear_plan(t: BasicTransform, h: int, w: int):
    """Gather indices and weights of the bilinear corners, in the order they
    are summed. A corner whose weight is zero at every pixel is left out, so
    whole-pixel coordinates read one corner. Indices address the H*W pixels
    plus one appended fill pixel (index H*W) that every outside corner reads."""
    src_y, src_x = _source_coords(t, h, w)
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    wy = src_y - y0
    wx = src_x - x0
    plan = []
    for dy, dx, wgt in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                        (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
        if not wgt.any():
            continue
        yy, xx = y0 + dy, x0 + dx
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        idx = np.where(inside, yy * w + xx, h * w).reshape(-1)
        weight = wgt.reshape(1, -1, 1)
        idx.flags.writeable = weight.flags.writeable = False
        plan.append((idx, weight))
    return tuple(plan)


def _bilinear(imgs, t):
    n, h, w, c = imgs.shape
    fill = np.full((n, 1, c), GEOMETRIC_FILL)
    pixels = np.concatenate([imgs.reshape(n, h * w, c), fill], axis=1)
    out = np.zeros((n, h * w, c))
    for idx, weight in _bilinear_plan(t, h, w):
        out += weight * np.take(pixels, idx, axis=1)
    return out.reshape(n, h, w, c)


# The transforms that read BasicTransform.sign; the rest ignore it.
_SIGNED = frozenset((TransformId.ROTATE, TransformId.SHEAR_X, TransformId.SHEAR_Y,
                     TransformId.TRANSLATE_X, TransformId.TRANSLATE_Y))

_DISPATCH = {
    TransformId.AUTOCONTRAST: _autocontrast,
    TransformId.BRIGHTNESS: _brightness,
    TransformId.COLOR: _color,
    TransformId.CONTRAST: _contrast,
    TransformId.EQUALIZE: _equalize,
    TransformId.IDENTITY: lambda imgs, t: imgs.copy(),
    TransformId.POSTERIZE: _posterize,
    TransformId.ROTATE: _bilinear,
    TransformId.SHARPNESS: _sharpness,
    TransformId.SHEAR_X: _bilinear,
    TransformId.SHEAR_Y: _bilinear,
    TransformId.TRANSLATE_X: _bilinear,
    TransformId.TRANSLATE_Y: _bilinear,
    TransformId.SOLARIZE: _solarize,
}


# ---------------------------------------------------------------------------
# Public operations


def apply_basic(t: BasicTransform, imgs: np.ndarray) -> np.ndarray:
    """Apply one basic transform to every raster of an (N, H, W, C) batch;
    deterministic given (t, imgs)."""
    imgs = validate_batch(imgs)
    return _clamp(_DISPATCH[t.id](imgs, t))


def sample_composite(length: int, magnitude: float,
                     rng: np.random.Generator) -> CompositeAugmentation:
    """Draw ``length`` transforms i.i.d. uniformly from the pool (with
    replacement), each at the given magnitude with a uniform random sign."""
    if length < 1:
        raise ValueError("composite length must be >= 1")
    ids = rng.integers(0, POOL_SIZE, size=length).tolist()
    signs = rng.integers(0, 2, size=length).tolist()
    return CompositeAugmentation(tuple(
        BasicTransform(TransformId(i), magnitude, 2 * s - 1) for i, s in zip(ids, signs)))


def composition_vector(aug: CompositeAugmentation) -> np.ndarray:
    """14-entry count vector; entry i is the multiplicity of pool member i."""
    ids = [int(t.id) for t in aug]
    return np.bincount(ids, minlength=POOL_SIZE).astype(np.int64)


def apply_composite(augs: Sequence[CompositeAugmentation], imgs: np.ndarray) -> np.ndarray:
    """Apply ``augs[i]`` to ``imgs[i]`` for an (N, H, W, C) batch.

    Chains run position by position: at each position every distinct basic
    transform is applied once, to the rasters whose chain has it there.
    """
    out = validate_batch(imgs)
    if len(augs) != out.shape[0]:
        raise ValueError(f"{len(augs)} composites for {out.shape[0]} rasters")
    out = out.copy()
    for pos in range(max((len(a) for a in augs), default=0)):
        groups: dict[tuple, tuple[BasicTransform, list[int]]] = {}
        for i, aug in enumerate(augs):
            if pos < len(aug):
                t = aug.transforms[pos]
                key = (t.id, t.magnitude, t.sign if t.id in _SIGNED else 1)
                groups.setdefault(key, (t, []))[1].append(i)
        for t, idx in groups.values():
            out[idx] = apply_basic(t, out[idx])
    return out
