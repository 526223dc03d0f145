"""Composite image augmentations over a fixed pool of 14 basic transforms.

A raster is an (H, W, C) float64 array with values in [0, 1], C in {1, 3}.
Every transform preserves dimensions and clamps its output back into [0, 1];
geometric transforms fill vacated pixels with 0.5 instead of resizing.

A composite augmentation is an ordered chain of basic transforms; its
composition vector counts how many times each pool member appears, so it is
invariant under reordering of the chain and its entries sum to the chain
length.
"""

from __future__ import annotations

import enum
import math
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


def validate_raster(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError(f"raster must be (H, W, C) with C in {{1, 3}}, got {img.shape}")
    return img


def _clamp(img: np.ndarray) -> np.ndarray:
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Enhancement transforms: out = base + f * (img - base)


def _blend_factor(t: BasicTransform) -> float:
    return _BLEND_LO + _BLEND_SPAN * t.magnitude


def _brightness(img, t):
    return _blend_factor(t) * img


def _grayscale(img: np.ndarray) -> np.ndarray:
    if img.shape[2] == 1:
        return img
    luma = 0.299 * img[:, :, 0] + 0.587 * img[:, :, 1] + 0.114 * img[:, :, 2]
    return np.repeat(luma[:, :, None], 3, axis=2)


def _color(img, t):
    base = _grayscale(img)
    return base + _blend_factor(t) * (img - base)


def _contrast(img, t):
    base = img.mean(axis=(0, 1), keepdims=True)
    return base + _blend_factor(t) * (img - base)


def _box_blur3(img: np.ndarray) -> np.ndarray:
    # 3x3 mean with edge replication at the border.
    padded = np.pad(img, ((1, 1), (1, 1), (0, 0)), mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy:dy + img.shape[0], dx:dx + img.shape[1]]
    return out / 9.0


def _sharpness(img, t):
    base = _box_blur3(img)
    return base + _blend_factor(t) * (img - base)


# ---------------------------------------------------------------------------
# Histogram transforms


def _autocontrast(img, t):
    out = img.copy()
    for c in range(img.shape[2]):
        chan = img[:, :, c]
        lo, hi = chan.min(), chan.max()
        if hi - lo < 1.0 / 255.0:
            continue
        out[:, :, c] = (chan - lo) / (hi - lo)
    return out


def _equalize(img, t):
    out = img.copy()
    npix = img.shape[0] * img.shape[1]
    for c in range(img.shape[2]):
        q = np.round(img[:, :, c] * 255.0).astype(np.int64)
        hist = np.bincount(q.ravel(), minlength=256)
        cdf = np.cumsum(hist)
        nonzero = np.nonzero(hist)[0]
        cdf_min = cdf[nonzero[0]]
        if npix == cdf_min:  # single gray level, nothing to spread
            continue
        lut = np.round(255.0 * (cdf - cdf_min) / (npix - cdf_min))
        out[:, :, c] = np.clip(lut, 0, 255)[q] / 255.0
    return out


def _posterize(img, t):
    keep_bits = 8 - int(round(4.0 * t.magnitude))
    drop = 8 - keep_bits
    q = np.round(img * 255.0).astype(np.int64)
    q = (q >> drop) << drop
    return q / 255.0


def _solarize(img, t):
    threshold = 1.0 - t.magnitude
    return np.where(img > threshold, 1.0 - img, img)


# ---------------------------------------------------------------------------
# Geometric transforms: inverse-mapped bilinear sampling, constant fill


def _bilinear_inverse(img: np.ndarray, src_y: np.ndarray, src_x: np.ndarray) -> np.ndarray:
    """Sample img at fractional source coordinates; outside pixels read as fill."""
    h, w, _ = img.shape
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    wy = src_y - y0
    wx = src_x - x0
    out = np.zeros_like(img)
    for dy, dx, wgt in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                        (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
        yy, xx = y0 + dy, x0 + dx
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        vals = img[np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1), :]
        vals = np.where(inside[:, :, None], vals, GEOMETRIC_FILL)
        out += wgt[:, :, None] * vals
    return out


def _dest_grid(img):
    h, w, _ = img.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    return ys, xs, (h - 1) / 2.0, (w - 1) / 2.0


def _rotate(img, t):
    angle = math.radians(t.sign * _MAX_ROTATE_DEG * t.magnitude)
    ys, xs, cy, cx = _dest_grid(img)
    dy, dx = ys - cy, xs - cx
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    src_y = cos_a * dy - sin_a * dx + cy
    src_x = sin_a * dy + cos_a * dx + cx
    return _bilinear_inverse(img, src_y, src_x)


def _shear_x(img, t):
    s = t.sign * _MAX_SHEAR * t.magnitude
    ys, xs, cy, _ = _dest_grid(img)
    return _bilinear_inverse(img, ys, xs + s * (ys - cy))


def _shear_y(img, t):
    s = t.sign * _MAX_SHEAR * t.magnitude
    ys, xs, _, cx = _dest_grid(img)
    return _bilinear_inverse(img, ys + s * (xs - cx), xs)


def _integer_shift(img: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """Shift content by whole pixels along axis; vacated pixels get the fill."""
    if shift == 0:
        return img.copy()
    out = np.full_like(img, GEOMETRIC_FILL)
    n = img.shape[axis]
    if abs(shift) >= n:
        return out
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    if shift > 0:
        dst[axis], src[axis] = slice(shift, None), slice(None, n - shift)
    else:
        dst[axis], src[axis] = slice(None, n + shift), slice(-shift, None)
    out[tuple(dst)] = img[tuple(src)]
    return out


def _translate_x(img, t):
    shift = t.sign * int(round(_MAX_TRANSLATE_FRAC * img.shape[1] * t.magnitude))
    return _integer_shift(img, shift, axis=1)


def _translate_y(img, t):
    shift = t.sign * int(round(_MAX_TRANSLATE_FRAC * img.shape[0] * t.magnitude))
    return _integer_shift(img, shift, axis=0)


_DISPATCH = {
    TransformId.AUTOCONTRAST: _autocontrast,
    TransformId.BRIGHTNESS: _brightness,
    TransformId.COLOR: _color,
    TransformId.CONTRAST: _contrast,
    TransformId.EQUALIZE: _equalize,
    TransformId.IDENTITY: lambda img, t: img.copy(),
    TransformId.POSTERIZE: _posterize,
    TransformId.ROTATE: _rotate,
    TransformId.SHARPNESS: _sharpness,
    TransformId.SHEAR_X: _shear_x,
    TransformId.SHEAR_Y: _shear_y,
    TransformId.TRANSLATE_X: _translate_x,
    TransformId.TRANSLATE_Y: _translate_y,
    TransformId.SOLARIZE: _solarize,
}


# ---------------------------------------------------------------------------
# Public operations


def apply_basic(t: BasicTransform, img: np.ndarray) -> np.ndarray:
    """Apply one basic transform; deterministic given (t, img)."""
    img = validate_raster(img)
    return _clamp(_DISPATCH[t.id](img, t))


def sample_composite(length: int, magnitude: float,
                     rng: np.random.Generator) -> CompositeAugmentation:
    """Draw ``length`` transforms i.i.d. uniformly from the pool (with
    replacement), each at the given magnitude with a uniform random sign."""
    if length < 1:
        raise ValueError("composite length must be >= 1")
    ids = rng.integers(0, POOL_SIZE, size=length)
    signs = rng.integers(0, 2, size=length) * 2 - 1
    return CompositeAugmentation(tuple(
        BasicTransform(TransformId(int(i)), magnitude, int(s))
        for i, s in zip(ids, signs)))


def composition_vector(aug: CompositeAugmentation) -> np.ndarray:
    """14-entry count vector; entry i is the multiplicity of pool member i."""
    ids = [int(t.id) for t in aug]
    return np.bincount(ids, minlength=POOL_SIZE).astype(np.int64)


def apply_composite(aug: CompositeAugmentation, img: np.ndarray) -> np.ndarray:
    """Apply the chain in list order."""
    out = validate_raster(img)
    for t in aug:
        out = apply_basic(t, out)
    return out
