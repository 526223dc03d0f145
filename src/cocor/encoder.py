"""Query/momentum encoders: MLP backbone plus projection head onto the unit
hypersphere: one ``numcore`` layer stack, named by ``layer_dims``, and its backward.

``encode_features`` runs the backbone layers alone and returns the features
(pre-projection) the probe and linear evaluation read; ``features_backward``
turns a cotangent on them into backbone gradients. ``encode_batch`` runs the
head layers on them and returns the features and L2-normalized embeddings;
``encode_backward`` turns a cotangent on the embeddings into parameter
gradients.

Checkpoints are a little-endian binary container: magic ``CCOR``, version u32,
segment count u32; then per segment a u32 name length, UTF-8 name, u32 ndim,
u32 dims, and raw float64 data. Byte layout is deterministic for diffing.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._util import ConfigError, atomic_write_bytes, read_input
from .numcore import RELU, ParamSet, mlp_backward, mlp_forward

NORM_EPS = 1e-12

CHECKPOINT_MAGIC = b"CCOR"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    """Layer widths. Backbone output (last hidden width) is the feature the
    linear probe sees; the projection head maps features -> embed_dim."""

    input_dim: int
    hidden: tuple[int, ...]
    proj_hidden: int
    embed_dim: int

    @property
    def feature_dim(self) -> int:
        return self.hidden[-1]

    def layer_dims(self) -> list[tuple[str, int, int]]:
        dims = []
        widths = (self.input_dim, *self.hidden)
        for i in range(len(self.hidden)):
            dims.append((f"bb{i}", widths[i], widths[i + 1]))
        dims.append(("proj0", self.feature_dim, self.proj_hidden))
        dims.append(("proj1", self.proj_hidden, self.embed_dim))
        return dims

    def segment_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of every parameter segment, in the order
        ``init_encoder_params`` lays them out."""
        shapes = {}
        for name, fan_in, fan_out in self.layer_dims():
            shapes[f"{name}.w"] = (fan_in, fan_out)
            shapes[f"{name}.b"] = (fan_out,)
        return shapes


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> ParamSet:
    segments = {}
    for name, fan_in, fan_out in cfg.layer_dims():
        bound = math.sqrt(6.0 / (fan_in + fan_out))     # Glorot uniform
        segments[f"{name}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        segments[f"{name}.b"] = np.zeros(fan_out)
    return ParamSet(segments)


@dataclass
class EncodeCache:
    """Intermediates needed by encode_backward, one row per input row: the
    stack's ``mlp_forward`` cache (one entry per layer) and the normalisation."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    norms: np.ndarray
    z: np.ndarray
    zero_norm: np.ndarray       # bool per row: raw projection norm below NORM_EPS

    @property
    def x(self) -> np.ndarray:
        return self.layers[0][0]

    def rows(self, start: int, stop: int) -> "EncodeCache":
        """The cache of rows start:stop, as views of this one."""
        sl = slice(start, stop)
        return EncodeCache(layers=[(x[sl], pre[sl]) for x, pre in self.layers],
                           norms=self.norms[sl], z=self.z[sl], zero_norm=self.zero_norm[sl])


@functools.lru_cache(maxsize=None)
def _layout(cfg: EncoderConfig) -> tuple:
    """Per layer: weights name, bias name, activation (relu but the last, affine)."""
    dims = cfg.layer_dims()
    return tuple((f"{name}.w", f"{name}.b", RELU if i < len(dims) - 1 else None)
                 for i, (name, _, _) in enumerate(dims))


def _stack(cfg: EncoderConfig, params: ParamSet, start: int = 0,
           stop: int | None = None) -> list:
    """Layers start:stop as a ``numcore`` layer stack over the segments of ``params``."""
    return [(params[w], params[b], act) for w, b, act in _layout(cfg)[start:stop]]


def encode_features(cfg: EncoderConfig, params: ParamSet,
                    x: np.ndarray) -> tuple[np.ndarray, list]:
    """Backbone features of a (B, input_dim) batch, without the projection
    head; returns (features, the backbone's ``mlp_forward`` cache)."""
    return mlp_forward(_stack(cfg, params, stop=len(cfg.hidden)), x)


def encode_batch(cfg: EncoderConfig, params: ParamSet,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray, EncodeCache]:
    """Forward a (B, input_dim) batch; returns (features, z, cache).

    z rows are unit-norm. A row whose raw projection norm is below NORM_EPS
    is flagged in cache.zero_norm and embeds as e_0, the first basis vector;
    ``encode_backward`` passes it no gradient. Stacked sets give stacked outputs.
    """
    features, backbone_cache = encode_features(cfg, params, x)
    proj, head_cache = mlp_forward(_stack(cfg, params, start=len(cfg.hidden)), features)

    raw_norms = np.sqrt(np.add.reduce(proj * proj, axis=-1))  # np.linalg.norm's own sum
    norms = np.maximum(raw_norms, NORM_EPS)
    z = proj / norms[..., None]
    zero_norm = raw_norms < NORM_EPS
    if np.count_nonzero(zero_norm):
        z[zero_norm] = np.eye(1, z.shape[-1])
    cache = EncodeCache(layers=backbone_cache + head_cache, norms=norms, z=z,
                        zero_norm=zero_norm)
    return features, z, cache


def features_backward(cfg: EncoderConfig, params: ParamSet, layers_cache: list,
                      d_out: np.ndarray, out: ParamSet | None = None) -> ParamSet:
    """Gradients of the layers ``layers_cache`` covers (the backbone, or all of
    them), given the cotangent on that prefix's output, added into ``out`` (and
    returned) or into a fresh zero set. No gradient for the input is formed."""
    out = params.zeros_like() if out is None else out
    params._check_compatible(out)
    grads = mlp_backward(_stack(cfg, params, stop=len(layers_cache)), layers_cache, d_out)
    # in-place += on views of out.flat; on a zero vector it stores 0 + d (so never -0.0)
    for (g_w, g_b, _), (d_w, d_b) in zip(_stack(cfg, out), grads):
        g_w += d_w
        g_b += d_b
    return out


def encode_backward(cfg: EncoderConfig, params: ParamSet, cache: EncodeCache,
                    d_z: np.ndarray, out: ParamSet | None = None) -> ParamSet:
    """Parameter gradients given the cotangent on z, added into ``out`` as
    ``features_backward`` does."""
    # Through L2 normalization: d_p = (d_z - z (z . d_z)) / ||p||.
    z, norms = cache.z, cache.norms
    inner = np.sum(z * d_z, axis=1, keepdims=True)
    d_proj = (d_z - z * inner) / norms[:, None]
    d_proj[cache.zero_norm] = 0.0      # a flagged row's z is the constant e_0
    return features_backward(cfg, params, cache.layers, d_proj, out=out)


def momentum_update(theta_k: ParamSet, theta_q: ParamSet, m: float) -> None:
    """theta_k <- m * theta_k + (1 - m) * theta_q, elementwise and in place
    (same arithmetic as the out-of-place expression)."""
    if not 0.0 <= m <= 1.0:
        raise ValueError("momentum coefficient must lie in [0, 1]")
    theta_k._check_compatible(theta_q)
    theta_k.flat *= m
    theta_k.flat += (1.0 - m) * theta_q.flat


# ---------------------------------------------------------------------------
# Checkpoint container


def save_checkpoint(path: str, params: ParamSet) -> None:
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(params))]
    for name, arr in params.items():
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts))


class _Cursor:
    """Bounds-checked reader over a checkpoint byte string."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.path = path
        self.pos = 0

    def grab(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ConfigError(f"{self.path}: truncated checkpoint")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, count: int = 1) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.grab(4 * count))


def load_checkpoint(path: str) -> ParamSet:
    cur = _Cursor(read_input(path), path)
    if cur.grab(4) != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: bad checkpoint magic {cur.data[:4]!r}")
    version, count = cur.u32(2)
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    segments: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = cur.u32()
        try:
            name = cur.grab(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: a segment name is not UTF-8") from None
        if name in segments:
            raise ConfigError(f"{path}: repeated segment name {name!r}")
        (ndim,) = cur.u32()
        shape = cur.u32(ndim)
        segments[name] = np.frombuffer(cur.grab(8 * math.prod(shape)), "<f8").reshape(shape)
        if not np.isfinite(segments[name]).all():
            raise ConfigError(f"{path}: non-finite values in segment {name!r}")
    if cur.pos != len(cur.data):
        raise ConfigError(f"{path}: trailing bytes after last segment")
    return ParamSet(segments)
