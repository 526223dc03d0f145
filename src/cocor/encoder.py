"""Query/momentum encoders: MLP backbone plus projection head onto the unit
hypersphere, two ``numcore`` layer stacks with their backward passes.

``encode_batch`` returns backbone features (pre-projection) and L2-normalized
embeddings; ``encode_backward`` turns cotangents on either output into
parameter gradients. The latent deviation of an augmented view is the cosine
similarity between the embeddings of the raw image and the augmented image.

Checkpoints are a little-endian binary container: magic ``CCOR``, version u32,
segment count u32; then per segment a u32 name length, UTF-8 name, u32 ndim,
u32 dims, and raw float64 data. Byte layout is deterministic for diffing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_bytes, read_input
from .numcore import RELU, ParamSet, glorot_uniform, mlp_backward, mlp_forward

NORM_EPS = 1e-12

CHECKPOINT_MAGIC = b"CCOR"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    """Layer widths. Backbone output (last hidden width) is the feature the
    linear probe sees; the projection head maps features -> embed_dim."""

    input_dim: int
    hidden: tuple[int, ...] = (256, 128)
    proj_hidden: int = 64
    embed_dim: int = 32

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
        segments[f"{name}.w"] = glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out))
        segments[f"{name}.b"] = np.zeros(fan_out)
    return ParamSet(segments)


@dataclass
class EncodeCache:
    """Intermediates needed by encode_backward, one row per input row: the
    backbone's and the head's ``mlp_forward`` caches and the normalisation."""

    backbone: list[tuple[np.ndarray, np.ndarray]]
    head: list[tuple[np.ndarray, np.ndarray]]
    norms: np.ndarray
    z: np.ndarray
    zero_norm: np.ndarray       # bool per row: raw projection norm below NORM_EPS

    @property
    def x(self) -> np.ndarray:
        return self.backbone[0][0]

    @property
    def features(self) -> np.ndarray:
        return self.head[0][0]

    def rows(self, start: int, stop: int) -> "EncodeCache":
        """The cache of rows start:stop, as views of this one."""
        sl = slice(start, stop)
        return EncodeCache(backbone=[(x[sl], pre[sl]) for x, pre in self.backbone],
                           head=[(x[sl], pre[sl]) for x, pre in self.head],
                           norms=self.norms[sl], z=self.z[sl], zero_norm=self.zero_norm[sl])


def _stacks(cfg: EncoderConfig, params: ParamSet) -> tuple[list, list]:
    """The backbone and the projection head as ``numcore`` layer stacks over
    the segments of ``params``."""
    backbone = [(params[f"bb{i}.w"], params[f"bb{i}.b"], RELU) for i in range(len(cfg.hidden))]
    head = [(params["proj0.w"], params["proj0.b"], RELU),
            (params["proj1.w"], params["proj1.b"], None)]
    return backbone, head


def encode_batch(cfg: EncoderConfig, params: ParamSet,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray, EncodeCache]:
    """Forward a (B, input_dim) batch; returns (features, z, cache).

    z rows are unit-norm; rows whose raw projection norm underflows the
    epsilon guard are flagged in cache.zero_norm.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"expected (B, {cfg.input_dim}) input, got {x.shape}")
    backbone, head = _stacks(cfg, params)
    features, backbone_cache = mlp_forward(backbone, x)
    proj, head_cache = mlp_forward(head, features)

    raw_norms = np.sqrt(np.add.reduce(proj * proj, axis=1))  # np.linalg.norm's own sum
    norms = np.maximum(raw_norms, NORM_EPS)
    z = proj / norms[:, None]
    cache = EncodeCache(backbone=backbone_cache, head=head_cache, norms=norms, z=z,
                        zero_norm=raw_norms < NORM_EPS)
    return features, z, cache


def encode_backward(cfg: EncoderConfig, params: ParamSet, cache: EncodeCache,
                    d_z: np.ndarray | None = None,
                    d_features: np.ndarray | None = None,
                    out: ParamSet | None = None) -> ParamSet:
    """Parameter gradients given cotangents on z and/or features.

    With ``out`` the gradients are added into it (and it is returned);
    otherwise into a fresh zero set. No gradient for the input is formed.
    """
    out = params.zeros_like() if out is None else out
    params._check_compatible(out)
    backbone, head = _stacks(cfg, params)
    # the same stacks over out's segments: in-place += writes into out.flat
    out_backbone, out_head = _stacks(cfg, out)

    d_feat = np.zeros_like(cache.features) if d_features is None else d_features
    if d_z is not None:
        # Through L2 normalization: d_p = (d_z - z (z . d_z)) / ||p||.
        z, norms = cache.z, cache.norms
        inner = np.sum(z * d_z, axis=1, keepdims=True)
        d_proj = (d_z - z * inner) / norms[:, None]
        d_head_in, grads = mlp_backward(head, cache.head, d_proj, input_grad=True)
        _accumulate(out_head, grads)
        d_feat = d_feat + d_head_in

    _, grads = mlp_backward(backbone, cache.backbone, d_feat)
    _accumulate(out_backbone, grads)
    return out


def _accumulate(out_layers: list, grads: list) -> None:
    # in-place += on views of a zero vector stores 0 + d (so never -0.0)
    for (g_w, g_b, _), (d_w, d_b) in zip(out_layers, grads):
        g_w += d_w
        g_b += d_b


def latent_deviation(cfg: EncoderConfig, params: ParamSet, img: np.ndarray,
                     augmented: np.ndarray) -> float:
    """Cosine similarity between the embeddings of a raster and its augmented
    view; in [-1, 1] since both are unit vectors. Each raster is encoded as a
    batch of one row, so the value does not depend on any batch around it."""
    _, z_raw, _ = encode_batch(cfg, params, np.reshape(img, (1, -1)))
    _, z_aug, _ = encode_batch(cfg, params, np.reshape(augmented, (1, -1)))
    return float(np.sum(z_raw * z_aug))


def momentum_update(theta_k: ParamSet, theta_q: ParamSet, m: float) -> ParamSet:
    """theta_k <- m * theta_k + (1 - m) * theta_q, elementwise and in place
    (same arithmetic as the out-of-place expression); returns theta_k."""
    if not 0.0 <= m <= 1.0:
        raise ValueError("momentum coefficient must lie in [0, 1]")
    theta_k._check_compatible(theta_q)
    theta_k.flat *= m
    theta_k.flat += (1.0 - m) * theta_q.flat
    return theta_k


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
            raise ValueError(f"{self.path}: truncated checkpoint")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, count: int = 1) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.grab(4 * count))


def load_checkpoint(path: str) -> ParamSet:
    cur = _Cursor(read_input(path), path)
    if cur.grab(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {cur.data[:4]!r}")
    version, count = cur.u32(2)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    segments: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = cur.u32()
        name = cur.grab(name_len).decode("utf-8")
        if name in segments:
            raise ValueError(f"{path}: repeated segment name {name!r}")
        (ndim,) = cur.u32()
        shape = cur.u32(ndim) if ndim else ()
        n = int(np.prod(shape)) if ndim else 1
        segments[name] = np.frombuffer(cur.grab(8 * n), dtype="<f8").reshape(shape)
    if cur.pos != len(cur.data):
        raise ValueError(f"{path}: trailing bytes after last segment")
    return ParamSet(segments)
