"""Query/momentum encoders: MLP backbone plus projection head onto the unit
hypersphere, with hand-derived backward passes.

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

from ._util import atomic_write_bytes
from .numcore import ParamSet, affine_backward, affine_forward, glorot_uniform, relu, relu_grad

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


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> ParamSet:
    segments = {}
    for name, fan_in, fan_out in cfg.layer_dims():
        segments[f"{name}.w"] = glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out))
        segments[f"{name}.b"] = np.zeros(fan_out)
    return ParamSet(segments)


@dataclass
class EncodeCache:
    """Intermediates needed by encode_backward, one row per input row."""

    x: np.ndarray
    pre_acts: list[np.ndarray]
    hidden_acts: list[np.ndarray]
    features: np.ndarray
    proj_pre: list[np.ndarray]
    proj_hidden_act: np.ndarray
    norms: np.ndarray
    z: np.ndarray
    zero_norm: np.ndarray       # bool per row: raw projection norm below NORM_EPS

    def rows(self, start: int, stop: int) -> "EncodeCache":
        """The cache of rows start:stop, as views of this one."""
        sl = slice(start, stop)
        return EncodeCache(x=self.x[sl], pre_acts=[a[sl] for a in self.pre_acts],
                           hidden_acts=[a[sl] for a in self.hidden_acts],
                           features=self.features[sl], proj_pre=[a[sl] for a in self.proj_pre],
                           proj_hidden_act=self.proj_hidden_act[sl], norms=self.norms[sl],
                           z=self.z[sl], zero_norm=self.zero_norm[sl])


def encode_batch(cfg: EncoderConfig, params: ParamSet,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray, EncodeCache]:
    """Forward a (B, input_dim) batch; returns (features, z, cache).

    z rows are unit-norm; rows whose raw projection norm underflows the
    epsilon guard are flagged in cache.zero_norm.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"expected (B, {cfg.input_dim}) input, got {x.shape}")

    pre_acts, hidden_acts = [], []
    h = x
    for i in range(len(cfg.hidden)):
        pre = affine_forward(h, params[f"bb{i}.w"], params[f"bb{i}.b"])
        pre_acts.append(pre)
        h = relu(pre)
        hidden_acts.append(h)
    features = h

    p0 = affine_forward(features, params["proj0.w"], params["proj0.b"])
    a0 = relu(p0)
    p1 = affine_forward(a0, params["proj1.w"], params["proj1.b"])

    raw_norms = np.linalg.norm(p1, axis=1)
    norms = np.maximum(raw_norms, NORM_EPS)
    z = p1 / norms[:, None]

    cache = EncodeCache(x=x, pre_acts=pre_acts, hidden_acts=hidden_acts,
                        features=features, proj_pre=[p0, p1], proj_hidden_act=a0,
                        norms=norms, z=z, zero_norm=raw_norms < NORM_EPS)
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
    # in-place += on views of a zero vector stores 0 + d (so never -0.0)
    views = dict(out.items())

    d_feat_total = np.zeros_like(cache.features)
    if d_features is not None:
        d_feat_total += d_features

    if d_z is not None:
        # Through L2 normalization: d_p = (d_z - z (z . d_z)) / ||p||.
        z, norms = cache.z, cache.norms
        inner = np.sum(z * d_z, axis=1, keepdims=True)
        d_p1 = (d_z - z * inner) / norms[:, None]

        d_a0, d_w, d_b = affine_backward(d_p1, cache.proj_hidden_act, params["proj1.w"])
        views["proj1.w"] += d_w
        views["proj1.b"] += d_b
        d_p0 = d_a0 * relu_grad(cache.proj_pre[0])
        d_feat, d_w, d_b = affine_backward(d_p0, cache.features, params["proj0.w"])
        views["proj0.w"] += d_w
        views["proj0.b"] += d_b
        d_feat_total += d_feat

    d_h = d_feat_total
    for i in reversed(range(len(cfg.hidden))):
        d_pre = d_h * relu_grad(cache.pre_acts[i])
        below = cache.hidden_acts[i - 1] if i > 0 else cache.x
        # the input layer's d_x would go to the data: it is not formed
        d_h, d_w, d_b = affine_backward(d_pre, below, params[f"bb{i}.w"] if i > 0 else None)
        views[f"bb{i}.w"] += d_w
        views[f"bb{i}.b"] += d_b

    return out


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
    with open(path, "rb") as f:
        cur = _Cursor(f.read(), path)
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
