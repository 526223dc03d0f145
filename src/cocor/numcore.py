"""Dense numerical core: parameter sets, activations and the layer stack
every network runs on, momentum SGD with cosine decay, and a
central-difference gradient checker.

Matrices are plain 2-D float64 numpy arrays. A parameter set is one
contiguous float64 vector with named, reshaped views of its segments, so
copying, scaling, updating, and checking a whole set are single vector
operations. Everything here is pure except optimizer state, which is
single-owner. All randomness flows through
counter-based generators derived from integer seed paths (see ``make_rng``;
``path_rngs`` gives the same generators for many paths at once), so runs are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# RNG


def make_rng(*entropy: int) -> np.random.Generator:
    """Derive an independent generator from a path of integers.

    ``make_rng(master, stream, epoch, ...)`` gives a Philox (counter-based)
    generator that depends only on the path, never on call order.
    SeedSequence pads a path with zero words up to its four-word pool, so
    ``make_rng(3, 4)`` and ``make_rng(3, 4, 0)`` are one generator: two
    draws that must differ need a differing non-zero entry.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# numpy's SeedSequence constants (pool of four 32-bit words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _entropy_words(path: tuple[int, ...]) -> list[int]:
    """SeedSequence's entropy assembly: each entry as little-endian 32-bit
    words, at least one word per entry."""
    words = []
    for n in path:
        if 0 <= n <= _MASK32:
            words.append(n)
            continue
        n = int(n)
        if n < 0:
            raise ValueError("seed path entries must be non-negative")
        while n:
            words.append(n & _MASK32)
            n >>= 32
    return words


def _pool_keys(words: np.ndarray) -> np.ndarray:
    """SeedSequence mixing and ``generate_state(2, uint64)`` for an (N, L)
    uint32 array of entropy words that all have the same length L.

    The hash constants advance identically for every row, so each step is
    one vectorized uint32 operation (multiplication wraps mod 2**32).
    """
    const = [_INIT_A]

    def hashmix(value):
        value = value ^ np.uint32(const[0])
        const[0] = (const[0] * _MULT_A) & _MASK32
        value = value * np.uint32(const[0])
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    n, length = words.shape
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))

    out = np.empty((n, 4), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(4):
        value = pool[i] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out[:, i] = value ^ (value >> np.uint32(16))
    return out.astype("<u4").view("<u8").astype(np.uint64)


def philox_keys(paths) -> np.ndarray:
    """(N, 2) uint64 Philox keys; row i is the key ``make_rng(*paths[i])``
    uses, derived without building a SeedSequence per path. Every path must
    assemble the same number of entropy words (one template, one seed);
    numpy raises ValueError on a ragged list."""
    return _pool_keys(np.array([_entropy_words(p) for p in paths], dtype=np.uint32))


def path_rngs(paths):
    """Yield, path by path, a generator that draws exactly what
    ``make_rng(*path)`` draws.

    One Philox generator is re-keyed in place for each path, so each yielded
    generator is valid only until the next one is requested.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for key in philox_keys(paths).tolist():
        # a freshly seeded Philox: zero counter, empty output buffer
        state["state"] = {"counter": (0, 0, 0, 0), "key": key}
        bitgen.state = state
        yield gen


# ---------------------------------------------------------------------------
# Parameter sets


class ParamSet:
    """Named segments stored as reshaped views of one contiguous float64 vector.

    ``flat`` is that vector: the segments in insertion order, each in
    row-major (C) order. That layout is the contract for gradient checking
    and checkpoints. The views alias ``flat``, so writing into a segment in
    place writes into the vector; every operation on whole sets is one
    operation on ``flat``. ``ParamSet(segments)`` copies its arrays in.
    """

    def __init__(self, segments: dict[str, np.ndarray]):
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in segments.items()}
        self._bind(tuple((name, arr.shape) for name, arr in arrays.items()),
                   np.empty(sum(arr.size for arr in arrays.values())))
        for name, arr in arrays.items():
            self._views[name][...] = arr

    def _bind(self, layout: tuple, flat: np.ndarray) -> None:
        self.layout = layout    # ((name, shape), ...) in insertion order
        self.flat = flat
        self._views: dict[str, np.ndarray] = {}
        pos = 0
        for name, shape in layout:
            size = math.prod(shape)
            self._views[name] = flat[pos:pos + size].reshape(shape)
            pos += size
        if pos != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, the layout {pos}")

    def like(self, flat: np.ndarray) -> "ParamSet":
        """A set with this layout over ``flat`` itself (no copy)."""
        out = ParamSet.__new__(ParamSet)
        out._bind(self.layout, flat)
        return out

    def names(self) -> list[str]:
        return list(self._views)

    def items(self):
        return self._views.items()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __len__(self) -> int:
        return len(self._views)

    def copy(self) -> "ParamSet":
        return self.like(self.flat.copy())

    def zeros_like(self) -> "ParamSet":
        return self.like(np.zeros_like(self.flat))

    def scale(self, alpha: float) -> "ParamSet":
        return self.like(alpha * self.flat)

    def _check_compatible(self, other: "ParamSet") -> None:
        if self.layout != other.layout:
            raise ValueError(f"parameter layouts differ: {self.layout} vs {other.layout}")

    def check_finite(self, context: str = "") -> None:
        if np.isfinite(self.flat).all():
            return
        name = next(n for n, view in self._views.items() if not np.isfinite(view).all())
        raise FloatingPointError(f"non-finite values in segment {name!r} {context}")


# ---------------------------------------------------------------------------
# Layer stacks


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    # Subgradient 0 at the kink.
    return (x > 0.0).astype(np.float64)


def tanh_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(x)
    return 1.0 - t * t


# A layer's activation: (function, its derivative at the pre-activation).
RELU = (relu, relu_grad)
TANH = (np.tanh, tanh_grad)


def _check_chain(layers, x: np.ndarray) -> None:
    """Raise ValueError unless ``x`` and the layers' weights are 2-D and each
    layer's weights and bias fit the width that reaches it."""
    if x.ndim != 2:
        raise ValueError("mlp_forward expects 2-D input and weights")
    cols = x.shape[1]
    for weights, bias, _ in layers:
        if weights.ndim != 2:
            raise ValueError("mlp_forward expects 2-D input and weights")
        if cols != weights.shape[0]:
            raise ValueError(f"input cols {cols} != weight rows {weights.shape[0]}")
        cols = weights.shape[1]
        if bias.shape != (cols,):
            raise ValueError(f"bias shape {bias.shape} != ({cols},)")


def mlp_forward(layers, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward ``x`` through ``layers`` of (weights, bias, activation), the
    activation RELU, TANH or None (affine only): each layer computes
    act(x @ weights + bias), bias broadcast across rows. Every array is
    float64; the shape chain is checked once, before the first layer.
    Returns the output and the cache ``mlp_backward`` reads: each layer's
    (input, pre-activation)."""
    _check_chain(layers, x)
    cache = []
    for weights, bias, act in layers:
        pre = x @ weights
        pre += bias
        cache.append((x, pre))
        x = pre if act is None else act[0](pre)
    return x, cache


def mlp_backward(layers, cache: list, d_out: np.ndarray) -> list:
    """Backward through the stack ``mlp_forward`` ran, given the cotangent on
    its output. Returns [(d_weights, d_bias) per layer]; no cotangent on the
    stack's input is formed."""
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        weights, _, act = layers[i]
        x, pre = cache[i]
        if act is not None:
            d_out = d_out * act[1](pre)
        grads[i] = (x.T @ d_out, d_out.sum(axis=0))
        if i:
            d_out = d_out @ weights.T
    return grads


def mean(x: np.ndarray) -> float:
    """np.mean of a float64 array without its dispatch: the same pairwise
    sum over every entry divided by the same count, so the same bits."""
    return float(np.add.reduce(x, axis=None) / x.size)


def sigmoid(x):
    """Numerically stable logistic function."""
    if isinstance(x, float):
        # a scalar takes its own branch through the same numpy functions
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def softplus(x):
    """ln(1 + e^x); switches to x + ln(1 + e^-x) above 30 to avoid overflow."""
    if isinstance(x, float):
        # a scalar takes its own branch through the same numpy functions
        if x > 30.0:
            return float(x + np.log1p(np.exp(-x)))
        return float(np.log1p(np.exp(x)))
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    big = x > 30.0
    out[big] = x[big] + np.log1p(np.exp(-x[big]))
    out[~big] = np.log1p(np.exp(x[~big]))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Optimizer


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine-decayed learning rate; equals base_lr at step 0, non-increasing."""
    if total_steps <= 0:
        return base_lr
    t = min(step, total_steps)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * t / total_steps))


@dataclass
class SgdState:
    """Momentum-SGD state: the velocity vector (laid out as the parameters'
    ``flat``) plus schedule phase."""

    base_lr: float
    momentum: float
    weight_decay: float
    step: int
    total_steps: int
    buffers: np.ndarray

    @classmethod
    def init(cls, params: ParamSet, base_lr: float, momentum: float = 0.0,
             weight_decay: float = 0.0, total_steps: int = 0) -> "SgdState":
        if base_lr <= 0:
            raise ValueError("base_lr must be positive")
        return cls(base_lr=base_lr, momentum=momentum, weight_decay=weight_decay,
                   step=0, total_steps=total_steps, buffers=np.zeros_like(params.flat))

    def current_lr(self) -> float:
        return cosine_lr(self.base_lr, self.step, self.total_steps)


def sgd_step(params: ParamSet, grads: ParamSet, state: SgdState) -> ParamSet:
    """One momentum-SGD step with weight decay and cosine-scheduled lr.

    v <- momentum * v + (grad + wd * p);  p <- p - lr_t * v.
    Returns new parameters; advances ``state`` (velocity and step counter)
    in place, its single owner.
    """
    params._check_compatible(grads)
    lr = state.current_lr()
    step = state.weight_decay * params.flat
    step += grads.flat
    state.buffers *= state.momentum
    state.buffers += step
    # the new parameters reuse the step buffer: p - lr_t * v
    np.multiply(lr, state.buffers, out=step)
    np.subtract(params.flat, step, out=step)
    state.step += 1
    out = params.like(step)
    out.check_finite("after sgd_step")
    return out


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(loss_fn, params: ParamSet, analytic: ParamSet, h: float = 1e-4) -> float:
    """Max relative error between ``analytic`` and central differences.

    Per coordinate: numeric = (f(p+h) - f(p-h)) / 2h, error =
    |analytic - numeric| / max(1e-8, |numeric|). ``loss_fn`` must be a
    deterministic scalar function of the ParamSet. It is called with one
    copy of ``params`` whose vector is perturbed in place, one coordinate at
    a time; ``params`` itself is never written. The default step balances
    truncation against roundoff for losses of order one.
    """
    params._check_compatible(analytic)
    probe = params.copy()
    flat = probe.flat
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(loss_fn(probe))
        flat[i] = orig - h
        f_minus = float(loss_fn(probe))
        flat[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise RuntimeError(f"non-finite loss while checking coordinate {i}")
        numeric[i] = (f_plus - f_minus) / (2.0 * h)
    err = np.abs(analytic.flat - numeric) / np.maximum(1e-8, np.abs(numeric))
    # np.max propagates NaN: a non-finite analytic coordinate fails every tolerance
    return float(np.max(err, initial=0.0))
