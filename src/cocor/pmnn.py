"""Deviation predictor: a small MLP from composition vectors to a predicted
optimal latent deviation, non-increasing in every count by construction.

Monotonicity comes from the architecture, not a penalty: effective weights
are softplus of unconstrained raw weights (hence >= 0), activations are tanh
(increasing), and the input is the negated count vector. The output is
squashed with tanh because it predicts a cosine similarity.
"""

from __future__ import annotations

import math

import numpy as np

from .augment import POOL_SIZE
from .numcore import TANH, ParamSet, mlp_backward, mlp_forward, sigmoid, softplus

BASE_DEVIATION = 0.6


def _inverse_softplus(y: float) -> float:
    return math.log(math.expm1(y))


def init_pmnn_params(rng: np.random.Generator, hidden: int) -> ParamSet:
    """Width-aware init. Effective weights land around 1.5/fan_in so layer
    sums stay out of tanh saturation for composite lengths up to 8 (all
    effective weights are non-negative, so same-signed sums grow with width
    and a fixed raw range would pin the output at -1 with dead gradients).
    The output bias anchors the zero-count prediction at ``BASE_DEVIATION``;
    monotonicity then spreads predictions downward as counts grow."""

    def raw(fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
        center = _inverse_softplus(1.5 / fan_in)
        return rng.uniform(center - 0.5, center + 0.5, size=shape)

    return ParamSet({
        "w1": raw(POOL_SIZE, (POOL_SIZE, hidden)),
        "b1": np.zeros(hidden),
        "w2": raw(hidden, (hidden, hidden)),
        "b2": np.zeros(hidden),
        "w3": raw(hidden, (hidden, 1)),
        "b3": np.full(1, math.atanh(BASE_DEVIATION)),
    })


def _as_batch(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != POOL_SIZE:
        raise ValueError(f"composition vectors must have {POOL_SIZE} entries, got {v.shape}")
    if (v < 0).any():
        raise ValueError("composition vector entries must be non-negative")
    return v


def _stack(params: ParamSet) -> list:
    """The predictor as a ``numcore`` tanh stack over its softplus weights."""
    return [(softplus(params[f"w{i}"]), params[f"b{i}"], TANH) for i in (1, 2, 3)]


def predict_batch(params: ParamSet, v_batch: np.ndarray) -> np.ndarray:
    """Predicted deviations in (-1, 1), one per composition vector row and stacked set."""
    # negated counts make the monotone-increasing net non-increasing in V
    y, _ = mlp_forward(_stack(params), -_as_batch(v_batch))
    return y[..., 0]


def grad_wrt_params(params: ParamSet, v_batch: np.ndarray) -> ParamSet:
    """Gradient of the batch-mean prediction w.r.t. the raw parameters.

    The chain rule runs through the softplus reparameterization, so the
    returned segments live in raw-parameter space.
    """
    v_batch = _as_batch(v_batch)
    n = v_batch.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    layers = _stack(params)
    _, cache = mlp_forward(layers, -v_batch)
    grads = mlp_backward(layers, cache, np.full((n, 1), 1.0 / n))
    segments = {}
    for i, (d_w_eff, d_b) in enumerate(grads, start=1):
        # d effective / d raw = sigmoid(raw)
        segments[f"w{i}"] = d_w_eff * sigmoid(params[f"w{i}"])
        segments[f"b{i}"] = d_b
    return ParamSet(segments)
