"""Deviation predictor: a small MLP from composition vectors to a predicted
optimal latent deviation, non-increasing in every count by construction.

Monotonicity comes from the architecture, not a penalty: effective weights
are softplus of unconstrained raw weights (hence >= 0), activations are tanh
(increasing), and the input is the negated count vector. The output is
squashed with tanh because it predicts a cosine similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import ParamSet, sigmoid, softplus, tanh_grad

DEFAULT_HIDDEN = 16
INPUT_DIM = 14


def _inverse_softplus(y: float) -> float:
    return math.log(math.expm1(y))


def init_pmnn_params(rng: np.random.Generator, hidden: int = DEFAULT_HIDDEN,
                     base_deviation: float = 0.6) -> ParamSet:
    """Width-aware init. Effective weights land around 1.5/fan_in so layer
    sums stay out of tanh saturation for composite lengths up to 8 (all
    effective weights are non-negative, so same-signed sums grow with width
    and a fixed raw range would pin the output at -1 with dead gradients).
    The output bias anchors the zero-count prediction at ``base_deviation``;
    monotonicity then spreads predictions downward as counts grow."""

    def raw(fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
        center = _inverse_softplus(1.5 / fan_in)
        return rng.uniform(center - 0.5, center + 0.5, size=shape)

    return ParamSet({
        "w1": raw(INPUT_DIM, (INPUT_DIM, hidden)),
        "b1": np.zeros(hidden),
        "w2": raw(hidden, (hidden, hidden)),
        "b2": np.zeros(hidden),
        "w3": raw(hidden, (hidden, 1)),
        "b3": np.full(1, math.atanh(base_deviation)),
    })


def _as_batch(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if v.ndim != 2 or v.shape[1] != INPUT_DIM:
        raise ValueError(f"composition vectors must have {INPUT_DIM} entries, got {v.shape}")
    if np.any(v < 0):
        raise ValueError("composition vector entries must be non-negative")
    return v


def _forward(params: ParamSet, v_batch: np.ndarray):
    u = -v_batch  # negated counts make the monotone-increasing net non-increasing in V
    w1, w2, w3 = softplus(params["w1"]), softplus(params["w2"]), softplus(params["w3"])
    s1 = u @ w1 + params["b1"]
    h1 = np.tanh(s1)
    s2 = h1 @ w2 + params["b2"]
    h2 = np.tanh(s2)
    s3 = h2 @ w3 + params["b3"]
    y = np.tanh(s3[:, 0])
    return y, (u, w1, w2, w3, s1, h1, s2, h2, s3)


def predict_batch(params: ParamSet, v_batch: np.ndarray) -> np.ndarray:
    """Predicted deviations in (-1, 1), one per composition vector row."""
    y, _ = _forward(params, _as_batch(v_batch))
    return y


def grad_wrt_params(params: ParamSet, v_batch: np.ndarray,
                    weights: np.ndarray | None = None) -> ParamSet:
    """Gradient of the weighted sum of predictions w.r.t. the raw parameters.

    ``weights`` defaults to 1/B per row, giving the gradient of the batch
    mean. The chain rule runs through the softplus reparameterization, so the
    returned segments live in raw-parameter space.
    """
    v_batch = _as_batch(v_batch)
    n = v_batch.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(f"weights shape {weights.shape} != ({n},)")

    y, (u, w1, w2, w3, s1, h1, s2, h2, s3) = _forward(params, v_batch)

    d_s3 = (weights * tanh_grad(s3[:, 0]))[:, None]
    d_w3_eff = h2.T @ d_s3
    d_b3 = d_s3.sum(axis=0)
    d_h2 = d_s3 @ w3.T

    d_s2 = d_h2 * tanh_grad(s2)
    d_w2_eff = h1.T @ d_s2
    d_b2 = d_s2.sum(axis=0)
    d_h1 = d_s2 @ w2.T

    d_s1 = d_h1 * tanh_grad(s1)
    d_w1_eff = u.T @ d_s1
    d_b1 = d_s1.sum(axis=0)

    # d effective / d raw = sigmoid(raw)
    return ParamSet({
        "w1": d_w1_eff * sigmoid(params["w1"]),
        "b1": d_b1,
        "w2": d_w2_eff * sigmoid(params["w2"]),
        "b2": d_b2,
        "w3": d_w3_eff * sigmoid(params["w3"]),
        "b3": d_b3,
    })


# ---------------------------------------------------------------------------
# Predictor objects shared by the training loop, metrics, and ablations


class PmnnPredictor:
    """Learned predictor backed by a parameter set (mutated by training)."""

    def __init__(self, params: ParamSet):
        self.params = params

    def predict_batch(self, v_batch: np.ndarray) -> np.ndarray:
        return predict_batch(self.params, v_batch)


@dataclass(frozen=True)
class ConstantPredictor:
    """Fixed deviation regardless of composition; the ablation baseline."""

    value: float

    def predict_batch(self, v_batch: np.ndarray) -> np.ndarray:
        v_batch = _as_batch(v_batch)
        return np.full(v_batch.shape[0], self.value)
