"""Finite-difference verification of every analytic gradient in the package,
shared by the grad-check CLI command and the test suite.

Each entry builds a tiny deterministic instance (well under 2,000 parameters),
computes the analytic gradient, and compares it against central differences
from one production loss-only call on all the perturbed sets (``grad_check``).
"""

from __future__ import annotations

import numpy as np

from . import bilevel, pmnn
from .augment import POOL_SIZE
from .config import VARIANTS, RunConfig
from .encoder import (EncoderConfig, encode_backward, encode_batch, encode_features,
                      init_encoder_params)
from .losses import (NegativeQueue, consistency_loss_abs, consistency_loss_softplus,
                     contrastive_loss)
from .numcore import ParamSet, grad_check, make_rng, mean

TINY_ENC = EncoderConfig(input_dim=10, hidden=(8, 6), proj_hidden=5, embed_dim=4)


def _tiny_setup(seed: int):
    rng = make_rng(seed, 41)
    params = init_encoder_params(TINY_ENC, rng)
    x_query = rng.uniform(0.05, 0.95, size=(2, TINY_ENC.input_dim))
    x_raw = rng.uniform(0.05, 0.95, size=(3, TINY_ENC.input_dim))
    x_aug = np.clip(x_raw + rng.uniform(-0.15, 0.15, size=x_raw.shape), 0.0, 1.0)
    z_keys = rng.standard_normal((2, TINY_ENC.embed_dim))
    z_keys /= np.linalg.norm(z_keys, axis=1, keepdims=True)
    queue = NegativeQueue(capacity=8, dim=TINY_ENC.embed_dim)
    negs = rng.standard_normal((4, TINY_ENC.embed_dim))
    queue.push(negs / np.linalg.norm(negs, axis=1, keepdims=True))
    return rng, params, x_query, x_raw, x_aug, z_keys, queue


def check_contrastive(seed: int) -> float:
    _, params, x_query, _, _, z_keys, queue = _tiny_setup(seed)
    tau = RunConfig().tau

    def loss_fn(p: ParamSet) -> np.ndarray:
        _, z, _ = encode_batch(TINY_ENC, p, x_query)
        return contrastive_loss(z, z_keys, queue, tau, want_grad=False)[0]

    _, z, cache = encode_batch(TINY_ENC, params, x_query)
    _, d_z = contrastive_loss(z, z_keys, queue, tau)
    analytic = encode_backward(TINY_ENC, params, cache, d_z=d_z)
    return grad_check(loss_fn, params, analytic)


def _check_consistency(loss, seed: int) -> float:
    """d_omega of one consistency loss against central differences in omega;
    the encoder chain behind omega is covered by check_total_unsup."""
    omega = make_rng(seed, 43).uniform(-0.9, 0.9, size=3)
    g_vals = omega - np.array([0.3, -0.25, 0.2])  # gaps far from the |.| kink
    lengths = np.array([1, 2, 1])
    _, d_omega, _ = loss(omega, g_vals, lengths)
    return grad_check(lambda p: loss(p["omega"], g_vals, lengths, want_grad=False)[0],
                      ParamSet({"omega": omega}), ParamSet({"omega": d_omega}))


def check_consistency_abs(seed: int) -> float:
    return _check_consistency(consistency_loss_abs, seed)


def check_consistency_softplus(seed: int) -> float:
    return _check_consistency(consistency_loss_softplus, seed)


def _tiny_probe(rng) -> ParamSet:
    return ParamSet({"w": rng.standard_normal((TINY_ENC.feature_dim, 3)) * 0.3,
                     "b": rng.standard_normal(3) * 0.1})


def check_cross_entropy_probe(seed: int) -> float:
    """``bilevel.head_ce``: the probe and linear-eval head gradient."""
    rng, params, _, x_raw, _, _, _ = _tiny_setup(seed)
    features, _ = encode_features(TINY_ENC, params, x_raw)
    probe = _tiny_probe(rng)
    labels = np.array([0, 2, 1])
    _, analytic = bilevel.head_ce(probe, features, labels)
    return grad_check(lambda p: bilevel.head_ce(p, features, labels, want_grad=False)[0],
                      probe, analytic)


def check_cross_entropy_encoder(seed: int) -> float:
    """``bilevel.probe_ce``: labeled cross-entropy through the encoder, with
    the encoder gradient the hypergradient oracle uses."""
    rng, params, _, x_raw, _, _, _ = _tiny_setup(seed)
    probe = _tiny_probe(rng)
    labels = np.array([0, 2, 1])

    def loss_fn(p: ParamSet) -> np.ndarray:
        return bilevel.probe_ce(TINY_ENC, p, probe, x_raw, labels)[0]

    _, analytic = bilevel.probe_ce(TINY_ENC, params, probe, x_raw, labels,
                                   want_encoder_grad=True)
    return grad_check(loss_fn, params, analytic)


def check_pmnn_mean_output(seed: int) -> float:
    # A generic parameter point (random biases, post-training-like) and short
    # composite-like counts: keeps every used gradient coordinate well above
    # finite-difference roundoff and the tanh units unsaturated.
    rng = make_rng(seed, 42)
    h = 6
    params = ParamSet({
        "w1": rng.uniform(-0.5, 0.5, size=(POOL_SIZE, h)),
        "b1": rng.uniform(-0.3, 0.3, size=h),
        "w2": rng.uniform(-0.5, 0.5, size=(h, h)),
        "b2": rng.uniform(-0.3, 0.3, size=h),
        "w3": rng.uniform(-0.5, 0.5, size=(h, 1)),
        "b3": rng.uniform(-0.3, 0.3, size=1),
    })
    v_batch = np.zeros((3, POOL_SIZE), dtype=np.int64)
    for row in v_batch:
        for idx in rng.integers(0, POOL_SIZE, size=rng.integers(1, 4)):
            row[idx] += 1

    return grad_check(lambda p: mean(pmnn.predict_batch(p, v_batch)), params,
                      pmnn.grad_wrt_params(params, v_batch))


def check_total_unsup(seed: int) -> float:
    """The training loss itself: ``bilevel.unsup_eval`` (contrastive plus
    consistency, three encoder backward passes), for both variants."""
    _, params, x_query, x_raw, x_aug, z_keys, queue = _tiny_setup(seed)
    batch = bilevel.StepBatch(x=np.concatenate([x_query, x_raw, x_aug]), z_keys=z_keys,
                              v=np.eye(3, POOL_SIZE, dtype=np.int64) * [[1], [2], [1]],
                              y=np.zeros(0, dtype=np.int64), g=np.array([0.4, 0.1, 0.5]))

    def error(variant: str) -> float:
        cfg = RunConfig(variant=variant)

        def loss_fn(p: ParamSet) -> np.ndarray:
            return bilevel.unsup_eval(TINY_ENC, p, batch, queue, cfg, want_grad=False)[0].lu

        _, analytic = bilevel.unsup_eval(TINY_ENC, params, batch, queue, cfg, want_grad=True)
        return grad_check(loss_fn, params, analytic)

    return float(np.max([error(v) for v in VARIANTS]))  # np.max keeps a NaN


# Vetted instance seeds: chosen so no coordinate sits within the finite-
# difference step of a relu/abs kink and no nonzero gradient falls into
# roundoff territory. Central differences at kinks are meaningless, so the
# checks pin instances away from them.
SUITE_SEEDS = {
    "contrastive_loss": 32,
    "consistency_abs": 38,
    "consistency_softplus": 38,
    "cross_entropy_probe": 39,
    "cross_entropy_encoder": 12,
    "pmnn_mean_output": 41,
    "total_unsup_loss": 26,
}

_CHECKS = {
    "contrastive_loss": check_contrastive,
    "consistency_abs": check_consistency_abs,
    "consistency_softplus": check_consistency_softplus,
    "cross_entropy_probe": check_cross_entropy_probe,
    "cross_entropy_encoder": check_cross_entropy_encoder,
    "pmnn_mean_output": check_pmnn_mean_output,
    "total_unsup_loss": check_total_unsup,
}


def run_gradient_suite(seed: int | None = None) -> dict[str, float]:
    """Run every check; ``seed=None`` uses the vetted per-check instances."""
    return {name: fn(SUITE_SEEDS[name] if seed is None else seed)
            for name, fn in _CHECKS.items()}
