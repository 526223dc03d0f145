"""Alternating training loop: encoder descent on the unsupervised loss with
the deviation predictor frozen, then a predictor update driven by labeled
cross-entropy through the encoder's dependence on the prediction.

The predictor update uses a collapsed scalar form built from measured
differences across the encoder step:

    grad = -[e^k / (1+e^k)^2] * (CE' - CE) * (simi' - simi) / (L_u' - L_u)
           * d/d(theta_d) E[g(V)]

where primed quantities are measured after the encoder step on the same
batch, views, and queue. The overall sign makes the collapse consistent with
the exact first-order chain rule: since theta_e' depends on theta_d only
through the sigmoid(k)-weighted similarity gradient, expanding the
differences recovers +eta_e * sigma'(k) * (grad CE . grad simi) * dE[g] up to
the directional-projection approximation. ``hypergradient_oracle`` computes
that exact chain-rule value independently (two backprops and a dot product)
and is used to validate direction and sign. A guard skips the update when
|L_u' - L_u| falls below 1e-8 rather than dividing by it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import pmnn
from ._util import ConfigError
from .augment import (POOL_SIZE, CompositeAugmentation, apply_composite, composition_vector,
                      sample_composite)
from .config import RunConfig
from .data import Dataset, weak_augment
from .encoder import (EncoderConfig, encode_backward, encode_batch, encode_features,
                      features_backward, init_encoder_params, latent_deviation,
                      momentum_update)
from .losses import (NegativeQueue, consistency_loss_abs, consistency_loss_softplus,
                     contrastive_loss, cross_entropy)
from .numcore import ParamSet, SgdState, make_rng, mean, path_rngs, sgd_step

DENOM_GUARD = 1e-8
MONOTONIC_TRIALS = 100  # count vectors bumped by each epoch's monotonicity check
DACL_PROBE_SIZE = 32    # unlabeled rasters in each epoch's DACL estimate

# Seed-path stream tags: every generator derives from (master, stream, ...).
STREAM_INIT_ENCODER = 1
STREAM_INIT_PMNN = 2
STREAM_WARMUP = 3
STREAM_EPOCH_PERM = 4
STREAM_VIEWS = 5
STREAM_LABELED = 6
STREAM_DACL = 7

ROLE_QUERY, ROLE_KEY, ROLE_COMPOSITE = 0, 1, 2


def deviation_gap_coefficient(k: float) -> float:
    """e^k / (1 + e^k)^2, evaluated overflow-safe; lies in (0, 0.25]."""
    a = math.exp(-abs(k))  # e^k/(1+e^k)^2 is symmetric in k
    return a / (1.0 + a) ** 2


@dataclass
class TrainState:
    enc_cfg: EncoderConfig
    theta_e: ParamSet
    theta_k: ParamSet
    theta_d: ParamSet | None
    probe: ParamSet
    queue: NegativeQueue
    opt_e: SgdState
    opt_d: SgdState | None
    opt_probe: SgdState
    step: int = 0
    guard_count: int = 0
    zero_norm_count: int = 0
    const_deviation: float = 0.5   # every row's deviation when theta_d is None

    def predict(self, v: np.ndarray) -> np.ndarray:
        """The deviation predictor on (N, POOL_SIZE) composition vectors: the
        learned one, or const_deviation for every row without theta_d."""
        if self.theta_d is None:
            return np.full(v.shape[0], self.const_deviation)
        return pmnn.predict_batch(self.theta_d, v)


@dataclass
class StepBatch:
    """All views of one minibatch, flattened and stacked into one encoder
    input, so one forward pass per parameter version covers them: the query
    rows, the raw rows, their augmented views, then the labeled rows whose
    backbone features the step's cross-entropy reads."""

    x: np.ndarray
    z_keys: np.ndarray          # momentum-encoder embeddings, one per query row; constants
    v: np.ndarray               # (pairs, POOL_SIZE) composition vectors
    lengths: np.ndarray         # (pairs,) composite lengths

    def starts(self) -> tuple[int, int, int]:
        """First row of the raw, the augmented and the labeled rows."""
        q, p = self.z_keys.shape[0], self.lengths.size
        return q, q + p, q + 2 * p


@dataclass
class UnsupEval:
    lu: float
    lc: float
    lcons: float
    simi: float
    k_pooled: float
    k_by_length: dict[int, float]
    zero_norms: int             # over the unsupervised rows only
    labeled_features: np.ndarray  # backbone features of the batch's labeled rows


@dataclass
class StepInfo:
    """Everything probe_step and pmnn_step need about one encoder update:
    its batch, and the unsupervised loss terms and the labeled rows' features
    before and after the update, on the same batch, predictions and queue."""

    batch: StepBatch
    before: UnsupEval
    after: UnsupEval


@dataclass
class BilevelScalars:
    ce_before: float
    ce_after: float
    coefficient: float
    scalar: float
    guard_triggered: bool


@dataclass
class MetricsRecord:
    record_type: str            # "iteration" or "epoch"
    epoch: int
    step: int
    l_contrast: float
    l_consist: float
    l_u: float
    ce: float
    k_by_length: dict[str, float]
    coefficient: float | None
    guard_count: int
    probe_acc: float | None
    dacl: float | None
    wall_clock: float = 0.0     # excluded from the serialized stream


# ---------------------------------------------------------------------------
# Batch construction and loss evaluation


def _flatten(imgs: np.ndarray) -> np.ndarray:
    return np.asarray(imgs, dtype=np.float64).reshape(imgs.shape[0], -1)


def build_step_batch(state: TrainState, cfg: RunConfig, imgs: np.ndarray,
                     x_labeled: np.ndarray, step_tag: int) -> StepBatch:
    """Weak query/key views plus raw and composite-augmented views, stacked
    with the labeled rows. Every sample draws from its own seed paths, so its
    views do not depend on the batch around it."""
    n = imgs.shape[0]
    rngs = path_rngs([(cfg.seed, STREAM_VIEWS, step_tag, i, role)
                      for role in (ROLE_QUERY, ROLE_KEY, ROLE_COMPOSITE) for i in range(n)])
    queries = weak_augment(imgs, itertools.islice(rngs, n))
    keys = weak_augment(imgs, itertools.islice(rngs, n))
    # rng.choice(cfg.lengths) draws its index as integers(0, len): same draws
    comps = [sample_composite(cfg.lengths[rng.integers(0, len(cfg.lengths))],
                              cfg.magnitude, rng) for rng in rngs]
    augmented = apply_composite(comps, imgs)

    _, z_keys, _ = encode_batch(state.enc_cfg, state.theta_k, _flatten(keys))
    x = np.concatenate([_flatten(queries), _flatten(imgs), _flatten(augmented), x_labeled])
    return StepBatch(x=x, z_keys=z_keys, v=np.stack([composition_vector(c) for c in comps]),
                     lengths=np.array([len(c) for c in comps], dtype=np.int64))


_CONSISTENCY_LOSSES = {"abs": consistency_loss_abs, "softplus": consistency_loss_softplus}


def unsup_eval(enc_cfg: EncoderConfig, theta: ParamSet, batch: StepBatch,
               g_vals: np.ndarray, queue: NegativeQueue, cfg: RunConfig,
               want_grad: bool) -> tuple[UnsupEval, ParamSet | None]:
    """Full unsupervised loss at theta, holding views, keys, queue, and
    predictor outputs fixed; returns its measurements and, with want_grad,
    its encoder gradient (else None).

    One forward pass covers every row of the batch; the labeled rows take no
    part in the loss and only their backbone features are returned. The
    three backward passes (query, raw, augmented) run on row slices of that
    pass and add into one gradient set.
    """
    features, z, cache = encode_batch(enc_cfg, theta, batch.x)
    r, a, lab = batch.starts()
    lc, d_zq = contrastive_loss(z[:r], batch.z_keys, queue, cfg.tau, want_grad)
    z_raw, z_aug = z[r:a], z[a:lab]
    omega = np.add.reduce(z_raw * z_aug, axis=1)   # as np.sum
    simi = mean(omega)
    lcons, d_omega, k_by_length = _CONSISTENCY_LOSSES[cfg.variant](
        omega, g_vals, batch.lengths, want_grad)
    lu = lc + lcons
    k_pooled = mean(omega - g_vals)
    zero_norms = int(np.count_nonzero(cache.zero_norm[:lab]))

    grads = None
    if want_grad:
        grads = theta.zeros_like()
        encode_backward(enc_cfg, theta, cache.rows(0, r), d_z=d_zq, out=grads)
        encode_backward(enc_cfg, theta, cache.rows(r, a), d_z=d_omega[:, None] * z_aug,
                        out=grads)
        encode_backward(enc_cfg, theta, cache.rows(a, lab), d_z=d_omega[:, None] * z_raw,
                        out=grads)
    return UnsupEval(lu=lu, lc=lc, lcons=lcons, simi=simi, k_pooled=k_pooled,
                     k_by_length=k_by_length, zero_norms=zero_norms,
                     labeled_features=features[lab:]), grads


def head_ce(head: ParamSet, features: np.ndarray,
            labels: np.ndarray) -> tuple[float, ParamSet]:
    """Cross-entropy of an affine head {"w", "b"} on fixed features, and its
    gradient with respect to the head."""
    ce, d_logits = cross_entropy(features @ head["w"] + head["b"], labels)
    return ce, ParamSet({"w": features.T @ d_logits, "b": d_logits.sum(axis=0)})


def probe_ce(enc_cfg: EncoderConfig, theta_e: ParamSet, probe: ParamSet,
             x: np.ndarray, labels: np.ndarray,
             want_encoder_grad: bool = False) -> tuple[float, ParamSet | None]:
    """Labeled cross-entropy through backbone features with the probe fixed.

    Never mutates theta_e; the optional gradient is a measurement used by the
    hypergradient oracle, not an update path.
    """
    features, backbone_cache = encode_features(enc_cfg, theta_e, x)
    ce, d_logits = cross_entropy(features @ probe["w"] + probe["b"], labels,
                                 want_encoder_grad)
    if not want_encoder_grad:
        return ce, None
    return ce, features_backward(enc_cfg, theta_e, backbone_cache, d_logits @ probe["w"].T)


# ---------------------------------------------------------------------------
# The three alternation steps


def encoder_step(state: TrainState, cfg: RunConfig, imgs: np.ndarray,
                 x_labeled: np.ndarray, step_tag: int) -> StepInfo:
    """One descent step on the unsupervised loss with the predictor frozen.

    Builds the views, measures (L_u, simi, k) and the labeled rows' features
    before and after the update on identical inputs and queue contents,
    updates the momentum encoder, and only then enqueues the new keys.
    """
    if state.queue.fill < 1:
        raise RuntimeError("encoder_step requires a non-empty queue (run warm-up first)")
    batch = build_step_batch(state, cfg, imgs, x_labeled, step_tag)
    g_vals = state.predict(batch.v)

    before, grads = unsup_eval(state.enc_cfg, state.theta_e, batch, g_vals, state.queue,
                               cfg, want_grad=True)
    # sgd_step makes a new set: nothing holds the old one or the gradient
    # through the re-evaluation
    state.theta_e = sgd_step(state.theta_e, grads, state.opt_e)
    del grads
    momentum_update(state.theta_k, state.theta_e, cfg.momentum_coef)

    after, _ = unsup_eval(state.enc_cfg, state.theta_e, batch, g_vals, state.queue,
                          cfg, want_grad=False)
    state.queue.push(batch.z_keys)
    state.zero_norm_count += before.zero_norms + after.zero_norms
    state.step += 1

    return StepInfo(batch=batch, before=before, after=after)


def probe_step(state: TrainState, features: np.ndarray, labels: np.ndarray) -> float:
    """One SGD step on the probe over frozen backbone features (the training
    loop passes the labeled rows' features at state.theta_e)."""
    ce, grads = head_ce(state.probe, features, labels)
    state.probe = sgd_step(state.probe, grads, state.opt_probe)
    return ce


def pmnn_step(state: TrainState, labels: np.ndarray, info: StepInfo) -> BilevelScalars:
    """Predictor update from the collapsed scalar formula (see module doc).

    Requires the StepInfo produced by this iteration's encoder_step; CE is
    measured on its labeled rows' features at the pre-update and updated
    encoder parameters, with the current probe frozen.
    """
    if state.theta_d is None:
        raise RuntimeError("pmnn_step called with a constant deviation predictor")
    w, b = state.probe["w"], state.probe["b"]
    ce_before, _ = cross_entropy(info.before.labeled_features @ w + b, labels, want_grad=False)
    ce_after, _ = cross_entropy(info.after.labeled_features @ w + b, labels, want_grad=False)

    d_lu = info.after.lu - info.before.lu
    coefficient = deviation_gap_coefficient(info.before.k_pooled)
    guard = abs(d_lu) < DENOM_GUARD
    scalar = 0.0
    if guard:
        state.guard_count += 1
    else:
        # Minus sign: see module docstring; aligns the collapse with the
        # exact chain-rule hypergradient.
        scalar = -(coefficient * (ce_after - ce_before)
                   * (info.after.simi - info.before.simi) / d_lu)
        grad_g = pmnn.grad_wrt_params(state.theta_d, info.batch.v)
        state.theta_d = sgd_step(state.theta_d, grad_g.scale(scalar), state.opt_d)

    return BilevelScalars(ce_before=ce_before, ce_after=ce_after, coefficient=coefficient,
                          scalar=scalar, guard_triggered=guard)


def hypergradient_oracle(state: TrainState, info: StepInfo, x_labeled: np.ndarray,
                         labels: np.ndarray, theta_start: ParamSet,
                         lr: float) -> tuple[ParamSet, float, ParamSet]:
    """Exact first-order chain-rule hypergradient, independent of the scalar
    formula: eta_e * sigma'(k) * (grad CE(theta') . grad simi(theta)) * dE[g]/d(theta_d).

    theta_start and lr are the encoder parameters and the learning rate the
    step behind ``info`` started from. Returns (oracle gradient, its scalar
    multiplier, dE[g]/d(theta_d)).
    """
    enc_cfg = state.enc_cfg
    _, grad_ce = probe_ce(enc_cfg, state.theta_e, state.probe, x_labeled,
                          labels, want_encoder_grad=True)
    # grad of the batch-mean raw/augmented similarity at theta_start
    r, a, lab = info.batch.starts()
    _, z, cache = encode_batch(enc_cfg, theta_start, info.batch.x[r:lab])
    n = a - r
    grad_simi = encode_backward(enc_cfg, theta_start, cache.rows(0, n), d_z=z[n:] / n)
    encode_backward(enc_cfg, theta_start, cache.rows(n, 2 * n), d_z=z[:n] / n,
                    out=grad_simi)
    inner = float(grad_ce.flat @ grad_simi.flat)
    scalar = lr * deviation_gap_coefficient(info.before.k_pooled) * inner
    grad_g = pmnn.grad_wrt_params(state.theta_d, info.batch.v)
    return grad_g.scale(scalar), scalar, grad_g


def dacl(enc_cfg: EncoderConfig, theta_e: ParamSet, predict,
         probe_set: list[tuple[np.ndarray, CompositeAugmentation]]) -> float:
    """Mean absolute gap between measured deviations and the values of the
    reference predictor ``predict`` (composition vectors -> deviations) over
    a set of (image, composite) pairs."""
    if not probe_set:
        raise ValueError("empty probe set")
    imgs = np.stack([img for img, _ in probe_set])
    augmented = apply_composite([comp for _, comp in probe_set], imgs)
    gaps = []
    # one row per encode: a different row count can change BLAS rounding
    for img, aug, (_, comp) in zip(imgs, augmented, probe_set):
        omega = latent_deviation(enc_cfg, theta_e, img, aug)
        g = float(predict(composition_vector(comp)[None])[0])
        gaps.append(abs(omega - g))
    return float(np.mean(gaps))


# ---------------------------------------------------------------------------
# Training driver


def encoder_config(cfg: RunConfig) -> EncoderConfig:
    """The encoder widths a run configuration asks for."""
    return EncoderConfig(input_dim=cfg.input_dim, hidden=cfg.hidden,
                         proj_hidden=cfg.proj_hidden, embed_dim=cfg.embed_dim)


def init_train_state(cfg: RunConfig, enc_cfg: EncoderConfig,
                     total_steps: int) -> TrainState:
    theta_e = init_encoder_params(enc_cfg, make_rng(cfg.seed, STREAM_INIT_ENCODER))
    theta_k = theta_e.copy()
    theta_d = None
    opt_d = None
    if cfg.use_pmnn:
        theta_d = pmnn.init_pmnn_params(make_rng(cfg.seed, STREAM_INIT_PMNN),
                                        cfg.pmnn_hidden)
        opt_d = SgdState.init(theta_d, cfg.eta_d)
    probe = ParamSet({"w": np.zeros((enc_cfg.feature_dim, cfg.classes)),
                      "b": np.zeros(cfg.classes)})
    return TrainState(
        enc_cfg=enc_cfg, theta_e=theta_e, theta_k=theta_k, theta_d=theta_d,
        probe=probe, queue=NegativeQueue(cfg.queue_capacity, enc_cfg.embed_dim),
        opt_e=SgdState.init(theta_e, cfg.eta_e, cfg.sgd_momentum, cfg.weight_decay,
                            total_steps=total_steps),
        opt_d=opt_d,
        opt_probe=SgdState.init(probe, cfg.probe_lr, momentum=0.9),
        const_deviation=cfg.const_deviation)


def warm_up_queue(state: TrainState, cfg: RunConfig, images: np.ndarray) -> None:
    """Fill the queue with momentum-encoder keys; no losses, no updates."""
    n_batches = math.ceil(cfg.queue_capacity / cfg.batch_size)
    n = images.shape[0]
    for w in range(n_batches):
        rng = make_rng(cfg.seed, STREAM_WARMUP, w)
        idx = rng.integers(0, n, size=cfg.batch_size)
        keys = weak_augment(images[idx], path_rngs(
            [(cfg.seed, STREAM_WARMUP, w, j, ROLE_KEY) for j in range(idx.size)]))
        _, z_keys, _ = encode_batch(state.enc_cfg, state.theta_k, _flatten(keys))
        state.queue.push(z_keys)


def _check_monotonic(theta_d: ParamSet, rng: np.random.Generator) -> None:
    vs = rng.integers(0, 9, size=(MONOTONIC_TRIALS, POOL_SIZE))
    coords = rng.integers(0, POOL_SIZE, size=MONOTONIC_TRIALS)
    base = pmnn.predict_batch(theta_d, vs)
    bumped = vs.copy()
    bumped[np.arange(MONOTONIC_TRIALS), coords] += 1
    if np.any(pmnn.predict_batch(theta_d, bumped) > base + 1e-12):
        raise AssertionError("deviation predictor lost monotonicity")


def _dacl_probe_set(cfg: RunConfig, images: np.ndarray, epoch: int):
    rng = make_rng(cfg.seed, STREAM_DACL, epoch)
    idx = rng.integers(0, images.shape[0], size=DACL_PROBE_SIZE)
    out = []
    for i in idx:
        length = int(rng.choice(np.asarray(cfg.lengths)))
        out.append((images[i], sample_composite(length, cfg.magnitude, rng)))
    return out


def probe_accuracy(enc_cfg: EncoderConfig, theta_e: ParamSet, probe: ParamSet,
                   x: np.ndarray, labels: np.ndarray) -> float:
    features, _ = encode_features(enc_cfg, theta_e, x)
    return float(np.mean(np.argmax(features @ probe["w"] + probe["b"], axis=1) == labels))


def train(cfg: RunConfig, dataset: Dataset) -> tuple[TrainState, list[MetricsRecord]]:
    """Run the full alternation; returns the final state and metrics stream.

    Per iteration (default alternation): encoder_step, probe_step, pmnn_step,
    where the predictor update consumes exactly the encoder pair produced by
    this iteration's step. The epoch alternation flag instead snapshots the
    encoder at epoch boundaries and applies one predictor update per epoch.
    """
    cfg.validate()
    if dataset.image_shape != (cfg.height, cfg.width, cfg.channels):
        raise ConfigError(f"dataset shape {dataset.image_shape} does not match config "
                          f"({cfg.height}, {cfg.width}, {cfg.channels})")
    unlabeled = dataset.split_images("unlabeled_train")
    labeled_x_all = _flatten(dataset.split_images("labeled_train"))
    labeled_y_all = dataset.split_labels("labeled_train")
    if unlabeled.shape[0] < cfg.batch_size:
        raise ConfigError(f"unlabeled split smaller than batch_size = {cfg.batch_size}")

    enc_cfg = encoder_config(cfg)
    steps_per_epoch = unlabeled.shape[0] // cfg.batch_size
    state = init_train_state(cfg, enc_cfg, total_steps=cfg.epochs * steps_per_epoch)
    metrics: list[MetricsRecord] = []
    if cfg.epochs == 0:
        return state, metrics

    warm_up_queue(state, cfg, unlabeled)

    t0 = time.monotonic()
    n_labeled = labeled_x_all.shape[0]
    labeled_bs = min(cfg.batch_size, n_labeled)

    for epoch in range(cfg.epochs):
        perm = make_rng(cfg.seed, STREAM_EPOCH_PERM, epoch).permutation(unlabeled.shape[0])
        # never written in place: each sgd_step makes a new set
        epoch_start_theta = state.theta_e if cfg.alternation == "epoch" else None
        epoch_rows = []

        for it in range(steps_per_epoch):
            idx = perm[it * cfg.batch_size:(it + 1) * cfg.batch_size]
            # the labeled batch is keyed by the step count encoder_step reaches
            lab_rng = make_rng(cfg.seed, STREAM_LABELED, state.step + 1)
            lab_idx = lab_rng.choice(n_labeled, size=labeled_bs, replace=False)
            x_lab, y_lab = labeled_x_all[lab_idx], labeled_y_all[lab_idx]
            info = encoder_step(state, cfg, unlabeled[idx], x_lab, step_tag=state.step)
            ce = probe_step(state, info.after.labeled_features, y_lab)

            coefficient = None
            if state.theta_d is not None and cfg.alternation == "iteration":
                coefficient = pmnn_step(state, y_lab, info).coefficient

            record = MetricsRecord(
                record_type="iteration", epoch=epoch, step=state.step,
                l_contrast=info.before.lc, l_consist=info.before.lcons,
                l_u=info.before.lu, ce=ce,
                k_by_length={str(k): v for k, v in info.before.k_by_length.items()},
                coefficient=coefficient, guard_count=state.guard_count,
                probe_acc=None, dacl=None, wall_clock=time.monotonic() - t0)
            metrics.append(record)
            epoch_rows.append(record)
            # only the epoch-level predictor update reads a step's views
            # later; drop them before the next step allocates its own
            last_batch = info.batch if cfg.alternation == "epoch" else None
            del info

        # last_batch is set: train rejects an unlabeled split under one batch
        if state.theta_d is not None and cfg.alternation == "epoch":
            lab_rng = make_rng(cfg.seed, STREAM_LABELED, cfg.epochs * steps_per_epoch + epoch)
            lab_idx = lab_rng.choice(n_labeled, size=labeled_bs, replace=False)
            info = _epoch_pair_info(state, cfg, epoch_start_theta, last_batch,
                                    labeled_x_all[lab_idx])
            pmnn_step(state, labeled_y_all[lab_idx], info)

        if state.theta_d is not None:
            _check_monotonic(state.theta_d, make_rng(cfg.seed, STREAM_DACL, epoch, 1))

        acc = probe_accuracy(enc_cfg, state.theta_e, state.probe, labeled_x_all,
                             labeled_y_all)
        dacl_val = dacl(enc_cfg, state.theta_e, state.predict,
                        _dacl_probe_set(cfg, unlabeled, epoch))
        metrics.append(MetricsRecord(
            record_type="epoch", epoch=epoch, step=state.step,
            l_contrast=float(np.mean([r.l_contrast for r in epoch_rows])),
            l_consist=float(np.mean([r.l_consist for r in epoch_rows])),
            l_u=float(np.mean([r.l_u for r in epoch_rows])),
            ce=float(np.mean([r.ce for r in epoch_rows])),
            k_by_length=_mean_k(epoch_rows),
            coefficient=None, guard_count=state.guard_count,
            probe_acc=acc, dacl=dacl_val, wall_clock=time.monotonic() - t0))
    return state, metrics


def _epoch_pair_info(state: TrainState, cfg: RunConfig, theta_start: ParamSet,
                     last: StepBatch, x_labeled: np.ndarray) -> StepInfo:
    """Coarse epoch-level (theta, theta') pair measured on the last batch's
    views, with x_labeled in place of its labeled rows."""
    batch = dataclasses.replace(
        last, x=np.concatenate([last.x[:last.starts()[2]], x_labeled]))
    g_vals = state.predict(batch.v)
    before, _ = unsup_eval(state.enc_cfg, theta_start, batch, g_vals, state.queue,
                           cfg, want_grad=False)
    after, _ = unsup_eval(state.enc_cfg, state.theta_e, batch, g_vals, state.queue,
                          cfg, want_grad=False)
    return StepInfo(batch=batch, before=before, after=after)


def _mean_k(rows: list[MetricsRecord]) -> dict[str, float]:
    keys = sorted({k for r in rows for k in r.k_by_length})
    out = {}
    for k in keys:
        vals = [r.k_by_length[k] for r in rows if k in r.k_by_length]
        out[k] = float(np.mean(vals))
    return out
