"""Alternating training loop: encoder descent on the unsupervised loss with
the deviation predictor frozen, then a predictor update driven by labeled
cross-entropy through the encoder's dependence on the prediction.

The predictor update uses a collapsed scalar form (``collapsed_scalar``)
built from measured differences across the encoder step:

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
from .augment import (POOL_SIZE, BasicTransform, apply_composite, composition_vector,
                      sample_composite)
from .config import RunConfig
from .data import Dataset, weak_augment
from .encoder import (EncoderConfig, encode_backward, encode_batch, encode_features,
                      features_backward, init_encoder_params, momentum_update)
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
    backbone features the step's cross-entropy reads. The labels and the
    predictor's outputs ride along, fixed for the whole step."""

    x: np.ndarray
    z_keys: np.ndarray          # momentum-encoder embeddings, one per query row; constants
    v: np.ndarray               # (pairs, POOL_SIZE) composition vectors; a row sums to its length
    y: np.ndarray               # labels of the labeled rows
    g: np.ndarray               # (pairs,) predicted deviations, the consistency targets

    def starts(self) -> tuple[int, int, int]:
        """First row of the raw, the augmented and the labeled rows."""
        q, p = self.z_keys.shape[0], self.v.shape[0]
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
    return imgs.reshape(imgs.shape[0], -1)


def build_step_batch(state: TrainState, cfg: RunConfig, imgs: np.ndarray,
                     labeled: tuple[np.ndarray, np.ndarray]) -> StepBatch:
    """Weak query/key views plus raw and composite-augmented views, stacked
    with the labeled rows of the (rows, labels) pair ``labeled``, and the
    predictor's outputs on the pairs. Every sample draws from its own seed
    paths, keyed by ``state.step``, so its views do not depend on the batch
    around it."""
    x_labeled, y = labeled
    n = imgs.shape[0]
    rngs = path_rngs([(cfg.seed, STREAM_VIEWS, state.step, i, role)
                      for role in (ROLE_QUERY, ROLE_KEY, ROLE_COMPOSITE) for i in range(n)])
    # the paths are role-major: queries, then keys, from one pass
    views = weak_augment(np.concatenate((imgs, imgs)), itertools.islice(rngs, 2 * n))
    comps = [sample_composite(cfg.lengths, cfg.magnitude, rng) for rng in rngs]
    augmented = apply_composite(comps, imgs)
    v = composition_vector(comps)

    _, z_keys, _ = encode_batch(state.enc_cfg, state.theta_k, _flatten(views[n:]))
    x = np.concatenate([_flatten(views[:n]), _flatten(imgs), _flatten(augmented), x_labeled])
    return StepBatch(x=x, z_keys=z_keys, v=v, y=y, g=state.predict(v))


_CONSISTENCY_LOSSES = {"abs": consistency_loss_abs, "softplus": consistency_loss_softplus}


def unsup_eval(enc_cfg: EncoderConfig, theta: ParamSet, batch: StepBatch, queue: NegativeQueue,
               cfg: RunConfig, *, want_grad: bool) -> tuple[UnsupEval, ParamSet | None]:
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
        omega, batch.g, batch.v.sum(axis=1), want_grad)
    lu = lc + lcons
    k_pooled = mean(omega - batch.g)
    zero_norms = int(np.count_nonzero(cache.zero_norm[:lab]))

    grads = None
    if want_grad:
        grads = encode_backward(enc_cfg, theta, cache.rows(0, r), d_z=d_zq)
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
    gradient; it checks the labels that the probe and linear evaluation pass."""
    c = head["b"].size
    if labels.shape != features.shape[:1] or np.count_nonzero((labels < 0) | (labels >= c)):
        raise ValueError(f"labels must be {features.shape[0]} values in [0, {c})")
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
                 labeled: tuple[np.ndarray, np.ndarray]) -> StepInfo:
    """One descent step on the unsupervised loss with the predictor frozen.

    Builds the views, measures (L_u, simi, k) and the labeled rows' features
    before and after the update on identical inputs and queue contents,
    updates the momentum encoder, and only then enqueues the new keys.
    """
    batch = build_step_batch(state, cfg, imgs, labeled)

    before, grads = unsup_eval(state.enc_cfg, state.theta_e, batch, state.queue, cfg,
                               want_grad=True)
    # sgd_step makes a new set: nothing holds the old one or the gradient
    # through the re-evaluation
    state.theta_e = sgd_step(state.theta_e, grads, state.opt_e)
    del grads
    momentum_update(state.theta_k, state.theta_e, cfg.momentum_coef)

    after, _ = unsup_eval(state.enc_cfg, state.theta_e, batch, state.queue, cfg,
                          want_grad=False)
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


def collapsed_scalar(probe: ParamSet, info: StepInfo) -> float | None:
    """The collapsed scalar of the module doc for the encoder step behind
    ``info``, with CE measured through ``probe`` on its labeled rows' features
    before and after the step; None when |L_u' - L_u| < DENOM_GUARD, and then
    no CE is measured."""
    d_lu = info.after.lu - info.before.lu
    if abs(d_lu) < DENOM_GUARD:
        return None
    w, b, labels = probe["w"], probe["b"], info.batch.y
    ce_before, _ = cross_entropy(info.before.labeled_features @ w + b, labels, want_grad=False)
    ce_after, _ = cross_entropy(info.after.labeled_features @ w + b, labels, want_grad=False)
    # Minus sign: see module docstring; aligns the collapse with the
    # exact chain-rule hypergradient.
    return -(deviation_gap_coefficient(info.before.k_pooled) * (ce_after - ce_before)
             * (info.after.simi - info.before.simi) / d_lu)


def pmnn_step(state: TrainState, info: StepInfo) -> None:
    """Predictor step along dE[g]/d(theta_d), scaled by ``collapsed_scalar``
    of this iteration's encoder step with the current probe; a guarded step
    only counts in ``state.guard_count``."""
    if state.theta_d is None:
        raise RuntimeError("pmnn_step called with a constant deviation predictor")
    scalar = collapsed_scalar(state.probe, info)
    if scalar is None:
        state.guard_count += 1
        return
    grad_g = pmnn.grad_wrt_params(state.theta_d, info.batch.v)
    state.theta_d = sgd_step(state.theta_d, grad_g.scale(scalar), state.opt_d)


def hypergradient_oracle(state: TrainState, info: StepInfo, theta_start: ParamSet,
                         lr: float) -> tuple[ParamSet, float, ParamSet]:
    """Exact first-order chain-rule hypergradient, independent of the scalar
    formula: eta_e * sigma'(k) * (grad CE(theta') . grad simi(theta)) * dE[g]/d(theta_d).

    theta_start and lr are the encoder parameters and the learning rate the
    step behind ``info`` started from. Returns (oracle gradient, its scalar
    multiplier, dE[g]/d(theta_d)).
    """
    enc_cfg = state.enc_cfg
    r, a, lab = info.batch.starts()
    _, grad_ce = probe_ce(enc_cfg, state.theta_e, state.probe, info.batch.x[lab:],
                          info.batch.y, want_encoder_grad=True)
    # grad of the batch-mean raw/augmented similarity at theta_start
    _, z, cache = encode_batch(enc_cfg, theta_start, info.batch.x[r:lab])
    n = a - r
    grad_simi = encode_backward(enc_cfg, theta_start, cache.rows(0, n), d_z=z[n:] / n)
    encode_backward(enc_cfg, theta_start, cache.rows(n, 2 * n), d_z=z[:n] / n,
                    out=grad_simi)
    inner = float(grad_ce.flat @ grad_simi.flat)
    scalar = lr * deviation_gap_coefficient(info.before.k_pooled) * inner
    grad_g = pmnn.grad_wrt_params(state.theta_d, info.batch.v)
    return grad_g.scale(scalar), scalar, grad_g


def dacl(enc_cfg: EncoderConfig, theta_e: ParamSet, predict, imgs: np.ndarray,
         comps: list[tuple[BasicTransform, ...]]) -> float:
    """Mean absolute gap between the measured deviations of rasters ``imgs``
    under composites ``comps`` and the values of the reference predictor
    ``predict`` (composition vectors -> deviations). One forward pass covers
    the raw rows, then their augmented views, as in ``unsup_eval``."""
    if not comps:
        raise ValueError("empty probe set")
    x = np.concatenate([_flatten(imgs), _flatten(apply_composite(comps, imgs))])
    _, z, _ = encode_batch(enc_cfg, theta_e, x)
    n = len(comps)
    omega = np.add.reduce(z[:n] * z[n:], axis=1)   # as np.sum
    return float(np.mean(np.abs(omega - predict(composition_vector(comps)))))


# ---------------------------------------------------------------------------
# Training driver


def encoder_config(cfg: RunConfig) -> EncoderConfig:
    """The encoder widths a run configuration asks for."""
    return EncoderConfig(input_dim=cfg.input_dim, hidden=cfg.hidden,
                         proj_hidden=cfg.proj_hidden, embed_dim=cfg.embed_dim)


def initial_encoder(cfg: RunConfig) -> tuple[EncoderConfig, ParamSet]:
    """The encoder widths of ``cfg`` and the parameters every run of it starts from."""
    enc_cfg = encoder_config(cfg)
    return enc_cfg, init_encoder_params(enc_cfg, make_rng(cfg.seed, STREAM_INIT_ENCODER))


def init_train_state(cfg: RunConfig, total_steps: int) -> TrainState:
    enc_cfg, theta_e = initial_encoder(cfg)
    theta_d = (pmnn.init_pmnn_params(make_rng(cfg.seed, STREAM_INIT_PMNN), cfg.pmnn_hidden)
               if cfg.use_pmnn else None)
    probe = ParamSet({"w": np.zeros((enc_cfg.feature_dim, cfg.classes)),
                      "b": np.zeros(cfg.classes)})
    return TrainState(
        enc_cfg=enc_cfg, theta_e=theta_e, theta_k=theta_e.copy(), theta_d=theta_d,
        probe=probe, queue=NegativeQueue(cfg.queue_capacity, enc_cfg.embed_dim),
        opt_e=SgdState.init(theta_e, cfg.eta_e, cfg.sgd_momentum, cfg.weight_decay,
                            total_steps=total_steps),
        opt_d=SgdState.init(theta_d, cfg.eta_d) if cfg.use_pmnn else None,
        opt_probe=SgdState.init(probe, cfg.probe_lr, momentum=0.9),
        const_deviation=cfg.const_deviation)


def warm_up_queue(state: TrainState, cfg: RunConfig, images: np.ndarray) -> None:
    """Fill the queue with momentum-encoder keys in one push; no losses, no updates."""
    n = images.shape[0]
    z_keys = []
    for w in range(math.ceil(cfg.queue_capacity / cfg.batch_size)):
        idx = make_rng(cfg.seed, STREAM_WARMUP, w).integers(0, n, size=cfg.batch_size)
        keys = weak_augment(images[idx], path_rngs(
            [(cfg.seed, STREAM_WARMUP, w, j, ROLE_KEY) for j in range(idx.size)]))
        z_keys.append(encode_batch(state.enc_cfg, state.theta_k, _flatten(keys))[1])
    state.queue.push(np.concatenate(z_keys))


def _check_monotonic(theta_d: ParamSet, rng: np.random.Generator) -> None:
    vs = rng.integers(0, 9, size=(MONOTONIC_TRIALS, POOL_SIZE))
    coords = rng.integers(0, POOL_SIZE, size=MONOTONIC_TRIALS)
    base = pmnn.predict_batch(theta_d, vs)
    bumped = vs.copy()
    bumped[np.arange(MONOTONIC_TRIALS), coords] += 1
    if np.any(pmnn.predict_batch(theta_d, bumped) > base + 1e-12):
        raise AssertionError("deviation predictor lost monotonicity")


def _dacl_probe_set(cfg: RunConfig, images: np.ndarray,
                    epoch: int) -> tuple[np.ndarray, list[tuple[BasicTransform, ...]]]:
    """An epoch's DACL rasters and one composite each, drawn from one stream."""
    rng = make_rng(cfg.seed, STREAM_DACL, epoch)
    idx = rng.integers(0, images.shape[0], size=DACL_PROBE_SIZE)
    return images[idx], [sample_composite(cfg.lengths, cfg.magnitude, rng) for _ in idx]


def probe_accuracy(enc_cfg: EncoderConfig, theta_e: ParamSet, probe: ParamSet,
                   x: np.ndarray, labels: np.ndarray) -> float:
    features, _ = encode_features(enc_cfg, theta_e, x)
    return float(np.mean(np.argmax(features @ probe["w"] + probe["b"], axis=1) == labels))


class Run:
    """One training run, stepped by ``step()`` and ``end_epoch()``. Construction
    validates, takes the splits, builds the state, warms the queue (if an epoch
    is to run) and then starts the clock that each record's ``wall_clock`` reads."""

    def __init__(self, cfg: RunConfig, dataset: Dataset):
        cfg.validate()
        if dataset.image_shape != (cfg.height, cfg.width, cfg.channels):
            raise ConfigError(f"dataset shape {dataset.image_shape} does not match config "
                              f"({cfg.height}, {cfg.width}, {cfg.channels})")
        self.unlabeled = dataset.split_images("unlabeled_train")
        self.labeled_x = _flatten(dataset.split_images("labeled_train"))
        self.labeled_y = dataset.split_labels("labeled_train")
        if self.unlabeled.shape[0] < cfg.batch_size:
            raise ConfigError(f"unlabeled split smaller than batch_size = {cfg.batch_size}")
        self.cfg = cfg
        self.steps_per_epoch = self.unlabeled.shape[0] // cfg.batch_size
        self.state = init_train_state(cfg, total_steps=cfg.epochs * self.steps_per_epoch)
        self.records: list[MetricsRecord] = []
        self.epoch = 0
        # the predictor is updated after every "iteration", once an "epoch", or never
        self.update = cfg.alternation if self.state.theta_d is not None else None
        if cfg.epochs:
            warm_up_queue(self.state, cfg, self.unlabeled)
        self._t0 = time.monotonic()

    def _labeled(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        """Labeled draw ``key``: up to batch_size distinct rows and their labels."""
        n = self.labeled_y.size
        idx = make_rng(self.cfg.seed, STREAM_LABELED, key).choice(
            n, size=min(self.cfg.batch_size, n), replace=False)
        return self.labeled_x[idx], self.labeled_y[idx]

    def step(self) -> None:
        """One iteration on the epoch's next batch; appends its record."""
        cfg, state = self.cfg, self.state
        it = state.step - self.epoch * self.steps_per_epoch
        if it == 0:
            self._perm = make_rng(cfg.seed, STREAM_EPOCH_PERM, self.epoch).permutation(
                self.unlabeled.shape[0])
            # never written in place: each sgd_step makes a new set
            self._epoch_start_theta = state.theta_e if self.update == "epoch" else None
        idx = self._perm[it * cfg.batch_size:(it + 1) * cfg.batch_size]
        # steps draw labeled keys 1 .. epochs * steps_per_epoch: the count encoder_step reaches
        info = encoder_step(state, cfg, self.unlabeled[idx], self._labeled(state.step + 1))
        ce = probe_step(state, info.after.labeled_features, info.batch.y)
        coefficient = None
        if self.update == "iteration":
            pmnn_step(state, info)
            coefficient = deviation_gap_coefficient(info.before.k_pooled)
        self.records.append(MetricsRecord(
            record_type="iteration", epoch=self.epoch, step=state.step,
            l_contrast=info.before.lc, l_consist=info.before.lcons,
            l_u=info.before.lu, ce=ce,
            k_by_length={str(k): v for k, v in info.before.k_by_length.items()},
            coefficient=coefficient, guard_count=state.guard_count,
            probe_acc=None, dacl=None, wall_clock=time.monotonic() - self._t0))
        # only the epoch-level predictor update reads a step's views later
        self._last_batch = info.batch if self.update == "epoch" else None

    def end_epoch(self) -> None:
        """The epoch's predictor update, monotonicity check, probe accuracy, DACL and record."""
        cfg, state, epoch = self.cfg, self.state, self.epoch
        if self.update == "epoch":
            # the epoch's (theta, theta') pair on the last batch: theta_d has not moved since
            x_labeled, y = self._labeled(cfg.epochs * self.steps_per_epoch + 1 + epoch)
            last = self._last_batch
            batch = dataclasses.replace(
                last, x=np.concatenate([last.x[:last.starts()[2]], x_labeled]), y=y)
            before, _ = unsup_eval(state.enc_cfg, self._epoch_start_theta, batch, state.queue,
                                   cfg, want_grad=False)
            after, _ = unsup_eval(state.enc_cfg, state.theta_e, batch, state.queue, cfg,
                                  want_grad=False)
            pmnn_step(state, StepInfo(batch=batch, before=before, after=after))

        if state.theta_d is not None:
            _check_monotonic(state.theta_d, make_rng(cfg.seed, STREAM_DACL, epoch, 1))

        acc = probe_accuracy(state.enc_cfg, state.theta_e, state.probe, self.labeled_x,
                             self.labeled_y)
        dacl_val = dacl(state.enc_cfg, state.theta_e, state.predict,
                        *_dacl_probe_set(cfg, self.unlabeled, epoch))
        # a loss averages over the epoch's steps, k_l over the steps that drew length l
        rows = self.records[-self.steps_per_epoch:]
        lengths = sorted({k for r in rows for k in r.k_by_length})
        self.records.append(MetricsRecord(
            record_type="epoch", epoch=epoch, step=state.step,
            **{f: float(np.mean([getattr(r, f) for r in rows]))
               for f in ("l_contrast", "l_consist", "l_u", "ce")},
            k_by_length={k: float(np.mean([r.k_by_length[k] for r in rows
                                           if k in r.k_by_length])) for k in lengths},
            coefficient=None, guard_count=state.guard_count,
            probe_acc=acc, dacl=dacl_val, wall_clock=time.monotonic() - self._t0))
        self.epoch += 1


def train(cfg: RunConfig, dataset: Dataset) -> tuple[TrainState, list[MetricsRecord]]:
    """A whole ``Run``, its steps and epoch ends in order; returns its state and records."""
    run = Run(cfg, dataset)
    for _ in range(cfg.epochs):
        for _ in range(run.steps_per_epoch):
            run.step()
        run.end_epoch()
    return run.state, run.records
