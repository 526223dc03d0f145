"""The benchmark's workloads: their configurations, one repetition of each,
and the correctness checks every repetition must pass.

An *op* is one training iteration (encoder_step + probe_step + pmnn_step) on
the training workloads and one pass of the seven ``gradsuite`` checks (what
``cocor grad-check`` runs) on ``gradcheck``.
Every call into cocor goes through a module attribute (``bilevel.train``,
``harness.build_dataset``, ``gradsuite._CHECKS[name]`` ...) so that the
tracer can wrap it; the untraced run calls the same attributes unwrapped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

from cocor import bilevel, cli, encoder, gradsuite, harness
from cocor.config import RunConfig
from cocor.numcore import ParamSet

# TREND_CONFIG of the acceptance suite (criteria 6 and 7).
TREND = RunConfig(classes=8, per_class=96, height=32, width=32, channels=1,
                  noise=0.2, queue_capacity=256, batch_size=64, epochs=20,
                  lengths=(1,))

# Overrides of TREND per training workload; see README.md for why each exists.
TRAINING = {
    # criterion 7's config, the ROADMAP's north-star workload: 160 steps
    "ablation": dict(lengths=(2,), eta_d=10.0),
    # encoder- and loss-heavy: 4x wider backbone, queue 4096; 56 steps per
    # repetition and at least two repetitions per run
    "wide": dict(hidden=(1024, 512), proj_hidden=256, embed_dim=128,
                 queue_capacity=4096, epochs=7),
}
WORKLOADS = (*TRAINING, "gradcheck")

# Criterion 8's tiny config: every training workload is smoke-run at this size.
SMOKE = dict(classes=4, per_class=24, height=8, width=8, noise=0.15,
             hidden=(32, 16), proj_hidden=12, embed_dim=8, pmnn_hidden=8,
             queue_capacity=16, batch_size=8, epochs=2, eval_epochs=10)

OUTPUT_FILES = ("metrics.jsonl", "checkpoint.ccor")


def training_config(workload: str, seed: int, smoke: bool = False) -> RunConfig:
    cfg = dataclasses.replace(TREND, seed=seed, **TRAINING[workload])
    return dataclasses.replace(cfg, **SMOKE) if smoke else cfg


def planned_ops(workload: str, seed: int) -> int:
    """Ops one repetition attempts; counts every op of a repetition that fails."""
    if workload == "gradcheck":
        return 1
    cfg = training_config(workload, seed)
    n = harness.build_dataset(cfg).split_images("unlabeled_train").shape[0]
    return cfg.epochs * (n // cfg.batch_size)


@dataclasses.dataclass
class Rep:
    """One repetition: a full pretrain + linear eval, or one gradient-suite pass."""

    op_s: list[float]           # wall seconds of each op
    timed_s: float              # ops plus epoch-level eval and output writes
    accuracy: float             # linear_eval top-1 (random-encoder baseline on gradcheck)
    shas: dict[str, str]        # output name -> sha256; equal across repetitions
    failure: str | None = None
    guard_count: int = 0


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def write_outputs(out_dir: str, state: bilevel.TrainState,
                  records: list[bilevel.MetricsRecord]) -> None:
    """The files ``cocor pretrain`` writes, byte for byte."""
    harness.write_metrics_jsonl(os.path.join(out_dir, "metrics.jsonl"), records)
    harness.write_summary_csv(os.path.join(out_dir, "summary.csv"), state, records)
    segments = {f"encoder.{k}": v for k, v in state.theta_e.items()}
    segments.update({f"momentum.{k}": v for k, v in state.theta_k.items()})
    if state.theta_d is not None:
        segments.update({f"pmnn.{k}": v for k, v in state.theta_d.items()})
    segments.update({f"probe.{k}": v for k, v in state.probe.items()})
    encoder.save_checkpoint(os.path.join(out_dir, "checkpoint.ccor"), ParamSet(segments))


def iteration_seconds(records: list[bilevel.MetricsRecord]) -> list[float]:
    """Per-iteration wall time from the ``wall_clock`` stamps ``train`` returns.

    Each iteration is measured from the record before it, so an epoch's
    evaluation (stamped by the epoch record) is not charged to the next step.
    """
    out, prev = [], 0.0
    for r in records:
        if r.record_type == "iteration":
            out.append(r.wall_clock - prev)
        prev = r.wall_clock
    return out


def check_training(cfg: RunConfig, n_unlabeled: int, records, accuracy: float,
                   out_dir: str, state: bilevel.TrainState, smoke: bool) -> str | None:
    """Return what is wrong with one training repetition's outputs, or None.
    A toy-size smoke run need not beat chance."""
    steps = n_unlabeled // cfg.batch_size
    iters = [r for r in records if r.record_type == "iteration"]
    epochs = [r for r in records if r.record_type == "epoch"]
    if len(iters) != cfg.epochs * steps or len(epochs) != cfg.epochs:
        return (f"expected {cfg.epochs * steps} iteration and {cfg.epochs} epoch records, "
                f"got {len(iters)} and {len(epochs)}")
    for r in records:
        values = [r.l_contrast, r.l_consist, r.l_u, r.ce, *r.k_by_length.values()]
        values += [v for v in (r.coefficient, r.probe_acc, r.dacl) if v is not None]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite value in the {r.record_type} record of step {r.step}"
    floor = 0.0 if smoke else 1.0 / cfg.classes
    if not floor < accuracy <= 1.0:
        return f"linear_eval accuracy {accuracy} is not in ({floor}, 1]"
    loaded = encoder.load_checkpoint(os.path.join(out_dir, "checkpoint.ccor"))
    if not all(np.array_equal(loaded[f"encoder.{k}"], v) for k, v in state.theta_e.items()):
        return "checkpoint.ccor does not load back to the trained encoder"
    return None


def train_rep(cfg: RunConfig, out_dir: str, smoke: bool = False) -> Rep:
    """``cocor pretrain`` then ``eval-linear`` in-process, as one repetition."""
    os.makedirs(out_dir, exist_ok=True)
    dataset = harness.build_dataset(cfg)
    state, records = bilevel.train(cfg, dataset)
    returned = time.monotonic()
    write_outputs(out_dir, state, records)
    written = time.monotonic()
    accuracy = harness.linear_eval(state.enc_cfg, state.theta_e, dataset, cfg, seed=cfg.seed)
    # train() stamps wall_clock from the end of its queue warm-up; the last
    # record is stamped as it returns.
    timed = written - (returned - records[-1].wall_clock)
    n_unlabeled = dataset.split_images("unlabeled_train").shape[0]
    return Rep(op_s=iteration_seconds(records), timed_s=timed, accuracy=accuracy,
               shas={name: _sha256(os.path.join(out_dir, name)) for name in OUTPUT_FILES},
               failure=check_training(cfg, n_unlabeled, records, accuracy, out_dir,
                                      state, smoke),
               guard_count=state.guard_count)


def check_order(seed: int, rep_index: int) -> list[str]:
    """The gradient checks in a seed-dependent order (their instances are the
    suite's vetted ones; the order cannot change their results)."""
    names = sorted(gradsuite._CHECKS)
    rng = np.random.default_rng([seed, rep_index])
    return [names[i] for i in rng.permutation(len(names))]


def gradcheck_rep(order: list[str], accuracy: float) -> Rep:
    """One op: a pass of the gradient suite with its vetted seeds, as in
    ``cocor grad-check``."""
    start = time.perf_counter()
    errors = {name: float(gradsuite._CHECKS[name](gradsuite.SUITE_SEEDS[name]))
              for name in order}
    timed = time.perf_counter() - start
    failure = None
    bad = {n: e for n, e in errors.items()
           if not (math.isfinite(e) and e < cli.GRAD_CHECK_TOL)}
    if bad:
        failure = f"gradient check error at or above {cli.GRAD_CHECK_TOL}: {bad}"
    digest = hashlib.sha256(json.dumps(errors, sort_keys=True).encode()).hexdigest()
    return Rep(op_s=[timed], timed_s=timed, accuracy=accuracy,
               shas={"grad-errors": digest}, failure=failure)


def random_encoder_accuracy() -> float:
    """linear_acc on gradcheck, which trains nothing: criterion 6's reference,
    the linear probe of the untrained TREND_CONFIG encoder at seed 0. It is
    fixed, because the random-encoder probe spreads too widely across seeds."""
    cfg = dataclasses.replace(TREND, seed=0)
    return harness.random_encoder_baseline(cfg, harness.build_dataset(cfg), seed=0)


class _FirstOp(Exception):
    pass


def first_op_time(workload: str, seed: int) -> float:
    """Set the workload up exactly as a repetition does and return the
    ``time.monotonic()`` at which its first op would start."""
    if workload == "gradcheck":
        return time.monotonic()
    cfg = training_config(workload, seed)
    original = bilevel.encoder_step

    def stop(*args, **kwargs):
        raise _FirstOp(time.monotonic())

    bilevel.encoder_step = stop
    try:
        bilevel.train(cfg, harness.build_dataset(cfg))
    except _FirstOp as reached:
        return reached.args[0]
    finally:
        bilevel.encoder_step = original
    raise RuntimeError("train() returned without reaching its first op")


def smoke(out_root: str) -> None:
    """Run every workload once at toy size; raise with the workload named."""
    for workload in WORKLOADS:
        try:
            if workload == "gradcheck":
                rep = gradcheck_rep(["cross_entropy_probe"], accuracy=1.0)
            else:
                cfg = training_config(workload, seed=0, smoke=True)
                rep = train_rep(cfg, os.path.join(out_root, f"smoke-{workload}"), smoke=True)
        except Exception as exc:  # noqa: BLE001 - reported with the workload's name
            raise RuntimeError(f"smoke run of workload {workload!r} raised "
                               f"{type(exc).__name__}: {exc}") from exc
        if rep.failure:
            raise RuntimeError(f"smoke run of workload {workload!r} failed: {rep.failure}")
