"""Evaluation protocols and experiment drivers: linear probing of frozen
encoders, the deviation-predictor ablation, metrics persistence, and raster
previews.

All file writes go through temp-file-plus-rename; re-running a command with
the same config and seed reproduces the metrics stream and checkpoints byte
for byte (wall-clock timings live only in the CSV summary, never in the
JSON-lines stream).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import bilevel
from ._util import ConfigError, atomic_write_bytes, atomic_write_text
from .config import RunConfig
from .data import Dataset, load_idx, resplit, synth_dataset
from .encoder import EncoderConfig, encode_features, init_encoder_params
from .numcore import ParamSet, SgdState, make_rng, sgd_step

STREAM_EVAL = 8


def build_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset == "synth":
        return synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                             cfg.noise, make_rng(cfg.seed, 100),
                             channels=cfg.channels, labeled_frac=cfg.labeled_frac)
    dataset = load_idx(cfg.idx_images, cfg.idx_labels, labeled_frac=cfg.labeled_frac,
                       seed=cfg.seed)
    if dataset.classes > cfg.classes:
        raise ConfigError(f"{cfg.idx_labels}: labels run up to {dataset.classes - 1}, "
                          f"but classes = {cfg.classes}")
    if dataset.image_shape != (cfg.height, cfg.width, cfg.channels):
        raise ConfigError(f"{cfg.idx_images}: rasters are {dataset.image_shape}, but (height, "
                          f"width, channels) = ({cfg.height}, {cfg.width}, {cfg.channels})")
    return dataset


# ---------------------------------------------------------------------------
# Linear evaluation


def linear_eval(enc_cfg: EncoderConfig, theta_e: ParamSet, dataset: Dataset,
                cfg: RunConfig, seed: int) -> float:
    """Train a fresh affine classifier on frozen backbone features of the
    eval-train split (fixed budget, cosine decay) and report top-1 accuracy
    on eval-test. The encoder is read-only throughout."""
    train_y = dataset.split_labels("eval_train")
    test_y = dataset.split_labels("eval_test")
    if train_y.size == 0 or test_y.size == 0:
        raise ConfigError(f"eval splits are empty ({len(dataset.images)} rasters in all)")
    train_x, test_x = (
        encode_features(enc_cfg, theta_e, images.reshape(images.shape[0], -1))[0]
        for images in map(dataset.split_images, ("eval_train", "eval_test")))

    classifier = ParamSet({"w": np.zeros((enc_cfg.feature_dim, dataset.classes)),
                           "b": np.zeros(dataset.classes)})
    n = train_x.shape[0]
    batch = min(cfg.eval_batch, n)
    steps_per_epoch = max(1, n // batch)
    opt = SgdState.init(classifier, cfg.eval_lr, momentum=0.9,
                        total_steps=cfg.eval_epochs * steps_per_epoch)
    for epoch in range(cfg.eval_epochs):
        perm = make_rng(seed, STREAM_EVAL, epoch).permutation(n)
        for it in range(steps_per_epoch):
            idx = perm[it * batch:(it + 1) * batch]
            _, grads = bilevel.head_ce(classifier, train_x[idx], train_y[idx])
            classifier = sgd_step(classifier, grads, opt)

    logits = test_x @ classifier["w"] + classifier["b"]
    return float(np.mean(np.argmax(logits, axis=1) == test_y))


def random_encoder_baseline(cfg: RunConfig, dataset: Dataset, seed: int) -> float:
    """Linear probe on a freshly initialized, untrained encoder."""
    enc_cfg = bilevel.encoder_config(cfg)
    theta = init_encoder_params(enc_cfg, make_rng(cfg.seed, bilevel.STREAM_INIT_ENCODER))
    return linear_eval(enc_cfg, theta, dataset, cfg, seed=seed)


# ---------------------------------------------------------------------------
# Deviation-predictor ablation


DEFAULT_DEVIATION_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _run_once(cfg: RunConfig, dataset: Dataset) -> float:
    state, _ = bilevel.train(cfg, dataset)
    return linear_eval(state.enc_cfg, state.theta_e, dataset, cfg, seed=cfg.seed)


def tune_constant_deviation(cfg: RunConfig, dataset: Dataset, grid,
                            pilot_epochs: int) -> tuple[float, dict[float, float]]:
    """Short pilot runs across the grid, all on ``dataset``; returns (best
    value, grid accuracies)."""
    results: dict[float, float] = {}
    for value in grid:
        pilot = dataclasses.replace(cfg, use_pmnn=False, const_deviation=value,
                                    epochs=pilot_epochs)
        results[value] = _run_once(pilot, dataset)
    best = max(results, key=lambda v: (results[v], -v))
    return best, results


def ablate_pmnn(cfg: RunConfig, seeds: tuple[int, ...], grid=DEFAULT_DEVIATION_GRID,
                pilot_epochs: int = 5) -> dict:
    """Paired comparison: fixed grid-tuned constant deviation versus the full
    learned-predictor bi-level run, matched per seed. The protocol is defined
    for two-transform composites and at least five seeds. A dataset depends
    on the seed and on nothing an arm or a pilot changes, so the pilots and
    seed ``cfg.seed``'s arms share one, and each other seed's is made for its
    two arms. An IDX pair is read once: every seed resplits the same image
    array."""
    if tuple(cfg.lengths) != (2,):
        raise ConfigError("the ablation protocol uses the length set {2}")
    if len(seeds) < 5:
        raise ConfigError("ablation report requires at least 5 seeds")
    dataset = build_dataset(cfg)
    best_const, grid_results = tune_constant_deviation(cfg, dataset, grid, pilot_epochs)

    rows = []
    for seed in seeds:
        seed_cfg = dataclasses.replace(cfg, seed=seed)
        if cfg.dataset == "idx":
            seed_data = resplit(dataset, cfg.labeled_frac, seed)
        else:
            seed_data = dataset if seed == cfg.seed else build_dataset(seed_cfg)
        acc_without = _run_once(dataclasses.replace(seed_cfg, use_pmnn=False,
                                                    const_deviation=best_const), seed_data)
        acc_with = _run_once(dataclasses.replace(seed_cfg, use_pmnn=True), seed_data)
        del seed_data
        rows.append({"seed": seed, "acc_without": acc_without, "acc_with": acc_with,
                     "difference": acc_with - acc_without})

    return {
        "lengths": list(cfg.lengths),
        "tuned_constant_deviation": best_const,
        "grid_accuracies": {str(k): v for k, v in grid_results.items()},
        "per_seed": rows,
        "mean_without": float(np.mean([r["acc_without"] for r in rows])),
        "mean_with": float(np.mean([r["acc_with"] for r in rows])),
        "mean_difference": float(np.mean([r["difference"] for r in rows])),
    }


# ---------------------------------------------------------------------------
# Metrics persistence


def record_to_json_line(record: bilevel.MetricsRecord) -> str:
    payload = dataclasses.asdict(record)
    payload.pop("wall_clock")  # timings are not part of the reproducible stream
    return json.dumps(payload, sort_keys=False, separators=(", ", ": "))


def write_metrics_jsonl(path: str, records: list[bilevel.MetricsRecord]) -> None:
    text = "".join(record_to_json_line(r) + "\n" for r in records)
    atomic_write_text(path, text)


SUMMARY_FIELDS = ("epochs", "steps", "final_l_contrast", "final_l_consist",
                  "final_l_u", "final_ce", "final_probe_acc", "final_dacl",
                  "guard_count", "zero_norm_count", "wall_clock_s")


def write_summary_csv(path: str, state: bilevel.TrainState,
                      records: list[bilevel.MetricsRecord]) -> None:
    """One-row run summary; the only place wall-clock time is persisted."""
    epoch_records = [r for r in records if r.record_type == "epoch"]
    last = epoch_records[-1] if epoch_records else None
    values = {
        "epochs": len(epoch_records),
        "steps": state.step,
        "final_l_contrast": last.l_contrast if last else "",
        "final_l_consist": last.l_consist if last else "",
        "final_l_u": last.l_u if last else "",
        "final_ce": last.ce if last else "",
        "final_probe_acc": last.probe_acc if last else "",
        "final_dacl": last.dacl if last else "",
        "guard_count": state.guard_count,
        "zero_norm_count": state.zero_norm_count,
        "wall_clock_s": records[-1].wall_clock if records else 0.0,
    }
    lines = [",".join(SUMMARY_FIELDS),
             ",".join(str(values[f]) for f in SUMMARY_FIELDS)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report_json(path: str, report: dict) -> None:
    atomic_write_text(path, json.dumps(report, indent=2) + "\n")


def write_report_csv(path: str, report: dict) -> None:
    lines = ["seed,acc_without,acc_with,difference"]
    for row in report["per_seed"]:
        lines.append(f"{row['seed']},{row['acc_without']},{row['acc_with']},"
                     f"{row['difference']}")
    lines.append(f"mean,{report['mean_without']},{report['mean_with']},"
                 f"{report['mean_difference']}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Raster previews (binary PPM P6 / PGM P5, maxval 255)


def write_raster(path: str, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError("raster must be (H, W, C) with C in {1, 3}")
    h, w, c = img.shape
    pixels = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())
