"""Command-line entry point.

Exit codes: 0 success, 1 bad input (a ``ConfigError``: a bad config value or
flag, an unreadable config, IDX or checkpoint path, or a file that does not
fit the config), 2 any other error, a failed write or a fault inside a run
among them. A command that takes a config writes ``resolved.cfg`` after its
other outputs, so it appears only next to the outputs of a run that succeeded,
whose exact settings it replays.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bilevel, gradsuite, harness
from ._util import ConfigError, atomic_write_text
from .augment import (BasicTransform, TransformId, apply_basic, apply_composite,
                      sample_composite)
from .config import RunConfig, apply_overrides, load_config, resolved_text
from .data import synth_dataset, write_idx
from .encoder import load_checkpoint, save_checkpoint
from .numcore import ParamSet, make_rng

GRAD_CHECK_TOL = 1e-5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--epochs", type=int, help="training epochs override")
    parser.add_argument("--lengths", help="comma-separated composite lengths")
    parser.add_argument("--variant", choices=("abs", "softplus"),
                        help="consistency loss variant")
    parser.add_argument("--labeled-frac", type=float, dest="labeled_frac")
    parser.add_argument("--queue", type=int, dest="queue_capacity",
                        help="negative queue capacity")
    parser.add_argument("--tau", type=float, help="contrastive temperature")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    keys = ("seed", "epochs", "lengths", "variant", "labeled_frac", "queue_capacity", "tau")
    overrides = {key: str(getattr(args, key)) for key in keys if getattr(args, key) is not None}
    if args.out:
        overrides["out_dir"] = args.out
    cfg = apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def _configured(command):
    """``command(cfg, args)`` run on the resolved config. It returns the text
    to print; ``resolved.cfg`` is written after every other output, so it is
    never left next to a run that failed."""
    def run(args) -> int:
        cfg = _resolve_config(args)
        report = command(cfg, args)
        atomic_write_text(os.path.join(cfg.out_dir, "resolved.cfg"), resolved_text(cfg))
        print(report)
        return 0
    return run


def cmd_pretrain(cfg: RunConfig, args) -> str:
    state, records = bilevel.train(cfg, harness.build_dataset(cfg))
    harness.write_metrics_jsonl(os.path.join(cfg.out_dir, "metrics.jsonl"), records)
    harness.write_summary_csv(os.path.join(cfg.out_dir, "summary.csv"), state, records)
    segments = {f"encoder.{k}": v for k, v in state.theta_e.items()}
    segments.update({f"momentum.{k}": v for k, v in state.theta_k.items()})
    if state.theta_d is not None:
        segments.update({f"pmnn.{k}": v for k, v in state.theta_d.items()})
    segments.update({f"probe.{k}": v for k, v in state.probe.items()})
    save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.ccor"), ParamSet(segments))
    epoch_records = [r for r in records if r.record_type == "epoch"]
    if epoch_records:
        return (f"pretrain done: {state.step} steps, "
                f"final probe acc {epoch_records[-1].probe_acc:.4f}")
    return "pretrain done: 0 steps"


def cmd_eval_linear(cfg: RunConfig, args) -> str:
    container = load_checkpoint(args.checkpoint)
    enc = {name[len("encoder."):]: container[name]
           for name in container.names() if name.startswith("encoder.")}
    if not enc:
        raise ConfigError(f"{args.checkpoint} has no encoder segments")
    enc_cfg = bilevel.encoder_config(cfg)
    _check_encoder_layout(args.checkpoint, enc_cfg, enc)
    acc = harness.linear_eval(enc_cfg, ParamSet(enc), harness.build_dataset(cfg), cfg,
                              seed=cfg.seed)
    return f"linear eval top-1 accuracy: {acc:.4f}"


def _check_encoder_layout(path: str, enc_cfg, segments: dict) -> None:
    """Raise ConfigError naming the first checkpoint encoder segment that is
    missing, misshapen or extra for the configured encoder."""
    expected = enc_cfg.segment_shapes()
    for name, shape in expected.items():
        if name not in segments:
            raise ConfigError(f"{path}: no segment 'encoder.{name}', which the configured "
                              f"encoder needs with shape {shape}")
        if segments[name].shape != shape:
            raise ConfigError(f"{path}: segment 'encoder.{name}' has shape "
                              f"{segments[name].shape}, the configured encoder needs {shape}")
    for name in segments:
        if name not in expected:
            raise ConfigError(f"{path}: segment 'encoder.{name}' is not part of the "
                              f"configured encoder")


def cmd_ablate_pmnn(cfg: RunConfig, args) -> str:
    seeds = args.seeds.split(",")
    if not all(s.strip().isdecimal() for s in seeds):
        raise ConfigError(f"--seeds must be comma-separated integers >= 0, got {args.seeds!r}")
    if args.pilot_epochs < 0:
        raise ConfigError(f"--pilot-epochs must be >= 0, got {args.pilot_epochs}")
    report = harness.ablate_pmnn(cfg, tuple(map(int, seeds)), pilot_epochs=args.pilot_epochs)
    harness.write_report_json(os.path.join(cfg.out_dir, "ablation.json"), report)
    harness.write_report_csv(os.path.join(cfg.out_dir, "ablation.csv"), report)
    return (f"tuned constant deviation: {report['tuned_constant_deviation']}\n"
            f"mean accuracy without predictor: {report['mean_without']:.4f}\n"
            f"mean accuracy with predictor:    {report['mean_with']:.4f}")


def cmd_grad_check(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    results = gradsuite.run_gradient_suite(seed=args.seed)
    failed = False
    for name, err in results.items():
        ok = err < GRAD_CHECK_TOL  # False for NaN
        print(f"{name:32s} max rel err {err:.3e}  [{'ok' if ok else 'FAIL'}]")
        failed = failed or not ok
    return 2 if failed else 0


def cmd_augment_preview(cfg: RunConfig, args) -> str:
    if args.length < 1:
        raise ConfigError(f"--length {args.length}: composite length must be >= 1")
    if not 0.0 <= args.magnitude <= 1.0:
        raise ConfigError(f"--magnitude {args.magnitude} outside [0, 1]")
    comp = sample_composite(args.length, args.magnitude, make_rng(cfg.seed, 778))
    dataset = synth_dataset(cfg.classes, 1, cfg.height, cfg.width, cfg.noise,
                            make_rng(cfg.seed, 777), channels=cfg.channels)
    img = dataset.images[args.sample % dataset.images.shape[0]][None]
    rasters = {"before": img[0], "after_composite": apply_composite([comp], img)[0]}
    for tid in TransformId:
        rasters[f"after_{tid.name.lower()}"] = apply_basic(
            BasicTransform(tid, args.magnitude, 1), img)[0]
    ext = "pgm" if cfg.channels == 1 else "ppm"
    for name, raster in rasters.items():
        harness.write_raster(os.path.join(cfg.out_dir, f"{name}.{ext}"), raster)
    return f"wrote previews for {len(TransformId)} transforms to {cfg.out_dir}"


def cmd_make_data(cfg: RunConfig, args) -> str:
    if cfg.channels != 1:
        raise ConfigError("IDX export supports channels = 1 only")
    if cfg.classes > 256:
        raise ConfigError(f"IDX labels must fit in a byte, so classes <= 256, got {cfg.classes}")
    dataset = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                            cfg.noise, make_rng(cfg.seed, 100), channels=1,
                            labeled_frac=cfg.labeled_frac)
    images_path = os.path.join(cfg.out_dir, "images.idx")
    labels_path = os.path.join(cfg.out_dir, "labels.idx")
    write_idx(images_path, labels_path, dataset.images, dataset.labels)
    return f"wrote {dataset.images.shape[0]} images to {images_path}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocor",
        description="Contrastive pretraining with augmentation-consistency "
                    "constraints and a learned monotonic deviation predictor.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run the alternating training loop")
    _add_common(p)
    p.set_defaults(func=_configured(cmd_pretrain))

    p = sub.add_parser("eval-linear", help="linear probe of a frozen checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_configured(cmd_eval_linear))

    p = sub.add_parser("ablate-pmnn", help="paired with/without-predictor study")
    _add_common(p)
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="comma-separated seeds (>= 5)")
    p.add_argument("--pilot-epochs", type=int, default=5, dest="pilot_epochs")
    p.set_defaults(func=_configured(cmd_ablate_pmnn))

    p = sub.add_parser("grad-check", help="finite-difference check of every loss")
    p.add_argument("--seed", type=int, default=None,
                   help="override the vetted per-check instance seeds")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("augment-preview",
                       help="write before/after rasters for the transform pool")
    _add_common(p)
    p.add_argument("--magnitude", type=float, default=0.7)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--sample", type=int, default=0)
    p.set_defaults(func=_configured(cmd_augment_preview))

    p = sub.add_parser("make-data", help="export a synthetic dataset as IDX files")
    _add_common(p)
    p.set_defaults(func=_configured(cmd_make_data))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; map to the validation code
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
