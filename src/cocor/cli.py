"""Command-line entry point.

Exit codes: 0 success, 1 validation error (bad config, unreadable config, IDX
or checkpoint path, bad flags), 2 runtime error (a failed write among them).
Every training/experiment run writes its resolved configuration next to its
outputs so the exact settings can be replayed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bilevel, harness
from ._util import atomic_write_text
from .augment import (BasicTransform, TransformId, apply_basic, apply_composite,
                      sample_composite)
from .config import ConfigError, RunConfig, apply_overrides, load_config, resolved_text
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
    overrides = {}
    for key in ("seed", "epochs", "lengths", "variant", "labeled_frac",
                "queue_capacity", "tau"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    cfg = apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def _echo_config(cfg: RunConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.out_dir, "resolved.cfg"), resolved_text(cfg))


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    dataset = harness.build_dataset(cfg)
    _echo_config(cfg)  # only once the inputs have been read
    state, records = bilevel.train(cfg, dataset)
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
        print(f"pretrain done: {state.step} steps, "
              f"final probe acc {epoch_records[-1].probe_acc:.4f}")
    else:
        print("pretrain done: 0 steps")
    return 0


def cmd_eval_linear(args) -> int:
    cfg = _resolve_config(args)
    container = load_checkpoint(args.checkpoint)
    enc = {name[len("encoder."):]: container[name]
           for name in container.names() if name.startswith("encoder.")}
    if not enc:
        raise ConfigError(f"{args.checkpoint} has no encoder segments")
    enc_cfg = bilevel.encoder_config(cfg)
    _check_encoder_layout(args.checkpoint, enc_cfg, enc)
    dataset = harness.build_dataset(cfg)
    _echo_config(cfg)  # only once the inputs are read and fit the config
    theta_e = ParamSet(enc)
    acc = harness.linear_eval(enc_cfg, theta_e, dataset, cfg, seed=cfg.seed)
    print(f"linear eval top-1 accuracy: {acc:.4f}")
    return 0


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


def cmd_ablate_pmnn(args) -> int:
    cfg = _resolve_config(args)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    dataset = harness.ablation_dataset(cfg, seeds)
    _echo_config(cfg)  # only once the inputs are read and fit the protocol
    report = harness.ablate_pmnn(cfg, dataset, seeds, pilot_epochs=args.pilot_epochs)
    harness.write_report_json(os.path.join(cfg.out_dir, "ablation.json"), report)
    harness.write_report_csv(os.path.join(cfg.out_dir, "ablation.csv"), report)
    print(f"tuned constant deviation: {report['tuned_constant_deviation']}")
    print(f"mean accuracy without predictor: {report['mean_without']:.4f}")
    print(f"mean accuracy with predictor:    {report['mean_with']:.4f}")
    return 0


def cmd_grad_check(args) -> int:
    from .gradsuite import run_gradient_suite

    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    results = run_gradient_suite(seed=args.seed)
    failed = False
    for name, err in results.items():
        ok = err < GRAD_CHECK_TOL  # False for NaN
        status = "ok" if ok else "FAIL"
        print(f"{name:32s} max rel err {err:.3e}  [{status}]")
        failed = failed or not ok
    return 2 if failed else 0


def cmd_augment_preview(args) -> int:
    cfg = _resolve_config(args)
    # drawn first: it checks --length and --magnitude before anything is written
    comp = sample_composite(args.length, args.magnitude, make_rng(cfg.seed, 778))
    _echo_config(cfg)
    rng = make_rng(cfg.seed, 777)
    dataset = synth_dataset(cfg.classes, 1, cfg.height, cfg.width, cfg.noise,
                            rng, channels=cfg.channels)
    img = dataset.images[args.sample % dataset.images.shape[0]]
    ext = "pgm" if cfg.channels == 1 else "ppm"
    harness.write_raster(os.path.join(cfg.out_dir, f"before.{ext}"), img)
    for tid in TransformId:
        t = BasicTransform(tid, args.magnitude, 1)
        out = apply_basic(t, img[None])[0]
        harness.write_raster(
            os.path.join(cfg.out_dir, f"after_{tid.name.lower()}.{ext}"), out)
    harness.write_raster(os.path.join(cfg.out_dir, f"after_composite.{ext}"),
                         apply_composite([comp], img[None])[0])
    print(f"wrote previews for {len(TransformId)} transforms to {cfg.out_dir}")
    return 0


def cmd_make_data(args) -> int:
    cfg = _resolve_config(args)
    if cfg.channels != 1:
        raise ConfigError("IDX export supports channels = 1 only")
    if cfg.classes > 256:
        raise ConfigError(f"IDX labels must fit in a byte, so classes <= 256, got {cfg.classes}")
    _echo_config(cfg)
    dataset = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                            cfg.noise, make_rng(cfg.seed, 100), channels=1,
                            labeled_frac=cfg.labeled_frac)
    images_path = os.path.join(cfg.out_dir, "images.idx")
    labels_path = os.path.join(cfg.out_dir, "labels.idx")
    write_idx(images_path, labels_path, dataset.images, dataset.labels)
    print(f"wrote {dataset.images.shape[0]} images to {images_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocor",
        description="Contrastive pretraining with augmentation-consistency "
                    "constraints and a learned monotonic deviation predictor.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run the alternating training loop")
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval-linear", help="linear probe of a frozen checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval_linear)

    p = sub.add_parser("ablate-pmnn", help="paired with/without-predictor study")
    _add_common(p)
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="comma-separated seeds (>= 5)")
    p.add_argument("--pilot-epochs", type=int, default=5, dest="pilot_epochs")
    p.set_defaults(func=cmd_ablate_pmnn)

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
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("make-data", help="export a synthetic dataset as IDX files")
    _add_common(p)
    p.set_defaults(func=cmd_make_data)

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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
