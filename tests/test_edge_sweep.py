"""Edge sweep through the ``cocor`` command, in-process: small configs at the
edges of what validation accepts, and a fixed, seeded set of byte mutants of
a checkpoint and of an IDX pair. Every case exits 0, or exits 1 (a bad input)
and leaves no output directory; no case may exit 2, the code of a fault
inside a valid run."""

import numpy as np
import pytest

from cocor.bilevel import encoder_config
from cocor.cli import main
from cocor.config import parse_config_text
from cocor.data import synth_dataset, write_idx
from cocor.encoder import init_encoder_params, save_checkpoint
from cocor.numcore import ParamSet, make_rng

BASE_CFG = ("classes = 3\nper_class = 8\nheight = 4\nwidth = 4\nnoise = 0.1\nhidden = 6\n"
            "proj_hidden = 4\nembed_dim = 3\npmnn_hidden = 4\nqueue_capacity = 8\n"
            "batch_size = 4\nepochs = 2\neval_epochs = 3\n")

# lines appended to BASE_CFG (a later line wins): every size key at its
# smallest valid value, float keys at their validation bounds (learning
# rates only at the small end: a non-finite update is a fault of the run),
# both variants, both alternations, the predictor on and off, three channels
CONFIG_EDGES = {
    "classes-2": "classes = 2",
    "per_class-1": "per_class = 1",
    "height-2": "height = 2",
    "width-2": "width = 2",
    "channels-3": "channels = 3",
    "hidden-1": "hidden = 1",
    "hidden-1,1,1": "hidden = 1,1,1",
    "proj_hidden-1": "proj_hidden = 1",
    "embed_dim-1": "embed_dim = 1",
    "pmnn_hidden-1": "pmnn_hidden = 1",
    "queue_capacity-1": "queue_capacity = 1",
    "batch_size-1": "batch_size = 1",
    "epochs-0": "epochs = 0",
    "epochs-1": "epochs = 1",
    "eval_epochs-1": "eval_epochs = 1",
    "eval_batch-1": "eval_batch = 1",
    "lengths-8": "lengths = 8",
    "lengths-1..8": "lengths = 1,2,3,4,5,6,7,8",
    "noise-0": "noise = 0.0",
    "labeled_frac-1": "labeled_frac = 1.0",
    "labeled_frac-1e-9": "labeled_frac = 1e-9",
    "magnitude-1": "magnitude = 1.0",
    "magnitude-1e-9": "magnitude = 1e-9",
    "tau-1e-3": "tau = 1e-3",
    "tau-1e3": "tau = 1e3",
    "momentum_coef-0": "momentum_coef = 0.0",
    "momentum_coef-1": "momentum_coef = 1.0",
    "sgd_momentum-0": "sgd_momentum = 0.0",
    "sgd_momentum-0.999": "sgd_momentum = 0.999",
    "weight_decay-0": "weight_decay = 0.0",
    "learning-rates-1e-12": ("eta_e = 1e-12\neta_d = 1e-12\nprobe_lr = 1e-12\n"
                             "eval_lr = 1e-12"),
    "variant-abs": "variant = abs",
    "alternation-epoch": "alternation = epoch",
    "epoch-abs": "alternation = epoch\nvariant = abs",
    "use_pmnn-false-deviation--1": "use_pmnn = false\nconst_deviation = -1.0",
    "use_pmnn-false-deviation-1": "use_pmnn = false\nconst_deviation = 1.0",
    "use_pmnn-false-epoch": "use_pmnn = false\nalternation = epoch",
    "smallest-everything": ("classes = 2\nheight = 2\nwidth = 2\nhidden = 1\nproj_hidden = 1\n"
                            "embed_dim = 1\npmnn_hidden = 1\nqueue_capacity = 1\n"
                            "batch_size = 1\nepochs = 1\neval_epochs = 1\neval_batch = 1"),
}

MUTATIONS = ("flip", "truncate", "overwrite", "append")
# mutants of each kind per file: a checkpoint through eval-linear, and either
# file of an IDX pair through pretrain
MUTANTS_PER_KIND = {"checkpoint": 10, "idx-images": 5, "idx-labels": 5}
MUTANT_STREAM = 4242


def mutate(raw: bytes, target: str, kind: str, i: int) -> bytes:
    """Mutant ``i`` of ``raw``: even ones strike the first 24 bytes, where the
    headers lie, odd ones anywhere."""
    rng = make_rng(MUTANT_STREAM, list(MUTANTS_PER_KIND).index(target),
                   MUTATIONS.index(kind), i)
    pos = int(rng.integers(0, min(len(raw), 24) if i % 2 == 0 else len(raw)))
    if kind == "flip":
        return raw[:pos] + bytes([raw[pos] ^ (1 << int(rng.integers(0, 8)))]) + raw[pos + 1:]
    if kind == "truncate":
        return raw[:pos]
    extra = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    if kind == "overwrite":
        return raw[:pos] + extra + raw[pos + len(extra):]
    return raw + extra


def run_case(argv: list[str], out) -> int:
    code = main(argv + ["--out", str(out)])
    assert code in (0, 1), f"{argv} exited {code}"
    if code == 1:
        assert not out.exists(), f"{argv} exited 1 but left {out}"
    return code


CASES = ([("config", name, 0) for name in CONFIG_EDGES]
         + [(target, kind, i) for target, count in MUTANTS_PER_KIND.items()
            for kind in MUTATIONS for i in range(count)])


@pytest.mark.parametrize("target, case, i", CASES,
                         ids=[f"{t}-{c}" if t == "config" else f"{t}-{c}-{i}"
                              for t, c, i in CASES])
def test_edge_case_exits_zero_or_one_without_output(tmp_path, capsys, target, case, i):
    cfg_path = tmp_path / "run.cfg"
    if target == "config":
        cfg_path.write_text(BASE_CFG + CONFIG_EDGES[case] + "\n")
        run = tmp_path / "run"
        if run_case(["pretrain", "--config", str(cfg_path)], run) == 0:
            run_case(["eval-linear", "--config", str(cfg_path),
                      "--checkpoint", str(run / "checkpoint.ccor")], tmp_path / "eval")
    elif target == "checkpoint":
        cfg_path.write_text(BASE_CFG)
        enc = init_encoder_params(encoder_config(parse_config_text(BASE_CFG)), make_rng(0))
        ckpt = tmp_path / "enc.ccor"
        save_checkpoint(str(ckpt), ParamSet({f"encoder.{k}": v for k, v in enc.items()}))
        ckpt.write_bytes(mutate(ckpt.read_bytes(), target, case, i))
        run_case(["eval-linear", "--config", str(cfg_path), "--checkpoint", str(ckpt)],
                 tmp_path / "eval")
    else:
        ds = synth_dataset(3, 8, 4, 4, 0.1, make_rng(0, 100))
        paths = {name: tmp_path / f"{name}.idx" for name in ("images", "labels")}
        write_idx(str(paths["images"]), str(paths["labels"]), ds.images, ds.labels)
        victim = paths[target[len("idx-"):]]
        victim.write_bytes(mutate(victim.read_bytes(), target, case, i))
        cfg_path.write_text(BASE_CFG + f"dataset = idx\nidx_images = {paths['images']}\n"
                                       f"idx_labels = {paths['labels']}\n")
        run_case(["pretrain", "--config", str(cfg_path)], tmp_path / "run")
    assert "runtime error" not in capsys.readouterr().err
