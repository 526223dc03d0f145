import hashlib
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from cocor import bilevel, data, gradsuite
from cocor.bilevel import encoder_config
from cocor.cli import main
from cocor.config import RunConfig, load_config, resolved_text
from cocor.data import load_idx
from cocor.encoder import init_encoder_params, save_checkpoint
from cocor.numcore import ParamSet, make_rng

TINY_CFG = """
# tiny smoke-test run
classes = 3
per_class = 16
height = 6
width = 6
noise = 0.1
hidden = 10,8
proj_hidden = 8
embed_dim = 4
pmnn_hidden = 8
queue_capacity = 8
batch_size = 4
epochs = 2
eval_epochs = 20
"""

# Criterion 8's config. The digests of its seed-11 outputs were recorded with
# per-segment parameter arrays, before parameter sets became one flat vector;
# they pin that the flat layout changed no bit (numpy 2.4, OpenBLAS, x86-64).
# Two metrics.jsonl digests were re-recorded when DACL became one batched
# forward, which moved some dacl values by one ulp; every checkpoint held.
DETERMINISM_CFG = (
    "classes = 4\nper_class = 24\nheight = 8\nwidth = 8\nnoise = 0.15\n"
    "hidden = 32,16\nproj_hidden = 12\nembed_dim = 8\npmnn_hidden = 8\n"
    "queue_capacity = 16\nbatch_size = 8\nepochs = 3\neval_epochs = 10\n")
PINNED_DIGESTS = [
    ("", ("0ca4834d1789e52adb0748934007f39fd6fd6823cedfac9635fe1d3ddb3c7e51",
          "a4a6918f24a6cc3e1a1829dd5f877d42c5eddfd538df3f6e156084006b9218f4")),
    ("alternation = epoch\nvariant = abs\n",
     ("5ebc7797e3d7c0e126f81afc59cd2ffe03482d94295276af88097347aa19161f",
      "8cd030a5a221366a45f0797a77dd79da8ab154161cb5ff75372d233290f9c8bf")),
    ("use_pmnn = false\nconst_deviation = 0.7\n",
     ("d54a070b994fae31a973b6dd18e99ad5b9825f17db0a8308a49cf0a13f82206d",
      "828adb777a693ea7bb6d9fcf50bdc1862a20d6891a879003309e2e819349dacf")),
    ("hidden = 24,20,16\n",
     ("1417ad645a643efc327759f0da84ec3c83d013153a0157c55010cab13ba3ce83",
      "0d14827fac8fb67e5f38d2d7d598981159fb1d35aeddfdaaecfbd9d104acd63a")),
    # an empty metrics stream and the initial parameters
    ("epochs = 0\n",
     ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "c0473d6bf2482d629bcce924fa289d5bc2a6b0a6841991daf044536285a1ea55")),
]
# The same runs' summary.csv row without its wall_clock_s value, and the line
# pretrain prints.
SUMMARY_HEADER = ("epochs,steps,final_l_contrast,final_l_consist,final_l_u,final_ce,"
                  "final_probe_acc,final_dacl,guard_count,zero_norm_count,wall_clock_s")
PINNED_SUMMARIES = {
    "": ("3,24,2.7804245652180097,1.0472864816129124,3.8277110468309226,"
         "1.1125632051922691,0.625,0.6099186887146429,0,0",
         "pretrain done: 24 steps, final probe acc 0.6250"),
    "alternation = epoch\nvariant = abs\n":
        ("3,24,2.8111151711826503,0.6153264563353047,3.4264416275179546,"
         "1.2012314648894562,0.5,0.6105045140105341,0,0",
         "pretrain done: 24 steps, final probe acc 0.5000"),
    "use_pmnn = false\nconst_deviation = 0.7\n":
        ("3,24,2.773269665183328,0.8541741717055757,3.6274438368889035,"
         "1.1131826193597627,0.625,0.2990933006818417,0,0",
         "pretrain done: 24 steps, final probe acc 0.6250"),
    "hidden = 24,20,16\n":
        ("3,24,2.8092232897572442,1.0472066100109627,3.856429899768207,"
         "1.3055735499416685,0.5,0.6101084116482147,0,0",
         "pretrain done: 24 steps, final probe acc 0.5000"),
    "epochs = 0\n": ("0,0,,,,,,,0,0", "pretrain done: 0 steps"),
}

# `ablate-pmnn` on TINY_CFG with lengths 2, one epoch, 10 eval epochs, seeds 0-4
# and one pilot epoch (numpy 2.4, OpenBLAS, x86-64).
ABLATION_DIGESTS = [
    ("ablation.json", "6a608838cbb891ccc48a9a9bfb9f9956fd5d72ffff57a7d5d14fb0dd6dd327b7"),
    ("ablation.csv", "55fc277ad7a791b96d048af2b3630d22e74e240afa69f66856b2e471069ffdbc"),
]
# The same run on TINY_CFG's data written by make-data and read back as IDX.
IDX_ABLATION_DIGESTS = [
    ("ablation.json", "94d994c56958ace7888e96b374d200c660304905cbf0ddd7a8454e2d4d25c37c"),
    ("ablation.csv", "ad418fe1f71f4f6ffb02841a27efadd372c2374f4d73c08e7c3a43a64262668b"),
]


# ten_class_idx's pair holds 6x6 rasters; these keys ask for 8x8 ones
SMALLER_RASTERS = "classes = 10\nheight = 8\nwidth = 8\n"


def ten_class_idx(tmp_path) -> str:
    """Config lines that read a 10-class IDX pair written by make-data."""
    cfg = tmp_path / "ten.cfg"
    cfg.write_text(TINY_CFG + "classes = 10\n")
    assert main(["make-data", "--config", str(cfg), "--out", str(tmp_path / "ten")]) == 0
    return (f"dataset = idx\nidx_images = {tmp_path / 'ten' / 'images.idx'}\n"
            f"idx_labels = {tmp_path / 'ten' / 'labels.idx'}\n")


def checkpoint_flags(tmp_path, cfg_path) -> list[str]:
    """``--checkpoint`` for a fresh encoder that fits the config at ``cfg_path``."""
    enc = init_encoder_params(encoder_config(load_config(str(cfg_path))), make_rng(0))
    save_checkpoint(str(tmp_path / "fits.ccor"),
                    ParamSet({f"encoder.{k}": v for k, v in enc.items()}))
    return ["--checkpoint", str(tmp_path / "fits.ccor")]


# A config that reads no more than 4 unlabeled rasters, against batches of 64
SMALL_UNLABELED = "classes = 2\nper_class = 4\nbatch_size = 64\n"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CFG)
    return str(path)


class TestPretrain:
    def test_two_runs_produce_identical_artifacts(self, tiny_config, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["pretrain", "--config", tiny_config, "--seed", "7",
                     "--out", out1]) == 0
        assert main(["pretrain", "--config", tiny_config, "--seed", "7",
                     "--out", out2]) == 0
        for name in ("metrics.jsonl", "checkpoint.ccor"):
            a = Path(os.path.join(out1, name)).read_bytes()
            b = Path(os.path.join(out2, name)).read_bytes()
            assert a == b, name

    def test_zero_norm_keys_do_not_end_the_run(self, tmp_path):
        # proj_hidden = 1: where the head's one relu is off, the projection is
        # the last bias, which starts at zero
        cfg = tmp_path / "dead.cfg"
        cfg.write_text("classes = 3\nper_class = 8\nheight = 4\nwidth = 4\nhidden = 8\n"
                       "proj_hidden = 1\nembed_dim = 4\nqueue_capacity = 8\n"
                       "batch_size = 4\nepochs = 2\neval_epochs = 5\n")
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        header, values = (out / "summary.csv").read_text().splitlines()
        assert int(dict(zip(header.split(","), values.split(",")))["zero_norm_count"]) > 0

    @pytest.mark.parametrize("extra, digests", PINNED_DIGESTS)
    def test_outputs_match_pinned_digests(self, tmp_path, capsys, extra, digests):
        cfg = tmp_path / "det.cfg"
        cfg.write_text(DETERMINISM_CFG + extra)
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
        for name, digest in zip(("metrics.jsonl", "checkpoint.ccor"), digests):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        row, printed = PINNED_SUMMARIES[extra]
        header, values = (out / "summary.csv").read_text().splitlines()
        assert header == SUMMARY_HEADER
        assert values.rsplit(",", 1)[0] == row
        assert capsys.readouterr().out == printed + "\n"

    def test_resolved_config_round_trips(self, tiny_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["pretrain", "--config", tiny_config, "--seed", "3",
                     "--out", out, "--epochs", "1"]) == 0
        echoed = load_config(os.path.join(out, "resolved.cfg"))
        assert echoed.seed == 3
        assert echoed.epochs == 1
        assert echoed.hidden == (10, 8)
        assert resolved_text(echoed) == Path(os.path.join(out, "resolved.cfg")).read_text()

    def test_missing_config_exits_one_with_path(self, tmp_path, capsys):
        code = main(["pretrain", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_directory_as_config_exits_one_with_path(self, tmp_path, capsys):
        code = main(["pretrain", "--config", str(tmp_path), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "runtime error" not in err
        assert not (tmp_path / "run").exists()

    def test_missing_idx_file_exits_one_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(TINY_CFG + f"dataset = idx\nidx_images = {tmp_path / 'gone.idx'}\n"
                       f"idx_labels = {tmp_path / 'labels.idx'}\n")
        code = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "gone.idx" in err and "runtime error" not in err
        assert not (tmp_path / "run").exists()  # a rejected input leaves no output

    def test_idx_with_more_classes_exits_one_naming_labels(self, tmp_path, capsys):
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(TINY_CFG + ten_class_idx(tmp_path))  # classes = 3
        code = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "ten" / "labels.idx") in err and "classes = 3" in err
        assert "runtime error" not in err
        assert not (tmp_path / "run").exists()

    def test_invalid_field_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tau = -1\n")
        assert main(["pretrain", "--config", str(bad)]) == 1
        assert "tau" in capsys.readouterr().err

    def test_negative_seed_exits_one_naming_seed(self, tiny_config, tmp_path, capsys):
        code = main(["pretrain", "--config", tiny_config, "--seed", "-1",
                     "--out", str(tmp_path / "neg")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tau_flag_exits_one_naming_tau(self, tiny_config, tmp_path,
                                                      capsys, value):
        code = main(["pretrain", "--config", tiny_config, "--tau", value,
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "tau" in err and "runtime error" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["eta_e", "eta_d", "probe_lr", "eval_lr", "magnitude",
                                     "noise", "weight_decay", "const_deviation"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_in_file_exits_one_naming_key(self, tmp_path, capsys,
                                                           key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG + f"{key} = {value}\n")
        assert main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["pretrain", "--config", str(bad)]) == 1
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, flags, key", [
        ("dataset = mnist\n", [], "dataset"),
        ("dataset = idx\n", [], "idx_images"),
        ("classes = 1\n", [], "classes"),
        ("per_class = 0\n", [], "per_class"),
        ("height = 1\n", [], "height"),
        ("width = 1\n", [], "width"),
        ("channels = 2\n", [], "channels"),
        ("noise = -0.1\n", [], "noise"),
        ("labeled_frac = 0\n", [], "labeled_frac"),
        ("hidden = 10,0\n", [], "hidden"),
        ("batch_size = 0\n", [], "batch_size"),
        ("", ["--epochs", "-1"], "epochs"),
        ("", ["--queue", "0"], "queue_capacity"),
        ("eta_e = 0\n", [], "eta_e"),
        ("magnitude = 1.5\n", [], "magnitude"),
        ("momentum_coef = 1.5\n", [], "momentum_coef"),
        ("sgd_momentum = 1\n", [], "sgd_momentum"),
        ("weight_decay = -1\n", [], "weight_decay"),
        ("variant = l2\n", [], "variant"),
        ("alternation = never\n", [], "alternation"),
        ("", ["--lengths", "9"], "lengths"),
        ("const_deviation = 2\n", [], "const_deviation"),
        ("seed = -3\n", [], "seed"),
        ("classes = many\n", [], "classes"),
        ("use_pmnn = maybe\n", [], "use_pmnn"),
        ("", ["--lengths", "1,two"], "lengths"),
        ("", ["--lengths", "2,2"], "lengths"),
        ("classes 3\n", [], "classes 3"),
        ("# r\u00e9glage\n", [], "bad.cfg: not UTF-8 text"),
    ], ids=["dataset", "idx-paths", "classes", "per_class", "height", "width", "channels",
            "noise", "labeled_frac", "hidden", "batch_size", "epochs", "queue", "eta_e",
            "magnitude", "momentum_coef", "sgd_momentum", "weight_decay", "variant",
            "alternation", "lengths", "const_deviation", "seed", "unparsable-int",
            "unparsable-bool", "unparsable-flag", "repeated-length", "missing-equals",
            "latin-1"])
    def test_rejected_config_exits_one_naming_key(self, tmp_path, capsys, extra, flags, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes((TINY_CFG + extra).encode("latin-1"))
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert key in err and "runtime error" not in err
        assert not out.exists()


class TestOtherCommands:
    def test_grad_check_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "max rel err" in out and "FAIL" not in out

    def test_grad_check_negative_seed_exits_one_naming_seed(self, capsys):
        assert main(["grad-check", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "-1" in err

    def test_grad_check_nan_error_exits_two(self, monkeypatch, capsys):
        monkeypatch.setitem(gradsuite._CHECKS, "cross_entropy_probe",
                            lambda seed: float("nan"))
        assert main(["grad-check"]) == 2
        assert "nan  [FAIL]" in capsys.readouterr().out

    def test_make_data_then_eval_pipeline(self, tiny_config, tmp_path):
        data_out = str(tmp_path / "data")
        assert main(["make-data", "--config", tiny_config, "--out", data_out]) == 0
        ds = load_idx(os.path.join(data_out, "images.idx"),
                      os.path.join(data_out, "labels.idx"))
        assert ds.images.shape == (48, 6, 6, 1)

        run_out = str(tmp_path / "run")
        assert main(["pretrain", "--config", tiny_config, "--seed", "1",
                     "--out", run_out, "--epochs", "1"]) == 0
        code = main(["eval-linear", "--config", tiny_config, "--seed", "1",
                     "--out", str(tmp_path / "eval"),
                     "--checkpoint", os.path.join(run_out, "checkpoint.ccor")])
        assert code == 0

    def test_ablate_pmnn_writes_reports(self, tmp_path):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(TINY_CFG + "lengths = 2\nepochs = 1\neval_epochs = 10\n")
        out = str(tmp_path / "ab")
        code = main(["ablate-pmnn", "--config", str(cfg), "--out", out,
                     "--seeds", "0,1,2,3,4", "--pilot-epochs", "1"])
        assert code == 0
        # recorded while every pilot, arm and seed built its own dataset
        for name, digest in ABLATION_DIGESTS:
            assert hashlib.sha256(Path(out, name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("extra, flags, reason", [
        ("lengths = 1\n", [], "length set"),
        ("lengths = 2\ndataset = idx\nidx_images = {tmp}/gone.idx\n"
         "idx_labels = {tmp}/labels.idx\n", [], "gone.idx"),
        ("lengths = 2\n", ["--seeds", "0,1"], "5 seeds"),
        ("lengths = 2\n{ten_classes}", [], "{tmp}/ten/labels.idx: labels run up to 9, "
         "but classes = 3"),
        ("lengths = 2\n{ten_classes}" + SMALLER_RASTERS, [], "{tmp}/ten/images.idx: rasters "
         "are (6, 6, 1), but (height, width, channels) = (8, 8, 1)"),
        ("lengths = 2\n" + SMALL_UNLABELED, [], "unlabeled split smaller than batch_size = 64"),
        ("lengths = 2\n", ["--seeds=-1,0,1,2,3"],
         "--seeds must be comma-separated integers >= 0, got '-1,0,1,2,3'"),
        ("lengths = 2\n", ["--seeds", "a,b,c,d,e"],
         "--seeds must be comma-separated integers >= 0, got 'a,b,c,d,e'"),
        ("lengths = 2\n", ["--pilot-epochs", "-1"], "--pilot-epochs must be >= 0, got -1"),
        ("lengths = 2\n", ["--seeds", "3,1,4,1,5"], "ablation seed 1 is repeated"),
    ], ids=["lengths", "missing-idx", "two-seeds", "more-classes", "smaller-rasters",
            "small-unlabeled", "negative-seed", "non-integer-seeds", "negative-pilot-epochs",
            "repeated-seeds"])
    def test_ablate_pmnn_rejected_input_leaves_no_output(self, tmp_path, capsys,
                                                         extra, flags, reason):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(TINY_CFG + extra.format(tmp=tmp_path,
                                               ten_classes=ten_class_idx(tmp_path)))
        reason = reason.format(tmp=tmp_path)
        out = tmp_path / "ab"
        assert main(["ablate-pmnn", "--config", str(cfg), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert reason in err and "runtime error" not in err
        assert not out.exists()

    def test_ablate_pmnn_reads_an_idx_pair_once(self, tiny_config, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        assert main(["make-data", "--config", tiny_config, "--out", str(data_dir)]) == 0
        pair = [str(data_dir / "images.idx"), str(data_dir / "labels.idx")]
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(TINY_CFG + "lengths = 2\nepochs = 1\neval_epochs = 10\ndataset = idx\n"
                       f"idx_images = {pair[0]}\nidx_labels = {pair[1]}\n")
        reads, images = [], []
        read_input, train = data.read_input, bilevel.train
        monkeypatch.setattr(data, "read_input", lambda path: reads.append(path) or read_input(path))
        monkeypatch.setattr(bilevel, "train", lambda c, ds: images.append(ds.images) or train(c, ds))
        out = tmp_path / "ab"
        assert main(["ablate-pmnn", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0,1,2,3,4", "--pilot-epochs", "1"]) == 0
        assert reads == pair
        assert len(images) == 17 and all(a is images[0] for a in images)
        # recorded while every seed read the pair again
        for name, digest in IDX_ABLATION_DIGESTS:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("command", ["pretrain", "eval-linear"])
    def test_idx_raster_size_mismatch_exits_one_naming_images(self, tmp_path, capsys,
                                                              command):
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(TINY_CFG + ten_class_idx(tmp_path) + SMALLER_RASTERS)
        flags = []
        if command == "eval-linear":  # a checkpoint that fits the 8x8 config
            enc = init_encoder_params(encoder_config(load_config(str(cfg))), make_rng(0))
            save_checkpoint(str(tmp_path / "eight.ccor"),
                            ParamSet({f"encoder.{k}": v for k, v in enc.items()}))
            flags = ["--checkpoint", str(tmp_path / "eight.ccor")]
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "ten" / "images.idx") in err and "height" in err
        assert "runtime error" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, flags, reason", [
        ("make-data", "classes = 300\n", [], "classes <= 256, got 300"),
        ("augment-preview", "", ["--magnitude", "2"], "magnitude 2.0 outside [0, 1]"),
        ("augment-preview", "", ["--length", "0"], "composite length must be >= 1"),
        ("pretrain", SMALL_UNLABELED, [], "unlabeled split smaller than batch_size = 64"),
        ("eval-linear", "classes = 2\nper_class = 2\n", [], "eval splits are empty"),
        ("make-data", "height = 1\n", [], "height and width must be >= 2, got 1, 6"),
        ("augment-preview", "width = 1\n", [], "height and width must be >= 2, got 6, 1"),
        ("make-data", "channels = 3\n", [], "IDX export supports channels = 1 only"),
    ], ids=["make-data-classes", "preview-magnitude", "preview-length", "small-unlabeled",
            "empty-eval-splits", "make-data-height", "preview-width", "make-data-channels"])
    def test_rejected_input_leaves_no_output(self, tmp_path, capsys, command, extra, flags,
                                             reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG + extra)
        if command == "eval-linear":
            flags = flags + checkpoint_flags(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert reason in err and "runtime error" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, target", [
        ("pretrain", "cocor.bilevel.train"),
        ("eval-linear", "cocor.harness.linear_eval"),
        ("ablate-pmnn", "cocor.harness.linear_eval"),
        ("augment-preview", "cocor.cli.apply_basic"),
        ("make-data", "cocor.harness.synth_dataset"),
    ])
    def test_runtime_fault_exits_two_and_leaves_no_output(self, tmp_path, capsys,
                                                         monkeypatch, command, target):
        # a ValueError below the input checks is a fault of the run, not a bad input
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG + "lengths = 2\n")
        flags = {"eval-linear": checkpoint_flags(tmp_path, cfg),
                 "ablate-pmnn": ["--pilot-epochs", "1"]}.get(command, [])

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(target, boom)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 2
        assert "runtime error: boom" in capsys.readouterr().err
        assert not out.exists()

    def test_augment_preview_writes_rasters(self, tiny_config, tmp_path):
        out = str(tmp_path / "prev")
        assert main(["augment-preview", "--config", tiny_config, "--out", out]) == 0
        files = os.listdir(out)
        assert "before.pgm" in files
        assert "after_identity.pgm" in files
        assert "after_composite.pgm" in files
        assert sum(1 for f in files if f.startswith("after_")) == 15
        # the composite drawn from seed 0 and one transform's raster, recorded
        # when composites were still wrapped in a class; pixel math only, no BLAS
        digests = {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
                   for name in ("after_composite.pgm", "after_rotate.pgm")}
        assert digests == {
            "after_composite.pgm":
                "fee23317b19eb55b975255bbfe01bff9c69b8e03bd54f5869fd5d82758b1a942",
            "after_rotate.pgm":
                "1d4bfa706450d9a6f552262c208aad2ae427c49a32c5db8b0db584d62294dec9"}

    def test_unknown_flag_is_validation_error(self):
        assert main(["pretrain", "--bogus-flag", "1"]) == 1

    def test_unknown_command_is_validation_error(self):
        assert main(["frobnicate"]) == 1

    def test_checkpoint_repeated_segment_exits_one(self, tiny_config, tmp_path, capsys):
        # two segments, both named encoder.bb0.w: the second must not win
        path = tmp_path / "dup.ccor"
        save_checkpoint(str(path), ParamSet({"encoder.bb0.w": np.ones((36, 10)),
                                             "encoder.bb0.v": np.ones(10)}))
        path.write_bytes(path.read_bytes().replace(b"bb0.v", b"bb0.w"))
        code = main(["eval-linear", "--config", tiny_config, "--out", str(tmp_path / "e"),
                     "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "dup.ccor" in err and "encoder.bb0.w" in err

    def test_checkpoint_name_not_utf8_exits_one(self, tiny_config, tmp_path, capsys):
        path = tmp_path / "bad.ccor"
        save_checkpoint(str(path), ParamSet({"encoder.bb0.w": np.ones((36, 10))}))
        path.write_bytes(path.read_bytes().replace(b"bb0", b"b\xff0"))
        code = main(["eval-linear", "--config", tiny_config, "--out", str(tmp_path / "e"),
                     "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.ccor: a segment name is not UTF-8" in err and "runtime error" not in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("hidden, segment", [("10,8,8", "encoder.bb2.w"),
                                                 ("10,6", "encoder.bb1.w")],
                             ids=["deeper", "narrower"])
    def test_checkpoint_layout_mismatch_exits_one(self, tiny_config, tmp_path, capsys,
                                                  hidden, segment):
        # a checkpoint of the tiny config's encoder, read under another layout
        enc = init_encoder_params(encoder_config(load_config(tiny_config)), make_rng(0))
        path = tmp_path / "tiny.ccor"
        save_checkpoint(str(path), ParamSet({f"encoder.{k}": v for k, v in enc.items()}))
        cfg = tmp_path / "other.cfg"
        cfg.write_text(TINY_CFG + f"hidden = {hidden}\n")
        code = main(["eval-linear", "--config", str(cfg), "--out", str(tmp_path / "e"),
                     "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{segment}'" in err and "tiny.ccor" in err and "runtime error" not in err
        assert not (tmp_path / "e").exists()  # a rejected checkpoint leaves no output

    @pytest.mark.parametrize("prefix, extra, version, reason", [
        ("momentum", {}, 1, "has no encoder segments"),
        ("encoder", {"encoder.bb9.w": np.ones((8, 8))}, 1,
         "segment 'encoder.bb9.w' is not part of the configured encoder"),
        ("encoder", {}, 2, "unsupported checkpoint version 2"),
        ("encoder", {"encoder.bb0.w": np.full((36, 10), np.nan)}, 1,
         "non-finite values in segment 'encoder.bb0.w'"),
    ], ids=["no-encoder", "extra-encoder", "version-2", "non-finite"])
    def test_rejected_checkpoint_exits_one_and_leaves_no_output(self, tiny_config, tmp_path,
                                                                capsys, prefix, extra,
                                                                version, reason):
        # the tiny config's encoder, saved under `prefix`, plus `extra`, as `version`
        enc = init_encoder_params(encoder_config(load_config(tiny_config)), make_rng(0))
        path = tmp_path / "bad.ccor"
        save_checkpoint(str(path), ParamSet({**{f"{prefix}.{k}": v for k, v in enc.items()},
                                             **extra}))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
        out = tmp_path / "e"
        code = main(["eval-linear", "--config", tiny_config, "--out", str(out),
                     "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and reason in err and "runtime error" not in err
        assert not out.exists()

    def test_directory_as_checkpoint_exits_one_with_path(self, tiny_config, tmp_path,
                                                         capsys):
        ckpt = tmp_path / "ckpt.d"
        ckpt.mkdir()
        code = main(["eval-linear", "--config", tiny_config, "--out", str(tmp_path / "e"),
                     "--checkpoint", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ckpt.d" in err and "runtime error" not in err
        assert not (tmp_path / "e").exists()

    def test_checkpoint_missing_exits_one(self, tiny_config, tmp_path, capsys):
        code = main(["eval-linear", "--config", tiny_config,
                     "--out", str(tmp_path / "e"),
                     "--checkpoint", str(tmp_path / "missing.ccor")])
        assert code == 1
        assert "missing.ccor" in capsys.readouterr().err


class TestConfigFormat:
    def test_overrides_win_over_file(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg.epochs == 2
        from cocor.config import apply_overrides
        cfg = apply_overrides(cfg, {"epochs": "9", "lengths": "1,2"})
        assert cfg.epochs == 9
        assert cfg.lengths == (1, 2)

    def test_unknown_override_is_rejected_naming_it(self):
        from cocor.config import ConfigError, apply_overrides
        with pytest.raises(ConfigError, match="unknown config key 'nonsense'"):
            apply_overrides(RunConfig(), {"nonsense": "1"})

    def test_resolved_text_parses_back_to_same_config(self):
        cfg = RunConfig(lengths=(1, 3), hidden=(32, 16), variant="abs", seed=11)
        from cocor.config import parse_config_text
        rebuilt = parse_config_text(resolved_text(cfg))
        assert rebuilt == cfg
