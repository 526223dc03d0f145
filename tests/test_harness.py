import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from cocor._util import atomic_write_bytes
from cocor.bilevel import MetricsRecord, init_train_state, train
from cocor.config import RunConfig
from cocor.data import (Dataset, load_idx, read_idx_images, read_idx_labels,
                        synth_dataset, weak_augment, write_idx)
from cocor.encoder import EncoderConfig
from cocor.harness import (linear_eval, random_encoder_baseline, record_to_json_line,
                           write_metrics_jsonl, write_raster, write_summary_csv)
from cocor.numcore import make_rng


class TestSynthDataset:
    def test_zero_noise_gives_identical_class_samples(self):
        ds = synth_dataset(3, 5, 8, 8, 0.0, make_rng(1, 100))
        for c in range(3):
            imgs = ds.images[ds.labels == c]
            for i in range(1, imgs.shape[0]):
                np.testing.assert_array_equal(imgs[i], imgs[0])

    def test_nearest_template_classifier_is_perfect_at_low_noise(self):
        from cocor.data import class_template

        ds = synth_dataset(4, 10, 12, 12, 0.05, make_rng(2, 100))
        templates = np.stack([class_template(c, 4, 12, 12, 1) for c in range(4)])
        flat_t = templates.reshape(4, -1)
        preds = []
        for img in ds.images:
            dists = np.linalg.norm(flat_t - img.reshape(1, -1), axis=1)
            preds.append(int(np.argmin(dists)))
        assert np.mean(np.array(preds) == ds.labels) == 1.0

    def test_fixed_seed_bit_identical(self):
        a = synth_dataset(3, 4, 8, 8, 0.1, make_rng(3, 100))
        b = synth_dataset(3, 4, 8, 8, 0.1, make_rng(3, 100))
        np.testing.assert_array_equal(a.images, b.images)
        for name in a.splits:
            np.testing.assert_array_equal(a.splits[name], b.splits[name])

    def test_splits_disjoint_and_cover_labels(self):
        ds = synth_dataset(5, 12, 8, 8, 0.1, make_rng(4, 100), labeled_frac=0.2)
        seen = set()
        for name, idx in ds.splits.items():
            assert len(set(idx.tolist()) & seen) == 0
            seen.update(idx.tolist())
        assert ds.splits["labeled_train"].size > 0
        assert ds.splits["eval_train"].size > 0 and ds.splits["eval_test"].size > 0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 4, 8, 8, 0.1, make_rng(5))
        with pytest.raises(ValueError):
            synth_dataset(2, 0, 8, 8, 0.1, make_rng(5))

    def test_values_in_range(self):
        ds = synth_dataset(4, 6, 8, 8, 0.5, make_rng(6, 100))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestDatasetInvariants:
    def test_overlapping_splits_rejected(self):
        imgs = np.zeros((4, 2, 2, 1))
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="overlap"):
            Dataset(images=imgs, labels=labels, classes=2,
                    splits={"labeled_train": np.array([0, 1]),
                            "eval_train": np.array([1, 2])})

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((2, 2, 2, 1)), labels=np.array([0, 5]), classes=2)


class TestIdx:
    def test_hand_crafted_single_image(self, tmp_path):
        path = tmp_path / "img.idx"
        pixels = bytes([0, 128, 255, 64])
        path.write_bytes(struct.pack(">IIII", 0x00000803, 1, 2, 2) + pixels)
        images = read_idx_images(str(path))
        np.testing.assert_allclose(images[0, :, :, 0],
                                   [[0.0, 128 / 255.0], [1.0, 64 / 255.0]], atol=1e-12)

    def test_round_trip_bitwise_quantized(self, tmp_path):
        ds = synth_dataset(3, 6, 7, 5, 0.2, make_rng(7, 100))
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(ip, lp, ds.images, ds.labels)
        loaded = load_idx(ip, lp)
        np.testing.assert_array_equal(
            np.round(ds.images * 255.0), np.round(loaded.images * 255.0))
        np.testing.assert_array_equal(ds.labels, loaded.labels)

    def test_wrong_magic_names_file(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(ValueError, match="bad.idx"):
            read_idx_images(str(path))

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(ValueError, match="payload"):
            read_idx_images(str(path))

    @pytest.mark.parametrize("read, header, size, message", [
        (read_idx_images, (0x00000803, 2, 2, 2), 5, "payload is 5 bytes, declared 2x2x2"),
        (read_idx_images, (0x00000803, 2), 0, "truncated header"),
        (read_idx_labels, (0x00000801, 3), 2, "payload is 2 bytes, declared 3"),
        (read_idx_labels, (0x00000803, 3), 3, "bad label magic 0x00000803"),
    ], ids=["image-payload", "image-header", "label-payload", "label-magic"])
    def test_both_readers_keep_their_messages(self, tmp_path, read, header, size, message):
        path = tmp_path / "f.idx"
        path.write_bytes(struct.pack(f">{len(header)}I", *header) + b"\x00" * size)
        with pytest.raises(ValueError, match=f"f.idx: {message}$"):
            read(str(path))

    @pytest.mark.parametrize("labels", [[0, 256], [0]], ids=["over-a-byte", "short"])
    def test_export_checks_labels_before_writing_either_file(self, tmp_path, labels):
        with pytest.raises(ValueError, match="labels"):
            write_idx(str(tmp_path / "i.idx"), str(tmp_path / "l.idx"),
                      np.zeros((2, 2, 2, 1)), np.array(labels))
        assert list(tmp_path.iterdir()) == []

    def test_count_mismatch_between_files(self, tmp_path):
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(ip, lp, np.zeros((3, 2, 2, 1)), np.array([0, 1, 0]))
        lp2 = str(tmp_path / "l2.idx")
        with open(lp2, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        with pytest.raises(ValueError, match="labels"):
            load_idx(ip, lp2)

    def test_three_channel_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_idx(str(tmp_path / "i.idx"), str(tmp_path / "l.idx"),
                      np.zeros((2, 2, 2, 3)), np.array([0, 1]))


class TestWeakAugment:
    def test_deterministic_given_seed(self):
        img = make_rng(8, 101).uniform(0, 1, size=(6, 6, 3))
        a = weak_augment(img[None], [make_rng(9, 1)])
        b = weak_augment(img[None], [make_rng(9, 1)])
        np.testing.assert_array_equal(a, b)

    def test_range_preserved(self):
        img = make_rng(10, 101).uniform(0, 1, size=(6, 6, 1))
        for s in range(20):
            out = weak_augment(img[None], [make_rng(11, s)])
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.shape == (1, *img.shape)

    def test_stacked_batches_equal_separate_calls(self):
        # one call over two batches draws each raster from its own generator
        imgs = make_rng(12, 101).uniform(0, 1, size=(3, 6, 6, 3))
        first = weak_augment(imgs, [make_rng(13, i) for i in range(3)])
        second = weak_augment(imgs, [make_rng(13, i) for i in range(3, 6)])
        both = weak_augment(np.concatenate((imgs, imgs)), [make_rng(13, i) for i in range(6)])
        assert both.tobytes() == np.concatenate((first, second)).tobytes()


SMALL = dict(classes=3, per_class=16, height=6, width=6, channels=1, noise=0.1,
             hidden=(10, 8), proj_hidden=8, embed_dim=4, pmnn_hidden=8,
             queue_capacity=8, batch_size=4, epochs=2, eval_epochs=30, seed=5)


class TestLinearEval:
    def test_chance_level_on_random_labels(self):
        # eval-test has 256 samples, so chance +/- 5 points is ~2 sigma
        cfg = RunConfig(classes=4, per_class=512, height=8, width=8, channels=1,
                        noise=0.1, hidden=(32, 16), proj_hidden=12, embed_dim=8,
                        queue_capacity=8, batch_size=8, epochs=1, eval_epochs=60,
                        seed=5)
        ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                           cfg.noise, make_rng(13, 100))
        shuffled = make_rng(13, 1).permutation(ds.labels)
        ds = Dataset(images=ds.images, labels=shuffled, classes=cfg.classes,
                     splits=ds.splits)
        enc_cfg = EncoderConfig(cfg.input_dim, cfg.hidden, cfg.proj_hidden, cfg.embed_dim)
        theta = init_train_state(cfg, 1).theta_e
        acc = linear_eval(enc_cfg, theta, ds, cfg, seed=0)
        assert abs(acc - 0.25) < 0.05

    def test_perfect_on_noise_free_data(self):
        cfg = RunConfig(**{**SMALL, "noise": 0.0})
        ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width, 0.0,
                           make_rng(14, 100))
        enc_cfg = EncoderConfig(cfg.input_dim, cfg.hidden, cfg.proj_hidden, cfg.embed_dim)
        theta = init_train_state(cfg, 1).theta_e
        assert linear_eval(enc_cfg, theta, ds, cfg, seed=0) == 1.0

    def test_deterministic_and_read_only(self):
        cfg = RunConfig(**SMALL)
        ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                           cfg.noise, make_rng(15, 100))
        enc_cfg = EncoderConfig(cfg.input_dim, cfg.hidden, cfg.proj_hidden, cfg.embed_dim)
        theta = init_train_state(cfg, 1).theta_e
        snapshot = theta.flat.copy()
        a1 = linear_eval(enc_cfg, theta, ds, cfg, seed=7)
        a2 = linear_eval(enc_cfg, theta, ds, cfg, seed=7)
        assert a1 == a2
        np.testing.assert_array_equal(theta.flat, snapshot)


class TestMetricsPersistence:
    def _record(self):
        return MetricsRecord(record_type="iteration", epoch=0, step=1,
                             l_contrast=1.25, l_consist=0.5, l_u=1.75, ce=1.1,
                             k_by_length={"1": -0.125}, coefficient=0.25,
                             guard_count=0, probe_acc=None, dacl=None,
                             wall_clock=12.5)

    def test_json_line_round_trips_losslessly(self):
        line = record_to_json_line(self._record())
        payload = json.loads(line)
        assert payload["l_contrast"] == 1.25
        assert payload["k_by_length"] == {"1": -0.125}
        assert payload["probe_acc"] is None
        assert "wall_clock" not in payload

    def test_jsonl_stream_deterministic(self, tmp_path):
        records = [self._record(), self._record()]
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_metrics_jsonl(p1, records)
        records[0].wall_clock = 99.0  # timing differences must not leak into bytes
        write_metrics_jsonl(p2, records)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_summary_csv_written(self, tmp_path):
        cfg = RunConfig(**SMALL, lengths=(1,))
        ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                           cfg.noise, make_rng(16, 100))
        state, records = train(cfg, ds)
        path = str(tmp_path / "summary.csv")
        write_summary_csv(path, state, records)
        lines = Path(path).read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("epochs,steps,")


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=lambda m: f"umask-{m:03o}")
    def test_mode_is_what_a_plain_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write_bytes(str(tmp_path / "atomic"), b"x")
            with open(tmp_path / "plain", "wb"):
                pass
        finally:
            os.umask(old)
        modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic", "plain")}
        assert modes == {0o666 & ~umask}

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_bytes(str(tmp_path / "out.bin"), b"x")
        assert list(tmp_path.iterdir()) == []


class TestRasterPreview:
    def test_pgm_header_and_payload(self, tmp_path):
        img = np.zeros((2, 3, 1))
        img[0, 0, 0] = 1.0
        path = str(tmp_path / "x.pgm")
        write_raster(path, img)
        data = Path(path).read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[11:] == bytes([255, 0, 0, 0, 0, 0])

    def test_ppm_header(self, tmp_path):
        path = str(tmp_path / "x.ppm")
        write_raster(path, np.zeros((4, 5, 3)))
        assert Path(path).read_bytes().startswith(b"P6\n5 4\n255\n")


def test_random_encoder_baseline_runs():
    cfg = RunConfig(**SMALL)
    ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                       cfg.noise, make_rng(17, 100))
    acc = random_encoder_baseline(cfg, ds, seed=1)
    assert 0.0 <= acc <= 1.0


class TestAblation:
    def test_requires_two_transform_composites(self):
        from cocor.harness import ablate_pmnn

        with pytest.raises(ValueError, match="length set"):
            ablate_pmnn(RunConfig(**SMALL, lengths=(1,)), (0, 1, 2, 3, 4))

    def test_requires_five_seeds(self):
        from cocor.harness import ablate_pmnn

        with pytest.raises(ValueError, match="seeds"):
            ablate_pmnn(RunConfig(**SMALL, lengths=(2,)), (0, 1))

    def test_builds_one_dataset_per_seed(self, monkeypatch):
        # the pilots and seed 2's arms run at cfg.seed 2 and share its dataset;
        # each other seed's two arms share one, dropped before the next is built
        import weakref

        from cocor import harness

        built, runs = {}, []
        build = harness.build_dataset

        def alive():
            return sum(ref() is not None for ref in built.values())

        def counted_build(cfg):
            assert cfg.seed not in built and alive() <= 1
            dataset = build(cfg)
            built[cfg.seed] = weakref.ref(dataset)
            return dataset

        def run_once(cfg, dataset):
            assert dataset is built[cfg.seed]() and alive() <= 2
            runs.append(cfg.seed)
            return 0.5

        monkeypatch.setattr(harness, "build_dataset", counted_build)
        monkeypatch.setattr(harness, "_run_once", run_once)
        # the larger value first, so neither grid order nor max's first pick hides the tie rule
        monkeypatch.setattr(harness, "DEVIATION_GRID", (0.7, 0.4))
        cfg = RunConfig(**{**SMALL, "seed": 2}, lengths=(2,))
        seeds = (0, 1, 2, 3, 4)
        report = harness.ablate_pmnn(cfg, seeds, pilot_epochs=1)
        assert list(built) == [2, 0, 1, 3, 4]
        assert runs == [2, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        # every pilot scores 0.5: equal accuracies go to the smallest deviation
        assert report["tuned_constant_deviation"] == 0.4

    def test_report_schema_and_trend_fields(self, tmp_path, monkeypatch):
        # smallest honest run: tiny data, 1-epoch mains, 1-epoch pilots
        from cocor import harness
        from cocor.harness import ablate_pmnn, write_report_csv, write_report_json

        monkeypatch.setattr(harness, "DEVIATION_GRID", (0.4, 0.7))
        cfg = RunConfig(**{**SMALL, "per_class": 24, "epochs": 1, "eval_epochs": 10},
                        lengths=(2,))
        seeds = (0, 1, 2, 3, 4)
        report = ablate_pmnn(cfg, seeds, pilot_epochs=1)
        assert len(report["per_seed"]) == 5
        for row in report["per_seed"]:
            assert set(row) == {"seed", "acc_without", "acc_with", "difference"}
            assert abs(row["difference"]
                       - (row["acc_with"] - row["acc_without"])) < 1e-12
        assert report["tuned_constant_deviation"] in (0.4, 0.7)
        assert set(report["grid_accuracies"]) == {"0.4", "0.7"}
        write_report_json(str(tmp_path / "r.json"), report)
        write_report_csv(str(tmp_path / "r.csv"), report)
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,acc_without,acc_with,difference"
        assert len(lines) == 7  # header + 5 seeds + mean row
