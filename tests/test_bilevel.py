import dataclasses
import hashlib
import math
import pickle
import types
import weakref

import numpy as np
import pytest

from cocor import bilevel, gradsuite, harness, pmnn
from cocor.augment import (POOL_SIZE, BasicTransform, TransformId, apply_composite,
                           composition_vector, sample_composite)
from cocor.bilevel import (ROLE_COMPOSITE, ROLE_QUERY, StepInfo, build_step_batch,
                           collapsed_scalar, dacl, deviation_gap_coefficient,
                           encoder_step, hypergradient_oracle, init_train_state, pmnn_step,
                           probe_ce, probe_step, train, unsup_eval, warm_up_queue)
from cocor.config import RunConfig
from cocor.data import synth_dataset, weak_augment
from cocor.encoder import encode_batch
from cocor.losses import NegativeQueue
from cocor.numcore import ParamSet, SgdState, make_rng, sigmoid
from test_acceptance import TREND_CONFIG, _fidelity_instance

TINY = dict(classes=3, per_class=8, height=6, width=6, channels=1, noise=0.1,
            hidden=(10, 8), proj_hidden=8, embed_dim=4, pmnn_hidden=8,
            queue_capacity=16, batch_size=4, lengths=(1,), epochs=1)


def tiny_instance(seed, **overrides):
    cfg = RunConfig(**{**TINY, **overrides, "seed": seed})
    state = init_train_state(cfg, total_steps=10)
    rng = make_rng(seed, 999)
    state.probe = ParamSet({"w": rng.standard_normal((8, cfg.classes)) * 0.5,
                            "b": rng.standard_normal(cfg.classes) * 0.1})
    state.opt_probe = SgdState.init(state.probe, cfg.probe_lr, momentum=0.9)
    keys = rng.standard_normal((8, cfg.embed_dim))
    state.queue.push(keys / np.linalg.norm(keys, axis=1, keepdims=True))
    ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                       cfg.noise, make_rng(seed, 55), channels=1)
    rng2 = make_rng(seed, 998)
    imgs = ds.images[rng2.choice(ds.images.shape[0], cfg.batch_size, replace=False)]
    lab_idx = rng2.choice(ds.images.shape[0], cfg.batch_size, replace=False)
    return cfg, state, imgs, ds.images[lab_idx].reshape(cfg.batch_size, -1), ds.labels[lab_idx]


def no_labeled_rows(cfg):
    """A (rows, labels) pair with no rows, for a step batch without labeled rows."""
    return np.empty((0, cfg.input_dim)), np.empty(0, dtype=np.int64)


class TestCoefficient:
    def test_quarter_at_zero(self):
        assert deviation_gap_coefficient(0.0) == 0.25

    def test_equals_sigmoid_derivative(self):
        ks = make_rng(80).uniform(-20, 20, size=1000)
        for k in ks:
            s = float(sigmoid(k))
            assert abs(deviation_gap_coefficient(float(k)) - s * (1 - s)) < 1e-12

    def test_range(self):
        for k in (-500.0, -5.0, 0.0, 5.0, 500.0):
            c = deviation_gap_coefficient(k)
            assert 0.0 < c <= 0.25 or (abs(k) > 400 and c == 0.0)
        # extreme k underflows to 0 but stays finite
        assert math.isfinite(deviation_gap_coefficient(1000.0))


class TestEncoderStep:
    def test_zero_lr_leaves_encoder_but_advances_queue(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(1)
        state.opt_e = SgdState(base_lr=0.0, momentum=0.9, weight_decay=0.0, step=0,
                               total_steps=0, buffers=np.zeros_like(state.theta_e.flat))
        before = state.theta_e.copy()
        fill0 = len(state.queue.rows)
        encoder_step(state, cfg, imgs, (x_lab, y_lab))
        for name in before.names():
            np.testing.assert_array_equal(state.theta_e[name], before[name])
        assert len(state.queue.rows) == fill0 + cfg.batch_size

    def test_requires_nonempty_queue(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(2)
        state.queue = NegativeQueue(cfg.queue_capacity, cfg.embed_dim)
        with pytest.raises(RuntimeError):
            encoder_step(state, cfg, imgs, (x_lab, y_lab))

    def test_descent_at_small_lr(self):
        for lr in (1e-3, 1e-4):
            cfg, state, imgs, x_lab, y_lab = tiny_instance(3, eta_e=lr)
            info = encoder_step(state, cfg, imgs, (x_lab, y_lab))
            assert info.after.lu < info.before.lu, lr

    def test_pre_step_encoder_is_freed_when_the_step_returns(self, monkeypatch):
        # iteration alternation: once encoder_step returns, neither its
        # StepInfo nor the training loop holds the parameters it started from
        cfg = RunConfig(**{**TINY, "per_class": 16, "queue_capacity": 8, "seed": 3})
        real_step = bilevel.encoder_step
        alive = []

        def step(state, *args, **kwargs):
            ref = weakref.ref(state.theta_e)
            info = real_step(state, *args, **kwargs)
            alive.append(ref() is not None)
            return info

        monkeypatch.setattr(bilevel, "encoder_step", step)
        train(cfg, harness.build_dataset(cfg))
        assert alive and not any(alive)

    def test_momentum_encoder_tracks_query(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(4)
        theta_k_before = state.theta_k.copy()
        encoder_step(state, cfg, imgs, (x_lab, y_lab))
        m = cfg.momentum_coef
        for name in theta_k_before.names():
            expected = m * theta_k_before[name] + (1.0 - m) * state.theta_e[name]
            np.testing.assert_allclose(state.theta_k[name], expected, atol=1e-12)


class TestUnsupEval:
    def test_labeled_rows_do_not_count_as_zero_norms(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(15)
        # a fresh encoder has zero biases, so rows of zeros project to zero
        zeros = np.zeros_like(x_lab)
        assert encode_batch(state.enc_cfg, state.theta_e, zeros)[2].zero_norm.all()
        counts = []
        for labeled in (no_labeled_rows(cfg), (zeros, y_lab)):
            batch = build_step_batch(state, cfg, imgs, labeled)
            counts.append(unsup_eval(state.enc_cfg, state.theta_e, batch, state.queue, cfg,
                                     want_grad=False)[0].zero_norms)
        assert counts[1] == counts[0]

    def test_want_grad_is_keyword_only(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(16)
        batch = build_step_batch(state, cfg, imgs, (x_lab, y_lab))
        with pytest.raises(TypeError):
            unsup_eval(state.enc_cfg, state.theta_e, batch, state.queue, cfg, False)

    @pytest.mark.parametrize("variant", ["abs", "softplus"])
    def test_loss_only_call_matches_gradient_call_bitwise(self, variant):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(16, variant=variant, lengths=(1, 2, 3))
        batch = build_step_batch(state, cfg, imgs, (x_lab, y_lab))
        (full, grads), (loss_only, none) = (unsup_eval(state.enc_cfg, state.theta_e, batch,
                                                       state.queue, cfg, want_grad=want_grad)
                                            for want_grad in (True, False))
        assert grads is not None and none is None
        # pickle keeps every float's 8 bytes, dict order and array bytes
        for field in dataclasses.fields(bilevel.UnsupEval):
            assert (pickle.dumps(getattr(loss_only, field.name))
                    == pickle.dumps(getattr(full, field.name))), field.name


class TestPmnnStep:
    def test_equal_ce_means_zero_update(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(6)
        # the same labeled features before and after -> CE' == CE exactly;
        # fake a loss drop so the denominator guard does not trigger.
        batch_info = encoder_step(state, cfg, imgs, (x_lab, y_lab))
        info = StepInfo(
            batch=batch_info.batch,
            before=dataclasses.replace(batch_info.before, lu=1.5, simi=0.3, k_pooled=0.1,
                                       labeled_features=batch_info.after.labeled_features),
            after=dataclasses.replace(batch_info.after, lu=1.4, simi=0.2))
        theta_d_before = state.theta_d.copy()
        assert collapsed_scalar(state.probe, info) == 0.0
        pmnn_step(state, info)
        assert state.guard_count == 0
        for name in theta_d_before.names():
            np.testing.assert_array_equal(state.theta_d[name], theta_d_before[name])

    def test_guard_skips_update_and_counts(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(7)
        batch_info = encoder_step(state, cfg, imgs, (x_lab, y_lab))
        info = dataclasses.replace(batch_info, after=dataclasses.replace(
            batch_info.after, lu=batch_info.before.lu + 1e-12))
        theta_d_before = state.theta_d.copy()
        assert collapsed_scalar(state.probe, info) is None
        pmnn_step(state, info)
        assert state.guard_count == 1
        for name in theta_d_before.names():
            np.testing.assert_array_equal(state.theta_d[name], theta_d_before[name])

    def test_update_parallel_to_mean_prediction_gradient(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(8)
        info = encoder_step(state, cfg, imgs, (x_lab, y_lab))
        theta_d_before = state.theta_d.copy()
        grad_g = pmnn.grad_wrt_params(state.theta_d, info.batch.v).flat
        scalar = collapsed_scalar(state.probe, info)
        assert scalar is not None and scalar != 0.0
        pmnn_step(state, info)
        delta = state.theta_d.flat - theta_d_before.flat
        cos = delta @ grad_g / (np.linalg.norm(delta) * np.linalg.norm(grad_g))
        assert abs(abs(cos) - 1.0) < 1e-9

    def test_monotonicity_survives_updates(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(9)
        rng = make_rng(81)
        for step in range(5):
            info = encoder_step(state, cfg, imgs, (x_lab, y_lab))
            pmnn_step(state, info)
        for _ in range(100):
            v = rng.integers(0, 9, size=14)
            i = int(rng.integers(0, 14))
            bumped = v.copy()
            bumped[i] += 1
            assert (pmnn.predict_batch(state.theta_d, bumped[None])
                    <= pmnn.predict_batch(state.theta_d, v[None]) + 1e-12)


class TestProbeStep:
    def test_encoder_bitwise_unchanged(self):
        cfg, state, _, x_lab, y_lab = tiny_instance(10)
        before = state.theta_e.copy()
        probe_step(state, encode_batch(state.enc_cfg, state.theta_e, x_lab)[0], y_lab)
        for name in before.names():
            np.testing.assert_array_equal(state.theta_e[name], before[name])

    def test_loss_only_ce_matches_gradient_call_bitwise(self):
        cfg, state, _, x_lab, y_lab = tiny_instance(14)
        ce, grad = probe_ce(state.enc_cfg, state.theta_e, state.probe, x_lab, y_lab,
                            want_encoder_grad=True)
        ce_only, none = probe_ce(state.enc_cfg, state.theta_e, state.probe, x_lab, y_lab)
        assert grad is not None and none is None
        assert ce_only.hex() == ce.hex()

    def test_ce_measurement_never_mutates_encoder(self):
        cfg, state, _, x_lab, y_lab = tiny_instance(11)
        before = state.theta_e.copy()
        probe_ce(state.enc_cfg, state.theta_e, state.probe, x_lab, y_lab,
                 want_encoder_grad=True)
        for name in before.names():
            np.testing.assert_array_equal(state.theta_e[name], before[name])

    def test_converges_on_separable_features(self):
        # noise-free templates: one distinct feature point per class
        cfg, state, _, _, _ = tiny_instance(12)
        ds = synth_dataset(3, 4, 6, 6, 0.0, make_rng(12, 56), channels=1)
        x = ds.images.reshape(ds.images.shape[0], -1)
        y = ds.labels
        state.probe = ParamSet({"w": np.zeros((8, 3)), "b": np.zeros(3)})
        state.opt_probe = SgdState.init(state.probe, 0.5, momentum=0.9)
        acc = 0.0
        features = encode_batch(state.enc_cfg, state.theta_e, x)[0]
        for step in range(200):
            probe_step(state, features, y)
            from cocor.bilevel import probe_accuracy
            acc = probe_accuracy(state.enc_cfg, state.theta_e, state.probe, x, y)
            if acc == 1.0:
                break
        assert acc == 1.0

    def test_feature_readers_run_only_the_backbone(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a feature reader ran the projection head")

        # harness has no encode_batch of its own: set one anyway, so a reader
        # that imports it again fails here too
        for module in (bilevel, gradsuite, harness):
            monkeypatch.setattr(module, "encode_batch", refuse, raising=False)
        cfg, state, _, x_lab, y_lab = tiny_instance(15, eval_epochs=2)
        for want in (False, True):
            probe_ce(state.enc_cfg, state.theta_e, state.probe, x_lab, y_lab,
                     want_encoder_grad=want)
        bilevel.probe_accuracy(state.enc_cfg, state.theta_e, state.probe, x_lab, y_lab)
        ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width, cfg.noise,
                           make_rng(15, 55), channels=1)
        harness.linear_eval(state.enc_cfg, state.theta_e, ds, cfg, seed=0)
        assert gradsuite.check_cross_entropy_probe(gradsuite.SUITE_SEEDS[
            "cross_entropy_probe"]) < 1e-5

    def test_label_out_of_range(self):
        cfg, state, _, x_lab, _ = tiny_instance(13)
        with pytest.raises(ValueError):
            probe_step(state, encode_batch(state.enc_cfg, state.theta_e, x_lab)[0],
                       np.full(x_lab.shape[0], 99))


class TestPredict:
    def test_constant_arm_gives_const_deviation_per_row(self):
        _, state, _, _, _ = tiny_instance(29, use_pmnn=False, const_deviation=0.4)
        assert state.theta_d is None
        np.testing.assert_array_equal(state.predict(np.zeros((3, 14))), [0.4, 0.4, 0.4])

    def test_learned_arm_tracks_theta_d(self):
        _, state, _, _, _ = tiny_instance(29)
        v = np.ones((2, 14), dtype=np.int64)
        state.theta_d = pmnn.init_pmnn_params(make_rng(30), hidden=4)
        np.testing.assert_array_equal(state.predict(v), pmnn.predict_batch(state.theta_d, v))


class TestOracle:
    def test_oracle_vector_is_scalar_times_mean_grad(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(14)
        theta_before, lr = state.theta_e, state.opt_e.current_lr()
        info = encoder_step(state, cfg, imgs, (x_lab, y_lab))
        oracle_grad, oracle_scalar, grad_g = hypergradient_oracle(
            state, info, theta_before, lr)
        np.testing.assert_allclose(oracle_grad.flat,
                                   oracle_scalar * grad_g.flat, atol=1e-15)

    # sha256 over criterion 4's instances 0-29 of the oracle's gradient,
    # scalar and dE[g]/d(theta_d), then the collapsed scalar (NaN when
    # guarded), the coefficient and the guard count, and theta_e and theta_d
    # after pmnn_step. The same values read through pmnn_step's earlier
    # five-field return give this digest too, so moving the formula into
    # collapsed_scalar changed no bit (numpy 2.4, OpenBLAS, x86-64)
    ORACLE_DIGEST = "52a452f4603febb5eddc0343e14f4709742facac7939aa6ba7712150b9145016"

    def test_outputs_match_recorded_digest(self):
        h = hashlib.sha256()
        for seed in range(30):
            cfg, state, imgs, x_lab, y_lab = _fidelity_instance(seed)
            theta_before, lr = state.theta_e, state.opt_e.current_lr()
            info = encoder_step(state, cfg, imgs, (x_lab, y_lab))
            oracle_grad, oracle_scalar, grad_g = hypergradient_oracle(
                state, info, theta_before, lr)
            scalar = collapsed_scalar(state.probe, info)
            pmnn_step(state, info)
            for a in (oracle_grad.flat, np.float64(oracle_scalar), grad_g.flat,
                      np.array([np.nan if scalar is None else scalar,
                                deviation_gap_coefficient(info.before.k_pooled),
                                state.guard_count], dtype=np.float64),
                      state.theta_e.flat, state.theta_d.flat):
                h.update(a.tobytes())
        assert h.hexdigest() == self.ORACLE_DIGEST


def per_pair_omegas(enc_cfg, theta, imgs, comps):
    """DACL's deviations by definition: each raster and its view encoded as a
    batch of one row."""
    omegas = []
    for img, comp in zip(imgs, comps):
        _, zr, _ = encode_batch(enc_cfg, theta, img.reshape(1, -1))
        _, za, _ = encode_batch(enc_cfg, theta,
                                apply_composite([comp], img[None]).reshape(1, -1))
        omegas.append(float(np.sum(zr * za)))
    return np.array(omegas)


class TestDacl:
    def _setup(self, seed):
        cfg, state, imgs, _, _ = tiny_instance(seed)
        rng = make_rng(seed, 83)
        idx = np.arange(6) % imgs.shape[0]
        return state, imgs[idx], [sample_composite((1,), 0.5, rng) for _ in idx]

    def test_zero_when_reference_matches(self):
        state, imgs, comps = self._setup(15)
        omegas = per_pair_omegas(state.enc_cfg, state.theta_e, imgs, comps)
        shapes = []

        def echo(v):
            shapes.append(v.shape)
            return omegas

        assert dacl(state.enc_cfg, state.theta_e, echo, imgs, comps) < 1e-12
        assert shapes == [(6, POOL_SIZE)]

    def test_constant_offset_gives_offset(self):
        state, imgs, comps = self._setup(17)
        omegas = per_pair_omegas(state.enc_cfg, state.theta_e, imgs, comps)
        val = dacl(state.enc_cfg, state.theta_e, lambda v: omegas - 0.1, imgs, comps)
        assert abs(val - 0.1) < 1e-12

    def test_matches_scalar_oracle(self):
        state, imgs, comps = self._setup(18)
        state.theta_d, state.const_deviation = None, 0.3
        gaps = np.abs(per_pair_omegas(state.enc_cfg, state.theta_e, imgs, comps) - 0.3)
        val = dacl(state.enc_cfg, state.theta_e, state.predict, imgs, comps)
        assert abs(val - np.mean(gaps)) < 1e-12

    def test_identity_composite_gives_one(self):
        state, imgs, _ = self._setup(13)
        comps = [(BasicTransform(TransformId.IDENTITY, 0.5),)] * imgs.shape[0]
        ones = np.ones(imgs.shape[0])
        assert dacl(state.enc_cfg, state.theta_e, lambda v: ones, imgs, comps) < 1e-9

    def test_deviation_bounded_by_one(self):
        state, imgs, _ = self._setup(19)
        rng = make_rng(18)
        for trial in range(20):
            comp = sample_composite((int(rng.integers(1, 5)),), 1.0, rng)
            img = imgs[trial % imgs.shape[0]][None]
            # one probe against a zero reference: DACL is |omega|
            assert dacl(state.enc_cfg, state.theta_e, np.zeros_like, img, [comp]) <= 1.0 + 1e-12

    def test_batched_matches_per_pair_definition(self, monkeypatch):
        cfg = dataclasses.replace(TREND_CONFIG, lengths=(1, 2, 3))
        state = init_train_state(cfg, total_steps=1)
        ds = synth_dataset(cfg.classes, 4, cfg.height, cfg.width, cfg.noise,
                           make_rng(cfg.seed, 55), channels=1)
        encodes, predicts = [], []
        monkeypatch.setattr(bilevel, "encode_batch",
                            lambda *a: encodes.append(a[2].shape) or encode_batch(*a))

        def predict(v):
            predicts.append(v.shape)
            return state.predict(v)

        for epoch in range(2):
            imgs, comps = bilevel._dacl_probe_set(cfg, ds.images, epoch)
            gaps = [abs(omega - state.predict(v[None])[0]) for omega, v in zip(
                per_pair_omegas(state.enc_cfg, state.theta_e, imgs, comps),
                composition_vector(comps))]
            assert abs(dacl(state.enc_cfg, state.theta_e, predict, imgs, comps)
                       - np.mean(gaps)) < 1e-12
        n = bilevel.DACL_PROBE_SIZE
        assert encodes == [(2 * n, cfg.input_dim)] * 2
        assert predicts == [(n, POOL_SIZE)] * 2

    def test_empty_set_rejected(self):
        state, imgs, _ = self._setup(19)
        with pytest.raises(ValueError):
            dacl(state.enc_cfg, state.theta_e, None, imgs[:0], [])


VIEW_CFG = dict(classes=3, per_class=6, height=7, width=9, noise=0.1, hidden=(10, 8),
                proj_hidden=8, embed_dim=4, pmnn_hidden=8, queue_capacity=16,
                batch_size=5, lengths=(1, 2, 3))


def view_instance(seed, channels):
    cfg = RunConfig(**VIEW_CFG, channels=channels, seed=seed)
    state = init_train_state(cfg, total_steps=10)
    ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width, cfg.noise,
                       make_rng(seed, 55), channels=channels)
    return cfg, state, ds.images[:cfg.batch_size]


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestBuildStepBatch:
    # sha256 of (x_query, x_aug, v, composite lengths) from the per-sample
    # implementation, recorded before view construction was batched; pixel
    # math only, no BLAS
    RECORDED = {
        (3, 1): "e37a0a2ec998ad4291a79bfa6504e6981375682a704bf4f2d4a24aa8feee8232",
        (3, 3): "7197e7a957b1c90c9e79a4642df74cc3be0fa02ecec5ee69a26d4591330a6196",
        (2**33 + 1, 1): "b98a12e62e87d2605d89f061192dcf0654e6d4677fcc107d34722a9f4141bf28",
        (2**33 + 1, 3): "75383ee0d5c0d00fcfef0c0de328ac8e9ea609b4c19c507fe774d5cacb10e484",
    }

    @pytest.mark.parametrize("seed,channels", sorted(RECORDED))
    def test_views_match_recorded_output(self, seed, channels):
        cfg, state, imgs = view_instance(seed, channels)
        state.step = 7
        b = build_step_batch(state, cfg, imgs, no_labeled_rows(cfg))
        q, a, lab = b.starts()
        assert (_sha256(b.x[:q], b.x[a:lab], b.v, b.v.sum(axis=1))
                == self.RECORDED[seed, channels])

    @pytest.mark.parametrize("channels", (1, 3))
    def test_each_sample_equals_its_batch_of_one(self, channels):
        cfg, state, imgs = view_instance(2**32 + 9, channels)
        state.step = 4
        b = build_step_batch(state, cfg, imgs, no_labeled_rows(cfg))
        a = b.starts()[1]
        for i in range(imgs.shape[0]):
            path = (cfg.seed, 5, 4, i)
            one = imgs[i:i + 1]
            query = weak_augment(one, [make_rng(*path, ROLE_QUERY)])
            rng = make_rng(*path, ROLE_COMPOSITE)
            comp = sample_composite((int(rng.choice(np.asarray(cfg.lengths))),),
                                    cfg.magnitude, rng)
            np.testing.assert_array_equal(b.x[i], query.reshape(-1))
            np.testing.assert_array_equal(b.x[a + i],
                                          apply_composite([comp], one).reshape(-1))
            np.testing.assert_array_equal(b.v[i], composition_vector([comp])[0])
            assert b.v[i].sum() == len(comp)


class TestWarmUp:
    # sha256 of the queue after warm_up_queue, recorded while warm-up pushed
    # one batch of keys at a time (numpy 2.4, OpenBLAS, x86-64): TREND's
    # queue 256 at batch 64, and criterion 8's config with a queue of 20,
    # which is not a multiple of its batch of 8
    CRIT8 = RunConfig(classes=4, per_class=24, height=8, width=8, noise=0.15,
                      hidden=(32, 16), proj_hidden=12, embed_dim=8, pmnn_hidden=8,
                      queue_capacity=20, batch_size=8, epochs=3, eval_epochs=10, seed=11)
    RECORDED = {
        "trend": ((256, 32), "4117a83f99ecbc83766898f10bd886d8ec666a5357022078f7543403c884a867"),
        "crit8-queue20": ((20, 8),
                          "44b0106feff49d7ba870250c6805cd3e31af1c368af9a5ad8e17ef0049b940cf"),
    }

    @staticmethod
    def _warm(cfg):
        state = init_train_state(cfg, total_steps=1)
        warm_up_queue(state, cfg, harness.build_dataset(cfg).split_images("unlabeled_train"))
        return state.queue

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_queue_matches_recorded_digest(self, name):
        cfg = TREND_CONFIG if name == "trend" else self.CRIT8
        rows = self._warm(cfg).rows
        shape, digest = self.RECORDED[name]
        assert rows.shape == shape
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_pushes_once(self, monkeypatch):
        pushes = []
        real = NegativeQueue.push

        def counted(queue, rows):
            pushes.append(len(rows))
            real(queue, rows)

        monkeypatch.setattr(NegativeQueue, "push", counted)
        assert len(self._warm(self.CRIT8).rows) == 20
        assert pushes == [24]  # three batches of 8, one push


class TestTrain:
    def _cfg(self, **overrides):
        base = dict(TINY, per_class=16, queue_capacity=8, epochs=2, seed=3)
        return RunConfig(**{**base, **overrides})

    def _dataset(self, cfg):
        return synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                             cfg.noise, make_rng(cfg.seed, 100), channels=cfg.channels,
                             labeled_frac=cfg.labeled_frac)

    def test_zero_epochs_returns_initial_state(self):
        cfg = self._cfg(epochs=0)
        state, metrics = train(cfg, self._dataset(cfg))
        assert metrics == []
        assert state.step == 0
        assert len(state.queue.rows) == 0

    def test_deterministic_across_runs(self):
        cfg = self._cfg()
        s1, m1 = train(cfg, self._dataset(cfg))
        s2, m2 = train(cfg, self._dataset(cfg))
        np.testing.assert_array_equal(s1.theta_e.flat, s2.theta_e.flat)
        np.testing.assert_array_equal(s1.theta_d.flat, s2.theta_d.flat)
        assert len(m1) == len(m2)
        for a, b in zip(m1, m2):
            assert a.l_u == b.l_u and a.ce == b.ce and a.k_by_length == b.k_by_length

    def test_emits_iteration_and_epoch_records(self):
        cfg = self._cfg()
        ds = self._dataset(cfg)
        _, metrics = train(cfg, ds)
        steps_per_epoch = ds.split_images("unlabeled_train").shape[0] // cfg.batch_size
        assert steps_per_epoch == 8  # 33 unlabeled rasters at batch 4
        assert [m.record_type for m in metrics] == (["iteration"] * 8 + ["epoch"]) * 2
        assert [m.step for m in metrics if m.record_type == "epoch"] == [8, 16]

    def test_epoch_alternation_predicts_once_a_step_and_once_for_dacl(self, monkeypatch):
        # the epoch update reuses the last batch's predictions: theta_d has not
        # moved since, so 16 steps and 2 epochs of DACL make 18 calls
        cfg = self._cfg(alternation="epoch")
        ds = self._dataset(cfg)
        predicts, epoch_batches = [], []
        real_predict, real_pmnn = bilevel.TrainState.predict, bilevel.pmnn_step

        def counted_predict(state, v):
            predicts.append(v.shape[0])
            return real_predict(state, v)

        def recorded_pmnn(state, info):
            epoch_batches.append(info.batch)
            real_pmnn(state, info)

        monkeypatch.setattr(bilevel.TrainState, "predict", counted_predict)
        monkeypatch.setattr(bilevel, "pmnn_step", recorded_pmnn)
        train(cfg, ds)
        assert predicts == ([cfg.batch_size] * 8 + [bilevel.DACL_PROBE_SIZE]) * 2
        assert len(epoch_batches) == 2
        x_all = ds.split_images("labeled_train").reshape(-1, cfg.input_dim)
        y_all = ds.split_labels("labeled_train")
        for batch in epoch_batches:
            rows = batch.x[batch.starts()[2]:]
            assert rows.shape[0] == batch.y.size > 0
            # each labeled row is one raster of the split, with its own label
            found = [np.flatnonzero((x_all == row).all(axis=1)) for row in rows]
            assert all(f.size == 1 for f in found)
            np.testing.assert_array_equal(batch.y, y_all[[f[0] for f in found]])

    def test_without_pmnn_skips_predictor_updates(self):
        cfg = self._cfg(use_pmnn=False, const_deviation=0.5)
        state, metrics = train(cfg, self._dataset(cfg))
        assert state.theta_d is None
        assert all(m.coefficient is None for m in metrics)

    def test_epoch_alternation_mode_runs(self):
        cfg = self._cfg(alternation="epoch")
        state, _ = train(cfg, self._dataset(cfg))
        assert state.step > 0

    def test_one_iteration_runs_one_forward_per_parameter_version(self, monkeypatch):
        # criterion 8's sizes; the calls are counted across one Run.step(),
        # which is one whole training iteration: keys at theta_k, then one
        # stacked forward at theta and one at theta'
        cfg = RunConfig(classes=4, per_class=24, height=8, width=8, noise=0.15,
                        hidden=(32, 16), proj_hidden=12, embed_dim=8, pmnn_hidden=8,
                        queue_capacity=16, batch_size=8, epochs=1, eval_epochs=10, seed=11)
        calls = {"encode_batch": 0, "encode_backward": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bilevel, name, counted(name, getattr(bilevel, name)))
        run = bilevel.Run(cfg, harness.build_dataset(cfg))  # warms the queue
        before = dict(calls)
        run.step()
        assert {k: calls[k] - before[k] for k in calls} == {"encode_batch": 3,
                                                            "encode_backward": 3}

    def test_dataset_shape_mismatch_rejected(self):
        cfg = self._cfg(height=8)
        ds = synth_dataset(3, 16, 6, 6, 0.1, make_rng(3, 100))
        with pytest.raises(ValueError):
            train(cfg, ds)

    @pytest.mark.parametrize("overrides", [
        {"variant": "abs"},
        {"variant": "abs", "alternation": "epoch"},
        {"channels": 3},
        {"lengths": (1, 3)},
        {"lengths": (2,), "use_pmnn": False, "const_deviation": 0.7},
    ], ids=["abs", "abs-epoch", "rgb", "multi-length", "constant-arm"])
    def test_configuration_matrix_smoke(self, overrides):
        cfg = self._cfg(epochs=1, **overrides)
        ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width,
                           cfg.noise, make_rng(cfg.seed, 100),
                           channels=cfg.channels, labeled_frac=cfg.labeled_frac)
        state, metrics = train(cfg, ds)
        iters = [m for m in metrics if m.record_type == "iteration"]
        assert iters and all(np.isfinite(m.l_u) for m in iters)
        if len(cfg.lengths) > 1:
            seen = set()
            for m in iters:
                seen.update(m.k_by_length)
            assert seen == {str(l) for l in cfg.lengths}
        epochs = [m for m in metrics if m.record_type == "epoch"]
        assert len(epochs) == 1 and np.isfinite(epochs[0].dacl)


class TestRun:
    @staticmethod
    def _cfg(seed=3, **overrides):
        return RunConfig(**{**TINY, "per_class": 16, "queue_capacity": 10, "epochs": 2,
                            **overrides, "seed": seed})

    def test_construction_warms_the_queue_then_starts_the_clock(self, monkeypatch):
        # summary.csv's wall_clock_s, perfbench's first_op_time and its timed
        # span rely on this: once Run returns, the queue is full, no step has
        # run, and the records' clock counts from the end of construction
        cfg = self._cfg()
        now, steps = [0.0], []
        real_warm, real_step = bilevel.warm_up_queue, bilevel.encoder_step

        def warm(*args):
            real_warm(*args)
            now[0] = 40.0  # the clock as warm-up ends

        monkeypatch.setattr(bilevel, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
        monkeypatch.setattr(bilevel, "warm_up_queue", warm)
        monkeypatch.setattr(bilevel, "encoder_step",
                            lambda *args: steps.append(args) or real_step(*args))
        run = bilevel.Run(cfg, harness.build_dataset(cfg))
        assert len(run.state.queue.rows) == cfg.queue_capacity
        assert run.state.step == 0 and not steps and run.records == []
        now[0] = 42.5
        run.step()
        assert len(steps) == 1 and run.records[0].wall_clock == 2.5

    @pytest.mark.parametrize("interleave", ["step", "epoch"])
    @pytest.mark.parametrize("overrides", [
        {},
        {"alternation": "epoch"},
        {"use_pmnn": False, "const_deviation": 0.7},
    ], ids=["iteration-alternation", "epoch-alternation", "constant-arm"])
    def test_runs_stepped_in_turn_match_their_solo_runs(self, tmp_path, overrides, interleave):
        # two seeds' runs share one process and step in turn, a step or an
        # epoch at a time; each must write its solo run's stream and end at
        # its solo run's parameters
        cfgs = [self._cfg(seed, **overrides) for seed in (3, 4)]
        runs = [bilevel.Run(cfg, harness.build_dataset(cfg)) for cfg in cfgs]
        assert runs[0].steps_per_epoch == runs[1].steps_per_epoch
        for _ in range(cfgs[0].epochs):
            if interleave == "step":
                for _ in range(runs[0].steps_per_epoch):
                    for run in runs:
                        run.step()
                for run in runs:
                    run.end_epoch()
            else:
                for run in runs:
                    for _ in range(run.steps_per_epoch):
                        run.step()
                    run.end_epoch()

        streams = []
        for cfg, run in zip(cfgs, runs):
            state, records = train(cfg, harness.build_dataset(cfg))
            for name, recs in (("solo", records), ("stepped", run.records)):
                harness.write_metrics_jsonl(str(tmp_path / f"{name}.jsonl"), recs)
            streams.append((tmp_path / "solo.jsonl").read_bytes())
            assert (tmp_path / "stepped.jsonl").read_bytes() == streams[-1]
            for name in ("theta_e", "theta_k", "theta_d", "probe"):
                solo, stepped = getattr(state, name), getattr(run.state, name)
                assert (solo is None) == (stepped is None) == (name == "theta_d"
                                                               and not cfg.use_pmnn)
                if solo is not None:
                    np.testing.assert_array_equal(stepped.flat, solo.flat)
        assert streams[0] != streams[1]


class TestSeedPaths:
    @staticmethod
    def _trimmed(path):
        # SeedSequence pads a path with zero words, so (5, 6, 6) and
        # (5, 6, 6, 0) are one generator; trimming every trailing zero is the
        # stricter reading
        path = tuple(int(n) for n in path)
        while path and path[-1] == 0:
            path = path[:-1]
        return path

    @pytest.mark.parametrize("alternation", ["iteration", "epoch"])
    def test_no_seed_path_repeats_in_a_run(self, monkeypatch, alternation):
        cfg = RunConfig(**{**TINY, "per_class": 16, "queue_capacity": 8, "epochs": 2,
                           "seed": 3, "alternation": alternation})
        ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width, cfg.noise,
                           make_rng(cfg.seed, 100), channels=cfg.channels,
                           labeled_frac=cfg.labeled_frac)
        paths = []
        real_make_rng, real_path_rngs = bilevel.make_rng, bilevel.path_rngs

        def recorded_make_rng(*path):
            paths.append(self._trimmed(path))
            return real_make_rng(*path)

        def recorded_path_rngs(many):
            paths.extend(map(self._trimmed, many))
            return real_path_rngs(many)

        monkeypatch.setattr(bilevel, "make_rng", recorded_make_rng)
        monkeypatch.setattr(bilevel, "path_rngs", recorded_path_rngs)
        train(cfg, ds)
        repeated = sorted({p for p in paths if paths.count(p) > 1})
        assert paths and not repeated, f"seed paths drawn more than once: {repeated}"
