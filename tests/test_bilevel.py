import dataclasses
import hashlib
import math
import pickle
import weakref

import numpy as np
import pytest

from cocor import bilevel, harness, pmnn
from cocor.augment import apply_composite, composition_vector, sample_composite
from cocor.bilevel import (ROLE_COMPOSITE, ROLE_QUERY, StepInfo, build_step_batch, dacl,
                           deviation_gap_coefficient, encoder_step,
                           hypergradient_oracle, init_train_state, pmnn_step,
                           probe_ce, probe_step, train, unsup_eval)
from cocor.config import RunConfig
from cocor.data import synth_dataset, weak_augment
from cocor.encoder import EncoderConfig, encode_batch
from cocor.numcore import ParamSet, SgdState, make_rng, sigmoid
from test_acceptance import _fidelity_instance

TINY = dict(classes=3, per_class=8, height=6, width=6, channels=1, noise=0.1,
            hidden=(10, 8), proj_hidden=8, embed_dim=4, pmnn_hidden=8,
            queue_capacity=16, batch_size=4, lengths=(1,), epochs=1)


def tiny_instance(seed, **overrides):
    cfg = RunConfig(**{**TINY, **overrides, "seed": seed})
    enc_cfg = EncoderConfig(input_dim=cfg.input_dim, hidden=cfg.hidden,
                            proj_hidden=cfg.proj_hidden, embed_dim=cfg.embed_dim)
    state = init_train_state(cfg, enc_cfg, total_steps=10)
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
        cfg, state, imgs, x_lab, _ = tiny_instance(1)
        state.opt_e = SgdState(base_lr=0.0, momentum=0.9, weight_decay=0.0, step=0,
                               total_steps=0, buffers=np.zeros_like(state.theta_e.flat))
        before = state.theta_e.copy()
        fill0 = state.queue.fill
        encoder_step(state, cfg, imgs, x_lab, step_tag=0)
        for name in before.names():
            np.testing.assert_array_equal(state.theta_e[name], before[name])
        assert state.queue.fill == fill0 + cfg.batch_size

    def test_requires_nonempty_queue(self):
        cfg, state, imgs, x_lab, _ = tiny_instance(2)
        state.queue.fill = 0
        with pytest.raises(RuntimeError):
            encoder_step(state, cfg, imgs, x_lab, step_tag=0)

    def test_descent_at_small_lr(self):
        for lr in (1e-3, 1e-4):
            cfg, state, imgs, x_lab, _ = tiny_instance(3, eta_e=lr)
            info = encoder_step(state, cfg, imgs, x_lab, step_tag=0)
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
        cfg, state, imgs, x_lab, _ = tiny_instance(4)
        theta_k_before = state.theta_k.copy()
        encoder_step(state, cfg, imgs, x_lab, step_tag=0)
        m = cfg.momentum_coef
        for name in theta_k_before.names():
            expected = m * theta_k_before[name] + (1.0 - m) * state.theta_e[name]
            np.testing.assert_allclose(state.theta_k[name], expected, atol=1e-12)


class TestUnsupEval:
    def test_labeled_rows_do_not_count_as_zero_norms(self):
        cfg, state, imgs, x_lab, _ = tiny_instance(15)
        # a fresh encoder has zero biases, so rows of zeros project to zero
        zeros = np.zeros_like(x_lab)
        assert encode_batch(state.enc_cfg, state.theta_e, zeros)[2].zero_norm.all()
        counts = []
        for labeled in (np.empty((0, cfg.input_dim)), zeros):
            batch = build_step_batch(state, cfg, imgs, labeled, step_tag=0)
            g_vals = state.predict(batch.v)
            counts.append(unsup_eval(state.enc_cfg, state.theta_e, batch, g_vals, state.queue,
                                     cfg, want_grad=False)[0].zero_norms)
        assert counts[1] == counts[0]

    @pytest.mark.parametrize("variant", ["abs", "softplus"])
    def test_loss_only_call_matches_gradient_call_bitwise(self, variant):
        cfg, state, imgs, x_lab, _ = tiny_instance(16, variant=variant, lengths=(1, 2, 3))
        batch = build_step_batch(state, cfg, imgs, x_lab, step_tag=0)
        g_vals = state.predict(batch.v)
        (full, grads), (loss_only, none) = (unsup_eval(state.enc_cfg, state.theta_e, batch,
                                                       g_vals, state.queue, cfg, want_grad)
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
        batch_info = encoder_step(state, cfg, imgs, x_lab, step_tag=0)
        info = StepInfo(
            batch=batch_info.batch,
            before=dataclasses.replace(batch_info.before, lu=1.5, simi=0.3, k_pooled=0.1,
                                       labeled_features=batch_info.after.labeled_features),
            after=dataclasses.replace(batch_info.after, lu=1.4, simi=0.2))
        theta_d_before = state.theta_d.copy()
        scalars = pmnn_step(state, y_lab, info)
        assert not scalars.guard_triggered
        assert scalars.scalar == 0.0
        assert scalars.ce_after == scalars.ce_before
        for name in theta_d_before.names():
            np.testing.assert_array_equal(state.theta_d[name], theta_d_before[name])

    def test_guard_skips_update_and_counts(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(7)
        batch_info = encoder_step(state, cfg, imgs, x_lab, step_tag=0)
        info = dataclasses.replace(batch_info, after=dataclasses.replace(
            batch_info.after, lu=batch_info.before.lu + 1e-12))
        theta_d_before = state.theta_d.copy()
        scalars = pmnn_step(state, y_lab, info)
        assert scalars.guard_triggered
        assert state.guard_count == 1
        for name in theta_d_before.names():
            np.testing.assert_array_equal(state.theta_d[name], theta_d_before[name])

    def test_update_parallel_to_mean_prediction_gradient(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(8)
        info = encoder_step(state, cfg, imgs, x_lab, step_tag=0)
        theta_d_before = state.theta_d.copy()
        grad_g = pmnn.grad_wrt_params(state.theta_d, info.batch.v).flat
        scalars = pmnn_step(state, y_lab, info)
        assert not scalars.guard_triggered and scalars.scalar != 0.0
        delta = state.theta_d.flat - theta_d_before.flat
        cos = delta @ grad_g / (np.linalg.norm(delta) * np.linalg.norm(grad_g))
        assert abs(abs(cos) - 1.0) < 1e-9

    def test_monotonicity_survives_updates(self):
        cfg, state, imgs, x_lab, y_lab = tiny_instance(9)
        rng = make_rng(81)
        for step in range(5):
            info = encoder_step(state, cfg, imgs, x_lab, step_tag=step)
            pmnn_step(state, y_lab, info)
        for _ in range(100):
            v = rng.integers(0, 9, size=14)
            i = int(rng.integers(0, 14))
            bumped = v.copy()
            bumped[i] += 1
            assert (pmnn.predict_batch(state.theta_d, bumped)
                    <= pmnn.predict_batch(state.theta_d, v) + 1e-12)


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
        info = encoder_step(state, cfg, imgs, x_lab, step_tag=0)
        oracle_grad, oracle_scalar, grad_g = hypergradient_oracle(
            state, info, x_lab, y_lab, theta_before, lr)
        np.testing.assert_allclose(oracle_grad.flat,
                                   oracle_scalar * grad_g.flat, atol=1e-15)

    # sha256 over criterion 4's instances 0-29 of the oracle's gradient,
    # scalar and dE[g]/d(theta_d), then pmnn_step's scalars and the updated
    # theta_e and theta_d; recorded while StepInfo still carried theta_before
    # and the oracle encoded the raw and augmented rows in two passes
    # (numpy 2.4, OpenBLAS, x86-64)
    ORACLE_DIGEST = "903d0791c6ab3981f3ee5dd246776dcedb6ee56e249f619ac0231f207e4c631b"

    def test_outputs_match_recorded_digest(self):
        h = hashlib.sha256()
        for seed in range(30):
            cfg, state, imgs, x_lab, y_lab = _fidelity_instance(seed)
            theta_before, lr = state.theta_e, state.opt_e.current_lr()
            try:
                info = encoder_step(state, cfg, imgs, x_lab, step_tag=0)
            except ValueError:
                h.update(b"degenerate")
                continue
            oracle_grad, oracle_scalar, grad_g = hypergradient_oracle(
                state, info, x_lab, y_lab, theta_before, lr)
            s = pmnn_step(state, y_lab, info)
            for a in (oracle_grad.flat, np.float64(oracle_scalar), grad_g.flat,
                      np.array([s.ce_before, s.ce_after, s.coefficient, s.scalar,
                                s.guard_triggered], dtype=np.float64),
                      state.theta_e.flat, state.theta_d.flat):
                h.update(a.tobytes())
        assert h.hexdigest() == self.ORACLE_DIGEST


class TestDacl:
    def _setup(self, seed):
        cfg, state, imgs, _, _ = tiny_instance(seed)
        rng = make_rng(seed, 83)
        from cocor.augment import sample_composite
        probe_set = [(imgs[i % imgs.shape[0]], sample_composite(1, 0.5, rng))
                     for i in range(6)]
        return state, probe_set

    def test_zero_when_reference_matches(self):
        state, probe_set = self._setup(15)

        class Echo:
            def __init__(self, enc_cfg, theta):
                self.enc_cfg, self.theta = enc_cfg, theta

            def predict_batch(self, v_batch):
                return self._vals

        # evaluate measured deviations first, then echo them back
        from cocor.encoder import encode_batch
        echo = Echo(state.enc_cfg, state.theta_e)
        vals = []
        for img, comp in probe_set:
            flat = img.reshape(1, -1)
            aug = apply_composite([comp], img[None]).reshape(1, -1)
            _, zr, _ = encode_batch(state.enc_cfg, state.theta_e, flat)
            _, za, _ = encode_batch(state.enc_cfg, state.theta_e, aug)
            vals.append(float(np.sum(zr * za)))
        it = iter(vals)

        class Seq:
            def predict_batch(self, v_batch):
                return np.array([next(it)])

        assert dacl(state.enc_cfg, state.theta_e, Seq().predict_batch, probe_set) < 1e-12

    def test_constant_offset_gives_offset(self):
        state, probe_set = self._setup(17)
        from cocor.encoder import encode_batch

        omegas = []
        for img, comp in probe_set:
            flat = img.reshape(1, -1)
            aug = apply_composite([comp], img[None]).reshape(1, -1)
            _, zr, _ = encode_batch(state.enc_cfg, state.theta_e, flat)
            _, za, _ = encode_batch(state.enc_cfg, state.theta_e, aug)
            omegas.append(float(np.sum(zr * za)))
        it = iter(omegas)

        class OffsetRef:
            def predict_batch(self, v_batch):
                return np.array([next(it) - 0.1])

        val = dacl(state.enc_cfg, state.theta_e, OffsetRef().predict_batch, probe_set)
        assert abs(val - 0.1) < 1e-12

    def test_matches_scalar_oracle(self):
        state, probe_set = self._setup(18)
        from cocor.encoder import encode_batch

        state.theta_d, state.const_deviation = None, 0.3
        gaps = []
        for img, comp in probe_set:
            flat = img.reshape(1, -1)
            aug = apply_composite([comp], img[None]).reshape(1, -1)
            _, zr, _ = encode_batch(state.enc_cfg, state.theta_e, flat)
            _, za, _ = encode_batch(state.enc_cfg, state.theta_e, aug)
            gaps.append(abs(float(np.sum(zr * za)) - 0.3))
        val = dacl(state.enc_cfg, state.theta_e, state.predict, probe_set)
        assert abs(val - np.mean(gaps)) < 1e-12

    def test_empty_set_rejected(self):
        state, _ = self._setup(19)
        with pytest.raises(ValueError):
            dacl(state.enc_cfg, state.theta_e, None, [])


VIEW_CFG = dict(classes=3, per_class=6, height=7, width=9, noise=0.1, hidden=(10, 8),
                proj_hidden=8, embed_dim=4, pmnn_hidden=8, queue_capacity=16,
                batch_size=5, lengths=(1, 2, 3))


def view_instance(seed, channels):
    cfg = RunConfig(**VIEW_CFG, channels=channels, seed=seed)
    enc_cfg = EncoderConfig(input_dim=cfg.input_dim, hidden=cfg.hidden,
                            proj_hidden=cfg.proj_hidden, embed_dim=cfg.embed_dim)
    state = init_train_state(cfg, enc_cfg, total_steps=10)
    ds = synth_dataset(cfg.classes, cfg.per_class, cfg.height, cfg.width, cfg.noise,
                       make_rng(seed, 55), channels=channels)
    return cfg, state, ds.images[:cfg.batch_size]


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestBuildStepBatch:
    # sha256 of (x_query, x_aug, v, lengths) from the per-sample implementation,
    # recorded before view construction was batched; pixel math only, no BLAS
    RECORDED = {
        (3, 1): "e37a0a2ec998ad4291a79bfa6504e6981375682a704bf4f2d4a24aa8feee8232",
        (3, 3): "7197e7a957b1c90c9e79a4642df74cc3be0fa02ecec5ee69a26d4591330a6196",
        (2**33 + 1, 1): "b98a12e62e87d2605d89f061192dcf0654e6d4677fcc107d34722a9f4141bf28",
        (2**33 + 1, 3): "75383ee0d5c0d00fcfef0c0de328ac8e9ea609b4c19c507fe774d5cacb10e484",
    }

    @pytest.mark.parametrize("seed,channels", sorted(RECORDED))
    def test_views_match_recorded_output(self, seed, channels):
        cfg, state, imgs = view_instance(seed, channels)
        b = build_step_batch(state, cfg, imgs, np.empty((0, cfg.input_dim)), step_tag=7)
        q, a, lab = b.starts()
        assert (_sha256(b.x[:q], b.x[a:lab], b.v, b.lengths)
                == self.RECORDED[seed, channels])

    @pytest.mark.parametrize("channels", (1, 3))
    def test_each_sample_equals_its_batch_of_one(self, channels):
        cfg, state, imgs = view_instance(2**32 + 9, channels)
        b = build_step_batch(state, cfg, imgs, np.empty((0, cfg.input_dim)), step_tag=4)
        a = b.starts()[1]
        for i in range(imgs.shape[0]):
            path = (cfg.seed, 5, 4, i)
            one = imgs[i:i + 1]
            query = weak_augment(one, [make_rng(*path, ROLE_QUERY)])
            rng = make_rng(*path, ROLE_COMPOSITE)
            comp = sample_composite(int(rng.choice(np.asarray(cfg.lengths))),
                                    cfg.magnitude, rng)
            np.testing.assert_array_equal(b.x[i], query.reshape(-1))
            np.testing.assert_array_equal(b.x[a + i],
                                          apply_composite([comp], one).reshape(-1))
            np.testing.assert_array_equal(b.v[i], composition_vector(comp))
            assert b.lengths[i] == len(comp)


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
        assert state.queue.fill == 0

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
        _, metrics = train(cfg, self._dataset(cfg))
        kinds = [m.record_type for m in metrics]
        steps_per_epoch = (3 * 16 * 3 // 4 - 5 * 3) // 4  # unlabeled // batch
        assert kinds.count("epoch") == 2
        assert kinds.count("iteration") == metrics[-1].step

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
        # criterion 8's sizes; the calls are counted between the first two
        # encoder_step calls, which is one whole training iteration: keys at
        # theta_k, then one stacked forward at theta and one at theta'
        cfg = RunConfig(classes=4, per_class=24, height=8, width=8, noise=0.15,
                        hidden=(32, 16), proj_hidden=12, embed_dim=8, pmnn_hidden=8,
                        queue_capacity=16, batch_size=8, epochs=1, eval_epochs=10, seed=11)
        calls = {"encode_batch": 0, "encode_backward": 0}
        at_steps = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bilevel, name, counted(name, getattr(bilevel, name)))
        real_step = bilevel.encoder_step

        def step(*args, **kwargs):
            at_steps.append(dict(calls))
            return real_step(*args, **kwargs)

        monkeypatch.setattr(bilevel, "encoder_step", step)
        train(cfg, harness.build_dataset(cfg))
        first, second = at_steps[:2]
        assert {k: second[k] - first[k] for k in calls} == {"encode_batch": 3,
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
