from pathlib import Path

import numpy as np
import pytest

from cocor.augment import (BasicTransform, CompositeAugmentation, TransformId,
                           apply_composite, sample_composite)
from cocor.encoder import (EncoderConfig, encode_backward, encode_batch,
                           init_encoder_params, latent_deviation, load_checkpoint,
                           momentum_update, save_checkpoint)
from cocor.gradsuite import check_cross_entropy_encoder
from cocor.numcore import ParamSet, grad_check, make_rng

CFG = EncoderConfig(input_dim=12, hidden=(10, 8), proj_hidden=6, embed_dim=4)


def params_for(seed):
    return init_encoder_params(CFG, make_rng(seed, 70))


def raster_for(seed, h=3, w=4, c=1):
    return make_rng(seed, 71).uniform(0, 1, size=(h, w, c))


class TestEncode:
    def test_embeddings_unit_norm(self):
        params = params_for(1)
        x = make_rng(2, 72).uniform(0, 1, size=(5, 12))
        _, z, _ = encode_batch(CFG, params, x)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), np.ones(5), atol=1e-9)

    def test_zero_weights_nonzero_bias_constant_embedding(self):
        params = params_for(3)
        params.flat[:] = 0.0
        b = np.array([0.5, -1.0, 2.0, 0.25])
        params["proj1.b"][...] = b
        x1 = make_rng(4, 73).uniform(0, 1, size=(1, 12))
        x2 = make_rng(5, 73).uniform(0, 1, size=(1, 12))
        _, z1, _ = encode_batch(CFG, params, x1)
        _, z2, _ = encode_batch(CFG, params, x2)
        np.testing.assert_allclose(z1[0], b / np.linalg.norm(b), atol=1e-12)
        np.testing.assert_array_equal(z1, z2)

    @pytest.mark.parametrize("hidden", [(9,), (10, 8), (10, 9, 8)],
                             ids=["depth1", "depth2", "depth3"])
    def test_gradient_of_linear_functional_passes(self, hidden):
        # cotangents on both outputs: z through the head, features directly
        cfg = EncoderConfig(input_dim=12, hidden=hidden, proj_hidden=6, embed_dim=4)
        params = init_encoder_params(cfg, make_rng(6, 70))
        x = make_rng(7, 74).uniform(0.1, 0.9, size=(2, 12))
        c = make_rng(8, 75).standard_normal(4)
        c_feat = make_rng(9, 75).standard_normal(hidden[-1])

        def loss_fn(p):
            features, z, _ = encode_batch(cfg, p, x)
            return float(np.sum(z @ c) + np.sum(features @ c_feat))

        _, z, cache = encode_batch(cfg, params, x)
        analytic = encode_backward(cfg, params, cache, d_z=np.tile(c, (2, 1)),
                                   d_features=np.tile(c_feat, (2, 1)))
        assert grad_check(loss_fn, params, analytic) < 1e-5

    def test_feature_gradient_passes(self):
        assert check_cross_entropy_encoder(12) < 1e-5

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ValueError):
            encode_batch(CFG, params_for(9), np.zeros((2, 11)))

    def test_zero_norm_flagged_not_crashed(self):
        params = params_for(10)
        params.flat[:] = 0.0
        _, z, cache = encode_batch(CFG, params, np.zeros((2, 12)))
        assert np.count_nonzero(cache.zero_norm) == 2
        assert np.all(np.isfinite(z))

    def test_deterministic(self):
        params = params_for(11)
        x = make_rng(12, 76).uniform(0, 1, size=(3, 12))
        _, z1, _ = encode_batch(CFG, params, x)
        _, z2, _ = encode_batch(CFG, params, x)
        np.testing.assert_array_equal(z1, z2)

    def test_single_hidden_layer_config(self):
        cfg = EncoderConfig(input_dim=12, hidden=(9,), proj_hidden=5, embed_dim=3)
        params = init_encoder_params(cfg, make_rng(34, 70))
        x = make_rng(35, 72).uniform(0.1, 0.9, size=(2, 12))
        feats, z, cache = encode_batch(cfg, params, x)
        assert feats.shape == (2, 9) and z.shape == (2, 3)
        grads = encode_backward(cfg, params, cache, d_z=np.ones((2, 3)))
        assert grads.names() == params.names()


def augmented(img, comp):
    return apply_composite([comp], img[None])[0]


class TestLatentDeviation:
    def test_identity_composite_gives_one(self):
        comp = CompositeAugmentation((BasicTransform(TransformId.IDENTITY, 0.5),))
        img = raster_for(14)
        dev = latent_deviation(CFG, params_for(13), img, augmented(img, comp))
        assert abs(dev - 1.0) < 1e-9

    def test_antipodal_embeddings_give_minus_one(self):
        z = make_rng(15, 77).standard_normal(4)
        z /= np.linalg.norm(z)
        assert abs(float(z @ (-z)) - (-1.0)) < 1e-12

    def test_matches_two_independent_encodes(self):
        params = params_for(16)
        img = raster_for(17)
        comp = CompositeAugmentation((BasicTransform(TransformId.ROTATE, 0.6, 1),))
        aug = augmented(img, comp)
        dev = latent_deviation(CFG, params, img, aug)
        _, z_raw, _ = encode_batch(CFG, params, img.reshape(1, -1))
        _, z_aug, _ = encode_batch(CFG, params, aug.reshape(1, -1))
        assert abs(dev - float(z_raw[0] @ z_aug[0])) < 1e-12

    def test_bounded_by_one(self):
        rng = make_rng(18)
        params = params_for(19)
        for trial in range(20):
            comp_len = int(rng.integers(1, 5))
            comp = sample_composite(comp_len, 1.0, rng)
            img = raster_for(20 + trial)
            dev = latent_deviation(CFG, params, img, augmented(img, comp))
            assert -1.0 - 1e-12 <= dev <= 1.0 + 1e-12


class TestMomentumUpdate:
    def test_m_one_keeps_key_encoder(self):
        pk, pq = params_for(21), params_for(22)
        out = momentum_update(pk, pq, 1.0)
        for name in pk.names():
            np.testing.assert_array_equal(out[name], pk[name])

    def test_m_zero_copies_query(self):
        pk, pq = params_for(23), params_for(24)
        out = momentum_update(pk, pq, 0.0)
        for name in pq.names():
            np.testing.assert_array_equal(out[name], pq[name])

    def test_elementwise_oracle(self):
        pk, pq = params_for(25), params_for(26)
        k_before = pk.copy()
        out = momentum_update(pk, pq, 0.99)
        for name in pk.names():
            np.testing.assert_allclose(out[name],
                                       0.99 * k_before[name] + 0.01 * pq[name], atol=1e-12)

    def test_convex_combination_bounds(self):
        pk, pq = params_for(27), params_for(28)
        out = momentum_update(pk, pq, 0.7)
        for name in pk.names():
            lo = np.minimum(pk[name], pq[name])
            hi = np.maximum(pk[name], pq[name])
            assert np.all(out[name] >= lo - 1e-15) and np.all(out[name] <= hi + 1e-15)

    def test_matches_per_segment_formula_bitwise(self):
        pk, pq = params_for(35), params_for(36)
        k_before, q_before = pk.copy(), pq.flat.copy()
        out = momentum_update(pk, pq, 0.99)
        assert out.layout == pk.layout
        for name in pk.names():
            expected = 0.99 * k_before[name] + (1.0 - 0.99) * pq[name]
            assert out[name].tobytes() == expected.tobytes(), name
        np.testing.assert_array_equal(pq.flat, q_before)
        # updates theta_k in place
        assert out is pk

    def test_layout_mismatch_raises(self):
        other = init_encoder_params(EncoderConfig(12, (10, 7), 6, 4), make_rng(37, 70))
        with pytest.raises(ValueError):
            momentum_update(params_for(37), other, 0.5)

    def test_invalid_coefficient(self):
        with pytest.raises(ValueError):
            momentum_update(params_for(29), params_for(29), 1.5)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = params_for(30)
        path = str(tmp_path / "enc.ccor")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.names() == params.names()
        for name in params.names():
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_deterministic_bytes(self, tmp_path):
        params = params_for(31)
        p1, p2 = str(tmp_path / "a.ccor"), str(tmp_path / "b.ccor")
        save_checkpoint(p1, params)
        save_checkpoint(p2, params)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ccor"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_rejected(self, tmp_path):
        full = tmp_path / "full.ccor"
        save_checkpoint(str(full), params_for(32))
        data = full.read_bytes()
        for cut in (2, 10, len(data) // 2, len(data) - 3):
            clipped = tmp_path / f"cut{cut}.ccor"
            clipped.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(str(clipped))

    def test_repeated_segment_name_rejected(self, tmp_path):
        # two segments, both named encoder.bb0.w, with different shapes
        path = tmp_path / "dup.ccor"
        save_checkpoint(str(path), ParamSet({"encoder.bb0.w": np.ones((2, 2)),
                                             "encoder.bb0.v": np.ones(3)}))
        path.write_bytes(path.read_bytes().replace(b"bb0.v", b"bb0.w"))
        with pytest.raises(ValueError, match=r"dup\.ccor: repeated segment name 'encoder\.bb0\.w'"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.ccor"
        save_checkpoint(str(path), params_for(33))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(str(path))

    def test_header_layout(self, tmp_path):
        params = ParamSet({"w": np.array([[1.0, 2.0]])})
        path = str(tmp_path / "c.ccor")
        save_checkpoint(path, params)
        data = Path(path).read_bytes()
        assert data[:4] == b"CCOR"
        # version 1, one segment, name length 1, "w", ndim 2, dims (1, 2)
        assert data[4:8] == (1).to_bytes(4, "little")
        assert data[8:12] == (1).to_bytes(4, "little")
        assert data[12:16] == (1).to_bytes(4, "little")
        assert data[16:17] == b"w"

