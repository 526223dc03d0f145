from pathlib import Path

import numpy as np
import pytest

from cocor.bilevel import encoder_config
from cocor.config import parse_config_text
from cocor.encoder import (EncoderConfig, encode_backward, encode_batch, encode_features,
                           features_backward, init_encoder_params, load_checkpoint,
                           momentum_update, save_checkpoint)
from cocor.gradsuite import check_cross_entropy_encoder
from cocor.numcore import ParamSet, grad_check, make_rng
from test_acceptance import TREND_CONFIG
from test_cli import DETERMINISM_CFG, TINY_CFG

CFG = EncoderConfig(input_dim=12, hidden=(10, 8), proj_hidden=6, embed_dim=4)


def params_for(seed):
    return init_encoder_params(CFG, make_rng(seed, 70))


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
        # cotangents on both outputs: z through the head, features directly;
        # the backbone-only pass gives the features of the full one
        cfg = EncoderConfig(input_dim=12, hidden=hidden, proj_hidden=6, embed_dim=4)
        params = init_encoder_params(cfg, make_rng(6, 70))
        x = make_rng(7, 74).uniform(0.1, 0.9, size=(2, 12))
        c = make_rng(8, 75).standard_normal(4)
        c_feat = make_rng(9, 75).standard_normal(hidden[-1])

        def loss_fn(p):
            features, z, _ = encode_batch(cfg, p, x)
            return float(np.sum(z @ c) + np.sum(features @ c_feat))

        features, _, cache = encode_batch(cfg, params, x)
        features_only, backbone_cache = encode_features(cfg, params, x)
        assert features_only.tobytes() == features.tobytes()
        analytic = features_backward(cfg, params, backbone_cache, np.tile(c_feat, (2, 1)),
                                     out=encode_backward(cfg, params, cache,
                                                         d_z=np.tile(c, (2, 1))))
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

    def test_zero_norm_row_embeds_as_e0_and_passes_no_gradient(self):
        # every bias starts at zero, so an all-zero input row projects to 0
        params = params_for(10)
        x = make_rng(11, 72).uniform(0, 1, size=(3, 12))
        x[1] = 0.0
        _, z, cache = encode_batch(CFG, params, x)
        assert cache.zero_norm.tolist() == [False, True, False]
        np.testing.assert_array_equal(z[1], np.eye(1, 4)[0])
        d_z = make_rng(12, 72).standard_normal((3, 4))
        grads = encode_backward(CFG, params, cache, d_z=d_z)
        _, _, live = encode_batch(CFG, params, x[[0, 2]])
        np.testing.assert_allclose(
            grads.flat, encode_backward(CFG, params, live, d_z=d_z[[0, 2]]).flat,
            rtol=1e-12, atol=1e-15)

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


class TestRowBlocks:
    """A training step encodes 4b stacked rows: query, raw, augmented and
    labeled, b each. Batching changes that split the pass (a 3b-row pass over
    the unsupervised rows, a features-only pass over the labeled rows) are
    byte-identical only if a block of the pass gives the pass's own rows. This
    states that for the BLAS in use, at each pinned config's widths."""

    @pytest.mark.parametrize("which", ["trend", "determinism", "tiny"])
    def test_blocks_equal_the_stacked_pass(self, which):
        cfg = {"trend": TREND_CONFIG, "determinism": parse_config_text(DETERMINISM_CFG),
               "tiny": parse_config_text(TINY_CFG)}[which]
        enc_cfg, b = encoder_config(cfg), cfg.batch_size
        params = init_encoder_params(enc_cfg, make_rng(cfg.seed, 1))
        x = make_rng(cfg.seed, 80).uniform(0, 1, size=(4 * b, enc_cfg.input_dim))
        features, z, _ = encode_batch(enc_cfg, params, x)
        for start, stop in ((0, 3 * b), (0, b), (3 * b, 4 * b)):
            block_features, block_z, _ = encode_batch(enc_cfg, params, x[start:stop])
            assert block_features.tobytes() == features[start:stop].tobytes()
            assert block_z.tobytes() == z[start:stop].tobytes()
            assert (encode_features(enc_cfg, params, x[start:stop])[0].tobytes()
                    == features[start:stop].tobytes())


class TestMomentumUpdate:
    def test_m_one_keeps_key_encoder(self):
        pk, pq = params_for(21), params_for(22)
        k_before = pk.copy()
        momentum_update(pk, pq, 1.0)
        for name in pk.names():
            np.testing.assert_array_equal(pk[name], k_before[name])

    def test_m_zero_copies_query(self):
        pk, pq = params_for(23), params_for(24)
        momentum_update(pk, pq, 0.0)
        for name in pq.names():
            np.testing.assert_array_equal(pk[name], pq[name])

    def test_elementwise_oracle(self):
        pk, pq = params_for(25), params_for(26)
        k_before = pk.copy()
        momentum_update(pk, pq, 0.99)
        for name in pk.names():
            np.testing.assert_allclose(pk[name],
                                       0.99 * k_before[name] + 0.01 * pq[name], atol=1e-12)

    def test_convex_combination_bounds(self):
        pk, pq = params_for(27), params_for(28)
        k_before = pk.copy()
        momentum_update(pk, pq, 0.7)
        for name in pk.names():
            # bounds from the key encoder as it was before the in-place update
            lo = np.minimum(k_before[name], pq[name])
            hi = np.maximum(k_before[name], pq[name])
            assert np.all(pk[name] >= lo - 1e-15) and np.all(pk[name] <= hi + 1e-15)

    def test_matches_per_segment_formula_bitwise(self):
        pk, pq = params_for(35), params_for(36)
        k_before, q_before = pk.copy(), pq.flat.copy()
        k_flat = pk.flat
        assert momentum_update(pk, pq, 0.99) is None
        for name in pk.names():
            expected = 0.99 * k_before[name] + (1.0 - 0.99) * pq[name]
            assert pk[name].tobytes() == expected.tobytes(), name
        np.testing.assert_array_equal(pq.flat, q_before)
        # updates theta_k in place
        assert pk.flat is k_flat

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

