import math

import numpy as np
import pytest

from cocor.numcore import (ParamSet, SgdState, affine_forward, cosine_lr, grad_check,
                           make_rng, path_rngs, philox_keys, sgd_step, sigmoid, softplus)


class TestAffine:
    def test_identity_weights_zero_bias(self):
        x = make_rng(1).standard_normal((5, 4))
        out = affine_forward(x, np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(out, x)

    def test_scalar_case(self):
        out = affine_forward(np.array([[2.0]]), np.array([[3.0]]), np.array([1.0]))
        assert out[0, 0] == 7.0

    def test_matches_triple_loop_oracle(self):
        rng = make_rng(2)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(5)
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                acc = b[j]
                for k in range(3):
                    acc += x[i, k] * w[k, j]
                expected[i, j] = acc
        np.testing.assert_allclose(affine_forward(x, w, b), expected, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            affine_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
        with pytest.raises(ValueError):
            affine_forward(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))


class TestActivations:
    def test_softplus_zero_is_ln2(self):
        assert abs(softplus(0.0) - math.log(2.0)) < 1e-15

    def test_sigmoid_analytic_values(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(math.log(3.0)) - 0.75) < 1e-15

    def test_softplus_overflow_safe(self):
        assert abs(softplus(100.0) - 100.0) < 1e-12
        assert np.isfinite(softplus(np.array([800.0, -800.0]))).all()

    def test_softplus_grad_is_sigmoid(self):
        # the softplus consistency loss differentiates softplus as sigmoid
        x, h = make_rng(3).standard_normal(50), 1e-5
        numeric = (softplus(x + h) - softplus(x - h)) / (2 * h)
        np.testing.assert_allclose(numeric, sigmoid(x), atol=1e-9)


class TestSgd:
    def test_zero_gradient_is_identity_without_wd(self):
        params = ParamSet({"w": make_rng(4).standard_normal((3, 3))})
        state = SgdState.init(params, base_lr=0.1, momentum=0.9, weight_decay=0.0)
        out = sgd_step(params, params.zeros_like(), state)
        np.testing.assert_array_equal(out["w"], params["w"])

    def test_zero_gradient_identity_up_to_weight_decay(self):
        params = ParamSet({"w": make_rng(4, 1).standard_normal(5)})
        state = SgdState.init(params, base_lr=0.1, momentum=0.0, weight_decay=0.01)
        out = sgd_step(params, params.zeros_like(), state)
        np.testing.assert_allclose(out["w"], params["w"] * (1.0 - 0.1 * 0.01),
                                   atol=1e-15)

    def test_single_plain_step(self):
        rng = make_rng(5)
        params = ParamSet({"w": rng.standard_normal(6)})
        grads = ParamSet({"w": rng.standard_normal(6)})
        state = SgdState.init(params, base_lr=0.1)
        out = sgd_step(params, grads, state)
        np.testing.assert_allclose(out["w"], params["w"] - 0.1 * grads["w"], atol=1e-15)

    def test_two_momentum_steps_match_scalar_recurrence(self):
        # oracle: v <- m v + (g + wd p); p <- p - lr v, run by hand per scalar
        rng = make_rng(6)
        p = rng.standard_normal(4)
        g1 = rng.standard_normal(4)
        g2 = rng.standard_normal(4)
        lr, m, wd = 0.05, 0.9, 0.01

        p_ref = p.copy()
        v_ref = np.zeros(4)
        for g in (g1, g2):
            for i in range(4):
                v_ref[i] = m * v_ref[i] + (g[i] + wd * p_ref[i])
                p_ref[i] = p_ref[i] - lr * v_ref[i]

        params = ParamSet({"w": p})
        state = SgdState.init(params, base_lr=lr, momentum=m, weight_decay=wd)
        params = sgd_step(params, ParamSet({"w": g1}), state)
        params = sgd_step(params, ParamSet({"w": g2}), state)
        np.testing.assert_allclose(params["w"], p_ref, atol=1e-12)

    def test_shape_mismatch_raises(self):
        params = ParamSet({"w": np.zeros(3)})
        state = SgdState.init(params, base_lr=0.1)
        with pytest.raises(ValueError):
            sgd_step(params, ParamSet({"w": np.zeros(4)}), state)


class TestCosineSchedule:
    def test_starts_at_base(self):
        assert cosine_lr(0.03, 0, 100) == 0.03

    def test_non_increasing_and_positive(self):
        lrs = [cosine_lr(0.03, t, 50) for t in range(50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert all(0.0 < lr <= 0.03 for lr in lrs)


class TestGradCheck:
    def test_quadratic_loss_exact(self):
        rng = make_rng(7)
        params = ParamSet({"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5)})

        def loss_fn(p):
            return 0.5 * float(np.sum(p.to_flat() ** 2))

        err = grad_check(loss_fn, params, params.copy())
        assert err < 1e-9

    def test_non_finite_loss_raises(self):
        params = ParamSet({"a": np.ones(2)})
        with pytest.raises(RuntimeError):
            grad_check(lambda p: float("nan"), params, params.zeros_like())

    def test_nan_analytic_coordinate_fails(self):
        params = ParamSet({"w": np.array([1.0, 2.0])})
        analytic = ParamSet({"w": np.array([np.nan, 4.0])})
        err = grad_check(lambda p: float(np.sum(p["w"] ** 2)), params, analytic)
        assert not err < 1e-5


class TestParamSet:
    def test_flat_round_trip_preserves_order(self):
        rng = make_rng(8)
        ps = ParamSet({"z": rng.standard_normal((2, 3)), "a": rng.standard_normal(4)})
        flat = ps.to_flat()
        assert flat.size == 10
        rebuilt = ps.with_flat(flat)
        for name in ps.names():
            np.testing.assert_array_equal(rebuilt[name], ps[name])
        # insertion order, not alphabetical
        assert ps.names() == ["z", "a"]
        np.testing.assert_array_equal(flat[:6], ps["z"].ravel())

    def test_segment_shape_guard(self):
        ps = ParamSet({"w": np.zeros((2, 2))})
        with pytest.raises(ValueError):
            ps["w"] = np.zeros(3)

    def test_check_finite(self):
        ps = ParamSet({"w": np.array([1.0, float("inf")])})
        with pytest.raises(FloatingPointError):
            ps.check_finite()

    def test_add_scaled_mismatch(self):
        with pytest.raises(ValueError):
            ParamSet({"w": np.zeros(2)}).add_scaled(ParamSet({"v": np.zeros(2)}), 1.0)


def test_make_rng_is_path_deterministic():
    a = make_rng(1, 2, 3).standard_normal(5)
    b = make_rng(1, 2, 3).standard_normal(5)
    c = make_rng(1, 2, 4).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# Seed paths on each side of SeedSequence's four-word pool, with zero entries
# and master seeds that take two or three 32-bit words.
SEED_PATHS = [
    (0, 0), (7, 3), (2**32, 5), (2**32 - 1, 0),
    (0, 5, 0), (11, 2**32 + 3, 4), (2**64 + 5, 1, 2),
    (3, 5, 17, 42, 2), (0, 0, 0, 0, 0), (2**33 + 1, 5, 7, 0, 1),
    (1, 2, 3, 4, 5, 6), (2**40, 0, 9, 63, 2, 1), (0, 0, 0, 0, 0, 0),
]


class TestPathRngs:
    @pytest.mark.parametrize("path", SEED_PATHS)
    def test_key_equals_numpy_seed_sequence(self, path):
        oracle = np.random.Philox(np.random.SeedSequence(path)).state["state"]["key"]
        np.testing.assert_array_equal(philox_keys([path])[0], oracle)

    def test_mixed_path_lengths_in_one_call(self):
        keys = philox_keys(SEED_PATHS)
        assert keys.shape == (len(SEED_PATHS), 2) and keys.dtype == np.uint64
        for path, key in zip(SEED_PATHS, keys):
            oracle = np.random.Philox(np.random.SeedSequence(path)).state["state"]["key"]
            np.testing.assert_array_equal(key, oracle)

    def test_draws_equal_make_rng(self):
        for path, rng in zip(SEED_PATHS, path_rngs(SEED_PATHS), strict=True):
            ref = make_rng(*path)
            assert rng.random() == ref.random()
            np.testing.assert_array_equal(rng.integers(0, 14, size=3),
                                          ref.integers(0, 14, size=3))
            np.testing.assert_array_equal(rng.standard_normal(7), ref.standard_normal(7))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            philox_keys([(1, -2)])
