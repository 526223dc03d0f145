import math

import numpy as np
import pytest

from cocor.numcore import (RELU, TANH, ParamSet, SgdState, cosine_lr, grad_check, make_rng,
                           mlp_backward, mlp_forward, path_rngs, philox_keys, sgd_step,
                           sigmoid, softplus)


def affine(x, w, b):
    """A one-layer affine stack: x @ w + b."""
    return mlp_forward([(w, b, None)], x)[0]


class TestAffine:
    def test_identity_weights_zero_bias(self):
        x = make_rng(1).standard_normal((5, 4))
        out = affine(x, np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(out, x)

    def test_scalar_case(self):
        out = affine(np.array([[2.0]]), np.array([[3.0]]), np.array([1.0]))
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
        np.testing.assert_allclose(affine(x, w, b), expected, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            affine(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
        with pytest.raises(ValueError):
            affine(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))


class TestLayerStack:
    @staticmethod
    def layers(rng, widths, act=RELU):
        return [(rng.standard_normal((a, b)), rng.standard_normal(b), act)
                for a, b in zip(widths, widths[1:])]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_broken_chain_raises_before_any_layer(self, position):
        layers = self.layers(make_rng(6), (3, 5, 4, 2))
        w, b, act = layers[position]
        layers[position] = (w[:-1], b, act)  # one weight row short of its input
        calls = []

        def spy(pre):
            calls.append(pre)
            return pre

        layers[0] = (*layers[0][:2], (spy, None))
        with pytest.raises(ValueError, match=f"weight rows {w.shape[0] - 1}"):
            mlp_forward(layers, np.zeros((2, 3)))
        assert not calls

    def test_bias_mismatch_deep_in_stack_raises(self):
        layers = self.layers(make_rng(7), (3, 5, 4))
        layers[1] = (layers[1][0], np.zeros(3), RELU)
        with pytest.raises(ValueError, match=r"bias shape \(3,\) != \(4,\)"):
            mlp_forward(layers, np.zeros((2, 3)))

    def test_non_2d_input_or_weights_raise(self):
        layers = self.layers(make_rng(8), (3, 4))
        with pytest.raises(ValueError, match="2-D"):
            mlp_forward(layers, np.zeros(3))
        with pytest.raises(ValueError, match="2-D"):
            mlp_forward([(np.zeros(3), np.zeros(3), None)], np.zeros((2, 3)))

    def test_matches_layer_by_layer_expression_bitwise(self):
        rng = make_rng(9)
        layers = self.layers(rng, (6, 5, 4, 3), act=TANH)
        x = rng.standard_normal((4, 6))
        out, cache = mlp_forward(layers, x)
        h = x
        for (w, b, _), (cached_x, cached_pre) in zip(layers, cache):
            pre = h @ w + b
            np.testing.assert_array_equal(cached_x, h)
            np.testing.assert_array_equal(cached_pre, pre)
            h = np.tanh(pre)
        np.testing.assert_array_equal(out, h)

    def test_backward_matches_finite_differences(self):
        rng = make_rng(10)
        layers = self.layers(rng, (4, 5, 3), act=TANH)
        x = rng.standard_normal((3, 4))
        d_out = rng.standard_normal((3, 3))
        params = ParamSet({f"{k}{i}": arr for i, (w, b, _) in enumerate(layers)
                           for k, arr in (("w", w), ("b", b))})

        def stack(p):
            return [(p[f"w{i}"], p[f"b{i}"], TANH) for i in range(len(layers))]

        def loss(p):
            return float(np.sum(mlp_forward(stack(p), x)[0] * d_out))

        _, cache = mlp_forward(stack(params), x)
        grads = mlp_backward(stack(params), cache, d_out)
        analytic = ParamSet({f"{k}{i}": arr for i, (d_w, d_b) in enumerate(grads)
                             for k, arr in (("w", d_w), ("b", d_b))})
        assert grad_check(loss, params, analytic, h=1e-6) < 1e-6


class TestActivations:
    def test_softplus_zero_is_ln2(self):
        assert abs(softplus(0.0) - math.log(2.0)) < 1e-15

    def test_sigmoid_analytic_values(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(math.log(3.0)) - 0.75) < 1e-15

    def test_softplus_overflow_safe(self):
        assert abs(softplus(100.0) - 100.0) < 1e-12
        assert np.isfinite(softplus(np.array([800.0, -800.0]))).all()

    def test_scalar_branch_matches_array_branch_bitwise(self):
        # softplus(k) and sigmoid(k) of the per-length gaps take the scalar
        # branch; the arrays' masked branch defines their values
        rng = make_rng(11)
        x = np.concatenate([rng.uniform(-40.0, 40.0, 500), rng.standard_normal(500),
                            [0.0, -0.0, 30.0, 31.0, -30.0, 700.0, -700.0]])
        for fn in (softplus, sigmoid):
            scalar = np.array([fn(v) for v in x.tolist()])
            assert all(type(fn(v)) is float for v in (0.5, np.float64(-2.0), 40.0))
            np.testing.assert_array_equal(scalar.view(np.uint64), fn(x).view(np.uint64))

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

    def test_matches_per_segment_formula_bitwise(self):
        rng = make_rng(9)
        shapes = {"w": (3, 4), "b": (4,), "u": (2, 1)}
        lr0, m, wd = 0.07, 0.9, 1e-3
        params = ParamSet({k: rng.standard_normal(s) for k, s in shapes.items()})
        state = SgdState.init(params, base_lr=lr0, momentum=m, weight_decay=wd,
                              total_steps=5)
        ref = {k: v.copy() for k, v in params.items()}
        velocity = {k: np.zeros(s) for k, s in shapes.items()}
        for _ in range(3):
            grads = ParamSet({k: rng.standard_normal(s) for k, s in shapes.items()})
            p_before, g_before = params.flat.copy(), grads.flat.copy()
            lr = state.current_lr()
            new = sgd_step(params, grads, state)
            np.testing.assert_array_equal(params.flat, p_before)
            np.testing.assert_array_equal(grads.flat, g_before)
            assert not np.shares_memory(new.flat, params.flat)
            for k in shapes:
                velocity[k] = m * velocity[k] + (grads[k] + wd * ref[k])
                ref[k] = ref[k] - lr * velocity[k]
                assert new[k].tobytes() == ref[k].tobytes(), k
            np.testing.assert_array_equal(
                state.buffers, np.concatenate([v.ravel() for v in velocity.values()]))
            params = new
        assert state.step == 3

    def test_non_finite_update_names_segment(self):
        params = ParamSet({"a": np.zeros(2), "b": np.zeros(2)})
        state = SgdState.init(params, base_lr=0.1)
        with pytest.raises(FloatingPointError, match="'b' after sgd_step"):
            sgd_step(params, ParamSet({"a": np.zeros(2), "b": np.array([0.0, np.inf])}), state)


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
            return 0.5 * float(np.sum(p.flat ** 2))

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

    def test_params_unchanged(self):
        rng = make_rng(7, 1)
        params = ParamSet({"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)})
        snapshot = params.flat.copy()
        seen = []

        def loss_fn(p):
            seen.append(p.flat is params.flat)
            return float(np.sum(np.sin(p["a"])) + np.sum(p["b"] ** 3))

        analytic = ParamSet({"a": np.cos(params["a"]), "b": 3.0 * params["b"] ** 2})
        assert grad_check(loss_fn, params, analytic) < 1e-6
        np.testing.assert_array_equal(params.flat, snapshot)
        assert seen and not any(seen)

    def test_layout_mismatch_raises(self):
        params = ParamSet({"a": np.ones((2, 3))})
        with pytest.raises(ValueError):
            grad_check(lambda p: 0.0, params, ParamSet({"a": np.ones((3, 2))}))


class TestParamSet:
    def test_flat_round_trip_preserves_order(self):
        rng = make_rng(8)
        z, a = rng.standard_normal((2, 3)), rng.standard_normal(4)
        ps = ParamSet({"z": z, "a": a})
        np.testing.assert_array_equal(ps["z"], z)
        np.testing.assert_array_equal(ps["a"], a)
        # insertion order, not alphabetical; each segment row-major
        assert ps.names() == ["z", "a"]
        assert ps.layout == (("z", (2, 3)), ("a", (4,)))
        np.testing.assert_array_equal(ps.flat, np.concatenate([z.ravel(), a]))
        assert ps.flat.flags.c_contiguous and ps.flat.dtype == np.float64

    def test_views_alias_the_vector(self):
        src = np.arange(6.0).reshape(2, 3)
        ps = ParamSet({"w": src, "b": np.zeros(2)})
        src[0, 0] = 99.0  # the constructor copied its input
        assert ps["w"][0, 0] == 0.0
        ps["w"][1, 2] = -1.0
        assert ps.flat[5] == -1.0
        ps.flat[6] = 7.0
        assert ps["b"][0] == 7.0
        for _, view in ps.items():
            assert np.shares_memory(view, ps.flat)

    def test_copy_does_not_alias(self):
        ps = ParamSet({"w": np.ones((2, 2)), "b": np.ones(2)})
        dup = ps.copy()
        assert dup.layout == ps.layout
        assert not np.shares_memory(dup.flat, ps.flat)
        dup["w"][0, 0] = 5.0
        dup.flat[-1] = 6.0
        np.testing.assert_array_equal(ps.flat, np.ones(6))
        assert all(np.shares_memory(view, dup.flat) for _, view in dup.items())

    def test_zeros_like_and_scale_keep_layout(self):
        ps = ParamSet({"w": np.full((2, 2), 2.0), "b": np.array([-1.0, 3.0])})
        zeros, scaled = ps.zeros_like(), ps.scale(0.5)
        assert zeros.layout == scaled.layout == ps.layout
        np.testing.assert_array_equal(zeros.flat, np.zeros(6))
        np.testing.assert_array_equal(scaled["b"], [-0.5, 1.5])
        np.testing.assert_array_equal(ps["b"], [-1.0, 3.0])

    def test_check_finite(self):
        ParamSet({"w": np.ones(2)}).check_finite()
        # names the first non-finite segment
        ps = ParamSet({"a": np.ones(2), "b": np.array([1.0, np.nan]), "c": np.array([np.inf])})
        with pytest.raises(FloatingPointError, match="segment 'b' after x"):
            ps.check_finite("after x")

    def test_layout_mismatch_raises(self):
        state = SgdState.init(ParamSet({"w": np.zeros(2)}), base_lr=0.1)
        with pytest.raises(ValueError, match="layouts differ"):
            sgd_step(ParamSet({"w": np.zeros(2)}), ParamSet({"v": np.zeros(2)}), state)
        with pytest.raises(ValueError, match="layouts differ"):
            sgd_step(ParamSet({"w": np.zeros(2)}), ParamSet({"w": np.zeros((1, 2))}), state)

    def test_like_rejects_wrong_size(self):
        ps = ParamSet({"w": np.zeros((2, 2))})
        with pytest.raises(ValueError):
            ps.like(np.zeros(5))


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


def _word_count(path):
    """Entropy words a seed path assembles: 32 bits each, at least one per entry."""
    return sum(max(1, -(-n.bit_length() // 32)) for n in path)


class TestPathRngs:
    @pytest.mark.parametrize("path", SEED_PATHS)
    def test_key_equals_numpy_seed_sequence(self, path):
        oracle = np.random.Philox(np.random.SeedSequence(path)).state["state"]["key"]
        np.testing.assert_array_equal(philox_keys([path])[0], oracle)

    def test_draws_equal_make_rng(self):
        # one call takes paths of one word count
        for count in {_word_count(p) for p in SEED_PATHS}:
            paths = [p for p in SEED_PATHS if _word_count(p) == count]
            for path, rng in zip(paths, path_rngs(paths), strict=True):
                ref = make_rng(*path)
                assert rng.random() == ref.random()
                np.testing.assert_array_equal(rng.integers(0, 14, size=3),
                                              ref.integers(0, 14, size=3))
                np.testing.assert_array_equal(rng.standard_normal(7), ref.standard_normal(7))

    def test_unequal_word_counts_rejected(self):
        # (0, 0) is two entropy words, (2**32, 5) is three
        with pytest.raises(ValueError):
            philox_keys([(0, 0), (2**32, 5)])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            philox_keys([(1, -2)])

    def test_trailing_zero_pads_the_path(self):
        # SeedSequence pads a path with zero words: a trailing zero does not
        # make a second generator
        np.testing.assert_array_equal(make_rng(3, 4).random(5), make_rng(3, 4, 0).random(5))
