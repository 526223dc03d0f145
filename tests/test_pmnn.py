import math

import numpy as np
import pytest

from cocor import pmnn
from cocor.gradsuite import check_pmnn_mean_output
from cocor.numcore import ParamSet, grad_check, make_rng, softplus


def random_counts(rng, n, hi=9):
    return rng.integers(0, hi, size=(n, 14))


class TestMonotonicity:
    def test_single_coordinate_bumps(self):
        rng = make_rng(20)
        for trial in range(2_000):
            if trial % 200 == 0:
                params = pmnn.init_pmnn_params(make_rng(21, trial), hidden=8)
            v = rng.integers(0, 9, size=14)
            i = int(rng.integers(0, 14))
            bumped = v.copy()
            bumped[i] += 1
            assert (pmnn.predict_batch(params, bumped[None])
                    <= pmnn.predict_batch(params, v[None]) + 1e-12)

    def test_componentwise_chain_property(self):
        rng = make_rng(22)
        params = pmnn.init_pmnn_params(make_rng(23), hidden=16)
        for _ in range(500):
            v = rng.integers(0, 6, size=14)
            extra = rng.integers(0, 3, size=14)
            if extra.sum() == 0:
                extra[int(rng.integers(0, 14))] = 1
            assert (pmnn.predict_batch(params, (v + extra)[None])
                    <= pmnn.predict_batch(params, v[None]) + 1e-12)


class TestForward:
    def test_hand_evaluated_single_unit_oracle(self):
        # one hidden unit per layer; effective weights [1,0,...]/[1]/[1], zero biases.
        # softplus(raw) = 1 at raw = ln(e - 1); softplus(-1000) underflows to exactly 0.
        on = math.log(math.e - 1.0)
        off = -1000.0
        w1 = np.full((14, 1), off)
        w1[0, 0] = on
        params = ParamSet({
            "w1": w1, "b1": np.zeros(1),
            "w2": np.array([[on]]), "b2": np.zeros(1),
            "w3": np.array([[on]]), "b3": np.zeros(1),
        })
        assert softplus(np.array(off)) == 0.0
        v = np.zeros((1, 14))
        v[0, 0] = 1
        expected = math.tanh(1.0 * math.tanh(1.0 * math.tanh(-1.0)))
        assert abs(pmnn.predict_batch(params, v)[0] - expected) < 1e-15

    def test_output_range_open_interval(self):
        rng = make_rng(24)
        for trial in range(100):
            params = pmnn.init_pmnn_params(make_rng(25, trial), hidden=8)
            preds = pmnn.predict_batch(params, random_counts(rng, 100))
            assert np.all(preds > -1.0) and np.all(preds < 1.0)

    def test_wrong_input_dimension(self):
        params = pmnn.init_pmnn_params(make_rng(26), hidden=4)
        with pytest.raises(ValueError):
            pmnn.predict_batch(params, np.zeros(13))
        with pytest.raises(ValueError):
            pmnn.predict_batch(params, -np.ones(14))


class TestGradients:
    def test_matches_finite_differences(self):
        assert check_pmnn_mean_output(41) < 1e-6

    def test_identical_batch_equals_single_sample(self):
        params = pmnn.init_pmnn_params(make_rng(27), hidden=8)
        v = np.zeros((1, 14), dtype=np.int64)
        v[0, 3] = 2
        batch = np.repeat(v, 6, axis=0)
        single = pmnn.grad_wrt_params(params, v).flat
        averaged = pmnn.grad_wrt_params(params, batch).flat
        np.testing.assert_allclose(averaged, single, atol=1e-14)

    def test_zero_raw_weights_effective_ln2_gradient_nonzero(self):
        params = ParamSet({
            "w1": np.zeros((14, 4)), "b1": np.zeros(4),
            "w2": np.zeros((4, 4)), "b2": np.zeros(4),
            "w3": np.zeros((4, 1)), "b3": np.zeros(1),
        })
        assert abs(softplus(np.array(0.0)) - math.log(2.0)) < 1e-15
        # short composites keep the ln2-weighted sums out of tanh saturation
        v = np.zeros((2, 14), dtype=np.int64)
        v[0, 2] = 1
        v[1, 5] = 2

        def loss_fn(p):
            return float(np.mean(pmnn.predict_batch(p, v)))

        analytic = pmnn.grad_wrt_params(params, v)
        assert np.linalg.norm(analytic.flat) > 0
        assert grad_check(loss_fn, params, analytic) < 1e-6

    def test_empty_batch_rejected(self):
        params = pmnn.init_pmnn_params(make_rng(28), hidden=4)
        with pytest.raises(ValueError):
            pmnn.grad_wrt_params(params, np.zeros((0, 14)))

