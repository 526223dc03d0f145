import collections
import math
import pickle

import numpy as np
import pytest

from cocor import bilevel
from cocor.cli import GRAD_CHECK_TOL
from cocor.gradsuite import (SUITE_SEEDS, check_consistency_abs,
                             check_consistency_softplus, check_contrastive,
                             check_cross_entropy_probe, check_total_unsup)
from cocor.losses import (NegativeQueue, consistency_loss_abs,
                          consistency_loss_softplus, contrastive_loss, cross_entropy)
from cocor.numcore import ParamSet, make_rng


def unit_rows(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestQueue:
    def test_fifo_eviction(self):
        q = NegativeQueue(capacity=2, dim=3)
        for i in range(3):
            q.push(np.eye(3)[i:i + 1])
        np.testing.assert_array_equal(q.rows, np.eye(3)[1:])

    def test_full_batch_replaces_contents(self):
        rng = make_rng(30)
        q = NegativeQueue(capacity=4, dim=5)
        q.push(unit_rows(rng, 4, 5))
        fresh = unit_rows(rng, 4, 5)
        q.push(fresh)
        np.testing.assert_array_equal(q.rows, fresh)

    def test_interleaved_matches_deque_oracle(self):
        rng = make_rng(31)
        q = NegativeQueue(capacity=5, dim=4)
        oracle = collections.deque(maxlen=5)
        for step in range(20):
            batch = unit_rows(rng, int(rng.integers(1, 4)), 4)
            q.push(batch)
            oracle.extend(batch)
            np.testing.assert_array_equal(q.rows, np.stack(list(oracle)))
            assert len(q.rows) <= q.capacity

    def test_deque_oracle_across_wrap_and_oversized_pushes(self):
        rng = make_rng(32)
        q = NegativeQueue(capacity=5, dim=4)
        oracle = collections.deque(maxlen=5)
        # pushes that end exactly at, straddle, and overrun the wrap point,
        # several of them larger than the capacity
        for size in (3, 4, 1, 7, 5, 2, 11, 3, 5, 6, 1, 9):
            batch = unit_rows(rng, size, 4)
            q.push(batch)
            oracle.extend(batch)
            np.testing.assert_array_equal(q.rows, np.stack(list(oracle)))
            assert len(q.rows) == len(oracle)

    @pytest.mark.parametrize("first", [2, 6], ids=["partial", "wrapped"])
    def test_snapshot_is_read_only_and_refreshed_by_push(self, first):
        rng = make_rng(33)
        q = NegativeQueue(capacity=4, dim=3)
        q.push(unit_rows(rng, first, 3))
        snap = q.rows
        assert q.rows is snap
        with pytest.raises(ValueError):
            snap[0, 0] = 0.0
        held = snap.copy()
        row = unit_rows(rng, 1, 3)
        q.push(row)
        np.testing.assert_array_equal(snap, held)  # a push never writes an old snapshot
        fresh = q.rows
        assert fresh is not snap
        np.testing.assert_array_equal(fresh, np.concatenate([held, row])[-4:])

    def test_non_unit_rejected(self):
        q = NegativeQueue(capacity=2, dim=3)
        with pytest.raises(ValueError):
            q.push(np.array([[1.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_row_rejected(self, bad):
        # a NaN norm compares False against any bound, so it must fail the test too
        q = NegativeQueue(capacity=2, dim=2)
        with pytest.raises(ValueError, match="unit-norm"):
            q.push(np.array([[bad, bad], [1.0, 0.0]]))
        assert len(q.rows) == 0

    @pytest.mark.parametrize("rows", [np.eye(3)[0], np.eye(4)[:2]], ids=["1-D", "wide"])
    def test_rows_of_another_shape_rejected(self, rows):
        q = NegativeQueue(capacity=2, dim=3)
        with pytest.raises(ValueError):
            q.push(rows)

    def test_single_push_larger_than_capacity(self):
        rng = make_rng(96)
        q = NegativeQueue(capacity=3, dim=4)
        batch = unit_rows(rng, 5, 4)
        q.push(batch)
        np.testing.assert_array_equal(q.rows, batch[-3:])

    @pytest.mark.parametrize("capacity, batches", [(5, 1), (5, 2), (6, 3), (5, 3), (5, 4)],
                             ids=["below", "just-below", "at", "over", "twice-over"])
    def test_one_stacked_push_equals_pushing_each_batch(self, capacity, batches):
        # batches of 2 rows; capacity 5 is not a multiple of the batch
        rng = make_rng(34)
        parts = [unit_rows(rng, 2, 3) for _ in range(batches)]
        one = NegativeQueue(capacity=capacity, dim=3)
        each = NegativeQueue(capacity=capacity, dim=3)
        one.push(np.concatenate(parts))
        for part in parts:
            each.push(part)
        assert len(one.rows) == len(each.rows) == min(2 * batches, capacity)
        assert one.rows.tobytes() == each.rows.tobytes()


class TestContrastive:
    def test_equal_logits_single_negative_is_ln2(self):
        z = np.array([[1.0, 0.0]])
        z_pos = np.array([[0.0, 1.0]])
        q = NegativeQueue(capacity=1, dim=2)
        q.push(np.array([[0.0, 1.0]]))  # same logit as the positive
        loss, _ = contrastive_loss(z, z_pos, q, tau=0.2)
        assert abs(loss - math.log(2.0)) < 1e-9

    def test_uniform_logits_4095_negatives(self):
        z = np.array([[1.0, 0.0]])
        z_pos = np.array([[0.0, 1.0]])
        q = NegativeQueue(capacity=4095, dim=2)
        q.push(np.tile(np.array([[0.0, 1.0]]), (4095, 1)))
        loss, _ = contrastive_loss(z, z_pos, q, tau=0.2)
        assert abs(loss - math.log(4096.0)) < 1e-9
        assert abs(loss - 8.317766) < 1e-6

    def test_matches_log_softmax_oracle(self):
        rng = make_rng(32)
        z = unit_rows(rng, 4, 6)
        z_pos = unit_rows(rng, 4, 6)
        q = NegativeQueue(capacity=16, dim=6)
        q.push(unit_rows(rng, 16, 6))
        tau = 0.2
        loss, _ = contrastive_loss(z, z_pos, q, tau)

        negs = q.rows
        per_sample = []
        for i in range(4):
            logits = np.concatenate([[z[i] @ z_pos[i]], negs @ z[i]]) / tau
            log_probs = logits - (np.max(logits)
                                  + np.log(np.sum(np.exp(logits - np.max(logits)))))
            per_sample.append(-log_probs[0])
        assert abs(loss - np.mean(per_sample)) < 1e-10

    def test_gradients_pass_finite_differences(self):
        assert check_contrastive(32) < 1e-5

    def test_gradient_two_samples_one_negative(self):
        # minimal configuration: batch of two queries against a single negative
        from cocor.encoder import encode_backward, encode_batch, init_encoder_params
        from cocor.gradsuite import TINY_ENC
        from cocor.numcore import grad_check

        rng = make_rng(95)
        params = init_encoder_params(TINY_ENC, rng)
        x = rng.uniform(0.1, 0.9, size=(2, TINY_ENC.input_dim))
        z_keys = unit_rows(rng, 2, TINY_ENC.embed_dim)
        queue = NegativeQueue(capacity=1, dim=TINY_ENC.embed_dim)
        queue.push(unit_rows(rng, 1, TINY_ENC.embed_dim))

        def loss_fn(p):
            _, z, _ = encode_batch(TINY_ENC, p, x)
            loss, _ = contrastive_loss(z, z_keys, queue, 0.2)
            return loss

        _, z, cache = encode_batch(TINY_ENC, params, x)
        _, d_z = contrastive_loss(z, z_keys, queue, 0.2)
        analytic = encode_backward(TINY_ENC, params, cache, d_z=d_z)
        assert grad_check(loss_fn, params, analytic) < 1e-5

    def test_empty_queue_is_state_error(self):
        q = NegativeQueue(capacity=4, dim=2)
        with pytest.raises(RuntimeError):
            contrastive_loss(np.eye(2), np.eye(2), q, tau=0.2)

    def test_nonpositive_temperature_rejected(self):
        q = NegativeQueue(capacity=4, dim=2)
        q.push(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(2), np.eye(2), q, tau=0.0)

    def test_loss_nonnegative(self):
        rng = make_rng(33)
        q = NegativeQueue(capacity=8, dim=4)
        q.push(unit_rows(rng, 8, 4))
        for _ in range(10):
            loss, _ = contrastive_loss(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4),
                                       q, tau=0.5)
            assert loss >= 0.0

    def test_extreme_temperature_stays_finite(self):
        rng = make_rng(97)
        q = NegativeQueue(capacity=8, dim=4)
        q.push(unit_rows(rng, 8, 4))
        loss, d_z = contrastive_loss(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4),
                                     q, tau=0.01)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(d_z))


class TestConsistencyAbs:
    def test_zero_when_equal(self):
        omega = np.array([0.3, -0.2, 0.9])
        loss, d_o, k = consistency_loss_abs(omega, omega.copy(), np.ones(3, dtype=int))
        assert loss == 0.0
        np.testing.assert_array_equal(d_o, np.zeros(3))
        assert k == {1: 0.0}

    def test_symmetric_offsets(self):
        loss, _, _ = consistency_loss_abs(np.array([0.5, 0.1]), np.array([0.3, 0.3]),
                                          np.ones(2, dtype=int))
        assert abs(loss - 0.2) < 1e-15

    def test_matches_scalar_oracle(self):
        rng = make_rng(34)
        omega = rng.uniform(-1, 1, size=10)
        g = rng.uniform(-1, 1, size=10)
        lengths = np.array([1, 2] * 5)
        loss, d_o, k = consistency_loss_abs(omega, g, lengths)
        assert abs(loss - sum(abs(a - b) for a, b in zip(omega, g)) / 10) < 1e-15
        np.testing.assert_array_equal(d_o, np.sign(omega - g) / 10)
        assert k == {1: np.mean(omega[::2] - g[::2]), 2: np.mean(omega[1::2] - g[1::2])}

    def test_gradient_passes_away_from_ties(self):
        assert check_consistency_abs(38) < 1e-5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            consistency_loss_abs(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))


class TestConsistencySoftplus:
    def test_zero_gap_gives_ln2(self):
        omega = np.array([0.5, 0.3])
        g = np.array([0.3, 0.5])  # mean gap 0
        loss, _, k = consistency_loss_softplus(omega, g, np.ones(2, dtype=int))
        assert abs(loss - math.log(2.0)) < 1e-12
        assert abs(k[1]) < 1e-15

    def test_large_negative_gap_vanishes(self):
        loss, _, _ = consistency_loss_softplus(np.array([-10.0]), np.array([10.0]),
                                               np.array([1]))
        assert loss < 1e-8

    def test_two_groups_match_hand_oracle(self):
        rng = make_rng(35)
        o1, g1 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        o2, g2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        lengths = np.array([1, 1, 1, 1, 2, 2, 2])
        loss, d_o, k = consistency_loss_softplus(np.concatenate([o1, o2]),
                                                 np.concatenate([g1, g2]), lengths)
        k1 = np.mean(o1 - g1)
        k2 = np.mean(o2 - g2)
        expected = 0.5 * (math.log1p(math.exp(k1)) + math.log1p(math.exp(k2)))
        assert abs(loss - expected) < 1e-12
        assert abs(k[1] - k1) < 1e-15 and abs(k[2] - k2) < 1e-15
        sig1 = 1.0 / (1.0 + math.exp(-k1))
        sig2 = 1.0 / (1.0 + math.exp(-k2))
        np.testing.assert_allclose(d_o[:4], np.full(4, sig1 / (2 * 4)), atol=1e-15)
        np.testing.assert_allclose(d_o[4:], np.full(3, sig2 / (2 * 3)), atol=1e-15)

    def test_strictly_increasing_in_each_gap(self):
        g, lengths = np.array([0.1, 0.1]), np.ones(2, dtype=int)
        loss0, _, _ = consistency_loss_softplus(np.array([0.2, 0.4]), g, lengths)
        loss1, _, _ = consistency_loss_softplus(np.array([0.25, 0.45]), g, lengths)
        assert loss1 > loss0

    def test_positive_always(self):
        rng = make_rng(36)
        for _ in range(50):
            loss, _, _ = consistency_loss_softplus(
                rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5), np.ones(5, dtype=int))
            assert loss > 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            consistency_loss_softplus(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            consistency_loss_softplus(np.zeros(2), np.zeros(3), np.ones(2, dtype=int))
        with pytest.raises(ValueError):
            consistency_loss_softplus(np.zeros(2), np.zeros(2), np.ones(3, dtype=int))

    def test_gradient_passes(self):
        assert check_consistency_softplus(38) < 1e-5


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((4, 10)), np.array([0, 3, 7, 9]))
        assert abs(loss - math.log(10.0)) < 1e-12

    def test_saturated_true_class(self):
        logits = np.zeros((2, 5))
        logits[0, 2] = 30.0
        logits[1, 4] = 30.0
        loss, _ = cross_entropy(logits, np.array([2, 4]))
        assert loss < 1e-12

    def test_matches_softmax_oracle(self):
        rng = make_rng(37)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        loss, d = cross_entropy(logits, labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(6), labels]))
        assert abs(loss - expected) < 1e-12
        onehot = np.zeros((6, 4))
        onehot[np.arange(6), labels] = 1.0
        np.testing.assert_allclose(d, (probs - onehot) / 6, atol=1e-12)

    def test_out_of_range_label(self):
        # the label checks live in head_ce, the caller that takes labels from a
        # dataset; cross_entropy's own callers build theirs in range
        head = ParamSet({"w": np.zeros((4, 3)), "b": np.zeros(3)})
        for labels in (np.array([0, 3]), np.array([-1, 0]), np.array([0, 1, 2])):
            with pytest.raises(ValueError):
                bilevel.head_ce(head, np.zeros((2, 4)), labels)

    def test_gradient_passes(self):
        assert check_cross_entropy_probe(39) < 1e-5


def bits(value):
    # pickle keeps every float's 8 bytes (so -0.0 too) and dict order
    return pickle.dumps(value)


class TestLossOnly:
    """Each loss with want_grad=False returns bitwise what its gradient call
    returns, and None for the cotangent."""

    def test_contrastive(self):
        rng = make_rng(37)
        z, z_pos = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)
        q = NegativeQueue(capacity=32, dim=6)
        q.push(unit_rows(rng, 20, 6))
        for tau in (0.2, 0.01):
            loss, d_z = contrastive_loss(z, z_pos, q, tau)
            loss_only, none = contrastive_loss(z, z_pos, q, tau, want_grad=False)
            assert d_z is not None and none is None
            assert bits(loss_only) == bits(loss)

    def test_cross_entropy(self):
        rng = make_rng(38)
        logits, labels = rng.standard_normal((6, 4)) * 3, np.array([0, 3, 1, 1, 2, 0])
        loss, d_logits = cross_entropy(logits, labels)
        loss_only, none = cross_entropy(logits, labels, want_grad=False)
        assert d_logits is not None and none is None
        assert bits(loss_only) == bits(loss)

    @pytest.mark.parametrize("loss_fn", [consistency_loss_abs, consistency_loss_softplus])
    def test_consistency(self, loss_fn):
        rng = make_rng(39)
        lengths = np.array([3, 1, 2, 1, 3, 3, 8])
        omega, g = rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7)
        loss, d_omega, k = loss_fn(omega, g, lengths)
        loss_only, none, k_only = loss_fn(omega, g, lengths, want_grad=False)
        assert d_omega is not None and none is None
        assert bits(loss_only) == bits(loss) and bits(k_only) == bits(k)
        # one mean gap per length, ascending, as np.unique and np.mean give them
        diff = omega - g
        assert bits(k) == bits({int(l): float(np.mean(diff[lengths == l]))
                                for l in np.unique(lengths)})


class TestTotalLoss:
    def test_combined_gradient_passes(self):
        assert check_total_unsup(26) < 1e-5

    def test_check_runs_the_training_path(self, monkeypatch):
        # a 0.1% error in the gradient unsup_eval returns must fail the check
        real = bilevel.unsup_eval

        def skewed(*args, **kwargs):
            out, grads = real(*args, **kwargs)
            return out, None if grads is None else grads.scale(1.0 + 1e-3)

        monkeypatch.setattr(bilevel, "unsup_eval", skewed)
        assert check_total_unsup(SUITE_SEEDS["total_unsup_loss"]) >= GRAD_CHECK_TOL
