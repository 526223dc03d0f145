"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The end-to-end trend and ablation tests train real
(desk-scale) models and dominate the runtime.
"""

import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np

from cocor import pmnn
from cocor.bilevel import (deviation_gap_coefficient, encoder_step,
                           hypergradient_oracle, init_train_state, pmnn_step,
                           probe_step, train)
from cocor.cli import main as cli_main
from cocor.config import RunConfig
from cocor.data import synth_dataset
from cocor.encoder import EncoderConfig, encode_batch
from cocor.gradsuite import run_gradient_suite
from cocor.harness import ablate_pmnn, build_dataset, linear_eval, random_encoder_baseline
from cocor.losses import NegativeQueue, contrastive_loss
from cocor.numcore import ParamSet, SgdState, make_rng, sigmoid, softplus


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# Desk-scale trend configuration (seed-fixed); optimizer knobs at defaults.
TREND_CONFIG = RunConfig(classes=8, per_class=96, height=32, width=32, channels=1,
                         noise=0.2, queue_capacity=256, batch_size=64, epochs=20,
                         lengths=(1,), seed=0)


def test_criterion_1_monotonicity_suite():
    t0 = time.monotonic()
    rng = make_rng(1001)
    violations = 0
    # 10,000 (params, V, i) triples in 100 parameter draws of 100 triples
    for block in range(100):
        params = pmnn.init_pmnn_params(make_rng(1002, block), hidden=16)
        vs = rng.integers(0, 9, size=(100, 14))
        coords = rng.integers(0, 14, size=100)
        bumped = vs.copy()
        bumped[np.arange(100), coords] += 1
        base = pmnn.predict_batch(params, vs)
        up = pmnn.predict_batch(params, bumped)
        violations += int(np.sum(up > base + 1e-12))
    # 1,000 componentwise-dominating pairs
    chain_violations = 0
    for block in range(10):
        params = pmnn.init_pmnn_params(make_rng(1003, block), hidden=16)
        vs = rng.integers(0, 6, size=(100, 14))
        extra = rng.integers(0, 3, size=(100, 14))
        empty = extra.sum(axis=1) == 0
        extra[empty, 0] = 1
        base = pmnn.predict_batch(params, vs)
        up = pmnn.predict_batch(params, vs + extra)
        chain_violations += int(np.sum(up > base + 1e-12))
    elapsed = time.monotonic() - t0
    report("criterion 1 (monotonicity suite)",
           violations == 0 and chain_violations == 0 and elapsed < 10.0,
           f"10000 bumps: {violations} violations; 1000 chains: "
           f"{chain_violations} violations; {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    t0 = time.monotonic()
    results = run_gradient_suite()
    elapsed = time.monotonic() - t0
    worst = max(results.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    report("criterion 2 (gradient suite)", worst < 1e-5 and elapsed < 60.0,
           f"max rel err {worst:.2e} ({detail}); {elapsed:.1f}s")


def test_criterion_3_loss_oracles():
    # contrastive vs explicit log-softmax oracle
    rng = make_rng(1004)
    z = rng.standard_normal((4, 6))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z_pos = rng.standard_normal((4, 6))
    z_pos /= np.linalg.norm(z_pos, axis=1, keepdims=True)
    queue = NegativeQueue(capacity=16, dim=6)
    negs = rng.standard_normal((16, 6))
    queue.push(negs / np.linalg.norm(negs, axis=1, keepdims=True))
    tau = 0.2
    loss, _ = contrastive_loss(z, z_pos, queue, tau)
    per_sample = []
    for i in range(4):
        logits = np.concatenate([[z[i] @ z_pos[i]], queue.as_matrix() @ z[i]]) / tau
        m = logits.max()
        per_sample.append(-(logits[0] - m - math.log(np.sum(np.exp(logits - m)))))
    oracle_gap = abs(loss - float(np.mean(per_sample)))

    # equal-logit closed forms
    z1 = np.array([[1.0, 0.0]])
    zp = np.array([[0.0, 1.0]])
    q1 = NegativeQueue(1, 2)
    q1.push(np.array([[0.0, 1.0]]))
    ln2_gap = abs(contrastive_loss(z1, zp, q1, tau)[0] - math.log(2.0))
    qn = NegativeQueue(4095, 2)
    qn.push(np.tile(np.array([[0.0, 1.0]]), (4095, 1)))
    lnn_gap = abs(contrastive_loss(z1, zp, qn, tau)[0] - math.log(4096.0))

    softplus_gap = abs(float(softplus(0.0)) - math.log(2.0))
    passed = (oracle_gap < 1e-10 and ln2_gap < 1e-9 and lnn_gap < 1e-9
              and softplus_gap < 1e-12)
    report("criterion 3 (loss oracles)", passed,
           f"log-softmax gap {oracle_gap:.1e}, ln2 gap {ln2_gap:.1e}, "
           f"ln(N+1) gap {lnn_gap:.1e}, softplus(0) gap {softplus_gap:.1e}")


def _fidelity_instance(seed):
    """Tiny 2-layer-encoder instance in the regime where the consistency
    pathway (the only route from predictor to encoder) is visible over the
    contrastive gradient: moderate temperature, small step, settled probe."""
    cfg = RunConfig(classes=3, per_class=8, height=6, width=6, channels=1,
                    noise=0.1, hidden=(10, 8), proj_hidden=8, embed_dim=4,
                    pmnn_hidden=8, queue_capacity=16, batch_size=4, lengths=(1,),
                    epochs=1, seed=seed, eta_e=5e-4, tau=3.0)
    enc_cfg = EncoderConfig(input_dim=36, hidden=(10, 8), proj_hidden=8, embed_dim=4)
    state = init_train_state(cfg, enc_cfg, total_steps=10)
    rng = make_rng(seed, 999)
    ds = synth_dataset(3, 8, 6, 6, 0.1, make_rng(seed, 55), channels=1)
    imgs = ds.images[rng.choice(24, 4, replace=False)]
    lab_idx = rng.choice(24, 4, replace=False)
    x_lab = ds.images[lab_idx].reshape(4, -1)
    y_lab = ds.labels[lab_idx]
    state.probe = ParamSet({"w": rng.standard_normal((8, 3)) * 0.5,
                            "b": rng.standard_normal(3) * 0.1})
    state.opt_probe = SgdState.init(state.probe, cfg.probe_lr, momentum=0.9)
    keys = rng.standard_normal((8, 4))
    state.queue.push(keys / np.linalg.norm(keys, axis=1, keepdims=True))
    features = encode_batch(enc_cfg, state.theta_e, x_lab)[0]
    for _ in range(15):
        probe_step(state, features, y_lab)
    return cfg, state, imgs, x_lab, y_lab


def test_criterion_4_hypergradient_fidelity():
    t0 = time.monotonic()
    n_valid = agree = 0
    worst_cos_gap = 0.0
    seed = 0
    while n_valid < 50 and seed < 200:
        s = seed
        seed += 1
        cfg, state, imgs, x_lab, y_lab = _fidelity_instance(s)
        theta_before, lr = state.theta_e, state.opt_e.current_lr()
        try:
            info = encoder_step(state, cfg, imgs, x_lab, step_tag=0)
        except ValueError:
            continue  # degenerate dead-projection init on a tiny net
        oracle_grad, oracle_scalar, grad_g = hypergradient_oracle(
            state, info, x_lab, y_lab, theta_before, lr)
        scalars = pmnn_step(state, y_lab, info)
        if scalars.guard_triggered or oracle_scalar == 0.0 or scalars.scalar == 0.0:
            continue
        n_valid += 1
        applied = grad_g.scale(scalars.scalar).flat
        oracle_flat = oracle_grad.flat
        cos = float(applied @ oracle_flat
                    / (np.linalg.norm(applied) * np.linalg.norm(oracle_flat)))
        worst_cos_gap = max(worst_cos_gap, abs(abs(cos) - 1.0))
        agree += int(np.sign(scalars.scalar) == np.sign(oracle_scalar))
    elapsed = time.monotonic() - t0
    passed = (n_valid == 50 and worst_cos_gap < 1e-9 and agree >= 40
              and elapsed < 60.0)
    report("criterion 4 (hypergradient fidelity)", passed,
           f"|cos|-1 max {worst_cos_gap:.1e}; sign agreement {agree}/{n_valid}; "
           f"{elapsed:.1f}s")


def test_criterion_5_coefficient_identity():
    ks = make_rng(1005).uniform(-20.0, 20.0, size=1000)
    worst = 0.0
    for k in ks:
        s = float(sigmoid(float(k)))
        worst = max(worst, abs(deviation_gap_coefficient(float(k)) - s * (1.0 - s)))
        if abs(k) < 15:  # literal formula, overflow-free range
            literal = math.exp(k) / (1.0 + math.exp(k)) ** 2
            worst = max(worst, abs(deviation_gap_coefficient(float(k)) - literal))
    at_zero = deviation_gap_coefficient(0.0)
    report("criterion 5 (coefficient identity)",
           worst < 1e-12 and at_zero == 0.25,
           f"max |coeff - sigma'(k)| {worst:.2e}; coeff(0) = {at_zero}")


def test_criterion_6_end_to_end_trend():
    t0 = time.monotonic()
    cfg = TREND_CONFIG
    dataset = build_dataset(cfg)
    baseline = random_encoder_baseline(cfg, dataset, seed=cfg.seed)
    state, metrics = train(cfg, dataset)
    trained = linear_eval(state.enc_cfg, state.theta_e, dataset, cfg, seed=cfg.seed)

    epoch_records = [m for m in metrics if m.record_type == "epoch"]
    k_abs = [max(abs(v) for v in m.k_by_length.values()) for m in epoch_records]
    first5 = float(np.median(k_abs[:5]))
    last5 = float(np.median(k_abs[-5:]))
    elapsed = time.monotonic() - t0
    passed = (trained - baseline >= 0.10 and last5 < first5 and elapsed < 300.0)
    report("criterion 6 (end-to-end trend)", passed,
           f"probe {trained:.3f} vs random {baseline:.3f} "
           f"(+{100 * (trained - baseline):.1f} pts); median |k| first5 "
           f"{first5:.3f} -> last5 {last5:.3f}; {elapsed:.0f}s")


def test_criterion_7_ablation_trend():
    t0 = time.monotonic()
    # eta_d raised so the predictor actually trains within 20 desk-scale
    # epochs; the collapsed update scalar is a product of small measured
    # differences. The constant arm is grid-tuned per protocol, so both arms
    # get one calibrated deviation knob.
    cfg = dataclasses.replace(TREND_CONFIG, lengths=(2,), eta_d=10.0)
    reference = {"without": 50.20, "with": 52.04}  # published direction, not a target
    assert reference["with"] > reference["without"]
    seeds = (0, 1, 2, 3, 4)
    rep = ablate_pmnn(cfg, seeds, pilot_epochs=5)
    elapsed = time.monotonic() - t0
    passed = rep["mean_with"] >= rep["mean_without"] and elapsed < 1800.0
    per_seed = ", ".join(f"s{r['seed']}: {r['acc_without']:.3f}->{r['acc_with']:.3f}"
                         for r in rep["per_seed"])
    report("criterion 7 (ablation trend)", passed,
           f"mean without {rep['mean_without']:.4f} vs with {rep['mean_with']:.4f} "
           f"(tuned const {rep['tuned_constant_deviation']}); {per_seed}; "
           f"{elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path):
    cfg_text = (
        "classes = 4\nper_class = 24\nheight = 8\nwidth = 8\nnoise = 0.15\n"
        "hidden = 32,16\nproj_hidden = 12\nembed_dim = 8\npmnn_hidden = 8\n"
        "queue_capacity = 16\nbatch_size = 8\nepochs = 3\neval_epochs = 10\n")
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli_main(["pretrain", "--config", str(cfg_path), "--seed", "11",
                     "--out", out1]) == 0
    assert cli_main(["pretrain", "--config", str(cfg_path), "--seed", "11",
                     "--out", out2]) == 0
    same = True
    details = []
    for name in ("metrics.jsonl", "checkpoint.ccor"):
        a = Path(os.path.join(out1, name)).read_bytes()
        b = Path(os.path.join(out2, name)).read_bytes()
        same = same and a == b
        details.append(f"{name}: {len(a)}B {'==' if a == b else '!='} {len(b)}B")
    report("criterion 8 (determinism)", same, "; ".join(details))


def test_criterion_9_stop_gradient_and_queue():
    # stop-gradient: probe training and CE measurement leave theta_e bitwise intact
    cfg = RunConfig(classes=3, per_class=8, height=6, width=6, channels=1,
                    noise=0.1, hidden=(10, 8), proj_hidden=8, embed_dim=4,
                    queue_capacity=8, batch_size=4, epochs=1, seed=2)
    enc_cfg = EncoderConfig(36, (10, 8), 8, 4)
    state = init_train_state(cfg, enc_cfg, total_steps=5)
    ds = synth_dataset(3, 8, 6, 6, 0.1, make_rng(2, 55), channels=1)
    x = ds.images[:6].reshape(6, -1)
    y = ds.labels[:6]
    snapshot = state.theta_e.flat.copy()
    from cocor.bilevel import probe_ce
    features = encode_batch(enc_cfg, state.theta_e, x)[0]
    for _ in range(5):
        probe_step(state, features, y)
    probe_ce(enc_cfg, state.theta_e, state.probe, x, y, want_encoder_grad=True)
    stop_grad_ok = bool(np.array_equal(state.theta_e.flat, snapshot))

    # queue semantics: FIFO order, capacity bound, unit-norm admission
    rng = make_rng(1006)
    q = NegativeQueue(capacity=7, dim=3)
    import collections
    oracle = collections.deque(maxlen=7)
    fifo_ok = True
    for _ in range(30):
        batch = rng.standard_normal((int(rng.integers(1, 4)), 3))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        q.push(batch)
        oracle.extend(batch)
        fifo_ok = fifo_ok and np.array_equal(q.as_matrix(), np.stack(list(oracle)))
        fifo_ok = fifo_ok and q.fill <= q.capacity
    try:
        q.push(np.array([[2.0, 0.0, 0.0]]))
        admission_ok = False
    except ValueError:
        admission_ok = True

    report("criterion 9 (stop-gradient and queue semantics)",
           stop_grad_ok and fifo_ok and admission_ok,
           f"theta_e bitwise unchanged: {stop_grad_ok}; FIFO/capacity: {fifo_ok}; "
           f"unit-norm admission enforced: {admission_ok}")
