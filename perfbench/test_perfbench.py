"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from cocor import bilevel, cli, gradsuite, losses  # noqa: E402


def _bound(name):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def _snapshot():
    mods = [getattr(__import__(f"cocor.{m}"), m) for m in tr.MODULES]
    return ([(mod, dict(vars(mod))) for mod in mods],
            losses.NegativeQueue.push, dict(gradsuite._CHECKS))


def _assert_same(before):
    modules, push, checks = before
    for mod, attrs in modules:
        for name, value in attrs.items():
            assert vars(mod)[name] is value, f"{mod.__name__}.{name} not restored"
    assert losses.NegativeQueue.push is push
    assert all(gradsuite._CHECKS[k] is v for k, v in checks.items())


def test_wrappers_restore_original_names():
    before = _snapshot()
    original_encode = bilevel.encode_batch
    with tr.Tracer():
        assert bilevel.encode_batch is not original_encode
        assert gradsuite.encode_batch is bilevel.encode_batch
        assert losses.NegativeQueue.push is not before[1]
    _assert_same(before)


def test_failed_install_restores_what_it_patched(monkeypatch):
    before = _snapshot()
    monkeypatch.setattr(tr, "SPANNED", tr.SPANNED + (("bilevel.gone", "bilevel", "gone"),))
    with pytest.raises(tr.TraceTargetMissing, match="cocor.bilevel has no 'gone'"):
        tr.Tracer().install()
    _assert_same(before)


@pytest.mark.parametrize("workload", list(wl.TRAINING))
def test_traced_and_untraced_runs_write_identical_outputs(tmp_path, workload):
    cfg = wl.training_config(workload, seed=3, smoke=True)
    plain = wl.train_rep(cfg, str(tmp_path / "plain"), smoke=True)
    with tr.Tracer():
        traced = wl.train_rep(cfg, str(tmp_path / "traced"), smoke=True)
    assert plain.failure is None and traced.failure is None
    assert traced.shas == plain.shas


def test_phases_account_for_op_time(tmp_path):
    cfg = wl.training_config("ablation", seed=5, smoke=True)
    tracer = tr.Tracer()
    with tracer:
        rep = wl.train_rep(cfg, str(tmp_path), smoke=True)
    ops = len(rep.op_s)
    phases = tracer.phase_seconds()
    step_phases = sum(v for k, v in phases.items() if k != "epoch_eval")
    op_spans = tracer.op_span_seconds(tr.TRAINING_OP_SPANS)
    assert step_phases == pytest.approx(op_spans, rel=1e-9)
    assert abs(op_spans / sum(rep.op_s) - 1.0) < _bound("op_ms")
    metrics = tracer.layer_metrics(ops)
    assert metrics["bilevel.encoder_step.calls"] == 1.0
    assert metrics["encoder.encode_backward.calls"] == 3.0


def test_counts_repeat_exactly(tmp_path):
    cfg = wl.training_config("ablation", seed=2, smoke=True)
    counted = []
    for i in range(2):
        tracer = tr.Tracer()
        with tracer:
            wl.train_rep(cfg, str(tmp_path / str(i)), smoke=True)
        counted.append({k: v for k, v in tracer.layer_metrics(1).items() if k.endswith(".calls")}
                       | tracer.counts)
    assert counted[0] == counted[1]
    assert counted[0]["augment.transforms"] > 0


def test_gradcheck_failure_is_reported(monkeypatch):
    monkeypatch.setattr(cli, "GRAD_CHECK_TOL", 1e-12)
    rep = wl.gradcheck_rep(["cross_entropy_probe"], accuracy=1.0)
    assert rep.failure and "gradient check error" in rep.failure


def test_non_finite_loss_is_reported(tmp_path, monkeypatch):
    real_train = bilevel.train

    def poisoned(cfg, dataset):
        state, records = real_train(cfg, dataset)
        records[0].l_u = math.nan
        return state, records

    monkeypatch.setattr(bilevel, "train", poisoned)
    rep = wl.train_rep(wl.training_config("ablation", 0, smoke=True), str(tmp_path), smoke=True)
    assert rep.failure and "non-finite" in rep.failure


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.metric_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ablation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no cocor package" in proc.stderr
