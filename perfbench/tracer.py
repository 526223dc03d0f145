"""Outside-in span tracer for the benchmark's traced runs.

``Tracer.install`` wraps the public functions of each cocor module where
their callers look them up: every cocor module attribute bound to the
function (``bilevel.encode_batch``, ``gradsuite.encode_batch``, ...), the
``NegativeQueue.push`` class attribute and the ``gradsuite._CHECKS``
registry. ``restore`` puts every original back. Nothing in ``src/`` changes.

Each wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory; ``write_spans`` writes them out when the run ends. A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

MODULES = ("augment", "bilevel", "data", "encoder", "gradsuite", "harness",
           "losses", "numcore", "pmnn")

# (span name, home module, function) for every spanned public function.
SPANNED = (
    ("augment.apply_composite", "augment", "apply_composite"),
    ("augment.sample_composite", "augment", "sample_composite"),
    ("augment.composition_vector", "augment", "composition_vector"),
    ("data.weak_augment", "data", "weak_augment"),
    ("data.synth_dataset", "data", "synth_dataset"),
    ("numcore.make_rng", "numcore", "make_rng"),
    ("numcore.sgd_step", "numcore", "sgd_step"),
    ("numcore.grad_check", "numcore", "grad_check"),
    ("encoder.encode_batch", "encoder", "encode_batch"),
    ("encoder.encode_backward", "encoder", "encode_backward"),
    ("encoder.momentum_update", "encoder", "momentum_update"),
    ("encoder.save_checkpoint", "encoder", "save_checkpoint"),
    ("losses.contrastive_loss", "losses", "contrastive_loss"),
    ("losses.cross_entropy", "losses", "cross_entropy"),
    ("pmnn.predict_batch", "pmnn", "predict_batch"),
    ("pmnn.grad_wrt_params", "pmnn", "grad_wrt_params"),
    ("bilevel.build_step_batch", "bilevel", "build_step_batch"),
    ("bilevel.unsup_eval", "bilevel", "unsup_eval"),  # split by want_grad
    ("bilevel.encoder_step", "bilevel", "encoder_step"),
    ("bilevel.probe_step", "bilevel", "probe_step"),
    ("bilevel.pmnn_step", "bilevel", "pmnn_step"),
    ("bilevel.dacl", "bilevel", "dacl"),
    ("bilevel.probe_accuracy", "bilevel", "probe_accuracy"),
    ("bilevel.warm_up_queue", "bilevel", "warm_up_queue"),
    ("harness.build_dataset", "harness", "build_dataset"),
    ("harness.linear_eval", "harness", "linear_eval"),
    ("harness.write_metrics_jsonl", "harness", "write_metrics_jsonl"),
)
PUSH = "losses.NegativeQueue.push"
CHECKS = ("contrastive_loss", "consistency_abs", "consistency_softplus",
          "cross_entropy_probe", "cross_entropy_encoder", "pmnn_mean_output",
          "total_unsup_loss")
CHECK_FUNCS = ("check_contrastive", "check_consistency_abs", "check_consistency_softplus",
               "check_cross_entropy_probe", "check_cross_entropy_encoder",
               "check_pmnn_mean_output", "check_total_unsup")

SPAN_NAMES = tuple(
    [n for n, _, _ in SPANNED if n != "bilevel.unsup_eval"]
    + ["bilevel.unsup_eval_grad", "bilevel.unsup_eval_after", PUSH]
    + [f"gradsuite.{f}" for f in CHECK_FUNCS])

# Top-level spans of one op, per kind of workload.
TRAINING_OP_SPANS = ("bilevel.encoder_step", "bilevel.probe_step", "bilevel.pmnn_step")
GRADCHECK_OP_SPANS = tuple(f"gradsuite.{f}" for f in CHECK_FUNCS)

# The eight ROADMAP phases of a training op, plus the rest of encoder_step.
PHASES = ("views", "key_encoding", "encoder_fwd_bwd", "reeval", "updates",
          "probe", "predictor", "epoch_eval", "step_other")

COUNTS = (("augment.transforms", "count"), ("encoder.encode_batch.rows", "count"),
          ("encoder.encode_backward.rows", "count"), ("encoder.gflop", "GFLOP"),
          ("bilevel.guard_count", "count"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNTS)
    units.update({f"phase.{p}.ms": "ms" for p in PHASES})
    units["trace.op_coverage"] = "fraction"
    units["trace.overhead_pct"] = "%"
    return units


class TraceTargetMissing(RuntimeError):
    pass


def _layer_flops(cfg) -> tuple[int, int]:
    """Multiply-adds x 2 per row: (backbone layers, projection head)."""
    dims = cfg.layer_dims()
    backbone = sum(2 * i * o for name, i, o in dims if name.startswith("bb"))
    head = sum(2 * i * o for name, i, o in dims if name.startswith("proj"))
    return backbone, head


class Tracer:
    """Installs the wrappers, records their spans and counts, and turns them
    into per-op metrics."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._stack: list[list] = []       # [span index, child seconds]
        # bilevel.guard_count is read from the training state, not counted here
        self.counts = {name: 0.0 for name, _ in COUNTS if name != "bilevel.guard_count"}
        self._restore: list = []
        self._flops: dict = {}

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, name: str) -> None:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        t = time.perf_counter()
        idx, children = self._stack.pop()
        self.end[idx] = t
        duration = t - self.start[idx]
        self.self_s[idx] = duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name, fn, count=None):
        tracer = self
        name_of = name if callable(name) else None

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            tracer._open(name_of(args, kwargs) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ------------------------------------------------------------

    def _count_encode(self, args, kwargs):
        cfg = args[0] if args else kwargs["cfg"]
        x = args[2] if len(args) > 2 else kwargs["x"]
        rows = np.shape(x)[0]
        backbone, head = self._flops_of(cfg)
        self.counts["encoder.encode_batch.rows"] += rows
        self.counts["encoder.gflop"] += rows * (backbone + head) * 1e-9

    def _count_backward(self, args, kwargs):
        cfg = args[0] if args else kwargs["cfg"]
        cache = args[2] if len(args) > 2 else kwargs["cache"]
        d_z = args[3] if len(args) > 3 else kwargs.get("d_z")
        rows = cache.x.shape[0]
        backbone, head = self._flops_of(cfg)
        # d_x and d_w per affine layer; the head only when z has a cotangent
        per_row = 2 * backbone + (2 * head if d_z is not None else 0)
        self.counts["encoder.encode_backward.rows"] += rows
        self.counts["encoder.gflop"] += rows * per_row * 1e-9

    def _flops_of(self, cfg):
        flops = self._flops.get(cfg)
        if flops is None:
            flops = self._flops[cfg] = _layer_flops(cfg)
        return flops

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, key, value, as_item=False):
        if as_item:
            self._restore.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"cocor.{m}") for m in MODULES}
        try:
            self._install(mods)
        except BaseException:
            self.restore()
            raise

    def _install(self, mods) -> None:
        def target(module, attr):
            try:
                return getattr(mods[module], attr)
            except AttributeError:
                raise TraceTargetMissing(f"cocor.{module} has no {attr!r}") from None

        counters = {"encode_batch": self._count_encode,
                    "encode_backward": self._count_backward}
        for name, home, attr in SPANNED:
            original = target(home, attr)
            span = name
            if attr == "unsup_eval":
                def span(args, kwargs):
                    grad = kwargs["want_grad"] if "want_grad" in kwargs else args[6]
                    return "bilevel.unsup_eval_grad" if grad else "bilevel.unsup_eval_after"
            wrapper = self._wrap(span, original, counters.get(attr))
            for mod in mods.values():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

        apply_basic = target("augment", "apply_basic")

        def counted_basic(*args, **kwargs):
            self.counts["augment.transforms"] += 1
            return apply_basic(*args, **kwargs)

        self._patch(mods["augment"], "apply_basic", counted_basic)

        queue_cls = target("losses", "NegativeQueue")
        self._patch(queue_cls, "push", self._wrap(PUSH, queue_cls.push))

        registry = target("gradsuite", "_CHECKS")
        for key, func in zip(CHECKS, CHECK_FUNCS):
            original = target("gradsuite", func)
            if registry.get(key) is not original:
                raise TraceTargetMissing(f"cocor.gradsuite._CHECKS[{key!r}] is not {func}")
            wrapper = self._wrap(f"gradsuite.{func}", original)
            self._patch(mods["gradsuite"], func, wrapper)
            self._patch(registry, key, wrapper, as_item=True)

    def restore(self) -> None:
        while self._restore:
            owner, key, original, as_item = self._restore.pop()
            if as_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return ids, parent, dur

    def _total(self, name, dur, ids, where=None) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        mask = ids == nid
        if where is not None:
            mask &= where
        return float(dur[mask].sum())

    def op_span_seconds(self, op_spans) -> float:
        ids, _, dur = self._arrays()
        return sum(self._total(n, dur, ids) for n in op_spans)

    def phase_seconds(self) -> dict[str, float]:
        """Seconds per ROADMAP phase; phases of a training op partition the
        op-level spans, so they sum to encoder_step + probe_step + pmnn_step."""
        ids, parent, dur = self._arrays()
        parent_id = np.where(parent >= 0, ids[np.maximum(parent, 0)], -1)

        def under(name):
            nid = self._ids.get(name, -2)
            return parent_id == nid

        def total(name, where=None):
            return self._total(name, dur, ids, where)

        key = total("encoder.encode_batch", under("bilevel.build_step_batch"))
        updates = sum(total(n, under("bilevel.encoder_step")) for n in
                      ("numcore.sgd_step", "encoder.momentum_update", PUSH))
        phases = {
            "views": total("bilevel.build_step_batch") - key,
            "key_encoding": key,
            "encoder_fwd_bwd": total("bilevel.unsup_eval_grad"),
            "reeval": total("bilevel.unsup_eval_after"),
            "updates": updates,
            "probe": total("bilevel.probe_step"),
            "predictor": total("bilevel.pmnn_step"),
            "epoch_eval": total("bilevel.dacl") + total("bilevel.probe_accuracy"),
        }
        phases["step_other"] = (total("bilevel.encoder_step") - total("bilevel.build_step_batch")
                                - phases["encoder_fwd_bwd"] - phases["reeval"] - updates)
        return phases

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """calls and self_ms per op for every span name, the counts per op,
        and the phase split in ms per op."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        self_s = np.frombuffer(self.self_s, dtype=np.float64)
        calls = np.bincount(ids, minlength=len(self._names))
        busy = np.bincount(ids, weights=self_s, minlength=len(self._names))
        out = {}
        for name in SPAN_NAMES:
            nid = self._ids.get(name)
            out[f"{name}.calls"] = 0.0 if nid is None else calls[nid] / ops
            out[f"{name}.self_ms"] = 0.0 if nid is None else 1000.0 * busy[nid] / ops
        for name, value in self.counts.items():
            out[name] = value / ops
        for phase, seconds in self.phase_seconds().items():
            out[f"phase.{phase}.ms"] = 1000.0 * seconds / ops
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: name, start and end in seconds, parent index."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_s\tend_s\tparent\n")
            for nid, start, end, parent in zip(self.name_id, self.start, self.end, self.parent):
                f.write(f"{self._names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
