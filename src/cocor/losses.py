"""Training losses and the negative-embedding queue.

The contrastive loss scores each query against its positive key and every
queue entry with temperature-scaled cosine logits and takes their
``cross_entropy`` with the positive as the true class; queue entries are
constants (no gradient flows into them). Two consistency variants exist:
a per-sample mean absolute gap, and a per-length softplus of the batch-mean
gap, which backs off smoothly when measured deviations already sit below the
predicted ones.
"""

from __future__ import annotations

import numpy as np

from .numcore import mean, sigmoid, softplus

UNIT_NORM_TOL = 1e-6


class NegativeQueue:
    """Fixed-capacity FIFO of finite unit-norm embeddings. ``rows`` is its
    whole content: one read-only (fill, dim) array, oldest first, that each
    push replaces."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1 or dim < 1:
            raise ValueError("capacity and dim must be >= 1")
        self.capacity = capacity
        self.dim = dim
        self.rows = np.zeros((0, dim))

    def push(self, embeddings: np.ndarray) -> None:
        """Append rows, evicting the oldest entries past capacity."""
        if embeddings.ndim != 2 or embeddings.shape[1] != self.dim:
            raise ValueError(f"embeddings shape {embeddings.shape} != (n, {self.dim})")
        norms = np.linalg.norm(embeddings, axis=1)
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):  # a NaN norm fails too
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"queue admits unit-norm embeddings only (off by {worst:.2e})")
        # a new array: one a reader already holds is never written
        self.rows = np.concatenate((self.rows, embeddings))[-self.capacity:]
        self.rows.flags.writeable = False


def contrastive_loss(z: np.ndarray, z_pos: np.ndarray, queue: NegativeQueue,
                     tau: float, want_grad: bool = True) -> tuple[float, np.ndarray | None]:
    """Mean InfoNCE over the batch; returns (loss, d_z), d_z None without
    ``want_grad``.

    Per sample: -log( e^{z.z+ / tau} / (e^{z.z+ / tau} + sum_j e^{z.q_j / tau}) ).
    Queue rows are constants. Without ``want_grad``, ``z`` may stack batches.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    negs = queue.rows
    if negs.shape[0] < 1:
        raise RuntimeError("contrastive loss requires a non-empty queue")
    if z.ndim < 2 or z.shape[-2:] != z_pos.shape:
        raise ValueError("query and positive batches must be 2-D with equal shapes")

    pos_logits = np.add.reduce(z * z_pos, axis=-1) / tau    # (..., B), as np.sum
    neg_logits = (z @ negs.T) / tau                          # (..., B, N)
    logits = np.concatenate([pos_logits[..., None], neg_logits], axis=-1)
    # every row's true class is its positive, column 0
    loss, d_logits = cross_entropy(logits, np.zeros(z.shape[-2], dtype=np.int64), want_grad)
    if not want_grad:
        return loss, None
    d_z = (d_logits[:, :1] * z_pos + d_logits[:, 1:] @ negs) / tau
    return loss, d_z


def _gaps(omega: np.ndarray, g: np.ndarray, lengths: np.ndarray
          ) -> tuple[np.ndarray, dict[int, np.ndarray], dict[int, float]]:
    """omega - g, the mask of each configured length (ascending), and the
    mean gap k_l of each length; omega may carry leading stack axes."""
    if g.ndim != 1 or omega.shape[-1:] != g.shape or lengths.shape != g.shape:
        raise ValueError("omega, g and lengths must be equal-length vectors")
    if g.size == 0:
        raise ValueError("empty batch")
    diff = omega - g
    masks = {int(l): lengths == l for l in sorted(set(lengths.tolist()))}
    return diff, masks, {l: mean(diff[..., m]) for l, m in masks.items()}


def consistency_loss_abs(omega: np.ndarray, g: np.ndarray, lengths: np.ndarray,
                         want_grad: bool = True
                         ) -> tuple[float, np.ndarray | None, dict[int, float]]:
    """Mean |omega - g|; subgradient 0 at exact ties.

    Returns (loss, d_omega, mean gap k_l per length), d_omega None without
    ``want_grad``; without it, a stacked omega gives one loss per row.
    """
    diff, _, k_by_length = _gaps(omega, g, lengths)
    d_omega = np.sign(diff) / diff.size if want_grad else None
    return mean(np.abs(diff)), d_omega, k_by_length


def consistency_loss_softplus(omega: np.ndarray, g: np.ndarray, lengths: np.ndarray,
                              want_grad: bool = True
                              ) -> tuple[float, np.ndarray | None, dict[int, float]]:
    """Per-length softplus of the group-mean gap.

    For each configured length l with samples (omega_i, g_i):
    k_l = mean(omega - g); loss = mean over lengths of softplus(k_l).
    Returns (loss, d_omega, k_l per length), d_omega None without
    ``want_grad``; without it, a stacked omega gives one loss per row.
    """
    diff, masks, k_by_length = _gaps(omega, g, lengths)
    n_lengths = len(masks)
    loss = 0.0
    for k in k_by_length.values():
        loss += softplus(k) / n_lengths
    if not want_grad:
        return loss, None, k_by_length
    d_omega = np.zeros_like(diff)
    for length, mask in masks.items():
        d_omega[mask] = sigmoid(k_by_length[length]) / (n_lengths * np.count_nonzero(mask))
    return loss, d_omega, k_by_length


def cross_entropy(logits: np.ndarray, labels: np.ndarray,
                  want_grad: bool = True) -> tuple[float, np.ndarray | None]:
    """Mean negative log-softmax of the true class; grad = (softmax - onehot)/B,
    None without ``want_grad`` (then logits may stack). ``bilevel.head_ce`` checks labels."""
    b = logits.shape[-2]
    rows = np.arange(b)

    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True)
    # only the true class's entry of the log-softmax is read
    loss = mean(-(shifted[..., rows, labels] - np.log(denom[..., 0])))
    if not want_grad:
        return loss, None

    d_logits = exp / denom
    d_logits[rows, labels] -= 1.0
    d_logits /= b
    return loss, d_logits
