"""Distributed evaluation metrics (§3.4).

When the eval batch (replicas x per-core batch) exceeds the eval set, the
dataset is **padded with dummy examples** that must not count.  The metric
itself is then computed two ways, matching the paper's frameworks:

* **JAX path** — each device reduces its own (correct, valid) counts and a
  global all-reduce (run here with the *real* functional collective)
  produces the metric on every device;
* **TF path** — per-host counts are gathered to the coordinator, which
  divides.  Numerically identical; the difference is where the reduction
  happens (host RPCs vs the TPU network), which the framework models cost.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.collectives import ring_all_reduce_stacked


def pad_eval_dataset(
    examples: np.ndarray, labels: np.ndarray, total_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad an eval set to ``total_size`` with dummy rows and a valid mask."""
    n = examples.shape[0]
    if labels.shape[0] != n:
        raise ValueError("examples and labels disagree on size")
    if total_size < n:
        raise ValueError(f"total_size {total_size} < dataset size {n}")
    pad = total_size - n
    if pad == 0:
        return examples, labels, np.ones(n, dtype=bool)
    ex_pad = np.concatenate([examples, np.zeros((pad,) + examples.shape[1:], examples.dtype)])
    lb_pad = np.concatenate([labels, np.zeros(pad, labels.dtype)])
    mask = np.concatenate([np.ones(n, dtype=bool), np.zeros(pad, dtype=bool)])
    return ex_pad, lb_pad, mask


def _shard_counts(
    predictions: list[np.ndarray],
    labels: list[np.ndarray],
    masks: list[np.ndarray],
) -> list[np.ndarray]:
    counts = []
    for pred, lab, mask in zip(predictions, labels, masks):
        if not (pred.shape == lab.shape == mask.shape):
            raise ValueError("shard shapes disagree")
        correct = float(np.sum((pred == lab) & mask))
        valid = float(np.sum(mask))
        counts.append(np.array([correct, valid], dtype=np.float64))
    return counts


def distributed_top1_accuracy(
    predictions: list[np.ndarray],
    labels: list[np.ndarray],
    masks: list[np.ndarray],
) -> float:
    """JAX-style: all-reduce (correct, valid) counts across devices."""
    counts = _shard_counts(predictions, labels, masks)
    reduced = ring_all_reduce_stacked(counts, "f64").device_view(0)
    if reduced[1] == 0:
        raise ValueError("no valid eval examples")
    return float(reduced[0] / reduced[1])


def coordinator_top1_accuracy(
    predictions: list[np.ndarray],
    labels: list[np.ndarray],
    masks: list[np.ndarray],
) -> float:
    """TF-style: gather per-device counts to the coordinator, then divide."""
    counts = _shard_counts(predictions, labels, masks)
    gathered = np.stack(counts)  # the host RPC gather
    correct, valid = gathered.sum(axis=0)
    if valid == 0:
        raise ValueError("no valid eval examples")
    return float(correct / valid)
