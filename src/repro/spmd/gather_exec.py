"""Functional gather -> one-hot-matmul and distributed top-k (§4.5).

Two of the XLA techniques the MaskRCNN work added, executable on numpy:

* **one-hot matmul gather** — ROIAlign is dominated by non-contiguous
  gathers, which run on the TPU's slow scalar/vector path; rewriting a
  gather of ``k`` rows as ``onehot(ids) @ table`` turns it into a dense
  matmul on the MXU, and *partitions*: with the table row-sharded over
  ``m`` cores, each core multiplies its table shard by its slice of the
  one-hot matrix and an all-reduce sums the partial results (each id's row
  lives on exactly one shard, so the sum is exact).
* **distributed top-k** — a value vector sharded over ``m`` cores: each
  core takes a local top-k of its shard (k candidates), the candidates are
  all-gathered (tiny payload), and the final top-k is selected from
  ``m*k`` candidates — provably equal to the global top-k.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.collectives import ring_all_reduce_stacked


def onehot_matrix(ids: np.ndarray, num_rows: int) -> np.ndarray:
    """[k] int ids -> [k, num_rows] one-hot float matrix."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError("ids must be 1-D")
    if ids.size and (ids.min() < 0 or ids.max() >= num_rows):
        raise IndexError("id out of range")
    out = np.zeros((ids.size, num_rows))
    out[np.arange(ids.size), ids] = 1.0
    return out


def gather_as_onehot_matmul(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table[ids]`` computed as a dense matmul (the MXU-friendly form)."""
    if table.ndim != 2:
        raise ValueError("table must be [rows, dim]")
    return onehot_matrix(ids, table.shape[0]) @ table


def sharded_onehot_gather(
    table_shards: list[np.ndarray],
    ids: np.ndarray,
    dtype_policy: str = "f64",
) -> np.ndarray:
    """Partitioned gather: row-sharded table, replicated ids.

    Each core computes ``onehot_slice @ shard`` (a partial result that is
    zero for ids owned elsewhere); a real ring all-reduce sums the partials
    — this is how the SPMD partitioner parallelizes ROIAlign's gathers
    across model cores.
    """
    if not table_shards:
        raise ValueError("need at least one shard")
    offsets = np.cumsum([0] + [s.shape[0] for s in table_shards])
    total_rows = offsets[-1]
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= total_rows):
        raise IndexError("id out of range")
    partials = []
    for d, shard in enumerate(table_shards):
        lo, hi = offsets[d], offsets[d + 1]
        local = np.zeros((ids.size, shard.shape[0]))
        mask = (ids >= lo) & (ids < hi)
        rows = np.flatnonzero(mask)
        local[rows, ids[rows] - lo] = 1.0
        partials.append(local @ shard)
    return ring_all_reduce_stacked(partials, dtype_policy).device_view(0)


def topk_direct(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Global top-k (descending values, then ascending index for ties)."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("values must be 1-D")
    if not 1 <= k <= values.size:
        raise ValueError(f"k={k} out of range for {values.size} values")
    # Stable ordering: sort by (-value, index).
    order = np.lexsort((np.arange(values.size), -values))
    idx = order[:k]
    return values[idx], idx


def distributed_topk(
    value_shards: list[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k over a sharded vector via local-topk + candidate merge.

    Each core contributes its local top-``min(k, len(shard))`` (values and
    *global* indices); the merged candidate set provably contains the
    global top-k.  The exchanged payload is ``m * k`` entries — the tiny
    all-gather the partitioner inserts (Section 4.5's "partitioning more
    ops").
    """
    if not value_shards:
        raise ValueError("need at least one shard")
    total = sum(s.size for s in value_shards)
    if not 1 <= k <= total:
        raise ValueError(f"k={k} out of range for {total} values")
    candidates_v = []
    candidates_i = []
    offset = 0
    for shard in value_shards:
        shard = np.asarray(shard)
        local_k = min(k, shard.size)
        if local_k:
            v, i = topk_direct(shard, local_k)
            candidates_v.append(v)
            candidates_i.append(i + offset)
        offset += shard.size
    all_v = np.concatenate(candidates_v)
    all_i = np.concatenate(candidates_i)
    order = np.lexsort((all_i, -all_v))[:k]
    return all_v[order], all_i[order]
