"""Multi-head self-attention with explicit gradients, and head sharding.

Section 4.3 shards the Transformer's attention projection layers along the
``num_heads`` dimension.  This module provides:

* :func:`attention_forward` / :func:`attention_backward` — a numpy
  multi-head self-attention block (projections + scaled dot-product +
  output projection) with hand-written gradients;
* :class:`HeadShardedAttention` — the same computation with Q/K/V/O
  projection weights split by head across ``mp`` cores: every core attends
  with its own heads locally, and a single all-reduce (over the model
  group's short X rings) combines the output-projection partials, exactly
  the paper's layout.

Tests check gradient correctness against numerical differentiation and
bit-level equivalence of the sharded execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.layers import softmax
from repro.runtime.collectives import ring_all_reduce_stacked


@dataclass
class AttentionParams:
    """Projection weights for one attention block (no biases for clarity).

    Shapes: ``wq/wk/wv`` are [hidden, heads*dim]; ``wo`` is
    [heads*dim, hidden].
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    num_heads: int

    def __post_init__(self) -> None:
        hidden, proj = self.wq.shape
        if proj % self.num_heads != 0:
            raise ValueError(
                f"projection width {proj} not divisible by {self.num_heads} heads"
            )
        for name in ("wk", "wv"):
            if getattr(self, name).shape != (hidden, proj):
                raise ValueError(f"{name} shape mismatch")
        if self.wo.shape != (proj, hidden):
            raise ValueError("wo shape mismatch")

    @property
    def head_dim(self) -> int:
        return self.wq.shape[1] // self.num_heads

    @staticmethod
    def init(
        rng: np.random.Generator, hidden: int, num_heads: int, head_dim: int
    ) -> "AttentionParams":
        proj = num_heads * head_dim
        scale = 1.0 / np.sqrt(hidden)
        return AttentionParams(
            wq=rng.standard_normal((hidden, proj)) * scale,
            wk=rng.standard_normal((hidden, proj)) * scale,
            wv=rng.standard_normal((hidden, proj)) * scale,
            wo=rng.standard_normal((proj, hidden)) * scale,
            num_heads=num_heads,
        )


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[seq, heads*dim] -> [heads, seq, dim]."""
    seq, proj = x.shape
    return x.reshape(seq, heads, proj // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """[heads, seq, dim] -> [seq, heads*dim]."""
    heads, seq, dim = x.shape
    return x.transpose(1, 0, 2).reshape(seq, heads * dim)


def attention_forward(
    params: AttentionParams, x: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Self-attention over [seq, hidden]; returns (output, cache)."""
    if x.ndim != 2 or x.shape[1] != params.wq.shape[0]:
        raise ValueError("x must be [seq, hidden]")
    h = params.num_heads
    q = _split_heads(x @ params.wq, h)
    k = _split_heads(x @ params.wk, h)
    v = _split_heads(x @ params.wv, h)
    scale = 1.0 / np.sqrt(params.head_dim)
    scores = np.einsum("hqd,hkd->hqk", q, k) * scale
    probs = softmax(scores)
    context = np.einsum("hqk,hkd->hqd", probs, v)
    merged = _merge_heads(context)
    out = merged @ params.wo
    cache = {"x": x, "q": q, "k": k, "v": v, "probs": probs,
             "merged": merged, "scale": scale}
    return out, cache


def attention_backward(
    params: AttentionParams, cache: dict, dout: np.ndarray
) -> tuple[np.ndarray, AttentionParams]:
    """Gradients of attention; returns (dx, dparams)."""
    h = params.num_heads
    x, q, k, v = cache["x"], cache["q"], cache["k"], cache["v"]
    probs, merged, scale = cache["probs"], cache["merged"], cache["scale"]
    dwo = merged.T @ dout
    dmerged = dout @ params.wo.T
    dcontext = _split_heads(dmerged, h)
    dprobs = np.einsum("hqd,hkd->hqk", dcontext, v)
    dv = np.einsum("hqk,hqd->hkd", probs, dcontext)
    # softmax backward per row.
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    dscores *= scale
    dq = np.einsum("hqk,hkd->hqd", dscores, k)
    dk = np.einsum("hqk,hqd->hkd", dscores, q)
    dwq = x.T @ _merge_heads(dq)
    dwk = x.T @ _merge_heads(dk)
    dwv = x.T @ _merge_heads(dv)
    dx = (
        _merge_heads(dq) @ params.wq.T
        + _merge_heads(dk) @ params.wk.T
        + _merge_heads(dv) @ params.wv.T
    )
    return dx, AttentionParams(dwq, dwk, dwv, dwo, h)


class HeadShardedAttention:
    """Attention with heads split over ``mp`` model-parallel cores (§4.3)."""

    def __init__(self, params: AttentionParams, mp: int) -> None:
        if params.num_heads % mp != 0:
            raise ValueError(
                f"{params.num_heads} heads not divisible by mp={mp}"
            )
        self.mp = mp
        self.full = params
        self.shards = self._shard(params)

    def _shard(self, params: AttentionParams) -> list[AttentionParams]:
        h = params.num_heads
        per = h // self.mp
        dim = params.head_dim
        shards = []
        for i in range(self.mp):
            cols = slice(i * per * dim, (i + 1) * per * dim)
            shards.append(
                AttentionParams(
                    wq=params.wq[:, cols],
                    wk=params.wk[:, cols],
                    wv=params.wv[:, cols],
                    wo=params.wo[cols, :],
                    num_heads=per,
                )
            )
        return shards

    def forward(self, x: np.ndarray, dtype_policy: str = "f64") -> np.ndarray:
        """Each core attends with its heads; one all-reduce merges outputs.

        The output projection is row-sharded by head, so each core's
        ``context_i @ wo_i`` is a *partial* sum of the full output — the
        contraction the black rings of Figure 4 resolve.
        """
        partials = []
        for shard in self.shards:
            out, _ = attention_forward(shard, x)
            partials.append(out)
        return ring_all_reduce_stacked(partials, dtype_policy).device_view(0)

    def forward_backward(
        self, x: np.ndarray, dout: np.ndarray, dtype_policy: str = "f64"
    ) -> tuple[np.ndarray, list[AttentionParams]]:
        """Sharded forward + backward; returns (dx, per-core weight grads).

        ``dout`` is the (replicated) output gradient; each core computes
        its shard's weight gradients locally and its partial ``dx``, which
        a backward all-reduce combines.
        """
        dxs = []
        grads = []
        for shard in self.shards:
            _, cache = attention_forward(shard, x)
            dx_i, g_i = attention_backward(shard, cache, dout)
            dxs.append(dx_i)
            grads.append(g_i)
        dx = ring_all_reduce_stacked(dxs, dtype_policy).device_view(0)
        return dx, grads

    def gather_grads(self, grads: list[AttentionParams]) -> AttentionParams:
        """Reassemble full-weight gradients from per-core shards."""
        return AttentionParams(
            wq=np.concatenate([g.wq for g in grads], axis=1),
            wk=np.concatenate([g.wk for g in grads], axis=1),
            wv=np.concatenate([g.wv for g in grads], axis=1),
            wo=np.concatenate([g.wo for g in grads], axis=0),
            num_heads=self.full.num_heads,
        )
