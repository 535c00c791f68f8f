"""Attention primitives: scaled dot-product, grouped queries, RoPE, RMSNorm.

All functions take and return engine Tensors and are dtype-agnostic
(float32 for training, float64 for gradient checks). Rotary embeddings use
the split-half pair layout: channel pair i is (x[i], x[i + dim/2]).

Head counts and widths are read from the arrays; the scalars (rotary
base, depth count) come from the model config, which validates them.

RMSNorm, the RoPE rotation and the attention core (scale, causal mask and
softmax, between two engine matmuls) are fused: each records one tape
node with a closed-form backward via `tensor.node`. RMSNorm keeps its
input and per-row `inv = 1/rms`; the rotation keeps its angle tables; the
attention core keeps only the softmax weights.

Two position encodings are supported:
  * `rope_apply`: every pair rotates by sequence position * theta_i,
  * `rope_depth_apply`: pairs are split again; the first half of the pairs
    rotates forward with the depth index, the second half rotates with the
    reversed index (depths - 1 - depth). At depths == 1 both halves sit at
    position 0, so the encoding is the identity.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError, ShapeError
from .tensor import MASK_VALUE, Tensor


def _pair_freqs(dim: int, base: float) -> np.ndarray:
    return base ** (-np.arange(dim // 2, dtype=np.float64) * 2.0 / dim)


def _apply_rotation(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate each channel pair (x1, x2) by its angle; the vjp rotates back."""
    half = x.shape[-1] // 2
    c, s = cos.astype(x.dtype), sin.astype(x.dtype)
    x1, x2 = x.data[..., :half], x.data[..., half:]
    out = np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)

    def vjp(g):
        g1, g2 = g[..., :half], g[..., half:]
        return (np.concatenate([g1 * c + g2 * s, g2 * c - g1 * s], axis=-1),)

    return T.node(out, (x,), vjp, "rope")


def rope_apply(x: Tensor, positions: np.ndarray, base: float) -> Tensor:
    """Rotate `x[..., m, dim]` by per-row sequence positions.

    Rotation preserves pair norms, and scores between rotated vectors
    depend on position differences only.
    """
    dim = x.shape[-1]
    if dim % 2 != 0:
        raise ShapeError(f"rope_apply: last dim {dim} must be even")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 1 or positions.shape[0] != x.shape[-2]:
        raise ShapeError(
            f"rope_apply: need one position per row, got {positions.shape} for {x.shape}")
    angles = positions[:, None] * _pair_freqs(dim, base)[None, :]
    return _apply_rotation(x, np.cos(angles), np.sin(angles))


def depth_rope_angles(depth: int, depths: int, dim: int, base: float) -> np.ndarray:
    """Per-pair rotation angles for one of `depths` depth indices.

    The first half of the pairs sits at `depth`, the second half at the
    reversed index `depths - 1 - depth`.
    """
    if dim % 4 != 0:
        raise ShapeError(f"depth rope: dim {dim} must be divisible by 4")
    if not 0 <= depth < depths:
        raise ContractError(f"depth {depth} outside [0, {depths})")
    freqs = _pair_freqs(dim, base)
    quarter = dim // 4
    pos = np.empty(dim // 2, dtype=np.float64)
    pos[:quarter] = float(depth)
    pos[quarter:] = float(depths - 1 - depth)
    return pos * freqs


def rope_depth_apply(x: Tensor, depth: int, depths: int, base: float) -> Tensor:
    """Rotate `x[..., dim]` by a depth index instead of a sequence position."""
    angles = depth_rope_angles(depth, depths, x.shape[-1], base)
    return _apply_rotation(x, np.cos(angles), np.sin(angles))


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """x / rms(x) * gain over the last axis; one tape node keeping x and inv."""
    if gain.shape != x.shape[-1:]:
        raise ShapeError(f"rms_norm: gain shape {gain.shape} != feature dim {x.shape[-1:]}")
    xd, gd = x.data, gain.data
    ms = (xd * xd).mean(axis=-1, keepdims=True)
    if not np.isfinite(ms).all():
        # the squares are no tape node, so `eval` would miss this; inference too
        raise NumericError("non-finite values produced by op 'rms_norm'")
    inv = (ms + np.asarray(eps, dtype=xd.dtype)) ** -0.5
    out = xd * inv * gd

    def vjp(g):
        gx = ggain = None
        if x.requires_grad:
            gg = g * gd
            gx = gg * inv - xd * inv ** 3 * (gg * xd).mean(axis=-1, keepdims=True)
        if gain.requires_grad:
            ggain = (g * (xd * inv)).sum(axis=tuple(range(g.ndim - 1)))
        return gx, ggain

    return T.node(out, (x, gain), vjp, "rms_norm")


def causal_mask(m: int, n: int, offset: int, dtype) -> np.ndarray:
    """Additive [m, n] mask: row i may attend keys j <= i + offset."""
    q = np.arange(m)[:, None] + offset
    k = np.arange(n)[None, :]
    return np.where(k <= q, 0.0, MASK_VALUE).astype(dtype)


def _swap_last(ndim: int) -> tuple:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def _masked_softmax(scores: Tensor, scale: float, mask: np.ndarray) -> Tensor:
    """softmax(scores * scale + mask) over the last axis; the node keeps only it.

    Works in place on one new array: no scaled or masked copy of the scores
    outlives the call.
    """
    scale = np.asarray(scale, dtype=scores.dtype)
    w = scores.data * scale
    w += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (w * (g - (g * w).sum(axis=-1, keepdims=True)) * scale,)

    return T.node(w, (scores,), vjp, "masked_softmax")


def grouped_query_attention(q: Tensor, k: Tensor, v: Tensor, *, pos_offset: int = 0):
    """Causal attention where groups of query heads share one key/value head.

    Shapes: q [b, query_heads, m, d], k/v [b, kv_heads, n, d]; query row i
    sees key rows j <= i + pos_offset. Returns (out [b, query_heads, m, d],
    softmax weights [b, query_heads, m, n]). Equal head counts reduce to plain
    per-head attention. The group axis is merged into the row axis so each
    kv head attends all of its query heads in one batched product; the
    mask is tiled to match. The two products are engine matmuls around
    one fused scale-mask-softmax node.
    """
    b, qh, m, d = q.shape
    if k.shape != v.shape:
        raise ShapeError(f"gqa: k shape {k.shape} != v shape {v.shape}")
    kv_heads, n = k.shape[1], k.shape[-2]
    if qh % kv_heads != 0:
        raise ShapeError(f"gqa: {qh} query heads not a multiple of {kv_heads} kv heads")
    group = qh // kv_heads
    qg = q.reshape(b, kv_heads, group * m, d)
    scores = T.matmul(qg, T.transpose(k, _swap_last(k.ndim)))
    mask = np.tile(causal_mask(m, n, pos_offset, q.dtype), (group, 1))
    weights = _masked_softmax(scores, 1.0 / np.sqrt(d), mask)
    out = T.matmul(weights, v).reshape(b, qh, m, d)
    return out, weights.reshape(b, qh, m, n)
