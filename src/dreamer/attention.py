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

The rotary pair frequencies and the depth cos/sin tables are memoized on
first use and read-only. Callers build the sequence RoPE tables
(`rope_tables`) and causal masks (`causal_mask`), read-only too, and pass
them in; the primitives build none and decide nothing about masking.

Two position encodings are supported:
  * `rope_apply` with `rope_tables(positions, ...)`: every pair rotates by
    sequence position * theta_i,
  * `rope_depth_apply`: pairs are split again; the first half of the pairs
    rotates forward with the depth index, the second half rotates with the
    reversed index (depths - 1 - depth). At depths == 1 both halves sit at
    position 0, so the encoding is the identity.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError, ShapeError
from .tensor import MASK_VALUE, Tensor


@functools.cache
def _pair_freqs(dim: int, base: float) -> np.ndarray:
    freqs = base ** (-np.arange(dim // 2, dtype=np.float64) * 2.0 / dim)
    freqs.flags.writeable = False  # shared by every caller
    return freqs


def rope_tables(positions: np.ndarray, dim: int, base: float, dtype) -> tuple:
    """Read-only (cos, sin) [m, dim/2] in `dtype` of the angles positions * theta_i."""
    angles = np.asarray(positions, dtype=np.float64)[:, None] * _pair_freqs(dim, base)[None, :]
    tables = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    for table in tables:
        table.flags.writeable = False  # shared by the caller's rotations
    return tables


def rope_apply(x: Tensor, tables: tuple) -> Tensor:
    """Rotate each channel pair (x1, x2) of `x[..., dim]` by its angle; the vjp rotates back.

    `tables` are the angles' (cos, sin) in `x`'s dtype, with the shape of
    `x`'s trailing axes and dim/2 pairs: `rope_tables(positions, ...)`
    [m, dim/2] rotate row i of `x[..., m, dim]` by positions[i]. Rotation
    preserves pair norms, and scores between rotated vectors depend on
    position differences only.
    """
    c, s = tables
    dim = x.shape[-1]
    if dim % 2 != 0:
        raise ShapeError(f"rope_apply: last dim {dim} must be even")
    half = dim // 2
    if c.shape != x.shape[x.ndim - c.ndim:-1] + (half,):
        raise ShapeError(f"rope_apply: tables {c.shape} do not fit {x.shape}")
    x1, x2 = x.data[..., :half], x.data[..., half:]
    out = np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)

    def vjp(g):
        g1, g2 = g[..., :half], g[..., half:]
        return (np.concatenate([g1 * c + g2 * s, g2 * c - g1 * s], axis=-1),)

    return T.node(out, (x,), vjp, "rope")


@functools.cache
def _depth_rope_tables(depth: int, depths: int, dim: int, base: float, dtype) -> tuple:
    """Read-only (cos, sin) in `dtype` of the per-pair depth angles.

    The first half of the pairs sits at `depth`, the second half at the
    reversed index `depths - 1 - depth`.
    """
    if dim % 4 != 0:
        raise ShapeError(f"depth rope: dim {dim} must be divisible by 4")
    if not 0 <= depth < depths:
        raise ContractError(f"depth {depth} outside [0, {depths})")
    quarter = dim // 4
    pos = np.empty(dim // 2, dtype=np.float64)
    pos[:quarter] = float(depth)
    pos[quarter:] = float(depths - 1 - depth)
    angles = pos * _pair_freqs(dim, base)
    tables = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def rope_depth_apply(x: Tensor, depth: int, depths: int, base: float) -> Tensor:
    """Rotate `x[..., dim]` by a depth index instead of a sequence position."""
    return rope_apply(x, _depth_rope_tables(depth, depths, x.shape[-1], base, x.dtype))


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """x / rms(x) * gain over the last axis; one tape node keeping x and inv."""
    if gain.shape != x.shape[-1:]:
        raise ShapeError(f"rms_norm: gain shape {gain.shape} != feature dim {x.shape[-1:]}")
    xd, gd = x.data, gain.data
    n = xd.shape[-1]
    # np.add.reduce and an in-place divide are bitwise `.mean()` without its
    # Python-level dispatch
    ms = np.add.reduce(xd * xd, axis=-1, keepdims=True)
    ms /= n
    if not np.isfinite(ms).all():
        # the squares are no tape node, so `eval` would miss this; inference too
        raise NumericError("non-finite values produced by op 'rms_norm'")
    inv = (ms + np.asarray(eps, dtype=xd.dtype)) ** -0.5
    out = xd * inv * gd

    def vjp(g):
        gx = ggain = None
        if x.requires_grad:
            gg = g * gd
            mean = np.add.reduce(gg * xd, axis=-1, keepdims=True)
            mean /= n
            gx = gg * inv - xd * inv ** 3 * mean
        if gain.requires_grad:
            # in place, so the sum runs in x's memory order: a strided x, such
            # as one head group of a [b, s, heads, d] buffer seen as [b, heads,
            # s, d], sums its rows as the contiguous [b, s, heads, d] would
            ggain = xd * inv
            ggain *= g
            ggain = ggain.sum(axis=tuple(range(g.ndim - 1)))
        return gx, ggain

    return T.node(out, (x, gain), vjp, "rms_norm")


def causal_mask(m: int, n: int, offset: int, dtype) -> np.ndarray:
    """Read-only additive [m, n] mask: row i may attend keys j <= i + offset."""
    q = np.arange(m)[:, None] + offset
    k = np.arange(n)[None, :]
    # made in `dtype` directly: no float64 temporary, no cast copy
    mask = np.where(k <= q, np.zeros((), dtype), np.asarray(MASK_VALUE, dtype))
    mask.flags.writeable = False  # a caller may share it between attention calls
    return mask


def _swap_last(ndim: int) -> tuple:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def _masked_softmax(scores: Tensor, scale: float, mask: np.ndarray | None) -> Tensor:
    """softmax(scores * scale + mask) over the last axis; the node keeps only it.

    `scores` [..., group * m, n] hold `group` query heads' [m, n] blocks,
    and the [m, n] `mask` is added to each; None adds nothing. Works in
    place on one new array: no scaled or masked copy of the scores outlives
    the call.
    """
    scale = np.asarray(scale, dtype=scores.dtype)
    w = scores.data * scale
    if mask is not None:
        blocks = w.reshape(w.shape[:-2] + (-1,) + mask.shape)  # a view: w is new
        blocks += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (w * (g - (g * w).sum(axis=-1, keepdims=True)) * scale,)

    return T.node(w, (scores,), vjp, "masked_softmax")


def grouped_query_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None):
    """Attention where groups of query heads share one key/value head.

    Shapes: q [b, query_heads, m, d], k/v [b, kv_heads, n, d]. `mask` is an
    additive [m, n] mask such as `causal_mask(m, n, offset, q.dtype)`,
    added to every query head's scores; None adds none. Returns (out
    [b, query_heads, m, d], the softmax weights as an array [b,
    query_heads, m, n]). Equal head counts reduce to plain per-head
    attention. The group axis is merged into the row axis so each kv head
    attends all of its query heads in one batched product. The two
    products are engine matmuls around one fused scale-mask-softmax node.
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
    weights = _masked_softmax(scores, 1.0 / np.sqrt(d), mask)
    out = T.matmul(weights, v).reshape(b, qh, m, d)
    return out, weights.data.reshape(b, qh, m, n)
