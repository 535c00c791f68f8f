"""Attention primitives: scaled dot-product, grouped queries, heads, RoPE, RMSNorm.

All functions take and return engine Tensors and are dtype-agnostic
(float32 for training, float64 for gradient checks). Rotary embeddings use
the split-half pair layout: channel pair i is (x[i], x[i + dim/2]).

Head counts and widths are read from the arrays; the scalars (rotary
base, depth count) come from the model config, which validates them.

RMSNorm, the head split, the RoPE rotation and the attention core are
fused: each records one tape node with a closed-form backward via
`tensor.node`. RMSNorm keeps its input and per-row `inv = 1/rms`. The
head split (`split_heads`) takes a fused qkv projection to a [batch,
heads, seq, d] buffer with the q and k heads RMS-normalised and keeps
their `inv`s. The rotation keeps its angle tables, and an attention
module rotates its q and k heads in one call. The attention core (both
products and, between them, the scale, mask and softmax, done in place
on the score product) keeps only the softmax weights, so no raw or
scaled score array exists beside them, and returns its output as merged
rows for the output projection. `rms_rows` is the RMSNorm formula in
numpy, shared by `rms_norm` and `split_heads`; `rotate_pairs` is the
rotation formula, shared with the router logits of `routing`.

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


def _read_only_tables(angles: np.ndarray, dtype) -> tuple:
    """(cos, sin) of float64 `angles` in `dtype`, read-only: every caller shares them."""
    tables = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    for table in tables:
        table.flags.writeable = False
    return tables


def rope_tables(positions: np.ndarray, dim: int, base: float, dtype) -> tuple:
    """Read-only (cos, sin) [m, dim/2] in `dtype` of the angles positions * theta_i."""
    angles = np.asarray(positions, dtype=np.float64)[:, None] * _pair_freqs(dim, base)[None, :]
    return _read_only_tables(angles, dtype)


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
    return T.node(rotate_pairs(x.data, c, s), (x,), lambda g: (rotate_pairs(g, c, -s),),
                  "rope")


def rotate_pairs(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The rotation itself, in numpy: each split-half pair (x1, x2) of
    `x[..., dim]` by the angles whose (cos, sin) are (c, s) [..., dim/2].

    Called with -s it rotates back, which is the vjp: bitwise the
    transposed formula (g1 c + g2 s, g2 c - g1 s), since negating a
    product is exact and a - (-b) is a + b.
    """
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


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
    return _read_only_tables(pos * _pair_freqs(dim, base), dtype)


def rope_depth_apply(x: Tensor, depth: int, depths: int, base: float) -> Tensor:
    """Rotate `x[..., dim]` by a depth index instead of a sequence position."""
    return rope_apply(x, _depth_rope_tables(depth, depths, x.shape[-1], base, x.dtype))


def rms_rows(x: np.ndarray, eps: float, op: str, out: np.ndarray | None = None) -> tuple:
    """RMSNorm without its gain, in numpy: (x / rms(x) over the last axis,
    written into `out` if given, and inv = 1/rms [..., 1]).

    The one home of the formula, for `rms_norm` and `split_heads`, which
    multiply the result by their gains in place. A non-finite row raises a
    NumericError naming the caller's node `op`: the squares are no tape
    node, so `eval` would miss them, and inference has no `eval`.
    """
    # np.add.reduce and an in-place divide are bitwise `.mean()` without its
    # Python-level dispatch
    ms = np.add.reduce(x * x, axis=-1, keepdims=True)
    ms /= x.shape[-1]
    if not np.isfinite(ms).all():
        raise NumericError(f"non-finite values produced by op '{op}'")
    inv = (ms + np.asarray(eps, dtype=x.dtype)) ** -0.5
    return np.multiply(x, inv, out=out), inv


def rms_rows_vjp(g: np.ndarray, x: np.ndarray, gain: np.ndarray, inv: np.ndarray,
                 x_grad: bool, gain_grad: bool) -> tuple:
    """(dx or None, dgain or None) of RMSNorm, `rms_rows(x, ...)` times `gain`,
    at its output gradient `g`."""
    gx = ggain = None
    if x_grad:
        gg = g * gain
        mean = np.add.reduce(gg * x, axis=-1, keepdims=True)
        mean /= x.shape[-1]
        gx = gg * inv - x * inv ** 3 * mean
    if gain_grad:
        # in place, so the sum runs in x's memory order: a strided x, such
        # as one head group of a [b, s, heads, d] buffer seen as [b, heads,
        # s, d], sums its rows as the contiguous [b, s, heads, d] would
        ggain = x * inv
        ggain *= g
        ggain = ggain.sum(axis=tuple(range(g.ndim - 1)))
    return gx, ggain


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """x / rms(x) * gain over the last axis; one tape node keeping x and inv."""
    if gain.shape != x.shape[-1:]:
        raise ShapeError(f"rms_norm: gain shape {gain.shape} != feature dim {x.shape[-1:]}")
    xd, gd = x.data, gain.data
    out, inv = rms_rows(xd, eps, "rms_norm")
    out *= gd
    return T.node(out, (x, gain),
                  lambda g: rms_rows_vjp(g, xd, gd, inv, x.requires_grad, gain.requires_grad),
                  "rms_norm")


def split_heads(qkv: Tensor, batch: int, seq: int, query_heads: int, kv_heads: int,
                q_gain: Tensor, k_gain: Tensor, eps: float) -> Tensor:
    """The heads of a fused projection, q and k RMS-normalised: one tape node.

    `qkv` [batch * seq, (query_heads + 2 * kv_heads) * d] holds each row's
    q, k and v heads side by side. Returns a new [batch, query_heads + 2 *
    kv_heads, seq, d] buffer: the q heads normalised with `q_gain` [d], the
    k heads with `k_gain` [d], the v heads raw. The rows are normalised on
    their strided view of `qkv`, each group's gain gradient is summed on
    its own view, and the vjp adds each group's gradient into a zero
    buffer, so values and gradients are bitwise those of the engine chain
    it replaces: a reshape, a transpose, a slice per group and an
    `rms_norm` each for q and k.
    """
    heads = query_heads + 2 * kv_heads
    d = qkv.shape[-1] // heads
    if qkv.shape != (batch * seq, heads * d) or {q_gain.shape, k_gain.shape} != {(d,)}:
        raise ShapeError(f"split_heads: qkv {qkv.shape} or gains {q_gain.shape}, "
                         f"{k_gain.shape} do not fit {batch} x {seq} rows of {heads} heads")
    src = qkv.data.reshape(batch, seq, heads, d).transpose(0, 2, 1, 3)
    shape = (batch, heads, seq, d)
    out = np.empty(shape, dtype=qkv.dtype)
    qk = query_heads + kv_heads
    _, inv = rms_rows(src[:, :qk], eps, "split_heads", out[:, :qk])
    groups = ((slice(0, query_heads), q_gain), (slice(query_heads, qk), k_gain))
    for part, gain in groups:
        out[:, part] *= gain.data
    out[:, qk:] = src[:, qk:]

    def vjp(g):
        x_grad = qkv.requires_grad
        gx = np.zeros(shape, dtype=g.dtype) if x_grad else None
        ggains = []
        for part, gain in groups:
            gpart, ggain = rms_rows_vjp(g[:, part], src[:, part], gain.data, inv[:, part],
                                        x_grad, gain.requires_grad)
            if x_grad:
                gx[:, part] += gpart
            ggains.append(ggain)
        if x_grad:
            gx[:, qk:] += g[:, qk:]
            gx = gx.transpose(0, 2, 1, 3).reshape(qkv.shape)
        return gx, *ggains

    return T.node(out, (qkv, q_gain, k_gain), vjp, "split_heads")


def attention_heads(qkv: Tensor, batch: int, seq: int, query_heads: int, kv_heads: int,
                    q_gain: Tensor, k_gain: Tensor, eps: float, encode) -> tuple:
    """(q, k, v) [batch, heads, seq, d] of a fused projection, as `split_heads` lays
    them out: `encode(t)` position-encodes the normalised q and k heads in one call."""
    heads = split_heads(qkv, batch, seq, query_heads, kv_heads, q_gain, k_gain, eps)
    qk = encode(heads[:, :query_heads + kv_heads])
    return qk[:, :query_heads], qk[:, query_heads:], heads[:, query_heads + kv_heads:]


def causal_mask(m: int, n: int, offset: int, dtype) -> np.ndarray:
    """Read-only additive [m, n] mask: row i may attend keys j <= i + offset."""
    q = np.arange(m)[:, None] + offset
    k = np.arange(n)[None, :]
    # made in `dtype` directly: no float64 temporary, no cast copy
    mask = np.where(k <= q, np.zeros((), dtype), np.asarray(MASK_VALUE, dtype))
    mask.flags.writeable = False  # a caller may share it between attention calls
    return mask


def grouped_query_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None):
    """Attention where groups of query heads share one key/value head.

    Shapes: q [b, query_heads, m, d], k/v [b, kv_heads, n, d], one dtype.
    `mask` is an additive [m, n] mask in q's dtype, such as `causal_mask(m,
    n, offset, q.dtype)`, added to every query head's scores; None adds
    none. Returns (out as merged rows [b * m, query_heads * d], row i * m +
    j holding query j of batch i with its heads side by side, ready for
    the output projection; the softmax weights as an array [b,
    query_heads, m, n]). Equal head counts reduce to plain per-head
    attention. The group axis is merged into the row axis so each kv head
    attends all of its query heads in one batched product.

    The whole core is one tape node, `attention`, over (q, k, v): the
    score product is scaled, masked and softmaxed in place, so no raw or
    scaled score array exists beside the weights, which are all the node
    keeps. Its vjp runs the vjps of the engine-op chain (reshape,
    transpose, two matmuls around the scaled, masked softmax, then the
    merge's transpose and reshape) in reverse with the same numpy calls,
    so every gradient is bitwise that chain's.
    """
    if q.ndim != 4:
        raise ShapeError(f"gqa: q shape {q.shape} is not [b, heads, m, d]")
    b, qh, m, d = q.shape
    if k.shape != v.shape:
        raise ShapeError(f"gqa: k shape {k.shape} != v shape {v.shape}")
    if k.ndim != 4 or k.shape[0] != b or k.shape[-1] != d:
        raise ShapeError(f"gqa: k shape {k.shape} does not fit q shape {q.shape}")
    if not q.dtype == k.dtype == v.dtype:
        raise ShapeError(f"gqa: dtypes {q.dtype.name}, {k.dtype.name}, {v.dtype.name} differ")
    _, kv_heads, n, _ = k.shape
    if qh % kv_heads != 0:
        raise ShapeError(f"gqa: {qh} query heads not a multiple of {kv_heads} kv heads")
    if mask is not None and (mask.shape != (m, n) or mask.dtype != q.dtype):
        raise ShapeError(f"gqa: mask {mask.shape} {mask.dtype.name} is not ({m}, {n}) "
                         f"{q.dtype.name}")
    group = qh // kv_heads
    qd, vd = q.data.reshape(b, kv_heads, group * m, d), v.data
    kt = k.data.transpose(0, 1, 3, 2)
    scale = np.asarray(1.0 / np.sqrt(d), dtype=q.dtype)
    w = qd @ kt
    w *= scale
    if mask is not None:
        blocks = w.reshape(b, kv_heads, group, m, n)  # a view: w is new
        blocks += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out = (w @ vd).reshape(b, qh, m, d).transpose(0, 2, 1, 3).reshape(b * m, qh * d)

    def vjp(g):
        g = g.reshape(b, m, qh, d).transpose(0, 2, 1, 3).reshape(b, kv_heads, group * m, d)
        gq = gk = gv = None
        if v.requires_grad:
            gv = np.swapaxes(w, -1, -2) @ g
        if q.requires_grad or k.requires_grad:
            gw = g @ np.swapaxes(vd, -1, -2)
            gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                gq = (gs @ np.swapaxes(kt, -1, -2)).reshape(q.shape)
            if k.requires_grad:
                gk = (np.swapaxes(qd, -1, -2) @ gs).transpose(0, 1, 3, 2)
        return gq, gk, gv

    return T.node(out, (q, k, v), vjp, "attention"), w.reshape(b, qh, m, n)
