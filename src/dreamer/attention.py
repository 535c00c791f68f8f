"""Attention primitives: scaled dot-product, grouped queries, RoPE, RMSNorm.

All functions take and return engine Tensors and are dtype-agnostic
(float32 for training, float64 for gradient checks). Rotary embeddings use
the split-half pair layout: channel pair i is (x[i], x[i + dim/2]).

Two position encodings are supported:
  * sequence mode: every pair rotates by position * theta_i,
  * depth mode: pairs are split again; the first half of the pairs rotates
    forward with the depth index, the second half rotates with the reversed
    index (max_depth - 1 - depth). At max_depth == 1 both halves sit at
    position 0, so the encoding is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import MASK_VALUE, Tensor


@dataclass(frozen=True)
class AttentionSpec:
    """Head geometry for one attention module."""

    query_heads: int
    kv_heads: int
    head_dim: int
    causal: bool = True

    def __post_init__(self):
        if self.query_heads % self.kv_heads != 0:
            raise ConfigError(
                f"query_heads={self.query_heads} not divisible by kv_heads={self.kv_heads}")
        if self.head_dim <= 0:
            raise ConfigError("head_dim must be positive")


@dataclass(frozen=True)
class RopeSpec:
    """Rotary embedding parameters."""

    dim: int
    base: float = 10000.0
    depth_mode: bool = False
    max_depth: int = 0  # required in depth mode

    def __post_init__(self):
        if self.dim % 2 != 0:
            raise ConfigError(f"rope dim must be even, got {self.dim}")
        if self.depth_mode:
            if self.dim % 4 != 0:
                raise ConfigError(f"depth rope dim must be divisible by 4, got {self.dim}")
            if self.max_depth < 1:
                raise ConfigError("depth rope requires max_depth >= 1")


def _pair_freqs(spec: RopeSpec) -> np.ndarray:
    half = spec.dim // 2
    return spec.base ** (-np.arange(half, dtype=np.float64) * 2.0 / spec.dim)


def _apply_rotation(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    half = x.shape[-1] // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    cos_t = Tensor(cos.astype(x.dtype))
    sin_t = Tensor(sin.astype(x.dtype))
    return T.concat([x1 * cos_t - x2 * sin_t, x1 * sin_t + x2 * cos_t], axis=-1)


def rope_apply(x: Tensor, positions: np.ndarray, spec: RopeSpec) -> Tensor:
    """Rotate `x[..., m, dim]` by per-row sequence positions.

    Rotation preserves pair norms, and scores between rotated vectors
    depend on position differences only.
    """
    if spec.depth_mode:
        raise ContractError("rope_apply is for sequence positions; use rope_depth_apply")
    if x.shape[-1] != spec.dim:
        raise ShapeError(f"rope_apply: last dim {x.shape[-1]} != spec dim {spec.dim}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 1 or positions.shape[0] != x.shape[-2]:
        raise ShapeError(
            f"rope_apply: need one position per row, got {positions.shape} for {x.shape}")
    angles = positions[:, None] * _pair_freqs(spec)[None, :]
    return _apply_rotation(x, np.cos(angles), np.sin(angles))


def depth_rope_angles(depth: int, spec: RopeSpec) -> np.ndarray:
    """Per-pair rotation angles for one depth index (half forward, half reversed)."""
    if not spec.depth_mode:
        raise ContractError("spec is not in depth mode")
    if not 0 <= depth < spec.max_depth:
        raise ContractError(f"depth {depth} outside [0, {spec.max_depth})")
    freqs = _pair_freqs(spec)
    quarter = spec.dim // 4
    pos = np.empty(spec.dim // 2, dtype=np.float64)
    pos[:quarter] = float(depth)
    pos[quarter:] = float(spec.max_depth - 1 - depth)
    return pos * freqs


def rope_depth_apply(x: Tensor, depth: int, spec: RopeSpec) -> Tensor:
    """Rotate `x[..., dim]` by a depth index instead of a sequence position."""
    if x.shape[-1] != spec.dim:
        raise ShapeError(f"rope_depth_apply: last dim {x.shape[-1]} != spec dim {spec.dim}")
    angles = depth_rope_angles(depth, spec)
    return _apply_rotation(x, np.cos(angles), np.sin(angles))


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """x / rms(x) * gain over the last axis."""
    if gain.shape != x.shape[-1:]:
        raise ShapeError(f"rms_norm: gain shape {gain.shape} != feature dim {x.shape[-1:]}")
    ms = (x * x).mean(axis=-1, keepdims=True)
    inv = (ms + eps) ** -0.5
    return x * inv * gain


def causal_mask(m: int, n: int, offset: int, dtype) -> np.ndarray:
    """Additive [m, n] mask: row i may attend keys j <= i + offset."""
    q = np.arange(m)[:, None] + offset
    k = np.arange(n)[None, :]
    return np.where(k <= q, 0.0, MASK_VALUE).astype(dtype)


def _swap_last(ndim: int) -> tuple:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def grouped_query_attention(q: Tensor, k: Tensor, v: Tensor, spec: AttentionSpec,
                            *, pos_offset: int = 0, return_weights: bool = False):
    """Attention where groups of query heads share one key/value head.

    Shapes: q [b, query_heads, m, d], k/v [b, kv_heads, n, d]. Equal head
    counts reduce to plain per-head attention. The group axis is folded
    into the row axis so each kv head attends all of its query heads in
    one batched product; the causal mask is tiled to match.
    """
    b, qh, m, d = q.shape
    if qh != spec.query_heads or d != spec.head_dim:
        raise ShapeError(f"gqa: q shape {q.shape} inconsistent with spec {spec}")
    if k.shape[1] != spec.kv_heads or v.shape[1] != spec.kv_heads:
        raise ShapeError(f"gqa: kv heads {k.shape[1]} != spec kv_heads {spec.kv_heads}")
    n = k.shape[-2]
    group = spec.query_heads // spec.kv_heads
    qg = q.reshape(b, spec.kv_heads, group * m, d)
    scale = 1.0 / np.sqrt(d)
    scores = T.matmul(qg, T.transpose(k, _swap_last(k.ndim))) * scale
    if spec.causal:
        mask = np.tile(causal_mask(m, n, pos_offset, q.dtype), (group, 1))
        scores = scores + Tensor(mask)
    weights = T.softmax(scores)
    out = T.matmul(weights, v).reshape(b, qh, m, d)
    if return_weights:
        return out, weights.reshape(b, qh, m, n)
    return out
