"""Reference oracles that only the tests use.

Plain, per-vector or dense versions of library paths: the tests compare
the batched, sparse code in `src/` against them. None of this is part of
the package.
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

import dreamer.training
from dreamer import tensor as T
from dreamer.attention import causal_mask, rms_norm, rope_depth_apply
from dreamer.errors import ConfigError, ContractError, InputError, ShapeError
from dreamer.model import DreamerModel
from dreamer.params import init_parameters, learnable
from dreamer.routing import (RouterState, RoutingPlan, bank_apply, gated_experts, linear_expert,
                             select_topk, update_balance)
from dreamer.tensor import Tensor
from dreamer.training import IGNORE_TARGET, TaskSpec, make_batch


# -- engine ops ------------------------------------------------------------------

def sub(a, b) -> Tensor:
    a, b, out = T._binary(a, b, "sub", np.subtract)

    def vjp(g):
        return (T._unbroadcast(g, a.shape) if a.requires_grad else None,
                T._unbroadcast(-g, b.shape) if b.requires_grad else None)

    return T.node(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b, out = T._binary(a, b, "mul", np.multiply)
    ad, bd = a.data, b.data

    def vjp(g):
        return (T._unbroadcast(g * bd, a.shape) if a.requires_grad else None,
                T._unbroadcast(g * ad, b.shape) if b.requires_grad else None)

    return T.node(out, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b, out = T._binary(a, b, "div", np.true_divide)
    ad, bd = a.data, b.data

    def vjp(g):
        return (T._unbroadcast(g / bd, a.shape) if a.requires_grad else None,
                T._unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None)

    return T.node(out, (a, b), vjp, "div")


def _norm_axis(axis):
    if axis is None or isinstance(axis, tuple):
        return axis
    return (axis,)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axis = _norm_axis(axis)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return T.node(out, (a,), vjp, "sum")


def probe_loss(out: Tensor, weights) -> Tensor:
    """sum(out * weights): a scalar whose gradient at `out` is `weights`
    (a Tensor, an array or a number), or 2 * out when `weights` is `out`."""
    return reduce_sum(mul(out, weights))


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis, stable against overflow."""
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out = (np.log(s) + m).squeeze(-1)
    soft = e / s

    def vjp(g):
        return (np.expand_dims(g, -1) * soft,)

    return T.node(out, (a,), vjp, "logsumexp")


def masked_cross_entropy_chain(logits: Tensor, targets: np.ndarray) -> Tensor:
    """`masked_cross_entropy` as engine ops: two reshapes, the target
    gather, logsumexp, the subtraction, the mask, the sum and the division.
    The fused `cross_entropy` node must equal this bitwise, forward and
    backward.
    """
    b, s, vocab = logits.shape
    flat = logits.reshape(b * s, vocab)
    tgt = targets.reshape(-1)
    live = tgt != IGNORE_TARGET
    if not np.any(live):
        raise InputError("no live target positions in batch")
    safe = np.where(live, tgt, 0)
    picked = T.take_rows(flat.reshape(-1), np.arange(b * s) * vocab + safe)
    losses = sub(logsumexp(flat), picked)
    return div(reduce_sum(mul(losses, live.astype(logits.dtype))), float(live.sum()))


def stack(tensors, axis: int = 0) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return T.node(out, tuple(tensors), vjp, "stack")


def scatter_last(values: Tensor, idx: np.ndarray, size: int) -> Tensor:
    """Spread values into a zero last axis of `size`: out[..., idx[..., j]] = values[..., j]."""
    idx = np.asarray(idx)
    shape = values.shape[:-1] + (size,)
    out = np.zeros(shape, dtype=values.dtype)
    np.put_along_axis(out, idx, values.data, axis=-1)

    def vjp(g):
        return (np.take_along_axis(g, idx, axis=-1),)

    return T.node(out, (values,), vjp, "scatter_last")


def take_rows_add_at(a: Tensor, idx: np.ndarray) -> Tensor:
    """`T.take_rows` with the repeated-index backward of `np.unique` + `np.add.at`.

    np.add.at sums each row's copies in index order, from zero, unbuffered:
    the order `T.take_rows`' occurrence-rank loop must reproduce bitwise.
    Unique indices hand `g` back as it is, as `T.take_rows` does.
    """
    idx = np.asarray(idx)
    shape, dt = a.shape, a.dtype

    def vjp(g):
        flat = idx.reshape(-1)
        if np.bincount(flat, minlength=shape[0]).max(initial=0) <= 1:
            return (T._Scatter(idx, g, shape, dt),)
        rows, inv = np.unique(flat, return_inverse=True)
        part = np.zeros((rows.size,) + shape[1:], dtype=dt)
        np.add.at(part, inv, g.reshape((idx.size,) + shape[1:]))
        return (T._Scatter(rows, part, shape, dt),)

    return T.node(a.data[idx], (a,), vjp, "take_rows")


def expert_node(expert, u: Tensor, *run: Tensor) -> Tensor:
    """A numpy expert pair `expert(u, *run) -> (out, vjp)` recorded as one engine node."""
    out, vjp = expert(u.data, *(w.data for w in run))
    return T.node(out, (u, *run), vjp, "expert")


def stop_gradient(a: Tensor) -> Tensor:
    """Identity in value, zero in gradient (returns a detached leaf)."""
    return Tensor(a.data, False, op="stop_gradient")


def neg(a: Tensor) -> Tensor:
    return T.node(-a.data, (a,), lambda g: (-g,), "neg")


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a python scalar exponent."""
    out = a.data ** p
    ad = a.data

    def vjp(g):
        return (g * p * ad ** (p - 1.0),)

    return T.node(out, (a,), vjp, "power")


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axis = (axis,) if isinstance(axis, int) else axis
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    n = a.size if axis is None else int(np.prod([shape[i] for i in axis]))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / n,)

    return T.node(out, (a,), vjp, "mean")


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return T.node(out, (a,), vjp, "sigmoid")


def silu(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * sig
    ad = a.data

    def vjp(g):
        return (g * sig * (1.0 + ad * (1.0 - sig)),)

    return T.node(out, (a,), vjp, "silu")


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return T.node(out, (a,), vjp, "softmax")


def dense_backward(loss: Tensor) -> dict:
    """Leaf gradients of `loss` by node id, accumulated densely out of place.

    Walks the same topological order as `T.backward`, but turns every
    indexed gradient into a full zero array with the slice added in and sums
    with `a + b`, never in place: the engine's arithmetic before indexed
    gradients and owned accumulators.
    """
    grads = {loss.node_id: np.ones_like(loss.data)}
    leaves = {}
    for node in reversed(T._topo(loss)):
        g = grads.pop(node.node_id, None)
        if g is None:
            continue
        if node.vjp is None:
            leaves[node.node_id] = g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if isinstance(pg, T._Scatter):
                full = np.zeros(pg.shape, dtype=pg.dtype)
                full[pg.key] += pg.g
                pg = full
            pid = parent.node_id
            grads[pid] = grads[pid] + pg if pid in grads else pg
    return leaves


def model_digest(cfg, dtype, tokens, targets) -> str:
    """A hash of the loss, every gradient, a greedy decode and no_grad logits.

    The loss is `dreamer.training.masked_cross_entropy`, looked up when
    called, so a test that swaps it in the module reaches it here.
    """
    model = DreamerModel(cfg, init_parameters(cfg, seed=5, dtype=dtype))
    inputs = learnable(model.params)
    loss = T.eval(dreamer.training.masked_cross_entropy(model.model_forward(tokens), targets))
    grads = T.backward(loss, inputs)
    h = hashlib.sha256(loss.data.tobytes())
    for name in sorted(grads):
        h.update(grads[name].tobytes())
    h.update(model.decode(tokens[:1, :5], 6).tobytes())
    with T.no_grad():
        h.update(model.model_forward(tokens).data.tobytes())
    return h.hexdigest()


def prompted_caches(model, seed=0, prompt_len=16):
    """Caches after a seeded batch-1 prompt, and the greedy next token [1, 1]."""
    rng = np.random.default_rng(seed)
    prompt = rng.integers(0, model.cfg.vocab_size, (1, prompt_len))
    caches = model.new_caches()
    logits = model.model_forward(prompt, caches)
    return caches, np.argmax(logits.data[:, -1, :], axis=-1)[:, None]


def decode_step_ops(model) -> list:
    """The op name of every engine op one cached decode step records.

    The step follows a seeded 32-token prompt, under no_grad. Every engine
    op and fused node is made by `T.node`, so this counts them all.
    """
    ops = []
    original = T.node

    def counting(data, parents, vjp, op):
        ops.append(op)
        return original(data, parents, vjp, op)

    with T.no_grad():
        caches, nxt = prompted_caches(model, prompt_len=32)
        T.node = counting
        try:
            model.model_forward(nxt, caches)
        finally:
            T.node = original
    return ops


def train_tape_nodes(model) -> int:
    """The nodes, leaves included, of one training forward's tape at 8 x 64 copy tokens."""
    tokens, targets = make_batch(TaskSpec("copy", 64, 16), 0, 8)
    loss = dreamer.training.masked_cross_entropy(model.model_forward(tokens), targets)
    return len(T._topo(loss))


@dataclass
class GradCheckReport:
    """Per-input max relative error between backward and central differences."""

    per_input: dict = field(default_factory=dict)
    max_rel_error: float = 0.0
    tolerance: float = 1e-4
    passed: bool = True

    def __str__(self):
        lines = [f"grad_check: max_rel_error={self.max_rel_error:.3e} "
                 f"tol={self.tolerance:.1e} passed={self.passed}"]
        for name, err in sorted(self.per_input.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def grad_check(fn, inputs: dict[str, Tensor], tolerance: float = 1e-4,
               step: float = 1e-5) -> GradCheckReport:
    """Compare backward of `fn(inputs)` against central finite differences.

    Requires float64 inputs. The relative error for an input is
    max|g_ad - g_fd| / max(max|g_fd|, max|g_ad|, 1e-6); the floor keeps
    identically-zero gradients from being divided by difference noise.
    """
    for name, t in inputs.items():
        if t.requires_grad and t.dtype != np.float64:
            raise ContractError(f"grad_check requires float64 inputs ({name} is {t.dtype.name})")
    analytic = T.backward(T.eval(fn(inputs)), inputs)

    report = GradCheckReport(tolerance=tolerance)
    for name, t in inputs.items():
        if not t.requires_grad:
            continue
        fd = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        fd_flat = fd.reshape(-1)
        with T.no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = float(fn(inputs).data)
                flat[i] = orig - step
                lo = float(fn(inputs).data)
                flat[i] = orig
                fd_flat[i] = (hi - lo) / (2.0 * step)
        ga = analytic[name]
        denom = max(float(np.max(np.abs(fd))), float(np.max(np.abs(ga))), 1e-6)
        err = float(np.max(np.abs(ga - fd))) / denom
        report.per_input[name] = err
    report.max_rel_error = max(report.per_input.values(), default=0.0)
    report.passed = report.max_rel_error < tolerance
    return report


# -- attention -------------------------------------------------------------------

def attention(q: Tensor, k: Tensor, v: Tensor, *, causal: bool = True,
              pos_offset: int = 0, return_weights: bool = False):
    """softmax(q k^T / sqrt(dim)) v over the last two axes.

    Shapes: q [..., m, d], k [..., n, d], v [..., n, dv] with equal leading
    dims. With `causal`, query row i sees key rows j <= i + pos_offset;
    masked slots get an additive -1e30, which underflows to an exactly-zero
    weight, so masked values cannot influence the output even bitwise.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention: q dim {q.shape[-1]} != k dim {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: k rows {k.shape[-2]} != v rows {v.shape[-2]}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    swap = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scores = mul(T.matmul(q, T.transpose(k, swap)), scale)
    if causal:
        mask = causal_mask(q.shape[-2], k.shape[-2], pos_offset, q.dtype)
        scores = scores + Tensor(mask)
    weights = softmax(scores)
    out = T.matmul(weights, v)
    if return_weights:
        return out, weights
    return out


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


def attention_chain(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None):
    """`grouped_query_attention` as engine ops: two matmuls around the
    scaled, masked softmax node, the group axis merged by engine reshapes,
    then the merge of the output into rows [b * m, query_heads * d] by an
    engine transpose and reshape. The fused `attention` node must equal
    this bitwise, forward and backward.
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
    merged = T.transpose(out, (0, 2, 1, 3)).reshape(b * m, qh * d)
    return merged, weights.data.reshape(b, qh, m, n)


def head_chain(qkv: Tensor, batch: int, seq: int, query_heads: int, kv_heads: int,
               q_gain: Tensor, k_gain: Tensor, eps: float, encode) -> tuple:
    """`attention_heads` as engine ops: the split of `qkv` into heads [batch,
    heads, seq, d] by a reshape and a transpose, a slice per group, an
    `rms_norm` each for q and k and one `encode` each. The `split_heads`
    node and the one joint rotation must equal this bitwise, forward and
    backward.
    """
    d = qkv.shape[1] // (query_heads + 2 * kv_heads)
    heads = qkv.reshape(batch, seq, query_heads + 2 * kv_heads, d)
    heads = T.transpose(heads, (0, 2, 1, 3))
    q = encode(rms_norm(heads[:, :query_heads], q_gain, eps))
    k = encode(rms_norm(heads[:, query_heads:query_heads + kv_heads], k_gain, eps))
    return q, k, heads[:, query_heads + kv_heads:]


def _rotate_pairs(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Split-half pair rotation with cos/sin built from float64 angles on every call."""
    half = x.shape[-1] // 2
    c, s = np.cos(angles).astype(x.dtype), np.sin(angles).astype(x.dtype)
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


def _pair_freqs(dim: int, base: float) -> np.ndarray:
    return base ** (-np.arange(dim // 2, dtype=np.float64) * 2.0 / dim)


def rope_oracle(x: np.ndarray, positions: np.ndarray, base: float) -> np.ndarray:
    """Uncached sequence RoPE: row i of `x[..., m, dim]` rotates by positions[i] * theta."""
    angles = np.asarray(positions, dtype=np.float64)[:, None] * _pair_freqs(x.shape[-1], base)
    return _rotate_pairs(x, angles)


def depth_rope_oracle(x: np.ndarray, depth: int, depths: int, base: float) -> np.ndarray:
    """Uncached depth RoPE: the first half of the pairs at `depth`, the rest reversed."""
    dim = x.shape[-1]
    pos = np.empty(dim // 2, dtype=np.float64)
    pos[:dim // 4] = float(depth)
    pos[dim // 4:] = float(depths - 1 - depth)
    return _rotate_pairs(x, pos * _pair_freqs(dim, base))


# -- routing ---------------------------------------------------------------------

def select_topk_chain(logits: Tensor, state: RouterState):
    """`select_topk` with its gates as engine ops: a reshape, a gather,
    the sigmoid and, with `normalize`, a sum and a division. The fused
    `gates` node must equal this bitwise, forward and backward.
    """
    if logits.ndim != 2 or logits.shape[1] != state.num_experts:
        raise ConfigError(
            f"router {state.name}: logits shape {logits.shape} != (n, {state.num_experts})")
    keyed = logits.data + state.bias[None, :]
    order = np.argsort(-keyed, axis=-1, kind="stable")
    idx = np.ascontiguousarray(order[:, :state.top_k])
    if T.grad_enabled():
        np.add.at(state.counts, idx.reshape(-1), 1)
    flat_idx = np.arange(len(idx))[:, None] * state.num_experts + idx
    gates = sigmoid(T.take_rows(logits.reshape(-1), flat_idx))
    if state.normalize:
        gates = div(gates, reduce_sum(gates, axis=-1, keepdims=True))
    return idx, gates


def router_logits_chain(x: Tensor, query_weight: Tensor, keys: Tensor, depth: int,
                        depths: int, base: float) -> Tensor:
    """`depth_router_logits` as engine ops: two matmuls around the depth
    rotation node, then the scale. The fused `router_logits` node must
    equal this bitwise, forward and backward.
    """
    q = rope_depth_apply(T.matmul(x, query_weight), depth, depths, base)
    scale = 1.0 / np.sqrt(q.shape[-1])
    return mul(T.matmul(q, T.transpose(keys, (1, 0))), scale)


def ea_select(logits: Tensor, state: RouterState) -> Tensor:
    """Sparse gate vector for one token: [E] logits -> [E] gates, k nonzero."""
    if logits.ndim != 1:
        raise ConfigError(f"ea_select expects a logit vector, got {logits.shape}")
    idx, gates = select_topk(logits.reshape(1, logits.shape[0]), state)
    dense = scatter_last(gates, idx, state.num_experts)
    return dense.reshape(state.num_experts)


def moe_linear_forward(x: Tensor, sigma: Tensor, experts: Tensor, shared: Tensor) -> Tensor:
    """Single-vector forward: gate * (x W_e) + stopgrad(gate) * (x W_shared)."""
    if x.ndim != 1:
        raise ContractError(f"moe_linear_forward expects a vector, got {x.shape}")
    nz = np.nonzero(sigma.data)[0]
    if nz.size != 1:
        raise ContractError(f"sigma must have exactly one nonzero, got {nz.size}")
    e = int(nz[0])
    gate = sigma[e]
    out = bank_apply(x.reshape(1, x.shape[0]), RoutingPlan([[e]]), gate.reshape(1),
                     experts, shared)
    return out.reshape(out.shape[1])


def fold_shared(experts: Tensor, shared: Tensor) -> Tensor:
    """A bank's folded weights: the shared matrix added into every expert.

    `folded_bank_apply` on them equals `bank_apply` on the unfolded pair up
    to rounding, because the shared scale equals the gate numerically. This
    is the generation cost `costs.count_flops` charges a bank. The result
    has requires_grad False: folded weights are for inference only.
    """
    return Tensor(experts.data + shared.data[None, :, :])


def folded_bank_apply(x: Tensor, idx: np.ndarray, gates: Tensor, folded: Tensor) -> Tensor:
    """Bank forward on folded weights: one expert matmul per row, no shared term."""
    n = x.shape[0]
    return gated_experts(x, RoutingPlan(idx.reshape(n, 1)), gates.reshape(n, 1), (folded,),
                         linear_expert)


def bank_apply_chain(x: Tensor, plan: RoutingPlan, gates: Tensor, experts: Tensor,
                     shared: Tensor) -> Tensor:
    """`bank_apply` with its shared term as engine ops: the routed node,
    then the shared product times the stopped gate, added. The fused bank
    node must equal this bitwise, forward and backward.
    """
    gcol = gates.reshape(x.shape[0], 1)
    out = gated_experts(x, plan, gcol, (experts,), linear_expert)
    return out + mul(stop_gradient(gcol), T.matmul(x, shared))


def gated_experts_loop(x: Tensor, idx: np.ndarray, gates: Tensor, weights, expert,
                       shared: Tensor | None = None) -> Tensor:
    """`gated_experts` as one gather and one expert call per expert.

    The library's grouping before runs of equal-size groups were batched:
    each used expert gathers its own rows and calls the numpy pair `expert`
    on `u [1, m, din]` and `w[e:e + 1]` for each of `weights`, recorded as
    one engine node by `expert_node`, ascending in e; a singleton's row
    runs twice. Everything around the expert calls is an engine op, so the
    engine's vjps check the fused node's backward. It sorts and counts the
    ids itself, takes `gated_experts`' plan's `idx`, gates the grouped
    outputs before it gathers them back into row order, and its gathers
    sum repeated rows with `np.add.at`. A top-1 `shared` term is added
    as engine ops, times the stopped gate. The batched primitive must equal
    this bitwise, forward and backward.
    """
    n, top_k = idx.shape
    flat = idx.reshape(-1)
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat)
    experts = np.flatnonzero(counts)
    counts = counts[experts]
    reps = np.ones(order.size, dtype=np.intp)
    reps[np.cumsum(counts)[counts == 1] - 1] = 2
    pairs = np.repeat(order, reps)              # grouped pairs, singletons twice
    pos = np.empty_like(order)
    pos[order] = np.cumsum(reps) - reps         # where each pair's output lands
    sizes = np.maximum(counts, 2)
    ends = np.cumsum(sizes)
    parts = []
    for e, size, end in zip(experts, sizes, ends):
        u = take_rows_add_at(x, pairs[end - size:end] // top_k).reshape(1, size, x.shape[1])
        run = (w[e:e + 1] for w in weights)
        parts.append(expert_node(expert, u, *run).reshape(size, -1))
    y = parts[0] if len(parts) == 1 else T.concat(parts, axis=0)
    y = mul(y, take_rows_add_at(gates.reshape(n * top_k, 1), pairs))
    out = take_rows_add_at(y, np.sort(pos.reshape(n, top_k), axis=1).reshape(-1))
    if shared is not None:
        return out + mul(stop_gradient(gates), shared)
    return out if top_k == 1 else reduce_sum(out.reshape(n, top_k, -1), axis=1)


def simulate_balancing(num_experts: int, top_k: int, update_rate: float,
                       updates: int, draws_per_update: int, skew: float,
                       seed: int) -> np.ndarray:
    """Drive a fixed skewed logit distribution through select + balance.

    Per-expert logit means are linearly spaced over [0, skew]; each update
    processes a batch of gaussian draws. Returns the usage histogram
    accumulated over the trailing half of the updates (the converged
    regime the biases settle into).
    """
    rng = np.random.default_rng(seed)
    state = RouterState("sim", num_experts, top_k, update_rate, normalize=True)
    offsets = np.linspace(0.0, skew, num_experts)
    tail = np.zeros(num_experts, dtype=np.int64)
    for step in range(updates):
        logits = Tensor(rng.normal(0.0, 1.0, (draws_per_update, num_experts)) + offsets)
        idx, _ = select_topk(logits, state)
        if step >= updates // 2:
            np.add.at(tail, idx.reshape(-1), 1)
        update_balance(state)
    return tail


# -- checkpoint container ------------------------------------------------------

def save_checkpoint_v1(path, cfg, params) -> None:
    """The version-1 container: no dtype codes, every payload float32."""
    config_bytes = cfg.to_json().encode()
    with open(path, "wb") as f:
        f.write(struct.pack("<II", 1, 0x01020304))
        f.write(struct.pack("<Q", len(config_bytes)))
        f.write(config_bytes)
        f.write(struct.pack("<Q", len(params)))
        for name, t in params.items():
            raw = name.encode()
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", t.ndim))
            f.write(struct.pack(f"<{t.ndim}Q", *t.shape))
            f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
