"""Reference oracles that only the tests use.

Plain, per-vector or dense versions of library paths: the tests compare
the batched, sparse code in `src/` against them. None of this is part of
the package.
"""

import numpy as np

from dreamer import tensor as T
from dreamer.attention import causal_mask
from dreamer.errors import ConfigError, ContractError, ShapeError
from dreamer.routing import RouterState, bank_apply, select_topk, update_balance
from dreamer.tensor import Tensor


# -- engine ops ------------------------------------------------------------------

def stack(tensors, axis: int = 0) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return T._node(out, tuple(tensors), vjp, "stack")


def scatter_last(values: Tensor, idx: np.ndarray, size: int) -> Tensor:
    """Inverse of gather_last: spread values into a zero last axis of `size`."""
    idx = np.asarray(idx)
    shape = values.shape[:-1] + (size,)
    out = np.zeros(shape, dtype=values.dtype)
    np.put_along_axis(out, idx, values.data, axis=-1)

    def vjp(g):
        return (np.take_along_axis(g, idx, axis=-1),)

    return T._node(out, (values,), vjp, "scatter_last")


def dense_backward(loss: Tensor) -> dict:
    """Leaf gradients of `loss` by node id, accumulated densely out of place.

    Walks the same topological order as `T.backward_from`, but turns every
    indexed gradient into a full zero array with the slice added in and sums
    with `a + b`, never in place: the engine's arithmetic before indexed
    gradients and owned accumulators. Leaves' `.grad` are left alone.
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
    scores = T.matmul(q, T.transpose(k, swap)) * scale
    if causal:
        mask = causal_mask(q.shape[-2], k.shape[-2], pos_offset, q.dtype)
        scores = scores + Tensor(mask)
    weights = T.softmax(scores)
    out = T.matmul(weights, v)
    if return_weights:
        return out, weights
    return out


# -- routing ---------------------------------------------------------------------

def ea_select(logits: Tensor, state: RouterState) -> Tensor:
    """Sparse gate vector for one token: [E] logits -> [E] gates, k nonzero."""
    if logits.ndim != 1:
        raise ConfigError(f"ea_select expects a logit vector, got {logits.shape}")
    idx, gates = select_topk(logits.reshape(1, logits.shape[0]), state)
    dense = scatter_last(gates, idx, state.num_experts)
    return dense.reshape(state.num_experts)


def moe_linear_forward(x: Tensor, sigma: Tensor, bank) -> Tensor:
    """Single-vector forward: gate * (x W_e) + stopgrad(gate) * (x W_shared)."""
    if x.ndim != 1:
        raise ContractError(f"moe_linear_forward expects a vector, got {x.shape}")
    nz = np.nonzero(sigma.data)[0]
    if nz.size != 1:
        raise ContractError(f"sigma must have exactly one nonzero, got {nz.size}")
    e = int(nz[0])
    gate = sigma[e]
    out = bank_apply(x.reshape(1, x.shape[0]), np.array([e]), gate.reshape(1), bank)
    return out.reshape(out.shape[1])


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
