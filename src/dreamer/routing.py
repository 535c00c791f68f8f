"""Expert routing: gated top-k selection, usage balancing, gated expert mixtures.

Selection and gating are deliberately decoupled:
  * which experts fire is decided by logits + balancing bias (top-k,
    ties broken toward the lower index),
  * how much they contribute is sigmoid(logit) at the selected indices,
    optionally renormalized over the selected set.

The bias is a plain statistic, never part of the autodiff graph: it moves
by +-update_rate toward the median usage count after each update and only
steers future selections. Gradients reach the logits exclusively through
the sigmoid gate values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import rope_depth_apply
from .errors import ConfigError
from .tensor import Tensor


@dataclass
class RouterState:
    """Mutable per-router balancing state (single writer per router)."""

    name: str
    num_experts: int
    top_k: int
    update_rate: float
    normalize: bool = True
    bias: np.ndarray = None
    counts: np.ndarray = None

    def __post_init__(self):
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigError(
                f"router {self.name}: top_k={self.top_k} outside [1, {self.num_experts}]")
        if self.bias is None:
            self.bias = np.zeros(self.num_experts, dtype=np.float64)
        if self.bias.shape != (self.num_experts,):
            raise ConfigError(f"router {self.name}: bias shape {self.bias.shape}")
        if self.counts is None:
            self.counts = np.zeros(self.num_experts, dtype=np.int64)


def select_topk(logits: Tensor, state: RouterState):
    """Batched selection: logits [n, E] -> (indices [n, k], gates [n, k]).

    Indices are chosen by logits + bias (descending, stable so equal
    values resolve to the lowest index). Gate values are the sigmoid of the
    k selected logits only; with `normalize`, each row is divided by its
    selected-set sum. Usage counts accumulate per selected expert, but
    only while gradients are recorded: inference never moves balancing.
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
    gates = T.sigmoid(T.take_rows(logits.reshape(-1), flat_idx))
    if state.normalize:
        gates = gates / gates.sum(axis=-1, keepdims=True)
    return idx, gates


def update_balance(state: RouterState) -> None:
    """Move biases one step toward the median usage count, then reset counts.

    sign(median - n) is +1 for starved experts, -1 for overused ones and 0
    at the median itself; with an even expert count the median is the
    midpoint of the two central order statistics.
    """
    n = state.counts.astype(np.float64)
    state.bias += state.update_rate * np.sign(np.median(n) - n)
    state.counts[:] = 0


def depth_router_logits(x: Tensor, query_weight: Tensor, keys: Tensor, depth: int,
                        depths: int, base: float) -> Tensor:
    """Routing logits <rotate(x W_q, depth), key_e> / sqrt(qk_dim).

    Queries are depth-position-encoded (`rope_depth_apply` with `depths`
    and `base`); the learnable keys are static and deliberately not
    encoded.
    """
    q = rope_depth_apply(T.matmul(x, query_weight), depth, depths, base)
    scale = 1.0 / np.sqrt(q.shape[-1])
    return T.matmul(q, T.transpose(keys, (1, 0))) * scale


# -- gated experts and linear expert banks ------------------------------------

def gated_experts(x: Tensor, idx: np.ndarray, gates: Tensor, weights, expert) -> Tensor:
    """Routed mixture: x [n, din], idx [n, k], gates [n, k] -> [n, dout].

    Row r gets sum_j gates[r, j] * expert(x[r], *(w[idx[r, j]] for w in
    weights)), summed in ascending expert id; each of `weights` is stacked
    [E, ...]. The (row, slot) pairs are grouped by expert (dropless, as in
    MegaBlocks) and each expert runs on its own rows only.

    `x` is gathered once, in expert-major order. Each run of adjacent
    groups of one size m runs as one batched call `expert(u, *run)`: u is
    [B, m, din], a view of the gather, and `run` holds each weight's [B, ...]
    for the run's B experts in ascending id: a view `w[a:b]` when the ids
    are consecutive, a `take_rows` gather otherwise. It returns [B, m, dout].
    Groups are never padded to a common size: a padded product costs
    work and memory, and BLAS may round a group's real rows differently
    once padding changes the product's shape.

    No product ever has one row. BLAS computes a 1-row product on its gemv
    path, which can round differently from the same row inside a larger
    product; with m >= 2 rows, `x[rows] @ W` equals `(x @ W)[rows]`
    bitwise, also as one slice of a batched product. So an expert picked
    by a single row runs on that row twice, and the copy is never read. A
    row's result then never depends on how other rows are routed.
    """
    n, top_k = idx.shape
    order, experts, counts = T.group_ids(idx.reshape(-1))
    sizes = np.maximum(counts, 2)
    reps = np.repeat(sizes // counts, counts)   # 2 for a singleton's pair, else 1
    pairs = np.repeat(order, reps)              # grouped pairs, singletons twice
    pos = np.empty_like(order)
    pos[order] = np.cumsum(reps) - reps         # where each pair's output lands
    u = T.take_rows(x, (pairs // top_k)[None, :])   # [1, rows, din], expert-major
    ids = experts.tolist()
    parts, first, start = [], 0, 0
    for m, same in itertools.groupby(sizes.tolist()):
        b = len(list(same))
        lo, hi = ids[first], ids[first + b - 1]
        run = ([w[lo:hi + 1] for w in weights] if hi - lo == b - 1
               else [T.take_rows(w, experts[first:first + b]) for w in weights])
        rows = u if b * m == pairs.size else u[:, start:start + b * m]
        part = expert(rows if b == 1 else rows.reshape(b, m, -1), *run)
        parts.append(part if b == 1 else part.reshape(1, b * m, -1))
        first, start = first + b, start + b * m
    # Under no_grad the gathered rows and weights die here, before the
    # concat, and the parts right after it: fewer live buffers and pages.
    del u, rows, run, part
    y = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
    del parts
    y = y.reshape(pairs.size, -1) * T.take_rows(gates.reshape(n * top_k, 1), pairs)
    # sorted positions put each row's slots in ascending expert id, so the
    # summation order depends on which experts a row picked, not their rank
    out = T.take_rows(y, np.sort(pos.reshape(n, top_k), axis=1).reshape(-1))
    return out if top_k == 1 else out.reshape(n, top_k, -1).sum(axis=1)


def bank_apply(x: Tensor, idx: np.ndarray, gates: Tensor, experts: Tensor,
               shared: Tensor) -> Tensor:
    """Batched top-1 bank forward: x [n, din], idx [n], gates [n] -> [n, dout].

    A bank is E routed experts [E, din, dout] plus one always-on shared
    expert [din, dout]. Also takes `select_topk`'s [n, 1] pair. The routed
    expert is scaled by the gate; the shared expert is scaled by the same
    value with its gradient stopped, so the router learns only from the
    routable term.
    """
    n = x.shape[0]
    gcol = gates.reshape(n, 1)
    out = gated_experts(x, idx.reshape(n, 1), gcol, (experts,), T.matmul)
    return out + T.stop_gradient(gcol) * T.matmul(x, shared)
