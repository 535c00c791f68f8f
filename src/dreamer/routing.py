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
from .errors import ConfigError, ContractError
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


# -- routing plans, gated experts and linear expert banks ---------------------

class RoutingPlan:
    """The dropless grouping of one top-k selection `idx` [n, k], built once.

    An attention module's qkv and out banks share their module's plan; EA
    has its own. The (row, slot) pairs are grouped by expert id, stably,
    and an expert with one pair gets it twice (see `gated_experts`):
      rows       [P] the input row of each grouped pair
      out        [n * k] each (row, slot)'s grouped pair, a row's slots in
                 ascending expert id
      gate_rows  [n * k] the flat (row, slot) gate of each entry of `out`;
                 None for top-1, where it is the row itself
      runs       (B, m, start, experts) per run of B adjacent groups of m
                 pairs from pair `start` on; `experts` is a slice of the
                 stacked weights for consecutive ids, else the id array
    `np.asarray(plan)` is `idx`.
    """

    __slots__ = ("idx", "rows", "out", "gate_rows", "runs")

    def __init__(self, idx: np.ndarray):
        idx = np.asarray(idx)
        if idx.ndim != 2:
            raise ContractError(f"routing plan: idx must be [n, k], got shape {idx.shape}")
        n, top_k = idx.shape
        order, experts, counts = T.group_ids(idx.reshape(-1))
        sizes = np.maximum(counts, 2)
        reps = np.repeat(sizes // counts, counts)   # 2 for a singleton's pair, else 1
        pairs = np.repeat(order, reps)              # grouped pairs, singletons twice
        pos = np.empty_like(order)
        pos[order] = np.cumsum(reps) - reps         # where each pair's output lands
        self.idx = idx
        self.rows = pairs // top_k
        if top_k == 1:
            self.out, self.gate_rows = pos, None
        else:
            # sorted positions put each row's slots in ascending expert id, so
            # the summation order depends on which experts a row picked, not
            # their rank
            self.out = np.sort(pos.reshape(n, top_k), axis=1).reshape(-1)
            self.gate_rows = pairs[self.out]
        ids = experts.tolist()
        runs, first, start = [], 0, 0
        for m, same in itertools.groupby(sizes.tolist()):
            b = len(list(same))
            lo, hi = ids[first], ids[first + b - 1]
            key = slice(lo, hi + 1) if hi - lo == b - 1 else experts[first:first + b]
            runs.append((b, m, start, key))
            first, start = first + b, start + b * m
        self.runs = tuple(runs)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.idx, dtype)


def gated_experts(x: Tensor, plan: RoutingPlan, gates: Tensor, weights, expert) -> Tensor:
    """Routed mixture: x [n, din], gates [n, k] -> [n, dout] for `plan`'s idx [n, k].

    Row r gets sum_j gates[r, j] * expert(x[r], *(w[idx[r, j]] for w in
    weights)), summed in ascending expert id; each of `weights` is stacked
    [E, ...]. Each expert runs on its own rows only.

    `x` is gathered once, in the plan's expert-major order. Each of the
    plan's runs is one batched call `expert(u, *run)`: u is [B, m, din], a
    view of the gather, and `run` holds each weight's [B, ...] for the
    run's B experts in ascending id: a view `w[a:b]` when the ids are
    consecutive, a `take_rows` gather otherwise. It returns [B, m, dout].
    Groups are never padded to a common size: a padded product costs
    work and memory, and BLAS may round a group's real rows differently
    once padding changes the product's shape. The gates scale the outputs
    after they are gathered back into row order.

    No product ever has one row. BLAS computes a 1-row product on its gemv
    path, which can round differently from the same row inside a larger
    product; with m >= 2 rows, `x[rows] @ W` equals `(x @ W)[rows]`
    bitwise, also as one slice of a batched product. So an expert picked
    by a single row runs on that row twice, and the copy is never read. A
    row's result then never depends on how other rows are routed.
    """
    n, top_k = plan.idx.shape
    u = T.take_rows(x, plan.rows[None, :])   # [1, pairs, din], expert-major
    parts = []
    for b, m, start, key in plan.runs:
        run = ([w[key] for w in weights] if isinstance(key, slice)
               else [T.take_rows(w, key) for w in weights])
        rows = u if len(plan.runs) == 1 else u[:, start:start + b * m]
        part = expert(rows if b == 1 else rows.reshape(b, m, -1), *run)
        parts.append(part if b == 1 else part.reshape(1, b * m, -1))
    # Under no_grad the gathered rows and weights die here, before the
    # concat, and the parts right after it: fewer live buffers and pages.
    del u, rows, run, part
    y = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
    del parts
    y = T.take_rows(y.reshape(plan.rows.size, -1), plan.out)
    if top_k == 1:
        return y * gates.reshape(n, 1)
    y = y * T.take_rows(gates.reshape(n * top_k, 1), plan.gate_rows)
    return y.reshape(n, top_k, -1).sum(axis=1)


def bank_apply(x: Tensor, plan: RoutingPlan, gates: Tensor, experts: Tensor,
               shared: Tensor) -> Tensor:
    """Batched top-1 bank forward: x [n, din], gates [n] -> [n, dout].

    A bank is E routed experts [E, din, dout] plus one always-on shared
    expert [din, dout]; `plan` groups the [n, 1] selection. Also takes
    `select_topk`'s [n, 1] gates. The routed expert is scaled by the gate;
    the shared expert is scaled by the same value with its gradient
    stopped, so the router learns only from the routable term.
    """
    gcol = gates.reshape(x.shape[0], 1)
    out = gated_experts(x, plan, gcol, (experts,), T.matmul)
    return out + T.stop_gradient(gcol) * T.matmul(x, shared)
