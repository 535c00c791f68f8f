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

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import RopeSpec, rope_depth_apply
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
    updates: int = 0

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
    values resolve to the lowest index). Gate values are sigmoid(logit)
    gathered at those indices; with `normalize`, each row is divided by
    its selected-set sum. Usage counts accumulate per selected expert, but
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
    gates = T.gather_last(T.sigmoid(logits), idx)
    if state.normalize:
        gates = gates / gates.sum(axis=-1, keepdims=True)
    return idx, gates


def ea_select(logits: Tensor, state: RouterState) -> Tensor:
    """Sparse gate vector for one token: [E] logits -> [E] gates, k nonzero."""
    if logits.ndim != 1:
        raise ConfigError(f"ea_select expects a logit vector, got {logits.shape}")
    idx, gates = select_topk(logits.reshape(1, logits.shape[0]), state)
    dense = T.scatter_last(gates, idx, state.num_experts)
    return dense.reshape(state.num_experts)


def update_balance(state: RouterState) -> RouterState:
    """Move biases one step toward the median usage count, then reset counts.

    sign(median - n) is +1 for starved experts, -1 for overused ones and 0
    at the median itself; with an even expert count the median is the
    midpoint of the two central order statistics.
    """
    n = state.counts.astype(np.float64)
    state.bias += state.update_rate * np.sign(np.median(n) - n)
    state.counts[:] = 0
    state.updates += 1
    return state


def depth_router_logits(x: Tensor, query_weight: Tensor, keys: Tensor, depth: int,
                        rope: RopeSpec) -> Tensor:
    """Routing logits <rotate(x W_q, depth), key_e> / sqrt(qk_dim).

    Queries are depth-position-encoded; the learnable keys are static and
    deliberately not encoded.
    """
    q = rope_depth_apply(T.matmul(x, query_weight), depth, rope)
    scale = 1.0 / np.sqrt(q.shape[-1])
    return T.matmul(q, T.transpose(keys, (1, 0))) * scale


# -- gated experts and linear expert banks ------------------------------------

@dataclass
class LinearExpertBank:
    """E linear experts [E, din, dout] plus one always-on shared expert.

    The routed expert is scaled by the gate; the shared expert is scaled by
    the same value with its gradient stopped, so the router learns only
    from the routable term. `fold_shared` bakes the shared matrix into
    every expert for single-matmul inference.
    """

    experts: Tensor
    shared: Tensor | None = None
    folded: bool = False

    def __post_init__(self):
        if self.experts.ndim != 3:
            raise ConfigError(f"expert bank must be [E, din, dout], got {self.experts.shape}")
        if self.shared is not None and self.shared.shape != self.experts.shape[1:]:
            raise ConfigError(
                f"shared expert shape {self.shared.shape} != {self.experts.shape[1:]}")

    @property
    def num_experts(self) -> int:
        return self.experts.shape[0]


def moe_linear_forward(x: Tensor, sigma: Tensor, bank: LinearExpertBank) -> Tensor:
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


def gated_experts(x: Tensor, idx: np.ndarray, gates: Tensor, expert) -> Tensor:
    """Routed mixture: x [n, din], idx [n, k], gates [n, k] -> [n, dout].

    Row r gets sum_j gates[r, j] * expert(x, idx[r, j])[r], summed in
    ascending expert id. The (row, slot) pairs are grouped by expert
    (dropless, as in MegaBlocks) and each expert runs once, on its own
    rows only.

    No product ever has one row. BLAS computes a 1-row product on its gemv
    path, which can round differently from the same row inside a larger
    product; with m >= 2 rows, `x[rows] @ W` equals `(x @ W)[rows]`
    bitwise. So an expert picked by a single row runs on that row twice,
    and the copy is never read. A row's result then never depends on how
    other rows are routed.
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
    parts = [expert(T.take_rows(x, pairs[end - size:end] // top_k), int(e))
             for e, size, end in zip(experts, sizes, ends)]
    y = parts[0] if len(parts) == 1 else T.concat(parts, axis=0)
    y = y * T.take_rows(gates.reshape(n * top_k, 1), pairs)
    # sorted positions put each row's slots in ascending expert id, so the
    # summation order depends on which experts a row picked, not their rank
    out = T.take_rows(y, np.sort(pos.reshape(n, top_k), axis=1).reshape(-1))
    return out if top_k == 1 else out.reshape(n, top_k, -1).sum(axis=1)


def bank_apply(x: Tensor, idx: np.ndarray, gates: Tensor, bank: LinearExpertBank) -> Tensor:
    """Batched top-1 bank forward: x [n, din], idx [n], gates [n] -> [n, dout].

    Also takes `select_topk`'s [n, 1] pair. The shared expert is scaled by
    the same gate with its gradient stopped.
    """
    n = x.shape[0]
    gcol = gates.reshape(n, 1)
    out = gated_experts(x, idx.reshape(n, 1), gcol,
                        lambda u, e: T.matmul(u, bank.experts[e]))
    if bank.shared is not None and not bank.folded:
        out = out + T.stop_gradient(gcol) * T.matmul(x, bank.shared)
    return out


def fold_shared(bank: LinearExpertBank) -> LinearExpertBank:
    """Add the shared matrix into every expert; forward drops the shared term.

    Value-preserving because the shared scale equals the gate numerically.
    In-place on the bank's tensors; folding twice is an error.
    """
    if bank.folded:
        raise ContractError("bank is already folded")
    if bank.shared is None:
        bank.folded = True
        return bank
    bank.experts.data = bank.experts.data + bank.shared.data[None, :, :]
    bank.folded = True
    return bank


# -- balancing simulation (used by tests and the acceptance suite) ---------------

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
