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

Router logits are attention scores: a depth-rotated query against static
keys. They and the gates are one fused tape node each (`router_logits`,
`gates`), and so is the routed mixture after its input gather
(`gated_experts`), in a bank with the gated shared term; each vjp replays
the vjps of the engine-op chain it replaced, with the same numpy calls, so
gradients are bitwise that chain's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import _depth_rope_tables, rotate_pairs
from .errors import ConfigError, ContractError, ShapeError
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

    The gates are one tape node, `gates`, over `logits`: the gather, the
    sigmoid and the renormalisation. Its vjp replays the vjps of that
    engine-op chain in reverse with the same numpy calls and adds the
    selected logits' gradients into a dense [n, E] zero array.
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
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-logits.data.reshape(-1)[flat_idx]))
    normalize, top_k = state.normalize, state.top_k
    if normalize:
        total = sig.sum(axis=-1, keepdims=True)
        gates = sig / total
    else:
        gates = sig

    def vjp(g):
        if normalize:
            # the division's vjp for both operands, then the sum's
            gtotal = -g * sig / (total * total)
            if top_k > 1:
                gtotal = gtotal.sum(axis=1, keepdims=True)
            g = g / total + np.broadcast_to(gtotal, sig.shape).copy()
        dlogits = np.zeros(logits.shape, dtype=logits.dtype)
        dlogits.reshape(-1)[flat_idx] += g * sig * (1.0 - sig)
        return (dlogits,)

    return idx, T.node(gates, (logits,), vjp, "gates")


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

    x [n, din], query_weight [din, qk_dim], keys [E, qk_dim], one dtype.
    Queries are depth-position-encoded (the tables of `rope_depth_apply`
    with `depths` and `base`); the learnable keys are static and
    deliberately not encoded.

    The query product, the rotation, the key product and the scale are
    one tape node, `router_logits`, over (x, query_weight, keys^T); its
    vjp replays the vjps of that engine-op chain in reverse with the same
    numpy calls. keys^T stays an engine transpose: with the keys as a
    direct parent, the tape walk would sum their gradient over the depths
    in another order.
    """
    keys_t = T.transpose(keys, (1, 0))
    xd, wd, kd = x.data, query_weight.data, keys_t.data
    if not xd.dtype == wd.dtype == kd.dtype:
        raise ShapeError(f"router logits: dtypes {xd.dtype.name}, {wd.dtype.name}, "
                         f"{kd.dtype.name} differ")
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or wd.shape[1] != kd.shape[0]:
        raise ShapeError(f"router logits: inner dims differ for x {xd.shape} @ query weight "
                         f"{wd.shape} @ keys^T {kd.shape}")
    c, s = _depth_rope_tables(depth, depths, wd.shape[1], base, wd.dtype)
    h = xd @ wd
    q = rotate_pairs(h, c, s)
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=q.dtype)
    logits = q @ kd
    logits *= scale

    def vjp(g):
        g = g * scale
        gx = gw = gkt = None
        if keys_t.requires_grad:
            gkt = np.swapaxes(q, -1, -2) @ g
        if x.requires_grad or query_weight.requires_grad:
            gh = rotate_pairs(g @ np.swapaxes(kd, -1, -2), c, -s)
            if x.requires_grad:
                gx = gh @ np.swapaxes(wd, -1, -2)
            if query_weight.requires_grad:
                gw = np.swapaxes(xd, -1, -2) @ gh
        return gx, gw, gkt

    return T.node(logits, (x, query_weight, keys_t), vjp, "router_logits")


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
      experts    the ids present, ascending
      runs       (B, m, start, experts) per run of B adjacent groups of m
                 pairs from pair `start` on; `experts` is a slice of the
                 stacked weights for consecutive ids, else the id array
    `np.asarray(plan)` is `idx`.
    """

    __slots__ = ("idx", "rows", "out", "gate_rows", "experts", "runs")

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
        self.experts = experts
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


def linear_expert(u: np.ndarray, w: np.ndarray):
    """B linear experts on their own rows: u [B, m, din] @ w [B, din, dout].

    Returns (out, vjp), vjp(g) -> (du, dw); vjp is None under no_grad.
    """
    out = u @ w
    if not T.grad_enabled():
        return out, None

    def vjp(g):
        return g @ np.swapaxes(w, -1, -2), np.swapaxes(u, -1, -2) @ g

    return out, vjp


def gated_experts(x: Tensor, plan: RoutingPlan, gates: Tensor, weights, expert,
                  shared: Tensor | None = None) -> Tensor:
    """Routed mixture: x [n, din], gates [n, k] -> [n, dout] for `plan`'s idx [n, k].

    Row r gets sum_j gates[r, j] * expert(x[r], *(w[idx[r, j]] for w in
    weights)), summed in ascending expert id; each of `weights` is stacked
    [E, ...]. Each expert runs on its own rows only.

    `x` is gathered once, in the plan's expert-major order, as an engine
    op; everything after it is one tape node, `gated_experts`, with a
    closed-form vjp (the grouped operation of MegaBlocks, dropless). Each
    of the plan's runs is one batched numpy call `expert(u, *run) -> (out,
    vjp)`: u is [B, m, din], a view of the gather, and `run` holds each
    weight's [B, ...] for the run's B experts in ascending id, a view
    `w[a:b]` when the ids are consecutive and a gather otherwise; out is
    [B, m, dout] and vjp(g) returns the gradients of u and of each run
    weight (the expert returns no vjp under no_grad). Groups are never
    padded to a common size: a padded product costs work and memory, and
    BLAS may round a group's real rows differently once padding changes
    the product's shape. The gates scale the outputs after they are
    gathered back into row order. The vjp runs the vjps of the equivalent
    chain of engine ops in reverse, with the same numpy calls, so every
    gradient is bitwise that chain's (the tests hold it to the per-expert
    chain `gated_experts_loop`); each weight's gradient is one indexed
    record over the plan's experts.

    No product ever has one row. BLAS computes a 1-row product on its gemv
    path, which can round differently from the same row inside a larger
    product; with m >= 2 rows, `x[rows] @ W` equals `(x @ W)[rows]`
    bitwise, also as one slice of a batched product. So an expert picked
    by a single row runs on that row twice, and the copy is never read. A
    row's result then never depends on how other rows are routed.

    `shared` [n, dout], for a top-1 plan only, is an always-on term that
    the node adds scaled by each row's gate, with the gate's gradient
    stopped: its own gradient is g * gate, and the gate learns only from
    the routed term. It is the node's last parent, so the tape walk reaches
    its producer's inputs in the order it would reach a separate product,
    multiply and add.
    """
    n, top_k = plan.idx.shape
    if shared is not None and top_k != 1:
        raise ContractError(f"gated_experts: a shared term needs a top-1 plan, got top-{top_k}")
    u = T.take_rows(x, plan.rows[None, :])   # [1, pairs, din], expert-major
    parents = (u, *weights, gates) + (() if shared is None else (shared,))
    record = T.grad_enabled() and any(p.requires_grad for p in parents)
    ud, runs = u.data, plan.runs
    parts, vjps = [], []
    for b, m, start, key in runs:
        rows = ud if len(runs) == 1 else ud[:, start:start + b * m]
        part, vjp = expert(rows if b == 1 else rows.reshape(b, m, -1),
                           *(w.data[key] for w in weights))
        parts.append(part if b == 1 else part.reshape(1, b * m, -1))
        vjps.append(vjp)
    # Without a tape the gathered rows die here, before the concat, the
    # parts right after it and the ungated outputs before the slot sum:
    # fewer live buffers and pages.
    del rows, part
    if not record:
        del u, ud, vjps
        parents = ()
    y = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    del parts
    dout = y.shape[-1]
    y = y.reshape(plan.rows.size, dout)[plan.out]
    scale = (gates.data.reshape(n, 1) if top_k == 1
             else gates.data.reshape(n * top_k, 1)[plan.gate_rows])
    out = y * scale
    if not record:
        del y
    if shared is not None:
        out += scale * shared.data
    if top_k > 1:
        out = out.reshape(n, top_k, dout).sum(axis=1)

    def grouped_vjp(g):
        if top_k > 1:   # the slot sum's and its reshape's vjp
            g = np.broadcast_to(g[:, None, :], (n, top_k, dout)).copy().reshape(-1, dout)
        # the gathers' gradients are added into zeros, as the engine adds
        # their indexed records, so a -0.0 turns +0.0 there as well
        dgates = None
        if gates.requires_grad:
            dgates = (g * y).sum(axis=1, keepdims=True)
            if top_k > 1:
                acc = np.zeros_like(dgates)
                acc[plan.gate_rows] += dgates
                dgates = acc
            dgates = dgates.reshape(gates.shape)
        gscaled = g * scale
        del g   # g and its scaled copy die before the expert vjps run
        dy = np.zeros((plan.rows.size, dout), dtype=y.dtype)
        dy[plan.out] += gscaled
        dshared = gscaled if shared is not None and shared.requires_grad else None
        del gscaled
        du = np.zeros_like(ud) if len(runs) > 1 else None
        dws = [[] for _ in weights]
        for (b, m, start, _), vjp in zip(runs, vjps):
            span = slice(start, start + b * m)
            drows, *dw = vjp(dy[span].reshape(b, m, dout))
            if du is None:
                du = drows.reshape(ud.shape)
            else:
                du[:, span] += drows.reshape(1, b * m, -1)
            for grads, d in zip(dws, dw):
                grads.append(d)
        dws = [T._Scatter(plan.experts, d[0] if len(d) == 1 else np.concatenate(d),
                          w.shape, w.dtype) if w.requires_grad else None
               for w, d in zip(weights, dws)]
        return (du, *dws, dgates) + (() if shared is None else (dshared,))

    return T.node(out, parents, grouped_vjp, "gated_experts")


def bank_apply(x: Tensor, plan: RoutingPlan, gates: Tensor, experts: Tensor,
               shared: Tensor) -> Tensor:
    """Batched top-1 bank forward: x [n, din], gates [n] -> [n, dout].

    A bank is E routed experts [E, din, dout] plus one always-on shared
    expert [din, dout]; `plan` groups the [n, 1] selection. Also takes
    `select_topk`'s [n, 1] gates. The routed expert is scaled by the gate;
    the shared expert is scaled by the same value with its gradient
    stopped, so the router learns only from the routable term. The shared
    product x @ shared is an engine matmul; the gating and the sum of both
    terms are the `gated_experts` node's.
    """
    gcol = gates.reshape(x.shape[0], 1)
    return gated_experts(x, plan, gcol, (experts,), linear_expert, T.matmul(x, shared))
