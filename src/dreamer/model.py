"""Model assembly: one recurrent layer applied across depth, plus decoding.

The layer mixes three attention modules over a shared residual stream:

  * sequence attention (SA): causal grouped-query attention over tokens,
  * depth attention (DA): the same attention over the depth history of
    each token, run with the sequence moved into the batch axis,
  * expert attention (EA): a sparse mixture of SwiGLU experts whose routing
    logits are computed like depth-attention scores.

Compositions per depth step (each module normalizes its own input):
  sequential          y = x + DA(x); y = y + SA(y); y = y + EA(y)
  partial_parallel    y = x + DA(x) + SA(x); y = y + EA(y)
  full_parallel       y = x + DA(x) + SA(x) + EA(x)

For the depth-recurrent variants the step returns RMSNorm(y) so the stream
keeps a fixed scale at every depth entry; the layered variant returns y
unchanged (plain pre-norm residuals). Depth-recurrent variants also route
their fused QKV and output projections through top-1 linear expert banks
with one score per attention module shared by both banks.

Caching: SA keeps one K/V cache per depth that grows with emitted tokens;
DA keeps a per-token cache across depths that is dropped whenever a new
token is emitted, so its size never exceeds the depth count.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import (attention_heads, causal_mask, grouped_query_attention, rms_norm,
                        rope_apply, rope_depth_apply, rope_tables)
from .config import ModelConfig
from .errors import ContractError, InputError
from .params import init_parameters
from .routing import (
    RouterState,
    RoutingPlan,
    bank_apply,
    depth_router_logits,
    gated_experts,
    select_topk,
    update_balance,
)
from .telemetry import TelemetryLog
from .tensor import Tensor


def _silu_gated(a: np.ndarray, b: np.ndarray):
    """(sigmoid(a), silu(a) * b): SwiGLU's gate and hidden activations."""
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a))
    return sig, a * sig * b


def swiglu_expert(u: np.ndarray, gate: np.ndarray, up: np.ndarray, down: np.ndarray):
    """B SwiGLU experts on their own rows: u [B, m, h] -> [B, m, h].

    (silu(u gate) * (u up)) down. Returns (out, vjp), vjp(g) -> (du, dgate,
    dup, ddown); under no_grad vjp is None and the hidden activations are
    freed before the output product. The vjp keeps only u, a = u gate and
    b = u up and recomputes the sigmoid and the hidden activations from a
    and b, bitwise the forward's, so neither is held between the forward
    and the backward.
    """
    a, b = u @ gate, u @ up
    sig, hidden = _silu_gated(a, b)
    if not T.grad_enabled():
        del a, b, sig
        return hidden @ down, None

    def vjp(g):
        sig, hidden = _silu_gated(a, b)
        dh = g @ np.swapaxes(down, -1, -2)
        da = dh * b * sig * (1.0 + a * (1.0 - sig))
        db = dh * (a * sig)
        ut = np.swapaxes(u, -1, -2)
        du = da @ np.swapaxes(gate, -1, -2) + db @ np.swapaxes(up, -1, -2)
        return du, ut @ da, ut @ db, np.swapaxes(hidden, -1, -2) @ g

    return hidden @ down, vjp


class SeqCache:
    """K/V for one depth over emitted tokens: [b, kv_heads, tokens, d]."""

    def __init__(self, limit: int):
        self.limit = limit
        self.k = None
        self.v = None

    @property
    def length(self) -> int:
        return 0 if self.k is None else self.k.shape[2]

    def append(self, k: Tensor, v: Tensor):
        if self.length + k.shape[2] > self.limit:
            raise ContractError(
                f"sequence cache overflow: {self.length} + {k.shape[2]} > {self.limit}")
        if self.k is None:
            self.k, self.v = k, v
        else:
            self.k = T.concat([self.k, k], axis=2)
            self.v = T.concat([self.v, v], axis=2)
        return self.k, self.v


class DepthCache:
    """K/V for the current token batch across depths: [rows, kv_heads, l, d].

    Holds at most `limit` (= depth count) entries; `reset` drops them when a
    token is emitted. `high_water` records the largest entry count ever
    held, which stays bounded by the depth count no matter how long the
    generated sequence gets.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.ks: list = []
        self.vs: list = []
        self.high_water = 0

    @property
    def length(self) -> int:
        return len(self.ks)

    def append(self, k: Tensor, v: Tensor):
        if len(self.ks) >= self.limit:
            raise ContractError(f"depth cache overflow: limit {self.limit}")
        self.ks.append(k)
        self.vs.append(v)
        self.high_water = max(self.high_water, len(self.ks))
        return (self.ks[0], self.vs[0]) if len(self.ks) == 1 else (
            T.concat(self.ks, axis=2), T.concat(self.vs, axis=2))

    def reset(self):
        self.ks = []
        self.vs = []


class CacheSet:
    """All decode-time state: one SeqCache per depth, one shared DepthCache.

    The depth cache exists only when the model has a depth-attention
    module; other variants never allocate it.
    """

    def __init__(self, cfg: ModelConfig):
        self.seq = [SeqCache(cfg.context_length) for _ in range(cfg.depth)]
        self.depth = DepthCache(cfg.depth) if cfg.has_da else None

    @property
    def tokens_cached(self) -> int:
        return self.seq[0].length


class DreamerModel:
    """Configuration plus parameters plus per-router balancing state."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor] | None = None,
                 seed: int = 0, telemetry: TelemetryLog | None = None):
        cfg.validate()
        self.cfg = cfg
        self.params = params if params is not None else init_parameters(cfg, seed)
        self.telemetry = telemetry

        # one router per balancing bias, updating the parameter's array in place
        self.routers: dict[str, RouterState] = {}
        for name, bias in self.params.items():
            if name.endswith(".router.bias"):
                router = name.removesuffix(".router.bias")
                module = router.rsplit(".", 1)[1]
                self.routers[router] = RouterState(
                    router, *cfg.router_dims(module), bias=bias.data)

    def new_caches(self) -> CacheSet:
        return CacheSet(self.cfg)

    def update_balancing(self):
        for state in self.routers.values():
            update_balance(state)

    # -- routed projections ---------------------------------------------------

    def _route(self, flat: Tensor, module: str, depth: int):
        """Depth-encoded top-k selection: (plan, gates [n, k]).

        The plan groups the selection once. For an attention module it is
        the tied top-1 selection shared by its two banks; for EA it picks
        the active SwiGLU experts.
        """
        state = self.routers[module]
        logits = depth_router_logits(
            flat, self.params[f"{module}.router.query.weight"],
            self.params[f"{module}.router.keys"], depth, self.cfg.depth,
            self.cfg.da_rope_base)
        idx, gates = select_topk(logits, state)
        if self.telemetry is not None:
            self.telemetry.add_routing(module, depth, idx, gates.data)
        return RoutingPlan(idx), gates

    def _project(self, flat: Tensor, module: str, which: str, selection):
        if selection is None:
            return T.matmul(flat, self.params[f"{module}.{which}.weight"])
        bank = f"{module}.{which}_bank"
        return bank_apply(flat, *selection, self.params[f"{bank}.experts"],
                          self.params[f"{bank}.shared"])

    # -- the three attention modules -------------------------------------------

    def _attention(self, x: Tensor, depth: int, module: str,
                   cache: SeqCache | DepthCache | None, batch: int, seq: int,
                   encode, mask: np.ndarray | None = None) -> Tensor:
        """Grouped-query attention of `module` ("sa" or "da") over `x` [b, s, h].

        Heads are laid out [batch, heads, seq, d]: SA passes (b, s) and
        attends along tokens, DA passes (b * s, 1) and attends along the
        depths in its cache. `encode(t)` position-encodes the RMS-normalized
        q and k heads together, in one call. `mask` is SA's causal mask, or
        None when every query sees every key.
        """
        cfg = self.cfg
        prefix = f"{cfg.set_name(depth)}.{module}"
        query_heads, kv_heads, *_ = cfg.attention_dims(module)
        b, s, h = x.shape
        normed = rms_norm(x, self.params[f"{prefix}.in_norm.gain"], cfg.rms_eps)
        flat = normed.reshape(b * s, h)
        selection = None if cfg.layered else self._route(flat, prefix, depth)
        qkv = self._project(flat, prefix, "qkv", selection)

        q, k, v = attention_heads(qkv, batch, seq, query_heads, kv_heads,
                                  self.params[f"{prefix}.q_norm.gain"],
                                  self.params[f"{prefix}.k_norm.gain"], cfg.rms_eps, encode)
        if cache is not None:
            k, v = cache.append(k, v)

        merged, weights = grouped_query_attention(q, k, v, mask)
        if module == "da" and self.telemetry is not None:
            scores = weights.mean(axis=(0, 1, 2)).astype(np.float64)
            self.telemetry.add_depth_scores(depth, batch, scores)
        del weights  # the softmax weights must not outlive the attention core
        y = self._project(merged, prefix, "out", selection)
        return y.reshape(b, s, h)

    def sa_constants(self, offset: int, s: int, dtype) -> tuple:
        """SA's read-only (RoPE tables, causal mask) for `s` tokens after
        `offset` cached ones. Their only builder: `model_forward` calls it once
        and every depth shares them. No mask when each token sees every key (s == 1)."""
        positions = np.arange(offset, offset + s)
        tables = rope_tables(positions, self.cfg.sa_head_dim, self.cfg.sa_rope_base, dtype)
        mask = None if s == 1 else causal_mask(s, offset + s, offset, dtype)
        return tables, mask

    def sa_forward(self, x: Tensor, depth: int, sa_constants: tuple,
                   seq_cache: SeqCache | None = None) -> Tensor:
        """Causal grouped-query attention over token positions, with the
        `sa_constants` for the tokens already in `seq_cache`."""
        b, s, _ = x.shape
        tables, mask = sa_constants
        return self._attention(x, depth, "sa", seq_cache, b, s,
                               lambda t: rope_apply(t, tables), mask)

    def da_forward(self, x: Tensor, depth: int, depth_cache: DepthCache) -> Tensor:
        """Attention over each token's own depth history (sequence as batch)."""
        b, s, _ = x.shape
        cfg = self.cfg
        return self._attention(
            x, depth, "da", depth_cache, b * s, 1,
            lambda t: rope_depth_apply(t, depth, cfg.depth, cfg.da_rope_base))

    def ea_forward(self, x: Tensor, depth: int) -> Tensor:
        """Sparse mixture of SwiGLU experts with depth-encoded routing."""
        p = self.cfg.set_name(depth)
        b, s, h = x.shape
        normed = rms_norm(x, self.params[f"{p}.ea.in_norm.gain"], self.cfg.rms_eps)
        flat = normed.reshape(b * s, h)
        weights = [self.params[f"{p}.ea.experts.{w}"] for w in ("gate", "up", "down")]
        out = gated_experts(flat, *self._route(flat, f"{p}.ea", depth), weights,
                            swiglu_expert)
        return out.reshape(b, s, h)

    # -- one depth step and the full stack --------------------------------------

    def dreamer_step(self, x: Tensor, depth: int, sa_constants: tuple,
                     seq_cache: SeqCache | None = None,
                     depth_cache: DepthCache | None = None) -> Tensor:
        """One depth step; `sa_constants` as for `sa_forward`."""
        cfg = self.cfg
        if not 0 <= depth < cfg.depth:
            raise ContractError(f"depth {depth} outside [0, {cfg.depth})")
        if cfg.has_da and depth_cache is None:
            raise ContractError("depth-attention variant needs a depth cache")

        def sa(u):
            return self.sa_forward(u, depth, sa_constants, seq_cache)

        def da(u):
            return self.da_forward(u, depth, depth_cache)

        def ea(u):
            return self.ea_forward(u, depth)

        if cfg.composition == "sequential":
            y = x + da(x) if cfg.has_da else x
            y = y + sa(y)
            y = y + ea(y)
        elif cfg.composition == "partial_parallel":
            y = x + da(x) + sa(x) if cfg.has_da else x + sa(x)
            y = y + ea(y)
        else:  # full_parallel
            y = x + da(x) + sa(x) + ea(x) if cfg.has_da else x + sa(x) + ea(x)

        if cfg.layered:
            return y
        return rms_norm(y, self.params["layer.stream_norm.gain"], cfg.rms_eps)

    def embed(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise InputError(f"tokens must be [batch, seq], got shape {tokens.shape}")
        if not np.issubdtype(tokens.dtype, np.integer):
            raise InputError(f"tokens must be integers, got dtype {tokens.dtype}")
        if tokens.size == 0:
            raise InputError("empty token batch")
        if tokens.min() < 0 or tokens.max() >= self.cfg.vocab_size:
            raise InputError(
                f"token ids must be in [0, {self.cfg.vocab_size}), got "
                f"[{tokens.min()}, {tokens.max()}]")
        return T.take_rows(self.params["embed.weight"], tokens)

    def model_forward(self, tokens: np.ndarray,
                      caches: CacheSet | None = None) -> Tensor:
        """Token ids [b, s] -> logits [b, s, vocab].

        Without caches this is the training forward over a full sequence.
        With caches it is one incremental step: SA caches grow by s
        entries per depth and the depth cache is dropped first (it only
        ever describes the freshest tokens).
        """
        cfg = self.cfg
        x = self.embed(tokens)
        b, s, h = x.shape
        if caches is not None:
            depth_cache = caches.depth
            if depth_cache is not None:
                depth_cache.reset()
        else:
            if s > cfg.context_length:
                raise InputError(
                    f"sequence length {s} exceeds context {cfg.context_length}")
            depth_cache = DepthCache(cfg.depth) if cfg.has_da else None
        offset = caches.tokens_cached if caches is not None else 0
        sa_constants = self.sa_constants(offset, s, x.dtype)

        for depth in range(cfg.depth):
            seq_cache = caches.seq[depth] if caches is not None else None
            x = self.dreamer_step(x, depth, sa_constants, seq_cache, depth_cache)

        x = rms_norm(x, self.params["final_norm.gain"], cfg.rms_eps)
        head = self.params["embed.weight" if cfg.tie_embeddings else "head.weight"]
        flat = x.reshape(b * s, h)
        logits = T.matmul(flat, T.transpose(head, (1, 0)))
        return logits.reshape(b, s, cfg.vocab_size)

    def decode(self, prompt: np.ndarray, n_new: int) -> np.ndarray:
        """Greedy continuation; ties go to the lowest token id."""
        prompt = np.asarray(prompt)
        if prompt.ndim == 1:
            prompt = prompt[None, :]
        if prompt.ndim != 2 or prompt.shape[1] == 0:
            raise InputError(f"prompt must be [batch, seq], got shape {prompt.shape}")
        if not np.issubdtype(prompt.dtype, np.integer):
            raise InputError(f"prompt must be integer token ids, got dtype {prompt.dtype}")
        if n_new < 0:
            raise InputError(f"n_new must be >= 0, got {n_new}")
        total = prompt.shape[1] + n_new
        if total > self.cfg.context_length:
            raise InputError(
                f"prompt + n_new = {total} exceeds context {self.cfg.context_length}")
        out = prompt.astype(np.int64).copy()
        if n_new == 0:
            return out
        with T.no_grad():
            caches = self.new_caches()
            logits = self.model_forward(out, caches)
            for step in range(n_new):
                nxt = np.argmax(logits.data[:, -1, :], axis=-1).astype(np.int64)
                out = np.concatenate([out, nxt[:, None]], axis=1)
                if step + 1 < n_new:
                    logits = self.model_forward(nxt[:, None], caches)
        return out
