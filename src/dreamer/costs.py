"""Analytic parameter, FLOP, and memory accounting plus config matching.

Counting conventions (any consistent convention preserves matching
validity; these are the ones used throughout):

- parameters are counted from `iter_parameter_specs`, the built layout
- one multiply-add counts as 2 FLOPs, so a linear map din -> dout costs
  2 * din * dout FLOPs per row
- RMS normalization costs 4 FLOPs per element
- rotary encoding costs 3 FLOPs per encoded element (the 1/sqrt(d)
  logit scale is absorbed into the query projection, so it is free)
- softmax costs 5 FLOPs per score; mask add and scale cost 1 each
- top-k selection costs E * log2(E) comparison FLOPs
- sigmoid costs 4 FLOPs, silu 5, per element
- FLOPs are averaged over incrementally generating `seq_len` tokens, so
  sequence attention sees a growing cache while depth attention sees a
  cache bounded by the depth index
- attention projection banks are counted at their folded generation
  cost: one expert matmul per bank plus the gate scale, as if the shared
  expert had been added into every routable one. This is the paper's
  convention, and its published presets are matched under it: DR_DA-16
  is 0.28% off LA-16 in FLOPs. The model runs the shared matmul
  separately, and counting it would put DR_DA-16 23.5% off. So the
  executed bank FLOPs exceed this count by the shared term
- memory counts parameters and caches only, activations excluded
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import ModelConfig
from .errors import ConfigError
from .params import iter_parameter_specs

DFF_RANGE = (8, 8192)
EXPERTS_RANGE_MAX = 16384
PRECISION_BYTES = {"float32": 4, "float64": 8}


@dataclass(frozen=True)
class CostReport:
    """Deterministic resource summary of one config at one decode length."""

    params: int
    flops_per_token: float
    memory_bytes: int
    seq_len: int
    precision: str


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching a config against a baseline's cost report."""

    config: ModelConfig
    flops_error: float
    params_error: float
    iterations: int


def linear_flops(d_in: int, d_out: int) -> float:
    return 2.0 * d_in * d_out

def swiglu_expert_flops(hidden: int, d_ff: int) -> float:
    gate_up = 2 * linear_flops(hidden, d_ff)
    activation = 5.0 * d_ff + d_ff
    down = linear_flops(d_ff, hidden)
    return gate_up + activation + down


def _router_flops(cfg: ModelConfig, num_experts: int, top_k: int,
                  normalize: bool) -> float:
    query = linear_flops(cfg.hidden_size, cfg.ea_qk_dim)
    encode = 3.0 * cfg.ea_qk_dim
    key_dots = 2.0 * num_experts * cfg.ea_qk_dim
    select = num_experts * math.log2(num_experts) if num_experts > 1 else 0.0
    gates = 4.0 * top_k + (2.0 * top_k if normalize else 0.0)
    return query + encode + key_dots + select + gates


def _attention_flops(cfg: ModelConfig, module: str, cached_len: float) -> float:
    query_heads, kv_heads, head_dim, qkv_dim, out_dim = cfg.attention_dims(module)
    h = cfg.hidden_size
    f = 4.0 * h  # input norm
    in_out = linear_flops(h, qkv_dim) + linear_flops(out_dim, h)
    if cfg.layered:
        f += in_out
    else:
        f += _router_flops(cfg, cfg.attn_experts, 1, normalize=False)
        f += in_out + (qkv_dim + h)  # folded expert matmuls plus gate scales
    encoded = (query_heads + kv_heads) * head_dim
    f += 4.0 * encoded + 3.0 * encoded  # q/k norms, then rotary
    per_head = 4.0 * head_dim * cached_len + 7.0 * cached_len
    f += query_heads * per_head
    f += h  # residual add
    return f


def _ea_flops(cfg: ModelConfig) -> float:
    f = 4.0 * cfg.hidden_size
    f += _router_flops(cfg, cfg.ea_num_experts, cfg.ea_active_experts, normalize=True)
    f += cfg.ea_active_experts * swiglu_expert_flops(cfg.hidden_size, cfg.ea_intermediate_size)
    f += 2.0 * cfg.ea_active_experts * cfg.hidden_size  # gate scale and sum
    f += cfg.hidden_size  # residual add
    return f


def count_params(cfg: ModelConfig) -> int:
    """Exact by construction: the sizes of every tensor `init_parameters` builds."""
    return sum(math.prod(spec.shape) for spec in iter_parameter_specs(cfg))


def count_flops(cfg: ModelConfig, seq_len: int = 1024) -> float:
    """Average FLOPs per generated token over a `seq_len`-token decode."""
    if seq_len < 1:
        raise ConfigError(f"seq_len must be >= 1, got {seq_len}")
    mean_cached = (seq_len + 1) / 2.0  # cache length after appending token t is t+1
    per_token = 0.0
    for depth in range(cfg.depth):
        per_token += _attention_flops(cfg, "sa", mean_cached)
        if cfg.has_da:
            per_token += _attention_flops(cfg, "da", float(depth + 1))
        per_token += _ea_flops(cfg)
        if not cfg.layered:
            per_token += 4.0 * cfg.hidden_size  # stream norm
    per_token += 4.0 * cfg.hidden_size  # final norm
    per_token += linear_flops(cfg.hidden_size, cfg.vocab_size)
    return per_token


def count_memory(cfg: ModelConfig, seq_len: int = 1024,
                 precision: str = "float32") -> int:
    """Parameter bytes plus KV cache bytes at the stated decode length.

    Parameters take the bytes the store holds them in: learnable tensors at
    `precision`, balancing biases at their float64.
    """
    if precision not in PRECISION_BYTES:
        raise ConfigError(f"precision must be one of {sorted(PRECISION_BYTES)}")
    if seq_len < 1:
        raise ConfigError(f"seq_len must be >= 1, got {seq_len}")
    unit = PRECISION_BYTES[precision]
    total = sum(math.prod(spec.shape) * spec.dtype(precision).itemsize
                for spec in iter_parameter_specs(cfg))
    total += cfg.depth * seq_len * cfg.sa_kv_heads * cfg.sa_head_dim * 2 * unit
    if cfg.has_da:
        total += cfg.depth * cfg.da_kv_heads * cfg.da_head_dim * 2 * unit
    return total


def cost_report(cfg: ModelConfig, seq_len: int = 1024,
                precision: str = "float32") -> CostReport:
    return CostReport(params=count_params(cfg),
                      flops_per_token=count_flops(cfg, seq_len),
                      memory_bytes=count_memory(cfg, seq_len, precision),
                      seq_len=seq_len, precision=precision)


def _nearest_monotone(evaluate, lo: int, hi: int, target: float):
    """Find the integer in [lo, hi] whose value is nearest the target.

    `evaluate` must be monotone nondecreasing. Returns (argument, value,
    iterations); ties between equally near neighbours go to the smaller
    argument.
    """
    low, high = lo, hi
    iterations = 0
    while low < high:
        mid = (low + high) // 2
        iterations += 1
        if evaluate(mid) < target:
            low = mid + 1
        else:
            high = mid
    best_arg, best_val = low, evaluate(low)
    if low > lo:
        below_val = evaluate(low - 1)
        if abs(below_val - target) <= abs(best_val - target):
            best_arg, best_val = low - 1, below_val
    return best_arg, best_val, iterations


def _match_flops(cfg: ModelConfig, target_flops: float, seq_len: int):
    def evaluate(d_ff):
        return count_flops(replace(cfg, ea_intermediate_size=d_ff), seq_len)
    d_ff, _, iterations = _nearest_monotone(evaluate, DFF_RANGE[0], DFF_RANGE[1],
                                            target_flops)
    return replace(cfg, ea_intermediate_size=d_ff), iterations


def _match_params(cfg: ModelConfig, target_params: int):
    def evaluate(num):
        return count_params(replace(cfg, ea_num_experts=num))
    lo = max(1, cfg.ea_active_experts)
    num, _, iterations = _nearest_monotone(evaluate, lo, EXPERTS_RANGE_MAX,
                                           float(target_params))
    return replace(cfg, ea_num_experts=num), iterations


def match_model(cfg: ModelConfig, baseline: ModelConfig,
                seq_len: int = 1024) -> MatchResult:
    """Match `cfg` to a baseline's FLOPs and params by coordinate descent.

    The fixed sequence is FLOP matching, parameter matching, then FLOP
    matching again to absorb the expert-count change; only the expert
    intermediate size and the expert count are adjusted.
    """
    cfg.validate()
    baseline.validate()
    target = cost_report(baseline, seq_len)
    matched, it1 = _match_flops(cfg, target.flops_per_token, seq_len)
    matched, it2 = _match_params(matched, target.params)
    matched, it3 = _match_flops(matched, target.flops_per_token, seq_len)
    matched.validate()
    achieved = cost_report(matched, seq_len)
    flops_error = abs(achieved.flops_per_token - target.flops_per_token) / target.flops_per_token
    params_error = abs(achieved.params - target.params) / target.params
    return MatchResult(config=matched, flops_error=flops_error,
                       params_error=params_error, iterations=it1 + it2 + it3)
