"""Resource accounting conventions and config matching behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dreamer import tensor as T
from dreamer.config import desk_config, published_config
from dreamer.costs import (CostReport, cost_report, count_flops, count_memory,
                           count_params, linear_flops, match_model, _match_flops,
                           _match_params, swiglu_expert_flops, DFF_RANGE,
                           _nearest_monotone)
from dreamer.errors import ConfigError
from dreamer.model import DreamerModel
from dreamer.params import init_parameters


def test_linear_conventions():
    assert linear_flops(4, 8) == 64.0


@pytest.mark.parametrize("variant", ("LA", "DR", "DR_DA"))
def test_params_match_store_walk(variant):
    cfg = desk_config(variant, 3)
    store = init_parameters(cfg, seed=0)
    walk = sum(int(np.prod(t.data.shape)) for _, t in store.items())
    assert count_params(cfg) == walk


def test_params_respect_tying():
    tied = desk_config("DR", 2)
    untied = desk_config("DR", 2, tie_embeddings=False)
    assert count_params(untied) - count_params(tied) == tied.vocab_size * tied.hidden_size


def test_published_scale_parameter_table():
    assert round(count_params(published_config("LA", 16)) / 1e9, 4) == 1.1708
    assert round(count_params(published_config("DR_DA", 16)) / 1e9, 4) == 1.1708
    la = count_params(published_config("LA", 32))
    da = count_params(published_config("DR_DA", 32))
    assert abs(da - la) / la < 0.01


def test_published_scale_flops_are_mutually_matched():
    # the published configs were tuned to near-equal decode FLOPs; they
    # should stay within 1% of each other under this convention too
    for depth in (16, 32):
        la = count_flops(published_config("LA", depth), 1024)
        da = count_flops(published_config("DR_DA", depth), 1024)
        assert abs(da - la) / la < 0.01, depth


def test_flops_count_only_active_experts():
    cfg = desk_config("DR", 2, ea_num_experts=8, ea_active_experts=1)
    dense = replace(cfg, ea_active_experts=8)
    per_extra = swiglu_expert_flops(cfg.hidden_size, cfg.ea_intermediate_size) \
        + 2.0 * cfg.hidden_size + 6.0
    want = cfg.depth * 7 * per_extra
    assert count_flops(dense, 16) - count_flops(cfg, 16) == pytest.approx(want)


def test_doubling_experts_changes_only_router_flops():
    cfg = desk_config("DR", 3, ea_num_experts=32)
    doubled = replace(cfg, ea_num_experts=64)
    e, qk = 32, cfg.ea_qk_dim
    per_call = 2.0 * e * qk + e * (math.log2(e) + 2.0)
    want = cfg.depth * per_call
    got = count_flops(doubled, 64) - count_flops(cfg, 64)
    assert got == pytest.approx(want)
    assert got / count_flops(cfg, 64) < 0.01


def test_depth_attention_adds_flops():
    with_da = desk_config("DR_DA", 4)
    without = desk_config("DR", 4)
    assert count_flops(with_da, 128) > count_flops(without, 128)


def test_flops_grow_with_decode_length():
    cfg = desk_config("LA", 2)
    assert count_flops(cfg, 512) > count_flops(cfg, 64)


def test_memory_depth_cache_is_length_independent():
    cfg = desk_config("DR_DA", 4, context_length=2048)
    unit = 4
    sa_delta = cfg.depth * (1024 - 64) * cfg.sa_kv_heads * cfg.sa_head_dim * 2 * unit
    assert count_memory(cfg, 1024) - count_memory(cfg, 64) == sa_delta


def test_memory_single_entry_hand_sum():
    cfg = desk_config("DR_DA", 1)
    biases = cfg.ea_num_experts + 2 * cfg.router_dims("sa")[0]  # EA, SA and DA routers
    for precision, unit in (("float32", 4), ("float64", 8)):
        want = (count_params(cfg) - biases) * unit + biases * 8  # biases are float64
        want += 1 * 1 * cfg.sa_kv_heads * cfg.sa_head_dim * 2 * unit
        want += 1 * cfg.da_kv_heads * cfg.da_head_dim * 2 * unit
        assert count_memory(cfg, 1, precision) == want


@pytest.mark.parametrize("precision", ("float32", "float64"))
@pytest.mark.parametrize("variant", ("LA", "DR", "DR_DA"))
def test_memory_parameter_term_is_the_built_store(variant, precision):
    cfg = desk_config(variant, 3)
    store = init_parameters(cfg, 0, np.dtype(precision))
    built = sum(t.data.nbytes for _, t in store.items())
    unit = np.dtype(precision).itemsize
    caches = cfg.depth * 12 * cfg.sa_kv_heads * cfg.sa_head_dim * 2 * unit
    if cfg.has_da:
        caches += cfg.depth * cfg.da_kv_heads * cfg.da_head_dim * 2 * unit
    assert count_memory(cfg, 12, precision) - caches == built


@pytest.mark.parametrize("variant", ("LA", "DR", "DR_DA"))
def test_cache_bytes_equal_the_memory_cache_term(variant):
    # 12 tokens in the SA caches; the DA cache holds the last token's depths
    cfg = desk_config(variant, 3, hidden_size=16, vocab_size=32, context_length=16)
    model = DreamerModel(cfg, seed=0)
    caches = model.new_caches()
    tokens = np.arange(11)[None, :]
    with T.no_grad():
        model.model_forward(tokens, caches)
        model.model_forward(tokens[:, -1:], caches)
    arrays = [c.k for c in caches.seq] + [c.v for c in caches.seq]
    if caches.depth is not None:
        arrays += caches.depth.ks + caches.depth.vs
    cache_bytes = sum(a.data.nbytes for a in arrays)
    store_bytes = sum(t.data.nbytes for _, t in model.params.items())
    assert cache_bytes == count_memory(cfg, 12) - store_bytes


def test_cost_input_validation():
    cfg = desk_config("LA", 1)
    with pytest.raises(ConfigError):
        count_flops(cfg, 0)
    with pytest.raises(ConfigError):
        count_memory(cfg, 16, "bfloat16")
    report = cost_report(cfg, 64)
    assert isinstance(report, CostReport)
    assert report.params == count_params(cfg)


def test_match_flops_fixed_point():
    cfg = desk_config("DR", 2)
    matched, _ = _match_flops(cfg, count_flops(cfg, 1024), 1024)
    assert matched == cfg


def test_match_flops_finds_exact_target():
    cfg = desk_config("DR", 2)
    target = count_flops(replace(cfg, ea_intermediate_size=97), 1024)
    matched, _ = _match_flops(cfg, target, 1024)
    assert matched.ea_intermediate_size == 97
    assert count_flops(matched, 1024) == target


def test_match_flops_tie_goes_to_smaller():
    cfg = desk_config("DR", 2)
    lo = count_flops(replace(cfg, ea_intermediate_size=64), 1024)
    hi = count_flops(replace(cfg, ea_intermediate_size=65), 1024)
    assert lo < hi
    matched, _ = _match_flops(cfg, (lo + hi) / 2.0, 1024)
    assert matched.ea_intermediate_size == 64


def test_match_flops_clamps_at_bounds():
    cfg = desk_config("DR", 2)
    assert _match_flops(cfg, 0.0, 1024)[0].ea_intermediate_size == DFF_RANGE[0]
    assert _match_flops(cfg, 1e18, 1024)[0].ea_intermediate_size == DFF_RANGE[1]


def test_match_params_fixed_point_and_exact():
    cfg = desk_config("DR", 2)
    assert _match_params(cfg, count_params(cfg))[0] == cfg
    target = count_params(replace(cfg, ea_num_experts=57))
    matched, _ = _match_params(cfg, target)
    assert matched.ea_num_experts == 57
    assert count_params(matched) == target


def test_params_strictly_increase_with_experts():
    cfg = desk_config("DR", 2)
    counts = [count_params(replace(cfg, ea_num_experts=e)) for e in (8, 9, 16, 64)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_match_params_clamps_at_active_experts():
    cfg = desk_config("DR", 2, ea_active_experts=8)
    assert _match_params(cfg, 1)[0].ea_num_experts == 8


def test_binary_search_equals_exhaustive_scan():
    cfg = desk_config("DR", 2)

    def f(d_ff):
        return count_flops(replace(cfg, ea_intermediate_size=d_ff), 256)

    lo, hi = 8, 512
    for target in (f(11), f(333) + 1.0, 0.0, f(hi) * 2.0, (f(40) + f(41)) / 2.0):
        got, _, _ = _nearest_monotone(f, lo, hi, target)
        want = min(range(lo, hi + 1), key=lambda d: (abs(f(d) - target), d))
        assert got == want, target


def test_match_model_self_is_identity():
    base = desk_config("LA", 3)
    result = match_model(base, base)
    assert result.config == base
    assert result.flops_error == 0.0
    assert result.params_error == 0.0
    assert result.memory_error == 0.0


@pytest.mark.parametrize("variant", ["DR", "DR_DA"])
@pytest.mark.parametrize("depth", [16, 32])
def test_published_presets_match_la_on_flops_params_and_memory(variant, depth):
    baseline = published_config("LA", depth)
    preset = published_config(variant, depth)
    got, want = cost_report(preset), cost_report(baseline)
    for a, b in ((got.flops_per_token, want.flops_per_token), (got.params, want.params),
                 (got.memory_bytes, want.memory_bytes)):
        assert abs(a - b) / b <= 0.01
    result = match_model(preset, baseline)
    assert result.flops_error <= 0.01, result
    assert result.params_error <= 0.01, result
    assert result.memory_error <= 0.01, result


def test_match_model_reaches_one_percent():
    base = desk_config("LA", 4, hidden_size=128,
                       ea_num_experts=64, ea_intermediate_size=256)
    cand = desk_config("DR_DA", 4, hidden_size=128,
                       ea_num_experts=128, ea_intermediate_size=128)
    result = match_model(cand, base)
    assert result.flops_error <= 0.01
    assert result.params_error <= 0.01
    assert result.iterations > 0


def test_match_model_touches_only_expert_knobs():
    base = desk_config("LA", 4, hidden_size=128,
                       ea_num_experts=64, ea_intermediate_size=256)
    cand = desk_config("DR_DA", 4, hidden_size=128)
    matched = match_model(cand, base).config
    assert matched.depth == cand.depth
    assert matched.hidden_size == cand.hidden_size
    assert matched.sa_query_heads == cand.sa_query_heads
    assert matched.sa_kv_heads == cand.sa_kv_heads
    assert matched.da_query_heads == cand.da_query_heads
    assert matched.variant == cand.variant
    same_otherwise = replace(matched,
                             ea_num_experts=cand.ea_num_experts,
                             ea_intermediate_size=cand.ea_intermediate_size)
    assert same_otherwise == cand
