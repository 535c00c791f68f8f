"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
guarantee. The learning smoke test (number 8) trains three small models and
dominates the runtime; everything else finishes in seconds.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dreamer.config import desk_config, published_config
from dreamer.costs import (count_flops, count_params, match_model,
                           _nearest_monotone)
from dreamer.model import DepthCache, DreamerModel
from dreamer.params import init_parameters
from dreamer.routing import LinearExpertBank, RouterState, bank_apply, fold_shared
from dreamer.telemetry import (TelemetryLog, da_score_map, gini,
                               joint_to_conditionals, lorenz, support_size)
from dreamer.tensor import Graph, Tensor, grad_check
from dreamer.training import TaskSpec, train
from dreamer import tensor as T
from reference import ea_select, simulate_balancing


def small_config(variant, depth, **overrides):
    base = dict(hidden_size=16, vocab_size=32, context_length=32,
                sa_query_heads=2, sa_kv_heads=1, sa_head_dim=4, da_head_dim=4,
                ea_num_experts=4, ea_active_experts=2,
                ea_intermediate_size=8, ea_qk_dim=4)
    base.update(overrides)
    return desk_config(variant, depth, **base)


def test_01_full_step_gradients_match_finite_differences():
    """Backward on a two-depth step agrees with central differences < 1e-4."""
    cfg = desk_config("DR_DA", 2, hidden_size=8, vocab_size=16, context_length=16,
                      sa_query_heads=1, sa_kv_heads=1, sa_head_dim=4, da_head_dim=4,
                      ea_num_experts=4, ea_active_experts=2,
                      ea_intermediate_size=8, ea_qk_dim=4)
    model = DreamerModel(cfg, init_parameters(cfg, seed=12, dtype=np.float64))
    # The shared expert's gate scale carries a deliberate stop-gradient, so
    # plain finite differences would measure a dependence that backward is
    # required to ignore. Zeroing the shared weights keeps the unfolded
    # routing path live while making both sides measure the same function;
    # the stop itself is pinned by test number 5 below.
    for name in model.params.names():
        if name.endswith("_bank.shared"):
            model.params[name].data[:] = 0.0
    tokens = np.array([[3, 7, 1]])
    targets = np.array([7, 1, 4])

    def fn(_inputs):
        logits = model.model_forward(tokens)
        flat = logits.reshape(3, cfg.vocab_size)
        lse = T.logsumexp(flat)
        picked = T.gather_last(flat, targets.reshape(3, 1)).reshape(3)
        return (lse - picked).mean()

    start = time.monotonic()
    report = grad_check(Graph(fn), model.params.learnable(),
                        tolerance=1e-4, step=1e-5)
    elapsed = time.monotonic() - start
    assert report.passed, str(report)
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_02_cached_decoding_matches_full_recompute():
    """32 greedy steps: cached vs recomputed logits < 1e-5; depth cache <= L."""
    cfg = small_config("DR_DA", 3, hidden_size=32, context_length=64,
                       sa_head_dim=8, da_head_dim=8, ea_num_experts=8,
                       ea_qk_dim=8)
    model = DreamerModel(cfg, seed=2)
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, cfg.vocab_size, (1, 4))
    caches = model.new_caches()
    with T.no_grad():
        logits = model.model_forward(tokens, caches)
        for _ in range(32):
            full = model.model_forward(tokens)
            diff = np.abs(logits.data[:, -1] - full.data[:, -1])
            assert np.max(diff) < 1e-5
            assert caches.depth.high_water <= cfg.depth
            nxt = np.argmax(logits.data[:, -1], axis=-1)
            tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
            logits = model.model_forward(nxt[:, None], caches)


def test_03_depth_attention_batched_equals_per_token_loop():
    """Sequence-as-batch depth attention matches a naive token loop < 1e-6."""
    cfg = small_config("DR_DA", 3)
    model = DreamerModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    b, s, h = 2, 4, cfg.hidden_size
    xs = [Tensor(rng.normal(0.0, 1.0, (b, s, h)).astype(np.float32))
          for _ in range(cfg.depth)]
    with T.no_grad():
        cache = DepthCache(cfg.depth)
        batched = [model.da_forward(xs[l], "layer", l, cache).data
                   for l in range(cfg.depth)]
        for t in range(s):
            tok_cache = DepthCache(cfg.depth)
            for l in range(cfg.depth):
                ref = model.da_forward(xs[l][:, t:t + 1, :], "layer", l, tok_cache)
                diff = np.abs(ref.data[:, 0] - batched[l][:, t])
                assert np.max(diff) < 1e-6, (t, l)


def test_04_expert_selection_matches_brute_force():
    """1000 draws, E <= 8: support is the best-k of (x+b); gates <= 1e-12."""
    rng = np.random.default_rng(4)
    with T.no_grad():
        for _ in range(1000):
            E = int(rng.integers(1, 9))
            k = int(rng.integers(1, E + 1))
            x = rng.normal(0.0, 2.0, E)
            state = RouterState("acceptance", E, k, update_rate=0.0)
            state.bias[:] = rng.normal(0.0, 1.0, E)
            dense = ea_select(Tensor(x), state).data

            keyed = x + state.bias
            best = max(itertools.combinations(range(E), k),
                       key=lambda subset: sum(keyed[i] for i in subset))
            assert set(np.nonzero(dense)[0]) == set(best)

            sig = [1.0 / (1.0 + math.exp(-v)) for v in x]
            denom = sum(sig[i] for i in best)
            for i in range(E):
                want = sig[i] / denom if i in best else 0.0
                assert abs(dense[i] - want) <= 1e-12


def test_05_shared_expert_folding():
    """Folded == unfolded < 1e-6 relative x100; shared gate grad exactly 0."""
    rng = np.random.default_rng(55)
    for _ in range(100):
        E = int(rng.integers(1, 7))
        din = int(rng.integers(2, 6))
        dout = int(rng.integers(2, 6))
        n = int(rng.integers(1, 8))
        experts = rng.normal(0.0, 1.0, (E, din, dout))
        shared = rng.normal(0.0, 1.0, (din, dout))
        x = Tensor(rng.normal(0.0, 1.0, (n, din)))
        idx = rng.integers(0, E, n)
        gates = Tensor(rng.uniform(0.1, 1.0, n))
        with T.no_grad():
            plain = LinearExpertBank(Tensor(experts.copy()), Tensor(shared.copy()))
            unfolded = bank_apply(x, idx, gates, plain).data
            folded_bank = fold_shared(
                LinearExpertBank(Tensor(experts.copy()), Tensor(shared.copy())))
            folded = bank_apply(x, idx, gates, folded_bank).data
        scale = max(1.0, float(np.max(np.abs(unfolded))))
        assert np.max(np.abs(unfolded - folded)) <= 1e-6 * scale

    bank = LinearExpertBank(
        Tensor(np.zeros((3, 4, 5)), requires_grad=True),
        Tensor(rng.normal(0.0, 1.0, (4, 5)), requires_grad=True))
    x = Tensor(rng.normal(0.0, 1.0, (2, 4)))
    gate = Tensor(np.array([0.6, 0.3]), requires_grad=True)
    out = bank_apply(x, np.array([1, 0]), gate, bank)
    (out * out).sum().backward()
    np.testing.assert_array_equal(gate.grad, np.zeros(2))


def test_06_balancing_reaches_low_gini():
    """Skewed router: Gini < 0.1 in 10k updates; gini oracles exact."""
    tail = simulate_balancing(num_experts=32, top_k=2, update_rate=1e-2,
                              updates=10000, draws_per_update=16, skew=3.0,
                              seed=6)
    assert gini(tail) < 0.1

    rng = np.random.default_rng(66)
    counts = rng.integers(0, 100, 16).astype(np.float64)
    pairwise = sum(abs(a - b) for a in counts for b in counts)
    oracle = pairwise / (2 * counts.size * counts.sum())
    assert abs(gini(counts) - oracle) <= 1e-12
    assert gini(np.full(8, 7.0)) == 0.0
    assert gini(np.array([5.0, 0.0, 0.0, 0.0])) == 0.75


def test_07_cost_matching_is_tight_and_fast():
    """Matched desk pair within 1% flops and params; binary == exhaustive."""
    start = time.monotonic()
    baseline = desk_config("LA", 4, hidden_size=128, ea_num_experts=64,
                           ea_intermediate_size=256)
    candidate = desk_config("DR_DA", 4, hidden_size=128, ea_num_experts=128,
                            ea_intermediate_size=128)
    result = match_model(candidate, baseline)
    assert result.flops_error <= 0.01, result
    assert result.params_error <= 0.01, result

    la16 = published_config("LA", 16)
    dd16 = published_config("DR_DA", 16)
    assert round(count_params(la16) / 1e9, 4) == 1.1708
    assert round(count_params(dd16) / 1e9, 4) == 1.1708
    fa, fb = count_flops(la16), count_flops(dd16)
    assert abs(fa - fb) / fa < 0.01

    cfg = desk_config("DR", 2)

    def f(d_ff):
        return count_flops(replace(cfg, ea_intermediate_size=d_ff), 256)

    lo, hi = 8, 512
    for target in (f(11), f(300) + 1.0, 0.0, f(hi) * 2.0, (f(40) + f(41)) / 2.0):
        got, _, _ = _nearest_monotone(f, lo, hi, target)
        want = min(range(lo, hi + 1), key=lambda d: (abs(f(d) - target), d))
        assert got == want, target
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"matching took {elapsed:.1f}s"


@pytest.mark.parametrize("variant", ["LA", "DR", "DR_DA"])
def test_08_copy_task_loss_halves(variant):
    """Copy task (vocab 64, seq 64, h=64, L=4): loss <= 50% of step 0."""
    cfg = desk_config(variant, 4, hidden_size=64, vocab_size=64,
                      context_length=64)
    task = TaskSpec(kind="copy", seq_len=64, vocab_size=64, seed=0)
    halved = lambda rec, hist: rec["loss"] <= 0.5 * hist[0]["loss"]
    result = train(cfg, task, 2000, seed=0, dtype=np.float32, stop_when=halved)
    losses = [rec["loss"] for rec in result.history]
    assert len(losses) <= 2000
    assert min(losses) <= 0.5 * losses[0], (variant, losses[0], min(losses))


def test_08_identical_seeds_reproduce_identical_curves():
    """Same seed, 64-bit: two training runs emit byte-equal loss curves."""
    cfg = small_config("DR_DA", 2)
    task = TaskSpec(kind="copy", seq_len=9, vocab_size=16, seed=1)
    run_a = train(cfg, task, 20, seed=3, dtype=np.float64)
    run_b = train(cfg, task, 20, seed=3, dtype=np.float64)
    assert [r["loss"] for r in run_a.history] == [r["loss"] for r in run_b.history]
    assert [r["grad_norm"] for r in run_a.history] == [r["grad_norm"] for r in run_b.history]


def test_09_analysis_integrity():
    """Conditionals sum to 1 (1e-9); support sizes, Lorenz and score map hold."""
    rng = np.random.default_rng(9)
    counts = rng.integers(0, 50, (4, 8)).astype(np.int64)
    counts[:, 5] = 0
    p_expert, p_depth, depth_defined, expert_defined = joint_to_conditionals(counts)
    assert np.all(np.abs(p_expert[depth_defined].sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(np.abs(p_depth[expert_defined].sum(axis=1) - 1.0) <= 1e-9)

    one_hot = np.zeros(6)
    one_hot[2] = 1.0
    assert support_size(one_hot) == 1
    for L in (4, 5, 10, 20):
        assert support_size(np.full(L, 1.0 / L)) == math.ceil(0.9 * L)

    usage = rng.integers(0, 100, 32).astype(np.float64)
    usage[:4] = 0
    curve = lorenz(usage)
    assert np.array_equal(curve[0], [0.0, 0.0])
    assert np.max(np.abs(curve[-1] - 1.0)) <= 1e-12
    assert np.all(np.diff(curve[:, 0]) >= 0)
    assert np.all(np.diff(curve[:, 1]) >= 0)

    cfg = small_config("DR_DA", 4)
    log = TelemetryLog()
    model = DreamerModel(cfg, seed=9, telemetry=log)
    tokens = rng.integers(0, cfg.vocab_size, (1, 6))
    with T.no_grad():
        model.model_forward(tokens)
    score_map, defined = da_score_map(log)
    for l in range(cfg.depth):
        assert np.all(defined[l, :l + 1])
        assert not np.any(defined[l, l + 1:])
        assert np.max(score_map[l]) == 1.0


@pytest.mark.parametrize("variant", ["LA", "DR", "DR_DA"])
def test_10_causality_sweep(variant):
    """Perturbing token t+1 leaves logits at positions <= t bit-identical."""
    cfg = small_config(variant, 2)
    model = DreamerModel(cfg, seed=10)
    rng = np.random.default_rng(10)
    s = 8
    tokens = rng.integers(0, cfg.vocab_size, (1, s))
    with T.no_grad():
        base = model.model_forward(tokens).data
        for t in range(s - 1):
            pert = tokens.copy()
            pert[0, t + 1] = (pert[0, t + 1] + 1) % cfg.vocab_size
            out = model.model_forward(pert).data
            assert np.array_equal(base[:, :t + 1], out[:, :t + 1]), t


def test_10_depth_history_is_token_local():
    """Perturbing one token's depth history leaves other tokens bit-identical."""
    cfg = small_config("DR_DA", 3)
    model = DreamerModel(cfg, seed=11)
    rng = np.random.default_rng(11)
    b, s, h = 1, 5, cfg.hidden_size
    xs = [rng.normal(0.0, 1.0, (b, s, h)).astype(np.float32)
          for _ in range(cfg.depth)]
    j = 2

    def run(x0):
        cache = DepthCache(cfg.depth)
        outs = []
        with T.no_grad():
            outs.append(model.da_forward(Tensor(x0), "layer", 0, cache).data)
            for l in range(1, cfg.depth):
                outs.append(model.da_forward(Tensor(xs[l]), "layer", l, cache).data)
        return outs

    base = run(xs[0])
    perturbed = xs[0].copy()
    perturbed[:, j] += rng.normal(0.0, 1.0, h).astype(np.float32)
    pert = run(perturbed)
    keep = np.arange(s) != j
    for l in range(cfg.depth):
        assert np.array_equal(base[l][:, keep], pert[l][:, keep]), l
