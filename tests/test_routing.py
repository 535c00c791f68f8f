"""Routing tests: selection oracles, balancing dynamics, expert banks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreamer import tensor as T
from dreamer.routing import (LinearExpertBank, RouterState, bank_apply,
                             depth_router_logits, fold_shared, gated_experts,
                             select_topk, update_balance)
from dreamer.attention import RopeSpec
from dreamer.errors import ConfigError, ContractError
from dreamer.tensor import Tensor
from reference import ea_select, moe_linear_forward, simulate_balancing


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def state(E, k, rate=1e-3, normalize=True, bias=None):
    return RouterState("t", E, k, rate, normalize=normalize,
                       bias=None if bias is None else np.asarray(bias, dtype=np.float64))


def test_ea_select_two_of_three_gates():
    out = ea_select(Tensor(np.array([0.0, 1.0, -1.0])), state(3, 2)).data
    s0, s1 = sigmoid(0.0), sigmoid(1.0)
    oracle = np.array([s0 / (s0 + s1), s1 / (s0 + s1), 0.0])
    np.testing.assert_allclose(out, oracle, atol=1e-7)
    np.testing.assert_allclose(out, [0.4062, 0.5938, 0.0], atol=5e-5)


def test_ea_select_bias_flips_selection_ties_to_lowest_index():
    # selection key x + b = [0, -1, -1]: tie between experts 1 and 2
    out = ea_select(Tensor(np.array([0.0, 1.0, -1.0])),
                    state(3, 2, bias=[0.0, -2.0, 0.0])).data
    assert set(np.nonzero(out)[0]) == {0, 1}
    s0, s1 = sigmoid(0.0), sigmoid(1.0)
    np.testing.assert_allclose(out[:2], [s0 / (s0 + s1), s1 / (s0 + s1)], atol=1e-7)


def test_ea_select_k_equals_E_is_dense():
    x = np.array([0.5, -0.3, 1.2, 0.0])
    out = ea_select(Tensor(x), state(4, 4)).data
    sig = 1 / (1 + np.exp(-x))
    np.testing.assert_allclose(out, sig / sig.sum(), atol=1e-7)
    assert np.all(out > 0)


def test_ea_select_k_greater_than_E_rejected():
    with pytest.raises(ConfigError):
        state(3, 4)


def test_ea_select_support_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(300):
        E = int(rng.integers(1, 9))
        k = int(rng.integers(1, E + 1))
        x = rng.normal(0, 1, E)
        b = rng.normal(0, 1, E)
        st_ = state(E, k, bias=b)
        got = set(np.nonzero(ea_select(Tensor(x), st_).data)[0])
        best = max(itertools.combinations(range(E), k),
                   key=lambda c: (x + b)[list(c)].sum())
        assert got == set(best)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5))
def test_ea_select_invariant_to_constant_bias_shift(c):
    # selection keys are well separated so rounding of x + (b + c) cannot
    # reorder them; gates depend on x and the support only
    x = np.array([0.4, -1.0, 0.2, 2.0])
    a = ea_select(Tensor(x), state(4, 2)).data
    b = ea_select(Tensor(x), state(4, 2, bias=np.full(4, c))).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_gates_renormalize_to_one_and_grad_flows_through_sigmoid_only():
    x = Tensor(np.array([0.3, 1.4, -0.2, 0.9], dtype=np.float64), requires_grad=True)
    st_ = state(4, 2)
    gates = ea_select(x, st_)
    assert abs(gates.data.sum() - 1.0) < 1e-12
    (gates * Tensor(np.arange(4.0))).sum().backward()
    # unselected logits get zero gradient; bias never enters the graph
    sel = set(np.nonzero(gates.data)[0])
    for e in range(4):
        if e not in sel:
            assert x.grad[e] == 0.0
    assert any(x.grad[e] != 0.0 for e in sel)


def test_counts_accumulate_and_reset():
    st_ = state(4, 2)
    select_topk(Tensor(np.random.default_rng(0).normal(0, 1, (8, 4))), st_)
    assert st_.counts.sum() == 16
    update_balance(st_)
    assert st_.counts.sum() == 0 and st_.updates == 1


def test_update_balance_moves_toward_median():
    st_ = state(3, 1, rate=1e-3)
    st_.counts = np.array([10, 2, 6], dtype=np.int64)
    update_balance(st_)
    np.testing.assert_allclose(st_.bias, [-1e-3, 1e-3, 0.0], atol=1e-15)


def test_update_balance_uniform_counts_unchanged():
    st_ = state(5, 1)
    st_.counts = np.full(5, 7, dtype=np.int64)
    update_balance(st_)
    np.testing.assert_array_equal(st_.bias, np.zeros(5))


def test_update_balance_even_count_median_is_midpoint():
    st_ = state(4, 2, rate=1e-3)
    st_.counts = np.array([0, 0, 8, 8], dtype=np.int64)
    update_balance(st_)
    np.testing.assert_allclose(st_.bias, [1e-3, 1e-3, -1e-3, -1e-3], atol=1e-15)


def test_balancing_converges_on_skewed_distribution():
    tail = simulate_balancing(num_experts=16, top_k=2, update_rate=1e-2,
                              updates=2000, draws_per_update=16, skew=3.0, seed=0)
    from dreamer.telemetry import gini
    assert gini(tail) < 0.1


# -- banks ---------------------------------------------------------------------

def rand_bank(rng, E=3, din=4, dout=5, shared=True):
    return LinearExpertBank(
        experts=Tensor(rng.normal(0, 1, (E, din, dout)), requires_grad=True),
        shared=Tensor(rng.normal(0, 1, (din, dout)), requires_grad=True) if shared else None)


def test_moe_forward_zero_shared_is_gated_expert():
    rng = np.random.default_rng(1)
    bank = rand_bank(rng)
    bank.shared.data[:] = 0.0
    x = rng.normal(0, 1, 4)
    sigma = np.zeros(3)
    sigma[1] = 0.7
    out = moe_linear_forward(Tensor(x), Tensor(sigma), bank).data
    np.testing.assert_allclose(out, 0.7 * x @ bank.experts.data[1], rtol=1e-6)


def test_moe_forward_gate_one_sums_expert_and_shared():
    rng = np.random.default_rng(2)
    bank = rand_bank(rng)
    x = rng.normal(0, 1, 4)
    sigma = np.zeros(3)
    sigma[2] = 1.0
    out = moe_linear_forward(Tensor(x), Tensor(sigma), bank).data
    np.testing.assert_allclose(out, x @ (bank.experts.data[2] + bank.shared.data),
                               rtol=1e-6)


def test_moe_forward_rejects_multi_hot():
    rng = np.random.default_rng(3)
    bank = rand_bank(rng)
    with pytest.raises(ContractError):
        moe_linear_forward(Tensor(np.ones(4)), Tensor(np.array([0.5, 0.5, 0.0])), bank)


def test_fold_preserves_forward_values():
    rng = np.random.default_rng(4)
    for trial in range(100):
        bank = rand_bank(rng)
        x = rng.normal(0, 1, 4)
        sigma = np.zeros(3)
        e = int(rng.integers(0, 3))
        sigma[e] = rng.uniform(0.1, 1.0)
        before = moe_linear_forward(Tensor(x), Tensor(sigma), bank).data.copy()
        fold_shared(bank)
        after = moe_linear_forward(Tensor(x), Tensor(sigma), bank).data
        np.testing.assert_allclose(after, before, rtol=1e-6, atol=1e-9)


def test_fold_zero_shared_keeps_experts():
    rng = np.random.default_rng(5)
    bank = rand_bank(rng)
    bank.shared.data[:] = 0.0
    before = bank.experts.data.copy()
    fold_shared(bank)
    np.testing.assert_array_equal(bank.experts.data, before)


def test_fold_single_expert_bank():
    bank = LinearExpertBank(experts=Tensor(np.ones((1, 2, 2)), True),
                            shared=Tensor(np.full((2, 2), 3.0)))
    fold_shared(bank)
    np.testing.assert_array_equal(bank.experts.data[0], np.full((2, 2), 4.0))
    assert not bank.experts.requires_grad  # folded weights are for inference only


def test_double_fold_rejected():
    bank = rand_bank(np.random.default_rng(6))
    fold_shared(bank)
    with pytest.raises(ContractError):
        fold_shared(bank)


def test_shared_term_gate_gradient_is_exactly_zero():
    rng = np.random.default_rng(7)
    bank = rand_bank(rng)
    bank.experts.data[:] = 0.0  # only the shared path contributes
    x = Tensor(rng.normal(0, 1, (2, 4)))
    gate = Tensor(np.array([0.6, 0.3]), requires_grad=True)
    out = bank_apply(x, np.array([1, 0]), gate, bank)
    (out * out).sum().backward()
    assert gate.grad is not None
    np.testing.assert_array_equal(gate.grad, np.zeros(2))


def test_routable_term_gate_gradient_is_nonzero():
    rng = np.random.default_rng(8)
    bank = rand_bank(rng)
    bank.shared.data[:] = 0.0
    x = Tensor(rng.normal(0, 1, (2, 4)))
    gate = Tensor(np.array([0.6, 0.3]), requires_grad=True)
    out = bank_apply(x, np.array([1, 0]), gate, bank)
    (out * out).sum().backward()
    assert np.all(np.abs(gate.grad) > 1e-8)


def silu_experts(rng, E=4, din=3, dout=5):
    weights = rng.normal(0, 1, (E, din, dout)).astype(np.float32)
    return weights, lambda u, e: T.silu(T.matmul(u, Tensor(weights[e])))


def distinct_choices(rng, n, E, k):
    return np.stack([rng.permutation(E)[:k] for _ in range(n)])


@pytest.mark.parametrize("k", [1, 2])
def test_gated_experts_matches_per_row_oracle(k):
    rng = np.random.default_rng(20 + k)
    weights, expert = silu_experts(rng)
    for _ in range(10):
        x = rng.normal(0, 1, (6, 3)).astype(np.float32)
        idx = distinct_choices(rng, 6, 4, k)
        gates = rng.uniform(0.1, 1.0, (6, k)).astype(np.float32)
        out = gated_experts(Tensor(x), idx, Tensor(gates), expert).data
        assert out.dtype == np.float32
        for r in range(6):
            ref = np.zeros(5, dtype=np.float64)
            for j in range(k):
                pre = x[r].astype(np.float64) @ weights[idx[r, j]]
                ref += gates[r, j] * pre / (1.0 + np.exp(-pre))
            np.testing.assert_allclose(out[r], ref, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("k", [1, 2])
def test_gated_experts_row_ignores_other_rows_routing(k):
    # wide enough that a 1-row product (BLAS gemv) can round differently from
    # the batched one, so an expert run on its own rows only would show here
    rng = np.random.default_rng(30 + k)
    _, expert = silu_experts(rng, din=32, dout=24)
    x = Tensor(rng.normal(0, 1, (6, 32)).astype(np.float32))
    gates = Tensor(rng.uniform(0.1, 1.0, (6, k)).astype(np.float32))
    idx = distinct_choices(rng, 6, 4, k)
    row0 = gated_experts(x, idx, gates, expert).data[0].copy()
    for _ in range(20):
        idx[1:] = distinct_choices(rng, 5, 4, k)
        assert gated_experts(x, idx, gates, expert).data[0].tobytes() == row0.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gated_experts_is_the_dense_ascending_sum_bitwise(k):
    # each row adds its gated outputs in ascending expert id, and an expert
    # run on a subset of rows matches its full-batch product row for row
    rng = np.random.default_rng(50 + k)
    _, expert = silu_experts(rng, din=32, dout=24)
    x = Tensor(rng.normal(0, 1, (7, 32)).astype(np.float32))
    gates = rng.uniform(0.1, 1.0, (7, k)).astype(np.float32)
    dense = [expert(x, e).data for e in range(4)]
    for _ in range(10):
        idx = distinct_choices(rng, 7, 4, k)
        out = gated_experts(x, idx, Tensor(gates), expert).data
        for r in range(7):
            terms = [gates[r, j] * dense[idx[r, j]][r] for j in np.argsort(idx[r])]
            ref = terms[0]
            for t in terms[1:]:
                ref = ref + t
            assert out[r].tobytes() == ref.tobytes()


def recording_experts(rng, E=4, din=3, dout=5):
    """SiLU experts over float64 weights [E, din, dout] that log each call's rows."""
    weights, seen = Tensor(rng.uniform(-1, 1, (E, din, dout)), requires_grad=True), []

    def expert(u, e):
        seen.append(u.shape[0])
        return T.silu(T.matmul(u, weights[e]))

    return weights, expert, seen


@pytest.mark.parametrize("n, k, idx", [
    (1, 1, [[2]]),
    (1, 2, [[3, 0]]),
    (5, 2, [[0, 1], [1, 0], [0, 2], [1, 0], [0, 1]]),  # expert 2 has one row
    (4, 1, [[1], [3], [1], [1]]),                      # expert 3 has one row
])
def test_gated_experts_never_issues_a_one_row_product(n, k, idx):
    rng = np.random.default_rng(40 + n + k)
    _, expert, seen = recording_experts(rng)
    idx = np.array(idx)
    gated_experts(Tensor(rng.normal(0, 1, (n, 3))), idx,
                  Tensor(rng.uniform(0.1, 1.0, (n, k))), expert)
    counts = np.bincount(idx.reshape(-1))
    assert min(seen) >= 2
    assert len(seen) == np.count_nonzero(counts)
    assert sum(seen) == n * k + np.count_nonzero(counts == 1)


def test_gated_experts_gradcheck_singleton_and_unused_expert():
    # expert 2 is picked by one row only, expert 3 by none
    rng = np.random.default_rng(41)
    weights, expert, _ = recording_experts(rng)
    idx = np.array([[0, 1], [1, 0], [0, 2], [1, 0]])

    def fn(inp):
        out = gated_experts(inp["x"], idx, inp["gates"], expert)
        return (out * out).sum()

    inputs = {
        "x": Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True),
        "gates": Tensor(rng.uniform(0.1, 1.0, (4, 2)), requires_grad=True),
        "w": weights,
    }
    report = T.grad_check(T.Graph(fn), inputs)
    assert report.passed, str(report)
    assert not weights.grad[3].any()


def test_bank_apply_matches_dense_oracle():
    rng = np.random.default_rng(9)
    bank = rand_bank(rng, E=4, din=3, dout=2)
    x = rng.normal(0, 1, (6, 3))
    idx = rng.integers(0, 4, 6)
    gates = rng.uniform(0.1, 1.0, 6)
    out = bank_apply(Tensor(x), idx, Tensor(gates), bank).data
    for i in range(6):
        ref = gates[i] * (x[i] @ bank.experts.data[idx[i]]) + gates[i] * (x[i] @ bank.shared.data)
        np.testing.assert_allclose(out[i], ref, rtol=1e-6)


def test_bank_gradcheck():
    # the shared matrix is zero: the stop-gradient scale then contributes
    # nothing to finite differences, so analytic and numeric must agree on
    # every input, including the router weights behind the gates
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, (3, 4))
    idx = np.array([2, 0, 2])

    def fn(inp):
        bank = LinearExpertBank(experts=inp["experts"], shared=inp["shared"])
        logits = T.matmul(inp["x"], inp["router"])
        gates = T.gather_last(T.sigmoid(logits), idx[:, None]).reshape(3)
        out = bank_apply(inp["x"], idx, gates, bank)
        return (out * out).sum()

    inputs = {
        "experts": Tensor(rng.uniform(-1, 1, (3, 4, 2)), requires_grad=True),
        "shared": Tensor(np.zeros((4, 2)), requires_grad=True),
        "router": Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True),
        "x": Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True),
    }
    assert T.grad_check(T.Graph(fn), inputs).passed


def test_depth_router_logits_scale_and_static_keys():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(0, 1, (5, 6)))
    wq = Tensor(rng.normal(0, 1, (6, 8)))
    keys = Tensor(rng.normal(0, 1, (3, 8)))
    rope = RopeSpec(dim=8, base=500.0, depth_mode=True, max_depth=4)
    out = depth_router_logits(x, wq, keys, 0, rope).data
    assert out.shape == (5, 3)
    # depth changes queries (and therefore logits), keys stay fixed
    out2 = depth_router_logits(x, wq, keys, 2, rope).data
    assert not np.allclose(out, out2)
