"""Routing tests: selection oracles, balancing dynamics, expert banks."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreamer import tensor as T
from dreamer.model import swiglu_expert
from dreamer.routing import (RouterState, RoutingPlan, bank_apply, depth_router_logits,
                             gated_experts, linear_expert, select_topk, update_balance)
from dreamer.errors import ConfigError, ContractError, ShapeError
from dreamer.tensor import Tensor
from reference import (bank_apply_chain, ea_select, expert_node, fold_shared, folded_bank_apply,
                       gated_experts_loop, grad_check, moe_linear_forward, simulate_balancing)
from reference import router_logits_chain, select_topk_chain
from reference import sigmoid as sigmoid_node


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
    grad = T.backward((gates * Tensor(np.arange(4.0))).sum(), {"x": x})["x"]
    # unselected logits get zero gradient; bias never enters the graph
    sel = set(np.nonzero(gates.data)[0])
    for e in range(4):
        if e not in sel:
            assert grad[e] == 0.0
    assert any(grad[e] != 0.0 for e in sel)


def test_counts_accumulate_and_reset():
    st_ = state(4, 2)
    select_topk(Tensor(np.random.default_rng(0).normal(0, 1, (8, 4))), st_)
    assert st_.counts.sum() == 16
    n = st_.counts.astype(np.float64)
    update_balance(st_)
    assert st_.counts.sum() == 0
    np.testing.assert_array_equal(st_.bias, st_.update_rate * np.sign(np.median(n) - n))


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

def rand_bank(rng, E=3, din=4, dout=5):
    """(experts [E, din, dout], shared [din, dout]) of one bank."""
    return (Tensor(rng.normal(0, 1, (E, din, dout)), requires_grad=True),
            Tensor(rng.normal(0, 1, (din, dout)), requires_grad=True))


def test_moe_forward_zero_shared_is_gated_expert():
    rng = np.random.default_rng(1)
    experts, shared = rand_bank(rng)
    shared.data[:] = 0.0
    x = rng.normal(0, 1, 4)
    sigma = np.zeros(3)
    sigma[1] = 0.7
    out = moe_linear_forward(Tensor(x), Tensor(sigma), experts, shared).data
    np.testing.assert_allclose(out, 0.7 * x @ experts.data[1], rtol=1e-6)


def test_moe_forward_gate_one_sums_expert_and_shared():
    rng = np.random.default_rng(2)
    experts, shared = rand_bank(rng)
    x = rng.normal(0, 1, 4)
    sigma = np.zeros(3)
    sigma[2] = 1.0
    out = moe_linear_forward(Tensor(x), Tensor(sigma), experts, shared).data
    np.testing.assert_allclose(out, x @ (experts.data[2] + shared.data), rtol=1e-6)


def test_moe_forward_rejects_multi_hot():
    rng = np.random.default_rng(3)
    experts, shared = rand_bank(rng)
    with pytest.raises(ContractError):
        moe_linear_forward(Tensor(np.ones(4)), Tensor(np.array([0.5, 0.5, 0.0])),
                           experts, shared)


def test_fold_preserves_forward_values():
    rng = np.random.default_rng(4)
    for trial in range(100):
        experts, shared = rand_bank(rng)
        x = rng.normal(0, 1, 4)
        sigma = np.zeros(3)
        e = int(rng.integers(0, 3))
        sigma[e] = rng.uniform(0.1, 1.0)
        before = moe_linear_forward(Tensor(x), Tensor(sigma), experts, shared).data
        after = folded_bank_apply(Tensor(x[None, :]), np.array([e]), Tensor(sigma[e:e + 1]),
                                  fold_shared(experts, shared)).data[0]
        np.testing.assert_allclose(after, before, rtol=1e-6, atol=1e-9)


def test_fold_zero_shared_keeps_experts():
    rng = np.random.default_rng(5)
    experts, shared = rand_bank(rng)
    shared.data[:] = 0.0
    np.testing.assert_array_equal(fold_shared(experts, shared).data, experts.data)


def test_fold_single_expert_bank():
    folded = fold_shared(Tensor(np.ones((1, 2, 2)), True), Tensor(np.full((2, 2), 3.0)))
    np.testing.assert_array_equal(folded.data[0], np.full((2, 2), 4.0))
    assert not folded.requires_grad  # folded weights are for inference only


def test_shared_term_gate_gradient_is_exactly_zero():
    rng = np.random.default_rng(7)
    experts, shared = rand_bank(rng)
    experts.data[:] = 0.0  # only the shared path contributes
    x = Tensor(rng.normal(0, 1, (2, 4)))
    gate = Tensor(np.array([0.6, 0.3]), requires_grad=True)
    out = bank_apply(x, RoutingPlan([[1], [0]]), gate, experts, shared)
    grad = T.backward((out * out).sum(), {"gate": gate})["gate"]
    assert grad is not None
    np.testing.assert_array_equal(grad, np.zeros(2))


def test_routable_term_gate_gradient_is_nonzero():
    rng = np.random.default_rng(8)
    experts, shared = rand_bank(rng)
    shared.data[:] = 0.0
    x = Tensor(rng.normal(0, 1, (2, 4)))
    gate = Tensor(np.array([0.6, 0.3]), requires_grad=True)
    out = bank_apply(x, RoutingPlan([[1], [0]]), gate, experts, shared)
    grad = T.backward((out * out).sum(), {"gate": gate})["gate"]
    assert np.all(np.abs(grad) > 1e-8)


def silu_expert(u, w):
    """B SiLU experts on their own rows, a numpy pair: u [B, m, din], w [B, din, dout]."""
    pre = u @ w
    sig = 1.0 / (1.0 + np.exp(-pre))

    def vjp(g):
        dpre = g * sig * (1.0 + pre * (1.0 - sig))
        return dpre @ np.swapaxes(w, -1, -2), np.swapaxes(u, -1, -2) @ dpre

    return pre * sig, vjp


def silu_experts(rng, E=4, din=3, dout=5):
    """Float32 weights [E, din, dout] for `silu_expert`, as an array and a Tensor."""
    weights = rng.normal(0, 1, (E, din, dout)).astype(np.float32)
    return weights, Tensor(weights)


def distinct_choices(rng, n, E, k):
    return np.stack([rng.permutation(E)[:k] for _ in range(n)])


def test_routing_plan_groups_once_for_every_consumer():
    # id 1 has three rows; 2 has two and 3 one, run twice: a run of two, a slice
    idx = np.array([[1], [2], [2], [1], [1], [3]])
    plan = RoutingPlan(idx)
    assert np.asarray(plan) is idx  # what the benchmark's bank counter reads
    assert plan.rows.tolist() == [0, 3, 4, 1, 2, 5, 5]
    assert plan.out.tolist() == [0, 3, 4, 1, 2, 5]
    assert plan.gate_rows is None  # top-1 gates need no gather
    assert plan.runs == ((1, 3, 0, slice(1, 2)), (2, 2, 3, slice(2, 4)))
    assert plan.experts.tolist() == [1, 2, 3]  # whose weights get a gradient
    # top-2: each row's slots in ascending id, gates gathered to match
    plan = RoutingPlan(np.array([[3, 0], [0, 2]]))
    assert plan.out.tolist() == [0, 4, 1, 2]
    assert plan.gate_rows.tolist() == [1, 0, 2, 3]
    (b, m, start, ids), = plan.runs
    assert (b, m, start, ids.tolist()) == (3, 2, 0, [0, 2, 3])
    with pytest.raises(ContractError):
        RoutingPlan(np.array([1, 2]))


@pytest.mark.parametrize("k", [1, 2])
def test_gated_experts_matches_per_row_oracle(k):
    rng = np.random.default_rng(20 + k)
    weights, stacked = silu_experts(rng)
    for _ in range(10):
        x = rng.normal(0, 1, (6, 3)).astype(np.float32)
        idx = distinct_choices(rng, 6, 4, k)
        gates = rng.uniform(0.1, 1.0, (6, k)).astype(np.float32)
        out = gated_experts(Tensor(x), RoutingPlan(idx), Tensor(gates), [stacked],
                            silu_expert).data
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
    _, stacked = silu_experts(rng, din=32, dout=24)
    x = Tensor(rng.normal(0, 1, (6, 32)).astype(np.float32))
    gates = Tensor(rng.uniform(0.1, 1.0, (6, k)).astype(np.float32))
    idx = distinct_choices(rng, 6, 4, k)
    row0 = gated_experts(x, RoutingPlan(idx), gates, [stacked], silu_expert).data[0].copy()
    for _ in range(20):
        idx[1:] = distinct_choices(rng, 5, 4, k)
        out = gated_experts(x, RoutingPlan(idx), gates, [stacked], silu_expert)
        assert out.data[0].tobytes() == row0.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gated_experts_is_the_dense_ascending_sum_bitwise(k):
    # each row adds its gated outputs in ascending expert id, and an expert
    # run on a subset of rows matches its full-batch product row for row
    rng = np.random.default_rng(50 + k)
    _, stacked = silu_experts(rng, din=32, dout=24)
    x = Tensor(rng.normal(0, 1, (7, 32)).astype(np.float32))
    gates = rng.uniform(0.1, 1.0, (7, k)).astype(np.float32)
    dense = [silu_expert(x.data.reshape(1, 7, 32), stacked.data[e:e + 1])[0][0]
             for e in range(4)]
    for _ in range(10):
        idx = distinct_choices(rng, 7, 4, k)
        out = gated_experts(x, RoutingPlan(idx), Tensor(gates), [stacked], silu_expert).data
        for r in range(7):
            terms = [gates[r, j] * dense[idx[r, j]][r] for j in np.argsort(idx[r])]
            ref = terms[0]
            for t in terms[1:]:
                ref = ref + t
            assert out[r].tobytes() == ref.tobytes()


def swiglu_experts(rng, E, din, dff, dout, dtype, calls):
    """EA-shaped SwiGLU weights, and `swiglu_expert` logging each call's B and
    whether its run weights are views of the stacked weights or gathers."""
    weights = {name: Tensor(rng.normal(0, 0.3, shape).astype(dtype), requires_grad=True)
               for name, shape in (("gate", (E, din, dff)), ("up", (E, din, dff)),
                                   ("down", (E, dff, dout)))}

    def expert(u, *run):
        calls.append((u.shape[0], {"view" if np.shares_memory(w, weights[name].data)
                                   else "gather" for w, name in zip(run, ("gate", "up", "down"))}))
        return swiglu_expert(u, *run)

    return weights, expert


ORACLE_ROUTINGS = [
    np.array([[2]]),                                   # n = 1, top-1
    np.array([[4, 0, 5]]),                             # n = 1: every expert a singleton
    np.array([[0], [2], [0], [2]]),                    # equal groups, ids 0 and 2
    np.array([[1], [2], [2], [1], [4]]),               # equal groups 1, 2 (a slice), singleton 4
    np.array([[0], [3], [3], [5]]),                    # singletons 0, 5 run with 3; 1, 2, 4 unused
    np.array([[0, 1], [1, 0], [0, 2], [1, 0], [0, 1]]),
    np.array([[5, 1, 3], [3, 5, 1], [1, 4, 0], [2, 0, 4]]),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gated_experts_equals_the_per_expert_loop_bitwise(dtype, k):
    # output and every gradient of the batched runs equal the per-expert
    # loop's bit for bit, over hand-picked and seeded routings
    rng = np.random.default_rng(60 + k)
    calls = []
    weights, expert = swiglu_experts(rng, 6, 32, 24, 40, dtype, calls)
    routings = [r for r in ORACLE_ROUTINGS if r.shape[1] == k]
    routings += [distinct_choices(rng, n, 6, k) for n in (1, 2, 3, 5, 9, 16) for _ in range(3)]
    for idx in routings:
        n = idx.shape[0]
        x = Tensor(rng.normal(0, 1, (n, 32)).astype(dtype), requires_grad=True)
        gates = Tensor(rng.uniform(0.1, 1.0, (n, k)).astype(dtype), requires_grad=True)
        c = Tensor(rng.normal(0, 1, (n, 40)).astype(dtype))
        inputs = {"x": x, "gates": gates, **weights}
        results = []
        for mix, route in ((gated_experts, RoutingPlan(idx)), (gated_experts_loop, idx)):
            out = mix(x, route, gates, [weights[w] for w in ("gate", "up", "down")], expert)
            assert out.dtype == dtype
            grads = T.backward((out * c).sum(), inputs)
            results.append([out.data.tobytes()] + [grads[w].tobytes() for w in sorted(grads)])
        assert results[0] == results[1], idx.tolist()
    # the batched calls above include runs of several experts, whose weights
    # are views (consecutive ids) and gathers (non-consecutive ids)
    assert any(b > 1 and kinds == {"view"} for b, kinds in calls)
    assert any(b > 1 and kinds == {"gather"} for b, kinds in calls)


def recording_experts(rng, E=4, din=3, dout=5):
    """SiLU experts over float64 weights [E, din, dout] that log each call's [B, m]."""
    weights, seen = Tensor(rng.uniform(-1, 1, (E, din, dout)), requires_grad=True), []

    def expert(u, w):
        assert w.shape[0] == u.shape[0]
        seen.append(u.shape[:2])
        return silu_expert(u, w)

    return weights, expert, seen


@pytest.mark.parametrize("n, k, idx", [
    (1, 1, [[2]]),
    (1, 2, [[3, 0]]),
    (5, 2, [[0, 1], [1, 0], [0, 2], [1, 0], [0, 1]]),  # expert 2 has one row
    (4, 1, [[1], [3], [1], [1]]),                      # expert 3 has one row
    (4, 1, [[0], [2], [0], [2]]),                      # two equal groups, one call
    (1, 8, [[30, 3, 17, 8, 0, 22, 5, 11]]),            # one token of EA
])
def test_gated_experts_never_issues_a_one_row_product(n, k, idx):
    rng = np.random.default_rng(40 + n + k)
    weights, expert, seen = recording_experts(rng, E=32)
    idx = np.array(idx)
    gated_experts(Tensor(rng.normal(0, 1, (n, 3))), RoutingPlan(idx),
                  Tensor(rng.uniform(0.1, 1.0, (n, k))), [weights], expert)
    counts = np.bincount(idx.reshape(-1))
    assert min(m for _, m in seen) >= 2
    assert sum(b for b, _ in seen) == np.count_nonzero(counts)
    assert sum(b * m for b, m in seen) == n * k + np.count_nonzero(counts == 1)
    if n == 1:
        # a token's experts are all singletons, so they run as one call
        assert seen == [(k, 2)]


def test_gated_experts_gradcheck_singleton_and_unused_expert():
    # expert 2 is picked by one row only, expert 3 by none
    rng = np.random.default_rng(41)
    weights, expert, _ = recording_experts(rng)
    idx = np.array([[0, 1], [1, 0], [0, 2], [1, 0]])

    def fn(inp):
        out = gated_experts(inp["x"], RoutingPlan(idx), inp["gates"], [inp["w"]], expert)
        return (out * out).sum()

    inputs = {
        "x": Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True),
        "gates": Tensor(rng.uniform(0.1, 1.0, (4, 2)), requires_grad=True),
        "w": weights,
    }
    report = grad_check(fn, inputs)
    assert report.passed, str(report)
    assert not T.backward(fn(inputs), inputs)["w"][3].any()


# 9 (row, slot) pairs over 6 experts, top-1 and top-3 alike: experts 0 and 1
# have 3 pairs each (a run of B = 2 on a slice of the weights), 2 has one
# (a singleton, run twice) and 4 has two (a run of B = 2 on ids 2, 4, a
# gather); 3 and 5 are unused. The two runs are joined by the concat.
RUNS_ROUTINGS = {1: [[0], [0], [0], [1], [1], [1], [2], [4], [4]],
                 3: [[0, 1, 2], [1, 0, 4], [4, 1, 0]]}


def swiglu_leaves(rng, E=6, din=3, dff=4, dout=5):
    return {name: Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
            for name, shape in (("gate", (E, din, dff)), ("up", (E, din, dff)),
                                ("down", (E, dff, dout)))}


def test_gated_experts_adds_one_node():
    # everything after the gather is one node: the tape is x, the gather,
    # the weights, the gates and the node, with runs that need the concat
    rng = np.random.default_rng(16)
    idx = np.array(RUNS_ROUTINGS[3])
    weights = list(swiglu_leaves(rng).values())
    x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    gates = Tensor(rng.uniform(0.1, 1.0, (3, 3)), requires_grad=True)
    out = gated_experts(x, RoutingPlan(idx), gates, weights, swiglu_expert)
    order = T._topo(out)
    assert order[-1] is out and out.op == "gated_experts"
    assert Counter(node.op for node in order) == {"leaf": 5, "take_rows": 1, "gated_experts": 1}
    gather = out.parents[0]
    assert gather.op == "take_rows" and gather.parents == (x,)
    assert {id(t) for t in out.parents[1:]} == {id(t) for t in (*weights, gates)}


@pytest.mark.parametrize("k", [1, 3])
def test_gated_experts_gradcheck_runs(k):
    # the fused node's vjp against central differences in float64, with
    # respect to x, the gates and each SwiGLU weight
    rng = np.random.default_rng(42 + k)
    idx = np.array(RUNS_ROUTINGS[k])
    n = idx.shape[0]
    plan = RoutingPlan(idx)
    (b0, m0, _, key0), (b1, m1, _, key1) = plan.runs
    assert (b0, m0, key0) == (2, 3, slice(0, 2)) and (b1, m1) == (2, 2)
    assert key1.tolist() == [2, 4]
    c = Tensor(rng.uniform(-1, 1, (n, 5)))

    def fn(inp):
        weights = [inp[w] for w in ("gate", "up", "down")]
        return (gated_experts(inp["x"], plan, inp["gates"], weights, swiglu_expert) * c).sum()

    inputs = {"x": Tensor(rng.uniform(-1, 1, (n, 3)), requires_grad=True),
              "gates": Tensor(rng.uniform(0.1, 1.0, (n, k)), requires_grad=True),
              **swiglu_leaves(rng)}
    report = grad_check(fn, inputs)
    assert report.passed, str(report)
    grads = T.backward(fn(inputs), inputs)
    for w in ("gate", "up", "down"):
        assert not grads[w][[3, 5]].any(), w
        assert grads[w][[0, 1, 2, 4]].all(axis=(1, 2)).all(), w


def test_linear_expert_gradcheck():
    rng = np.random.default_rng(43)
    inputs = {"u": Tensor(rng.uniform(-1, 1, (2, 4, 3)), requires_grad=True),
              "w": Tensor(rng.uniform(-1, 1, (2, 3, 5)), requires_grad=True)}
    c = Tensor(rng.uniform(-1, 1, (2, 4, 5)))
    report = grad_check(
        lambda inp: (expert_node(linear_expert, inp["u"], inp["w"]) * c).sum(), inputs)
    assert report.passed, str(report)


def test_bank_apply_matches_dense_oracle():
    rng = np.random.default_rng(9)
    experts, shared = rand_bank(rng, E=4, din=3, dout=2)
    x = rng.normal(0, 1, (6, 3))
    idx = rng.integers(0, 4, 6)
    gates = rng.uniform(0.1, 1.0, 6)
    out = bank_apply(Tensor(x), RoutingPlan(idx[:, None]), Tensor(gates), experts, shared).data
    for i in range(6):
        ref = gates[i] * (x[i] @ experts.data[idx[i]]) + gates[i] * (x[i] @ shared.data)
        np.testing.assert_allclose(out[i], ref, rtol=1e-6)


def test_bank_gradcheck():
    # the shared matrix is zero: the stop-gradient scale then contributes
    # nothing to finite differences, so analytic and numeric must agree on
    # every input, including the router weights behind the gates
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, (3, 4))
    idx = np.array([2, 0, 2])

    def fn(inp):
        logits = T.matmul(inp["x"], inp["router"])
        gates = sigmoid_node(T.take_rows(logits.reshape(9), np.arange(3) * 3 + idx))
        out = bank_apply(inp["x"], RoutingPlan(idx[:, None]), gates, inp["experts"],
                         inp["shared"])
        return (out * out).sum()

    inputs = {
        "experts": Tensor(rng.uniform(-1, 1, (3, 4, 2)), requires_grad=True),
        "shared": Tensor(np.zeros((4, 2)), requires_grad=True),
        "router": Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True),
        "x": Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True),
    }
    assert grad_check(fn, inputs).passed


def test_bank_shared_path_gradcheck():
    # the fused bank node's shared path in float64: with the gates held
    # constant, the stopped gate scales the shared product as a plain
    # factor, so x, the experts and a nonzero shared matrix all check
    rng = np.random.default_rng(12)
    idx = np.array([[2], [0], [2], [1]])
    gates = Tensor(rng.uniform(0.1, 1.0, 4))
    c = Tensor(rng.uniform(-1, 1, (4, 5)))

    def fn(inp):
        out = bank_apply(inp["x"], RoutingPlan(idx), gates, inp["experts"], inp["shared"])
        return (out * c).sum()

    experts, shared = rand_bank(rng)
    inputs = {"x": Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True),
              "experts": experts, "shared": shared}
    report = grad_check(fn, inputs)
    assert report.passed, str(report)


def test_bank_is_one_node_over_the_shared_product():
    # the routed term, the gated shared term and their sum are one
    # `gated_experts` node; the shared product is an engine matmul and the
    # node's last parent
    rng = np.random.default_rng(13)
    experts, shared = rand_bank(rng)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    gates = Tensor(rng.uniform(0.1, 1.0, 3), requires_grad=True)
    out = bank_apply(x, RoutingPlan([[2], [0], [2]]), gates, experts, shared)
    assert out.op == "gated_experts"
    assert Counter(node.op for node in T._topo(out)) == {
        "leaf": 4, "matmul": 1, "take_rows": 1, "reshape": 1, "gated_experts": 1}
    product = out.parents[-1]
    assert product.op == "matmul" and product.parents == (x, shared)
    with pytest.raises(ContractError, match="top-1"):
        gated_experts(x, RoutingPlan([[2, 0], [0, 1], [2, 1]]), Tensor(np.ones((3, 2))),
                      (experts,), linear_expert, product)


@pytest.mark.parametrize("frozen", [(), ("x",), ("experts", "shared"), ("gates",)])
def test_bank_node_equals_the_chain_bitwise(frozen):
    # forward and every gradient of the fused bank against the engine-op
    # chain it replaced, in float32, with the gates behind a router product
    rng = np.random.default_rng(14)
    idx = np.array([2, 0, 2, 1, 1, 0])
    leaves = {"x": rng.normal(0, 1, (6, 4)), "router": rng.normal(0, 1, (4, 3)),
              "experts": rng.normal(0, 1, (3, 4, 5)), "shared": rng.normal(0, 1, (4, 5))}
    runs = []
    for bank in (bank_apply, bank_apply_chain):
        inp = {name: Tensor(a.astype(np.float32), requires_grad=name not in frozen)
               for name, a in leaves.items()}
        if "gates" in frozen:
            inp["router"].requires_grad = False
        logits = T.matmul(inp["x"], inp["router"])
        gates = sigmoid_node(T.take_rows(logits.reshape(18), np.arange(6) * 3 + idx))
        out = bank(inp["x"], RoutingPlan(idx[:, None]), gates, inp["experts"], inp["shared"])
        grads = T.backward((out * out).sum(), inp)
        runs.append([out.data.tobytes()] + [grads[k].tobytes() for k in sorted(grads)])
    assert runs[0] == runs[1]


def test_depth_router_logits_scale_and_static_keys():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(0, 1, (5, 6)))
    wq = Tensor(rng.normal(0, 1, (6, 8)))
    keys = Tensor(rng.normal(0, 1, (3, 8)))
    out = depth_router_logits(x, wq, keys, 0, 4, 500.0).data
    assert out.shape == (5, 3)
    # depth changes queries (and therefore logits), keys stay fixed
    out2 = depth_router_logits(x, wq, keys, 2, 4, 500.0).data
    assert not np.allclose(out, out2)


def test_depth_router_logits_rejects_what_the_products_cannot_take():
    rng = np.random.default_rng(12)
    x, wq, keys = (rng.normal(0, 1, shape) for shape in ((5, 6), (6, 8), (3, 8)))
    for bad in [(x.astype(np.float32), wq, keys),   # dtypes differ
                (x, wq, keys.astype(np.float32)),
                (x[:, :4], wq, keys),                # x against the query weight
                (x, wq, rng.normal(0, 1, (3, 12)))]:  # queries against the keys
        with pytest.raises(ShapeError):
            depth_router_logits(*(Tensor(a) for a in bad), 0, 4, 500.0)


def test_router_logits_gradcheck():
    rng = np.random.default_rng(13)
    c = rng.uniform(-1, 1, (5, 3))
    inputs = {"x": Tensor(rng.uniform(-1, 1, (5, 6)), requires_grad=True),
              "wq": Tensor(rng.uniform(-1, 1, (6, 8)), requires_grad=True),
              "keys": Tensor(rng.uniform(-1, 1, (3, 8)), requires_grad=True)}

    def fn(inp):
        logits = depth_router_logits(inp["x"], inp["wq"], inp["keys"], 1, 3, 500.0)
        return (logits * Tensor(c)).sum()

    report = grad_check(fn, inputs)
    assert report.passed, str(report)


@pytest.mark.parametrize("k, normalize", [(1, False), (1, True), (3, False), (3, True)])
def test_gates_gradcheck(k, normalize):
    # logits well apart, so no step of the finite differences flips a selection
    rng = np.random.default_rng(14)
    logits = rng.permutation(np.arange(24.0)).reshape(4, 6) * 0.3 - 3.0
    c = rng.uniform(-1, 1, (4, k))
    inputs = {"logits": Tensor(logits, requires_grad=True)}

    def fn(inp):
        _, gates = select_topk(inp["logits"], state(6, k, normalize=normalize))
        return (gates * Tensor(c)).sum()

    report = grad_check(fn, inputs)
    assert report.passed, str(report)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_router_nodes_equal_the_chains_bitwise(dtype):
    # the fused logits and gates against the engine-op chains they replaced,
    # top-1 and top-k, normalized and not, with some operands frozen
    rng = np.random.default_rng(15)
    data = [rng.normal(0, 1, shape).astype(dtype) for shape in ((7, 6), (6, 8), (5, 8))]
    for trained in ("x", "wq", "keys", "x wq keys"):
        for k, normalize in [(1, False), (2, True), (5, True), (2, False)]:
            results = []
            for logits_fn, select in [(depth_router_logits, select_topk),
                                      (router_logits_chain, select_topk_chain)]:
                inputs = {name: Tensor(a.copy(), requires_grad=name in trained.split())
                          for name, a in zip(("x", "wq", "keys"), data)}
                logits = logits_fn(*inputs.values(), 2, 3, 500.0)
                idx, gates = select(logits, state(5, k, normalize=normalize))
                loss = (gates * Tensor(np.linspace(-1, 1, 7 * k).reshape(7, k).astype(dtype))
                        + logits.sum()).sum()
                grads = T.backward(loss, inputs)
                results.append([logits.data.tobytes(), idx.tobytes(), gates.data.tobytes()]
                               + [grads[name].tobytes() for name in sorted(grads)])
            assert results[0] == results[1], (trained, k, normalize)
