"""Attention primitive tests against small closed-form and loop oracles."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreamer import tensor as T
from dreamer.attention import (_depth_rope_tables, _pair_freqs, causal_mask,
                               grouped_query_attention, rms_norm, rope_apply, rope_depth_apply,
                               rope_tables)
from dreamer.errors import ContractError, NumericError, ShapeError
from dreamer.model import swiglu_expert
from dreamer.tensor import Tensor
from reference import (attention, attention_chain, depth_rope_oracle, expert_node, grad_check,
                       probe_loss, rope_oracle, sigmoid)


def rope(x: Tensor, positions, base: float) -> Tensor:
    """Sequence RoPE at `positions`, its tables built as the model builds them."""
    return rope_apply(x, rope_tables(np.asarray(positions), x.shape[-1], base, x.dtype))


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_single_key_returns_value():
    q = Tensor(np.array([[0.3, -0.2]]))
    k = Tensor(np.array([[1.0, 2.0]]))
    v = Tensor(np.array([[5.0, -7.0, 11.0]]))
    out = attention(q, k, v, causal=False)
    np.testing.assert_array_equal(out.data, v.data)


def test_two_identical_keys_average_values():
    q = Tensor(np.array([[1.0, 1.0]]))
    k = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]))
    v = Tensor(np.array([[2.0], [4.0]]))
    out = attention(q, k, v, causal=False)
    np.testing.assert_allclose(out.data, [[3.0]], rtol=1e-7)


def test_unit_query_orthogonal_keys_weights():
    # scores [1, 0] / sqrt(2) -> softmax -> frozen weights
    q = Tensor(np.array([[1.0, 0.0]]))
    k = Tensor(np.eye(2))
    v = Tensor(np.eye(2))
    out, w = attention(q, k, v, causal=False, return_weights=True)
    oracle = np_softmax(np.array([[1.0, 0.0]]) / np.sqrt(2.0))
    np.testing.assert_allclose(w.data, oracle, atol=1e-12)
    np.testing.assert_allclose(w.data, [[0.6698, 0.3302]], atol=5e-5)
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


def test_weights_are_convex_coefficients():
    rng = np.random.default_rng(0)
    q = Tensor(rng.uniform(-1, 1, (4, 8)))
    k = Tensor(rng.uniform(-1, 1, (6, 8)))
    v = Tensor(rng.uniform(-1, 1, (6, 3)))
    _, w = attention(q, k, v, causal=False, return_weights=True)
    assert np.all(w.data >= 0)
    np.testing.assert_allclose(w.data.sum(-1), 1.0, atol=1e-6)


def test_causal_future_perturbation_is_exactly_zero():
    rng = np.random.default_rng(1)
    q = Tensor(rng.uniform(-1, 1, (5, 4)))
    k0 = rng.uniform(-1, 1, (5, 4))
    v0 = rng.uniform(-1, 1, (5, 4))
    base = attention(q, Tensor(k0), Tensor(v0), causal=True).data.copy()
    k1, v1 = k0.copy(), v0.copy()
    k1[4] += 100.0
    v1[4] -= 50.0
    moved = attention(q, Tensor(k1), Tensor(v1), causal=True).data
    # rows 0..3 must be bitwise identical; row 4 sees its own slot
    assert moved[:4].tobytes() == base[:4].tobytes()
    assert not np.array_equal(moved[4], base[4])


def test_attention_matches_masked_numpy_oracle():
    rng = np.random.default_rng(2)
    q = rng.uniform(-1, 1, (6, 5))
    k = rng.uniform(-1, 1, (6, 5))
    v = rng.uniform(-1, 1, (6, 3))
    out = attention(Tensor(q), Tensor(k), Tensor(v), causal=True).data
    scores = q @ k.T / np.sqrt(5)
    scores = np.where(np.tril(np.ones((6, 6), bool)), scores, -np.inf)
    oracle = np_softmax(scores) @ v
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_gqa_equal_heads_is_per_head_attention():
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, (1, 2, 5, 4))
    k = rng.uniform(-1, 1, (1, 2, 5, 4))
    v = rng.uniform(-1, 1, (1, 2, 5, 4))
    mask = causal_mask(5, 5, 0, np.float64)
    out, _ = grouped_query_attention(Tensor(q), Tensor(k), Tensor(v), mask)
    out = out.data
    for h in range(2):
        ref = attention(Tensor(q[0, h]), Tensor(k[0, h]), Tensor(v[0, h]), causal=True).data
        np.testing.assert_allclose(out[0, h], ref, atol=1e-12)


def test_gqa_grouping_matches_loop_oracle():
    rng = np.random.default_rng(4)
    b, m, n = 2, 4, 4
    q = rng.uniform(-1, 1, (b, 4, m, 3))
    k = rng.uniform(-1, 1, (b, 2, n, 3))
    v = rng.uniform(-1, 1, (b, 2, n, 3))
    out, w = grouped_query_attention(Tensor(q), Tensor(k), Tensor(v),
                                     causal_mask(m, n, 0, np.float64))
    mask = np.where(np.tril(np.ones((m, n), bool)), 0.0, -np.inf)
    for bi in range(b):
        for h in range(4):
            kv = h // 2  # query head h reads kv head h // group
            scores = q[bi, h] @ k[bi, kv].T / np.sqrt(3) + mask
            wref = np_softmax(scores)
            np.testing.assert_allclose(w[bi, h], wref, atol=1e-12)
            np.testing.assert_allclose(out.data[bi, h], wref @ v[bi, kv], atol=1e-12)


@pytest.mark.parametrize("m, n, offset", [(3, 3, 0), (2, 5, 1), (1, 4, 3), (2, 4, 2)])
def test_gqa_passed_mask_and_unmasked_rows_are_bitwise_the_built_mask(m, n, offset):
    # the caller's built mask is read-only, so every call may share it;
    # once every row sees every key (offset >= n - 1), no mask (None) gives
    # the all-zero mask's output and weights bit for bit
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(0, 1, (2, 4, m, 8)).astype(np.float32))
    k = Tensor(rng.normal(0, 1, (2, 2, n, 8)).astype(np.float32))
    v = Tensor(rng.normal(0, 1, (2, 2, n, 8)).astype(np.float32))
    mask = causal_mask(m, n, offset, np.float32)
    with pytest.raises(ValueError):
        mask[0, 0] = 1.0  # read-only: callers share it
    passed = grouped_query_attention(q, k, v, mask)
    assert (passed[1][..., mask < 0] == 0).all()  # masked keys weigh exactly nothing
    if offset >= n - 1:
        unmasked = grouped_query_attention(q, k, v, None)
        assert passed[0].data.tobytes() == unmasked[0].data.tobytes()
        assert passed[1].tobytes() == unmasked[1].tobytes()


def test_gqa_bad_head_counts_rejected():
    q = Tensor(np.zeros((1, 3, 2, 4)))
    kv = Tensor(np.zeros((1, 2, 2, 4)))
    with pytest.raises(ShapeError):
        grouped_query_attention(q, kv, kv, None)
    with pytest.raises(ShapeError):  # k and v must agree
        grouped_query_attention(Tensor(np.zeros((1, 2, 2, 4))), kv,
                                Tensor(np.zeros((1, 1, 2, 4))), None)


# -- rotary -----------------------------------------------------------------

def test_rope_position_zero_is_identity():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (1, 8))
    out = rope(Tensor(x), [0], 10000.0)
    assert out.data.tobytes() == x.astype(out.dtype).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 100))
def test_rope_scores_depend_on_relative_position(m, n, shift):
    rng = np.random.default_rng(17)
    q = rng.uniform(-1, 1, (1, 8))
    k = rng.uniform(-1, 1, (1, 8))
    def score(pm, pn):
        qr = rope(Tensor(q), [pm], 100.0).data
        kr = rope(Tensor(k), [pn], 100.0).data
        return float((qr @ kr.T).item())

    assert abs(score(m, n) - score(m + shift, n + shift)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_rope_preserves_norms(pos):
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, (3, 12))
    out = rope(Tensor(x), [pos, pos + 1, 2 * pos], 10000.0).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1),
                               np.linalg.norm(x, axis=-1), atol=1e-9)


def test_depth_rope_identity_at_single_depth():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 8)
    out = rope_depth_apply(Tensor(x), 0, 1, 500.0)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_depth_rope_half_reversed_positions():
    # forward pairs rotate at depth l, reversed pairs at max_depth-1-l
    rng = np.random.default_rng(7)
    dim, L = 16, 4
    x = rng.uniform(-1, 1, (1, dim))
    for l in range(L):
        got = rope_depth_apply(Tensor(x[0]), l, L, 500.0).data
        fwd = rope(Tensor(x), [l], 500.0).data[0]
        rev = rope(Tensor(x), [L - 1 - l], 500.0).data[0]
        half, quarter = dim // 2, dim // 4
        fwd_ch = np.r_[0:quarter, half:half + quarter]
        rev_ch = np.r_[quarter:half, half + quarter:dim]
        np.testing.assert_allclose(got[fwd_ch], fwd[fwd_ch], atol=1e-12)
        np.testing.assert_allclose(got[rev_ch], rev[rev_ch], atol=1e-12)


def test_depth_rope_requires_dim_multiple_of_four():
    with pytest.raises(ShapeError):
        rope_depth_apply(Tensor(np.zeros(6)), 0, 2, 500.0)
    with pytest.raises(ShapeError):  # sequence rope needs an even dim
        rope(Tensor(np.zeros((1, 5))), [0], 500.0)


def test_rope_rejects_tables_for_other_rows():
    # [m, dim/2] tables rotate row i by position i: three positions cannot
    # rotate four rows, nor one position several rows by broadcasting
    tables = rope_tables(np.arange(3), 8, 500.0, np.float64)
    with pytest.raises(ShapeError, match="rope_apply"):
        rope_apply(Tensor(np.zeros((2, 4, 8))), tables)
    with pytest.raises(ShapeError, match="rope_apply"):
        rope_apply(Tensor(np.zeros((2, 4, 8))), rope_tables(np.arange(1), 8, 500.0, np.float64))
    with pytest.raises(ShapeError, match="rope_apply"):  # pairs for another width
        rope_apply(Tensor(np.zeros((2, 3, 12))), tables)


def test_depth_rope_rejects_out_of_range_depth():
    with pytest.raises(ContractError):
        rope_depth_apply(Tensor(np.zeros(8)), 2, 2, 500.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_matches_the_uncached_formula_bitwise(dtype):
    x = np.random.default_rng(31).uniform(-2, 2, (2, 3, 5, 16)).astype(dtype)
    positions = np.arange(7, 12)
    for _ in range(2):  # the second round reads the memoized tables
        got = rope(Tensor(x), positions, 500.0).data
        assert got.dtype == dtype
        assert got.tobytes() == rope_oracle(x, positions, 500.0).tobytes()
        for depth in range(4):
            got = rope_depth_apply(Tensor(x), depth, 4, 500.0).data
            assert got.dtype == dtype
            assert got.tobytes() == depth_rope_oracle(x, depth, 4, 500.0).tobytes()


def test_rope_tables_are_read_only_and_per_dtype():
    x = np.random.default_rng(32).uniform(-1, 1, (3, 24))
    # float32 first: a memo that ignored the dtype would hand float64 x float32 tables
    rope_depth_apply(Tensor(x.astype(np.float32)), 1, 3, 700.0)
    got = rope_depth_apply(Tensor(x), 1, 3, 700.0).data
    assert got.tobytes() == depth_rope_oracle(x, 1, 3, 700.0).tobytes()
    tables = {dt: _depth_rope_tables(1, 3, 24, 700.0, np.dtype(dt))
              for dt in (np.float32, np.float64)}
    assert [t.dtype for t in tables[np.float32]] == [np.float32] * 2
    assert [t.dtype for t in tables[np.float64]] == [np.float64] * 2
    for table in (*tables[np.float32], *tables[np.float64], _pair_freqs(24, 700.0)):
        with pytest.raises(ValueError):
            table[0] = 0.0


# -- rms norm ----------------------------------------------------------------

def test_rms_norm_three_four():
    x = Tensor(np.array([3.0, 4.0]))
    out = rms_norm(x, Tensor(np.ones(2)), eps=0.0)
    # rms = sqrt((9+16)/2) = 3.5355...
    np.testing.assert_allclose(out.data, [0.848528, 1.131371], atol=1e-6)
    np.testing.assert_allclose(out.data, [0.8485, 1.1314], atol=5e-5)


def test_rms_norm_constant_vector_gives_gain():
    x = Tensor(np.full(6, 2.5))
    g = Tensor(np.arange(1.0, 7.0))
    out = rms_norm(x, g, eps=0.0)
    np.testing.assert_allclose(out.data, g.data, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 100.0))
def test_rms_norm_scale_invariant(alpha):
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (2, 5)) + 0.1
    g = Tensor(rng.uniform(0.5, 2.0, 5))
    a = rms_norm(Tensor(x), g, eps=0.0).data
    b = rms_norm(Tensor(alpha * x), g, eps=0.0).data
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 7, 16, 48, 96, 299])
def test_rms_norm_is_the_mean_formula_bitwise(dtype, width):
    rng = np.random.default_rng(width)
    xd = (rng.standard_normal((3, 5, width)) * 3.0).astype(dtype)
    gd = rng.uniform(0.5, 2.0, width).astype(dtype)
    c = rng.uniform(-1, 1, xd.shape).astype(dtype)
    inv = ((xd * xd).mean(axis=-1, keepdims=True) + np.asarray(1e-6, dtype=dtype)) ** -0.5
    x = Tensor(xd, requires_grad=True)
    out = rms_norm(x, Tensor(gd), 1e-6)
    assert out.data.tobytes() == (xd * inv * gd).tobytes()
    # d(sum(out * c))/dx reaches the vjp as exactly c
    gg = c * gd
    want = gg * inv - xd * inv ** 3 * (gg * xd).mean(axis=-1, keepdims=True)
    assert T.backward(probe_loss(out, Tensor(c)), {"x": x})["x"].tobytes() == want.tobytes()


def test_rms_norm_overflow_raises_under_grad():
    # 1e20 squared overflows float32: the row's rms is inf and the output
    # would be 0; inference raises too, since no `eval` walk follows it there
    x = Tensor(np.full((1, 4), 1e20, dtype=np.float32), requires_grad=True)
    g = Tensor(np.ones(4, dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="'rms_norm'"):
            rms_norm(x, g)
        with T.no_grad(), pytest.raises(NumericError, match="'rms_norm'"):
            rms_norm(x, g)


def test_rms_norm_gradcheck():
    rng = np.random.default_rng(9)

    def fn(inp):
        return probe_loss(rms_norm(inp["x"], inp["g"]), sigmoid(inp["x"]))

    inputs = {"x": Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True),
              "g": Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)}
    assert grad_check(fn, inputs).passed


def test_attention_gradcheck():
    rng = np.random.default_rng(10)

    def fn(inp):
        out = attention(inp["q"], inp["k"], inp["v"], causal=True)
        return probe_loss(out, out)

    inputs = {k: Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
              for k in ("q", "k", "v")}
    assert grad_check(fn, inputs).passed


def test_causal_mask_offset():
    m = causal_mask(1, 4, 2, np.float64)
    assert (m[0, :3] == 0).all() and m[0, 3] < -1e29


# -- fused ops: gradients of the code the model runs, one node each ----------

def param(rng, shape):
    return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)


def test_gqa_gradcheck_grouped_with_offset():
    rng = np.random.default_rng(11)
    # group 2, m=2 query rows against n=5 keys: row 0 sees keys 0..3 only
    inputs = {"q": param(rng, (2, 4, 2, 3)), "k": param(rng, (2, 2, 5, 3)),
              "v": param(rng, (2, 2, 5, 3))}

    def fn(inp):
        out, _ = grouped_query_attention(inp["q"], inp["k"], inp["v"],
                                         causal_mask(2, 5, 3, np.float64))
        return probe_loss(out, out)

    report = grad_check(fn, inputs)
    assert report.passed, str(report)


def test_rope_apply_gradcheck():
    rng = np.random.default_rng(12)
    c = rng.uniform(-1, 1, (2, 3, 4, 8))
    inputs = {"x": param(rng, (2, 3, 4, 8))}
    report = grad_check(
        lambda inp: probe_loss(rope(inp["x"], [0, 1, 5, 9], 100.0), Tensor(c)),
        inputs)
    assert report.passed, str(report)


def test_rope_depth_apply_gradcheck():
    rng = np.random.default_rng(13)
    c = rng.uniform(-1, 1, (3, 2, 8))
    inputs = {"x": param(rng, (3, 2, 8))}
    report = grad_check(
        lambda inp: probe_loss(rope_depth_apply(inp["x"], 1, 3, 500.0), Tensor(c)), inputs)
    assert report.passed, str(report)


@pytest.mark.parametrize("x_grad", [True, False], ids=["x_and_gain", "gain_only"])
def test_rms_norm_gradcheck_3d_with_gain(x_grad):
    rng = np.random.default_rng(14)
    c = rng.uniform(-1, 1, (2, 3, 6))
    inputs = {"x": Tensor(rng.uniform(-1, 1, (2, 3, 6)), requires_grad=x_grad),
              "g": param(rng, 6)}
    report = grad_check(lambda inp: probe_loss(rms_norm(inp["x"], inp["g"]), Tensor(c)), inputs)
    assert report.passed, str(report)


def test_swiglu_gradcheck():
    # the numpy SwiGLU pair on two experts' rows; the gate pre-activations
    # span about [-3, 3], so silu's curved part is checked
    rng = np.random.default_rng(15)
    c = rng.uniform(-1, 1, (2, 4, 5))
    inputs = {"u": param(rng, (2, 4, 3)),
              "gate": Tensor(rng.uniform(-2, 2, (2, 3, 6)), requires_grad=True),
              "up": param(rng, (2, 3, 6)), "down": param(rng, (2, 6, 5))}

    def fn(inp):
        out = expert_node(swiglu_expert, *(inp[k] for k in ("u", "gate", "up", "down")))
        return probe_loss(out, Tensor(c))

    report = grad_check(fn, inputs)
    assert report.passed, str(report)


@pytest.mark.parametrize("build, leaves", [
    (lambda x, g: rms_norm(x, g), 2),
    (lambda x, g: rope(x, np.arange(3), 100.0), 1),
    (lambda x, g: rope_depth_apply(x, 0, 2, 100.0), 1),
], ids=["rms_norm", "rope_apply", "rope_depth_apply"])
def test_fused_op_adds_one_node(build, leaves):
    rng = np.random.default_rng(16)
    x, g = param(rng, (2, 3, 8)), param(rng, 8)
    out = build(x, g)
    order = T._topo(out)
    assert len(order) == leaves + 1 and order[-1] is out


def test_gqa_core_is_one_node_between_the_products():
    rng = np.random.default_rng(17)
    q, k, v = param(rng, (1, 4, 3, 4)), param(rng, (1, 2, 3, 4)), param(rng, (1, 2, 3, 4))
    out, _ = grouped_query_attention(q, k, v, causal_mask(3, 3, 0, np.float64))
    order = T._topo(out)
    assert len(order) == 4 and order[-1] is out
    assert out.op == "attention" and out.parents == (q, k, v)


def test_gqa_memory_keeps_only_scores_and_weights():
    # One score array is S bytes. With a tape, only the softmax weights may
    # stay alive: the scores are scaled, masked and softmaxed in place, so
    # no raw or scaled copy exists beside them, with or without a tape.
    rng = np.random.default_rng(18)
    b, m, d = 2, 256, 16
    q, k, v = (Tensor(rng.standard_normal((b, h, m, d)).astype(np.float32),
                      requires_grad=True) for h in (4, 2, 2))
    S = b * 4 * m * m * 4
    tracemalloc.start()
    try:
        out, _ = grouped_query_attention(q, k, v, causal_mask(m, m, 0, np.float32))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.25 * S, f"held {held / S:.2f} S with grad"
    del out
    tracemalloc.start()
    try:
        with T.no_grad():
            grouped_query_attention(q, k, v, causal_mask(m, m, 0, np.float32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * S, f"peaked at {peak / S:.2f} S under no_grad"


@pytest.mark.parametrize("mask", [
    causal_mask(8, 8, 0, np.float64),   # the merged [group * m, n] block's shape
    causal_mask(4, 7, 3, np.float64),   # one key short
    causal_mask(4, 8, 4, np.float32),   # another dtype
], ids=["group_rows", "width", "dtype"])
def test_gqa_rejects_a_mask_that_does_not_fit(mask):
    # m = 4 rows of 2 query heads per kv head against n = 8 keys: an [8, 8]
    # mask would be added across both heads' rows, so head 2 saw future keys
    q = Tensor(np.zeros((1, 4, 4, 8)))
    kv = Tensor(np.zeros((1, 2, 8, 8)))
    with pytest.raises(ShapeError, match="mask"):
        grouped_query_attention(q, kv, kv, mask)


def test_gqa_rejects_operands_the_products_cannot_take():
    q = Tensor(np.zeros((2, 4, 3, 8)))
    kv = Tensor(np.zeros((2, 2, 5, 8)))
    for bad_q, bad_kv in [(Tensor(np.zeros((2, 4, 3, 8), np.float32)), kv),
                          (q, Tensor(np.zeros((2, 2, 5, 6)))),
                          (q, Tensor(np.zeros((1, 2, 5, 8)))),
                          (q, Tensor(np.zeros((5, 8))))]:
        with pytest.raises(ShapeError):
            grouped_query_attention(bad_q, bad_kv, bad_kv, None)


@pytest.mark.parametrize("group", [1, 2], ids=["ungrouped", "grouped"])
@pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
def test_attention_node_gradcheck(masked, group):
    rng = np.random.default_rng(19)
    m, n = 3, 5
    c = rng.uniform(-1, 1, (2, 2 * group, m, 4))
    mask = causal_mask(m, n, 1, np.float64) if masked else None
    inputs = {"q": param(rng, (2, 2 * group, m, 4)), "k": param(rng, (2, 2, n, 4)),
              "v": param(rng, (2, 2, n, 4))}

    def fn(inp):
        out, _ = grouped_query_attention(inp["q"], inp["k"], inp["v"], mask)
        return probe_loss(out, Tensor(c))

    report = grad_check(fn, inputs)
    assert report.passed, str(report)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("trained", ["qkv", "q", "k", "v", "qk"])
def test_attention_node_equals_the_chain_bitwise(dtype, trained):
    # the fused node against the engine-op chain it replaced, grouped and
    # not, masked and not, with some operands frozen
    rng = np.random.default_rng(20)
    for qh, mask in [(4, causal_mask(3, 5, 2, dtype)), (2, None)]:
        data = [rng.normal(0, 1, shape).astype(dtype)
                for shape in ((2, qh, 3, 8), (2, 2, 5, 8), (2, 2, 5, 8))]
        c = Tensor(rng.normal(0, 1, (2, qh, 3, 8)).astype(dtype))
        results = []
        for gqa in (grouped_query_attention, attention_chain):
            inputs = {name: Tensor(a.copy(), requires_grad=name in trained)
                      for name, a in zip("qkv", data)}
            out, weights = gqa(inputs["q"], inputs["k"], inputs["v"], mask)
            grads = T.backward(probe_loss(out, c), inputs)
            results.append([out.data.tobytes(), weights.tobytes()]
                           + [grads[name].tobytes() for name in sorted(grads)])
        assert results[0] == results[1]
