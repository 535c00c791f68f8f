"""Attention primitive tests against small closed-form and loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreamer import tensor as T
from dreamer.attention import (AttentionSpec, RopeSpec, causal_mask,
                               grouped_query_attention, rms_norm, rope_apply,
                               rope_depth_apply)
from dreamer.errors import ConfigError, ContractError
from dreamer.tensor import Tensor
from reference import attention


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
    spec = AttentionSpec(query_heads=2, kv_heads=2, head_dim=4, causal=True)
    q = rng.uniform(-1, 1, (1, 2, 5, 4))
    k = rng.uniform(-1, 1, (1, 2, 5, 4))
    v = rng.uniform(-1, 1, (1, 2, 5, 4))
    out = grouped_query_attention(Tensor(q), Tensor(k), Tensor(v), spec).data
    for h in range(2):
        ref = attention(Tensor(q[0, h]), Tensor(k[0, h]), Tensor(v[0, h]), causal=True).data
        np.testing.assert_allclose(out[0, h], ref, atol=1e-12)


def test_gqa_grouping_matches_loop_oracle():
    rng = np.random.default_rng(4)
    spec = AttentionSpec(query_heads=4, kv_heads=2, head_dim=3, causal=True)
    b, m, n = 2, 4, 4
    q = rng.uniform(-1, 1, (b, 4, m, 3))
    k = rng.uniform(-1, 1, (b, 2, n, 3))
    v = rng.uniform(-1, 1, (b, 2, n, 3))
    out, w = grouped_query_attention(Tensor(q), Tensor(k), Tensor(v), spec,
                                     return_weights=True)
    mask = np.where(np.tril(np.ones((m, n), bool)), 0.0, -np.inf)
    for bi in range(b):
        for h in range(4):
            kv = h // 2  # query head h reads kv head h // group
            scores = q[bi, h] @ k[bi, kv].T / np.sqrt(3) + mask
            wref = np_softmax(scores)
            np.testing.assert_allclose(w.data[bi, h], wref, atol=1e-12)
            np.testing.assert_allclose(out.data[bi, h], wref @ v[bi, kv], atol=1e-12)


def test_gqa_bad_head_counts_rejected():
    with pytest.raises(ConfigError):
        AttentionSpec(query_heads=3, kv_heads=2, head_dim=4)


# -- rotary -----------------------------------------------------------------

def test_rope_position_zero_is_identity():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (1, 8))
    spec = RopeSpec(dim=8, base=10000.0)
    out = rope_apply(Tensor(x), np.array([0]), spec)
    assert out.data.tobytes() == x.astype(out.dtype).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 100))
def test_rope_scores_depend_on_relative_position(m, n, shift):
    rng = np.random.default_rng(17)
    q = rng.uniform(-1, 1, (1, 8))
    k = rng.uniform(-1, 1, (1, 8))
    spec = RopeSpec(dim=8, base=100.0)

    def score(pm, pn):
        qr = rope_apply(Tensor(q), np.array([pm]), spec).data
        kr = rope_apply(Tensor(k), np.array([pn]), spec).data
        return float((qr @ kr.T).item())

    assert abs(score(m, n) - score(m + shift, n + shift)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_rope_preserves_norms(pos):
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, (3, 12))
    spec = RopeSpec(dim=12, base=10000.0)
    out = rope_apply(Tensor(x), np.array([pos, pos + 1, 2 * pos]), spec).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1),
                               np.linalg.norm(x, axis=-1), atol=1e-9)


def test_depth_rope_identity_at_single_depth():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 8)
    spec = RopeSpec(dim=8, base=500.0, depth_mode=True, max_depth=1)
    out = rope_depth_apply(Tensor(x), 0, spec)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_depth_rope_half_reversed_positions():
    # forward pairs rotate at depth l, reversed pairs at max_depth-1-l
    rng = np.random.default_rng(7)
    dim, L = 16, 4
    x = rng.uniform(-1, 1, (1, dim))
    dspec = RopeSpec(dim=dim, base=500.0, depth_mode=True, max_depth=L)
    sspec = RopeSpec(dim=dim, base=500.0)
    for l in range(L):
        got = rope_depth_apply(Tensor(x[0]), l, dspec).data
        fwd = rope_apply(Tensor(x), np.array([l]), sspec).data[0]
        rev = rope_apply(Tensor(x), np.array([L - 1 - l]), sspec).data[0]
        half, quarter = dim // 2, dim // 4
        fwd_ch = np.r_[0:quarter, half:half + quarter]
        rev_ch = np.r_[quarter:half, half + quarter:dim]
        np.testing.assert_allclose(got[fwd_ch], fwd[fwd_ch], atol=1e-12)
        np.testing.assert_allclose(got[rev_ch], rev[rev_ch], atol=1e-12)


def test_depth_rope_requires_dim_multiple_of_four():
    with pytest.raises(ConfigError):
        RopeSpec(dim=6, base=500.0, depth_mode=True, max_depth=2)


def test_depth_rope_rejects_out_of_range_depth():
    spec = RopeSpec(dim=8, base=500.0, depth_mode=True, max_depth=2)
    with pytest.raises(ContractError):
        rope_depth_apply(Tensor(np.zeros(8)), 2, spec)


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


def test_rms_norm_gradcheck():
    rng = np.random.default_rng(9)

    def fn(inp):
        return (rms_norm(inp["x"], inp["g"]) * T.sigmoid(inp["x"])).sum()

    graph = T.Graph(fn)
    inputs = {"x": Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True),
              "g": Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)}
    assert T.grad_check(graph, inputs).passed


def test_attention_gradcheck():
    rng = np.random.default_rng(10)

    def fn(inp):
        out = attention(inp["q"], inp["k"], inp["v"], causal=True)
        return (out * out).sum()

    inputs = {k: Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
              for k in ("q", "k", "v")}
    assert T.grad_check(T.Graph(fn), inputs).passed


def test_causal_mask_offset():
    m = causal_mask(1, 4, 2, np.float64)
    assert (m[0, :3] == 0).all() and m[0, 3] < -1e29
