"""Engine-level tests: forward values, backward vs finite differences."""

import threading
import tracemalloc

import numpy as np
import pytest

from dreamer import tensor as T
from dreamer.errors import ContractError, NumericError, ShapeError
from dreamer.training import clip_grad_norm
from reference import scatter_last, stack


def t64(x, req=True):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=req)


def central_diff(fn, x, step=1e-5):
    """Independent finite-difference oracle (loops, no engine code)."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        hi = fn(x)
        flat_x[i] = orig - step
        lo = fn(x)
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2 * step)
    return g


def test_identity_matmul():
    a = T.Tensor(np.eye(3, dtype=np.float32))
    b = T.Tensor(np.arange(9, dtype=np.float32).reshape(3, 3))
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, b.data)


def test_sum_of_zeros_and_scalar_mul():
    z = T.Tensor(np.zeros((4, 5)))
    assert z.sum().item() == 0.0
    two = T.Tensor(np.full((2, 2), 3.0)) * 2.0
    np.testing.assert_allclose(two.data, 6.0)


def test_softmax_two_equal_logits():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_mul_backward_square():
    x = t64(3.0)
    y = x * x
    y.backward()
    np.testing.assert_allclose(x.grad, 6.0)


def test_sum_backward_is_ones():
    x = t64(np.random.default_rng(0).uniform(-1, 1, (3, 4)))
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_broadcast_add_backward_reduces():
    x = t64(np.ones((4, 3)))
    b = t64(np.zeros(3))
    ((x + b) * 2.0).sum().backward()
    np.testing.assert_allclose(b.grad, [8.0, 8.0, 8.0])


def test_softmax_cross_entropy_grad_matches_finite_differences():
    # 3-class softmax CE: gradient must be softmax(logits) - onehot(target)
    rng = np.random.default_rng(7)
    logits0 = rng.uniform(-1, 1, 3)
    target = 2

    def loss_np(v):
        m = v.max()
        return float(np.log(np.exp(v - m).sum()) + m - v[target])

    x = t64(logits0.copy())
    loss = T.logsumexp(x) - x[target]
    loss.backward()
    fd = central_diff(loss_np, logits0.copy())
    assert np.max(np.abs(x.grad - fd)) < 1e-6
    soft = np.exp(logits0) / np.exp(logits0).sum()
    soft[target] -= 1.0
    np.testing.assert_allclose(x.grad, soft, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda x: (x * x).sum(),
    lambda x: (x + 2.0 * x).mean(),
    lambda x: T.sigmoid(x).sum(),
    lambda x: T.silu(x).sum(),
    lambda x: T.softmax(x).reshape(-1)[1] * 3.0,
    lambda x: T.logsumexp(x).sum(),
    lambda x: (x ** 3.0).sum() if np.all(x.data > 0) else (x * x * x).sum(),
    lambda x: T.matmul(x, T.transpose(x, (1, 0))).sum(),
    lambda x: x[1:, :2].sum(),
    lambda x: T.concat([x, x * 2.0], axis=1).mean(),
    lambda x: stack([x, x * x], axis=0).sum(),
    lambda x: (-T.transpose(x, (1, 0)) / 2.0).sum(),
    lambda x: T.reduce_mean(x, axis=1).sum(),
    lambda x: T.reduce_sum(x, axis=0, keepdims=True).mean(),
])
def test_every_op_matches_finite_differences(build):
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-1, 1, (3, 3))
    graph = T.Graph(lambda inp: build(inp["x"]))
    report = T.grad_check(graph, {"x": t64(x0)}, tolerance=1e-4)
    assert report.passed, str(report)


def test_gather_scatter_ops_match_finite_differences():
    rng = np.random.default_rng(3)
    w0 = rng.uniform(-1, 1, (5, 4))
    ids = np.array([[0, 2], [4, 4]])

    graph = T.Graph(lambda inp: T.embedding(inp["w"], ids).sum())
    assert T.grad_check(graph, {"w": t64(w0)}).passed

    idx = np.array([1, 3, 3])
    graph = T.Graph(lambda inp: (T.take_rows(inp["w"], idx) * 2.0).sum())
    assert T.grad_check(graph, {"w": t64(w0)}).passed

    gidx = np.array([[0, 3], [2, 2], [1, 0]])
    graph = T.Graph(lambda inp: (T.gather_last(inp["x"], gidx) ** 2.0).sum())
    assert T.grad_check(graph, {"x": t64(rng.uniform(0.1, 1, (3, 4)))}).passed

    sidx = np.array([[0, 3], [2, 1], [1, 0]])
    graph = T.Graph(lambda inp: (scatter_last(inp["v"], sidx, 6) * 1.5).sum())
    assert T.grad_check(graph, {"v": t64(rng.uniform(-1, 1, (3, 2)))}).passed


def test_grad_check_passes_linear_layer():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (4, 3))

    def fn(inp):
        return (T.matmul(T.Tensor(x), inp["w"]) + inp["b"]).sum()

    graph = T.Graph(fn)
    inputs = {"w": t64(rng.uniform(-1, 1, (3, 2))), "b": t64(rng.uniform(-1, 1, 2))}
    report = T.grad_check(graph, inputs)
    assert report.passed and report.max_rel_error < 1e-6


def test_grad_check_flags_corrupted_gradient():
    # An op with a deliberately wrong vjp (+0.1) must fail the check.
    def bad_square(a):
        out = a.data * a.data
        return T._node(out, (a,), lambda g: (g * (2.0 * a.data + 0.1),), "bad_square")

    graph = T.Graph(lambda inp: bad_square(inp["x"]).sum())
    report = T.grad_check(graph, {"x": t64(np.array([0.3, -0.7]))})
    assert not report.passed


def test_unused_input_gets_zero_gradient():
    graph = T.Graph(lambda inp: (inp["a"] * 2.0).sum())
    inputs = {"a": t64(np.ones(3)), "b": t64(np.ones(4))}
    T.eval(graph, inputs)
    grads = T.backward(graph)
    np.testing.assert_array_equal(grads["b"].data, np.zeros(4))
    np.testing.assert_array_equal(grads["a"].data, 2 * np.ones(3))


def test_eval_is_deterministic_bitwise():
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.uniform(-1, 1, (16, 16)).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (16, 16)).astype(np.float32), requires_grad=True)
    graph = T.Graph(lambda inp: T.softmax(T.matmul(inp["x"], inp["w"])).sum())
    a = T.eval(graph, {"x": x, "w": w}).data.copy()
    b = T.eval(graph, {"x": x, "w": w}).data.copy()
    assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_nonfinite_intermediate_raises():
    x = T.Tensor(np.array([1000.0], dtype=np.float32), requires_grad=True)
    graph = T.Graph(lambda inp: (T.sigmoid(inp["x"] * inp["x"]) / (inp["x"] - 1000.0)).sum())
    with pytest.raises(NumericError):
        T.eval(graph, {"x": x})


def test_shape_mismatch_raises_shape_error():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((4, 5)))
    with pytest.raises(ShapeError):
        T.matmul(a, b)
    with pytest.raises(ShapeError):
        T.add(a, b)
    with pytest.raises(ShapeError):
        T.add(a, T.Tensor(np.ones((2, 3), dtype=np.float32)))


def test_backward_requires_scalar():
    x = t64(np.ones((2, 2)))
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_graph_nodes_expose_topological_order():
    graph = T.Graph(lambda inp: (inp["x"] * inp["x"]).sum())
    T.eval(graph, {"x": t64(np.ones(2))})
    nodes = graph.nodes()
    ops = [op for _, op, _ in nodes]
    assert ops[-1] == "sum" and "mul" in ops
    ids = [i for i, _, _ in nodes]
    pos = {i: n for n, i in enumerate(ids)}
    for i, _, parents in nodes:
        assert all(pos[p] < pos[i] for p in parents if p in pos)


def test_stop_gradient_blocks_backward():
    x = t64(np.array([0.5, -0.25]))
    # value path: x * sg(x) == x**2, but only the left factor carries grad
    (x * T.stop_gradient(x)).sum().backward()
    np.testing.assert_allclose(x.grad, x.data)


def test_no_grad_suppresses_tape():
    x = t64(np.ones(3))
    with T.no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad and y.parents == ()


def test_no_grad_in_another_thread_keeps_this_threads_tape():
    entered, release = threading.Event(), threading.Event()

    def hold_no_grad():
        with T.no_grad():
            entered.set()
            release.wait(10)

    other = threading.Thread(target=hold_no_grad)
    other.start()
    try:
        assert entered.wait(10)
        y = T.Tensor(np.ones(3), requires_grad=True) * 2.0
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert y.requires_grad and T.grad_enabled()


def test_reshape_to_same_shape_records_nothing():
    t = t64(np.arange(6.0).reshape(2, 3))
    assert t.reshape(t.shape) is t
    assert t.reshape(2, 3) is t
    w0 = np.random.default_rng(8).uniform(-1, 1, (2, 3))
    graph = T.Graph(lambda inp: (inp["w"].reshape(3, 2) * T.Tensor(np.arange(6.0).reshape(3, 2))
                                 ).reshape(2, 3).reshape(6).sum())
    assert T.grad_check(graph, {"w": t64(w0)}).passed


def test_take_rows_unique_index_gradient_matches_add_at():
    rng = np.random.default_rng(9)
    w = t64(rng.uniform(-1, 1, (7, 3)))
    idx = np.array([5, 0, 3, 6])
    g = rng.uniform(-1, 1, (4, 3))
    (T.take_rows(w, idx) * T.Tensor(g)).sum().backward()
    want = np.zeros((7, 3))
    np.add.at(want, idx, g)
    assert w.grad.tobytes() == want.tobytes()


# -- gradient accumulation ------------------------------------------------------

def feed_order(loss, parent):
    """Ops that hand `parent` a gradient, in the order backward visits them."""
    return [n.op for n in reversed(T._topo(loss)) if any(p is parent for p in n.parents)]


@pytest.mark.parametrize("dense_first", [True, False])
def test_dense_and_indexed_gradients_into_one_parent_match_finite_differences(dense_first):
    rng = np.random.default_rng(21)
    x0 = rng.uniform(-1, 1, (4, 3))

    def build(x):
        p = x * 1.5
        dense = T.sigmoid(p).sum()
        indexed = (p[1:3] ** 2.0).sum() + (T.take_rows(p, np.array([2, 0, 2])) * 0.5).sum()
        return (dense + indexed if dense_first else indexed + dense), p

    loss, p = build(t64(x0))
    want = ["sigmoid", "getitem", "take_rows"] if dense_first else ["getitem", "take_rows", "sigmoid"]
    assert feed_order(loss, p) == want
    report = T.grad_check(T.Graph(lambda inp: build(inp["x"])[0]), {"x": t64(x0)})
    assert report.passed, str(report)


def test_scalar_used_three_times_sums_every_gradient():
    # s*s + s hands s three gradients; numpy sums two 0-d arrays into a
    # scalar, so an accumulator that only grows in place would drop one
    graph = T.Graph(lambda inp: (lambda s: s * s + s)(inp["x"].sum()))
    x0 = np.array([1.0, 2.0])
    T.eval(graph, {"x": t64(x0)})
    np.testing.assert_array_equal(T.backward(graph)["x"].data, np.full(2, 7.0))
    assert T.grad_check(graph, {"x": t64(x0)}).passed


def test_indexed_write_leaves_a_gradient_shared_through_add_unchanged():
    rng = np.random.default_rng(22)
    x0, y0, c = (rng.uniform(-1, 1, (4, 3)) for _ in range(3))
    x, y = t64(x0), t64(y0)
    p = x * 1.5
    sibling = y * 2.0
    loss = ((p + sibling) * T.Tensor(c)).sum() + (p[1:3] * sibling[1:3]).sum()
    # add hands the same array to p and to the sibling; p's next gradient is indexed
    assert feed_order(loss, p)[:2] == ["add", "getitem"]
    assert feed_order(loss, sibling)[0] == "add"
    loss.backward()
    d_sibling = c.copy()
    d_sibling[1:3] += p.data[1:3]
    d_p = c.copy()
    d_p[1:3] += sibling.data[1:3]
    np.testing.assert_array_equal(y.grad, d_sibling * 2.0)
    np.testing.assert_array_equal(x.grad, d_p * 1.5)


def test_take_rows_repeated_indices_sum_like_add_at():
    rng = np.random.default_rng(23)
    idx = np.array([3, 1, 3, 3, 0])
    g, c = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (6, 3))
    full = np.zeros((6, 3))
    np.add.at(full, idx, g)

    w = t64(rng.uniform(-1, 1, (6, 3)))
    (T.take_rows(w, idx) * T.Tensor(g)).sum().backward()
    assert w.grad.tobytes() == full.tobytes()

    w = t64(rng.uniform(-1, 1, (6, 3)))
    ((w * T.Tensor(c)).sum() + (T.take_rows(w, idx) * T.Tensor(g)).sum()).backward()
    assert w.grad.tobytes() == (c + full).tobytes()


def test_leaf_gradients_never_share_memory():
    graph = T.Graph(lambda inp: (inp["a"] + inp["b"]).sum())
    inputs = {"a": t64(np.ones(4)), "b": t64(np.ones(4))}
    T.eval(graph, inputs)
    grads = {name: g.data for name, g in T.backward(graph).items()}
    assert not np.shares_memory(grads["a"], grads["b"])
    norm = clip_grad_norm(grads, 0.1)
    assert norm == np.sqrt(8.0)
    for g in grads.values():
        np.testing.assert_array_equal(g, np.full(4, 0.1 / np.sqrt(8.0)))


def test_stacked_weight_slices_allocate_one_gradient_buffer():
    E, din, dout = 8, 64, 64
    rng = np.random.default_rng(24)
    w = t64(rng.uniform(-1, 1, (E, din, dout)))
    x = T.Tensor(rng.uniform(-1, 1, (6, din)))
    terms = [T.matmul(x, w[e]).sum() for _depth in range(4) for e in range(E)]
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(w.grad, np.broadcast_to(4.0 * x.data.sum(0)[:, None],
                                                       (E, din, dout)))
    assert peak < 3 * w.data.nbytes, f"backward peaked at {peak / w.data.nbytes:.2f}x the weight"
