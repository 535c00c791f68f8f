"""Engine-level tests: forward values, backward vs finite differences."""

import threading

import numpy as np
import pytest

from dreamer import tensor as T
from dreamer.errors import ContractError, NumericError, ShapeError


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
    lambda x: T.stack([x, x * x], axis=0).sum(),
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
    graph = T.Graph(lambda inp: (T.scatter_last(inp["v"], sidx, 6) * 1.5).sum())
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
