"""Engine-level tests: forward values, backward vs finite differences."""

import inspect
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dreamer import tensor as T
from dreamer.config import desk_config
from dreamer.errors import ContractError, NumericError, ShapeError
from dreamer.training import TaskSpec, clip_grad_norm, train
from reference import (div, grad_check, logsumexp, mean, mul, neg, power, probe_loss, reduce_sum,
                       scatter_last, sigmoid, silu, softmax, stack, stop_gradient, sub,
                       take_rows_add_at)


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
    assert float(reduce_sum(z).data) == 0.0
    two = mul(T.Tensor(np.full((2, 2), 3.0)), 2.0)
    np.testing.assert_allclose(two.data, 6.0)


def test_softmax_two_equal_logits():
    out = softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_mul_backward_square():
    x = t64(3.0)
    y = mul(x, x)
    np.testing.assert_allclose(T.backward(y, {"x": x})["x"], 6.0)


def test_sum_backward_is_ones():
    x = t64(np.random.default_rng(0).uniform(-1, 1, (3, 4)))
    np.testing.assert_array_equal(T.backward(reduce_sum(x), {"x": x})["x"], np.ones((3, 4)))


def test_broadcast_add_backward_reduces():
    x = t64(np.ones((4, 3)))
    b = t64(np.zeros(3))
    np.testing.assert_allclose(T.backward(probe_loss(x + b, 2.0), {"b": b})["b"], [8.0, 8.0, 8.0])


def test_softmax_cross_entropy_grad_matches_finite_differences():
    # 3-class softmax CE: gradient must be softmax(logits) - onehot(target)
    rng = np.random.default_rng(7)
    logits0 = rng.uniform(-1, 1, 3)
    target = 2

    def loss_np(v):
        m = v.max()
        return float(np.log(np.exp(v - m).sum()) + m - v[target])

    x = t64(logits0.copy())
    loss = sub(logsumexp(x), x[target])
    grad = T.backward(loss, {"x": x})["x"]
    fd = central_diff(loss_np, logits0.copy())
    assert np.max(np.abs(grad - fd)) < 1e-6
    soft = np.exp(logits0) / np.exp(logits0).sum()
    soft[target] -= 1.0
    np.testing.assert_allclose(grad, soft, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda x: probe_loss(x, x),
    lambda x: mean(x + mul(x, 2.0)),
    lambda x: reduce_sum(sigmoid(x)),
    lambda x: reduce_sum(silu(x)),
    lambda x: mul(softmax(x).reshape(-1)[1], 3.0),
    lambda x: reduce_sum(logsumexp(x)),
    lambda x: reduce_sum(power(x, 3.0)) if np.all(x.data > 0) else probe_loss(mul(x, x), x),
    lambda x: reduce_sum(T.matmul(x, T.transpose(x, (1, 0)))),
    lambda x: reduce_sum(x[1:, :2]),
    lambda x: mean(T.concat([x, mul(x, 2.0)], axis=1)),
    lambda x: reduce_sum(stack([x, mul(x, x)], axis=0)),
    lambda x: reduce_sum(div(neg(T.transpose(x, (1, 0))), 2.0)),
    lambda x: reduce_sum(mean(x, axis=1)),
    lambda x: mean(reduce_sum(x, axis=0, keepdims=True)),
])
def test_every_op_matches_finite_differences(build):
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-1, 1, (3, 3))
    report = grad_check(lambda inp: build(inp["x"]), {"x": t64(x0)}, tolerance=1e-4)
    assert report.passed, str(report)


def test_gather_scatter_ops_match_finite_differences():
    rng = np.random.default_rng(3)
    w0 = rng.uniform(-1, 1, (5, 4))
    ids = np.array([[0, 2], [4, 4]])

    assert grad_check(lambda inp: reduce_sum(T.take_rows(inp["w"], ids)),
                      {"w": t64(w0)}).passed

    idx = np.array([1, 3, 3])
    assert grad_check(lambda inp: probe_loss(T.take_rows(inp["w"], idx), 2.0),
                      {"w": t64(w0)}).passed

    # picks along the last axis, as rows of the flattened array
    gidx = np.array([[0, 3], [2, 2], [1, 0]])
    flat_idx = np.arange(3)[:, None] * 4 + gidx
    assert grad_check(lambda inp: reduce_sum(power(T.take_rows(inp["x"].reshape(12), flat_idx), 2.0)),
                      {"x": t64(rng.uniform(0.1, 1, (3, 4)))}).passed

    sidx = np.array([[0, 3], [2, 1], [1, 0]])
    assert grad_check(lambda inp: probe_loss(scatter_last(inp["v"], sidx, 6), 1.5),
                      {"v": t64(rng.uniform(-1, 1, (3, 2)))}).passed


def test_grad_check_passes_linear_layer():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (4, 3))

    def fn(inp):
        return reduce_sum(T.matmul(T.Tensor(x), inp["w"]) + inp["b"])

    inputs = {"w": t64(rng.uniform(-1, 1, (3, 2))), "b": t64(rng.uniform(-1, 1, 2))}
    report = grad_check(fn, inputs)
    assert report.passed and report.max_rel_error < 1e-6


def test_grad_check_flags_corrupted_gradient():
    # An op with a deliberately wrong vjp (+0.1) must fail the check.
    def bad_square(a):
        out = a.data * a.data
        return T.node(out, (a,), lambda g: (g * (2.0 * a.data + 0.1),), "bad_square")

    report = grad_check(lambda inp: reduce_sum(bad_square(inp["x"])),
                        {"x": t64(np.array([0.3, -0.7]))})
    assert not report.passed


def test_unused_input_gets_zero_gradient():
    inputs = {"a": t64(np.ones(3)), "b": t64(np.ones(4))}
    grads = T.backward(T.eval(probe_loss(inputs["a"], 2.0)), inputs)
    np.testing.assert_array_equal(grads["b"], np.zeros(4))
    np.testing.assert_array_equal(grads["a"], 2 * np.ones(3))


def test_eval_is_deterministic_bitwise():
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.uniform(-1, 1, (16, 16)).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (16, 16)).astype(np.float32), requires_grad=True)
    a = T.eval(reduce_sum(softmax(T.matmul(x, w)))).data.copy()
    b = T.eval(reduce_sum(softmax(T.matmul(x, w)))).data.copy()
    assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_nonfinite_intermediate_raises():
    x = T.Tensor(np.array([1000.0], dtype=np.float32), requires_grad=True)
    with pytest.raises(NumericError):
        T.eval(reduce_sum(div(sigmoid(mul(x, x)), sub(x, 1000.0))))


def test_shape_mismatch_raises_shape_error():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((4, 5)))
    with pytest.raises(ShapeError):
        T.matmul(a, b)
    for name, op in (("add", T.add), ("sub", sub), ("mul", mul), ("div", div)):
        with pytest.raises(ShapeError, match=rf"^{name}: shapes \(2, 3\) and \(4, 5\) "):
            op(a, b)
        with pytest.raises(ShapeError, match=f"^{name}: dtype mismatch"):
            op(a, T.Tensor(np.ones((2, 3), dtype=np.float32)))


@pytest.mark.parametrize("build, message", [
    (lambda x: T.transpose(x, (0, 0)), r"^transpose: axes \(0, 0\) are no permutation of \(2, 3\)"),
    (lambda x: T.transpose(x, (0, 2)), r"^transpose: axes \(0, 2\) are no permutation of \(2, 3\)"),
    (lambda x: x.reshape(7), r"^reshape: cannot reshape \(2, 3\) to \(7,\)"),
    (lambda x: T.concat([x, T.Tensor(np.ones((3, 3)))], axis=1),
     r"^concat: shapes \(2, 3\), \(3, 3\) do not join on axis 1"),
], ids=["transpose_repeated", "transpose_out_of_range", "reshape", "concat"])
def test_shape_ops_raise_shape_error(build, message):
    with pytest.raises(ShapeError, match=message):
        build(T.Tensor(np.ones((2, 3))))


@pytest.mark.parametrize("perm", [(1, 2, 0), (2, 0, 1), (-1, 0, 1)])
def test_transpose_that_is_not_its_own_inverse_matches_finite_differences(perm):
    rng = np.random.default_rng(12)
    x0 = rng.uniform(-1, 1, (2, 3, 4))
    c = T.Tensor(rng.uniform(-1, 1, tuple(x0.shape[a] for a in perm)))
    report = grad_check(lambda inp: probe_loss(T.transpose(inp["x"], perm), c), {"x": t64(x0)})
    assert report.passed, str(report)


@pytest.mark.parametrize("data", [
    np.float32(1.5), np.float64(-2.0), np.int64(3), np.arange(4), np.arange(4, dtype=np.int32),
    np.ones(3, dtype=">f4"), [1.0, 2.0],
], ids=["f32_scalar", "f64_scalar", "i64_scalar", "i64_array", "i32_array", "big_endian",
        "list"])
def test_node_coerces_like_the_constructor(data):
    x = t64(np.ones(2))
    got = T.node(data, (x,), lambda g: (None,), "op")
    want = T.Tensor(data)
    assert type(got.data) is np.ndarray
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()


def test_backward_requires_scalar():
    x = t64(np.ones((2, 2)))
    with pytest.raises(ContractError):
        T.backward(mul(x, 2.0), {"x": x})


def test_graph_nodes_expose_topological_order():
    x = t64(np.ones(2))
    nodes = T._topo(T.eval(probe_loss(x, x)))
    ops = [n.op for n in nodes]
    assert ops[-1] == "sum" and "mul" in ops
    pos = {n.node_id: i for i, n in enumerate(nodes)}
    for n in nodes:
        assert all(pos[p.node_id] < pos[n.node_id] for p in n.parents if p.node_id in pos)


def test_stop_gradient_blocks_backward():
    x = t64(np.array([0.5, -0.25]))
    # value path: x * sg(x) == x**2, but only the left factor carries grad
    grad = T.backward(probe_loss(x, stop_gradient(x)), {"x": x})["x"]
    np.testing.assert_allclose(grad, x.data)


def test_backward_consumes_the_tape():
    # each node the walk passes drops its vjp and parents; a walk that
    # reaches a consumed node with a gradient raises instead of returning
    # zeros, and the leaves stay usable for a new forward
    x = t64(np.array([0.5, -0.25]))
    h = mul(x, x)
    loss = reduce_sum(h)
    first = T.backward(loss, {"x": x})["x"]
    assert loss.parents == () and h.parents == ()
    with pytest.raises(ContractError, match="consumed"):
        T.backward(loss, {"x": x})
    with pytest.raises(ContractError, match="consumed"):
        T.backward(probe_loss(h, 3.0), {"x": x})
    assert T.backward(probe_loss(x, x), {"x": x})["x"].tobytes() == first.tobytes()


def test_no_grad_suppresses_tape():
    x = t64(np.ones(3))
    with T.no_grad():
        y = probe_loss(x, 2.0)
        z = T.node(x.data * 2.0, (x,), lambda g: (g * 2.0,), "double")
    for t in (y, z):
        assert not t.requires_grad and t.parents == () and t.vjp is None


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
        y = mul(T.Tensor(np.ones(3), requires_grad=True), 2.0)
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

    def fn(inp):
        scaled = mul(inp["w"].reshape(3, 2), T.Tensor(np.arange(6.0).reshape(3, 2)))
        return reduce_sum(scaled.reshape(2, 3).reshape(6))

    assert grad_check(fn, {"w": t64(w0)}).passed


def test_getitem_rejects_index_arrays():
    # an index array may name an element twice, and the indexed gradient
    # would then keep only one of its writes; take_rows sums them
    x = t64(np.arange(12.0).reshape(3, 4))
    for key in (np.array([0, 0, 2]), [0, 0, 2], (slice(None), np.array([1, 1])), (1, [0, 0])):
        with pytest.raises(ContractError, match="take_rows"):
            x[key]
    loss = reduce_sum(x[1]) + reduce_sum(x[np.int64(2), 1:3]) + reduce_sum(x[None, ..., 0])
    want = np.zeros((3, 4))
    want[1] += 1.0
    want[2, 1:3] += 1.0
    want[:, 0] += 1.0
    np.testing.assert_array_equal(T.backward(loss, {"x": x})["x"], want)


def test_take_rows_unique_index_gradient_matches_add_at():
    rng = np.random.default_rng(9)
    w = t64(rng.uniform(-1, 1, (7, 3)))
    idx = np.array([5, 0, 3, 6])
    g = rng.uniform(-1, 1, (4, 3))
    grad = T.backward(probe_loss(T.take_rows(w, idx), T.Tensor(g)), {"w": w})["w"]
    want = np.zeros((7, 3))
    np.add.at(want, idx, g)
    assert grad.tobytes() == want.tobytes()


# -- gradient accumulation ------------------------------------------------------

def feed_order(loss, parent):
    """Ops that hand `parent` a gradient, in the order backward visits them."""
    return [n.op for n in reversed(T._topo(loss)) if any(p is parent for p in n.parents)]


@pytest.mark.parametrize("dense_first", [True, False])
def test_dense_and_indexed_gradients_into_one_parent_match_finite_differences(dense_first):
    rng = np.random.default_rng(21)
    x0 = rng.uniform(-1, 1, (4, 3))

    def build(x):
        p = mul(x, 1.5)
        dense = reduce_sum(sigmoid(p))
        indexed = reduce_sum(power(p[1:3], 2.0)) + probe_loss(T.take_rows(p, np.array([2, 0, 2])), 0.5)
        return (dense + indexed if dense_first else indexed + dense), p

    loss, p = build(t64(x0))
    want = ["sigmoid", "getitem", "take_rows"] if dense_first else ["getitem", "take_rows", "sigmoid"]
    assert feed_order(loss, p) == want
    report = grad_check(lambda inp: build(inp["x"])[0], {"x": t64(x0)})
    assert report.passed, str(report)


def test_scalar_used_three_times_sums_every_gradient():
    # s*s + s hands s three gradients; numpy sums two 0-d arrays into a
    # scalar, so an accumulator that only grows in place would drop one
    def fn(inp):
        s = reduce_sum(inp["x"])
        return mul(s, s) + s

    x0 = np.array([1.0, 2.0])
    inputs = {"x": t64(x0)}
    np.testing.assert_array_equal(T.backward(T.eval(fn(inputs)), inputs)["x"], np.full(2, 7.0))
    assert grad_check(fn, {"x": t64(x0)}).passed


def test_indexed_write_leaves_a_gradient_shared_through_add_unchanged():
    rng = np.random.default_rng(22)
    x0, y0, c = (rng.uniform(-1, 1, (4, 3)) for _ in range(3))
    x, y = t64(x0), t64(y0)
    p = mul(x, 1.5)
    sibling = mul(y, 2.0)
    loss = probe_loss(p + sibling, T.Tensor(c)) + probe_loss(p[1:3], sibling[1:3])
    # add hands the same array to p and to the sibling; p's next gradient is indexed
    assert feed_order(loss, p)[:2] == ["add", "getitem"]
    assert feed_order(loss, sibling)[0] == "add"
    grads = T.backward(loss, {"x": x, "y": y})
    d_sibling = c.copy()
    d_sibling[1:3] += p.data[1:3]
    d_p = c.copy()
    d_p[1:3] += sibling.data[1:3]
    np.testing.assert_array_equal(grads["y"], d_sibling * 2.0)
    np.testing.assert_array_equal(grads["x"], d_p * 1.5)


def test_take_rows_repeated_indices_sum_like_add_at():
    rng = np.random.default_rng(23)
    idx = np.array([3, 1, 3, 3, 0])
    g, c = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (6, 3))
    full = np.zeros((6, 3))
    np.add.at(full, idx, g)

    w = t64(rng.uniform(-1, 1, (6, 3)))
    grad = T.backward(probe_loss(T.take_rows(w, idx), T.Tensor(g)), {"w": w})["w"]
    assert grad.tobytes() == full.tobytes()

    w = t64(rng.uniform(-1, 1, (6, 3)))
    loss = probe_loss(w, T.Tensor(c)) + probe_loss(T.take_rows(w, idx), T.Tensor(g))
    grad = T.backward(loss, {"w": w})["w"]
    assert grad.tobytes() == (c + full).tobytes()


@pytest.mark.parametrize("row_shape", [(), (3,), (3, 2)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("idx", [
    np.array([3, 1, 3, 3, 0, 6]),
    np.array([[3, 1], [3, 3], [0, 6]]),
    np.array([2, 5, 2, 2, 2, 2, 0, 2, 2, 2, 2]),  # row 2 nine times
], ids=["rank1", "rank2", "nine_copies"])
def test_take_rows_repeated_gradient_equals_add_at_oracle_bitwise(row_shape, idx):
    rng = np.random.default_rng(24)
    g = rng.uniform(-1, 1, idx.shape + row_shape)
    g[(0,) * idx.ndim] = -0.0  # a signed zero: summed from zero it gives +0.0
    c = rng.uniform(-1, 1, (7,) + row_shape)
    grads = []
    for take in (T.take_rows, take_rows_add_at):
        w = t64(rng.uniform(-1, 1, (7,) + row_shape))
        for loss in (probe_loss(take(w, idx), T.Tensor(g)),
                     probe_loss(w, T.Tensor(c)) + probe_loss(take(w, idx), T.Tensor(g))):
            grads.append(T.backward(loss, {"w": w})["w"].tobytes())
    assert grads[:2] == grads[2:]


def test_take_rows_sums_signed_zero_copies_from_zero():
    # the dense -0.0 reaches w first; row 1's three copies are -0.0 too and,
    # summed from zero, give +0.0, so w's row 1 ends +0.0 (-0.0 + +0.0)
    minus_zero = T.Tensor(np.full((3, 2), -0.0))
    grads = []
    for take in (T.take_rows, take_rows_add_at):
        w = t64(np.ones((3, 2)))
        loss = probe_loss(w, minus_zero) + probe_loss(take(w, np.array([1, 1, 1])), minus_zero)
        assert feed_order(loss, w) == ["mul", "take_rows"]
        grads.append(T.backward(loss, {"w": w})["w"])
    assert grads[0].tobytes() == grads[1].tobytes()
    assert np.signbit(grads[0][[0, 2]]).all() and not np.signbit(grads[0][1]).any()


@pytest.mark.parametrize("top, size", [(2**16 - 1, 5000), (2**16, 5000), (0, 0)],
                         ids=["uint16", "int64_fallback", "empty"])
def test_group_ids_is_the_stable_int64_argsort(top, size):
    rng = np.random.default_rng(25)
    flat = rng.integers(0, top, size, endpoint=True)
    if size:
        flat[:2] = top, 0  # the largest id occurs, and ids repeat
    order, ids, counts = T.group_ids(flat)
    assert order.tobytes() == np.argsort(flat, kind="stable").tobytes()
    want_ids, want_counts = np.unique(flat, return_counts=True)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(counts, want_counts)


def test_leaf_gradients_never_share_memory():
    inputs = {"a": t64(np.ones(4)), "b": t64(np.ones(4))}
    grads = T.backward(T.eval(reduce_sum(inputs["a"] + inputs["b"])), inputs)
    assert not np.shares_memory(grads["a"], grads["b"])
    norm = clip_grad_norm(grads, 0.1)
    assert norm == np.sqrt(8.0)
    for g in grads.values():
        np.testing.assert_array_equal(g, np.full(4, 0.1 / np.sqrt(8.0)))


def test_an_input_named_twice_gets_two_arrays():
    # the sum of two products makes an accumulator the walk owns
    x = t64(np.ones(3))
    grads = T.backward(T.eval(reduce_sum(mul(x, 2.0) + mul(x, 3.0))), {"a": x, "b": x})
    assert not np.shares_memory(grads["a"], grads["b"])
    for g in grads.values():
        np.testing.assert_array_equal(g, np.full(3, 5.0))


def test_stacked_weight_slices_allocate_one_gradient_buffer():
    E, din, dout = 8, 64, 64
    rng = np.random.default_rng(24)
    w = t64(rng.uniform(-1, 1, (E, din, dout)))
    x = T.Tensor(rng.uniform(-1, 1, (6, din)))
    terms = [reduce_sum(T.matmul(x, w[e])) for _depth in range(4) for e in range(E)]
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    tracemalloc.start()
    try:
        grad = T.backward(loss, {"w": w})["w"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(grad, np.broadcast_to(4.0 * x.data.sum(0)[:, None],
                                                       (E, din, dout)))
    assert peak < 3 * w.data.nbytes, f"backward peaked at {peak / w.data.nbytes:.2f}x the weight"


# -- library coverage -------------------------------------------------------------

def test_every_engine_function_has_a_library_caller(monkeypatch):
    # an op that only tests call belongs in tests/reference.py, and so does
    # a Tensor method, property or operator
    public = [name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")]
    members = [name for name, attr in vars(T.Tensor).items()
               if (inspect.isfunction(attr) or isinstance(attr, property))
               and name not in ("__init__", "__repr__")]
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in public:
        monkeypatch.setattr(T, name, counting(name, getattr(T, name)))
    for name in members:
        attr = vars(T.Tensor)[name]
        wrapped = (property(counting(f"Tensor.{name}", attr.fget)) if isinstance(attr, property)
                   else counting(f"Tensor.{name}", attr))
        monkeypatch.setattr(T.Tensor, name, wrapped)
    public += [f"Tensor.{name}" for name in members]
    for variant in ("LA", "DR", "DR_DA"):
        cfg = desk_config(variant, 2, vocab_size=32, context_length=16, batch_size=2)
        model = train(cfg, TaskSpec("copy", 9, 32), 1).model
        model.decode(np.array([[3, 1, 4]]), 3)
    assert [name for name in public if not calls[name]] == []
