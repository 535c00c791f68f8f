"""Reverse-mode automatic differentiation over numpy arrays.

The engine is a define-by-run tape: every op produces a `Tensor` that
remembers its parents and a vector-Jacobian closure. `backward` walks the
recorded graph in reverse topological order and accumulates gradients on
the leaves. Only float32/float64 arrays participate; integer index arrays
(token ids, routing selections) stay outside the graph as plain numpy.

Numerics contract:
  * forward values are a pure function of the inputs, bit-identical across
    repeated calls (numpy's reduction order is fixed),
  * training runs in float32, gradient checking in float64,
  * `eval` surfaces any non-finite intermediate as a NumericError instead
    of letting NaN/Inf propagate silently.
"""

from __future__ import annotations

import contextvars
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_NODE_IDS = itertools.count()
# One flag per thread (and asyncio task): a no_grad never stops another's tape.
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)

# Additive mask value for disallowed attention slots. Finite on purpose:
# exp(-1e30 - max) underflows to exactly 0.0 while the masked scores
# themselves stay finite, so the finiteness contract holds end to end.
MASK_VALUE = -1e30


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


def grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


class Tensor:
    """A numpy array plus autodiff bookkeeping.

    `parents` / `vjp` are populated only for non-leaf nodes created while
    recording is enabled. `vjp(out_grad)` returns one gradient array (or
    None) per parent.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "vjp", "node_id")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None,
                 op: str = "leaf", parents: tuple = (), vjp=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64 if arr.dtype == np.int64 else np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.node_id = next(_NODE_IDS)

    # -- introspection -----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self.op!r})"

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def backward(self):
        backward_from(self)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _node(data, parents, vjp, op) -> Tensor:
    """Create an op result, recording the tape edge only when it matters."""
    req = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    if req:
        return Tensor(data, True, op=op, parents=parents, vjp=vjp)
    return Tensor(data, False, op=op)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_binary(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- arithmetic --------------------------------------------------------------

def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = b if isinstance(b, Tensor) else _as_tensor(b, a.dtype)
    _check_binary(a, b, "add")
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = b if isinstance(b, Tensor) else _as_tensor(b, a.dtype)
    _check_binary(a, b, "sub")
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = b if isinstance(b, Tensor) else _as_tensor(b, a.dtype)
    _check_binary(a, b, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _node(out, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = b if isinstance(b, Tensor) else _as_tensor(b, a.dtype)
    _check_binary(a, b, "div")
    out = a.data / b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return (_unbroadcast(g / bd, a.shape),
                _unbroadcast(-g * ad / (bd * bd), b.shape))

    return _node(out, (a, b), vjp, "div")


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,), "neg")


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a python scalar exponent."""
    out = a.data ** p
    ad = a.data

    def vjp(g):
        return (g * p * ad ** (p - 1.0),)

    return _node(out, (a,), vjp, "power")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with equal (or absent) leading batch dims."""
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: dtype mismatch {a.dtype.name} vs {b.dtype.name}")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2] and a.ndim > 2 and b.ndim > 2:
        raise ShapeError(f"matmul: leading dims differ for {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), vjp, "matmul")


# -- shape ops ---------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if shape == a.shape:
        return a
    out = a.data.reshape(shape)
    orig = a.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _node(out, (a,), vjp, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)

    def vjp(g):
        return (g.transpose(inv),)

    return _node(out, (a,), vjp, "transpose")


def getitem(a: Tensor, key) -> Tensor:
    """Basic (non-fancy) indexing; gradient scatters back into zeros."""
    out = a.data[key]
    shape, dt = a.shape, a.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dt)
        full[key] += g
        return (full,)

    return _node(out, (a,), vjp, "getitem")


def concat(tensors, axis: int) -> Tensor:
    dt = tensors[0].dtype
    for t in tensors:
        if t.dtype != dt:
            raise ShapeError("concat: dtype mismatch")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def vjp(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _node(out, tuple(tensors), vjp, "concat")


def stack(tensors, axis: int = 0) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return _node(out, tuple(tensors), vjp, "stack")


# -- reductions ---------------------------------------------------------------

def _norm_axis(axis):
    if axis is None or isinstance(axis, tuple):
        return axis
    return (axis,)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axis = _norm_axis(axis)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _node(out, (a,), vjp, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axis = _norm_axis(axis)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    n = a.size if axis is None else int(np.prod([shape[i] for i in axis]))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / n,)

    return _node(out, (a,), vjp, "mean")


# -- nonlinearities ------------------------------------------------------------

def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), vjp, "sigmoid")


def silu(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * sig
    ad = a.data

    def vjp(g):
        return (g * sig * (1.0 + ad * (1.0 - sig)),)

    return _node(out, (a,), vjp, "silu")


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), vjp, "softmax")


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis, stable against overflow."""
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out = (np.log(s) + m).squeeze(-1)
    soft = e / s

    def vjp(g):
        return (np.expand_dims(g, -1) * soft,)

    return _node(out, (a,), vjp, "logsumexp")


# -- gather / scatter -----------------------------------------------------------

def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup `weight[ids]`; gradient scatter-adds into the table."""
    ids = np.asarray(ids)
    out = weight.data[ids]
    vshape, dt = weight.shape, weight.dtype

    def vjp(g):
        full = np.zeros(vshape, dtype=dt)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, vshape[-1]))
        return (full,)

    return _node(out, (weight,), vjp, "embedding")


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along axis 0 by integer index."""
    idx = np.asarray(idx)
    out = a.data[idx]
    shape, dt = a.shape, a.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dt)
        if np.bincount(idx.reshape(-1), minlength=shape[0]).max() == 1:
            full[idx] = g  # no repeated row: plain assignment, no np.add.at
        else:
            np.add.at(full, idx, g)
        return (full,)

    return _node(out, (a,), vjp, "take_rows")


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick entries along the last axis; idx shape = a.shape[:-1] + (k,)."""
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx, axis=-1)
    shape, dt = a.shape, a.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dt)
        flat = full.reshape(-1, shape[-1])
        rows = np.repeat(np.arange(flat.shape[0]), idx.shape[-1])
        np.add.at(flat, (rows, idx.reshape(-1)), g.reshape(-1))
        return (full,)

    return _node(out, (a,), vjp, "gather_last")


def scatter_last(values: Tensor, idx: np.ndarray, size: int) -> Tensor:
    """Inverse of gather_last: spread values into a zero last axis of `size`."""
    idx = np.asarray(idx)
    shape = values.shape[:-1] + (size,)
    out = np.zeros(shape, dtype=values.dtype)
    np.put_along_axis(out, idx, values.data, axis=-1)

    def vjp(g):
        return (np.take_along_axis(g, idx, axis=-1),)

    return _node(out, (values,), vjp, "scatter_last")


def stop_gradient(a: Tensor) -> Tensor:
    """Identity in value, zero in gradient (returns a detached leaf)."""
    return Tensor(a.data, False, op="stop_gradient")


# -- backward ---------------------------------------------------------------------

def _topo(root: Tensor) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and p.node_id not in seen:
                stack.append((p, False))
    return order


def backward_from(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of reachable requires-grad leaves."""
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads = {loss.node_id: np.ones_like(loss.data)}
    for node in reversed(_topo(loss)):
        g = grads.pop(node.node_id, None)
        if g is None:
            continue
        if node.vjp is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.node_id in grads:
                grads[parent.node_id] = grads[parent.node_id] + pg
            else:
                grads[parent.node_id] = pg


# -- graph surface -------------------------------------------------------------------

class Graph:
    """A computation defined as a function of named input tensors.

    `eval` records the tape for one set of inputs; `nodes()` exposes the
    recorded op list in topological order for inspection.
    """

    def __init__(self, fn):
        self.fn = fn
        self.inputs: dict[str, Tensor] | None = None
        self.output: Tensor | None = None

    def nodes(self) -> list[tuple[int, str, tuple[int, ...]]]:
        if self.output is None:
            raise ContractError("graph has not been evaluated")
        return [(n.node_id, n.op, tuple(p.node_id for p in n.parents))
                for n in _topo(self.output)]


def eval(graph: Graph, inputs: dict[str, Tensor]) -> Tensor:
    """Run the graph on named inputs; raise NumericError on any non-finite node."""
    out = graph.fn(inputs)
    if not isinstance(out, Tensor):
        raise ContractError("graph function must return a Tensor")
    graph.inputs = inputs
    graph.output = out
    for node in _topo(out):
        if not np.all(np.isfinite(node.data)):
            raise NumericError(f"non-finite values produced by op '{node.op}'")
    return out


def backward(graph: Graph, loss: Tensor | None = None) -> dict[str, Tensor]:
    """Gradients of the (scalar) output w.r.t. every requires-grad input.

    Inputs the output does not depend on get explicit zero gradients.
    """
    if graph.output is None or graph.inputs is None:
        raise ContractError("eval the graph before calling backward")
    root = loss if loss is not None else graph.output
    for t in graph.inputs.values():
        t.grad = None
    backward_from(root)
    out = {}
    for name, t in graph.inputs.items():
        if not t.requires_grad:
            continue
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        out[name] = Tensor(g)
    return out


@dataclass
class GradCheckReport:
    """Per-input max relative error between backward and central differences."""

    per_input: dict = field(default_factory=dict)
    max_rel_error: float = 0.0
    tolerance: float = 1e-4
    passed: bool = True

    def __str__(self):
        lines = [f"grad_check: max_rel_error={self.max_rel_error:.3e} "
                 f"tol={self.tolerance:.1e} passed={self.passed}"]
        for name, err in sorted(self.per_input.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def grad_check(graph: Graph, inputs: dict[str, Tensor], tolerance: float = 1e-4,
               step: float = 1e-5) -> GradCheckReport:
    """Compare backward against central finite differences, input by input.

    Requires float64 inputs. The relative error for an input is
    max|g_ad - g_fd| / max(max|g_fd|, max|g_ad|, 1e-6); the floor keeps
    identically-zero gradients from being divided by difference noise.
    """
    for name, t in inputs.items():
        if t.requires_grad and t.dtype != np.float64:
            raise ContractError(f"grad_check requires float64 inputs ({name} is {t.dtype.name})")
    eval(graph, inputs)
    analytic = backward(graph)

    report = GradCheckReport(tolerance=tolerance)
    for name, t in inputs.items():
        if not t.requires_grad:
            continue
        fd = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        fd_flat = fd.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = float(graph.fn(inputs).data)
                flat[i] = orig - step
                lo = float(graph.fn(inputs).data)
                flat[i] = orig
                fd_flat[i] = (hi - lo) / (2.0 * step)
        ga = analytic[name].data
        denom = max(float(np.max(np.abs(fd))), float(np.max(np.abs(ga))), 1e-6)
        err = float(np.max(np.abs(ga - fd))) / denom
        report.per_input[name] = err
    report.max_rel_error = max(report.per_input.values(), default=0.0)
    report.passed = report.max_rel_error < tolerance
    return report
