"""Reverse-mode automatic differentiation over numpy arrays.

The engine is a define-by-run tape: every op produces a `Tensor` that
remembers its parents and a vector-Jacobian closure. `backward` walks the
recorded graph in reverse topological order and returns the gradients of
the leaves it was asked for. Only float32/float64 arrays participate;
integer index arrays (token ids, routing selections) stay outside the
graph as plain numpy.

A step calls `eval(loss, inputs)`, which checks every node of the loss's
tape and returns `loss`, then `backward(loss, inputs)`, which returns
`{name: ndarray}`, the gradient for each requires-grad leaf in `inputs`.
`backward` consumes the tape: each node it passes drops its vjp and
parents, so what the node saved dies as the walk goes on, and a second
`backward` over the tape raises ContractError.

Fused ops: the model's hot composites (RMSNorm, RoPE and the attention
core from its score product to its value product in `attention`; the
router logits, the gates and the routed mixture after its input gather
in `routing`, a bank's shared term included; the masked cross entropy
in `training`) compute their forward in numpy and record a single node
through `node(data, parents, vjp, op)`, with a closed-form vjp. The vjp
closes over only what the backward reads: the parents' arrays, which
the tape keeps alive anyway, plus angle tables or arrays of the forward
(RMSNorm's per-row `inv`, the attention weights, the rotated router
queries, the sigmoid of the selected logits, the mixture's expert
inputs, the SwiGLU experts' two input products, from which their vjp
recomputes the sigmoid and the hidden activations, gathered outputs,
and the loss's softmax). The raw, scaled, masked or squared copies,
concats and product outputs an op-by-op form would leave on the tape do
not exist. The engine itself keeps only the ops the model calls: `add`,
`matmul`, `reshape`, `transpose`, `getitem`, `concat` and `take_rows`.

Numerics contract:
  * forward values are a pure function of the inputs, bit-identical across
    repeated calls (numpy's reduction order is fixed),
  * training runs in float32, gradient checking in float64,
  * `eval` surfaces any non-finite node as a NumericError instead of
    letting NaN/Inf propagate silently, naming a leaf of `inputs` by its
    key and any other node by its op.

Accumulation contract (what `backward` relies on):
  * a vjp returns, per parent, a dense array, None (no gradient), or an
    indexed `_Scatter` record: `getitem` and `take_rows` say "g belongs at
    parent[key]" instead of building a zero array the size of the parent,
  * a record's key never names an element twice: `take_rows` with a
    repeated index first sums that row's copies in index order, from zero
    (the sum `np.add.at` into zeros gives), one vectorised add per
    occurrence rank; `np.add.reduceat` would reorder the sum,
  * `add`, `matmul` and the fused ops return None for an operand with
    requires_grad False, so constants cost no gradient work,
  * only an indexed record is added in place, and only into an accumulator
    the walk allocated itself ("owned"); an array a vjp handed over may be
    shared (`add` gives the same g to both parents, `reshape` a view) and
    is copied before its first indexed write. Dense gradients are summed
    out of place. Indexed records need at most one full-size buffer,
  * sums keep the topological order of the walk, and zero plus g is
    exact, so gradients are bitwise those of dense out-of-place sums,
  * no two returned gradients share an array.
"""

from __future__ import annotations

import contextvars
import itertools
from typing import NamedTuple

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_NODE_IDS = itertools.count()
# One flag per thread (and asyncio task): a no_grad never stops another's tape.
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)

# Additive mask value for disallowed attention slots. Finite on purpose:
# exp(-1e30 - max) underflows to exactly 0.0 while the masked scores
# themselves stay finite, so the finiteness contract holds end to end.
MASK_VALUE = -1e30

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


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
    recording is enabled, and `backward` clears them again. `vjp(out_grad)`
    returns one gradient array (or None) per parent.
    """

    __slots__ = ("data", "requires_grad", "op", "parents", "vjp", "node_id")

    def __init__(self, data, requires_grad: bool = False, *, op: str = "leaf",
                 parents: tuple = (), vjp=None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64 if arr.dtype == np.int64 else np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self.op!r})"

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def node(data, parents, vjp, op) -> Tensor:
    """Create an op result, recording the tape edge only when it matters.

    `vjp(g)` returns one entry per parent under the accumulation contract
    in the module docstring; it runs only if some parent requires grad.
    An op's float32/float64 ndarray is wrapped as it is; anything else
    takes the `Tensor` constructor's coercion.
    """
    if type(data) is not np.ndarray or data.dtype not in _FLOAT_DTYPES:
        data = Tensor(data).data
    req = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    t = object.__new__(Tensor)
    t.data, t.requires_grad, t.op, t.node_id = data, req, op, next(_NODE_IDS)
    t.parents, t.vjp = (parents, vjp) if req else ((), None)
    return t


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


def _binary(a, b, op: str, ufunc):
    """(a, b, ufunc(a.data, b.data)) with a python or numpy operand made a Tensor.

    The dtypes must match. Shapes are not checked first: numpy's own
    broadcast failure becomes the ShapeError, so a valid call pays nothing.
    """
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = b if isinstance(b, Tensor) else _as_tensor(b, a.dtype)
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}")
    try:
        return a, b, ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- arithmetic --------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b, out = _binary(a, b, "add", np.add)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return node(out, (a, b), vjp, "add")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with equal (or absent) leading batch dims."""
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    if ad.dtype != bd.dtype:
        raise ShapeError(f"matmul: dtype mismatch {ad.dtype.name} vs {bd.dtype.name}")
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {sa} @ {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dims differ for {sa} @ {sb}")
    if sa[:-2] != sb[:-2] and len(sa) > 2 and len(sb) > 2:
        raise ShapeError(f"matmul: leading dims differ for {sa} @ {sb}")
    out = ad @ bd

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb) if b.requires_grad else None
        return ga, gb

    return node(out, (a, b), vjp, "matmul")


# -- shape ops ---------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    orig = a.shape
    if shape == orig:
        return a
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {orig} to {shape}") from None

    def vjp(g):
        return (g.reshape(orig),)

    return node(out, (a,), vjp, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    try:
        out = a.data.transpose(axes)
    except ValueError:  # numpy's AxisError is a ValueError
        raise ShapeError(f"transpose: axes {axes} are no permutation of {a.shape}") from None
    inv = [0] * len(axes)
    for i, ax in enumerate(axes):
        inv[ax] = i

    def vjp(g):
        return (g.transpose(inv),)

    return node(out, (a,), vjp, "transpose")


class _Scatter(NamedTuple):
    """An indexed gradient: `g` at `key` of a zero array of `shape`.

    `key` never names an element twice, so `acc[key] += g` is its sum.
    """

    key: object
    g: np.ndarray
    shape: tuple
    dtype: np.dtype


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing (ints, slices, None, ...); gradient scatters back into the parent."""
    parts = key if isinstance(key, tuple) else (key,)
    if any(isinstance(k, (np.ndarray, list)) for k in parts):
        raise ContractError("getitem: an index array may repeat an element; use take_rows")
    out = a.data[key]
    shape, dt = a.shape, a.dtype

    def vjp(g):
        return (_Scatter(key, g, shape, dt),)

    return node(out, (a,), vjp, "getitem")


def concat(tensors, axis: int) -> Tensor:
    dt = tensors[0].dtype
    for t in tensors:
        if t.dtype != dt:
            raise ShapeError("concat: dtype mismatch")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:  # numpy's AxisError is a ValueError
        shapes = ", ".join(str(t.shape) for t in tensors)
        raise ShapeError(f"concat: shapes {shapes} do not join on axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]

    def vjp(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return node(out, tuple(tensors), vjp, "concat")


# -- gather / scatter -----------------------------------------------------------

def group_ids(flat: np.ndarray):
    """(order, ids, counts): the stable argsort of the non-negative ids
    `flat`, the ids present, ascending, and how often each occurs.

    Ids below 2**16 sort as uint16, which numpy radix-sorts; a stable sort
    has one result, so the order is the same.
    """
    counts = np.bincount(flat)
    ids = np.flatnonzero(counts)
    order = np.argsort(flat.astype(np.uint16) if counts.size <= 1 << 16 else flat,
                       kind="stable")
    return order, ids, counts[ids]


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along axis 0 by integer index."""
    idx = np.asarray(idx)
    out = a.data[idx]
    shape, dt = a.shape, a.dtype

    def vjp(g):
        flat = idx.reshape(-1)
        if np.bincount(flat).max(initial=0) <= 1:
            return (_Scatter(idx, g, shape, dt),)
        # Sum each repeated row's copies in index order, from zero, as
        # np.add.at into a zero array would, so the record's key is unique:
        # rows sorted by copy count, then one slice add per occurrence rank
        # (every row's 1st copy, then the 2nd of the rows that have one, ...).
        order, rows, counts = group_ids(flat)
        starts = np.cumsum(counts) - counts     # each row's first copy in `order`
        most = np.argsort(-counts, kind="stable")
        rows, counts, starts = rows[most], counts[most], starts[most]
        g = g.reshape((flat.size,) + shape[1:])
        part = np.zeros((rows.size,) + shape[1:], dtype=dt)
        for rank in range(counts[0]):
            have = np.count_nonzero(counts > rank)
            part[:have] += g[order[starts[:have] + rank]]
        return (_Scatter(rows, part, shape, dt),)

    return node(out, (a,), vjp, "take_rows")


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


def _accumulate(grads: dict, owned: set, pid: int, pg) -> None:
    """Add one vjp output into parent `pid`'s gradient (see the contract above)."""
    acc = grads.get(pid)
    if not isinstance(pg, _Scatter):
        if acc is None:
            grads[pid] = pg
        else:
            # numpy sums two 0-d arrays into a scalar; asarray keeps the
            # result writable for an indexed record that may follow.
            grads[pid] = np.asarray(acc + pg)
            owned.add(pid)
        return
    if acc is None:
        acc = np.zeros(pg.shape, dtype=pg.dtype)
    elif pid not in owned:
        acc = np.array(acc)  # a copy, and an array even if acc is a numpy scalar
    acc[pg.key] += pg.g
    grads[pid] = acc
    owned.add(pid)


# -- eval / backward ---------------------------------------------------------------

def eval(loss: Tensor, inputs: dict[str, Tensor] | None = None) -> Tensor:
    """Return `loss`; raise NumericError if any node of its tape is non-finite.

    A non-finite leaf found among `inputs` is named by its key.
    """
    names = {t.node_id: name for name, t in (inputs or {}).items()}
    for node in _topo(loss):
        if not np.isfinite(node.data).all():
            if node.node_id in names:
                raise NumericError(f"non-finite values in input '{names[node.node_id]}'")
            raise NumericError(f"non-finite values produced by op '{node.op}'")
    return loss


def _spent(g):
    raise ContractError("backward: this tape was consumed by an earlier backward; "
                        "record the forward again")


def backward(loss: Tensor, inputs: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """d(loss)/d(input) for every requires-grad input, as plain arrays.

    Inputs the loss does not depend on get explicit zero gradients. The walk
    consumes the tape: each node it passes drops its vjp and its parents,
    so what the node saved dies once its vjp has run. Another walk that
    reaches a consumed node with a gradient raises ContractError.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads = {loss.node_id: np.ones_like(loss.data)}
    owned = {loss.node_id}  # accumulators this walk allocated; only these are written in place
    leaves = {}
    order = _topo(loss)
    while order:
        node = order.pop()
        g = grads.pop(node.node_id, None)
        parents, vjp = node.parents, node.vjp
        if vjp is None:
            if g is not None:
                leaves[node.node_id] = g
            continue
        node.parents, node.vjp = (), _spent
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is not None and parent.requires_grad:
                _accumulate(grads, owned, parent.node_id, pg)

    def grad_of(t):
        g = leaves.get(t.node_id)
        if g is None:
            return np.zeros_like(t.data)
        if t.node_id in owned:
            owned.discard(t.node_id)  # handed out once: an input named twice gets a copy
            return g
        return g.copy()  # a vjp's array may be shared

    return {name: grad_of(t) for name, t in inputs.items() if t.requires_grad}
