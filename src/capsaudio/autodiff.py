"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Graph is a tape: ops append nodes in execution order, and backward walks
the tape in reverse, visiting each node exactly once. Ops record only while
a Graph is active and some input requires a gradient; otherwise they are
plain numpy computations, which keeps inference and finite-difference
evaluation cheap.

Every forward op checks its output for NaN/Inf and raises NumericsFault on
the first non-finite value.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsFault, ShapeError

_GRAPH_STACK: list["Graph"] = []


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; constants are wrapped as non-differentiable tensors.
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Node:
    __slots__ = ("name", "inputs", "out", "backward_fn")

    def __init__(self, name, inputs, out, backward_fn):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn


class Graph:
    """Recording tape. Use as a context manager around a forward pass."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self):
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _GRAPH_STACK.pop()
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(x) into .grad of every recorded tensor.

        The first contribution to a tensor is stored as a C-contiguous copy
        that owns its data, since a backward_fn may return a read-only
        broadcast view or hand one array to two inputs; later
        contributions are added into that copy.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if node.out.grad is None:
                continue  # not on any path to the loss
            grads = node.backward_fn(node.out.grad)
            for tensor, g in zip(node.inputs, grads):
                if g is None or not tensor.requires_grad:
                    continue
                if tensor.grad is None:
                    tensor.grad = np.array(g, dtype=np.float64, order="C")
                else:
                    tensor.grad += g


def _active_graph() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def apply_op(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
             backward_fn) -> Tensor:
    """Register a forward result on the active graph (if any)."""
    if not np.all(np.isfinite(out_data)):
        raise NumericsFault(f"op '{name}' produced non-finite values")
    graph = _active_graph()
    track = graph is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        graph.nodes.append(Node(name, inputs, out, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward direction."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return apply_op("add", (a, b), out,
                    lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return apply_op("sub", (a, b), out,
                    lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return apply_op("mul", (a, b), out,
                    lambda g: (_unbroadcast(g * b.data, a.shape),
                               _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data  # non-finite results trip NumericsFault below
    return apply_op("div", (a, b), out,
                    lambda g: (_unbroadcast(g / b.data, a.shape),
                               _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def neg(a: Tensor) -> Tensor:
    return apply_op("neg", (a,), -a.data, lambda g: (-g,))


def square(a: Tensor) -> Tensor:
    return apply_op("square", (a,), a.data * a.data, lambda g: (2.0 * a.data * g,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return apply_op("sqrt", (a,), out, lambda g: (g / (2.0 * out),))


def absolute(a: Tensor) -> Tensor:
    return apply_op("abs", (a,), np.abs(a.data), lambda g: (g * np.sign(a.data),))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)  # non-finite results trip NumericsFault below
    return apply_op("log", (a,), out, lambda g: (g / a.data,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    out = np.maximum(a.data, floor)
    return apply_op("clamp_min", (a,), out,
                    lambda g: (g * (a.data > floor).astype(np.float64),))


# ---------------------------------------------------------------------------
# nonlinearities

def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return apply_op("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return apply_op("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return apply_op("relu", (a,), out,
                    lambda g: (g * (a.data > 0.0).astype(np.float64),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return apply_op("softmax", (a,), out, backward)


# ---------------------------------------------------------------------------
# linear algebra and reductions

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    try:
        out = a.data @ b.data
    except ValueError as e:
        raise ShapeError(f"matmul: {e}") from None

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return (ga, gb)

    return apply_op("matmul", (a, b), out, backward)


def _spread(g: np.ndarray, shape: tuple, axis) -> np.ndarray:
    """Broadcast a reduction's gradient back over the reduced axes, as a
    read-only view; Graph.backward only adds it into .grad."""
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)
    return apply_op("sum", (a,), out, lambda g: (_spread(g, a.shape, axis),))


def tmean(a: Tensor, axis=None) -> Tensor:
    out = a.data.mean(axis=axis)
    count = a.data.size if axis is None else (
        np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))
    return apply_op("mean", (a,), out, lambda g: (_spread(g, a.shape, axis) / count,))


# ---------------------------------------------------------------------------
# structural ops

def reshape(a: Tensor, shape) -> Tensor:
    return apply_op("reshape", (a,), a.data.reshape(shape),
                    lambda g: (g.reshape(a.shape),))
