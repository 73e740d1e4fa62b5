"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Graph is a tape: ops append nodes in execution order, and backward walks
the tape in reverse, visiting each node exactly once. Each layer of the
models records one node, an op with a numpy forward and an analytic
backward (BN, each BiLSTM, dropout, squash, routing, length, the losses,
the decoder); ``add`` sums two equal-shape tensors. Ops record only while
a Graph is active and some input requires a gradient; otherwise they are
plain numpy computations, which keeps inference and finite-difference
evaluation cheap.

Every op checks its output for NaN/Inf and raises NumericsFault on the
first non-finite value; an op that saturates inside (tanh, sigmoid, relu,
a division by an infinite variance) also checks the values it saturates.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, check_finite

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
    check_finite(name, out_data)
    graph = _active_graph()
    track = graph is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        graph.nodes.append(Node(name, inputs, out, backward_fn))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for tensors of one shape; the backward hands g to both."""
    if a.shape != b.shape:
        raise ShapeError(f"add operands {a.shape} vs {b.shape}")
    return apply_op("add", (a, b), a.data + b.data, lambda g: (g, g))
