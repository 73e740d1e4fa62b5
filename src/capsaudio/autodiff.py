"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Graph is a tape: ops append nodes in execution order, and backward walks
the tape in reverse, visiting each node exactly once. Each layer of the
models records one node, an op with a numpy forward and an analytic
backward (BN, each BiLSTM, dropout, squash, routing, length, the losses,
the decoder); ``add`` sums two equal-shape tensors. Ops record only while
a Graph is active and some input requires a gradient; otherwise they are
plain numpy computations, which keeps inference and finite-difference
evaluation cheap.

Gradients are read-only values. A tensor's .grad may be a view (a
transpose, a broadcast) and may be the very array another tensor holds;
backward, the optimizer and the gradient check only read gradients.

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

        A tensor's first gradient is kept as its op's backward_fn returned
        it; later ones are summed into a new array. A gradient may be a
        view, and two tensors may share one: nothing writes into a gradient.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if node.out.grad is None:
                continue  # not on any path to the loss
            for tensor, g in zip(node.inputs, node.backward_fn(node.out.grad)):
                if g is not None and tensor.requires_grad:
                    tensor.grad = g if tensor.grad is None else tensor.grad + g


def recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op over inputs is recorded: a Graph is active and some
    input requires a gradient."""
    return bool(_GRAPH_STACK) and any(t.requires_grad for t in inputs)


def apply_op(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
             backward_fn) -> Tensor:
    """Register a forward result on the active graph (if any)."""
    check_finite(name, out_data)
    track = recording(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        _GRAPH_STACK[-1].nodes.append(Node(name, inputs, out, backward_fn))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for tensors of one shape; the backward hands g to both."""
    if a.shape != b.shape:
        raise ShapeError(f"add operands {a.shape} vs {b.shape}")
    return apply_op("add", (a, b), a.data + b.data, lambda g: (g, g))
