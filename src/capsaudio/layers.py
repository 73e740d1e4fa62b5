"""Non-capsule layers: dense, batch norm, bidirectional LSTM, dropout,
additive attention pooling."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .errors import (ConfigError, DegenerateBatch, InputTooShort, ShapeError,
                     check_finite)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def glorot(rng: np.random.Generator | None, shape, fan_in: int,
           fan_out: int) -> np.ndarray:
    """Uniform Glorot initialisation.

    rng=None draws nothing and returns a placeholder for a checkpoint load
    to replace: a read-only zero view of the shape (all strides 0), which
    holds no memory and cannot be written by mistake.
    """
    if rng is None:
        return np.broadcast_to(np.float64(0.0), shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along axis, shifted by the maximum so that exp cannot overflow."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """d(loss)/dx from g = d(loss)/dp, with p = softmax(x, axis)."""
    return (g - (g * p).sum(axis=axis, keepdims=True)) * p


class Module:
    """Base of every layer and model; names their arrays in one way.

    Every ``Tensor`` attribute is a parameter and every ``np.ndarray``
    attribute is state (BN running stats). Each is named by its dotted
    attribute path (``lstm1.fwd.Wx``, ``bn.running_mean``) in assignment
    order, recursing into ``Module`` attributes; other values (None, ints,
    configs) are skipped. Checkpoints store state blocks under a ``state.``
    prefix. Checkpoint block order, the optimizer's moment keys and
    parameter digests all follow these names.
    """

    def _named(self, kind, prefix: str = ""):
        for key, value in vars(self).items():
            if isinstance(value, kind):
                yield prefix + key, value
            elif isinstance(value, Module):
                yield from value._named(kind, f"{prefix}{key}.")

    def params(self) -> dict[str, Tensor]:
        return dict(self._named(Tensor))

    def state(self) -> dict[str, np.ndarray]:
        return dict(self._named(np.ndarray))

    def set(self, named: dict) -> None:
        """Replace attributes by dotted name, as named by params()/state()."""
        for name, value in named.items():
            *path, attr = name.split(".")
            owner = self
            for key in path:
                owner = getattr(owner, key)
            setattr(owner, attr, value)


def dense_backward(g: np.ndarray, x: np.ndarray, W: np.ndarray):
    """d(loss)/d(x, W, b) of x @ W + b for 2-D x, from g = d(loss)/d(out)."""
    return g @ W.T, x.T @ g, g.sum(axis=0)


class Dense(Module):
    def __init__(self, rng, n_in: int, n_out: int):
        self.W = Tensor(glorot(rng, (n_in, n_out), n_in, n_out), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        """x @ W + b for x [batch, n_in], as one "dense" op."""
        W = self.W.data
        if x.data.ndim != 2 or x.data.shape[1] != W.shape[0]:
            raise ShapeError(f"dense {W.shape} got input {x.shape}")
        return ad.apply_op("dense", (x, self.W, self.b), x.data @ W + self.b.data,
                           lambda g: dense_backward(g, x.data, W))


class BatchNorm(Module):
    """Normalizes each feature dim over (batch, time) jointly; one
    "batch_norm" op over x, gamma and beta."""

    def __init__(self, n_dims: int):
        self.gamma = Tensor(np.ones(n_dims), requires_grad=True)
        self.beta = Tensor(np.zeros(n_dims), requires_grad=True)
        self.running_mean = np.zeros(n_dims)
        self.running_var = np.ones(n_dims)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.data.ndim != 3:
            raise ShapeError(f"batch norm expects [batch, frames, dims], got {x.shape}")
        if x.data.shape[2] != self.gamma.data.shape[0]:
            raise ShapeError(f"batch norm dims {self.gamma.shape} vs input {x.shape}")
        if training:
            if x.data.shape[0] * x.data.shape[1] < 2:
                raise DegenerateBatch("batch norm needs batch*frames >= 2 in training")
            mu = x.data.mean(axis=(0, 1))
            centered = x.data - mu
            var = (centered * centered).mean(axis=(0, 1))
            # An infinite variance would zero xhat, so the overflow would not show.
            check_finite("batch_norm", var)
            std = np.sqrt(var + BN_EPS)
            xhat = centered / std
            self.running_mean = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mu
            self.running_var = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
        else:
            std = np.sqrt(self.running_var + BN_EPS)
            xhat = (x.data - self.running_mean) * (1.0 / std)
        gamma = self.gamma.data

        def backward(g):
            dx = None
            if x.requires_grad:
                dx = g * gamma
                if training:  # the batch statistics depend on x too
                    dx = (dx - dx.mean(axis=(0, 1))
                          - xhat * (dx * xhat).mean(axis=(0, 1)))
                dx = dx / std
            return dx, (g * xhat).sum(axis=0).sum(axis=0), g.sum(axis=0).sum(axis=0)

        return ad.apply_op("batch_norm", (x, self.gamma, self.beta),
                           xhat * gamma + self.beta.data, backward)


class LSTMDirection(Module):
    def __init__(self, rng, n_in: int, hidden: int):
        self.Wx = Tensor(glorot(rng, (n_in, 4 * hidden), n_in, 4 * hidden),
                         requires_grad=True)
        self.Wh = Tensor(glorot(rng, (hidden, 4 * hidden), hidden, 4 * hidden),
                         requires_grad=True)
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0  # forget-gate bias
        self.b = Tensor(b, requires_grad=True)


class BiLSTM(Module):
    """Bidirectional LSTM; outputs per-timestep [B, T, 2*hidden]."""

    def __init__(self, rng, n_in: int, hidden: int):
        self.fwd = LSTMDirection(rng, n_in, hidden)
        self.bwd = LSTMDirection(rng, n_in, hidden)

    def __call__(self, x: Tensor) -> Tensor:
        """One tape op over x and both directions' parameters; the backward
        direction runs over the time-reversed, time-major [T, B, I] input.
        Unrecorded calls run kernels.lstm_hidden, which keeps no state."""
        if x.data.ndim != 3:
            raise ShapeError(f"bilstm expects [batch, frames, dims], got {x.shape}")
        if x.data.shape[1] == 0:
            raise InputTooShort("bilstm got a zero-length sequence")
        H = self.fwd.Wh.data.shape[0]
        dirs = (self.fwd, self.bwd)
        inputs = (x, *self.params().values())
        xf = np.ascontiguousarray(x.data.transpose(1, 0, 2))
        xs = (xf, np.ascontiguousarray(xf[::-1]))
        record = ad.recording(inputs)
        kernel = kernels.lstm_forward if record else kernels.lstm_hidden
        runs = [kernel(xd, d.Wx.data, d.Wh.data, d.b.data) for xd, d in zip(xs, dirs)]
        hf, hb = (run[0] for run in runs) if record else runs
        out = np.concatenate([hf, hb[::-1]], axis=-1).transpose(1, 0, 2)

        def backward(g):
            g = g.transpose(1, 0, 2)
            gs = (g[:, :, :H], g[::-1, :, H:])
            (dxf, *dwf), (dxb, *dwb) = [
                kernels.lstm_backward(np.ascontiguousarray(gd), xd, d.Wx.data, d.Wh.data,
                                      *run)
                for gd, xd, d, run in zip(gs, xs, dirs, runs)]
            return ((dxf + dxb[::-1]).transpose(1, 0, 2), *dwf, *dwb)

        return ad.apply_op("lstm", inputs, out, backward if record else None)


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors."""
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return ad.apply_op("dropout", (x,), x.data * mask, lambda g: (g * mask,))


class AttentionPool(Module):
    """Additive attention over time: softmax(v . tanh(W h_t)) weights; one
    "attention" op over h, W and v."""

    def __init__(self, rng, n_in: int, n_att: int):
        self.W = Tensor(glorot(rng, (n_in, n_att), n_in, n_att), requires_grad=True)
        self.v = Tensor(glorot(rng, (n_att, 1), n_att, 1), requires_grad=True)

    def __call__(self, h: Tensor) -> Tensor:
        if h.data.ndim != 3:
            raise ShapeError(f"attention expects [batch, frames, dims], got {h.shape}")
        hd, W, v = h.data, self.W.data, self.v.data
        z = hd @ W
        check_finite("attention", z)  # tanh saturates, so an overflow would not show
        th = np.tanh(z)
        scores = th @ v                                             # [B, T, 1]
        alpha = softmax(scores, axis=1)                             # over T

        def backward(g):
            g = np.broadcast_to(g[:, None], hd.shape)  # spread over T
            dalpha = (g * hd).sum(axis=2, keepdims=True)
            dscores = softmax_backward(dalpha, alpha, axis=1)
            dv = (np.swapaxes(th, -1, -2) @ dscores).sum(axis=0)
            dz = (dscores @ v.T) * (1.0 - th * th)
            dW = (np.swapaxes(hd, -1, -2) @ dz).sum(axis=0)
            return g * alpha + dz @ W.T, dW, dv

        return ad.apply_op("attention", (h, self.W, self.v), (hd * alpha).sum(axis=1),
                           backward)


def mean_pool(h: Tensor) -> Tensor:
    """Mean over time, [B, T, D] -> [B, D], as one "mean_pool" op."""
    T = h.data.shape[1]
    return ad.apply_op("mean_pool", (h,), h.data.mean(axis=1),
                       lambda g: (np.broadcast_to(g[:, None], h.data.shape) / T,))
