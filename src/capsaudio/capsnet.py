"""Capsule layer with dynamic routing-by-agreement, margin loss and the
masked decoder regularizer.

One primary capsule per input timestep; class capsules of dimension
caps_dim. Routing logits start at zero on every forward pass. The
prediction and every routing iteration are one tape op, "routing", whose
analytic backward walks the iterations in reverse. Routing calls the same
squash forward and backward that the primary "squash" op records. The
margin loss and the decoder with its weighted MAE are one op each too.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError, check_finite
from .layers import Dense, Module, dense_backward, glorot

# Margin-loss length targets for present and absent classes (Sabour et al. 2017).
M_PLUS = 0.9
M_MINUS = 0.1
NORM_GUARD = 1e-9  # floor on vector norms in backward passes


def _squash_forward(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|s| over the last axis, kept as size 1, and the squashed s."""
    n = np.sqrt((s * s).sum(axis=-1, keepdims=True))
    return n, s * (n / (n * n + 1.0))


def _squash_backward(g: np.ndarray, s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """d(loss)/ds from d(loss)/dv, with n = |s| from _squash_forward."""
    q = n * n + 1.0
    return g * (n / q) + s * ((g * s).sum(axis=-1, keepdims=True)
                              * (1.0 - n * n) / (q * q * np.maximum(n, NORM_GUARD)))


def squash(s: Tensor) -> Tensor:
    """v = (|s|^2 / (1 + |s|^2)) * s / |s| over the last axis; maps 0 to 0, |v| < 1."""
    n, v = _squash_forward(s.data)
    return ad.apply_op("squash", (s,), v, lambda g: (_squash_backward(g, s.data, n),))


def route(uhat: np.ndarray, iters: int) -> list[tuple[np.ndarray, ...]]:
    """Routing-by-agreement (Procedure 1 of Sabour, Frosst & Hinton 2017,
    arXiv 1710.09829) over predictions uhat [B, C, P, D]: each iteration's
    couplings c [B, C, P] (softmax over C), s [B, C, D], |s| and v = squash(s)."""
    B, C, P, _ = uhat.shape
    b = np.zeros((B, C, P))
    saved = []
    with np.errstate(invalid="ignore", over="ignore"):
        # non-finite values trip NumericsFault on v in apply_op
        for it in range(iters):
            e = np.exp(b - b.max(axis=1, keepdims=True))
            c = e / e.sum(axis=1, keepdims=True)                   # softmax over C
            s = (c[:, :, None, :] @ uhat)[:, :, 0]                  # [B, C, D]
            n, v = _squash_forward(s)
            if it < iters - 1:
                b = b + (uhat @ v[..., None])[..., 0]               # agreement
            saved.append((c, s, n, v))
    return saved


class CapsuleLayer(Module):
    """Transforms primary capsules and routes them to class capsules."""

    def __init__(self, rng, n_primary: int, in_dim: int, n_classes: int,
                 caps_dim: int, routing_iters: int):
        if caps_dim < 2:
            raise ShapeError(f"caps_dim must be >= 2, got {caps_dim}")
        if routing_iters < 1:
            raise ShapeError(f"routing_iters must be >= 1, got {routing_iters}")
        self.W = Tensor(glorot(rng, (n_primary, n_classes, caps_dim, in_dim),
                               in_dim, caps_dim), requires_grad=True)
        self.n_primary = n_primary
        self.in_dim = in_dim
        self.n_classes = n_classes
        self.caps_dim = caps_dim
        self.routing_iters = routing_iters

    def predictions(self, u: np.ndarray) -> np.ndarray:
        """u_hat[b, j, i] = W[i, j] @ u[b, i] for primaries u [B, P, in_dim],
        batched over i and laid out [B, C, P, D] so that each routing sum is
        a batched matmul."""
        P, C, D, I = self.W.data.shape
        ut = u.transpose(1, 0, 2)                                   # [P, B, I]
        uhat = ut @ self.W.data.reshape(P, C * D, I).transpose(0, 2, 1)
        return np.ascontiguousarray(uhat.reshape(P, -1, C, D).transpose(1, 2, 0, 3))

    def __call__(self, u: Tensor) -> Tensor:
        """Route primaries [B, P, in_dim] to class capsules [B, C, caps_dim]."""
        if u.data.ndim != 3 or u.data.shape[1:] != (self.n_primary, self.in_dim):
            raise ShapeError(f"expected [batch, {self.n_primary}, {self.in_dim}], "
                             f"got {u.shape}")
        B, P, I = u.data.shape
        C, D, iters = self.n_classes, self.caps_dim, self.routing_iters
        ut = u.data.transpose(1, 0, 2)                              # [P, B, I]
        Wm = self.W.data.reshape(P, C * D, I)
        uhat = self.predictions(u.data)
        saved = route(uhat, iters)  # (c, s, |s|, v) of every iteration
        v = saved[-1][3]

        def backward(g):
            # d u_hat = sum_t c_t (x) gs_t + sum_{t < last} gb_{t+1} (x) v_t,
            # formed as one matmul over the stacked factors.
            left, right = [], []
            gb = None  # gradient of the logits the undone iteration produced
            for t in reversed(range(iters)):
                c, s, n, v = saved[t]
                if gb is None:
                    gv = g
                else:
                    gv = (gb[:, :, None, :] @ uhat)[:, :, 0]
                    left.append(gb)
                    right.append(v)
                gs = _squash_backward(gv, s, n)
                left.append(c)
                right.append(gs)
                if t > 0:  # the first iteration's logits are constant zeros
                    gc = (uhat @ gs[..., None])[..., 0]
                    gl = (gc - (gc * c).sum(axis=1, keepdims=True)) * c
                    gb = gl if gb is None else gb + gl
            duhat = np.stack(left, axis=-1) @ np.stack(right, axis=-2)  # [B, C, P, D]
            duh = duhat.transpose(2, 0, 1, 3).reshape(P, B, C * D)
            du = np.empty((B, P, I))  # du and dW owned, so Graph.backward keeps them
            np.matmul(duh, Wm, out=du.transpose(1, 0, 2))
            dW = np.empty((P, C, D, I))
            np.matmul(duh.transpose(0, 2, 1), ut, out=dW.reshape(P, C * D, I))
            return du, dW

        return ad.apply_op("routing", (u, self.W), v, backward)


def length_layer(caps: Tensor) -> Tensor:
    """Per-class activity-vector length, [B, C, D] -> [B, C]; backward guarded at 0."""
    n = np.sqrt((caps.data * caps.data).sum(axis=-1))
    return ad.apply_op("l2norm", (caps,), n, lambda g: (
        g[..., None] * caps.data / np.maximum(n, NORM_GUARD)[..., None],))


def margin_loss(lengths: Tensor, targets: np.ndarray, lam: float = 0.5) -> Tensor:
    """Hinge-squared class loss, summed over classes and averaged over batch,
    as one "margin_loss" op; lam weights absent classes (0.5 single-label,
    1.0 multi-label)."""
    if lengths.data.shape != targets.shape:
        raise ShapeError(f"lengths {lengths.shape} vs targets {targets.shape}")
    t = np.asarray(targets, dtype=np.float64)
    over = M_PLUS - lengths.data      # present classes: shortfall below m+
    under = lengths.data - M_MINUS    # absent classes: excess above m-
    r_over, r_under = np.maximum(over, 0.0), np.maximum(under, 0.0)
    terms = t * (r_over * r_over) + (1.0 - t) * (r_under * r_under) * lam
    B = terms.shape[0]

    def backward(g):
        g = g / B  # the batch mean's gradient; it spreads over classes by broadcasting
        dl = (2.0 * r_under) * ((g * lam) * (1.0 - t)) * (under > 0.0).astype(np.float64)
        dl += -((2.0 * r_over) * (g * t) * (over > 0.0).astype(np.float64))
        return (dl,)

    return ad.apply_op("margin_loss", (lengths,), terms.sum(axis=1).mean(), backward)


class Decoder(Module):
    """The three dense layers that reconstruct the scaled feature matrix from
    masked class capsules; decode_reconstruct runs them."""

    def __init__(self, rng, n_classes: int, caps_dim: int, out_dim: int,
                 hidden: tuple[int, int] = (512, 1024)):
        self.fc1 = Dense(rng, n_classes * caps_dim, hidden[0])
        self.fc2 = Dense(rng, hidden[0], hidden[1])
        self.out = Dense(rng, hidden[1], out_dim)
        self.n_classes = n_classes
        self.caps_dim = caps_dim
        self.out_dim = out_dim


def decode_reconstruct(caps: Tensor, targets: np.ndarray, decoder: Decoder, x: Tensor,
                       weight: float = 1.0) -> tuple[np.ndarray, Tensor]:
    """Masked reconstruction [B, frames * dims] of the scaled input x
    [B, frames, dims], and weight times its mean absolute error.

    One "decoder" op over caps, the decoder's six parameters and x: relu,
    relu and sigmoid dense layers on the target-masked capsules.
    """
    B = caps.data.shape[0]
    C, D = decoder.n_classes, decoder.caps_dim
    if caps.data.shape != (B, C, D):
        raise ShapeError(f"decoder got capsules {caps.shape}")
    target = x.data.reshape(B, -1)
    if target.shape != (B, decoder.out_dim):
        raise ShapeError(f"decoder output {(B, decoder.out_dim)} vs target {target.shape}")
    mask = np.asarray(targets, dtype=np.float64).reshape(B, C, 1)
    dense = (decoder.fc1, decoder.fc2, decoder.out)
    h = (caps.data * mask).reshape(B, C * D)
    ins, zs = [], []  # each dense layer's input and pre-activation
    for k, layer in enumerate(dense):
        z = h @ layer.W.data + layer.b.data
        check_finite("decoder", z)  # relu and sigmoid saturate and would hide an overflow
        ins.append(h)
        zs.append(z)
        h = np.maximum(z, 0.0) if k < 2 else 1.0 / (1.0 + np.exp(-z))
    recon, diff = h, h - target

    def backward(g):
        g = (g * weight) / diff.size * np.sign(diff)  # weight, mean, |.|
        dx = -g.reshape(x.data.shape) if x.requires_grad else None
        g = g * recon * (1.0 - recon)
        grads = []
        for k in (2, 1, 0):
            g, dW, db = dense_backward(g, ins[k], dense[k].W.data)
            grads[:0] = [dW, db]
            if k:
                g = g * (zs[k - 1] > 0.0).astype(np.float64)
        return (g.reshape(B, C, D) * mask, *grads, dx)

    loss = np.abs(diff).mean() * weight
    return recon, ad.apply_op("decoder", (caps, *decoder.params().values(), x), loss,
                              backward)


def predict(lengths: np.ndarray, mode: str, threshold: float = 0.5) -> np.ndarray:
    """Multi-hot predictions [B, C]: argmax for single, thresholding for multi.

    Argmax ties resolve to the lowest class index.
    """
    if mode == "single":
        out = np.zeros_like(lengths)
        out[np.arange(lengths.shape[0]), lengths.argmax(axis=1)] = 1.0
        return out
    if mode == "multi":
        return (lengths > threshold).astype(np.float64)
    raise ShapeError(f"unknown predict mode {mode!r}")
