"""The three trainable architectures: capsule network and the two
recurrent baselines (mean-pool LSTM and attention-pool LSTM)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .capsnet import (CapsuleLayer, Decoder, decode_reconstruct, length_layer, margin_loss,
                      squash)
from .errors import ShapeError
from .layers import AttentionPool, BatchNorm, BiLSTM, Dense, Module, dropout, mean_pool

LOG_CLAMP = 1e-12


@dataclass
class ForwardOutput:
    scores: Tensor               # class lengths (caps) or probabilities (baselines)
    loss: Tensor | None = None
    caps: Tensor | None = None   # [B, n_classes, caps_dim] activity vectors


class CapsModel(Module):
    """BN -> BiLSTM x2 -> dropout -> (squash) -> capsule routing -> lengths.

    Each timestep's BiLSTM output vector is one primary capsule, so the
    capsule transform is indexed by position and inputs must be padded or
    truncated to t_fix frames.
    """

    def __init__(self, rng, n_dims: int, hidden: int, t_fix: int, n_classes: int,
                 caps_dim: int, routing_iters: int, dropout_rate: float,
                 use_decoder: bool, recon_weight: float = 0.1, lam: float = 0.5,
                 decoder_hidden: tuple[int, int] = (512, 1024)):
        self.bn = BatchNorm(n_dims)
        self.lstm1 = BiLSTM(rng, n_dims, hidden)
        self.lstm2 = BiLSTM(rng, 2 * hidden, hidden)
        self.caps = CapsuleLayer(rng, t_fix, 2 * hidden, n_classes, caps_dim,
                                 routing_iters)
        self.decoder = (Decoder(rng, n_classes, caps_dim, t_fix * n_dims,
                                decoder_hidden) if use_decoder else None)
        self.n_classes = n_classes
        self.t_fix = t_fix
        self.dropout_rate = dropout_rate
        self.recon_weight = recon_weight
        self.lam = lam

    def forward(self, x, training: bool, rng,
                targets: np.ndarray | None = None) -> ForwardOutput:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.shape[1] != self.t_fix:
            raise ShapeError(f"expected {self.t_fix} frames, got {x.data.shape[1]}")
        h = self.bn(x, training)
        h = self.lstm1(h)
        h = self.lstm2(h)
        h = dropout(h, self.dropout_rate, training, rng)
        u = squash(h)  # primary capsules, one per timestep
        v = self.caps(u)
        lengths = length_layer(v)

        loss = None
        if targets is not None:
            loss = margin_loss(lengths, targets, self.lam)
            if self.decoder is not None:
                _, recon_loss = decode_reconstruct(v, targets, self.decoder, x,
                                                   self.recon_weight)
                loss = ad.add(loss, recon_loss)
        return ForwardOutput(scores=lengths, loss=loss, caps=v)


class RecurrentBaseline(Module):
    """BN -> BiLSTM x2 -> pooling -> dense head.

    mode 'single' trains with softmax cross-entropy, 'multi' with per-class
    binary cross-entropy; scores are the head probabilities either way.
    """

    def __init__(self, rng, n_dims: int, hidden: int, n_classes: int,
                 mode: str, pooling: str):
        self.bn = BatchNorm(n_dims)
        self.lstm1 = BiLSTM(rng, n_dims, hidden)
        self.lstm2 = BiLSTM(rng, 2 * hidden, hidden)
        att = AttentionPool(rng, 2 * hidden, hidden) if pooling == "att" else None
        self.head = Dense(rng, 2 * hidden, n_classes)
        self.att = att  # drawn before head, named after it (checkpoint order)
        self.n_classes = n_classes
        self.mode = mode

    def forward(self, x, training: bool, rng,
                targets: np.ndarray | None = None) -> ForwardOutput:
        x = x if isinstance(x, Tensor) else Tensor(x)
        h = self.bn(x, training)
        h = self.lstm1(h)
        h = self.lstm2(h)
        pooled = self.att(h) if self.att is not None else mean_pool(h)
        logits = self.head(pooled)

        xent = softmax_xent if self.mode == "single" else sigmoid_xent
        probs, loss = xent(logits, targets)
        return ForwardOutput(scores=Tensor(probs), loss=loss)


def softmax_xent(logits: Tensor, targets: np.ndarray | None):
    """Class probabilities (softmax over the last axis) and, given targets,
    their cross-entropy summed over classes and averaged over the batch, as
    one "softmax_xent" op. log clamps its argument at LOG_CLAMP, so a
    clamped probability gets no gradient."""
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    if targets is None:
        return probs, None
    t = np.asarray(targets, dtype=np.float64)
    p = np.maximum(probs, LOG_CLAMP)
    B = probs.shape[0]

    def backward(g):
        g = (-g / B) * t / p * (probs > LOG_CLAMP).astype(np.float64)
        return ((g - (g * probs).sum(axis=-1, keepdims=True)) * probs,)

    loss = -(t * np.log(p)).sum(axis=1).mean()
    return probs, ad.apply_op("softmax_xent", (logits,), loss, backward)


def sigmoid_xent(logits: Tensor, targets: np.ndarray | None):
    """Per-class probabilities (sigmoid) and, given multi-hot targets, their
    binary cross-entropy summed over classes and averaged over the batch, as
    one "sigmoid_xent" op; log is clamped as in softmax_xent."""
    probs = 1.0 / (1.0 + np.exp(-logits.data))
    if targets is None:
        return probs, None
    t = np.asarray(targets, dtype=np.float64)
    q = 1.0 - probs
    p_c, q_c = np.maximum(probs, LOG_CLAMP), np.maximum(q, LOG_CLAMP)
    B = probs.shape[0]

    def backward(g):
        g = -g / B
        dp = -((g * (1.0 - t)) / q_c * (q > LOG_CLAMP).astype(np.float64))
        dp += (g * t) / p_c * (probs > LOG_CLAMP).astype(np.float64)
        return (dp * probs * (1.0 - probs),)

    loss = -(t * np.log(p_c) + (1.0 - t) * np.log(q_c)).sum(axis=1).mean()
    return probs, ad.apply_op("sigmoid_xent", (logits,), loss, backward)


def build_model(cfg, n_dims: int, n_classes: int, rng):
    """Construct the architecture named by cfg.model.

    rng=None builds placeholders: nothing is drawn, and every randomly
    initialised weight is a read-only zero view that holds no memory, for
    train.load_blocks to replace from a checkpoint.
    """
    if cfg.model == "caps":
        return CapsModel(rng, n_dims, cfg.hidden_size, cfg.T_fix, n_classes,
                         cfg.caps_dim, cfg.routing_iters, cfg.dropout,
                         cfg.use_decoder, cfg.recon_weight, cfg.lambda_)
    if cfg.model in ("lstm", "att"):
        return RecurrentBaseline(rng, n_dims, cfg.hidden_size, n_classes,
                                 cfg.mode, "att" if cfg.model == "att" else "mean")
    raise ShapeError(f"unknown model {cfg.model!r}")
