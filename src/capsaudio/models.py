"""The three trainable architectures: capsule network and the two
recurrent baselines (mean-pool LSTM and attention-pool LSTM). Each is built
from (rng, cfg, n_dims, n_classes), shares one front end (Encoder: BN ->
BiLSTM x2) and reads its hyperparameters from the RunConfig it holds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .capsnet import (DECODER_HIDDEN, CapsuleLayer, Decoder, decode_reconstruct,
                      length_layer, margin_loss, squash)
from .errors import ShapeError
from .layers import (AttentionPool, BatchNorm, BiLSTM, Dense, Module, dropout, mean_pool,
                     softmax, softmax_backward)

LOG_CLAMP = 1e-12


@dataclass
class ForwardOutput:
    scores: Tensor               # class lengths (caps) or probabilities (baselines)
    loss: Tensor | None = None
    caps: Tensor | None = None   # [B, n_classes, caps_dim] activity vectors


class Encoder(Module):
    """BN -> BiLSTM x2 with cfg.hidden_size units per direction: the front
    end of every architecture, whose subclasses add the head."""

    def __init__(self, rng, cfg, n_dims: int, n_classes: int):
        self.bn = BatchNorm(n_dims)
        self.lstm1 = BiLSTM(rng, n_dims, cfg.hidden_size)
        self.lstm2 = BiLSTM(rng, 2 * cfg.hidden_size, cfg.hidden_size)
        self.cfg = cfg
        self.n_classes = n_classes

    def encode(self, x: Tensor, training: bool) -> Tensor:
        """[B, T, n_dims] -> [B, T, 2 * hidden_size]."""
        return self.lstm2(self.lstm1(self.bn(x, training)))


class CapsModel(Encoder):
    """Encoder -> dropout -> (squash) -> capsule routing -> lengths.

    Each timestep's BiLSTM output vector is one primary capsule, so the
    capsule transform is indexed by position and inputs must be padded or
    truncated to cfg.T_fix frames.
    """

    def __init__(self, rng, cfg, n_dims: int, n_classes: int,
                 decoder_hidden: tuple[int, int] = DECODER_HIDDEN):
        super().__init__(rng, cfg, n_dims, n_classes)
        self.caps = CapsuleLayer(rng, cfg.T_fix, 2 * cfg.hidden_size, n_classes,
                                 cfg.caps_dim, cfg.routing_iters)
        self.decoder = (Decoder(rng, n_classes, cfg.caps_dim, cfg.T_fix * n_dims,
                                decoder_hidden)
                        if cfg.use_decoder and rng is not None else None)

    def forward(self, x, training: bool, rng,
                targets: np.ndarray | None = None) -> ForwardOutput:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.shape[1] != self.cfg.T_fix:
            raise ShapeError(f"expected {self.cfg.T_fix} frames, got {x.data.shape[1]}")
        h = dropout(self.encode(x, training), self.cfg.dropout, training, rng)
        u = squash(h)  # primary capsules, one per timestep
        v = self.caps(u)
        lengths = length_layer(v)

        loss = None
        if targets is not None:
            loss = margin_loss(lengths, targets, self.cfg.lambda_)
            if self.decoder is not None:
                loss = ad.add(loss, decode_reconstruct(v, targets, self.decoder, x,
                                                       self.cfg.recon_weight))
        return ForwardOutput(scores=lengths, loss=loss, caps=v)


class RecurrentBaseline(Encoder):
    """Encoder -> pooling (cfg.model 'lstm': mean, 'att': attention) -> dense head.

    cfg.mode 'single' trains with softmax cross-entropy, 'multi' with per-class
    binary cross-entropy; scores are the head probabilities either way.
    """

    def __init__(self, rng, cfg, n_dims: int, n_classes: int):
        super().__init__(rng, cfg, n_dims, n_classes)
        hidden = cfg.hidden_size
        att = AttentionPool(rng, 2 * hidden, hidden) if cfg.model == "att" else None
        self.head = Dense(rng, 2 * hidden, n_classes)
        self.att = att  # drawn before head, named after it (checkpoint order)

    def forward(self, x, training: bool, rng,
                targets: np.ndarray | None = None) -> ForwardOutput:
        x = x if isinstance(x, Tensor) else Tensor(x)
        h = self.encode(x, training)
        pooled = self.att(h) if self.att is not None else mean_pool(h)
        logits = self.head(pooled)

        xent = softmax_xent if self.cfg.mode == "single" else sigmoid_xent
        probs, loss = xent(logits, targets)
        return ForwardOutput(scores=Tensor(probs), loss=loss)


def softmax_xent(logits: Tensor, targets: np.ndarray | None):
    """Class probabilities (softmax over the last axis) and, given targets,
    their cross-entropy summed over classes and averaged over the batch, as
    one "softmax_xent" op. log clamps its argument at LOG_CLAMP, so a
    clamped probability gets no gradient."""
    probs = softmax(logits.data, axis=-1)
    if targets is None:
        return probs, None
    t = np.asarray(targets, dtype=np.float64)
    p = np.maximum(probs, LOG_CLAMP)
    B = probs.shape[0]

    def backward(g):
        g = (-g / B) * t / p * (probs > LOG_CLAMP).astype(np.float64)
        return (softmax_backward(g, probs, axis=-1),)

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

    rng=None builds the inference model as placeholders: nothing is drawn,
    every randomly initialised weight is a read-only zero view that holds no
    memory, for train.load_blocks to replace from a checkpoint, and the caps
    model gets no decoder, whose loss only training reads.
    """
    if cfg.model == "caps":
        return CapsModel(rng, cfg, n_dims, n_classes)
    return RecurrentBaseline(rng, cfg, n_dims, n_classes)
