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
                _, recon_loss = decode_reconstruct(v, targets, self.decoder, x)
                loss = loss + recon_loss * self.recon_weight
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
        self.mode = mode
        self.pooling = pooling

    def forward(self, x, training: bool, rng,
                targets: np.ndarray | None = None) -> ForwardOutput:
        x = x if isinstance(x, Tensor) else Tensor(x)
        h = self.bn(x, training)
        h = self.lstm1(h)
        h = self.lstm2(h)
        pooled = self.att(h) if self.att is not None else mean_pool(h)
        logits = self.head(pooled)

        loss = None
        if self.mode == "single":
            probs = ad.softmax(logits, axis=-1)
            if targets is not None:
                logp = ad.log(ad.clamp_min(probs, LOG_CLAMP))
                loss = -ad.tmean(ad.tsum(Tensor(targets) * logp, axis=1))
        else:
            probs = ad.sigmoid(logits)
            if targets is not None:
                t = Tensor(targets)
                logp = ad.log(ad.clamp_min(probs, LOG_CLAMP))
                logq = ad.log(ad.clamp_min(1.0 - probs, LOG_CLAMP))
                loss = -ad.tmean(ad.tsum(t * logp + (1.0 - t) * logq, axis=1))
        return ForwardOutput(scores=probs, loss=loss)


def build_model(cfg, n_dims: int, n_classes: int, rng):
    """Construct the architecture named by cfg.model."""
    if cfg.model == "caps":
        return CapsModel(rng, n_dims, cfg.hidden_size, cfg.T_fix, n_classes,
                         cfg.caps_dim, cfg.routing_iters, cfg.dropout,
                         cfg.use_decoder, cfg.recon_weight, cfg.lambda_)
    if cfg.model in ("lstm", "att"):
        return RecurrentBaseline(rng, n_dims, cfg.hidden_size, n_classes,
                                 cfg.mode, "att" if cfg.model == "att" else "mean")
    raise ShapeError(f"unknown model {cfg.model!r}")
