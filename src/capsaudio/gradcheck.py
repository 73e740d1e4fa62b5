"""Central finite-difference gradient checks for every differentiable op.

Each registered check builds a random small instance and a scalar loss,
by default a signed, randomly weighted sum of the output so that upstream
gradients are O(1); those weights come from one seed, WEIGHT_SEED. An op
check draws its inputs; a module check draws its input and one array for
every entry of the module's params() and puts them in place through
Module.set, so it perturbs every parameter the module names.
The analytic gradient from the tape is compared element-wise against
(f(x+h) - f(x-h)) / 2h, h = FD_STEP, in float64. Relative error uses a 1e-2
scale floor so finite-difference roundoff on true-zero gradients does not register.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .capsnet import (CapsuleLayer, Decoder, decode_reconstruct, length_layer, margin_loss,
                      squash)
from .layers import AttentionPool, BatchNorm, BiLSTM, Dense, dropout, mean_pool
from .models import CapsModel, sigmoid_xent, softmax_xent

FD_STEP = 1e-5
REL_FLOOR = 1e-2
WEIGHT_SEED = 7


def _loss_value(build, arrays) -> float:
    return float(build([Tensor(a) for a in arrays]).data)


def gradcheck(build, arrays) -> float:
    """Max relative error between tape gradients and central differences."""
    arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Graph() as g:
        loss = build(tensors)
    g.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    worst = 0.0
    for k, a in enumerate(arrays):
        flat = a.ravel()
        an_flat = analytic[k].ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + FD_STEP
            fp = _loss_value(build, arrays)
            flat[i] = saved - FD_STEP
            fm = _loss_value(build, arrays)
            flat[i] = saved
            fd = (fp - fm) / (2.0 * FD_STEP)
            err = abs(an_flat[i] - fd) / max(abs(an_flat[i]), abs(fd), REL_FLOOR)
            worst = max(worst, err)
    return worst


def weighted_sum(y: Tensor) -> Tensor:
    """sum(y * w) as one "weighted_sum" op, with signed weights |w| in
    [0.5, 1.5] drawn from WEIGHT_SEED."""
    rng = np.random.default_rng(WEIGHT_SEED)
    w = rng.uniform(0.5, 1.5, size=y.data.shape) * rng.choice([-1.0, 1.0], y.data.shape)
    return ad.apply_op("weighted_sum", (y,), (y.data * w).sum(), lambda g: (g * w,))


def _normal(rng, shape):
    return rng.normal(size=shape)


_N34 = (_normal, (3, 4))
_N234 = (_normal, (2, 3, 4))


# --- the two check builders: make(rng) -> (arrays, build) -------------------

def _op(fn, *inputs):
    """Check fn over inputs drawn from (sampler, shape) pairs."""
    def make(rng):
        return ([sampler(rng, shape) for sampler, shape in inputs],
                lambda ts: weighted_sum(fn(*ts)))

    return make


def _module(factory, x_shape, loss=lambda net, x: weighted_sum(net(x)), scale=0.6):
    """Check a fresh factory() module in its input and every params() entry."""
    def make(rng):
        params = factory().params()
        names = list(params)
        arrays = [_normal(rng, x_shape)] + [rng.normal(scale=scale, size=params[n].shape)
                                            for n in names]

        def build(ts):
            net = factory()
            net.set(dict(zip(names, ts[1:])))
            return loss(net, ts[0])

        return arrays, build

    return make


def _seeded(cls, *args, **kwargs):
    """A module factory; its init draws are replaced before use."""
    return lambda: cls(np.random.default_rng(0), *args, **kwargs)


def _routing(iters):
    # Batch 2 and 3 classes, so the batched contractions of the fused op's
    # backward are checked across batch items and classes.
    return _module(_seeded(CapsuleLayer, 2, 3, 3, 2, iters), (2, 2, 3), scale=0.7)


def _decoder_mae(net, caps):
    # The decoder output is a sigmoid in (0, 1), so a target of 2 keeps
    # |recon - target| away from its kink.
    return decode_reconstruct(caps, np.eye(2), net, Tensor(np.full((2, 5, 1), 2.0)),
                              weight=0.7)[1]


# --- the bespoke builders: each draws something per trial -------------------

def _make_batch_norm(rng):
    training = bool(rng.random() < 0.5)
    return _module(lambda: BatchNorm(4), (2, 3, 4),
                   loss=lambda net, x: weighted_sum(net(x, training=training)))(rng)


def _one_hot(rng):
    return np.eye(4)[rng.integers(4, size=3)]


def _make_xent(xent, draw_targets):
    def make(rng):
        targets = draw_targets(rng)
        return [rng.normal(size=(3, 4))], lambda ts: xent(ts[0], targets)[1]

    return make


def _make_margin(rng):
    # Lengths sampled clear of the hinge kinks at M_MINUS and M_PLUS.
    lengths = rng.uniform(0.15, 0.85, size=(2, 4))
    targets = (rng.random((2, 4)) < 0.5).astype(np.float64)
    return [lengths], lambda ts: margin_loss(ts[0], targets, lam=0.5)


def _make_full_model(rng):
    targets = np.eye(2)[rng.integers(2, size=2)]
    model = _seeded(CapsModel, n_dims=3, hidden=2, t_fix=4, n_classes=2, caps_dim=2,
                    routing_iters=2, dropout_rate=0.0, use_decoder=True,
                    decoder_hidden=(3, 4))
    return _module(model, (2, 4, 3), scale=0.5, loss=lambda net, x: net.forward(
        x, training=True, rng=None, targets=targets).loss)(rng)


CHECKS = {
    "add": _op(ad.add, _N34, _N34),
    "batch_norm": _make_batch_norm,
    "bilstm": _module(_seeded(BiLSTM, 2, 2), (2, 3, 2)),
    "dropout": _op(lambda t: dropout(t, 0.3, True, np.random.default_rng(WEIGHT_SEED)),
                   _N234),
    "dense": _module(_seeded(Dense, 4, 3), (2, 4)),
    "attention": _module(_seeded(AttentionPool, 4, 3), (2, 3, 4)),
    "mean_pool": _op(mean_pool, _N234),
    "softmax_xent": _make_xent(softmax_xent, _one_hot),
    "sigmoid_xent": _make_xent(sigmoid_xent, lambda rng: 1.0 * (rng.random((3, 4)) < 0.5)),
    "squash": _op(squash, _N234),
    "routing_1": _routing(1),
    "routing_3": _routing(3),
    "routing_5": _routing(5),
    "length": _op(length_layer, _N234),
    "margin_loss": _make_margin,
    "decoder_mae": _module(_seeded(Decoder, 2, 3, out_dim=5, hidden=(4, 6)), (2, 2, 3),
                           loss=_decoder_mae),
}


def _worst(make, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        arrays, build = make(rng)
        worst = max(worst, gradcheck(build, arrays))
    return worst


def check_op(name: str, trials: int = 100, seed: int = 0) -> float:
    return _worst(CHECKS[name], trials, seed)


def run_suite(trials: int = 100, seed: int = 0) -> dict[str, float]:
    """Max relative error per op; iteration order is the registry order."""
    return {name: check_op(name, trials, seed) for name in CHECKS}


def full_model_check(trials: int = 3, seed: int = 0) -> float:
    """End-to-end gradient check of BN -> 2x BiLSTM -> capsules -> margin+MAE
    on a tiny instance (dropout off); the decoder's target is the input."""
    return _worst(_make_full_model, trials, seed)
