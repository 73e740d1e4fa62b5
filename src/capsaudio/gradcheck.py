"""Central finite-difference gradient checks for every differentiable op.

Each registered check builds a random small instance and a scalar loss (a
randomly weighted sum of the op output, so upstream gradients are O(1)).
The analytic gradient from the tape is compared element-wise against
(f(x+h) - f(x-h)) / 2h in float64. Relative error uses a 1e-2 scale floor
so finite-difference roundoff on true-zero gradients does not register.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .capsnet import CapsuleLayer, Decoder, MarginLossParams, length_layer, margin_loss, mae, squash
from .layers import AttentionPool, BatchNorm, BiLSTM

FD_STEP = 1e-5
REL_FLOOR = 1e-2


def _loss_value(build, arrays) -> float:
    return float(build([Tensor(a) for a in arrays]).data)


def gradcheck(build, arrays, h: float = FD_STEP) -> float:
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
            flat[i] = saved + h
            fp = _loss_value(build, arrays)
            flat[i] = saved - h
            fm = _loss_value(build, arrays)
            flat[i] = saved
            fd = (fp - fm) / (2.0 * h)
            err = abs(an_flat[i] - fd) / max(abs(an_flat[i]), abs(fd), REL_FLOOR)
            worst = max(worst, err)
    return worst


def _weighted_sum(y: Tensor, rng) -> Tensor:
    w = rng.uniform(0.5, 1.5, size=y.data.shape) * rng.choice([-1.0, 1.0], y.data.shape)
    return ad.tsum(y * Tensor(w))


# --- per-op check builders -------------------------------------------------

def _elementwise(fn, sampler):
    def make(rng):
        x = sampler(rng, (3, 4))
        w = rng.uniform(0.5, 1.5, size=(3, 4))

        def build(ts):
            return ad.tsum(fn(ts[0]) * Tensor(w))

        return [x], build

    return make


def _normal(rng, shape):
    return rng.normal(size=shape)


def _away_from_zero(rng, shape):
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < 0.1, 0.1 + np.abs(x), x)


def _positive(rng, shape):
    return rng.uniform(0.2, 2.0, size=shape)


def _make_matmul(rng):
    if rng.random() < 0.5:
        a, b = _normal(rng, (3, 4)), _normal(rng, (4, 2))
    else:
        a, b = _normal(rng, (2, 3, 4)), _normal(rng, (2, 4, 2))

    def build(ts):
        return _weighted_sum(ad.matmul(ts[0], ts[1]), np.random.default_rng(7))

    return [a, b], build


def _make_binary(op):
    def make(rng):
        a = _normal(rng, (3, 4))
        b = _away_from_zero(rng, (4,)) if op is ad.div else _normal(rng, (4,))

        def build(ts):
            return _weighted_sum(op(ts[0], ts[1]), np.random.default_rng(11))

        return [a, b], build

    return make


def _make_softmax(rng):
    x = _normal(rng, (3, 5))

    def build(ts):
        return _weighted_sum(ad.softmax(ts[0], axis=-1), np.random.default_rng(3))

    return [x], build


def _make_concat(rng):
    parts = [_normal(rng, (2, k)) for k in (2, 3, 1)]

    def build(ts):
        return _weighted_sum(ad.concat(list(ts), axis=1), np.random.default_rng(5))

    return parts, build


def _make_reduce(op):
    def make(rng):
        x = _normal(rng, (2, 3, 4))
        axis = [None, 0, 1, 2, (0, 1)][rng.integers(5)]

        def build(ts):
            return _weighted_sum(op(ts[0], axis=axis), np.random.default_rng(13))

        return [x], build

    return make


def _make_l2norm(rng):
    x = _normal(rng, (3, 4))

    def build(ts):
        return _weighted_sum(ad.l2norm(ts[0], axis=-1), np.random.default_rng(17))

    return [x], build


def _make_structural(fn):
    def make(rng):
        x = _normal(rng, (2, 3, 4))

        def build(ts):
            return _weighted_sum(fn(ts[0]), np.random.default_rng(19))

        return [x], build

    return make


def _make_batch_norm(rng):
    x = _normal(rng, (2, 3, 4))
    gamma = rng.uniform(0.5, 1.5, size=4)
    beta = _normal(rng, (4,))

    def build(ts):
        bn = BatchNorm(4)
        bn.gamma, bn.beta = ts[1], ts[2]
        return _weighted_sum(bn(ts[0], training=True), np.random.default_rng(23))

    return [x, gamma, beta], build


def _make_bilstm(rng):
    layer = BiLSTM(np.random.default_rng(0), 2, 2)
    x = _normal(rng, (2, 3, 2))
    names = list(layer.params())
    arrays = [x] + [rng.normal(scale=0.6, size=layer.params()[n].shape) for n in names]

    def build(ts):
        net = BiLSTM(np.random.default_rng(0), 2, 2)
        net.set(dict(zip(names, ts[1:])))
        return _weighted_sum(net(ts[0]), np.random.default_rng(29))

    return arrays, build


def _make_attention(rng):
    x = _normal(rng, (2, 3, 4))
    W = rng.normal(scale=0.6, size=(4, 3))
    v = rng.normal(scale=0.6, size=(3, 1))

    def build(ts):
        att = AttentionPool(np.random.default_rng(0), 4, 3)
        att.W, att.v = ts[1], ts[2]
        return _weighted_sum(att(ts[0]), np.random.default_rng(31))

    return [x, W, v], build


def _make_squash(rng):
    x = _normal(rng, (2, 3, 4))

    def build(ts):
        return _weighted_sum(squash(ts[0]), np.random.default_rng(37))

    return [x], build


def _make_routing(iters):
    def make(rng):
        u = _normal(rng, (1, 2, 3))
        W = rng.normal(scale=0.7, size=(2, 2, 2, 3))

        def build(ts):
            caps = CapsuleLayer(np.random.default_rng(0), 2, 3, 2, 2, iters)
            caps.W = ts[1]
            return _weighted_sum(caps(ts[0]), np.random.default_rng(41))

        return [u, W], build

    return make


def _make_length(rng):
    x = _normal(rng, (2, 3, 4))

    def build(ts):
        return _weighted_sum(length_layer(ts[0]), np.random.default_rng(43))

    return [x], build


def _make_margin(rng):
    # Lengths sampled clear of the hinge kinks at m_minus and m_plus.
    lengths = rng.uniform(0.15, 0.85, size=(2, 4))
    targets = (rng.random((2, 4)) < 0.5).astype(np.float64)

    def build(ts):
        return margin_loss(ts[0], targets, MarginLossParams(lam=0.5))

    return [lengths], build


def _make_decoder(rng):
    dec = Decoder(np.random.default_rng(0), 2, 3, out_dim=5, hidden=(4, 6))
    caps = _normal(rng, (2, 2, 3))
    targets = np.eye(2)
    # Target outside the sigmoid range keeps |recon - target| away from its kink.
    recon_target = rng.uniform(1.5, 2.5, size=(2, 5))
    names = list(dec.params())
    arrays = [caps] + [rng.normal(scale=0.6, size=dec.params()[n].shape) for n in names]

    def build(ts):
        net = Decoder(np.random.default_rng(0), 2, 3, out_dim=5, hidden=(4, 6))
        net.set(dict(zip(names, ts[1:])))
        recon = net(ts[0], targets)
        return mae(recon, Tensor(recon_target))

    return arrays, build


CHECKS = {
    "matmul": _make_matmul,
    "add": _make_binary(ad.add),
    "sub": _make_binary(ad.sub),
    "mul": _make_binary(ad.mul),
    "div": _make_binary(ad.div),
    "sigmoid": _elementwise(ad.sigmoid, _normal),
    "tanh": _elementwise(ad.tanh, _normal),
    "relu": _elementwise(ad.relu, _away_from_zero),
    "log": _elementwise(ad.log, _positive),
    "sqrt": _elementwise(ad.sqrt, _positive),
    "square": _elementwise(ad.square, _normal),
    "abs": _elementwise(ad.absolute, _away_from_zero),
    "clamp_min": _elementwise(lambda t: ad.clamp_min(t, 0.15), _away_from_zero),
    "softmax": _make_softmax,
    "concat": _make_concat,
    "sum": _make_reduce(ad.tsum),
    "mean": _make_reduce(ad.tmean),
    "l2norm": _make_l2norm,
    "reshape": _make_structural(lambda t: ad.reshape(t, (3, 8))),
    "transpose": _make_structural(lambda t: ad.transpose(t, (2, 0, 1))),
    "flip": _make_structural(lambda t: ad.flip(t, 1)),
    "batch_norm": _make_batch_norm,
    "bilstm": _make_bilstm,
    "attention": _make_attention,
    "squash": _make_squash,
    "routing_1": _make_routing(1),
    "routing_3": _make_routing(3),
    "routing_5": _make_routing(5),
    "length": _make_length,
    "margin_loss": _make_margin,
    "decoder_mae": _make_decoder,
}


def check_op(name: str, trials: int = 100, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        arrays, build = CHECKS[name](rng)
        worst = max(worst, gradcheck(build, arrays))
    return worst


def run_suite(trials: int = 100, seed: int = 0) -> dict[str, float]:
    """Max relative error per op; iteration order is the registry order."""
    return {name: check_op(name, trials, seed) for name in CHECKS}


def full_model_check(trials: int = 3, seed: int = 0) -> float:
    """End-to-end gradient check of BN -> 2x BiLSTM -> capsules -> margin+MAE
    on a tiny instance (dropout off)."""
    from .models import CapsModel  # local import to avoid a cycle

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        model = CapsModel(np.random.default_rng(1), n_dims=3, hidden=2, t_fix=4,
                          n_classes=2, caps_dim=2, routing_iters=2,
                          dropout_rate=0.0, use_decoder=True,
                          decoder_hidden=(3, 4))
        names = list(model.params())
        x = rng.normal(size=(2, 4, 3))
        targets = np.eye(2)
        recon_target = rng.uniform(0.2, 0.8, size=(2, 4 * 3))
        arrays = [x] + [rng.normal(scale=0.5, size=model.params()[n].shape)
                        for n in names]

        def build(ts):
            m = CapsModel(np.random.default_rng(1), n_dims=3, hidden=2, t_fix=4,
                          n_classes=2, caps_dim=2, routing_iters=2,
                          dropout_rate=0.0, use_decoder=True,
                          decoder_hidden=(3, 4))
            m.set(dict(zip(names, ts[1:])))
            out = m.forward(ts[0], training=True, rng=None, targets=targets,
                            recon_target=recon_target)
            return out.loss

        worst = max(worst, gradcheck(build, arrays))
    return worst
