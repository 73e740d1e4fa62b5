import inspect

import numpy as np
import pytest

from capsaudio import kernels
from capsaudio.autodiff import Graph, Tensor
from capsaudio.errors import DegenerateBatch, InputTooShort, NumericsFault, ShapeError
from capsaudio.layers import (AttentionPool, BatchNorm, BiLSTM, Dense, dropout, mean_pool,
                              softmax)


# --- softmax ----------------------------------------------------------------

@pytest.mark.parametrize("shift", [1e3, -1e3])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_softmax_of_large_logits_is_finite_and_sums_to_one(rng, axis, shift):
    # exp(1e3) overflows and exp(-1e3) underflows to 0: only the max shift keeps p finite
    p = softmax(shift + rng.normal(size=(3, 4, 5)), axis)
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    np.testing.assert_allclose(p.sum(axis=axis), 1.0, rtol=0.0, atol=1e-12)


# --- batch norm -------------------------------------------------------------

def test_bn_training_normalizes(rng):
    bn = BatchNorm(5)
    x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(4, 6, 5)))
    out = bn(x, training=True).data
    np.testing.assert_allclose(out.reshape(-1, 5).mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.reshape(-1, 5).std(axis=0), 1.0, atol=1e-3)


def test_bn_gamma_beta(rng):
    bn = BatchNorm(3)
    bn.gamma = Tensor(np.full(3, 2.0), requires_grad=True)
    bn.beta = Tensor(np.full(3, 3.0), requires_grad=True)
    out = bn(Tensor(rng.normal(size=(8, 4, 3))), training=True).data
    flat = out.reshape(-1, 3)
    np.testing.assert_allclose(flat.mean(axis=0), 3.0, atol=1e-6)
    np.testing.assert_allclose(flat.std(axis=0), 2.0, atol=1e-2)


def test_bn_inference_identity(rng):
    bn = BatchNorm(4)  # running stats at their init of mean 0, var 1
    x = rng.normal(size=(2, 3, 4))
    out = bn(Tensor(x), training=False).data
    np.testing.assert_allclose(out, x, atol=1e-4)


def test_bn_running_stats_updated(rng):
    bn = BatchNorm(2)
    x = rng.normal(loc=5.0, size=(4, 8, 2))
    before = bn.running_mean.copy()
    bn(Tensor(x), training=True)
    assert not np.array_equal(bn.running_mean, before)
    frozen = bn.running_mean.copy()
    bn(Tensor(x), training=False)  # inference must not touch stats
    np.testing.assert_array_equal(bn.running_mean, frozen)


@pytest.mark.parametrize("training", [True, False])
def test_bn_records_one_tape_node(rng, training):
    bn = BatchNorm(3)
    x = Tensor(rng.normal(size=(2, 4, 3)))
    with Graph() as g:
        out = bn(x, training=training)
    assert [n.name for n in g.nodes] == ["batch_norm"]
    assert g.nodes[0].out is out
    assert all(a is b for a, b in zip(g.nodes[0].inputs, [x, bn.gamma, bn.beta]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_bn_infinite_variance_names_batch_norm(rng):
    # The variance overflows to inf, which would make every xhat 0 and the
    # output finite, so the op checks the variance itself.
    x = Tensor(rng.normal(size=(2, 4, 3)) * 1e200)
    with pytest.raises(NumericsFault, match="'batch_norm'"):
        BatchNorm(3)(x, training=True)


def test_bn_degenerate_batch():
    with pytest.raises(DegenerateBatch):
        BatchNorm(3)(Tensor(np.zeros((1, 1, 3))), training=True)


def test_bn_shape_checks():
    with pytest.raises(ShapeError):
        BatchNorm(3)(Tensor(np.zeros((2, 3))), training=True)
    with pytest.raises(ShapeError):
        BatchNorm(3)(Tensor(np.zeros((2, 4, 5))), training=True)


# --- bilstm -----------------------------------------------------------------

def test_bilstm_zero_weights_zero_output(rng):
    net = BiLSTM(rng, 3, 4)
    for p in net.params().values():
        p.data = np.zeros_like(p.data)
    out = net(Tensor(rng.normal(size=(2, 5, 3))))
    np.testing.assert_array_equal(out.data, 0.0)
    assert out.data.shape == (2, 5, 8)


def hand_lstm_step(x, h_prev, c_prev, Wx, Wh, b):
    """Single LSTM step written out literally (gate order i, f, g, o)."""
    z = x @ Wx + h_prev @ Wh + b
    H = h_prev.shape[-1]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f = sig(z[..., :H]), sig(z[..., H:2 * H])
    g, o = np.tanh(z[..., 2 * H:3 * H]), sig(z[..., 3 * H:])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def bilstm_out(net, x, record):
    """net(x) on a recording Graph (lstm_forward) or with none (lstm_hidden)."""
    if not record:
        return net(Tensor(x)).data
    with Graph() as g:
        out = net(Tensor(x, requires_grad=True))
    assert [n.name for n in g.nodes] == ["lstm"]
    return out.data


@pytest.mark.parametrize("record", [False, True])
def test_single_timestep_matches_hand_recurrence(rng, record):
    net = BiLSTM(rng, 3, 2)
    x = rng.normal(size=(1, 1, 3))
    out = bilstm_out(net, x, record)

    h0 = np.zeros((1, 2))
    hf, _ = hand_lstm_step(x[:, 0], h0, h0, net.fwd.Wx.data, net.fwd.Wh.data,
                           net.fwd.b.data)
    hb, _ = hand_lstm_step(x[:, 0], h0, h0, net.bwd.Wx.data, net.bwd.Wh.data,
                           net.bwd.b.data)
    np.testing.assert_allclose(out[0, 0], np.concatenate([hf[0], hb[0]]),
                               atol=1e-12)


@pytest.mark.parametrize("record", [False, True])
def test_multistep_matches_hand_recurrence(rng, record):
    net = BiLSTM(rng, 2, 3)
    x = rng.normal(size=(2, 4, 2))
    out = bilstm_out(net, x, record)

    def run_dir(params, xs):
        h = np.zeros((2, 3))
        c = np.zeros((2, 3))
        hs = []
        for t in range(xs.shape[1]):
            h, c = hand_lstm_step(xs[:, t], h, c, params.Wx.data, params.Wh.data,
                                  params.b.data)
            hs.append(h)
        return np.stack(hs, axis=1)

    fwd = run_dir(net.fwd, x)
    bwd = run_dir(net.bwd, x[:, ::-1])[:, ::-1]
    np.testing.assert_allclose(out, np.concatenate([fwd, bwd], axis=-1), atol=1e-12)


@pytest.mark.parametrize("T", [1, 40])
@pytest.mark.parametrize("B", [1, 32])
def test_lstm_hidden_matches_lstm_forward_bits(rng, T, B):
    I, H = 6, 5
    x = rng.normal(size=(T, B, I))
    Wx, Wh = rng.normal(size=(I, 4 * H)), rng.normal(size=(H, 4 * H))
    b = rng.normal(size=4 * H)
    h, c, gates = kernels.lstm_forward(x, Wx, Wh, b)
    assert c.shape == (T, B, H) and gates.shape == (T, 4, B, H)
    assert kernels.lstm_hidden(x, Wx, Wh, b).tobytes() == h.tobytes()


def test_bilstm_same_bits_recorded_or_not(rng):
    net = BiLSTM(rng, 4, 3)
    x = rng.normal(size=(3, 7, 4))
    assert bilstm_out(net, x, True).tobytes() == bilstm_out(net, x, False).tobytes()


def test_bilstm_nan_input_names_lstm_at_inference(rng):
    x = np.full((1, 4, 3), np.nan)
    with pytest.raises(NumericsFault, match="'lstm'"):
        BiLSTM(rng, 3, 2)(Tensor(x))


def test_lstm_kernel_signatures_are_pinned():
    # perfbench/spans.py wraps both kernels with wrapper(*args) and passes the
    # same positional arguments to its FLOP counters, so their arity is fixed.
    for fn, n in ((kernels.lstm_forward, 4), (kernels.lstm_backward, 7)):
        kinds = [p.kind for p in inspect.signature(fn).parameters.values()]
        assert kinds == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * n


def test_bilstm_zero_length_sequence(rng):
    with pytest.raises(InputTooShort):
        BiLSTM(rng, 3, 2)(Tensor(np.zeros((2, 0, 3))))


def test_bilstm_output_depends_on_full_sequence(rng):
    # perturbing any input frame changes some output frame
    net = BiLSTM(rng, 2, 3)
    x = rng.normal(size=(1, 5, 2))
    base = net(Tensor(x)).data
    for t in range(5):
        bumped = x.copy()
        bumped[0, t, 0] += 0.5
        diff = np.abs(net(Tensor(bumped)).data - base)
        assert diff.max() > 1e-6
        # both directions carry the perturbation across time
        assert diff[0, :, :3].max() > 1e-9 and diff[0, :, 3:].max() > 1e-9


def test_bilstm_records_one_tape_node(rng):
    net = BiLSTM(rng, 3, 2)
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    with Graph() as g:
        out = net(x)
    assert [n.name for n in g.nodes] == ["lstm"]
    node = g.nodes[0]
    assert node.out is out
    assert len(node.inputs) == 7
    assert all(a is b for a, b in zip(node.inputs, [x, *net.params().values()]))


def test_forget_gate_bias_initialized_to_one(rng):
    net = BiLSTM(rng, 3, 4)
    for d in (net.fwd, net.bwd):
        np.testing.assert_array_equal(d.b.data[4:8], 1.0)
        np.testing.assert_array_equal(d.b.data[:4], 0.0)


# --- dropout ----------------------------------------------------------------

def test_dropout_rate_zero_identity(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    assert dropout(x, 0.0, training=True, rng=rng) is x


def test_dropout_inference_identity(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    assert dropout(x, 0.9, training=False, rng=None) is x


def test_dropout_empirical_rate():
    rng = np.random.default_rng(777)
    x = Tensor(np.ones((1000, 1000)))
    out = dropout(x, 0.5, training=True, rng=rng).data
    dropped = np.mean(out == 0.0)
    assert abs(dropped - 0.5) < 0.002  # 10^6 entries
    survivors = out[out != 0.0]
    np.testing.assert_allclose(survivors, 2.0)  # scaled by 1/(1-rate)


def test_dropout_records_one_tape_node(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with Graph() as g:
        out = dropout(x, 0.5, training=True, rng=rng)
    assert [n.name for n in g.nodes] == ["dropout"]
    assert set(np.unique(out.data / x.data)) <= {0.0, 2.0}


def test_dropout_deterministic_under_seed(rng):
    x = Tensor(rng.normal(size=(50, 50)))
    a = dropout(x, 0.3, training=True, rng=np.random.default_rng(5)).data
    b = dropout(x, 0.3, training=True, rng=np.random.default_rng(5)).data
    np.testing.assert_array_equal(a, b)


# --- attention pooling -------------------------------------------------------

def test_attention_uniform_scores_is_time_mean(rng):
    att = AttentionPool(rng, 4, 3)
    att.W = Tensor(np.zeros((4, 3)), requires_grad=True)  # scores all zero
    h = rng.normal(size=(2, 6, 4))
    out = att(Tensor(h)).data
    np.testing.assert_allclose(out, h.mean(axis=1), atol=1e-12)


def test_attention_saturated_scores_pick_one_timestep(rng):
    att = AttentionPool(rng, 2, 1)
    att.W = Tensor(np.ones((2, 1)) * 40.0, requires_grad=True)
    att.v = Tensor(np.ones((1, 1)) * 40.0, requires_grad=True)
    h = np.zeros((1, 3, 2))
    h[0, 1] = [1.0, 1.0]   # dominant score at t=1
    h[0, 0] = [-1.0, 0.0]
    out = att(Tensor(h)).data
    np.testing.assert_allclose(out[0], h[0, 1], atol=1e-6)


def test_attention_shape_error(rng):
    with pytest.raises(ShapeError):
        AttentionPool(rng, 4, 3)(Tensor(np.zeros((2, 4))))


def test_mean_pool(rng):
    h = rng.normal(size=(2, 5, 3))
    np.testing.assert_allclose(mean_pool(Tensor(h)).data, h.mean(axis=1))


def test_dense_forward(rng):
    d = Dense(rng, 3, 2)
    x = rng.normal(size=(4, 3))
    np.testing.assert_allclose(d(Tensor(x)).data, x @ d.W.data + d.b.data)


def test_dense_identity_weight(rng):
    d = Dense(rng, 2, 2)
    d.W = Tensor(np.eye(2), requires_grad=True)
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(d(x).data, x.data)


def test_dense_shape_error(rng):
    d = Dense(rng, 3, 2)
    with pytest.raises(ShapeError):
        d(Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        d(Tensor(np.zeros(3)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_attention_infinite_score_names_attention(rng):
    # tanh would map the overflowed score to a finite 1, so the op checks
    # its pre-tanh scores.
    att = AttentionPool(rng, 2, 3)
    att.W = Tensor(np.full((2, 3), 1e308), requires_grad=True)
    with pytest.raises(NumericsFault, match="'attention'"):
        att(Tensor(np.ones((1, 4, 2))))
