import numpy as np
import pytest

from capsaudio.autodiff import Graph, Tensor
from capsaudio.config import RunConfig
from capsaudio.models import LOG_CLAMP, build_model, sigmoid_xent, softmax_xent

CAPS_R3 = ["batch_norm", "lstm", "lstm", "dropout", "squash", "routing", "l2norm",
           "margin_loss"]


def one_step_tape(model, mode, use_decoder=False, rng_seed=0):
    """Node names one training step records, as train.train runs it."""
    cfg = RunConfig(model=model, caps_dim=4, routing_iters=3, use_decoder=use_decoder,
                    recon_weight=0.1, lambda_=0.5, hidden_size=3, dropout=0.3,
                    lr=1e-3, batch_size=4, epochs=1, T_fix=5, seed=0, mode=mode,
                    threshold=0.5)
    rng = np.random.default_rng(rng_seed)
    net = build_model(cfg, n_dims=2, n_classes=3, rng=rng)
    targets = np.eye(3)[[0, 1, 2, 0]]
    if mode == "multi":
        targets[0, 1] = 1.0
    with Graph() as g:
        out = net.forward(rng.normal(size=(4, 5, 2)), training=True, rng=rng,
                          targets=targets)
    g.backward(out.loss)
    return [n.name for n in g.nodes]


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_caps_step_records_one_node_per_layer(mode):
    assert one_step_tape("caps", mode) == CAPS_R3


def test_caps_step_with_decoder_adds_decoder_and_sum():
    assert one_step_tape("caps", "single", use_decoder=True) == CAPS_R3 + ["decoder", "add"]


@pytest.mark.parametrize("mode, loss", [("single", "softmax_xent"),
                                        ("multi", "sigmoid_xent")])
@pytest.mark.parametrize("model, pool", [("lstm", "mean_pool"), ("att", "attention")])
def test_baseline_step_records_one_node_per_layer(model, pool, mode, loss):
    assert one_step_tape(model, mode) == ["batch_norm", "lstm", "lstm", pool, "dense",
                                          loss]


def test_softmax_xent_rows_sum_to_one(rng):
    probs, loss = softmax_xent(Tensor(rng.normal(size=(5, 7)) * 3), None)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    assert loss is None


def test_sigmoid_xent_gradient_at_zero_logit():
    # p = 1/2, so d(-log p)/dz = p - 1 = -1/2 and the loss is log 2.
    z = Tensor(np.zeros((1, 1)), requires_grad=True)
    with Graph() as g:
        probs, loss = sigmoid_xent(z, np.ones((1, 1)))
    g.backward(loss)
    assert probs[0, 0] == 0.5
    assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-15)
    assert z.grad[0, 0] == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("xent, other_class_loss", [(softmax_xent, 0.0),
                                                    (sigmoid_xent, np.log(2.0))])
def test_clamped_probability_gets_no_gradient(xent, other_class_loss):
    # Logit -60 puts the target class's probability below LOG_CLAMP, so its
    # log term is clamped and passes no gradient back to that logit.
    z = Tensor(np.array([[-60.0, 0.0]]), requires_grad=True)
    with Graph() as g:
        probs, loss = xent(z, np.array([[1.0, 0.0]]))
    g.backward(loss)
    assert probs[0, 0] < LOG_CLAMP
    assert float(loss.data) == pytest.approx(-np.log(LOG_CLAMP) + other_class_loss)
    assert z.grad[0, 0] == 0.0
