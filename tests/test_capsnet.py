import numpy as np
import pytest

from capsaudio.autodiff import Graph, Tensor
from capsaudio.capsnet import (CapsuleLayer, Decoder, decode_reconstruct, length_layer,
                               margin_loss, predict, route, squash)
from capsaudio.errors import NumericsFault, ShapeError
from capsaudio.gradcheck import weighted_sum


# --- squash -----------------------------------------------------------------

def test_squash_zero_maps_to_zero():
    out = squash(Tensor(np.zeros((1, 3)))).data
    np.testing.assert_array_equal(out, 0.0)


def test_squash_unit_norm_halves():
    out = squash(Tensor(np.array([[1.0, 0.0, 0.0]]))).data
    assert np.linalg.norm(out) == pytest.approx(0.5, abs=1e-15)


def test_squash_norm_ten():
    s = np.array([[6.0, 8.0]])  # norm 10
    out = squash(Tensor(s)).data
    assert np.linalg.norm(out) == pytest.approx(100.0 / 101.0, abs=1e-12)
    np.testing.assert_allclose(out / np.linalg.norm(out), s / 10.0, atol=1e-12)


def test_squash_direction_and_monotonicity(rng):
    direction = rng.normal(size=4)
    direction /= np.linalg.norm(direction)
    norms = []
    for scale in (0.1, 0.5, 1.0, 2.0, 5.0, 50.0):
        v = squash(Tensor((scale * direction)[None])).data[0]
        cosine = np.dot(v, direction) / np.linalg.norm(v)
        assert cosine == pytest.approx(1.0, abs=1e-12)
        norms.append(np.linalg.norm(v))
    assert all(a < b for a, b in zip(norms, norms[1:]))  # strictly increasing
    assert norms[-1] < 1.0


def test_squash_random_norm_bounded(rng):
    v = squash(Tensor(rng.normal(size=(100, 8)) * 10)).data
    assert np.all(np.linalg.norm(v, axis=1) < 1.0)


def test_squash_records_one_tape_node(rng):
    s = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    with Graph() as g:
        squash(s)
    assert [n.name for n in g.nodes] == ["squash"]


def test_squash_backward_at_zero_is_finite_and_zero():
    s = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
    with Graph() as g:
        y = weighted_sum(squash(s))
    g.backward(y)
    assert np.all(np.isfinite(s.grad))
    np.testing.assert_array_equal(s.grad, 0.0)


# --- routing ----------------------------------------------------------------

def hand_squash(s):
    n = np.sqrt(np.sum(s * s, axis=-1, keepdims=True))
    return s * (n / (1.0 + n * n))


def hand_routing(uhat, iters):
    """Straight-line reference: uhat [P, C, D] for one batch item."""
    P, C, _ = uhat.shape
    b = np.zeros((P, C))
    cs = []
    v = None
    for it in range(iters):
        e = np.exp(b - b.max(axis=1, keepdims=True))
        c = e / e.sum(axis=1, keepdims=True)
        cs.append(c.copy())
        s = (c[:, :, None] * uhat).sum(axis=0)
        v = hand_squash(s)
        if it < iters - 1:
            b = b + (uhat * v[None, :, :]).sum(axis=2)
    return v, cs, b


def couplings(layer, u):
    """The [B, P, C] coupling coefficients of every routing iteration the
    layer runs on primaries u."""
    return [c.transpose(0, 2, 1) for c, *_ in route(layer.predictions(u), layer.routing_iters)]


def pinned_agreement_case():
    """Two primaries agreeing on class 0 and opposing on class 1."""
    u = np.array([[[1.0, 0.0], [0.0, 1.0]]])        # [1, 2, 2]
    W = np.zeros((2, 2, 2, 2))
    W[0, 0] = [[1.0, 0.0], [0.0, 0.0]]              # uhat[0,0] = (1, 0)
    W[1, 0] = [[0.0, 1.0], [0.0, 0.0]]              # uhat[1,0] = (1, 0)
    W[0, 1] = [[0.8, 0.0], [0.6, 0.0]]              # uhat[0,1] = (.8, .6)
    W[1, 1] = [[0.0, -0.8], [0.0, -0.6]]            # uhat[1,1] = (-.8, -.6)
    uhat = np.einsum("pcdi,pi->pcd", W, u[0])
    return u, W, uhat


@pytest.mark.parametrize("iters", [1, 3, 5])
def test_route_single_primary_single_class_equals_squash(rng, iters):
    # softmax over one class logit is exactly 1, so routing reduces to
    # squash(W @ u) for any number of iterations
    layer = CapsuleLayer(rng, n_primary=1, in_dim=3, n_classes=1, caps_dim=4,
                         routing_iters=iters)
    u = rng.normal(size=(2, 1, 3))
    out = layer(Tensor(u)).data
    direct = squash(Tensor((u[:, 0] @ layer.W.data[0, 0].T)[:, None, :])).data
    np.testing.assert_array_equal(out, direct)  # exact, not approximate


def test_route_one_iteration_uniform_coupling(rng):
    layer = CapsuleLayer(rng, n_primary=3, in_dim=2, n_classes=4, caps_dim=2,
                         routing_iters=1)
    u = rng.normal(size=(1, 3, 2))
    out = layer(Tensor(u)).data
    collected = couplings(layer, u)
    np.testing.assert_allclose(collected[0], 0.25, atol=1e-15)
    uhat = np.einsum("pcdi,pi->pcd", layer.W.data, u[0])
    expected = hand_squash((0.25 * uhat).sum(axis=0))
    np.testing.assert_allclose(out[0], expected, atol=1e-14)


def test_pinned_two_capsule_agreement_matches_hand_oracle(rng):
    u, W, uhat = pinned_agreement_case()
    layer = CapsuleLayer(rng, 2, 2, 2, 2, routing_iters=3)
    layer.W = Tensor(W, requires_grad=True)
    out = layer(Tensor(u)).data
    collected = couplings(layer, u)

    v_hand, cs_hand, _ = hand_routing(uhat, 3)
    np.testing.assert_allclose(out[0], v_hand, atol=1e-12)
    for got, want in zip(collected, cs_hand):
        np.testing.assert_allclose(got[0], want, atol=1e-12)

    # agreement grows: coupling to class 0 rises above the uniform 0.5
    assert np.all(collected[-1][0][:, 0] > 0.5)
    # and is non-decreasing across iterations for the agreeing class
    c0 = np.array([c[0][:, 0] for c in collected])
    assert np.all(np.diff(c0, axis=0) >= -1e-15)


@pytest.mark.parametrize("iters", [1, 3, 5])
def test_batched_multiclass_routing_matches_hand_oracle(rng, iters):
    # Several batch items and classes, so a mix-up between batch items or
    # classes in the batched contractions shows against the per-item oracle.
    B, P, C, D, I = 3, 5, 4, 3, 2
    layer = CapsuleLayer(rng, P, I, C, D, routing_iters=iters)
    u = rng.normal(size=(B, P, I)) * 2.0
    out = layer(Tensor(u)).data
    collected = couplings(layer, u)
    assert out.shape == (B, C, D)
    assert np.array_equal(out, route(layer.predictions(u), iters)[-1][3])  # same bits
    assert len(collected) == iters
    for k in range(B):
        uhat = np.einsum("pcdi,pi->pcd", layer.W.data, u[k])
        v_hand, cs_hand, _ = hand_routing(uhat, iters)
        np.testing.assert_allclose(out[k], v_hand, rtol=0, atol=1e-12)
        for got, want in zip(collected, cs_hand):
            assert got.shape == (B, P, C)
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-12)


def test_non_finite_weight_names_the_routing_op(rng):
    layer = CapsuleLayer(rng, 3, 2, 4, 2, routing_iters=3)
    W = layer.W.data.copy()
    W[1, 2, 0, 1] = np.inf
    layer.W = Tensor(W, requires_grad=True)
    with pytest.raises(NumericsFault, match="op 'routing'"):
        layer(Tensor(rng.normal(size=(2, 3, 2))))


def test_coupling_rows_sum_to_one_every_iteration(rng):
    layer = CapsuleLayer(rng, 5, 3, 4, 2, routing_iters=5)
    u = rng.normal(size=(3, 5, 3)) * 2.0
    collected = couplings(layer, u)
    assert len(collected) == 5
    for c in collected:
        np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-12)


def test_route_shape_error(rng):
    layer = CapsuleLayer(rng, 4, 3, 2, 2, 1)
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((1, 4, 5))))
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((1, 5, 3))))


def test_caps_layer_param_validation(rng):
    with pytest.raises(ShapeError):
        CapsuleLayer(rng, 4, 3, 2, caps_dim=1, routing_iters=1)
    with pytest.raises(ShapeError):
        CapsuleLayer(rng, 4, 3, 2, caps_dim=2, routing_iters=0)


# --- length layer -----------------------------------------------------------

def test_length_zero_capsule():
    out = length_layer(Tensor(np.zeros((1, 2, 4)))).data
    np.testing.assert_array_equal(out, 0.0)


def test_length_three_four_five():
    caps = np.zeros((1, 1, 4))
    caps[0, 0, :2] = [0.6, 0.8]
    assert length_layer(Tensor(caps)).data[0, 0] == pytest.approx(1.0, abs=1e-15)


# --- margin loss unit table ---------------------------------------------------

def test_margin_present_inside_margin_is_zero():
    loss = margin_loss(Tensor([[0.95]]), np.array([[1.0]]))
    assert float(loss.data) == 0.0


def test_margin_present_zero_length():
    loss = margin_loss(Tensor([[0.0]]), np.array([[1.0]]))
    assert float(loss.data) == 0.9 ** 2  # 0.81 exactly in f64


def test_margin_absent_point_three():
    loss = margin_loss(Tensor([[0.3]]), np.array([[0.0]]), lam=0.5)
    hand = 0.5 * max(0.0, 0.3 - 0.1) ** 2
    assert float(loss.data) == hand              # identical f64 arithmetic
    assert float(loss.data) == pytest.approx(0.02, abs=1e-12)


def test_margin_lambda_doubles_absent_terms(rng):
    lengths = rng.uniform(0.0, 1.0, size=(3, 5))
    targets = np.zeros((3, 5))  # all absent
    half = margin_loss(Tensor(lengths), targets, lam=0.5)
    full = margin_loss(Tensor(lengths), targets, lam=1.0)
    assert float(full.data) == 2.0 * float(half.data)


def test_margin_sums_classes_means_batch():
    lengths = np.array([[0.0, 0.3], [0.95, 0.05]])
    targets = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss = margin_loss(Tensor(lengths), targets, lam=0.5)
    row0 = 0.9 ** 2 + 0.5 * 0.2 ** 2
    row1 = 0.0
    assert float(loss.data) == pytest.approx((row0 + row1) / 2.0, abs=1e-15)


def test_margin_zero_iff_margins_met(rng):
    good = margin_loss(Tensor([[0.92, 0.05, 0.9]]),
                       np.array([[1.0, 0.0, 1.0]]))
    assert float(good.data) == 0.0
    for bad_lengths, t in (([[0.89, 0.05]], [[1.0, 0.0]]),
                           ([[0.95, 0.11]], [[1.0, 0.0]])):
        loss = margin_loss(Tensor(np.array(bad_lengths)), np.array(t))
        assert float(loss.data) > 0.0


def test_margin_shape_error():
    with pytest.raises(ShapeError):
        margin_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))


# --- decoder ----------------------------------------------------------------

def test_mae_identical_is_zero(rng):
    dec = Decoder(rng, n_classes=2, caps_dim=3, out_dim=5, hidden=(4, 6))
    caps, targets = Tensor(rng.normal(size=(2, 2, 3))), np.eye(2)
    recon, _ = decode_reconstruct(caps, targets, dec, Tensor(np.zeros((2, 5))))
    _, loss = decode_reconstruct(caps, targets, dec, Tensor(recon.copy()))
    assert float(loss.data) == 0.0


def test_mae_constant_offset(rng):
    dec = Decoder(rng, n_classes=2, caps_dim=3, out_dim=5, hidden=(4, 6))
    caps, targets = Tensor(rng.normal(size=(2, 2, 3))), np.eye(2)
    recon, _ = decode_reconstruct(caps, targets, dec, Tensor(np.zeros((2, 5))))
    x = Tensor(recon + 0.1)
    _, loss = decode_reconstruct(caps, targets, dec, x)
    assert float(loss.data) == pytest.approx(0.1, abs=1e-12)
    _, weighted = decode_reconstruct(caps, targets, dec, x, weight=0.3)
    assert float(weighted.data) == float(loss.data) * 0.3


def test_decoder_masks_non_target_capsules(rng):
    dec = Decoder(rng, n_classes=3, caps_dim=2, out_dim=4, hidden=(5, 6))
    targets = np.array([[0.0, 1.0, 0.0]])
    x = Tensor(np.zeros((1, 4)))

    def recon(caps):
        return decode_reconstruct(Tensor(caps), targets, dec, x)[0]

    caps_a = rng.normal(size=(1, 3, 2))
    caps_b = caps_a.copy()
    caps_b[0, 0] += 9.0  # non-target rows must not matter
    caps_b[0, 2] -= 9.0
    out_a = recon(caps_a)
    np.testing.assert_array_equal(out_a, recon(caps_b))
    caps_c = caps_a.copy()
    caps_c[0, 1] += 0.5  # the target row must matter
    assert np.abs(recon(caps_c) - out_a).max() > 1e-9


def test_decode_reconstruct_loss(rng):
    dec = Decoder(rng, 2, 3, out_dim=6, hidden=(4, 4))
    caps = rng.normal(size=(2, 2, 3))
    targets = np.eye(2)
    x = rng.uniform(size=(2, 3, 2))  # the scaled input [batch, frames, dims]
    recon, loss = decode_reconstruct(caps=Tensor(caps), targets=targets,
                                     decoder=dec, x=Tensor(x))
    assert recon.shape == (2, 6)
    assert float(loss.data) == pytest.approx(np.abs(recon - x.reshape(2, 6)).mean())
    with pytest.raises(ShapeError):
        decode_reconstruct(Tensor(caps), targets, dec, Tensor(rng.uniform(size=(2, 7))))


def test_decoder_records_one_tape_node(rng):
    dec = Decoder(rng, 2, 3, out_dim=6, hidden=(4, 4))
    caps = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
    x = Tensor(rng.uniform(size=(2, 3, 2)))
    with Graph() as g:
        _, loss = decode_reconstruct(caps, np.eye(2), dec, x, weight=0.1)
    assert [n.name for n in g.nodes] == ["decoder"]
    assert all(a is b for a, b in zip(g.nodes[0].inputs,
                                      [caps, *dec.params().values(), x]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_huge_decoder_weight_names_the_decoder(rng):
    # out.W drives the sigmoid's input to -inf, where it saturates at a
    # finite 0, so only the check on the pre-activations can see it.
    dec = Decoder(rng, 2, 3, out_dim=4, hidden=(4, 5))
    for layer in (dec.fc1, dec.fc2):
        layer.W = Tensor(np.ones(layer.W.shape), requires_grad=True)
    dec.out.W = Tensor(np.full(dec.out.W.shape, -1e308), requires_grad=True)
    with pytest.raises(NumericsFault, match="'decoder'"):
        decode_reconstruct(Tensor(np.ones((1, 2, 3))), np.array([[1.0, 0.0]]), dec,
                           Tensor(np.zeros((1, 4))))


# --- predict ----------------------------------------------------------------

def test_predict_single_argmax():
    out = predict(np.array([[0.2, 0.7, 0.1]]), "single")
    np.testing.assert_array_equal(out, [[0, 1, 0]])


def test_predict_single_tie_lowest_index():
    out = predict(np.array([[0.6, 0.6]]), "single")
    np.testing.assert_array_equal(out, [[1, 0]])


def test_predict_multi_threshold():
    out = predict(np.array([[0.7, 0.2, 0.55]]), "multi", threshold=0.5)
    np.testing.assert_array_equal(out, [[1, 0, 1]])
    at = predict(np.array([[0.5]]), "multi", threshold=0.5)
    np.testing.assert_array_equal(at, [[0]])  # strict inequality
