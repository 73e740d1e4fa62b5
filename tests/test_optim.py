import numpy as np

from capsaudio.autodiff import Tensor
from capsaudio.optim import CHUNK, Adam


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam(lr=0.1)
    opt.step({"p": p})
    np.testing.assert_array_equal(p.data, [1.5, -2.0])
    assert opt.t == 1


def test_first_step_hand_value():
    # p=0, g=1, lr=0.1: bias-corrected m_hat=1, v_hat=1 -> p ~ -0.1
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0])
    Adam(lr=0.1).step({"p": p})
    assert abs(p.data[0] + 0.1) < 1e-7
    # exact form: -lr * 1 / (1 + eps)
    assert p.data[0] == -0.1 * 1.0 / (1.0 + 1e-8)


def test_missing_grad_counts_as_zero():
    p = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = None
    Adam(lr=0.5).step({"p": p})
    np.testing.assert_array_equal(p.data, [3.0])


def test_deterministic_sequences(rng):
    grads = rng.normal(size=(10, 4))

    def run():
        p = Tensor(np.ones(4), requires_grad=True)
        opt = Adam(lr=0.01)
        for g in grads:
            p.grad = g.copy()
            opt.step({"p": p})
        return p.data

    np.testing.assert_array_equal(run(), run())  # bit-identical


def test_step_replaces_array_not_in_place():
    p = Tensor(np.array([1.0]), requires_grad=True)
    snapshot = p.data
    p.grad = np.array([1.0])
    Adam(lr=0.1).step({"p": p})
    np.testing.assert_array_equal(snapshot, [1.0])  # old snapshot untouched
    assert p.grad is None  # cleared after the step


def reference_step(p, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as whole-array expressions, in the rounding order Adam keeps."""
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    return p - lr * (m / b1t) / (np.sqrt(v / b2t) + eps), m, v


def test_step_matches_reference_bit_for_bit(rng):
    shapes = {
        "big": (3, CHUNK + CHUNK // 3 + 7),  # several chunks, last one partial
        "transposed": (5, 3),                # grad given as a transposed view
        "read_only": (2, 3),                 # grad given read-only
        "no_grad": (4,),                     # grad stays None
    }
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: (p.data.copy(), np.zeros(s), np.zeros(s)) for (k, p), s in
           zip(params.items(), shapes.values())}
    opt = Adam(lr=0.01)
    for t in range(1, 6):
        grads = {"big": rng.normal(size=shapes["big"]),
                 "transposed": rng.normal(size=(3, 5)).T,
                 "read_only": rng.normal(size=shapes["read_only"]),
                 "no_grad": None}
        grads["read_only"].flags.writeable = False
        assert not grads["transposed"].flags.c_contiguous
        given = {k: None if g is None else g.copy() for k, g in grads.items()}
        old = {}
        for k, p in params.items():
            p.grad = grads[k]
            old[k] = p.data
        opt.step(params)
        for k, p in params.items():
            np.testing.assert_array_equal(grads[k], given[k])  # only read
            g = grads[k] if grads[k] is not None else np.zeros(shapes[k])
            ref[k] = reference_step(*ref[k], g, t, lr=0.01)
            np.testing.assert_array_equal(p.data, ref[k][0])
            assert p.data.flags.c_contiguous
            assert not np.shares_memory(p.data, old[k])
            assert p.grad is None
