import sys
import threading

import numpy as np
import pytest

from capsaudio import blas
from capsaudio.autodiff import Tensor
from capsaudio.optim import CHUNK, Adam


@pytest.fixture()
def blas_threads():
    """Sets BLAS's thread count for one test and restores it afterwards;
    asking for more than one thread skips the test where the count is unknown."""
    before = blas.threads()

    def set_threads(n):
        if before is None and n > 1:
            pytest.skip("BLAS thread count unknown")
        blas.set_threads(n)

    yield set_threads
    if before is not None:
        blas.set_threads(before)


@pytest.fixture()
def parks(monkeypatch):
    """One entry per blas.park call; the calls still park."""
    calls = []
    real = blas.park
    monkeypatch.setattr(blas, "park", lambda: (calls.append(1), real()))
    return calls


@pytest.fixture()
def starts(monkeypatch):
    """One entry per thread started; the threads still start."""
    calls = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: (calls.append(self.name), real(self)))
    return calls


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


def check_against_reference(rng, steps=5):
    shapes = {
        "big": (4, CHUNK - 3),         # several chunks, last one partial
        "big2": (3 * CHUNK + 100,),    # so are this one's; at two threads
                                       # one thread walks big, the other the rest
        "transposed": (5, 3),          # grad given as a transposed view
        "read_only": (2, 3),           # grad given read-only
        "no_grad": (4,),               # grad stays None
    }
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: (p.data.copy(), np.zeros(s), np.zeros(s)) for (k, p), s in
           zip(params.items(), shapes.values())}
    opt = Adam(lr=0.01)
    for t in range(1, steps + 1):
        grads = {"big": rng.normal(size=shapes["big"]),
                 "big2": rng.normal(size=shapes["big2"]),
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
            assert p.data.flags.c_contiguous and not p.data.flags.writeable
            assert not np.shares_memory(p.data, old[k])
            assert p.grad is None


def test_step_matches_reference_bit_for_bit(rng, blas_threads, parks, starts):
    # At 4 BLAS threads the walk still splits in two (MAX_THREADS).
    for threads in (1, 2, 4):
        blas_threads(threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter lock often
        try:
            check_against_reference(rng, steps=5)
        finally:
            sys.setswitchinterval(interval)
        split = threads > 1
        assert len(parks) == (5 if split else 0)  # every step was split
        assert starts == ["adam-walk"] * len(parks)  # one helper each
        parks.clear()
        starts.clear()


def three_block_step(rng):
    p = Tensor(rng.normal(size=3 * CHUNK), requires_grad=True)
    p.grad = rng.normal(size=3 * CHUNK)
    Adam(lr=0.01).step({"p": p})


def test_one_blas_thread_starts_no_thread_and_does_not_park(rng, blas_threads, parks,
                                                             starts):
    blas_threads(1)
    three_block_step(rng)
    assert not starts
    assert not parks


def test_helper_exception_is_raised_on_the_caller(rng, blas_threads, starts):
    blas_threads(2)
    p = Tensor(rng.normal(size=3 * CHUNK), requires_grad=True)
    p.grad = rng.normal(size=3 * CHUNK - 1)  # the last share's block is short
    with pytest.raises(ValueError):
        Adam(lr=0.01).step({"p": p})
    assert starts == ["adam-walk"]


def test_other_python_thread_keeps_the_walk_on_the_caller(rng, blas_threads, parks):
    # blas_thread_shutdown_ must not run while another thread may be in BLAS.
    blas_threads(2)
    stop = threading.Event()
    idle = threading.Thread(target=stop.wait)
    idle.start()
    try:
        check_against_reference(rng, steps=2)
    finally:
        stop.set()
        idle.join(timeout=10)
    assert not idle.is_alive()
    assert not parks


def test_park_keeps_thread_count_and_matmul_bits(rng):
    a = rng.normal(size=(300, 300))
    threads, before = blas.threads(), a @ a
    blas.park()
    assert blas.threads() == threads
    assert (a @ a).tobytes() == before.tobytes()
