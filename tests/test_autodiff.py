import pathlib
import re

import numpy as np
import pytest

from capsaudio import autodiff as ad
from capsaudio.autodiff import Graph, Tensor
from capsaudio.capsnet import length_layer
from capsaudio.errors import NumericsFault, ShapeError
from capsaudio.gradcheck import CHECKS, _make_full_model, check_op, gradcheck


def scalar_loss(t):
    return ad.tsum(t)


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_sigmoid_derivative_at_zero():
    x = Tensor(np.zeros((1, 1)), requires_grad=True)
    with Graph() as g:
        y = ad.tsum(ad.sigmoid(x))
    g.backward(y)
    assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(5, 7)) * 3)
    out = ad.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_non_finite_forward_trips_fault():
    with pytest.raises(NumericsFault):
        ad.log(Tensor([[0.0]]))  # -inf
    with pytest.raises(NumericsFault):
        ad.div(Tensor([[1.0]]), Tensor([[0.0]]))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        y = ad.square(x)
    with pytest.raises(ShapeError):
        g.backward(y)


def test_no_recording_without_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.square(x)
    assert not y.requires_grad


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    with Graph() as g:
        y = ad.tsum(ad.mul(x, x))  # x used twice: d/dx = 2x
    g.backward(y)
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_backward_visits_reverse_recording_order():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        y = ad.tsum(ad.tanh(ad.square(ad.sigmoid(x))))
    visited = []
    for node in g.nodes:
        original = node.backward_fn

        def wrapped(grad, _name=node.name, _fn=original):
            visited.append(_name)
            return _fn(grad)

        node.backward_fn = wrapped
    g.backward(y)
    assert visited == [n.name for n in reversed(g.nodes)]
    assert len(visited) == len(g.nodes)  # each node exactly once


def test_topological_order_is_recording_order():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        ad.tsum(ad.relu(ad.neg(x)))
    assert [n.name for n in g.nodes] == ["neg", "relu", "sum"]


def test_broadcast_add_gradient():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    with Graph() as g:
        y = ad.tsum(ad.add(a, b))
    g.backward(y)
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))


def test_l2norm_guarded_at_zero():
    # The length layer is the one vector norm; its backward is guarded at 0.
    x = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
    with Graph() as g:
        y = ad.tsum(length_layer(x))
    g.backward(y)
    assert [n.name for n in g.nodes] == ["l2norm", "sum"]
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_array_equal(x.grad, 0.0)


def test_operator_sugar_matches_functions(rng):
    a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    ta, tb = Tensor(a), Tensor(b)
    np.testing.assert_array_equal((ta + tb).data, a + b)
    np.testing.assert_array_equal((ta - tb).data, a - b)
    np.testing.assert_array_equal((ta * tb).data, a * b)
    np.testing.assert_array_equal((ta / (tb + 10.0)).data, a / (b + 10.0))
    np.testing.assert_array_equal((ta @ tb).data, a @ b)
    np.testing.assert_array_equal((-ta).data, -a)
    np.testing.assert_array_equal((2.0 * ta).data, 2 * a)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_gradcheck_spot(name):
    # 3 trials per op here; the acceptance suite runs the full 100.
    assert check_op(name, trials=3, seed=99) <= 1e-4


def test_gradcheck_catches_wrong_gradient():
    def build(ts):
        # deliberately wrong backward: claims d(sum x)/dx = 2
        return ad.apply_op("bad", (ts[0],), ts[0].data.sum(),
                           lambda g: (2.0 * np.ones_like(ts[0].data) * g,))

    assert gradcheck(build, [np.ones((2, 2))]) > 1e-2


def test_gradcheck_registry_names_in_order():
    # The CLI table rows and C1's op count follow this registry.
    assert list(CHECKS) == [
        "matmul", "add", "sub", "mul", "div", "neg", "sigmoid", "tanh", "relu",
        "log", "sqrt", "square", "abs", "clamp_min", "softmax", "sum", "mean",
        "reshape", "batch_norm", "bilstm", "attention",
        "squash", "routing_1", "routing_3", "routing_5", "length", "margin_loss",
        "decoder_mae"]


def test_every_tape_op_is_gradient_checked():
    # Each op name the library records must be recorded by some CHECKS
    # builder or by the full-model check.
    src = pathlib.Path(ad.__file__).parent
    recorded_by_library = {name for path in src.glob("*.py")
                           for name in re.findall(r'apply_op\("(\w+)"', path.read_text())}
    checked = set()
    for make in [*CHECKS.values(), _make_full_model]:
        arrays, build = make(np.random.default_rng(0))
        with Graph() as g:
            build([Tensor(a, requires_grad=True) for a in arrays])
        checked.update(n.name for n in g.nodes)
    assert recorded_by_library and recorded_by_library <= checked, (
        sorted(recorded_by_library - checked))


@pytest.mark.parametrize("name, count", [
    ("batch_norm", 3), ("bilstm", 7), ("attention", 3), ("routing_1", 2),
    ("routing_3", 2), ("routing_5", 2), ("decoder_mae", 7)])
def test_module_check_perturbs_input_and_every_param(name, count):
    arrays, build = CHECKS[name](np.random.default_rng(0))
    assert len(arrays) == count
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Graph() as g:
        loss = build(tensors)
    g.backward(loss)
    assert all(t.grad is not None and np.any(t.grad != 0.0) for t in tensors)


def test_backward_add_gives_each_input_its_own_grad(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))
    with Graph() as g:
        loss = ad.tsum(ad.mul(ad.add(a, b), w))  # add hands one array to both
    g.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    before = b.grad.copy()
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, before)


def test_backward_grad_from_broadcast_view_is_owned(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with Graph() as g:
        loss = ad.tsum(x)  # its backward returns a read-only broadcast view
    g.backward(loss)
    assert x.grad.flags.writeable and x.grad.flags.owndata
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_tensor_used_twice_accumulates(rng):
    x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(4, 2))
    with Graph() as g:
        loss = ad.tsum(ad.mul(ad.mul(x, x), Tensor(w)))
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data * w)
