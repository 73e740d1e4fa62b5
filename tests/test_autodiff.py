import pathlib
import re

import numpy as np
import pytest

from capsaudio import autodiff as ad
from capsaudio.autodiff import Graph, Tensor
from capsaudio.capsnet import length_layer
from capsaudio.errors import NumericsFault, ShapeError
from capsaudio.gradcheck import CHECKS, _make_full_model, check_op, gradcheck, weighted_sum


def scale(x, c, name="scale"):
    """c * x as an op defined here, so the Graph tests need no library op."""
    return ad.apply_op(name, (x,), c * x.data, lambda g: (c * g,))


def total(x):
    """sum(x) as an op whose backward returns a read-only broadcast view."""
    return ad.apply_op("total", (x,), x.data.sum(),
                       lambda g: (np.broadcast_to(g, x.shape),))


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_forward_trips_fault():
    with pytest.raises(NumericsFault, match="op 'bad'"):
        ad.apply_op("bad", (Tensor([[1.0]]),), np.array([[np.inf]]), None)
    with pytest.raises(NumericsFault, match="op 'add'"):
        ad.add(Tensor([[1e308]]), Tensor([[1e308]]))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        y = ad.add(x, x)
    with pytest.raises(ShapeError):
        g.backward(y)


def test_no_recording_without_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.add(x, x)
    assert not y.requires_grad


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    with Graph() as g:
        y = total(ad.add(scale(x, 2.0), scale(x, 5.0)))  # x read by two ops
    g.backward(y)
    assert x.grad[0, 0] == 7.0


def test_backward_visits_reverse_recording_order():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        y = total(scale(ad.add(scale(x, 2.0, "a"), x), 3.0, "b"))
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
        total(ad.add(scale(x, -1.0), x))
    assert [n.name for n in g.nodes] == ["scale", "add", "total"]


def test_add_gradient_and_equal_shapes():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros((3, 4)), requires_grad=True)
    with Graph() as g:
        y = total(ad.add(a, b))
    g.backward(y)
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, np.ones((3, 4)))
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))  # no broadcasting


def test_l2norm_guarded_at_zero():
    # The length layer is the one vector norm; its backward is guarded at 0.
    x = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
    with Graph() as g:
        y = weighted_sum(length_layer(x))
    g.backward(y)
    assert [n.name for n in g.nodes] == ["l2norm", "weighted_sum"]
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_array_equal(x.grad, 0.0)


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
        "add", "batch_norm", "bilstm", "dropout", "dense", "attention", "mean_pool",
        "softmax_xent", "sigmoid_xent", "squash", "routing_1", "routing_3", "routing_5",
        "length", "margin_loss", "decoder_mae"]


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
    ("batch_norm", 3), ("bilstm", 7), ("dense", 3), ("attention", 3), ("routing_1", 2),
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
    with Graph() as g:
        loss = weighted_sum(ad.add(a, b))  # add hands one array to both
    g.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    before = b.grad.copy()
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, before)


def test_backward_grad_from_broadcast_view_is_owned(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with Graph() as g:
        loss = total(x)  # its backward returns a read-only broadcast view
    g.backward(loss)
    assert x.grad.flags.writeable and x.grad.flags.owndata
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_tensor_used_twice_accumulates(rng):
    x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    with Graph() as g:
        loss = total(ad.add(x, x))  # one array handed twice to one tensor
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full((4, 2), 2.0))
