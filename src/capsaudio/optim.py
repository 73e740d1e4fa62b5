"""Adam optimizer with bias correction."""

from __future__ import annotations

import functools
import threading

import numpy as np

from . import blas
from .autodiff import Tensor

# Elements per block of the update: the ~14 elementwise ops of one block run
# in cache, rather than as ~14 passes over each parameter-sized array.
CHUNK = 32768

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# At most this many threads walk one step's blocks. The split was measured
# only on 2 vCPUs, where two threads took desk-sized Adam from ~38 to ~23 ms;
# more threads, each taking the interpreter lock for every one of its ufunc
# calls, are unmeasured.
MAX_THREADS = 2


def _walk(blocks, lr: float, b1t: float, b2t: float) -> None:
    """The update over blocks, each (flat p, g, m, v and new views, lo):
    m and v are updated in place and new[lo:lo + CHUNK] is written."""
    buf_a, buf_b = np.empty(CHUNK), np.empty(CHUNK)
    c1, c2 = 1.0 - BETA1, 1.0 - BETA2
    for flat, lo in blocks:
        pc, gc, mc, vc, out = (x[lo:lo + CHUNK] for x in flat)
        a, b = buf_a[: out.size], buf_b[: out.size]
        np.multiply(mc, BETA1, out=mc)
        np.multiply(gc, c1, out=a)
        np.add(mc, a, out=mc)
        np.multiply(vc, BETA2, out=vc)
        np.multiply(gc, gc, out=a)
        np.multiply(a, c2, out=a)
        np.add(vc, a, out=vc)
        np.divide(vc, b2t, out=a)
        np.sqrt(a, out=a)
        np.add(a, EPS, out=a)
        np.divide(mc, b1t, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(pc, b, out=out)


def _shares(blocks, n: int):
    """blocks cut into n contiguous runs of about equal element count."""
    ends = np.cumsum([min(CHUNK, flat[0].size - lo) for flat, lo in blocks])
    cuts = [0, *(int(np.searchsorted(ends, ends[-1] * k / n)) + 1 for k in range(1, n)),
            len(blocks)]
    return [blocks[i:j] for i, j in zip(cuts, cuts[1:])]


class Adam:
    """Adam (Kingma & Ba 2014) over named float64 parameters.

    The moments m and v are private to the optimizer and updated in place.
    Each parameter's array is replaced, never mutated: ``step`` writes the
    update into a new C-contiguous array, so snapshots taken between steps
    stay valid. The arithmetic is, element by element and rounded in this
    order, ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*(g*g)``
    and ``p - lr*(m/b1t) / (sqrt(v/b2t) + eps)``, with beta1, beta2 and eps
    the module constants ``BETA1``, ``BETA2`` and ``EPS``. The module constant
    ``CHUNK`` only sets how many elements each block of the walk covers, and
    ``step`` walks the blocks on up to ``MAX_THREADS`` threads when BLAS has
    more than one; results depend neither on ``CHUNK`` nor on how many threads
    walk the blocks.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, Tensor]) -> None:
        """One update over named parameters; missing grads count as zero.

        Gradients are cleared afterwards. With n = min(blas.threads(),
        MAX_THREADS) > 1, at least two blocks' worth of elements, and no
        other Python thread alive, BLAS's idle workers are parked and the
        blocks are walked in n contiguous shares: this thread walks the first,
        and a thread started for this step each other one. Otherwise this
        thread walks them all.
        """
        self.t += 1
        walk = functools.partial(_walk, lr=self.lr, b1t=1.0 - BETA1 ** self.t,
                                 b2t=1.0 - BETA2 ** self.t)
        news, blocks = [], []
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros(p.data.shape)
                self.v[name] = np.zeros(p.data.shape)
            g = p.grad if p.grad is not None else np.zeros(p.data.shape)
            new = np.empty(p.data.shape)
            flat = [x.reshape(-1) for x in (p.data, g, self.m[name], self.v[name], new)]
            blocks += [(flat, lo) for lo in range(0, new.size, CHUNK)]
            news.append(new)
        n = min(blas.threads() or 1, MAX_THREADS)
        total = sum(new.size for new in news)
        if n > 1 and total >= 2 * CHUNK and threading.active_count() == 1:
            # blas_thread_shutdown_ must not run while another thread may be in BLAS.
            blas.park()
            first, *rest = _shares(blocks, n)
            errors = []

            def walk_share(share):
                try:
                    walk(share)
                except Exception as e:  # raised on this thread once all have ended
                    errors.append(e)

            helpers = [threading.Thread(target=walk_share, args=(share,), name="adam-walk")
                       for share in rest]
            for helper in helpers:
                helper.start()
            try:
                walk(first)
            finally:
                for helper in helpers:
                    helper.join()
            if errors:
                raise errors[0]
        else:
            walk(blocks)
        for p, new in zip(params.values(), news):
            p.data = new
            p.grad = None
