"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

# Elements per block of the update: the ~14 elementwise ops of one block run
# in cache, rather than as ~14 passes over each parameter-sized array.
CHUNK = 32768

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba 2014) over named float64 parameters.

    The moments m and v are private to the optimizer and updated in place.
    Each parameter's array is replaced, never mutated: ``step`` writes the
    update into a new C-contiguous array, so snapshots taken between steps
    stay valid. The arithmetic is, element by element and rounded in this
    order, ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*(g*g)``
    and ``p - lr*(m/b1t) / (sqrt(v/b2t) + eps)``, with beta1, beta2 and eps
    the module constants ``BETA1``, ``BETA2`` and ``EPS``. The module constant
    ``CHUNK`` only sets how many elements each block of the walk covers;
    results do not depend on it.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0
        self._a = np.empty(CHUNK)
        self._b = np.empty(CHUNK)

    def step(self, params: dict[str, Tensor]) -> None:
        """One update over named parameters; missing grads count as zero.

        Gradients are cleared afterwards.
        """
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        c1, c2 = 1.0 - BETA1, 1.0 - BETA2
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros(p.data.shape)
                self.v[name] = np.zeros(p.data.shape)
            g = p.grad if p.grad is not None else np.zeros(p.data.shape)
            new = np.empty(p.data.shape)
            flat = [x.reshape(-1) for x in (p.data, g, self.m[name], self.v[name], new)]
            for lo in range(0, new.size, CHUNK):
                pc, gc, mc, vc, out = (x[lo:lo + CHUNK] for x in flat)
                a, b = self._a[: out.size], self._b[: out.size]
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
                np.multiply(b, self.lr, out=b)
                np.divide(b, a, out=b)
                np.subtract(pc, b, out=out)
            p.data = new
            p.grad = None
