"""Hot LSTM kernels in numpy, float64.

The per-timestep recurrence (forward) and backpropagation through time are
the only Python-level loops in the training path. Both kernels hoist the
input projection out of the time loop (one GEMM for all timesteps) and
batch the weight-gradient GEMMs after the backward recurrence; only the
recurrent h @ Wh products stay per-step. layers.BiLSTM looks the kernels
up through this module at call time, once per direction: lstm_forward
when the tape records the op (its backward needs every step's state),
lstm_hidden otherwise, which keeps no backward state.

All arrays are time-major: x is [T, B, I], outputs are [T, B, H]. The
forward writes each step's gates in place, gate-major: gates is
[T, 4, B, H] with i, f, g, o (input, forget, cell candidate, output)
along axis 1, stored post-activation for the backward pass. Weights and
biases keep i, f, g, o as column blocks of their 4H axis.
"""

import numpy as np

# Not an option: the only implementation. perfbench/run.py reports it.
ACTIVE_BACKEND = "numpy"


def _recur(x, Wx, Wh, b, keep):
    """h for every step; c and gates for every step when keep, else one
    slot that each step overwrites (the cell update reads c_prev from it
    elementwise before writing, so in place is exact)."""
    T, B, I = x.shape
    H = Wh.shape[0]
    n = T if keep else 1
    h = np.empty((T, B, H))
    c = np.empty((n, B, H))
    gates = np.empty((n, 4, B, H))
    xw = (x.reshape(T * B, I) @ Wx).reshape(T, B, 4, H).transpose(0, 2, 1, 3)
    hw = np.empty((B, 4 * H))
    hw4 = hw.reshape(B, 4, H).transpose(1, 0, 2)
    b4 = b.reshape(4, 1, H)
    tmp = np.empty((B, H))
    c_prev = np.zeros((B, H))
    for t in range(T):
        z = gates[t % n]
        if t == 0:
            np.add(xw[0], b4, out=z)
        else:
            np.matmul(h[t - 1], Wh, out=hw)
            np.add(xw[t], hw4, out=z)
            np.add(z, b4, out=z)
        for s in (z[:2], z[3]):  # i, f and o: 1 / (1 + exp(-z))
            np.negative(s, out=s)
            np.exp(s, out=s)
            np.add(s, 1.0, out=s)
            np.divide(1.0, s, out=s)
        np.tanh(z[2], out=z[2])
        ig, fg, gg, og = z
        c_t = c[t % n]
        np.multiply(fg, c_prev, out=c_t)
        np.multiply(ig, gg, out=tmp)
        np.add(c_t, tmp, out=c_t)
        np.tanh(c_t, out=tmp)
        np.multiply(og, tmp, out=h[t])
        c_prev = c_t
    return h, c, gates


def lstm_forward(x, Wx, Wh, b):
    """(h, c, gates) with every step's state kept for lstm_backward."""
    return _recur(x, Wx, Wh, b, keep=True)


def lstm_hidden(x, Wx, Wh, b):
    """h alone, bit-identical to lstm_forward's; keeps no backward state."""
    return _recur(x, Wx, Wh, b, keep=False)[0]


def lstm_backward(dh_out, x, Wx, Wh, h, c, gates):
    T, B, I = x.shape
    H = Wh.shape[0]
    dz_all = np.empty((T, B, 4 * H))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    zeros = np.zeros((B, H))
    WhT = Wh.T.copy()
    for t in range(T - 1, -1, -1):
        ig, fg, gg, og = gates[t]
        c_prev = c[t - 1] if t > 0 else zeros
        tc = np.tanh(c[t])
        dh = dh_out[t] + dh_next
        dc = dh * og * (1.0 - tc * tc) + dc_next
        dz = dz_all[t]
        dz[:, :H] = (dc * gg) * ig * (1.0 - ig)
        dz[:, H:2 * H] = (dc * c_prev) * fg * (1.0 - fg)
        dz[:, 2 * H:3 * H] = (dc * ig) * (1.0 - gg * gg)
        dz[:, 3 * H:] = (dh * tc) * og * (1.0 - og)
        dh_next = dz @ WhT
        dc_next = dc * fg
    dz_flat = dz_all.reshape(T * B, 4 * H)
    dx = (dz_flat @ Wx.T).reshape(T, B, I)
    dWx = x.reshape(T * B, I).T @ dz_flat
    dWh = np.zeros(Wh.shape)
    if T > 1:
        dWh += (h[:T - 1].reshape((T - 1) * B, H).T
                @ dz_all[1:].reshape((T - 1) * B, 4 * H))
    db = dz_flat.sum(axis=0)
    return dx, dWx, dWh, db
