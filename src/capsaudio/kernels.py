"""Hot LSTM kernels in numpy, float64.

The per-timestep recurrence (forward) and backpropagation through time are
the only Python-level loops in the training path. Both kernels hoist the
input projection out of the time loop (one GEMM for all timesteps) and
batch the weight-gradient GEMMs after the backward recurrence; only the
recurrent h @ Wh products stay per-step. layers.BiLSTM looks both kernels
up through this module at call time, once per direction.

All arrays are time-major: x is [T, B, I], outputs are [T, B, H]. Gate
layout along the last axis is i, f, g, o (input, forget, cell candidate,
output), stored post-activation for the backward pass.
"""

import numpy as np

# Not an option: the only implementation. perfbench/run.py reports it.
ACTIVE_BACKEND = "numpy"


def lstm_forward(x, Wx, Wh, b):
    T, B, I = x.shape
    H = Wh.shape[0]
    h = np.zeros((T, B, H))
    c = np.zeros((T, B, H))
    gates = np.zeros((T, B, 4 * H))
    xw = (x.reshape(T * B, I) @ Wx).reshape(T, B, 4 * H)
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    for t in range(T):
        z = xw[t] + b if t == 0 else xw[t] + h_prev @ Wh + b
        ig = 1.0 / (1.0 + np.exp(-z[:, :H]))
        fg = 1.0 / (1.0 + np.exp(-z[:, H:2 * H]))
        gg = np.tanh(z[:, 2 * H:3 * H])
        og = 1.0 / (1.0 + np.exp(-z[:, 3 * H:]))
        c_t = fg * c_prev + ig * gg
        gates[t, :, :H] = ig
        gates[t, :, H:2 * H] = fg
        gates[t, :, 2 * H:3 * H] = gg
        gates[t, :, 3 * H:] = og
        c[t] = c_t
        h[t] = og * np.tanh(c_t)
        h_prev = h[t]
        c_prev = c_t
    return h, c, gates


def lstm_backward(dh_out, x, Wx, Wh, h, c, gates):
    T, B, I = x.shape
    H = Wh.shape[0]
    dz_all = np.empty((T, B, 4 * H))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    zeros = np.zeros((B, H))
    WhT = Wh.T.copy()
    for t in range(T - 1, -1, -1):
        ig = gates[t, :, :H]
        fg = gates[t, :, H:2 * H]
        gg = gates[t, :, 2 * H:3 * H]
        og = gates[t, :, 3 * H:]
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
