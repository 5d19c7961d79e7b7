"""Sequence-model layers: forward passes and exact backpropagation in numpy.

All layers operate on float64 arrays shaped (batch, time, channels) and keep
whatever caches the backward pass needs. Every layer exposes `params` and
`grads` dicts keyed by array name; `backward` consumes the gradient w.r.t. the
layer output and returns the gradient w.r.t. the layer input while filling
`grads`.

The GRU uses the reset-after gate formulation with separate input and
recurrent biases (parameter count per direction: 3*h*(in+h) + 6*h):

    z = sigmoid(x W_z + bw_z + h U_z + bu_z)
    r = sigmoid(x W_r + bw_r + h U_r + bu_r)
    n = tanh(x W_n + bw_n + r * (h U_n + bu_n))
    h' = z * h + (1 - z) * n

Gate blocks are stored in column order (z, r, n) inside combined matrices
W (in, 3h) and U (h, 3h).

GRU caches are time-major, so each step reads and writes contiguous blocks.
`forward` writes the input projection x W + bw once into `g` (time, batch, 3h)
and step by step overwrites `g[step]` in place with that step's gates
(z, r, n); `hs` (time + 1, batch, h) holds the state entering each step, and
`ghn` the recurrent n-gate term h U_n + bu_n. The output is the
(batch, time, h) view `hs[1:].transpose(1, 0, 2)`; backward reads the gates
from `g` and the previous states from `hs[:-1]`. Every elementwise operation
runs in the same order as a per-step batch-major formulation, so results are
bit-identical to it (tests/test_layers.py keeps that formulation as the
reference). The sigmoid stays scipy's `expit`: the tanh identity and
1 / (1 + exp(-x)) are cheaper but change bits.

BiGRU runs its two directions concurrently: the reverse one on a long-lived
helper thread, the forward one on the caller's thread. numpy and OpenBLAS
release the GIL, so the recurrences overlap on two cores, and each direction
does the same arithmetic as when run alone. Backward stays serial: running
the directions' backward concurrently raised the peak memory of BGRUc1
training by ~100 MB (~15%) and was no faster.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import expit as _sigmoid

from .errors import ConfigError

# name -> (activation of the pre-activation a, gradient w.r.t. a given gy)
ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda a, gy: gy * (a > 0.0)),
    "linear": (lambda a: a, lambda a, gy: gy),
}

# Runs BiGRU's reverse direction. One long-lived thread rather than one per
# call: threads started per call raised peak memory in some benchmark runs.
_REVERSE = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bigru-reverse")


def _activation(name: str) -> tuple:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}") from None


class Conv1D:
    """Same-padded 1-D convolution over (batch, time, channels)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 activation: str = "relu"):
        if kernel_size % 2 != 1 or kernel_size < 1:
            raise ConfigError(f"kernel size must be odd and positive, got {kernel_size}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.activation = activation
        self._act, self._act_grad = _activation(activation)
        self.params = {
            "kernel": np.zeros((kernel_size, in_channels, out_channels)),
            "bias": np.zeros(out_channels),
        }
        self.grads = {}
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        kernel = self.params["kernel"]
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ConfigError(
                f"conv1d expects (batch, time, {self.in_channels}), got {x.shape}"
            )
        b, t, _ = x.shape
        pad = (self.kernel_size - 1) // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0))) if pad else x
        a = np.broadcast_to(self.params["bias"], (b, t, self.out_channels)).copy()
        for j in range(self.kernel_size):
            a += xp[:, j:j + t] @ kernel[j]
        self._cache = (xp, a)
        return self._act(a)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        xp, a = self._cache
        kernel = self.params["kernel"]
        b, t, _ = gy.shape
        pad = (self.kernel_size - 1) // 2
        da = self._act_grad(a, gy)
        dkernel = np.empty_like(kernel)
        dxp = np.zeros_like(xp)
        for j in range(self.kernel_size):
            dkernel[j] = np.tensordot(xp[:, j:j + t], da, axes=([0, 1], [0, 1]))
            dxp[:, j:j + t] += da @ kernel[j].T
        self.grads = {"kernel": dkernel, "bias": da.sum(axis=(0, 1))}
        return dxp[:, pad:pad + t] if pad else dxp


class DenseFlatten:
    """Flattens (time, channels) and applies one affine map across the whole window."""

    def __init__(self, in_time: int, in_channels: int, out_units: int, activation: str = "linear"):
        self.in_time = in_time
        self.in_channels = in_channels
        self.out_units = out_units
        self.activation = activation
        self._act, self._act_grad = _activation(activation)
        self.params = {
            "weight": np.zeros((in_time * in_channels, out_units)),
            "bias": np.zeros(out_units),
        }
        self.grads = {}
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1:] != (self.in_time, self.in_channels):
            raise ConfigError(
                f"dense(flatten) expects (batch, {self.in_time}, {self.in_channels}), got {x.shape}"
            )
        b = x.shape[0]
        xf = x.reshape(b, -1)
        a = xf @ self.params["weight"] + self.params["bias"]
        self._cache = (xf, a)
        return self._act(a).reshape(b, self.out_units, 1)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        xf, a = self._cache
        b = gy.shape[0]
        da = self._act_grad(a, gy.reshape(b, self.out_units))
        self.grads = {"weight": xf.T @ da, "bias": da.sum(axis=0)}
        dx = da @ self.params["weight"].T
        return dx.reshape(b, self.in_time, self.in_channels)


class DenseTimeDistributed:
    """Applies the same affine map independently at every time step."""

    def __init__(self, in_channels: int, out_units: int, activation: str = "linear"):
        self.in_channels = in_channels
        self.out_units = out_units
        self.activation = activation
        self._act, self._act_grad = _activation(activation)
        self.params = {
            "weight": np.zeros((in_channels, out_units)),
            "bias": np.zeros(out_units),
        }
        self.grads = {}
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ConfigError(
                f"dense(timedistributed) expects (batch, time, {self.in_channels}), got {x.shape}"
            )
        a = x @ self.params["weight"] + self.params["bias"]
        self._cache = (x, a)
        return self._act(a)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        x, a = self._cache
        da = self._act_grad(a, gy)
        b, t, _ = x.shape
        self.grads = {
            "weight": x.reshape(b * t, -1).T @ da.reshape(b * t, -1),
            "bias": da.sum(axis=(0, 1)),
        }
        return da @ self.params["weight"].T


class GRU:
    """Unidirectional GRU returning the full hidden sequence."""

    def __init__(self, in_channels: int, hidden: int):
        self.in_channels = in_channels
        self.hidden = hidden
        h = hidden
        self.params = {
            "W": np.zeros((in_channels, 3 * h)),
            "U": np.zeros((h, 3 * h)),
            "bw": np.zeros(3 * h),
            "bu": np.zeros(3 * h),
        }
        self.grads = {}
        self._cache = None

    def forward(self, x: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ConfigError(f"gru expects (batch, time, {self.in_channels}), got {x.shape}")
        b, t, _ = x.shape
        h = self.hidden
        U, bu = self.params["U"], self.params["bu"]
        g = np.empty((t, b, 3 * h))
        np.matmul(x, self.params["W"], out=g.transpose(1, 0, 2))
        g += self.params["bw"]
        hs = np.empty((t + 1, b, h))
        hs[0] = 0.0 if h0 is None else h0
        ghn = np.empty((t, b, h))
        gh = np.empty((b, 3 * h))
        tmp = np.empty((b, h))
        for step in range(t):
            np.matmul(hs[step], U, out=gh)
            gh += bu
            zr, n = g[step, :, :2 * h], g[step, :, 2 * h:]
            zr += gh[:, :2 * h]
            _sigmoid(zr, out=zr)
            z, r = zr[:, :h], zr[:, h:]
            ghn[step] = gh[:, 2 * h:]
            n += np.multiply(r, ghn[step], out=tmp)
            np.tanh(n, out=n)
            np.multiply(z, hs[step], out=hs[step + 1])
            np.subtract(1.0, z, out=tmp)
            tmp *= n
            hs[step + 1] += tmp
        self._cache = (x, hs, g, ghn)
        return hs[1:].transpose(1, 0, 2)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        x, hs, g, ghn = self._cache
        b, t, h = gy.shape
        U = self.params["U"]
        dgx = np.empty((b, t, 3 * h))
        dgh = np.empty((b, t, 3 * h))
        dh = np.zeros((b, h))
        for step in range(t - 1, -1, -1):
            dht = gy[:, step] + dh
            gs = g[step]
            z, r, n, hp, gn = gs[:, :h], gs[:, h:2 * h], gs[:, 2 * h:], hs[step], ghn[step]
            dz = dht * (hp - n)
            dn = dht * (1.0 - z)
            dh = dht * z
            dan = dn * (1.0 - n * n)
            dr = dan * gn
            daz = dz * z * (1.0 - z)
            dar = dr * r * (1.0 - r)
            dgx[:, step, :h] = daz
            dgx[:, step, h:2 * h] = dar
            dgx[:, step, 2 * h:] = dan
            dgh[:, step, :h] = daz
            dgh[:, step, h:2 * h] = dar
            dgh[:, step, 2 * h:] = dan * r
            dh += dgh[:, step] @ U.T
        bt = b * t
        hprev = hs[:-1].transpose(1, 0, 2)
        self.grads = {
            "W": x.reshape(bt, -1).T @ dgx.reshape(bt, -1),
            "U": hprev.reshape(bt, -1).T @ dgh.reshape(bt, -1),
            "bw": dgx.sum(axis=(0, 1)),
            "bu": dgh.sum(axis=(0, 1)),
        }
        return dgx @ self.params["W"].T


class BiGRU:
    """Two GRUs over opposite time directions, hidden sequences concatenated.

    `params` and `grads` are flat like every other layer's, keyed
    `fwd.<array>` and `bwd.<array>`; `forward` hands each direction its arrays.
    """

    def __init__(self, in_channels: int, hidden: int):
        self.in_channels = in_channels
        self.hidden = hidden
        self.fwd = GRU(in_channels, hidden)
        self.bwd = GRU(in_channels, hidden)
        self.params = {f"{side}.{k}": v for side, gru in self._sides() for k, v in gru.params.items()}
        self.grads = {}

    def _sides(self):
        return (("fwd", self.fwd), ("bwd", self.bwd))

    def forward(self, x: np.ndarray) -> np.ndarray:
        for side, gru in self._sides():
            gru.params = {k: self.params[f"{side}.{k}"] for k in gru.params}
        reverse = _REVERSE.submit(self.bwd.forward, x[:, ::-1])
        try:
            yf = self.fwd.forward(x)
        finally:
            # wait for the reverse direction even when the forward one raised,
            # so the layer's caches are settled and no error is dropped
            yb = reverse.result()[:, ::-1]
        return np.concatenate([yf, yb], axis=2)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        h = self.hidden
        dxf = self.fwd.backward(gy[:, :, :h])
        dxb = self.bwd.backward(gy[:, ::-1, h:])[:, ::-1]
        self.grads = {f"{side}.{k}": v for side, gru in self._sides() for k, v in gru.grads.items()}
        return dxf + dxb
