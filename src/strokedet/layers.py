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
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit as _sigmoid

from .errors import ConfigError

ACTIVATIONS = ("relu", "tanh", "linear")


def _check_activation(name: str) -> str:
    if name not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {name!r}")
    return name


def _apply_activation(name: str, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "tanh":
        return np.tanh(a)
    return a


def _activation_grad(name: str, a: np.ndarray, y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    if name == "relu":
        return gy * (a > 0.0)
    if name == "tanh":
        return gy * (1.0 - y * y)
    return gy


class Conv1D:
    """Same-padded 1-D convolution over (batch, time, channels)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 activation: str = "relu"):
        if kernel_size % 2 != 1 or kernel_size < 1:
            raise ConfigError(f"kernel size must be odd and positive, got {kernel_size}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.activation = _check_activation(activation)
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
        y = _apply_activation(self.activation, a)
        self._cache = (xp, a, y)
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        xp, a, y = self._cache
        kernel = self.params["kernel"]
        b, t, _ = gy.shape
        pad = (self.kernel_size - 1) // 2
        da = _activation_grad(self.activation, a, y, gy)
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
        self.activation = _check_activation(activation)
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
        y = _apply_activation(self.activation, a)
        self._cache = (xf, a, y)
        return y.reshape(b, self.out_units, 1)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        xf, a, y = self._cache
        b = gy.shape[0]
        da = _activation_grad(self.activation, a, y, gy.reshape(b, self.out_units))
        self.grads = {"weight": xf.T @ da, "bias": da.sum(axis=0)}
        dx = da @ self.params["weight"].T
        return dx.reshape(b, self.in_time, self.in_channels)


class DenseTimeDistributed:
    """Applies the same affine map independently at every time step."""

    def __init__(self, in_channels: int, out_units: int, activation: str = "linear"):
        self.in_channels = in_channels
        self.out_units = out_units
        self.activation = _check_activation(activation)
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
        y = _apply_activation(self.activation, a)
        self._cache = (x, a, y)
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        x, a, y = self._cache
        da = _activation_grad(self.activation, a, y, gy)
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
        gx = x @ self.params["W"] + self.params["bw"]
        U, bu = self.params["U"], self.params["bu"]
        hidden = np.zeros((b, h)) if h0 is None else np.broadcast_to(h0, (b, h)).astype(np.float64)
        hprev = np.empty((b, t, h))
        zs = np.empty((b, t, h))
        rs = np.empty((b, t, h))
        ns = np.empty((b, t, h))
        ghn = np.empty((b, t, h))
        out = np.empty((b, t, h))
        for step in range(t):
            gh = hidden @ U + bu
            zr = _sigmoid(gx[:, step, :2 * h] + gh[:, :2 * h])
            z = zr[:, :h]
            r = zr[:, h:]
            n = np.tanh(gx[:, step, 2 * h:] + r * gh[:, 2 * h:])
            hprev[:, step] = hidden
            zs[:, step] = z
            rs[:, step] = r
            ns[:, step] = n
            ghn[:, step] = gh[:, 2 * h:]
            hidden = z * hidden + (1.0 - z) * n
            out[:, step] = hidden
        self._cache = (x, hprev, zs, rs, ns, ghn)
        return out

    def backward(self, gy: np.ndarray) -> np.ndarray:
        x, hprev, zs, rs, ns, ghn = self._cache
        b, t, h = gy.shape
        U = self.params["U"]
        dgx = np.empty((b, t, 3 * h))
        dgh = np.empty((b, t, 3 * h))
        dh = np.zeros((b, h))
        for step in range(t - 1, -1, -1):
            dht = gy[:, step] + dh
            z, r, n, hp, gn = zs[:, step], rs[:, step], ns[:, step], hprev[:, step], ghn[:, step]
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
        yf = self.fwd.forward(x)
        yb = self.bwd.forward(x[:, ::-1])[:, ::-1]
        return np.concatenate([yf, yb], axis=2)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        h = self.hidden
        dxf = self.fwd.backward(gy[:, :, :h])
        dxb = self.bwd.backward(gy[:, ::-1, h:])[:, ::-1]
        self.grads = {f"{side}.{k}": v for side, gru in self._sides() for k, v in gru.grads.items()}
        return dxf + dxb
