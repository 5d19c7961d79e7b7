"""Sequence-model layers: forward passes and exact backpropagation in numpy.

All layers operate on float64 arrays shaped (batch, time, channels) and keep
whatever caches the backward pass needs. Every layer exposes `params` and
`grads` dicts keyed by array name; `backward` consumes the gradient w.r.t. the
layer output and returns the gradient w.r.t. the layer input while filling
`grads`. It runs two parts: `backward_rows`, which works row by row and
returns the input gradient with the reduction inputs (optionally copied into
caller buffers shaped by `reduce_shapes`), and `reduce`, which fills `grads`
from reduction inputs of a whole batch. Row shards of a batch can run the
first part apart (`strokedet.shards`) and leave the second to one process.

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

BiGRU runs its two directions one after the other on the caller's thread:
the shard workers already use every core, and a second thread per worker
only oversubscribes them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit as _sigmoid

from .errors import ConfigError

# name -> (activation of the pre-activation a, gradient w.r.t. a given gy)
ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda a, gy: gy * (a > 0.0)),
    "linear": (lambda a: a, lambda a, gy: gy),
}


def _activation(name: str) -> tuple:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}") from None


def _reduction_inputs(out: dict | None, **arrays) -> dict:
    """`arrays` as they are, or copied into the same-named buffers of `out`."""
    if out is None:
        return arrays
    for name, value in arrays.items():
        np.copyto(out[name], value)
    return {name: out[name] for name in arrays}


def _backward(self, gy: np.ndarray) -> np.ndarray:
    """The per-row part and the reduction run together: `gy` -> dx, filling `grads`."""
    dx, red = self.backward_rows(gy)
    self.reduce(red)
    return dx


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

    def reduce_shapes(self) -> dict:
        xp, a = self._cache
        return {"xp": xp.shape[1:], "da": a.shape[1:]}

    def backward_rows(self, gy: np.ndarray, out: dict | None = None) -> tuple:
        xp, a = self._cache
        kernel = self.params["kernel"]
        t = gy.shape[1]
        pad = (self.kernel_size - 1) // 2
        da = self._act_grad(a, gy)
        dxp = np.zeros_like(xp)
        for j in range(self.kernel_size):
            dxp[:, j:j + t] += da @ kernel[j].T
        return (dxp[:, pad:pad + t] if pad else dxp), _reduction_inputs(out, xp=xp, da=da)

    def reduce(self, red: dict) -> None:
        xp, da = red["xp"], red["da"]
        t = da.shape[1]
        dkernel = np.empty_like(self.params["kernel"])
        for j in range(self.kernel_size):
            dkernel[j] = np.tensordot(xp[:, j:j + t], da, axes=([0, 1], [0, 1]))
        self.grads = {"kernel": dkernel, "bias": da.sum(axis=(0, 1))}

    backward = _backward


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

    def reduce_shapes(self) -> dict:
        xf, a = self._cache
        return {"xf": xf.shape[1:], "da": a.shape[1:]}

    def backward_rows(self, gy: np.ndarray, out: dict | None = None) -> tuple:
        xf, a = self._cache
        b = gy.shape[0]
        da = self._act_grad(a, gy.reshape(b, self.out_units))
        dx = da @ self.params["weight"].T
        return dx.reshape(b, self.in_time, self.in_channels), _reduction_inputs(out, xf=xf, da=da)

    def reduce(self, red: dict) -> None:
        xf, da = red["xf"], red["da"]
        self.grads = {"weight": xf.T @ da, "bias": da.sum(axis=0)}

    backward = _backward


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

    def reduce_shapes(self) -> dict:
        x, a = self._cache
        return {"x": x.shape[1:], "da": a.shape[1:]}

    def backward_rows(self, gy: np.ndarray, out: dict | None = None) -> tuple:
        x, a = self._cache
        da = self._act_grad(a, gy)
        return da @ self.params["weight"].T, _reduction_inputs(out, x=x, da=da)

    def reduce(self, red: dict) -> None:
        x, da = red["x"], red["da"]
        b, t, _ = x.shape
        self.grads = {
            "weight": x.reshape(b * t, -1).T @ da.reshape(b * t, -1),
            "bias": da.sum(axis=(0, 1)),
        }

    backward = _backward


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

    def reduce_shapes(self) -> dict:
        x, hs, g, _ = self._cache
        t, _, h3 = g.shape
        return {"x": x.shape[1:], "dgx": (t, h3), "hprev": (t, hs.shape[2]), "dgh": (t, h3)}

    def backward_rows(self, gy: np.ndarray, out: dict | None = None) -> tuple:
        x, hs, g, ghn = self._cache
        b, t, h = gy.shape
        # a contiguous copy: a transposed view sends products of <= 18 rows
        # through a BLAS small-matrix kernel whose rows differ in the last
        # bits from the same rows of a larger product, and rows must not
        # depend on how a batch is cut into shards
        U_T = np.ascontiguousarray(self.params["U"].T)
        dgx = np.empty((b, t, 3 * h)) if out is None else out["dgx"]
        dgh = np.empty((b, t, 3 * h)) if out is None else out["dgh"]
        dht, dz, dn, omz, tmp = (np.empty((b, h)) for _ in range(5))
        dh = np.zeros((b, h))
        for step in range(t - 1, -1, -1):
            np.add(gy[:, step], dh, out=dht)
            gs = g[step]
            z, r, n, hp, gn = gs[:, :h], gs[:, h:2 * h], gs[:, 2 * h:], hs[step], ghn[step]
            daz, dar, dan = dgx[:, step, :h], dgx[:, step, h:2 * h], dgx[:, step, 2 * h:]
            np.subtract(hp, n, out=dz)
            dz *= dht
            np.subtract(1.0, z, out=omz)
            np.multiply(dht, omz, out=dn)
            np.multiply(dht, z, out=dh)
            np.multiply(n, n, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dn, tmp, out=dan)
            np.multiply(dan, gn, out=tmp)  # dr
            np.multiply(dz, z, out=daz)
            daz *= omz
            np.multiply(tmp, r, out=dar)
            np.subtract(1.0, r, out=tmp)
            dar *= tmp
            dgh[:, step, :2 * h] = dgx[:, step, :2 * h]
            np.multiply(dan, r, out=dgh[:, step, 2 * h:])
            dh += np.matmul(dgh[:, step], U_T, out=tmp)
        red = _reduction_inputs(out, x=x, hprev=hs[:-1].transpose(1, 0, 2))
        return dgx @ self.params["W"].T, {**red, "dgx": dgx, "dgh": dgh}

    def reduce(self, red: dict) -> None:
        x, dgx, hprev, dgh = red["x"], red["dgx"], red["hprev"], red["dgh"]
        b, t, _ = dgx.shape
        bt = b * t
        # in C order, as a worker's buffer holds it: a one-row reversed input
        # reshapes to a negative-stride view, whose product avoids BLAS and
        # differs in the last bits
        self.grads = {
            "W": np.ascontiguousarray(x).reshape(bt, -1).T @ dgx.reshape(bt, -1),
            "U": hprev.reshape(bt, -1).T @ dgh.reshape(bt, -1),
            "bw": dgx.sum(axis=(0, 1)),
            "bu": dgh.sum(axis=(0, 1)),
        }

    backward = _backward


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

    def reduce_shapes(self) -> dict:
        return {f"{side}.{k}": v for side, gru in self._sides() for k, v in gru.reduce_shapes().items()}

    def _split(self, red: dict | None, side: str) -> dict | None:
        return None if red is None else {k[len(side) + 1:]: v for k, v in red.items() if k.startswith(side + ".")}

    def backward_rows(self, gy: np.ndarray, out: dict | None = None) -> tuple:
        h = self.hidden
        dxf, redf = self.fwd.backward_rows(gy[:, :, :h], self._split(out, "fwd"))
        dxb, redb = self.bwd.backward_rows(gy[:, ::-1, h:], self._split(out, "bwd"))
        red = {**{f"fwd.{k}": v for k, v in redf.items()}, **{f"bwd.{k}": v for k, v in redb.items()}}
        return dxf + dxb[:, ::-1], red

    def reduce(self, red: dict) -> None:
        for side, gru in self._sides():
            gru.reduce(self._split(red, side))
        self._collect_grads()

    def _collect_grads(self) -> None:
        self.grads = {f"{side}.{k}": v for side, gru in self._sides() for k, v in gru.grads.items()}

    def backward(self, gy: np.ndarray) -> np.ndarray:
        # each direction reduces before the next one runs, so only one
        # direction's reduction inputs are alive at a time
        h = self.hidden
        dxf = self.fwd.backward(gy[:, :, :h])
        dxb = self.bwd.backward(gy[:, ::-1, h:])[:, ::-1]
        self._collect_grads()
        return dxf + dxb
