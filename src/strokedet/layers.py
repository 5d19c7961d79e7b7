"""Sequence-model layers: forward passes and exact backpropagation in numpy.

All layers operate on float64 arrays shaped (batch, time, channels) and hold
no activations: `forward(x)` returns `(y, cache)`, a list the caller keeps of
what backward needs. A layer is built from the weight arrays it runs on and
reads its dimensions from their shapes; it holds those arrays, not copies, so
writing them in place updates the layer. Every layer exposes them as `params`
and its gradients as `grads`, dicts keyed by array name. `backward(gy, cache)`
takes the gradient w.r.t. the layer output and returns the gradient w.r.t.
the layer input while filling `grads`, in two parts that share the buffers
`out`, shaped per row as `reduce_shapes(t)` says for windows of t samples:
`backward_rows(gy, cache, out)` works row by row, empties `cache` as it
unpacks it, writes the reduction inputs into `out` (freeing the cached
arrays it is done with before each copy, and copying none that `forward`
built there) and returns the input gradient;
`reduce` fills `grads` from the `out` of a whole batch. `backward` allocates
`out` itself; row shards of a batch (`strokedet.shards`) run the first part
apart on their rows of arena buffers and leave the second to one process.
There `forward(x, out)` builds the cache in those buffers where it is a
reduction input, so that it is not held twice: the conv layer's padded
input and pre-activation, the dense layer's input. A GRU's time-major cache
is not, and a GRU ignores `out`.

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

# name -> (activation of the pre-activation a, gradient w.r.t. a given gy,
# written into `out`); an activation is a new array, never `a` itself, which
# backward may overwrite with its gradient
ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0.0),
             lambda a, gy, out: np.multiply(gy, a > 0.0, out=out)),
    "linear": (np.positive, lambda a, gy, out: np.positive(gy, out=out)),
}


def _activation(name: str) -> tuple:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}") from None


SIDES = ("fwd", "bwd")  # a BiGRU's directions, the prefixes of its array keys


def join_sides(*per_side: dict) -> dict:
    """One dict per direction, in `SIDES` order, as one dict keyed `<side>.<name>`."""
    return {f"{side}.{name}": v for side, arrays in zip(SIDES, per_side) for name, v in arrays.items()}


def split_sides(arrays: dict) -> tuple:
    """The per-direction dicts that `join_sides` joined, in `SIDES` order."""
    return tuple({key[len(side) + 1:]: v for key, v in arrays.items() if key.startswith(side + ".")}
                 for side in SIDES)


def _backward(self, gy: np.ndarray, cache: list) -> np.ndarray:
    """The per-row part and the reduction on new buffers: `gy` -> dx, filling `grads`."""
    b, t = gy.shape[:2]
    out = {name: np.empty((b,) + shape) for name, shape in self.reduce_shapes(t).items()}
    dx = self.backward_rows(gy, cache, out)
    self.reduce(out)
    return dx


class Conv1D:
    """Same-padded 1-D convolution over (batch, time, channels) with `kernel`
    (kernel_size, in_channels, out_channels) and `bias` (out_channels,)."""

    def __init__(self, kernel: np.ndarray, bias: np.ndarray, activation: str = "relu"):
        self.kernel_size, self.in_channels, self.out_channels = kernel.shape
        if self.kernel_size % 2 != 1:
            raise ConfigError(f"kernel size must be odd and positive, got {self.kernel_size}")
        self.activation = activation
        self._act, self._act_grad = _activation(activation)
        self.params = {"kernel": kernel, "bias": bias}
        self.grads = {}

    def forward(self, x: np.ndarray, out: dict | None = None) -> tuple:
        kernel = self.params["kernel"]
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ConfigError(
                f"conv1d expects (batch, time, {self.in_channels}), got {x.shape}"
            )
        b, t, _ = x.shape
        pad = (self.kernel_size - 1) // 2
        if out is None:
            xp = np.pad(x, ((0, 0), (pad, pad), (0, 0))) if pad else x
            a = np.empty((b, t, self.out_channels))
        else:  # backward overwrites the pre-activation with its gradient
            xp, a = out["xp"], out["da"]
            xp[:, :pad] = 0.0
            xp[:, pad:pad + t] = x
            xp[:, pad + t:] = 0.0
        a[...] = self.params["bias"]
        for j in range(self.kernel_size):
            a += xp[:, j:j + t] @ kernel[j]
        return self._act(a), [xp, a]

    def reduce_shapes(self, t: int) -> dict:
        return {"xp": (t + self.kernel_size - 1, self.in_channels), "da": (t, self.out_channels)}

    def backward_rows(self, gy: np.ndarray, cache: list, out: dict) -> np.ndarray:
        xp, a = cache
        cache.clear()
        kernel = self.params["kernel"]
        t = gy.shape[1]
        pad = (self.kernel_size - 1) // 2
        da = self._act_grad(a, gy, out["da"])
        del a  # freed before xp is copied
        if xp is not out["xp"]:
            np.copyto(out["xp"], xp)
        del xp  # freed before dxp is allocated
        dxp = np.zeros_like(out["xp"])
        for j in range(self.kernel_size):
            dxp[:, j:j + t] += da @ kernel[j].T
        return dxp[:, pad:pad + t] if pad else dxp

    def reduce(self, red: dict) -> None:
        xp, da = red["xp"], red["da"]
        t = da.shape[1]
        dkernel = np.empty_like(self.params["kernel"])
        for j in range(self.kernel_size):
            dkernel[j] = np.tensordot(xp[:, j:j + t], da, axes=([0, 1], [0, 1]))
        self.grads = {"kernel": dkernel, "bias": da.sum(axis=(0, 1))}

    backward = _backward


class DenseTimeDistributed:
    """Applies the same affine map, `weight` (in_channels, out_units) and
    `bias` (out_units,), independently at every time step."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str = "linear"):
        self.in_channels, self.out_units = weight.shape
        self.activation = activation
        self._act, self._act_grad = _activation(activation)
        self.params = {"weight": weight, "bias": bias}
        self.grads = {}

    def forward(self, x: np.ndarray, out: dict | None = None) -> tuple:
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ConfigError(
                f"dense(timedistributed) expects (batch, time, {self.in_channels}), got {x.shape}"
            )
        if out is not None:
            np.copyto(out["x"], x)
            x = out["x"]
        a = x @ self.params["weight"] + self.params["bias"]
        return self._act(a), [x, a]

    def reduce_shapes(self, t: int) -> dict:
        return {"x": (t, self.in_channels), "da": (t, self.out_units)}

    def backward_rows(self, gy: np.ndarray, cache: list, out: dict) -> np.ndarray:
        x, a = cache
        cache.clear()
        da = self._act_grad(a, gy, out["da"])
        if x is not out["x"]:
            np.copyto(out["x"], x)
        return da @ self.params["weight"].T

    def reduce(self, red: dict) -> None:
        x, da = red["x"], red["da"]
        b, t, _ = x.shape
        self.grads = {
            "weight": x.reshape(b * t, -1).T @ da.reshape(b * t, -1),
            "bias": da.sum(axis=(0, 1)),
        }

    backward = _backward


class GRU:
    """Unidirectional GRU returning the full hidden sequence, with input
    weights `W` (in_channels, 3h), recurrent weights `U` (h, 3h) and biases
    `bw` and `bu` (3h,)."""

    def __init__(self, W: np.ndarray, U: np.ndarray, bw: np.ndarray, bu: np.ndarray):
        self.in_channels, self.hidden = W.shape[0], U.shape[0]
        self.params = {"W": W, "U": U, "bw": bw, "bu": bu}
        self.grads = {}

    def forward(self, x: np.ndarray, out: dict | None = None) -> tuple:
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ConfigError(f"gru expects (batch, time, {self.in_channels}), got {x.shape}")
        b, t, _ = x.shape
        h = self.hidden
        U, bu = self.params["U"], self.params["bu"]
        g = np.empty((t, b, 3 * h))
        np.matmul(x, self.params["W"], out=g.transpose(1, 0, 2))
        g += self.params["bw"]
        hs = np.empty((t + 1, b, h))
        hs[0] = 0.0
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
        return hs[1:].transpose(1, 0, 2), [x, hs, g, ghn]

    def reduce_shapes(self, t: int) -> dict:
        h, h3 = self.hidden, 3 * self.hidden
        return {"x": (t, self.in_channels), "dgx": (t, h3), "hprev": (t, h), "dgh": (t, h3)}

    def backward_rows(self, gy: np.ndarray, cache: list, out: dict) -> np.ndarray:
        x, hs, g, ghn = cache
        cache.clear()
        b, t, h = gy.shape
        # a contiguous copy: a transposed view sends products of <= 18 rows
        # through a BLAS small-matrix kernel whose rows differ in the last
        # bits from the same rows of a larger product, and rows must not
        # depend on how a batch is cut into shards
        U_T = np.ascontiguousarray(self.params["U"].T)
        dgx, dgh = out["dgx"], out["dgh"]
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
        g = ghn = gs = z = r = n = gn = hp = None  # the gate cache goes before the copies
        np.copyto(out["x"], x)
        np.copyto(out["hprev"], hs[:-1].transpose(1, 0, 2))
        del x, hs  # freed before dx is allocated
        return dgx @ self.params["W"].T

    def reduce(self, red: dict) -> None:
        x, dgx, hprev, dgh = red["x"], red["dgx"], red["hprev"], red["dgh"]
        b, t, _ = dgx.shape
        bt = b * t
        self.grads = {
            "W": x.reshape(bt, -1).T @ dgx.reshape(bt, -1),
            "U": hprev.reshape(bt, -1).T @ dgh.reshape(bt, -1),
            "bw": dgx.sum(axis=(0, 1)),
            "bu": dgh.sum(axis=(0, 1)),
        }

    backward = _backward


class BiGRU:
    """Two GRUs over opposite time directions, hidden sequences concatenated.

    `params`, `grads` and the reduction buffers are flat like every other
    layer's, keyed by `join_sides`; each direction's GRU holds its arrays.
    """

    def __init__(self, params: dict):
        self.params = params
        self.fwd, self.bwd = (GRU(**arrays) for arrays in split_sides(params))
        self.in_channels, self.hidden = self.fwd.in_channels, self.fwd.hidden
        self.grads = {}

    def forward(self, x: np.ndarray, out: dict | None = None) -> tuple:
        yf, cf = self.fwd.forward(x)
        yb, cb = self.bwd.forward(x[:, ::-1])
        return np.concatenate([yf, yb[:, ::-1]], axis=2), [cf, cb]

    def reduce_shapes(self, t: int) -> dict:
        return join_sides(self.fwd.reduce_shapes(t), self.bwd.reduce_shapes(t))

    def backward_rows(self, gy: np.ndarray, cache: list, out: dict) -> np.ndarray:
        # cache is [forward GRU's, backward GRU's], and each GRU empties its own
        h = self.hidden
        outf, outb = split_sides(out)
        dxf = self.fwd.backward_rows(gy[:, :, :h], cache[0], outf)
        dxb = self.bwd.backward_rows(gy[:, ::-1, h:], cache[1], outb)
        return dxf + dxb[:, ::-1]

    def reduce(self, red: dict) -> None:
        for gru, side in zip((self.fwd, self.bwd), split_sides(red)):
            gru.reduce(side)
        self.grads = join_sides(self.fwd.grads, self.bwd.grads)

    def backward(self, gy: np.ndarray, cache: list) -> np.ndarray:
        # each direction reduces before the next one runs, so only one
        # direction's reduction buffers are alive at a time
        h = self.hidden
        dxf = self.fwd.backward(gy[:, :, :h], cache[0])
        dxb = self.bwd.backward(gy[:, ::-1, h:], cache[1])[:, ::-1]
        self.grads = join_sides(self.fwd.grads, self.bwd.grads)
        return dxf + dxb
