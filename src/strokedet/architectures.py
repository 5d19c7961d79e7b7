"""The eight sequence architectures: declarative specs, counts, init, forward.

Hidden conv layers use kernel size 3 with same padding and ReLU; the
terminating conv of the fully convolutional models uses a single-tap kernel
(kernel size 1) projecting to one linear output channel. GRU stacks end in a
time-distributed linear dense unit.

Two tables declare the models. `KINDS` defines each layer kind: each weight
array's shape and seeded draw (`LayerKind.arrays`, in draw order), its layer
constructor, its output width and its layer-table label. `ARCHITECTURES` maps
each of the eight names to its display name and its layer tuple. Three draws
cover every array: Glorot-uniform in side-by-side blocks (one per gate in a
GRU's `W`), per-gate orthogonal blocks (a GRU's `U`) and zeros (every bias).
A layer's parameter count is the sum of its shapes' sizes, computed without
allocating weights; the shapes sum to

    conv1d:   k*in*out + out
    dense:    in*out + out            (flatten mode: in = time*channels)
    gru:      3*h*(in+h) + 6*h        (reset-after, separate biases)
    bgru:     twice the gru count; the next layer sees 2*h input channels

A kind with no layer constructor can only be counted. The flatten-dense kind
is the one such kind: its one model, cnn_dense, holds ~513M parameters.

`Model` is the one execution path from windows to outputs and gradients:
it binds a params dict at construction, `as_windows` is its input contract,
`Model.predict` runs batched inference and `Model.mse_step` the forward ->
mean squared error -> backward step, each call through `shards.executor`,
which runs it row-sharded on worker processes, whatever the model's layers,
or hands back the `Model` itself on a host with no worker pool.
`training` calls into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import shards
from .errors import ConfigError, NumericError
from .layers import GRU, SIDES, BiGRU, Conv1D, DenseTimeDistributed, join_sides

INPUT_LENGTH = 1000

CONV1D = "conv1d"
DENSE_FLATTEN = "dense_flatten"
DENSE_TD = "dense_timedistributed"
GRU_KIND = "gru"
BGRU_KIND = "bgru"


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_channels: int
    out_units: int
    activation: str
    kernel_size: int = 0  # conv1d only


@dataclass(frozen=True)
class ArchitectureSpec:
    name: str
    layers: tuple
    input_length: int = INPUT_LENGTH


def canonical_name(name: str) -> str:
    key = name.strip().lower().replace("+", "_").replace("-", "_").replace(" ", "_")
    while "__" in key:
        key = key.replace("__", "_")
    return key


def _side_by_side(blocks: np.ndarray, shape) -> np.ndarray:
    """(blocks, *lead, w) as `shape`, (*lead, blocks * w), block b in columns [b*w, (b+1)*w)."""
    return np.moveaxis(blocks, 0, -2).reshape(shape)  # a view of one block: no copy


def _glorot(rng: np.random.Generator, shape, blocks: int = 1) -> np.ndarray:
    """Glorot-uniform in `blocks` side-by-side blocks, each with its own fans
    (fan_in + fan_out = receptive field * (rows + block columns))."""
    *lead, width = shape
    limit = np.sqrt(6.0 / (math.prod(lead[:-1]) * (lead[-1] + width // blocks)))
    return _side_by_side(rng.uniform(-limit, limit, size=(blocks, *lead, width // blocks)), shape)


def _orthogonal(rng: np.random.Generator, shape) -> np.ndarray:
    """(n, blocks * n): one sign-fixed orthogonal n x n block per gate."""
    n, width = shape
    q, r = np.linalg.qr(rng.standard_normal((width // n, n, n)))
    return _side_by_side(q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :], shape)


def _zeros(rng: np.random.Generator, shape) -> np.ndarray:
    return np.zeros(shape)


def _dense(fan_in: int, out: int) -> dict:
    return {"weight": ((fan_in, out), _glorot), "bias": ((out,), _zeros)}


def _gru(layer: LayerSpec) -> dict:
    cin, h = layer.in_channels, layer.out_units
    return {"W": ((cin, 3 * h), lambda rng, shape: _glorot(rng, shape, blocks=3)),
            "U": ((h, 3 * h), _orthogonal), "bw": ((3 * h,), _zeros), "bu": ((3 * h,), _zeros)}


@dataclass(frozen=True)
class LayerKind:
    """Everything one layer kind means."""

    label: str  # layer-table name
    arrays: Callable  # (LayerSpec, input_length) -> {array name: (shape, draw(rng, shape))}, in draw order
    build: Callable | None = None  # (LayerSpec, arrays by name) -> the `layers` object; None: counted only
    width: int = 1  # output channels per unit
    flattens: bool = False  # consumes the whole window: its table row follows a flatten row

    def shapes(self, layer: LayerSpec, input_length: int) -> dict:
        """{array name: shape}, nothing allocated."""
        return {name: shape for name, (shape, _) in self.arrays(layer, input_length).items()}


KINDS = {
    CONV1D: LayerKind(
        "conv1d",
        arrays=lambda l, n: {"kernel": ((l.kernel_size, l.in_channels, l.out_units), _glorot),
                             "bias": ((l.out_units,), _zeros)},
        build=lambda l, a: Conv1D(a["kernel"], a["bias"], l.activation),
    ),
    DENSE_FLATTEN: LayerKind("dense", arrays=lambda l, n: _dense(n * l.in_channels, l.out_units), flattens=True),
    DENSE_TD: LayerKind(
        "dense",
        arrays=lambda l, n: _dense(l.in_channels, l.out_units),
        build=lambda l, a: DenseTimeDistributed(a["weight"], a["bias"], l.activation),
    ),
    GRU_KIND: LayerKind("gru", arrays=lambda l, n: _gru(l), build=lambda l, a: GRU(**a)),
    BGRU_KIND: LayerKind(
        "bidirectional",
        arrays=lambda l, n: join_sides(*(_gru(l) for _ in SIDES)),
        build=lambda l, a: BiGRU(a),
        width=2,
    ),
}


def _conv_net(plan: tuple, head: LayerSpec | None = None) -> tuple:
    """Kernel-3 ReLU convs through the channel counts of `plan`, then `head`,
    by default the single-tap conv to one linear output channel."""
    chain = tuple(LayerSpec(CONV1D, cin, cout, "relu", kernel_size=3) for cin, cout in zip((1,) + plan, plan))
    return chain + (head or LayerSpec(CONV1D, plan[-1], 1, "linear", kernel_size=1),)


def _recurrent_net(kind: str, hidden: int, depth: int) -> tuple:
    """`depth` recurrent layers of `hidden` units, then the time-distributed linear unit."""
    width = KINDS[kind].width * hidden
    layers = tuple(LayerSpec(kind, width if i else 1, hidden, "tanh") for i in range(depth))
    return layers + (LayerSpec(DENSE_TD, width, 1, "linear"),)


_VGG_BASE = (64, 64, 128, 256, 512, 512)
_FLATTEN_HEAD = LayerSpec(DENSE_FLATTEN, _VGG_BASE[-1], INPUT_LENGTH, "linear")
ARCHITECTURES = {  # name -> (display name, layers)
    "cnn_dense": ("CNN+dense", _conv_net(_VGG_BASE, _FLATTEN_HEAD)),
    "cnnc1": ("CNNc1", _conv_net(_VGG_BASE)),
    "cnnc2": ("CNNc2", _conv_net((64, 64, 128, 128, 256, 256, 512, 512, 1024, 1024))),
    "cnnc3": ("CNNc3", _conv_net((64, 64, 64, 128, 128, 128, 256, 256, 256, 512, 512, 512, 1024, 1024, 1024))),
    "gruc1": ("GRUc1", _recurrent_net(GRU_KIND, 64, 2)),
    "bgruc1": ("BGRUc1", _recurrent_net(BGRU_KIND, 64, 2)),
    "bgruc2": ("BGRUc2", _recurrent_net(BGRU_KIND, 64, 4)),
    "bgruc3": ("BGRUc3", _recurrent_net(BGRU_KIND, 128, 4)),
}
DISPLAY_NAMES = {name: display for name, (display, _) in ARCHITECTURES.items()}
ARCHITECTURE_NAMES = tuple(ARCHITECTURES)


def build_architecture(name: str) -> ArchitectureSpec:
    """Layer list for one of the eight published model names."""
    key = canonical_name(name)
    if key not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {name!r}; known: {', '.join(ARCHITECTURE_NAMES)}")
    return ArchitectureSpec(name=key, layers=ARCHITECTURES[key][1])


def layer_kind(kind: str) -> LayerKind:
    try:
        return KINDS[kind]
    except KeyError:
        raise ConfigError(f"unknown layer kind {kind!r}") from None


def layer_param_count(layer: LayerSpec, input_length: int = INPUT_LENGTH) -> int:
    return sum(math.prod(shape) for shape in layer_kind(layer.kind).shapes(layer, input_length).values())


def layer_param_counts(spec: ArchitectureSpec) -> list:
    return [layer_param_count(layer, spec.input_length) for layer in spec.layers]


def count_params(spec: ArchitectureSpec) -> int:
    return sum(layer_param_counts(spec))


def architecture_table(spec: ArchitectureSpec) -> list:
    """Rows (layer label, output shape, param count, activation) plus a total row."""
    rows = []
    counters = {}
    for layer in spec.layers:
        kind = layer_kind(layer.kind)
        idx = counters.get(layer.kind, 0)
        counters[layer.kind] = idx + 1
        label = kind.label + (f"_{idx}" if idx else "")
        n_params = layer_param_count(layer, spec.input_length)
        if kind.flattens:
            rows.append(("flatten", f"(None, {spec.input_length * layer.in_channels})", 0, "-"))
            shape = f"(None, {layer.out_units})"
        else:
            shape = f"(None, {spec.input_length}, {kind.width * layer.out_units})"
        rows.append((label, shape, n_params, layer.activation))
    return rows


# --- parameter allocation and the assembled model ---------------------------

def layer_prefix(index: int, layer: LayerSpec) -> str:
    return f"layer{index:02d}.{layer.kind}"


def _refuse_count_only(spec: ArchitectureSpec) -> None:
    """ConfigError for a spec that can only be counted: one with a layer kind
    that has no layer constructor."""
    if any(layer_kind(l.kind).build is None for l in spec.layers):
        total = count_params(spec)
        raise ConfigError(
            f"{spec.name} holds {total:,} parameters: {8 * total / 1e9:.1f} GB of float64 "
            f"weights and at least {32 * total / 1e9:.1f} GB to train; it can only be counted"
        )


def init_params(spec: ArchitectureSpec, seed: int) -> dict:
    """Seeded weight arrays for every layer, keyed by '<layer prefix>.<array>',
    drawn in the order of each kind's `arrays`. A spec that can only be
    counted is refused."""
    _refuse_count_only(spec)
    rng = np.random.default_rng(seed)
    return {f"{layer_prefix(i, layer)}.{key}": draw(rng, shape) for i, layer in enumerate(spec.layers)
            for key, (shape, draw) in layer_kind(layer.kind).arrays(layer, spec.input_length).items()}


def as_windows(windows) -> np.ndarray:
    """(n, time) or (n, time, 1) windows as the float64 (n, time, 1) model input."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3 or x.shape[2] != 1:
        raise ConfigError(f"windows must be (n, time) or (n, time, 1), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("non-finite values in model input")
    return x


class Model:
    """Layer objects built from a spec and the arrays of `params`, whose names
    and shapes are checked against each kind's `shapes` (shared, not copied:
    updating `params` in place updates the model). A spec that can only be
    counted is refused before any layer is built."""

    def __init__(self, spec: ArchitectureSpec, params: dict):
        _refuse_count_only(spec)
        self.spec = spec
        self.caches = []
        self.prefixes = [layer_prefix(i, layer) for i, layer in enumerate(spec.layers)]
        shapes = [layer_kind(layer.kind).shapes(layer, spec.input_length) for layer in spec.layers]
        expected = {f"{prefix}.{key}" for prefix, table in zip(self.prefixes, shapes) for key in table}
        if expected != set(params):
            missing = expected - set(params)
            extra = set(params) - expected
            raise ConfigError(
                f"params do not match {spec.name}: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        self.layers = []
        for layer, prefix, table in zip(spec.layers, self.prefixes, shapes):
            arrays = {key: np.asarray(params[f"{prefix}.{key}"], dtype=np.float64) for key in table}
            for key, shape in table.items():
                if arrays[key].shape != shape:
                    raise ConfigError(f"{prefix}.{key}: expected shape {shape}, got {arrays[key].shape}")
            self.layers.append(layer_kind(layer.kind).build(layer, arrays))

    def named_params(self):
        """(name, bound array) pairs in layer order."""
        return [(f"{prefix}.{key}", value) for prefix, obj in zip(self.prefixes, self.layers)
                for key, value in obj.params.items()]

    def forward(self, x: np.ndarray, batch_size: int | None = None,
                outs: list | None = None) -> np.ndarray:
        """(batch, time, 1) -> (batch, time) model output, in the
        `shards.chunk_bounds` chunks of `batch_size`; with None (training) in
        one chunk, whose layer caches `caches` keeps for `backward`. `outs`,
        one reduction buffer dict per layer as `backward` takes them, lets
        each layer build its cache there."""
        self.caches = []  # drops what a step with a non-finite loss left
        chunks = []
        for lo, hi in shards.chunk_bounds(len(x), batch_size):
            y = x[lo:hi]
            for i, obj in enumerate(self.layers):
                y, cache = obj.forward(y) if outs is None else obj.forward(y, outs[i])
                if batch_size is None:
                    self.caches.append(cache)
                del cache  # a prediction's dies here, before the next layer runs
            chunks.append(y[:, :, 0])
        return np.concatenate(chunks)

    def backward(self, gy: np.ndarray, outs: list | None = None) -> np.ndarray:
        """Backpropagates `gy`, (batch, time), through the last training
        `forward`, popping each layer's cache as the layer takes it.

        Without `outs` each layer's `backward` also reduces its weight
        gradients, on buffers it allocates; with `outs`, one buffer dict per
        layer, each layer's `backward_rows` only fills its dict for `reduce`.
        """
        g = gy[:, :, None]
        for i in reversed(range(len(self.layers))):
            obj, cache = self.layers[i], self.caches.pop()
            g = obj.backward(g, cache) if outs is None else obj.backward_rows(g, cache, outs[i])
        return g

    def gradients(self) -> dict:
        return {f"{prefix}.{key}": value for prefix, obj in zip(self.prefixes, self.layers)
                for key, value in obj.grads.items()}

    def predict(self, windows, batch_size: int) -> np.ndarray:
        """Outputs (n, time) for windows accepted by `as_windows`, in one
        executor call: the rows are cut across the worker processes, and
        each process runs at most about `batch_size` rows at once (see
        `shards.chunk_bounds`)."""
        if batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        x = as_windows(windows)
        if not len(x):
            return np.empty(x.shape[:2])
        with shards.executor(self, len(x)) as run:
            return run.forward(x, batch_size=batch_size)

    def mse_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error of the batch `x` against `y`, (batch, time).

        When the loss is finite, also backpropagates it, filling `gradients()`.
        """
        with shards.executor(self, len(x)) as run:
            pred = run.forward(x)
            loss = float(np.mean((pred - y) ** 2))
            if np.isfinite(loss):
                run.backward(2.0 * (pred - y) / pred.size)
        return loss

