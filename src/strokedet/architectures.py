"""The eight sequence architectures: declarative specs, counts, init, forward.

Hidden conv layers use kernel size 3 with same padding and ReLU; the
terminating conv of the fully convolutional models uses a single-tap kernel
(kernel size 1) projecting to one linear output channel. GRU stacks end in a
time-distributed linear dense unit.

`KINDS` is the one place that defines a layer kind: its closed-form parameter
count, its seeded init, its layer constructor, its output width and its
layer-table label. Counts are computed without allocating weights:

    conv1d:   k*in*out + out
    dense:    in*out + out            (flatten mode: in = time*channels)
    gru:      3*h*(in+h) + 6*h        (reset-after, separate biases)
    bgru:     twice the gru count; the next layer sees 2*h input channels

`Model` is the one execution path from windows to outputs and gradients:
it binds a params dict at construction, `as_windows` is its input contract,
`Model.predict` runs batched inference and `Model.mse_step` the forward ->
mean squared error -> backward step, each batch through `shards.executor`,
which runs the calls of recurrent models row-sharded on worker processes.
`training`, `model_forward` and `mse_loss_and_grads` all call into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import shards
from .errors import ConfigError, NumericError
from .layers import GRU, BiGRU, Conv1D, DenseFlatten, DenseTimeDistributed

INPUT_LENGTH = 1000

CONV1D = "conv1d"
DENSE_FLATTEN = "dense_flatten"
DENSE_TD = "dense_timedistributed"
GRU_KIND = "gru"
BGRU_KIND = "bgru"

# Allocating more than this many parameters requires an explicit opt-in
# (the dense-head CNN holds ~513M doubles, ~4 GB).
LARGE_PARAM_THRESHOLD = 50_000_000

DISPLAY_NAMES = {
    "cnn_dense": "CNN+dense",
    "cnnc1": "CNNc1",
    "cnnc2": "CNNc2",
    "cnnc3": "CNNc3",
    "gruc1": "GRUc1",
    "bgruc1": "BGRUc1",
    "bgruc2": "BGRUc2",
    "bgruc3": "BGRUc3",
}

ARCHITECTURE_NAMES = tuple(DISPLAY_NAMES)


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


def _conv_chain(plan: tuple) -> list:
    return [LayerSpec(CONV1D, cin, cout, "relu", kernel_size=3) for cin, cout in zip((1,) + plan, plan)]


def _recurrent_stack(kind: str, hidden: int, depth: int) -> list:
    width = KINDS[kind].width * hidden
    layers = [LayerSpec(kind, width if i else 1, hidden, "tanh") for i in range(depth)]
    return layers + [LayerSpec(DENSE_TD, width, 1, "linear")]


_VGG_BASE = (64, 64, 128, 256, 512, 512)
_CONV_PLANS = {
    "cnnc1": _VGG_BASE,
    "cnnc2": (64, 64, 128, 128, 256, 256, 512, 512, 1024, 1024),
    "cnnc3": (64, 64, 64, 128, 128, 128, 256, 256, 256, 512, 512, 512, 1024, 1024, 1024),
}
_RECURRENT_PLANS = {  # (kind, hidden units, recurrent layers)
    "gruc1": (GRU_KIND, 64, 2),
    "bgruc1": (BGRU_KIND, 64, 2),
    "bgruc2": (BGRU_KIND, 64, 4),
    "bgruc3": (BGRU_KIND, 128, 4),
}


def build_architecture(name: str) -> ArchitectureSpec:
    """Layer list for one of the eight published model names."""
    key = canonical_name(name)
    if key == "cnn_dense":
        layers = _conv_chain(_VGG_BASE)
        layers.append(LayerSpec(DENSE_FLATTEN, _VGG_BASE[-1], INPUT_LENGTH, "linear"))
    elif key in _CONV_PLANS:
        plan = _CONV_PLANS[key]
        layers = _conv_chain(plan)
        layers.append(LayerSpec(CONV1D, plan[-1], 1, "linear", kernel_size=1))
    elif key in _RECURRENT_PLANS:
        layers = _recurrent_stack(*_RECURRENT_PLANS[key])
    else:
        raise ConfigError(
            f"unknown architecture {name!r}; known: {', '.join(ARCHITECTURE_NAMES)}"
        )
    return ArchitectureSpec(name=key, layers=tuple(layers))


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def _dense_arrays(rng, fan_in: int, out: int) -> dict:
    return {"weight": _glorot_uniform(rng, fan_in, out, (fan_in, out)), "bias": np.zeros(out)}


def _conv_arrays(rng, layer: LayerSpec, input_length: int) -> dict:
    k, cin, cout = layer.kernel_size, layer.in_channels, layer.out_units
    return {"kernel": _glorot_uniform(rng, k * cin, k * cout, (k, cin, cout)), "bias": np.zeros(cout)}


def _gru_count(in_channels: int, h: int) -> int:
    return 3 * h * (in_channels + h) + 6 * h


def _gru_arrays(rng, in_channels: int, h: int) -> dict:
    W = np.concatenate(
        [_glorot_uniform(rng, in_channels, h, (in_channels, h)) for _ in range(3)], axis=1
    )
    U = np.concatenate([_orthogonal(rng, h) for _ in range(3)], axis=1)
    return {"W": W, "U": U, "bw": np.zeros(3 * h), "bu": np.zeros(3 * h)}


def _bgru_arrays(rng, layer: LayerSpec, input_length: int) -> dict:
    arrays = {}
    for side in ("fwd", "bwd"):
        gru = _gru_arrays(rng, layer.in_channels, layer.out_units)
        arrays.update({f"{side}.{k}": v for k, v in gru.items()})
    return arrays


@dataclass(frozen=True)
class LayerKind:
    """Everything one layer kind means; each callable takes (LayerSpec, input_length)."""

    label: str  # layer-table name
    count: Callable  # closed-form parameter count, nothing allocated
    init: Callable  # (rng, ...) -> seeded arrays by name, drawn in a fixed order
    build: Callable  # -> the layer object from `layers`
    width: int = 1  # output channels per unit
    flattens: bool = False  # consumes the whole window: its table row follows a flatten row
    kernel: bool = False  # uses LayerSpec.kernel_size
    recurrent: bool = False  # steps through time; see `shardable`


KINDS = {
    CONV1D: LayerKind(
        "conv1d",
        count=lambda l, n: l.kernel_size * l.in_channels * l.out_units + l.out_units,
        init=_conv_arrays,
        build=lambda l, n: Conv1D(l.in_channels, l.out_units, l.kernel_size, l.activation),
        kernel=True,
    ),
    DENSE_FLATTEN: LayerKind(
        "dense",
        count=lambda l, n: n * l.in_channels * l.out_units + l.out_units,
        init=lambda rng, l, n: _dense_arrays(rng, n * l.in_channels, l.out_units),
        build=lambda l, n: DenseFlatten(n, l.in_channels, l.out_units, l.activation),
        flattens=True,
    ),
    DENSE_TD: LayerKind(
        "dense",
        count=lambda l, n: l.in_channels * l.out_units + l.out_units,
        init=lambda rng, l, n: _dense_arrays(rng, l.in_channels, l.out_units),
        build=lambda l, n: DenseTimeDistributed(l.in_channels, l.out_units, l.activation),
    ),
    GRU_KIND: LayerKind(
        "gru",
        count=lambda l, n: _gru_count(l.in_channels, l.out_units),
        init=lambda rng, l, n: _gru_arrays(rng, l.in_channels, l.out_units),
        build=lambda l, n: GRU(l.in_channels, l.out_units),
        recurrent=True,
    ),
    BGRU_KIND: LayerKind(
        "bidirectional",
        count=lambda l, n: 2 * _gru_count(l.in_channels, l.out_units),
        init=_bgru_arrays,
        build=lambda l, n: BiGRU(l.in_channels, l.out_units),
        width=2,
        recurrent=True,
    ),
}


def layer_kind(kind: str) -> LayerKind:
    try:
        return KINDS[kind]
    except KeyError:
        raise ConfigError(f"unknown layer kind {kind!r}") from None


def layer_param_count(layer: LayerSpec, input_length: int = INPUT_LENGTH) -> int:
    return layer_kind(layer.kind).count(layer, input_length)


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
        n_params = kind.count(layer, spec.input_length)
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


def init_params(spec: ArchitectureSpec, seed: int, allow_large: bool = False) -> dict:
    """Seeded weight arrays for every layer, keyed by '<layer prefix>.<array>'.

    Glorot-uniform input/dense/conv weights, per-gate orthogonal recurrent
    weights, zero biases. Architectures above LARGE_PARAM_THRESHOLD parameters
    are refused unless allow_large is set.
    """
    total = count_params(spec)
    if total > LARGE_PARAM_THRESHOLD and not allow_large:
        raise ConfigError(
            f"{spec.name} holds {total:,} parameters; pass allow_large to materialize it"
        )
    rng = np.random.default_rng(seed)
    params = {}
    for i, layer in enumerate(spec.layers):
        prefix = layer_prefix(i, layer)
        arrays = layer_kind(layer.kind).init(rng, layer, spec.input_length)
        params.update({f"{prefix}.{k}": v for k, v in arrays.items()})
    return params


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
    """Layer objects assembled from a spec, bound to the arrays of `params`
    (shared, not copied: updating `params` in place updates the model)."""

    def __init__(self, spec: ArchitectureSpec, params: dict):
        self.spec = spec
        self.layers = [layer_kind(layer.kind).build(layer, spec.input_length) for layer in spec.layers]
        self.prefixes = [layer_prefix(i, layer) for i, layer in enumerate(spec.layers)]
        expected = {f"{prefix}.{key}" for prefix, obj in zip(self.prefixes, self.layers) for key in obj.params}
        if expected != set(params):
            missing = expected - set(params)
            extra = set(params) - expected
            raise ConfigError(
                f"params do not match {spec.name}: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for prefix, obj in zip(self.prefixes, self.layers):
            for key in list(obj.params):
                value = np.asarray(params[f"{prefix}.{key}"], dtype=np.float64)
                if value.shape != obj.params[key].shape:
                    raise ConfigError(
                        f"{prefix}.{key}: expected shape {obj.params[key].shape}, got {value.shape}"
                    )
                obj.params[key] = value

    def named_params(self):
        """(name, bound array) pairs in layer order."""
        return [(f"{prefix}.{key}", value) for prefix, obj in zip(self.prefixes, self.layers)
                for key, value in obj.params.items()]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(batch, time, 1) -> (batch, time) model output."""
        for obj in self.layers:
            x = obj.forward(x)
        return x[:, :, 0]

    def backward(self, gy: np.ndarray, outs: list | None = None) -> np.ndarray:
        """Backpropagates `gy`, (batch, time), through the last `forward`.

        Without `outs` each layer reduces its weight gradients as it goes.
        With `outs`, one dict of buffers per layer shaped as `reduce_shapes`
        says, each layer only copies its reduction inputs there for `reduce`.
        """
        g = gy[:, :, None]
        for i in reversed(range(len(self.layers))):
            obj = self.layers[i]
            g = obj.backward(g) if outs is None else obj.backward_rows(g, outs[i])[0]
        return g

    def reduce_shapes(self) -> list:
        """Per layer, the per-row shapes of its reduction inputs after `forward`."""
        return [obj.reduce_shapes() for obj in self.layers]

    def gradients(self) -> dict:
        return {f"{prefix}.{key}": value for prefix, obj in zip(self.prefixes, self.layers)
                for key, value in obj.grads.items()}

    def _executor(self, rows: int):
        return shards.executor(self, rows, shardable(self.spec))

    def predict(self, windows, batch_size: int) -> np.ndarray:
        """Outputs (n, time) for windows accepted by `as_windows`, `batch_size` at a time."""
        if batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        x = as_windows(windows)
        outputs = []
        for lo in range(0, len(x), batch_size):
            xb = x[lo:lo + batch_size]
            with self._executor(len(xb)) as run:
                outputs.append(run.forward(xb))
        return np.concatenate(outputs, axis=0) if outputs else np.empty(x.shape[:2])

    def mse_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error of the batch `x` against `y`, (batch, time).

        When the loss is finite, also backpropagates it, filling `gradients()`.
        """
        with self._executor(len(x)) as run:
            pred = run.forward(x, train=True)
            loss = float(np.mean((pred - y) ** 2))
            if np.isfinite(loss):
                run.backward(2.0 * (pred - y) / pred.size)
        return loss


def shardable(spec: ArchitectureSpec) -> bool:
    """Whether calls of `spec` run row-sharded on worker processes.

    Only models with a recurrent layer do. The GRU recurrence is a long chain
    of small steps that hold the GIL, so one process per core overlaps it.
    Conv layers are a few large BLAS products that BLAS threads already
    spread over every core; sharding them would only add copies and a
    second set of activations per worker.
    """
    return any(layer_kind(layer.kind).recurrent for layer in spec.layers)


def model_forward(spec: ArchitectureSpec, params: dict, window) -> np.ndarray:
    """One value per sample for a single (time,) or (time, 1) window."""
    return Model(spec, params).predict(np.asarray(window)[None], batch_size=1)[0]


def mse_loss_and_grads(spec: ArchitectureSpec, params: dict, window, target):
    """Mean squared error over the window and gradients for every parameter."""
    x = as_windows(np.asarray(window)[None])
    y = np.asarray(target, dtype=np.float64)
    if y.shape != (x.shape[1],):
        raise ConfigError(f"target shape {y.shape} does not match window length {x.shape[1]}")
    model = Model(spec, params)
    loss = model.mse_step(x, y[None])
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss in {spec.name} forward pass")
    grads = model.gradients()
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}")
    return loss, grads
