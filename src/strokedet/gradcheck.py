"""Central finite-difference verification of every layer's backward pass.

For a single layer wrapped in an MSE head, compares analytic gradients against
(f(p+eps) - f(p-eps)) / (2*eps) for every parameter entry and every input
entry. Relative error uses |a - n| / max(|a|, |n|, 1e-3): the floor turns the
comparison into an absolute one where both gradients are tiny, which is where
central differences bottom out near 1e-10.
"""

from __future__ import annotations

import numpy as np

from .architectures import KINDS, LayerSpec, layer_kind as _lookup_kind
from .errors import ConfigError
from .layers import Conv1D

LAYER_KINDS = tuple(kind for kind, entry in KINDS.items() if entry.build)

_REL_FLOOR = 1e-3


def _make_layer(kind: str, shape):
    """The layer object for `shape`, on zero arrays, and its input (time, channels).

    Kinds with a kernel are checked through a ReLU, whose kink is the hard
    case for finite differences; the others through their linear map.
    """
    entry = _lookup_kind(kind)
    t, cin, out, *k = shape
    spec = LayerSpec(kind, cin, out, "relu" if entry.kernel else "linear",
                     kernel_size=k[0] if k else 0)
    return entry.build(spec, {name: np.zeros(s) for name, s in entry.shapes(spec, t).items()}), (t, cin)


def _randomize(layer, rng):
    for value in layer.params.values():
        value[...] = rng.uniform(-1.0, 1.0, size=value.shape)


def _loss(layer, x, target):
    out, _ = layer.forward(x)
    return float(np.mean((out - target) ** 2))


def _relu_margin(layer, x) -> float:
    """Smallest |pre-activation| seen; FD steps must not cross a ReLU kink."""
    if not (isinstance(layer, Conv1D) and layer.activation == "relu"):
        return np.inf
    _, (_, a) = layer.forward(x)
    return float(np.abs(a).min())


def gradient_check(layer_kind: str, shape, seed: int, epsilon: float = 1e-4) -> float:
    """Max relative error between analytic and central-FD gradients.

    `shape` is (time, in_channels, out_channels, kernel_size) for conv1d,
    (time, in_channels, out_units) for dense, and
    (time, in_channels, hidden) for gru/bgru. Covers every parameter entry and
    every input entry. For ReLU layers, draws are retried until all
    pre-activations sit well clear of the kink.
    """
    rng = np.random.default_rng(seed)
    layer, (t, cin) = _make_layer(layer_kind, shape)
    x = None
    for _ in range(50):
        _randomize(layer, rng)
        x = rng.uniform(-1.0, 1.0, size=(1, t, cin))
        if _relu_margin(layer, x) > 10.0 * epsilon:
            break
    else:
        raise ConfigError(f"could not find a kink-free draw for {layer_kind} {shape}")

    out, cache = layer.forward(x)
    target = rng.uniform(-1.0, 1.0, size=out.shape)
    gy = 2.0 * (out - target) / out.size
    dx = layer.backward(gy, cache)

    worst = 0.0

    def compare(array, analytic):
        nonlocal worst
        flat = array.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = _loss(layer, x, target)
            flat[i] = orig - epsilon
            lo = _loss(layer, x, target)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * epsilon)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
            worst = max(worst, err)

    for name, array in layer.params.items():
        compare(array, layer.grads[name])
    compare(x, dx)
    return worst


def random_toy_shape(layer_kind: str, rng) -> tuple:
    """Toy shapes (time <= 8, channels <= 4) for randomized gradient checks."""
    t = int(rng.integers(3, 9))
    cin = int(rng.integers(1, 5))
    cout = int(rng.integers(1, 5))
    if _lookup_kind(layer_kind).kernel:
        return (t, cin, cout, int(rng.choice([1, 3])))
    return (t, cin, cout)
