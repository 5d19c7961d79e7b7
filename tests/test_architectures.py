"""Exact parameter-count fidelity for the eight published architectures."""

import numpy as np
import pytest

from strokedet.architectures import (
    KINDS,
    ArchitectureSpec,
    LayerSpec,
    Model,
    architecture_table,
    build_architecture,
    canonical_name,
    count_params,
    init_params,
    layer_param_counts,
    layer_prefix,
)
from strokedet.errors import ConfigError

# Frozen per-layer parameter cells. cnn_dense's zero-parameter flatten stage
# is part of its dense_flatten layer here, so its cell list omits the 0 row.
PER_LAYER = {
    "cnn_dense": [256, 12352, 24704, 98560, 393728, 786944, 512001000],
    "cnnc1": [256, 12352, 24704, 98560, 393728, 786944, 513],
    "cnnc2": [256, 12352, 24704, 49280, 98560, 196864, 393728, 786944, 1573888, 3146752, 1025],
    "cnnc3": [256, 12352, 12352, 24704, 49280, 49280, 98560, 196864, 196864,
              393728, 786944, 786944, 1573888, 3146752, 3146752, 1025],
    "gruc1": [12864, 24960, 65],
    "bgruc1": [25728, 74496, 129],
    "bgruc2": [25728, 74496, 74496, 74496, 129],
    "bgruc3": [100608, 296448, 296448, 296448, 257],
}

TOTALS = {
    "cnn_dense": 513_317_544,
    "cnnc1": 1_317_057,
    "cnnc2": 6_284_353,
    "cnnc3": 10_476_545,
    "gruc1": 37_889,
    "bgruc1": 100_353,
    "bgruc2": 249_345,
    "bgruc3": 990_209,
}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_total_param_counts(name):
    assert count_params(build_architecture(name)) == TOTALS[name]


@pytest.mark.parametrize("name", sorted(PER_LAYER))
def test_per_layer_param_counts(name):
    assert layer_param_counts(build_architecture(name)) == PER_LAYER[name]


def test_name_normalization():
    assert canonical_name("CNN+dense") == "cnn_dense"
    assert canonical_name("BGRUc2") == "bgruc2"
    assert count_params(build_architecture("CNN+dense")) == TOTALS["cnn_dense"]


def test_unknown_name_rejected():
    with pytest.raises(ConfigError):
        build_architecture("lstm")


def test_cnnc1_structure():
    spec = build_architecture("cnnc1")
    assert len(spec.layers) == 7
    assert all(l.kind == "conv1d" for l in spec.layers)
    assert [l.kernel_size for l in spec.layers] == [3] * 6 + [1]
    assert spec.layers[-1].out_units == 1 and spec.layers[-1].activation == "linear"
    assert all(l.activation == "relu" for l in spec.layers[:-1])


def test_gruc1_structure():
    spec = build_architecture("gruc1")
    assert [l.kind for l in spec.layers] == ["gru", "gru", "dense_timedistributed"]
    assert [l.out_units for l in spec.layers] == [64, 64, 1]


def test_bgruc3_structure():
    spec = build_architecture("bgruc3")
    assert [l.kind for l in spec.layers] == ["bgru"] * 4 + ["dense_timedistributed"]
    assert all(l.out_units == 128 for l in spec.layers[:4])
    assert spec.layers[1].in_channels == 256  # concatenated directions


def test_counts_without_allocation():
    # the dense-head CNN must be countable without touching its ~4 GB of weights
    spec = build_architecture("cnn_dense")
    assert count_params(spec) == TOTALS["cnn_dense"]
    with pytest.raises(ConfigError, match=r"4\.1 GB of float64 weights and at least 16\.4 GB to train"):
        init_params(spec, seed=0)


def test_init_params_shapes_and_determinism():
    spec = build_architecture("gruc1")
    a = init_params(spec, seed=4)
    b = init_params(spec, seed=4)
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    assert a["layer00.gru.W"].shape == (1, 192)
    assert a["layer00.gru.U"].shape == (64, 192)
    assert a["layer02.dense_timedistributed.weight"].shape == (64, 1)
    total = sum(v.size for v in a.values())
    assert total == TOTALS["gruc1"]


def test_init_param_sizes_match_counts_all_small_archs():
    for name in ("cnnc1", "gruc1", "bgruc1", "bgruc2", "bgruc3"):
        spec = build_architecture(name)
        params = init_params(spec, seed=0)
        assert sum(v.size for v in params.values()) == TOTALS[name]


@pytest.mark.parametrize("name", sorted(set(TOTALS) - {"cnn_dense"}))
def test_init_params_match_the_shape_table(name):
    spec = build_architecture(name)
    expected = {f"{layer_prefix(i, layer)}.{key}": shape for i, layer in enumerate(spec.layers)
                for key, shape in KINDS[layer.kind].shapes(layer, spec.input_length).items()}
    assert {key: value.shape for key, value in init_params(spec, seed=0).items()} == expected


@pytest.mark.parametrize("name, key", [
    ("cnnc1", "layer00.conv1d.kernel"),
    ("cnnc1", "layer06.conv1d.bias"),
    ("gruc1", "layer02.dense_timedistributed.weight"),
])
def test_wrong_shape_refused(name, key):
    spec = build_architecture(name)
    params = init_params(spec, seed=0)
    params[key] = np.zeros(params[key].shape + (1,))
    with pytest.raises(ConfigError, match=f"{key}: expected shape"):
        Model(spec, params)


def test_architecture_table_includes_flatten_row():
    rows = architecture_table(build_architecture("cnn_dense"))
    labels = [r[0] for r in rows]
    assert "flatten" in labels
    flat = rows[labels.index("flatten")]
    assert flat[1] == "(None, 512000)" and flat[2] == 0
    assert sum(r[2] for r in rows) == TOTALS["cnn_dense"]


def test_flatten_dense_kind_is_counted_only():
    spec = ArchitectureSpec("flat", (LayerSpec("dense_flatten", 2, 3, "linear"),), input_length=4)
    assert count_params(spec) == 4 * 2 * 3 + 3
    with pytest.raises(ConfigError, match="can only be counted"):
        init_params(spec, 0)
    with pytest.raises(ConfigError, match="can only be counted"):
        Model(spec, {})


def test_custom_spec_counting():
    spec = ArchitectureSpec(
        name="tiny",
        layers=(
            LayerSpec("gru", 1, 8, "tanh"),
            LayerSpec("dense_timedistributed", 8, 1, "linear"),
        ),
    )
    assert count_params(spec) == 3 * 8 * (1 + 8) + 6 * 8 + 9
