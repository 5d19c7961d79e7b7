"""Forward-pass oracles for every layer kind plus model composition."""

import numpy as np
import pytest
from scipy.special import expit

from strokedet.architectures import (
    ArchitectureSpec,
    LayerSpec,
    Model,
    build_architecture,
    count_params,
    init_params,
)
from strokedet.errors import ConfigError, NumericError
from strokedet.layers import GRU, BiGRU, Conv1D, DenseTimeDistributed, join_sides


def gru_params(rng, cin, h):
    return {
        "W": rng.uniform(-1, 1, (cin, 3 * h)),
        "U": rng.uniform(-1, 1, (h, 3 * h)),
        "bw": rng.uniform(-1, 1, 3 * h),
        "bu": rng.uniform(-1, 1, 3 * h),
    }


def reference_gru_forward(params, x):
    """Per-step GRU with batch-major caches: the exact operation order `GRU` keeps."""
    b, t, _ = x.shape
    h = params["U"].shape[0]
    gx = x @ params["W"] + params["bw"]
    hidden = np.zeros((b, h))
    cache = {key: np.empty((b, t, h)) for key in ("hprev", "z", "r", "n", "ghn")}
    out = np.empty((b, t, h))
    for step in range(t):
        gh = hidden @ params["U"] + params["bu"]
        zr = expit(gx[:, step, :2 * h] + gh[:, :2 * h])
        z, r = zr[:, :h], zr[:, h:]
        n = np.tanh(gx[:, step, 2 * h:] + r * gh[:, 2 * h:])
        for key, value in (("hprev", hidden), ("z", z), ("r", r), ("n", n), ("ghn", gh[:, 2 * h:])):
            cache[key][:, step] = value
        hidden = z * hidden + (1.0 - z) * n
        out[:, step] = hidden
    return out, cache


def reference_gru_backward(params, x, cache, gy):
    """(dx, grads) for `reference_gru_forward`, one step at a time."""
    b, t, h = gy.shape
    U_T = np.ascontiguousarray(params["U"].T)
    dgx = np.empty((b, t, 3 * h))
    dgh = np.empty((b, t, 3 * h))
    dh = np.zeros((b, h))
    for step in range(t - 1, -1, -1):
        dht = gy[:, step] + dh
        z, r, n, hp, gn = (cache[key][:, step] for key in ("z", "r", "n", "hprev", "ghn"))
        dz = dht * (hp - n)
        dn = dht * (1.0 - z)
        dh = dht * z
        dan = dn * (1.0 - n * n)
        dr = dan * gn
        daz = dz * z * (1.0 - z)
        dar = dr * r * (1.0 - r)
        dgx[:, step] = np.concatenate([daz, dar, dan], axis=1)
        dgh[:, step] = np.concatenate([daz, dar, dan * r], axis=1)
        dh += dgh[:, step] @ U_T
    bt = b * t
    grads = {
        "W": x.reshape(bt, -1).T @ dgx.reshape(bt, -1),
        "U": cache["hprev"].reshape(bt, -1).T @ dgh.reshape(bt, -1),
        "bw": dgx.sum(axis=(0, 1)),
        "bu": dgh.sum(axis=(0, 1)),
    }
    return dgx @ params["W"].T, grads


def run(layer, x):
    """One (time, channels) window through a batch-first layer."""
    y, _ = layer.forward(np.asarray(x, dtype=np.float64)[None])
    return y[0]


def gru_zeros(cin, h):
    return {"W": np.zeros((cin, 3 * h)), "U": np.zeros((h, 3 * h)), "bw": np.zeros(3 * h), "bu": np.zeros(3 * h)}


def make_bigru(fwd_params, bwd_params):
    return BiGRU(join_sides(fwd_params, bwd_params))


class TestConv1dForward:
    def test_zero_kernel_zero_output(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        out = run(Conv1D(np.zeros((3, 3, 2)), np.zeros(2), activation="linear"), x)
        assert not out.any()

    def test_delta_kernel_identity(self):
        x = np.random.default_rng(1).normal(size=(12, 1))
        layer = Conv1D(np.zeros((3, 1, 1)), np.zeros(1), activation="linear")
        layer.params["kernel"][1, 0, 0] = 1.0
        np.testing.assert_allclose(run(layer, x), x, atol=1e-15)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        t, cin, cout, k = 9, 3, 4, 3
        x = rng.normal(size=(t, cin))
        kernel = rng.normal(size=(k, cin, cout))
        bias = rng.normal(size=cout)
        # naive zero-padded convolution, one tap at a time
        expected = np.zeros((t, cout))
        pad = (k - 1) // 2
        for ti in range(t):
            for co in range(cout):
                acc = bias[co]
                for j in range(k):
                    src = ti + j - pad
                    if 0 <= src < t:
                        for ci in range(cin):
                            acc += x[src, ci] * kernel[j, ci, co]
                expected[ti, co] = acc
        layer = Conv1D(kernel, bias, activation="linear")
        np.testing.assert_allclose(run(layer, x), expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            run(Conv1D(np.zeros((3, 3, 1)), np.zeros(1)), np.zeros((5, 2)))


class TestDenseForward:
    def test_zero_weight_constant_bias(self):
        x = np.random.default_rng(0).normal(size=(6, 2))
        layer = DenseTimeDistributed(np.zeros((2, 3)), np.full(3, 1.5))
        assert (run(layer, x) == 1.5).all()

    def test_timedistributed_param_shape(self):
        # 128-channel input, one output unit -> 129 parameters
        layer = DenseTimeDistributed(np.zeros((128, 1)), np.zeros(1))
        assert sum(v.size for v in layer.params.values()) == 129
        out = run(layer, np.zeros((5, 128)))
        assert out.shape == (5, 1)

    def test_bad_mode_rejected(self):
        spec = ArchitectureSpec("bad", (LayerSpec("dense_conv", 2, 1, "linear"),), input_length=4)
        with pytest.raises(ConfigError):
            count_params(spec)
        with pytest.raises(ConfigError):
            init_params(spec, 0)
        with pytest.raises(ConfigError):
            Model(spec, {})


class TestGruForward:
    def test_zero_params_zero_output(self):
        x = np.random.default_rng(0).normal(size=(7, 2))
        assert not run(GRU(**gru_zeros(2, 3)), x).any()

    def test_matches_scalar_gate_oracle(self):
        rng = np.random.default_rng(7)
        t, cin, h = 5, 2, 3
        params = gru_params(rng, cin, h)
        x = rng.uniform(-1, 1, (t, cin))

        def sigmoid(a):
            return 1.0 / (1.0 + np.exp(-a))

        hidden = np.zeros(h)
        expected = []
        for step in range(t):
            gx = x[step] @ params["W"] + params["bw"]
            gh = hidden @ params["U"] + params["bu"]
            z = sigmoid(gx[:h] + gh[:h])
            r = sigmoid(gx[h:2 * h] + gh[h:2 * h])
            n = np.tanh(gx[2 * h:] + r * gh[2 * h:])
            hidden = z * hidden + (1.0 - z) * n
            expected.append(hidden.copy())
        np.testing.assert_allclose(run(GRU(**params), x), np.array(expected), atol=1e-12)

    def test_update_gate_one_keeps_the_zero_state(self):
        rng = np.random.default_rng(3)
        params = gru_params(rng, 2, 4)
        params["bw"] = params["bw"].copy()
        params["bw"][:4] = 1e3  # saturates z at exactly 1.0
        out = run(GRU(**params), rng.uniform(-1, 1, (6, 2)))
        np.testing.assert_array_equal(out, np.zeros((6, 4)))

    @staticmethod
    def check_matches_reference_exactly(b, t, cin, h):
        rng = np.random.default_rng(11)
        params = gru_params(rng, cin, h)
        x = rng.uniform(-1, 1, (b, t, cin))
        layer = GRU(**params)
        expected, reference_cache = reference_gru_forward(params, x)
        out, cache = layer.forward(x)
        np.testing.assert_array_equal(out, expected)
        gy = rng.uniform(-1, 1, out.shape)
        expected_dx, expected_grads = reference_gru_backward(params, x, reference_cache, gy)
        np.testing.assert_array_equal(layer.backward(gy, cache), expected_dx)
        for key in ("W", "U", "bw", "bu"):
            np.testing.assert_array_equal(layer.grads[key], expected_grads[key])

    def test_matches_per_step_reference_exactly(self):
        self.check_matches_reference_exactly(3, 7, 2, 4)

    def test_matches_reference_exactly_at_16_rows_of_64_units(self):
        self.check_matches_reference_exactly(16, 9, 64, 64)

    def test_recurrent_product_uses_contiguous_transpose(self):
        # at <= 18 rows and h = 64 the transposed view of U goes through a
        # BLAS small-matrix kernel whose rows differ from those of larger
        # products; the backward pass multiplies by a contiguous copy
        rng = np.random.default_rng(14)
        dgh = rng.uniform(-1, 1, (16, 192))
        U = rng.uniform(-1, 1, (64, 192))
        assert not np.array_equal(dgh @ U.T, dgh @ np.ascontiguousarray(U.T))
        big = np.concatenate([dgh, rng.uniform(-1, 1, (16, 192))])
        np.testing.assert_array_equal((big @ np.ascontiguousarray(U.T))[:16],
                                      dgh @ np.ascontiguousarray(U.T))

    def test_non_finite_input_rejected(self):
        spec = build_architecture("gruc1")
        x = np.zeros(1000)
        x[1] = np.nan
        with pytest.raises(NumericError):
            Model(spec, init_params(spec, 0)).predict(x[None], batch_size=1)


class TestBidirectionalForward:
    def test_time_symmetric_input_symmetry(self):
        rng = np.random.default_rng(5)
        params = gru_params(rng, 1, 3)
        half = rng.uniform(-1, 1, 4)
        x = np.concatenate([half, half[::-1]])[:, None]  # palindrome
        out = run(make_bigru(params, params), x)
        np.testing.assert_allclose(out[:, :3], out[::-1, 3:], atol=1e-12)

    def test_hidden_mismatch_rejected(self):
        spec = build_architecture("bgruc1")
        params = init_params(spec, 0)
        params["layer00.bgru.bwd.U"] = np.zeros((3, 9))
        with pytest.raises(ConfigError):
            Model(spec, params)

    def test_bad_input_rejected_and_layer_reusable(self):
        rng = np.random.default_rng(13)
        layer = make_bigru(gru_params(rng, 2, 4), gru_params(rng, 2, 4))
        with pytest.raises(ConfigError):
            layer.forward(np.zeros((2, 5, 3)))
        assert layer.forward(np.zeros((2, 5, 2)))[0].shape == (2, 5, 8)

    def test_output_width_doubles(self):
        rng = np.random.default_rng(8)
        out = run(make_bigru(gru_params(rng, 1, 4), gru_params(rng, 1, 4)), rng.normal(size=(5, 1)))
        assert out.shape == (5, 8)


_LAYERS = {
    "conv1d": lambda t: Conv1D(np.zeros((3, 2, 3)), np.zeros(3)),
    "conv1d_k1": lambda t: Conv1D(np.zeros((1, 2, 1)), np.zeros(1), "linear"),
    "dense_td": lambda t: DenseTimeDistributed(np.zeros((2, 3)), np.zeros(3)),
    "gru": lambda t: GRU(**gru_zeros(2, 4)),
    "bgru": lambda t: make_bigru(gru_zeros(2, 4), gru_zeros(2, 4)),
}


@pytest.mark.parametrize("t", [7, 12])
@pytest.mark.parametrize("kind", list(_LAYERS))
def test_reduce_shapes_are_the_per_row_shapes_of_the_reduction_inputs(kind, t):
    # backward_rows overwrites every entry of NaN buffers shaped as reduce_shapes
    # says, and reduce turns them into finite gradients
    rng = np.random.default_rng(0)
    layer = _LAYERS[kind](t)
    for value in layer.params.values():
        value[...] = rng.uniform(-1, 1, value.shape)
    y, cache = layer.forward(rng.uniform(-1, 1, (3, t, 2)))
    out = {name: np.full((3,) + shape, np.nan) for name, shape in layer.reduce_shapes(t).items()}
    layer.backward_rows(rng.uniform(-1, 1, y.shape), cache, out)
    assert [name for name, value in out.items() if not np.isfinite(value).all()] == []
    layer.reduce(out)
    assert set(layer.grads) == set(layer.params)
    assert all(np.isfinite(value).all() for value in layer.grads.values())


@pytest.mark.parametrize("kind", list(_LAYERS))
def test_a_forward_into_the_reduction_buffers_keeps_every_byte(kind):
    # a training call on the shard workers builds the caches in its arena
    # reduction buffers, whose reused pages hold old values (NaN here)
    rng = np.random.default_rng(1)
    t = 9
    layer = _LAYERS[kind](t)
    for value in layer.params.values():
        value[...] = rng.uniform(-1, 1, value.shape)
    x = rng.uniform(-1, 1, (3, t, 2))
    gy = rng.uniform(-1, 1, layer.forward(x)[0].shape)
    results = []
    for into_buffers in (False, True):
        out = {name: np.full((3,) + shape, np.nan) for name, shape in layer.reduce_shapes(t).items()}
        y, cache = layer.forward(x, out) if into_buffers else layer.forward(x)
        dx = layer.backward_rows(gy, cache, out)
        results.append([y.tobytes(), dx.tobytes()] + [out[name].tobytes() for name in sorted(out)])
    assert results[0] == results[1]


class TestModelForward:
    def test_zero_params_zero_output(self):
        spec = build_architecture("gruc1")
        params = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
        x = np.random.default_rng(0).normal(size=1000)
        out = Model(spec, params).predict(x[None], batch_size=1)[0]
        assert out.shape == (1000,) and not out.any()

    @pytest.mark.parametrize("name", ["cnnc1", "gruc1", "bgruc1"])
    def test_output_length_preserved(self, name):
        spec = build_architecture(name)
        params = init_params(spec, 1)
        x = np.random.default_rng(1).normal(size=(1000, 1))
        out = Model(spec, params).predict(x[None], batch_size=1)[0]
        assert out.shape == (1000,)

    def test_cnnc1_matches_layer_composition(self):
        # compose the individually tested layer primitives by hand
        spec = build_architecture("cnnc1")
        params = init_params(spec, 2)
        x = np.random.default_rng(2).normal(size=(1000, 1))
        ref = x
        for i, layer in enumerate(spec.layers):
            prefix = f"layer{i:02d}.conv1d"
            conv = Conv1D(params[f"{prefix}.kernel"], params[f"{prefix}.bias"], layer.activation)
            ref = run(conv, ref)
        out = Model(spec, params).predict(x[None], batch_size=1)[0]
        np.testing.assert_allclose(out, ref[:, 0], atol=1e-10)

    def test_count_only_spec_refused_before_building(self):
        # cnn_dense's flatten-dense kind has no layer, and its 513M weights are never allocated
        with pytest.raises(ConfigError, match="can only be counted"):
            Model(build_architecture("cnn_dense"), {})

    def test_params_mismatch_rejected(self):
        spec = build_architecture("gruc1")
        params = init_params(spec, 0)
        del params["layer00.gru.W"]
        with pytest.raises(ConfigError):
            Model(spec, params).predict(np.zeros((1, 1000)), batch_size=1)


class TestMseStep:
    def test_perfect_prediction_zero_everything(self):
        spec = build_architecture("gruc1")
        params = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
        model = Model(spec, params)
        loss = model.mse_step(np.zeros((1, 1000, 1)), np.zeros((1, 1000)))
        grads = model.gradients()
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())

    def test_single_dense_layer_closed_form(self):
        rng = np.random.default_rng(9)
        t = 50
        spec = ArchitectureSpec(
            name="lin", layers=(LayerSpec("dense_timedistributed", 1, 1, "linear"),),
            input_length=t,
        )
        w = rng.normal(size=(1, 1))
        b = rng.normal(size=1)
        params = {"layer00.dense_timedistributed.weight": w,
                  "layer00.dense_timedistributed.bias": b}
        x = rng.normal(size=(t, 1))
        y = rng.normal(size=t)
        model = Model(spec, params)
        loss = model.mse_step(x[None], y[None])
        grads = model.gradients()
        pred = (x * w[0, 0] + b[0])[:, 0]
        assert loss == pytest.approx(np.mean((pred - y) ** 2), abs=1e-12)
        # analytic: dL/dw = 2/N * x^T (pred - y)
        expected_dw = 2.0 / t * x[:, 0] @ (pred - y)
        expected_db = 2.0 / t * np.sum(pred - y)
        assert grads["layer00.dense_timedistributed.weight"][0, 0] == pytest.approx(expected_dw, rel=1e-12)
        assert grads["layer00.dense_timedistributed.bias"][0] == pytest.approx(expected_db, rel=1e-12)
