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
    model_forward,
    mse_loss_and_grads,
)
from strokedet.errors import ConfigError, NumericError
from strokedet.layers import GRU, BiGRU, Conv1D, DenseFlatten, DenseTimeDistributed


def gru_params(rng, cin, h):
    return {
        "W": rng.uniform(-1, 1, (cin, 3 * h)),
        "U": rng.uniform(-1, 1, (h, 3 * h)),
        "bw": rng.uniform(-1, 1, 3 * h),
        "bu": rng.uniform(-1, 1, 3 * h),
    }


def reference_gru_forward(params, x, h0=None):
    """Per-step GRU with batch-major caches: the exact operation order `GRU` keeps."""
    b, t, _ = x.shape
    h = params["U"].shape[0]
    gx = x @ params["W"] + params["bw"]
    hidden = np.zeros((b, h)) if h0 is None else np.broadcast_to(h0, (b, h)).astype(np.float64)
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


def run(layer, x, **kwargs):
    """One (time, channels) window through a batch-first layer."""
    return layer.forward(np.asarray(x, dtype=np.float64)[None], **kwargs)[0]


def make_gru(params):
    cin, h3 = params["W"].shape
    layer = GRU(cin, h3 // 3)
    layer.params.update(params)
    return layer


def make_bigru(fwd_params, bwd_params):
    cin, h3 = fwd_params["W"].shape
    layer = BiGRU(cin, h3 // 3)
    for side, params in (("fwd", fwd_params), ("bwd", bwd_params)):
        layer.params.update({f"{side}.{k}": v for k, v in params.items()})
    return layer


class TestConv1dForward:
    def test_zero_kernel_zero_output(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        out = run(Conv1D(3, 2, 3, activation="linear"), x)
        assert not out.any()

    def test_delta_kernel_identity(self):
        x = np.random.default_rng(1).normal(size=(12, 1))
        layer = Conv1D(1, 1, 3, activation="linear")
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
        layer = Conv1D(cin, cout, k, activation="linear")
        layer.params.update(kernel=kernel, bias=bias)
        np.testing.assert_allclose(run(layer, x), expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            run(Conv1D(3, 1, 3), np.zeros((5, 2)))


class TestDenseForward:
    def test_zero_weight_constant_bias(self):
        x = np.random.default_rng(0).normal(size=(6, 2))
        layer = DenseTimeDistributed(2, 3)
        layer.params["bias"] = np.full(3, 1.5)
        assert (run(layer, x) == 1.5).all()

    def test_flatten_consumes_whole_window(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2))
        w = rng.normal(size=(8, 3))
        b = rng.normal(size=3)
        layer = DenseFlatten(4, 2, 3)
        layer.params.update(weight=w, bias=b)
        out = run(layer, x)
        np.testing.assert_allclose(out[:, 0], x.reshape(-1) @ w + b, atol=1e-12)

    def test_timedistributed_param_shape(self):
        # 128-channel input, one output unit -> 129 parameters
        layer = DenseTimeDistributed(128, 1)
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
        assert not run(GRU(2, 3), x).any()

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
        np.testing.assert_allclose(run(make_gru(params), x), np.array(expected), atol=1e-12)

    def test_update_gate_one_copies_h0(self):
        rng = np.random.default_rng(3)
        params = gru_params(rng, 2, 4)
        params["bw"] = params["bw"].copy()
        params["bw"][:4] = 1e3  # saturates z at exactly 1.0
        h0 = rng.uniform(-1, 1, 4)
        out = run(make_gru(params), rng.uniform(-1, 1, (6, 2)), h0=h0)
        np.testing.assert_array_equal(out, np.tile(h0, (6, 1)))

    @staticmethod
    def check_matches_reference_exactly(b, t, cin, h, with_h0):
        rng = np.random.default_rng(11)
        params = gru_params(rng, cin, h)
        x = rng.uniform(-1, 1, (b, t, cin))
        h0 = rng.uniform(-1, 1, h) if with_h0 else None
        layer = make_gru(params)
        expected, cache = reference_gru_forward(params, x, h0)
        out = layer.forward(x, h0=h0)
        np.testing.assert_array_equal(out, expected)
        gy = rng.uniform(-1, 1, out.shape)
        expected_dx, expected_grads = reference_gru_backward(params, x, cache, gy)
        np.testing.assert_array_equal(layer.backward(gy), expected_dx)
        for key in ("W", "U", "bw", "bu"):
            np.testing.assert_array_equal(layer.grads[key], expected_grads[key])

    @pytest.mark.parametrize("with_h0", [False, True])
    def test_matches_per_step_reference_exactly(self, with_h0):
        self.check_matches_reference_exactly(3, 7, 2, 4, with_h0)

    def test_matches_reference_exactly_at_16_rows_of_64_units(self):
        self.check_matches_reference_exactly(16, 9, 64, 64, False)

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
            model_forward(spec, init_params(spec, 0), x)


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
        assert layer.forward(np.zeros((2, 5, 2))).shape == (2, 5, 8)

    def test_output_width_doubles(self):
        rng = np.random.default_rng(8)
        out = run(make_bigru(gru_params(rng, 1, 4), gru_params(rng, 1, 4)), rng.normal(size=(5, 1)))
        assert out.shape == (5, 8)


class TestModelForward:
    def test_zero_params_zero_output(self):
        spec = build_architecture("gruc1")
        params = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
        out = model_forward(spec, params, np.random.default_rng(0).normal(size=1000))
        assert out.shape == (1000,) and not out.any()

    @pytest.mark.parametrize("name", ["cnnc1", "gruc1", "bgruc1"])
    def test_output_length_preserved(self, name):
        spec = build_architecture(name)
        params = init_params(spec, 1)
        out = model_forward(spec, params, np.random.default_rng(1).normal(size=(1000, 1)))
        assert out.shape == (1000,)

    def test_cnnc1_matches_layer_composition(self):
        # compose the individually tested layer primitives by hand
        spec = build_architecture("cnnc1")
        params = init_params(spec, 2)
        x = np.random.default_rng(2).normal(size=(1000, 1))
        ref = x
        for i, layer in enumerate(spec.layers):
            prefix = f"layer{i:02d}.conv1d"
            conv = Conv1D(layer.in_channels, layer.out_units, layer.kernel_size, layer.activation)
            conv.params.update(kernel=params[f"{prefix}.kernel"], bias=params[f"{prefix}.bias"])
            ref = run(conv, ref)
        out = model_forward(spec, params, x)
        np.testing.assert_allclose(out, ref[:, 0], atol=1e-10)

    def test_params_mismatch_rejected(self):
        spec = build_architecture("gruc1")
        params = init_params(spec, 0)
        del params["layer00.gru.W"]
        with pytest.raises(ConfigError):
            model_forward(spec, params, np.zeros(1000))


class TestMseLossAndGrads:
    def test_perfect_prediction_zero_everything(self):
        spec = build_architecture("gruc1")
        params = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
        loss, grads = mse_loss_and_grads(spec, params, np.zeros(1000), np.zeros(1000))
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
        loss, grads = mse_loss_and_grads(spec, params, x, y)
        pred = (x * w[0, 0] + b[0])[:, 0]
        assert loss == pytest.approx(np.mean((pred - y) ** 2), abs=1e-12)
        # analytic: dL/dw = 2/N * x^T (pred - y)
        expected_dw = 2.0 / t * x[:, 0] @ (pred - y)
        expected_db = 2.0 / t * np.sum(pred - y)
        assert grads["layer00.dense_timedistributed.weight"][0, 0] == pytest.approx(expected_dw, rel=1e-12)
        assert grads["layer00.dense_timedistributed.bias"][0] == pytest.approx(expected_db, rel=1e-12)
