"""Which strokedet callables the traced run spans, and the per-layer metrics
derived from those spans.

Every time metric is self time (span duration minus its child spans) divided
by the windows that went through that layer (by the training steps for
`train_model`), so a layer metric times the window count is the time that
layer adds to a workload. Set-up metrics are medians over the traced set-up
repeats. Work counts (flops, candidates, detections, pairs, keep ratios)
come only from the operations every run completes, so they must repeat
exactly for a seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> unit, better; the order is the order of BENCHMARK.json's per_layer.
PER_LAYER = {
    "layers.gru.forward_us_per_window": ("us", "lower"),
    "layers.gru.backward_us_per_window": ("us", "lower"),
    "layers.gru.flops_per_window": ("flop", "lower"),
    "layers.gru.gflops": ("GFLOP/s", "higher"),
    "layers.bgru.forward_self_us_per_window": ("us", "lower"),
    "layers.conv1d.forward_us_per_window": ("us", "lower"),
    "layers.conv1d.backward_us_per_window": ("us", "lower"),
    "layers.conv1d.flops_per_window": ("flop", "lower"),
    "layers.conv1d.gflops": ("GFLOP/s", "higher"),
    "layers.dense_td.forward_us_per_window": ("us", "lower"),
    "layers.dense_td.backward_us_per_window": ("us", "lower"),
    "architectures.model_forward_self_us_per_window": ("us", "lower"),
    "architectures.model_backward_self_us_per_window": ("us", "lower"),
    "training.train_model_self_ms_per_step": ("ms", "lower"),
    "postprocess.savgol_filter_us_per_window": ("us", "lower"),
    "postprocess.extract_candidates_us_per_window": ("us", "lower"),
    "postprocess.cluster_detections_us_per_window": ("us", "lower"),
    "postprocess.candidates_per_window": ("count", "lower"),
    "postprocess.detections_per_window": ("count", "lower"),
    "postprocess.cluster_keep_ratio": ("ratio", "higher"),
    "softed.associate_us_per_window": ("us", "lower"),
    "softed.restrict_us_per_window": ("us", "lower"),
    "softed.evaluate_windowed_self_us_per_window": ("us", "lower"),
    "softed.pairs_per_window": ("count", "lower"),
    "softed.restricted_keep_ratio": ("ratio", "higher"),
    "synth.generate_dataset_s": ("s", "lower"),
    "pipeline.materialize_dataset_s": ("s", "lower"),
    "architectures.init_params_s": ("s", "lower"),
    "bench.unattributed_share": ("ratio", "lower"),
    "bench.tracing_overhead_pct": ("%", "lower"),
}

# Count metrics: any difference between runs of one seed fails the gate.
EXACT_COUNTS = (
    "layers.gru.flops_per_window",
    "layers.conv1d.flops_per_window",
    "postprocess.candidates_per_window",
    "postprocess.detections_per_window",
    "postprocess.cluster_keep_ratio",
    "softed.pairs_per_window",
    "softed.restricted_keep_ratio",
)


def _gru_fwd(args, kwargs, y):
    layer, x = args[0], args[1]
    b, t, i = x.shape
    h = layer.hidden
    return {"flops": 6 * b * t * h * (i + h)}


def _gru_bwd(args, kwargs, dx):
    layer, gy = args[0], args[1]
    b, t, h = gy.shape
    return {"flops": 12 * b * t * h * (layer.in_channels + h)}


def _conv_fwd(args, kwargs, y):
    layer, x = args[0], args[1]
    b, t, i = x.shape
    return {"flops": 2 * b * t * layer.kernel_size * i * layer.out_channels}


def _conv_bwd(args, kwargs, dx):
    layer, gy = args[0], args[1]
    b, t, o = gy.shape
    return {"flops": 4 * b * t * layer.kernel_size * layer.in_channels * o}


def _batch(args, kwargs, result):
    return {"windows": int(args[1].shape[0])}


def _restrict(args, kwargs, kept):
    assignment = args[0]
    return {
        "kept": len(kept[0]) + len(kept[1]),
        "entities": len(assignment.events) + len(assignment.detections),
    }


def install(tracer, sd) -> None:
    """Span the public calls of the strokedet modules in namespace `sd`."""
    ly, ar, tr, pp, se = sd.layers, sd.architectures, sd.training, sd.postprocess, sd.softed
    table = [
        (ly.GRU, "forward", "layers.gru.forward", _gru_fwd),
        (ly.GRU, "backward", "layers.gru.backward", _gru_bwd),
        (ly.BiGRU, "forward", "layers.bgru.forward", None),
        (ly.BiGRU, "backward", "layers.bgru.backward", None),
        (ly.Conv1D, "forward", "layers.conv1d.forward", _conv_fwd),
        (ly.Conv1D, "backward", "layers.conv1d.backward", _conv_bwd),
        (ly.DenseTimeDistributed, "forward", "layers.dense_td.forward", None),
        (ly.DenseTimeDistributed, "backward", "layers.dense_td.backward", None),
        (ar.Model, "forward", "architectures.model_forward", _batch),
        (ar.Model, "backward", "architectures.model_backward", _batch),
        (ar, "init_params", "architectures.init_params", None),
        # train_model looks init_params up in its own module
        (tr, "init_params", "architectures.init_params", None),
        (tr, "train_model", "training.train_model", None),
        (tr, "predict_batch", "training.predict_batch", None),
        (pp, "extract_events", "postprocess.extract_events", None),
        (pp, "savgol_filter", "postprocess.savgol_filter", None),
        (pp, "extract_candidates", "postprocess.extract_candidates",
         lambda a, k, r: {"candidates": len(r)}),
        (pp, "cluster_detections", "postprocess.cluster_detections",
         lambda a, k, r: {"detections": len(r)}),
        (se, "evaluate_windowed", "softed.evaluate_windowed",
         lambda a, k, r: {"windows": r.n_windows}),
        (se, "associate", "softed.associate", lambda a, k, r: {"pairs": len(r.pairs)}),
        (se, "restrict", "softed.restrict", _restrict),
        (sd.synth, "generate_dataset", "synth.generate_dataset", None),
        (sd.pipeline, "materialize_dataset", "pipeline.materialize_dataset", None),
    ]
    for owner, attr, name, count in table:
        tracer.wrap(owner, attr, name, count)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, exact_ops: int, overhead_pct: float) -> tuple:
    """(metrics by name, self-time shares by span name) from a traced run.

    Spans of integer ops are the traced timed phase; spans of ops named
    'setup-<k>' are the traced set-up repetitions. Counts use only ops below
    `exact_ops`, the prefix every run completes.
    """
    own = tracer.self_times()
    self_s = defaultdict(float)
    timed = defaultdict(float)  # span durations in the timed phase
    counts = defaultdict(int)
    exact = defaultdict(int)
    calls = defaultdict(int)
    exact_calls = defaultdict(int)
    setup = defaultdict(list)
    for (name, start, end, _, op, c), own_s in zip(tracer.spans, own):
        if isinstance(op, str):
            setup[name].append(end - start)
            continue
        self_s[name] += own_s
        timed[name] += end - start
        calls[name] += 1
        in_prefix = op < exact_ops
        exact_calls[name] += in_prefix
        for key, value in (c or {}).items():
            counts[f"{name}.{key}"] += value
            if in_prefix:
                exact[f"{name}.{key}"] += value

    fwd_windows = counts["architectures.model_forward.windows"]
    bwd_windows = counts["architectures.model_backward.windows"]
    steps = calls["architectures.model_backward"]
    extracted = calls["postprocess.extract_events"]
    scored = counts["softed.evaluate_windowed.windows"]
    exact_fwd = exact["architectures.model_forward.windows"]
    exact_bwd = exact["architectures.model_backward.windows"]
    exact_extracted = exact_calls["postprocess.extract_events"]
    exact_scored = exact["softed.evaluate_windowed.windows"]

    def us(name, windows):
        return _ratio(self_s[name], windows) * 1e6

    def flops_per_window(kind):
        return (_ratio(exact[f"layers.{kind}.forward.flops"], exact_fwd)
                + _ratio(exact[f"layers.{kind}.backward.flops"], exact_bwd))

    def gflops(kind):
        flops = counts[f"layers.{kind}.forward.flops"] + counts[f"layers.{kind}.backward.flops"]
        busy = self_s[f"layers.{kind}.forward"] + self_s[f"layers.{kind}.backward"]
        return _ratio(flops, busy) / 1e9

    def setup_median(name):
        return statistics.median(setup[name]) if setup[name] else 0.0

    m = {
        "layers.gru.forward_us_per_window": us("layers.gru.forward", fwd_windows),
        "layers.gru.backward_us_per_window": us("layers.gru.backward", bwd_windows),
        "layers.gru.flops_per_window": flops_per_window("gru"),
        "layers.gru.gflops": gflops("gru"),
        "layers.bgru.forward_self_us_per_window": us("layers.bgru.forward", fwd_windows),
        "layers.conv1d.forward_us_per_window": us("layers.conv1d.forward", fwd_windows),
        "layers.conv1d.backward_us_per_window": us("layers.conv1d.backward", bwd_windows),
        "layers.conv1d.flops_per_window": flops_per_window("conv1d"),
        "layers.conv1d.gflops": gflops("conv1d"),
        "layers.dense_td.forward_us_per_window": us("layers.dense_td.forward", fwd_windows),
        "layers.dense_td.backward_us_per_window": us("layers.dense_td.backward", bwd_windows),
        "architectures.model_forward_self_us_per_window": us("architectures.model_forward", fwd_windows),
        "architectures.model_backward_self_us_per_window": us("architectures.model_backward", bwd_windows),
        "training.train_model_self_ms_per_step": _ratio(self_s["training.train_model"], steps) * 1e3,
        "postprocess.savgol_filter_us_per_window": us("postprocess.savgol_filter", extracted),
        "postprocess.extract_candidates_us_per_window": us("postprocess.extract_candidates", extracted),
        "postprocess.cluster_detections_us_per_window": us("postprocess.cluster_detections", extracted),
        "postprocess.candidates_per_window": _ratio(
            exact["postprocess.extract_candidates.candidates"], exact_extracted),
        "postprocess.detections_per_window": _ratio(
            exact["postprocess.cluster_detections.detections"], exact_extracted),
        "postprocess.cluster_keep_ratio": _ratio(
            exact["postprocess.cluster_detections.detections"],
            exact["postprocess.extract_candidates.candidates"]),
        "softed.associate_us_per_window": us("softed.associate", scored),
        "softed.restrict_us_per_window": us("softed.restrict", scored),
        "softed.evaluate_windowed_self_us_per_window": us("softed.evaluate_windowed", scored),
        "softed.pairs_per_window": _ratio(exact["softed.associate.pairs"], exact_scored),
        "softed.restricted_keep_ratio": _ratio(
            exact["softed.restrict.kept"], exact["softed.restrict.entities"]),
        "synth.generate_dataset_s": setup_median("synth.generate_dataset"),
        "pipeline.materialize_dataset_s": setup_median("pipeline.materialize_dataset"),
        "architectures.init_params_s": setup_median("architectures.init_params"),
        "bench.unattributed_share": _ratio(self_s["bench.op"], timed["bench.op"]),
        "bench.tracing_overhead_pct": overhead_pct,
    }
    wall = timed["bench.op"]
    shares = {name: round(_ratio(self_s[name], wall), 4)
              for name in sorted(calls, key=lambda n: -self_s[n]) if calls[name]}
    return m, shares
