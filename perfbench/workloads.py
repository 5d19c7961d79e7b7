"""The four workloads and the seeded inputs they share.

Inputs are the criterion-7 synthetic set (24 athletes, one 22 s run each,
840 windows: 560 in train_minus_val, 140 in fold 0, 140 held out), made from
the benchmark's --seed only. Each workload is a closed loop in one process:
the next operation starts when the previous one returns.

An operation ("op") is the unit whose latency is reported; `op` makes only
the strokedet calls, and `summarize` (untimed) digests and checks its result:
  train_*        one `training.train_model` call (a training run)
  detect/score   one recorded run (35 windows)
Op i repeats op i % `period`. Ops below `exact_ops` form the prefix every run
completes; quality metrics, digests and work counts come from that prefix, so
they repeat for a seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

DATA_OVERRIDES = [
    "n_athletes=24", "runs_per_athlete=1", "run_duration=22",
    "stroke_rate_min=45", "stroke_rate_max=115",
    "learning_rate=0.002", "batch_size=32", "epochs=1",
]
NOISE_SIGMA = 0.3  # soft F1 of noisy targets lands near a trained GRUc1's (~0.87)
CNN_WINDOWS = 32  # one batch of train_minus_val and one of fold 0


@dataclass
class OpResult:
    windows: int
    digest: str
    ok: bool  # outputs finite
    confusion: object = None  # SoftConfusion of a scored run
    scored: list = None  # [(events, detections)] per window of a scored run


@dataclass
class Inputs:
    cfg: object
    ds: object
    params: dict | None
    noisy: np.ndarray | None


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def make_inputs(sd, seed: int, arch: str | None, noisy: bool) -> Inputs:
    """The set-up that `setup_s` times: synth, materialise, parameter init."""
    cfg = sd.config.load_config(None, overrides=DATA_OVERRIDES + [f"seed={seed}"])
    synth = sd.synth.generate_dataset(cfg.synth_config())
    ds = sd.pipeline.materialize_dataset([(s.run, s.events) for s in synth], cfg)
    params = None
    if arch is not None:
        params = sd.architectures.init_params(sd.architectures.build_architecture(arch), seed)
    noise = None
    if noisy:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        noise = ds.Y + NOISE_SIGMA * rng.standard_normal(ds.Y.shape)
    return Inputs(cfg, ds, params, noise)


def inputs_digest(inp: Inputs) -> str:
    parts = [inp.ds.X.tobytes(), inp.ds.Y.tobytes(), inp.ds.events]
    if inp.params is not None:
        parts += [(k, inp.params[k].tobytes()) for k in sorted(inp.params)]
    if inp.noisy is not None:
        parts.append(inp.noisy.tobytes())
    return _sha(*parts)


def detections_key(dets) -> list:
    return [(d.t, d.kind, float(d.score).hex()) for d in dets]


class TrainWorkload:
    exact_ops = period = 1  # every op is the same call

    def __init__(self, sd, inp: Inputs, arch: str, subset: int | None):
        self.sd = sd
        self.spec = sd.architectures.build_architecture(arch)
        ds = inp.ds
        train_idx = ds.partition_indices("train_minus_val", val_fold=inp.cfg.val_fold)
        val_idx = ds.partition_indices(f"fold{inp.cfg.val_fold}")
        if subset is not None:
            train_idx, val_idx = train_idx[:subset], val_idx[:subset]
        # built as the CLI builds them
        self.train = [(ds.X[i], ds.Y[i]) for i in train_idx]
        self.val = [(ds.X[i], ds.Y[i]) for i in val_idx]
        self.tcfg = inp.cfg.train_config()
        self.last_loss = None

    def warm_up(self) -> None:
        tcfg = self.sd.training.TrainConfig(epochs=1, batch_size=2, seed=self.tcfg.seed)
        self.sd.training.train_model(self.spec, self.train[:2], tcfg)

    def op(self, i: int):
        return self.sd.training.train_model(self.spec, self.train, self.tcfg, val_dataset=self.val)

    def summarize(self, i: int, raw) -> OpResult:
        params, history = raw
        losses = [loss for _, tl, vl in history for loss in (tl, vl)]
        ok = all(np.isfinite(losses)) and all(np.isfinite(p).all() for p in params.values())
        digest = _sha(history, *[(k, params[k].tobytes()) for k in sorted(params)])
        self.last_loss = history[-1][1]
        return OpResult(len(self.train) * self.tcfg.epochs, digest, bool(ok))


class RunWorkload:
    """Per recorded run: optional model prediction, extraction, scoring.
    Cycles over the first `cycle` recorded runs; one cycle is the prefix."""

    def __init__(self, sd, inp: Inputs, cycle: int, arch: str | None):
        self.sd = sd
        self.exact_ops = self.period = cycle
        self.ds = inp.ds
        self.spec = sd.architectures.build_architecture(arch) if arch else None
        self.params = inp.params
        self.noisy = inp.noisy
        self.extractor = inp.cfg.extractor_config()
        self.eval_cfg = inp.cfg.eval_config()
        runs = {}
        for i, meta in enumerate(self.ds.meta):
            runs.setdefault(meta["run_id"], []).append(i)
        self.runs = list(runs.values())[:cycle]

    def _outputs(self, idx):
        if self.spec is None:
            return self.noisy[idx]
        return self.sd.training.predict_batch(self.spec, self.params, self.ds.X[idx], batch_size=32)

    def warm_up(self) -> None:
        # also fills the Savitzky-Golay coefficient cache
        idx = self.runs[0][:1]
        out = self._outputs(idx)
        dets = self.sd.postprocess.extract_events(out[0], self.extractor)
        self.sd.softed.evaluate_windowed([(self.ds.events[idx[0]], dets)],
                                         self.ds.window_length, self.eval_cfg)

    def op(self, i: int):
        idx = self.runs[i % len(self.runs)]
        out = self._outputs(idx)
        dets = [self.sd.postprocess.extract_events(row, self.extractor) for row in out]
        scored = [(self.ds.events[w], d) for w, d in zip(idx, dets)]
        result = self.sd.softed.evaluate_windowed(scored, self.ds.window_length, self.eval_cfg)
        return out, dets, scored, result

    def summarize(self, i: int, raw) -> OpResult:
        idx = self.runs[i % len(self.runs)]
        out, dets, scored, result = raw
        c = result.confusion
        digest = _sha(out.tobytes(), [detections_key(d) for d in dets],
                      [float(v).hex() for v in (c.tp_s, c.fp_s, c.fn_s, c.tn_s)])
        return OpResult(len(idx), digest, bool(np.isfinite(out).all()), c, scored)


WORKLOADS = ("train_gruc1", "train_cnnc1", "detect_bgruc1", "extract_score")

ARCH = {"train_gruc1": "gruc1", "train_cnnc1": "cnnc1", "detect_bgruc1": "bgruc1",
        "extract_score": None}


def build(sd, name: str, inp: Inputs):
    arch = ARCH[name]
    if name == "train_gruc1":
        return TrainWorkload(sd, inp, arch, None)
    if name == "train_cnnc1":
        return TrainWorkload(sd, inp, arch, CNN_WINDOWS)
    if name == "detect_bgruc1":
        return RunWorkload(sd, inp, 4, arch)  # each run repeats ~5 times in 30 s
    return RunWorkload(sd, inp, 24, arch)  # a cycle is the 840 windows
