"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criterion
trains a real model and takes several minutes; everything else is fast.
"""

import itertools
import json
import time

import numpy as np
import pytest

from strokedet import pipeline as pl
from strokedet import postprocess as pp
from strokedet import softed as se
from strokedet.architectures import build_architecture, count_params, layer_param_counts
from strokedet.cli import main as cli_main
from strokedet.config import load_config
from strokedet.gradcheck import LAYER_KINDS, gradient_check, random_toy_shape
from strokedet.labels import ONSET, EventLabel
from strokedet.postprocess import Detection, ExtractorConfig, cluster_detections, savgol_filter
from strokedet.synth import generate_dataset
from strokedet.training import TrainConfig, predict_batch, train_model

PUBLISHED_TOTALS = {
    "cnn_dense": 513_317_544,
    "cnnc1": 1_317_057,
    "cnnc2": 6_284_353,
    "cnnc3": 10_476_545,
    "gruc1": 37_889,
    "bgruc1": 100_353,
    "bgruc2": 249_345,
    "bgruc3": 990_209,
}

# Per-layer parameter cells (zero-parameter flatten rows folded into the
# dense layer that consumes them).
PUBLISHED_CELLS = {
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


def report(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{status}] {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def test_criterion_1_architecture_fidelity():
    t0 = time.time()
    ok = True
    details = []
    for name, total in PUBLISHED_TOTALS.items():
        spec = build_architecture(name)
        got_total = count_params(spec)
        got_cells = layer_param_counts(spec)
        if got_total != total or got_cells != PUBLISHED_CELLS[name]:
            ok = False
            details.append(f"{name}: {got_total} vs {total}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(1, "architecture parameter counts match published totals and cells",
           ok, f"{elapsed * 1000:.0f} ms" + ("; " + "; ".join(details) if details else ""))


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = {}
    for kind in LAYER_KINDS:
        errors = []
        for trial in range(5):
            shape = random_toy_shape(kind, rng)
            errors.append(gradient_check(kind, shape, seed=1000 + trial, epsilon=1e-4))
        worst[kind] = max(errors)
    elapsed = time.time() - t0
    ok = all(err < 1e-5 for err in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}:{v:.1e}" for k, v in worst.items()) + f"; {elapsed:.1f} s"
    report(2, "analytic gradients match central finite differences (< 1e-5)", ok, detail)


def test_criterion_3_savitzky_golay():
    i = np.arange(200, dtype=float)
    worst = 0.0
    for a, b, c in [(3.0, -2.0, 1.0), (-0.5, 4.0, -7.0), (0.0, 1.0, 0.0), (2.5, 0.0, 3.0)]:
        signal = a * i**2 + b * i + c
        for window in (5, 9, 31):
            worst = max(worst, float(np.abs(savgol_filter(signal, window, 2) - signal).max()))
    impulse = np.zeros(11)
    impulse[5] = 1.0
    center = savgol_filter(impulse, 5, 2)[5]
    center_err = abs(center - 17.0 / 35.0)
    ok = worst < 1e-9 and center_err < 1e-12
    report(3, "Savitzky-Golay reproduces quadratics and the 17/35 impulse center",
           ok, f"poly err {worst:.1e}, center err {center_err:.1e}")


def test_criterion_4_membership_score_buckets():
    expected = {0: 1.0, 1: 14.0 / 15.0, 2: 13.0 / 15.0}
    worst = max(abs(se.membership(100, 100 + off, 15) - val) for off, val in expected.items())
    ok = worst < 1e-9
    report(4, "memberships at offsets 0/1/2 reproduce 1.0000/0.9333/0.8667", ok,
           f"max err {worst:.1e}")


def onsets(times):
    """EventLabels of onset times; the oracles read the plain times."""
    return [EventLabel(t, ONSET) for t in times]


def brute_force_max_membership(events, detections, k):
    """Exhaustive max over one-to-one matchings; independent oracle."""
    best = 0.0
    m = min(len(events), len(detections))
    for size in range(m + 1):
        for chosen in itertools.combinations(range(len(events)), size):
            for perm in itertools.permutations(range(len(detections)), size):
                total = 0.0
                for ei, di in zip(chosen, perm):
                    total += max(0.0, 1.0 - abs(events[ei] - detections[di]) / k)
                best = max(best, total)
    return best


def test_criterion_5_matching_optimality():
    t0 = time.time()
    k = 15
    grid = list(range(0, 60, 7))  # 9 positions spanning a 60-sample window

    def subsets(points, max_size):
        for size in range(max_size + 1):
            yield from itertools.combinations(points, size)

    checked = 0
    failures = 0
    event_sets = list(subsets(grid, 4))
    for events in event_sets:
        for detections in event_sets:
            got = se.associate(onsets(events), onsets(detections), k).total_membership()
            want = brute_force_max_membership(events, detections, k)
            if abs(got - want) > 1e-9:
                failures += 1
            checked += 1
    # plus randomized instances off the grid
    rng = np.random.default_rng(5)
    for _ in range(2000):
        events = sorted(rng.integers(0, 60, size=rng.integers(0, 5)).tolist())
        detections = sorted(rng.integers(0, 60, size=rng.integers(0, 5)).tolist())
        got = se.associate(onsets(events), onsets(detections), k).total_membership()
        want = brute_force_max_membership(events, detections, k)
        if abs(got - want) > 1e-9:
            failures += 1
        checked += 1
    ok = failures == 0
    report(5, "matching equals brute-force maximum on all small instances", ok,
           f"{checked} instances, {failures} mismatches, {time.time() - t0:.1f} s")


def test_criterion_6_windowed_extension():
    # Stroke at absolute sample 52, detected exactly; windows start at 0 and
    # 50 (length 100). Window B holds the event at relative t=2, inside its
    # margin, and no detection. Hand oracle: unrestricted scoring books the
    # window-A pair (mu=1) plus one miss in window B -> FN_S = 1; restricted
    # scoring drops the margin event, so the penalty vanishes.
    window_a = (onsets([52]), onsets([52]))
    window_b = (onsets([2]), [])
    unrestricted = se.evaluate_windowed([window_a, window_b], 100, se.WindowEvalConfig(tolerance_k=15, margin_h=0))
    restricted = se.evaluate_windowed([window_a, window_b], 100, se.WindowEvalConfig(tolerance_k=15, margin_h=15))
    hand_unrestricted = (1.0, 0.0, 1.0)  # tp, fp, fn
    hand_restricted = (1.0, 0.0, 0.0)
    got_unrestricted = (unrestricted.confusion.tp_s, unrestricted.confusion.fp_s,
                        unrestricted.confusion.fn_s)
    got_restricted = (restricted.confusion.tp_s, restricted.confusion.fp_s,
                      restricted.confusion.fn_s)
    penalty_unrestricted = unrestricted.confusion.fp_s + unrestricted.confusion.fn_s
    penalty_restricted = restricted.confusion.fp_s + restricted.confusion.fn_s
    ok = (got_unrestricted == hand_unrestricted and got_restricted == hand_restricted
          and penalty_unrestricted >= 1.0 and penalty_restricted == 0.0)
    report(6, "margin restriction removes the window-edge penalty", ok,
           f"unrestricted FP+FN={penalty_unrestricted}, restricted FP+FN={penalty_restricted}")


ACCEPTANCE_OVERRIDES = [
    "n_athletes=24", "runs_per_athlete=1", "run_duration=22",
    "stroke_rate_min=45", "stroke_rate_max=115",
    "epochs=35", "learning_rate=0.002", "batch_size=32", "seed=0",
]


@pytest.mark.slow
def test_criterion_7_end_to_end_synthetic():
    t0 = time.time()
    cfg = load_config(None, overrides=ACCEPTANCE_OVERRIDES)
    synth = generate_dataset(cfg.synth_config())
    ds = pl.materialize_dataset([(s.run, s.events) for s in synth], cfg)
    athletes = {m["athlete_id"] for m in ds.meta}
    train_idx = ds.partition_indices("train_minus_val", val_fold=cfg.val_fold)
    hold_idx = ds.partition_indices("holdout")
    assert len(athletes) >= 6 and len(train_idx) >= 200

    extractor = cfg.extractor_config()

    # label-oracle pipeline: smoothed ground truth fed as model output
    oracle_sets = [(ds.events[i], pp.extract_events(ds.Y[i], extractor)) for i in hold_idx]
    oracle = se.evaluate_windowed(oracle_sets, ds.window_length, cfg.eval_config())
    oracle_ok = oracle.metrics.f1 is not None and oracle.metrics.f1 >= 0.99

    # trained model on held-out athletes
    spec = build_architecture("gruc1")
    train = [(ds.X[i], ds.Y[i]) for i in train_idx]
    params, history = train_model(spec, train, cfg.train_config())
    outputs = predict_batch(spec, params, ds.X[hold_idx], batch_size=64)
    model_sets = [(ds.events[i], pp.extract_events(outputs[row], extractor))
                  for row, i in enumerate(hold_idx)]
    result = se.evaluate_windowed(model_sets, ds.window_length, cfg.eval_config())
    elapsed = time.time() - t0
    model_ok = result.metrics.f1 is not None and result.metrics.f1 >= 0.85
    ok = oracle_ok and model_ok and elapsed < 1800
    report(7, "synthetic end-to-end: trained GRUc1 F1 >= 0.85, label oracle F1 >= 0.99", ok,
           f"model F1 {result.metrics.f1:.4f}, oracle F1 {oracle.metrics.f1:.4f}, "
           f"{len(train_idx)} train windows, {len(athletes)} athletes, {elapsed / 60:.1f} min")


DETERMINISM_OVERRIDES = [
    "n_athletes=4", "runs_per_athlete=1", "run_duration=7",
    "n_folds=2", "holdout_fraction=0.25", "epochs=2", "batch_size=8", "seed=0",
]


@pytest.mark.slow
def test_criterion_8_determinism(tmp_path):
    def build(root):
        args = []
        for kv in DETERMINISM_OVERRIDES:
            args.extend(["--set", kv])
        raw, data = root / "raw", root / "data"
        assert cli_main(["synth"] + args + ["--out", str(raw)]) == 0
        assert cli_main(["preprocess"] + args + ["--data", str(raw), "--out", str(data)]) == 0
        assert cli_main(["train"] + args + ["--data", str(data),
                                            "--weights", str(root / "w.bin")]) == 0
        assert cli_main(["evaluate"] + args + ["--data", str(data), "--weights",
                                               str(root / "w.bin"), "--out", str(root / "eval")]) == 0
        return (root / "w.bin").read_bytes(), (root / "eval" / "metrics.json").read_bytes()

    w1, m1 = build(tmp_path / "run1")
    w2, m2 = build(tmp_path / "run2")
    ok = w1 == w2 and m1 == m2
    report(8, "identical config+seed give bit-identical weights and metrics", ok,
           f"weights {len(w1)} bytes, metrics {len(m1)} bytes")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(99)

    # clustering idempotence and pairwise-gap guarantee
    cluster_ok = True
    for _ in range(300):
        n = int(rng.integers(0, 25))
        dets = [Detection(int(t), ONSET, float(s))
                for t, s in zip(rng.integers(0, 400, n), rng.uniform(0.01, 1.0, n))]
        once = cluster_detections(dets, 5)
        if cluster_detections(once, 5) != once:
            cluster_ok = False
        ts = [d.t for d in once]
        if any(b - a <= 5 for a, b in zip(ts, ts[1:])):
            cluster_ok = False

    # restriction safety: nothing scored sits in or couples to a margin
    valid = se.valid_range(200, 15)
    restrict_ok = True
    for _ in range(300):
        events = sorted(rng.integers(0, 200, size=rng.integers(0, 7)).tolist())
        dets = sorted(rng.integers(0, 200, size=rng.integers(0, 7)).tolist())
        assignment = se.associate(onsets(events), onsets(dets), 15)
        kept_e, kept_d = se.restrict(assignment, valid)
        for e in kept_e:
            if not (valid.start <= e.t < valid.stop):
                restrict_ok = False
            if any(abs(d - e.t) < 15 and not (valid.start <= d < valid.stop) for d in dets):
                restrict_ok = False
        for d in kept_d:
            if not (valid.start <= d.t < valid.stop):
                restrict_ok = False
            if any(abs(e - d.t) < 15 and not (valid.start <= e < valid.stop) for e in events):
                restrict_ok = False

    # conservation on 1,000 randomized instances
    conserve_ok = True
    for _ in range(1000):
        events = rng.integers(0, 500, size=rng.integers(0, 9)).tolist()
        dets = rng.integers(0, 500, size=rng.integers(0, 9)).tolist()
        c = se.soft_confusion(onsets(events), onsets(dets), 500, 15)
        if abs(c.tp_s + c.fn_s - len(events)) > 1e-9:
            conserve_ok = False
        if abs(c.tp_s + c.fp_s - len(dets)) > 1e-9:
            conserve_ok = False

    ok = cluster_ok and restrict_ok and conserve_ok
    report(9, "clustering, restriction-safety, and conservation properties hold", ok,
           f"clustering {cluster_ok}, restriction {restrict_ok}, conservation {conserve_ok}")
