#!/usr/bin/env python3
"""strokedet benchmark: one workload, closed loop, in this process.

    python3 perfbench/run.py --workload train_gruc1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; strokedet is imported from its `src/`.
`--trace 0` times the workload untraced and prints the end-to-end metrics;
`--trace 1` runs it untraced for half of `--seconds`, then with spans around
the public strokedet calls for the other half, and prints the per-layer
metrics. Either way the correctness gate runs, a report line with the
environment precedes the result, and the last line of stdout is the result
JSON. The exit code is 0 only when every check passes. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
from tracer import Tracer
from workloads import ARCH, WORKLOADS, build, inputs_digest, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "windows_per_s": "1/s",
    "run_latency_s_p50": "s",
    "run_latency_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "soft_f1": "f1",
}


def load_strokedet() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "strokedet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no strokedet sources at {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import strokedet
    from strokedet import (architectures, config, errors, layers, pipeline, postprocess,
                           softed, synth, training)
    if Path(strokedet.__file__).resolve().parent != (src / "strokedet").resolve():
        sys.exit(f"perfbench: strokedet imported from {strokedet.__file__}, not {src}")
    return SimpleNamespace(architectures=architectures, config=config, errors=errors,
                           layers=layers, pipeline=pipeline, postprocess=postprocess,
                           softed=softed, synth=synth, training=training)


# --- environment ---------------------------------------------------------------

def _blas() -> dict:
    """BLAS vendor, configuration and thread count as this process sees them."""
    import numpy as np
    info = {"name": None, "config": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                if threads is not None:
                    return info
    return info


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "git_commit": _git_commit(),
    }


# --- timing ----------------------------------------------------------------------

def timed_phase(wl, seconds: float, errors, tracer=None) -> dict:
    """Closed loop: at least `wl.exact_ops` ops, then ops while the next one
    (at the median latency so far) still fits in `seconds`. Throughput is
    windows over the summed op latencies, which leave out the benchmark's
    own checks between ops. Op i repeats op i % wl.period; `op_means` holds
    each distinct op's mean latency over its repeats."""
    latencies, results, failed = [], [], 0
    per_op = {}  # i % period -> latencies
    begin = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - begin
        if i >= wl.exact_ops and elapsed + (statistics.median(latencies) if latencies else 0) > seconds:
            break
        t0 = time.perf_counter()
        span = tracer.span("bench.op", op=i) if tracer else contextlib.nullcontext()
        try:
            with span:
                raw = wl.op(i)
            dt = time.perf_counter() - t0
            result = wl.summarize(i, raw)
        except errors.StrokedetError as exc:
            print(f"perfbench: op {i} failed: {exc!r}", file=sys.stderr)
            result = None
        if result is None or not result.ok:
            failed += 1
            results.append(None)
        else:
            if i >= wl.exact_ops:
                # beyond the prefix only the digest is checked; keeping the
                # rest would make peak memory depend on how many ops ran
                result.confusion = result.scored = None
            latencies.append(dt)
            results.append(result)
            per_op.setdefault(i % wl.period, []).append(dt)
        i += 1
    windows = sum(r.windows for r in results if r is not None)
    return {"latencies": latencies, "results": results, "failed": failed,
            "op_means": [statistics.fmean(v) for v in per_op.values()],
            "windows_per_s": windows / sum(latencies) if latencies else 0.0}


def tail(latencies) -> dict:
    """Highest integer percentile with at least ten samples beyond it
    (nearest rank); the maximum when no percentile from the median up has."""
    xs = sorted(latencies)
    n = len(xs)
    p = 100
    rank = n
    for q in range(99, 49, -1):
        r = math.ceil(q * n / 100)
        if r <= n - 10:
            p, rank = q, r
            break
    return {"value": xs[rank - 1], "percentile": p, "beyond": n - rank, "samples": n}


# --- correctness gate --------------------------------------------------------------

def check_conservation(sd, window_sets, n_time, eval_cfg) -> int:
    """Windows where the soft confusion does not conserve entities."""
    bad = 0
    for events, detections in window_sets:
        c = sd.softed.evaluate_windowed([(events, detections)], n_time, eval_cfg).confusion
        if (abs(c.tp_s + c.fn_s - c.n_events) > 1e-9 or abs(c.tp_s + c.fp_s - c.n_detections) > 1e-9
                or c.tp_s > min(c.n_events, c.n_detections) + 1e-9 or c.tn_s < 0):
            bad += 1
    return bad


def oracle(sd, inp):
    """Label oracle on the held-out windows: smoothed targets as model output."""
    ds, extractor = inp.ds, inp.cfg.extractor_config()
    idx = ds.partition_indices("holdout")
    sets = [(ds.events[i], sd.postprocess.extract_events(ds.Y[i], extractor)) for i in idx]
    result = sd.softed.evaluate_windowed(sets, ds.window_length, inp.cfg.eval_config())
    return result.metrics.f1, sets


def gate(sd, name, wl, inp, phases, setup_digests) -> tuple:
    """Correctness checks (name -> passed) and the figures they produce."""
    checks = {}
    prefix = phases[0]["results"][:wl.exact_ops]
    checks["setup_repeats_identical"] = len(setup_digests) == 1
    checks["prefix_complete"] = all(r is not None for r in prefix)
    # op i repeats op i % period exactly, in both phases
    period = wl.period
    first = {}
    checks["repeat_digests_equal"] = all(
        first.setdefault(i % period, r.digest) == r.digest
        for phase in phases for i, r in enumerate(phase["results"]) if r is not None
    )
    train_loss = getattr(wl, "last_loss", None)
    if name.startswith("train"):
        checks["losses_finite"] = train_loss is not None and math.isfinite(train_loss)
    oracle_f1, oracle_sets = oracle(sd, inp)
    checks["oracle_f1_ge_0.99"] = oracle_f1 is not None and oracle_f1 >= 0.99
    scored_sets = [s for r in prefix if r is not None and r.scored for s in r.scored]
    bad_windows = check_conservation(sd, oracle_sets + scored_sets, inp.ds.window_length,
                                     inp.cfg.eval_config())
    checks["softed_conservation"] = bad_windows == 0
    # only extract_score's detections are meant to score well; the other
    # workloads report the label oracle's F1
    soft_f1 = oracle_f1
    if name == "extract_score":
        total = sd.softed.SoftConfusion()
        for r in prefix:
            if r is not None:
                total += r.confusion
        soft_f1 = sd.softed.soft_metrics(total).f1
    return checks, {
        "soft_f1": soft_f1, "oracle_f1": oracle_f1, "train_loss": train_loss,
        "nonconserving_windows": bad_windows,
        "prefix_digests": [r.digest if r else None for r in prefix],
    }


def store_compare(key: str, entry: dict) -> list:
    """Compare with what earlier runs of this seed stored; returns mismatching fields."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    old = store.get(key, {})
    mismatched = [k for k, v in entry.items() if k in old and old[k] != v]
    store[key] = {**old, **entry}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)
    return mismatched


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sd = load_strokedet()
    name, seed = args.workload, args.seed
    arch = ARCH[name]
    tracer = Tracer() if args.trace else None
    if tracer:
        spans.install(tracer, sd)

    # set-up, repeated so its median is steady; the repeats must agree
    setup_times, setup_digests = [], set()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.span("bench.setup", op=f"setup-{k}") if tracer else contextlib.nullcontext():
            inp = make_inputs(sd, seed, arch, noisy=name == "extract_score")
        setup_times.append(time.perf_counter() - t0)
        setup_digests.add(inputs_digest(inp))
    if tracer:
        tracer.uninstall()

    wl = build(sd, name, inp)
    wl.warm_up()
    seconds = args.seconds / 2 if tracer else args.seconds
    phases = [timed_phase(wl, seconds, sd.errors)]
    if tracer:
        spans.install(tracer, sd)
        try:
            phases.append(timed_phase(wl, seconds, sd.errors, tracer))
        finally:
            tracer.uninstall()
    main_phase = phases[0]

    checks, gate_info = gate(sd, name, wl, inp, phases, setup_digests)
    entry = {"inputs": next(iter(setup_digests)), "outputs": gate_info.pop("prefix_digests")}
    env = environment()
    threads = env["blas"]["threads"]
    checks["blas_threads_within_nproc"] = threads is None or threads <= env["nproc"]

    report = {"workload": name, "seed": seed, "trace": args.trace, "environment": env}
    attempted = sum(len(p["results"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    if tracer:
        overhead = 100.0 * (1.0 - phases[1]["windows_per_s"] / phases[0]["windows_per_s"])
        metrics, shares = spans.per_layer_metrics(tracer, wl.exact_ops, overhead)
        entry["counts"] = {k: metrics[k] for k in spans.EXACT_COUNTS}
        report["self_time_share"] = shares
        report["spans"] = len(tracer.spans)
        units = {k: unit for k, (unit, _) in spans.PER_LAYER.items()}
    else:
        lat = main_phase["latencies"]
        t = tail(lat) if lat else {"value": math.nan}
        metrics = {
            "windows_per_s": main_phase["windows_per_s"],
            "run_latency_s_p50": statistics.median(main_phase["op_means"]) if lat else math.nan,
            "run_latency_s_tail": t["value"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "soft_f1": gate_info["soft_f1"],
        }
        report["run_latency_tail"] = t
        report["setup_times_s"] = setup_times
        units = END_TO_END_UNITS
    mismatched = store_compare(f"{name}/seed{seed}", entry)
    checks["repeats_earlier_runs_of_seed"] = not mismatched
    correct = all(checks.values())
    report.update(gate_info)
    report.update({
        "checks": checks, "mismatched_with_earlier_runs": mismatched,
        "failed_fraction": failed / attempted, "ops_per_phase": [len(p["results"]) for p in phases],
        "exact_counts": entry.get("counts"),
    })

    tag = f"{name}-seed{seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if tracer:
        tracer.write_jsonl(OUT / f"spans-{tag}.jsonl")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
