#!/usr/bin/env python3
"""Peak memory of one `train_model` call, summed over this process and its
shard workers.

    python scripts/memory_report.py --arch cnnc1 --train 32 --val 32 --batch-size 32

Trains on seeded random windows. A warm-up call on two windows starts the
worker pool first. During the measured call a sampler thread reads `Pss`
from /proc/<pid>/smaps_rollup of this process and of its children (listed
in /proc/<pid>/task/*/children), starting a sample every 5 ms.
Pss divides each shared page, such as the shard arena's, among the processes
that map it, so the sum counts every page once. A read of smaps_rollup walks
the process's page tables, about 1 ms per 500 MB mapped on an idle core, so
a sample of large processes on a busy host can take longer than the
interval, and the next one then starts at once; the report gives the median
and largest gap between samples. The report gives the peaks in MB of this
process, of the workers summed and of the sum at one sample; then each
process's own peak and the sum of those peaks, which does not depend on
whether the processes peak at the same sample; then the arena's size and the
pages it holds after the call. Only /proc is read.
"""

import argparse
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from strokedet import shards
from strokedet.architectures import build_architecture
from strokedet.training import TrainConfig, train_model

MB = 1024.0
INTERVAL_S = 0.005


def pss_kb(pid: int) -> int:
    """Pss of `pid` in kB; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children(pid: int) -> list:
    kids = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids += [int(k) for k in path.read_text().split()]
        except OSError:
            pass
    return kids


class Sampler(threading.Thread):
    """Peak Pss (kB) of this process, of its children summed, of both, and of
    each process on its own (by pid)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.parent = self.workers = self.total = 0
        self.peaks = {}
        self.starts = []

    def run(self):
        pid = os.getpid()
        while True:
            self.starts.append(time.perf_counter())
            parent = pss_kb(pid)
            kids = {kid: pss_kb(kid) for kid in children(pid)}
            workers = sum(kids.values())
            self.parent = max(self.parent, parent)
            self.workers = max(self.workers, workers)
            self.total = max(self.total, parent + workers)
            for p, kb in [(pid, parent), *kids.items()]:
                self.peaks[p] = max(self.peaks.get(p, 0), kb)
            if self.done.wait(max(0.0, self.starts[-1] + INTERVAL_S - time.perf_counter())):
                return


def pairs(rng, n: int, t: int) -> list:
    return list(zip(rng.uniform(0, 1, (n, t)), rng.uniform(0, 1, (n, t))))


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--arch", default="cnnc1")
    parser.add_argument("--train", type=int, default=32, help="training windows")
    parser.add_argument("--val", type=int, default=32, help="validation windows")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--time", type=int, default=1000, help="samples per window")
    args = parser.parse_args(argv)

    spec = build_architecture(args.arch)
    rng = np.random.default_rng(0)
    train, val = pairs(rng, args.train, args.time), pairs(rng, args.val, args.time)
    cfg = TrainConfig(epochs=1, batch_size=args.batch_size, seed=0)
    train_model(spec, train[:2], TrainConfig(epochs=1, batch_size=2, seed=0))

    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter()
    try:
        train_model(spec, train, cfg, val_dataset=val)
    finally:
        seconds = time.perf_counter() - t0
        sampler.done.set()
        sampler.join()

    pool = shards._POOL
    print(f"{args.arch}: {args.train} train + {args.val} val windows of {args.time} samples, "
          f"batch {args.batch_size}, one epoch, {seconds:.2f} s")
    gaps_ms = 1000 * np.diff(sampler.starts)
    print(f"samples: {len(sampler.starts)}, gap median {np.median(gaps_ms):.1f} ms, "
          f"largest {gaps_ms.max():.1f} ms")
    print(f"peak Pss, this process: {sampler.parent / MB:.1f} MB")
    print(f"peak Pss, workers summed: {sampler.workers / MB:.1f} MB "
          f"({len(pool.procs) if pool else 0} workers)")
    print(f"peak Pss, sum: {sampler.total / MB:.1f} MB")
    own = ", ".join(f"{'this process' if p == os.getpid() else f'worker {p}'} {kb / MB:.1f}"
                    for p, kb in sampler.peaks.items())
    print(f"peak Pss of each process: {own} MB")
    print(f"sum of the per-process peaks: {sum(sampler.peaks.values()) / MB:.1f} MB")
    if pool is None or pool.closed:
        print("arena after the call: none (no worker pool)")
    else:
        held = os.fstat(pool.arena.fd).st_blocks * 512
        print(f"arena after the call: {pool.arena.size / 2**20:.1f} MB mapped, "
              f"{held / 2**20:.1f} MB held")
    return 0


if __name__ == "__main__":
    sys.exit(run())
