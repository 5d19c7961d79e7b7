"""Row-sharded `Model` calls on one worker process per core.

`Model.mse_step` and `Model.predict` run each batch of a recurrent model
through `executor`. It cuts the batch's rows into contiguous shards of at
least `MIN_ROWS` rows, as many as the cores and rows allow, one per worker
process. Each worker runs its rows' forward pass and, when training, its
rows' backward pass, leaving every layer's reduction inputs (`reduce_shapes`)
in full-batch arrays. Then each layer's weight-gradient reduction runs once
over the full batch on one worker, with the layer's own `reduce`, so the
summation order is that of an unsharded call. The caller keeps the loss and
the optimiser step.

Every per-row operation gives a row the same bits whatever rows share its
shard, and every BLAS call runs on one thread, as on a single-core host,
which runs the same layers in-process with no workers. Output bytes
therefore do not depend on the number of cores.

Workers are `python -m strokedet.shard_worker` children that import the
caller's own `strokedet` sources and run with one OpenBLAS thread each: the
GRU recurrence holds the GIL, so processes, not threads, overlap it. They
share arrays through one `memfd` arena mapped by every process and take
small pickled messages on stdin/stdout. The pool starts on the first call of
a recurrent model, serves one call at a time to any thread, and is closed
and waited for at exit. A worker that dies fails its call with
`StrokedetError` and the next call starts a new pool; an error raised in a
worker is raised again in the caller with its own type and exit code.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import StrokedetError

# A shard of one row would run the GRU's (rows, 3h) @ (3h, h) products as
# matrix-vector BLAS calls, whose rows differ in the last bits from the same
# rows of a matrix product; shards of two rows or more all take one path.
MIN_ROWS = 2
# A batch of the default 32 rows never makes more shards than this.
MAX_WORKERS = 16
_ALIGN = 64
_WAIT_S = 10.0


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def shard_bounds(rows: int, shards: int) -> list:
    """(lo, hi) of `shards` contiguous row ranges, sizes differing by at most 1."""
    base, extra = divmod(rows, shards)
    bounds, lo = [], 0
    for k in range(shards):
        hi = lo + base + (k < extra)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class Arena:
    """float64 arrays at byte offsets of one memfd, mapped by every process.

    A ref is (offset, shape). The caller grows the file; a worker maps the
    size it is told. Growing keeps earlier mappings valid: they map the same
    pages.
    """

    def __init__(self, fd: int):
        self.fd = fd
        self.size = 0
        self.map = None

    def attach(self, size: int) -> None:
        if size > self.size:
            self.map = mmap.mmap(self.fd, size)
            self.size = size

    def reserve(self, size: int) -> None:
        if size > self.size:
            size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
            os.ftruncate(self.fd, size)
            self.attach(size)

    def array(self, ref) -> np.ndarray:
        offset, shape = ref
        return np.ndarray(shape, dtype=np.float64, buffer=self.map, offset=offset)


class _Layout:
    """Bump allocation of arena refs."""

    def __init__(self):
        self.end = 0

    def add(self, shape) -> tuple:
        offset = -(-self.end // _ALIGN) * _ALIGN
        shape = tuple(int(n) for n in shape)
        self.end = offset + 8 * int(np.prod(shape))
        return offset, shape


def send(stream, message) -> None:
    pickle.dump(message, stream, protocol=pickle.HIGHEST_PROTOCOL)
    stream.flush()


class Pool:
    """`n` worker processes sharing one arena; `run` is one request per worker."""

    def __init__(self, n: int):
        self.pid = os.getpid()
        self.closed = False
        self.lock = threading.Lock()
        self.procs = []
        self.arena = Arena(os.memfd_create("strokedet-shards"))
        src = str(Path(__file__).resolve().parents[1])  # holds this strokedet package
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        try:
            for _ in range(n):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "strokedet.shard_worker", str(self.arena.fd)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                    pass_fds=(self.arena.fd,),
                ))
            self.worker_files = [self._recv(proc)[1] for proc in self.procs]
        except BaseException:
            self.close()
            raise

    def _recv(self, proc):
        try:
            return pickle.load(proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            try:
                code = proc.wait(timeout=_WAIT_S)
            except subprocess.TimeoutExpired:
                code = None
            raise StrokedetError(f"shard worker {proc.pid} exited (code {code})") from None

    def run(self, messages: list) -> list:
        """Send messages[k] to worker k; the workers' results, in order.

        A worker's error is raised once every worker has replied, leaving
        the pool usable. Anything else that stops a round (a lost worker, an
        interrupt) closes the pool, since replies may still be in flight.
        """
        try:
            for proc, message in zip(self.procs, messages):
                try:
                    send(proc.stdin, message)
                except OSError:
                    self._recv(proc)  # raises, with the worker's exit code
            replies = [self._recv(proc) for proc in self.procs[:len(messages)]]
        except BaseException:
            self.close()
            raise
        for ok, value in replies:
            if not ok:
                raise value
        return [value for _, value in replies]

    def close(self) -> None:
        """End every worker (EOF, then kill if it does not exit) and wait for it."""
        if self.closed:
            return
        self.closed = True
        for proc in self.procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=_WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=_WAIT_S)
            proc.stdout.close()
        os.close(self.arena.fd)


class _InProcess:
    """One shard: the model's own forward and backward in this process."""

    def __init__(self, model):
        self.model = model

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.model.forward(x)

    def backward(self, gy: np.ndarray) -> None:
        self.model.backward(gy)


class _Sharded:
    """One model call split over the pool's workers."""

    def __init__(self, pool: Pool, model, bounds: list):
        self.pool, self.model, self.bounds = pool, model, bounds
        self.layout = _Layout()

    def _round(self, messages: list) -> list:
        size = self.pool.arena.size
        return self.pool.run([(op, size, *args) for op, *args in messages])

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        arena, layout = self.pool.arena, self.layout
        params = {name: layout.add(value.shape) for name, value in self.model.named_params()}
        xref, pref = layout.add(x.shape), layout.add(x.shape[:2])
        arena.reserve(layout.end)
        for name, value in self.model.named_params():
            arena.array(params[name])[...] = value
        arena.array(xref)[...] = x
        self.shapes = self._round([("forward", lo, hi, self.model.spec, params, xref, pref, train)
                                   for lo, hi in self.bounds])[0]
        return arena.array(pref).copy()

    def backward(self, gy: np.ndarray) -> None:
        arena, layout, layers = self.pool.arena, self.layout, self.model.layers
        rows = gy.shape[0]
        gref = layout.add(gy.shape)
        reds = [{name: layout.add((rows,) + shape) for name, shape in layer.items()}
                for layer in self.shapes]
        grads = [{name: layout.add(value.shape) for name, value in obj.params.items()}
                 for obj in layers]
        arena.reserve(layout.end)
        arena.array(gref)[...] = gy
        self._round([("backward", lo, hi, gref, reds) for lo, hi in self.bounds])
        # each layer's reduction runs whole on one worker, largest layers first
        # onto the least loaded worker
        tasks = [[] for _ in self.bounds]
        load = [0] * len(self.bounds)
        for i in sorted(range(len(layers)), key=lambda i: -_bytes(reds[i])):
            k = load.index(min(load))
            tasks[k].append((i, reds[i], grads[i]))
            load[k] += _bytes(reds[i])
        self._round([("reduce", task) for task in tasks])
        for obj, refs in zip(layers, grads):
            obj.grads = {name: arena.array(ref).copy() for name, ref in refs.items()}


def _bytes(refs: dict) -> int:
    return sum(8 * int(np.prod(shape)) for _, shape in refs.values())


_POOL = None
_POOL_LOCK = threading.Lock()


def _shared_pool():
    """The process's pool, started on first use; None with fewer than two cores."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed or _POOL.pid != os.getpid():  # not a fork's
            n = min(_cores(), MAX_WORKERS)
            if n < 2 or not hasattr(os, "memfd_create"):
                return None
            _POOL = Pool(n)
        return _POOL


def close_pool() -> None:
    with _POOL_LOCK:
        if _POOL is not None and _POOL.pid == os.getpid():
            _POOL.close()


atexit.register(close_pool)


@contextmanager
def executor(model, rows: int, shardable: bool):
    """Runs one call of `model` on a batch of `rows` rows: `forward` and then,
    when training, `backward` with the gradient w.r.t. the output."""
    while True:
        pool = _shared_pool() if shardable else None
        if pool is None:
            yield _InProcess(model)
            return
        with pool.lock:
            if not pool.closed:  # else another thread lost a worker since
                n = max(1, min(_cores(), len(pool.procs), rows // MIN_ROWS))
                yield _Sharded(pool, model, shard_bounds(rows, n))
                return
