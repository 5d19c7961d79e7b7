"""Row-sharded `Model` calls on one worker process per core.

`Model.mse_step` runs each training batch through `executor`, and
`Model.predict` its whole window set, in one call each, whatever the model's
layers. The executor cuts the rows into contiguous shards of at least
`MIN_ROWS` rows, one per worker process, and each worker runs its shard with
`Model.forward`: a prediction in the `chunk_bounds` chunks of `batch_size`,
keeping no layer cache, so `batch_size` bounds the rows one process holds at
once, not how rows are spread over workers; a training call in one chunk, then
its backward pass, which pops the caches `Model` kept and leaves every layer's
reduction inputs in full-batch arena arrays. Then each layer's weight-gradient
reduction runs once over the full batch on one worker, with the layer's own
`reduce`, so the summation order is that of an unsharded call. The caller
keeps the loss and the optimiser step.

Every per-row operation gives a row the same bits whatever rows share its
shard or chunk, and every BLAS call runs on one thread, as on a host with no
pool (one core, or no `os.memfd_create`), where `executor` yields the `Model`
itself. Output bytes therefore depend neither on the number of cores nor, for
a prediction, on `batch_size`. That in-process path stays: on one core
(`taskset -c 0`) a one-worker pool keeps the bytes but raises the peak summed
Pss of a `train_model` call on 32 + 32 windows (GRUc1 361 -> 473 MB, CNNc1
1176 -> 1363 MB), and Pythons built against glibc < 2.27 have no memfd.

Workers are `python -m strokedet.shard_worker` children that must import the
caller's own `strokedet` sources and run with one OpenBLAS thread each: the
GRU recurrence holds the GIL, so processes, not threads, overlap it. They
share arrays through one `memfd` arena and take small pickled messages on
stdin/stdout. A call lays out all its arrays, reduction inputs included
(`reduce_shapes`, from the layers and the window length alone), before its
first round and sizes the arena to that layout once, giving back the pages
beyond it; calls of one size keep their pages. The pool starts on the first
model call, serves one call at a time to any thread, and is closed and
waited for at exit. A worker that dies fails its call with `StrokedetError`
and the next call starts a new pool; an error raised in a worker is raised
again in the caller with its own type and exit code.
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

# A shard or chunk of one row would run the GRU's (rows, 3h) @ (3h, h)
# products as matrix-vector BLAS calls, whose rows differ in the last bits
# from the same rows of a matrix product; two rows or more all take one path.
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


def chunk_bounds(rows: int, batch_size: int | None) -> list:
    """(lo, hi) of the chunks in which one process runs `rows` rows: one
    chunk for `batch_size` None, else at most `batch_size` rows each, but
    never under `MIN_ROWS` rows (so up to 2 * MIN_ROWS - 1) unless rows < 2."""
    if batch_size is None:
        return [(0, rows)]
    return shard_bounds(rows, max(1, min(-(-rows // batch_size), rows // MIN_ROWS)))


class Arena:
    """float64 arrays at byte offsets of one memfd, mapped by every process.

    A ref is (offset, shape). The caller sizes the file with `fit`, once per
    call; a worker maps the size it is told. Growing keeps earlier mappings
    valid: they map the same pages. Shrinking frees the pages beyond a size
    and keeps the file's size, so every mapping stays valid and reads zeros
    there.
    """

    def __init__(self, fd: int):
        self.fd = fd
        self.size = 0
        self.map = None

    def attach(self, size: int) -> None:
        if size > self.size:
            self.map = mmap.mmap(self.fd, size)
            self.size = size

    def fit(self, size: int) -> None:
        """Holds `size` bytes, rounded up to whole pages, and no page beyond."""
        size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
        if size > self.size:
            os.ftruncate(self.fd, size)
            self.attach(size)
        elif size < self.size:
            self.map.madvise(mmap.MADV_REMOVE, size, self.size - size)

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
            ours = Path(__file__).resolve().with_name("__init__.py")
            for proc in self.procs:
                theirs = self._recv(proc)[1]
                if Path(theirs).resolve() != ours:
                    raise StrokedetError(f"shard worker {proc.pid} imports strokedet from "
                                         f"{theirs}, not from the caller's {ours}")
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


class _Sharded:
    """One model call split over the pool's workers."""

    def __init__(self, pool: Pool, model, bounds: list):
        self.pool, self.model, self.bounds = pool, model, bounds

    def _round(self, messages: list) -> list:
        size = self.pool.arena.size
        return self.pool.run([(op, size, *args) for op, *args in messages])

    def forward(self, x: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        arena, layout, model = self.pool.arena, _Layout(), self.model
        params = {name: layout.add(value.shape) for name, value in model.named_params()}
        xref, pref = layout.add(x.shape), layout.add(x.shape[:2])
        if batch_size is None:  # a training call: lay out its backward pass too
            rows, t = x.shape[:2]
            gref = layout.add((rows, t))
            reds = [{name: layout.add((rows,) + shape) for name, shape in obj.reduce_shapes(t).items()}
                    for obj in model.layers]
            grads = [{name: layout.add(value.shape) for name, value in obj.params.items()}
                     for obj in model.layers]
            self.refs = gref, reds, grads
        arena.fit(layout.end)
        for name, value in model.named_params():
            arena.array(params[name])[...] = value
        arena.array(xref)[...] = x
        self._round([("forward", lo, hi, model.spec, params, xref, pref, batch_size)
                     for lo, hi in self.bounds])
        return arena.array(pref).copy()

    def backward(self, gy: np.ndarray) -> None:
        arena, layers = self.pool.arena, self.model.layers
        gref, reds, grads = self.refs
        arena.array(gref)[...] = gy
        self._round([("backward", lo, hi, gref, reds) for lo, hi in self.bounds])
        # each layer's reduction runs whole on one worker, largest layers first
        # onto the least loaded worker; a reduction sums every weight entry's
        # gradient over the batch's rows and time steps, so its cost follows
        # the layer's parameter count
        tasks = [[] for _ in self.bounds]
        load = [0] * len(self.bounds)
        cost = [sum(value.size for value in obj.params.values()) for obj in layers]
        for i in sorted(range(len(layers)), key=lambda i: -cost[i]):
            k = load.index(min(load))
            tasks[k].append((i, reds[i], grads[i]))
            load[k] += cost[i]
        self._round([("reduce", task) for task in tasks])
        for obj, refs in zip(layers, grads):
            obj.grads = {name: arena.array(ref).copy() for name, ref in refs.items()}


_POOL = None
_POOL_LOCK = threading.Lock()


def _shared_pool():
    """The process's pool, started on first use; None with fewer than two
    cores or without memfd."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed or _POOL.pid != os.getpid():  # not a fork's
            if not hasattr(os, "memfd_create"):  # nor sched_getaffinity, off Linux
                return None
            n = min(_cores(), MAX_WORKERS)
            if n < 2:
                return None
            _POOL = Pool(n)
        return _POOL


def close_pool() -> None:
    with _POOL_LOCK:
        if _POOL is not None and _POOL.pid == os.getpid():
            _POOL.close()


atexit.register(close_pool)


@contextmanager
def executor(model, rows: int):
    """Runs one call of `model` on `rows` rows: `forward` and then, when
    training, `backward` with the gradient w.r.t. the output. With no pool
    it yields `model` itself."""
    while True:
        pool = _shared_pool()
        if pool is None:
            yield model
            return
        with pool.lock:
            if not pool.closed:  # else another thread lost a worker since
                n = max(1, min(_cores(), len(pool.procs), rows // MIN_ROWS))
                yield _Sharded(pool, model, shard_bounds(rows, n))
                return
