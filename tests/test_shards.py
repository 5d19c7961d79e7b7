"""Row-sharded model calls: bytes independent of the worker count, workers
that never outlive their caller, and errors that reach it."""

import hashlib
import os
import platform
import re
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import strokedet
from strokedet import shards
from strokedet.architectures import Model, build_architecture, init_params
from strokedet.cli import main
from strokedet.errors import NumericError, StrokedetError
from strokedet.training import TrainConfig, predict_batch, train_model

# a pipe or file that the worker code leaves open fails the test that left it
pytestmark = [pytest.mark.filterwarnings("error::ResourceWarning"),
              pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")]

SRC = Path(strokedet.__file__).resolve().parent.parent
TIMEOUT_S = 300


def _digest(params, history=()) -> str:
    h = hashlib.sha256(repr(history).encode())
    for key in sorted(params):
        h.update(key.encode() + params[key].tobytes())
    return h.hexdigest()


def _data(n, t, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, t)), rng.uniform(0, 1, (n, t))


@pytest.fixture
def cores(monkeypatch):
    """cores(n) makes calls see n cores, so that a batch makes at most n
    shards."""

    def set_cores(n):
        monkeypatch.setattr(shards, "_cores", lambda: n)
    return set_cores


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool of this test's own, started by its first sharded call and
    closed at the end; the process's shared pool is left as it was."""
    monkeypatch.setattr(shards, "_POOL", None)
    yield
    shards.close_pool()


def _train_and_predict(arch, n, t, batch_size, epochs=1):
    spec = build_architecture(arch)
    X, Y = _data(n, t)
    data = list(zip(X, Y))
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, seed=5)
    params, history = train_model(spec, data[:-4], cfg, val_dataset=data[-4:])
    out = predict_batch(spec, params, X, batch_size=batch_size)
    return _digest(params, history), out.tobytes()


@pytest.mark.parametrize("arch, n, t, batch_sizes", [
    ("gruc1", 41, 40, (2, 3, 5, 16, 32)),
    ("bgruc1", 41, 30, (3, 5, 16, 32)),
    ("cnnc1", 11, 20, (2, 5)),
])
def test_one_and_two_shards_give_the_same_bytes(cores, arch, n, t, batch_sizes):
    # n - 4 training windows leave a partial last batch at every size
    cores(2)
    assert len(shards._shared_pool().procs) >= 2
    for batch_size in batch_sizes:
        results = []
        for n_cores in (1, 2):
            cores(n_cores)
            results.append(_train_and_predict(arch, n, t, batch_size))
        assert results[0] == results[1], (arch, batch_size)


_ONE_CORE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path[:0] = sys.argv[1:3]
from test_shards import _train_and_predict
from strokedet import shards
assert shards._shared_pool() is None
print(_train_and_predict(sys.argv[3], *map(int, sys.argv[4:]))[0])
"""


@pytest.mark.parametrize("case", [("gruc1", 25, 50, 8), ("bgruc1", 41, 30, 3), ("cnnc1", 24, 20, 20)],
                         ids=lambda c: c[0])
def test_a_single_core_host_gives_the_same_bytes(cores, case):
    # one core: no workers, and BLAS starts one thread, as each worker runs
    # with; at the gruc1 shape, and at the cnnc1 shape's reduction length
    # b * t = 400, two BLAS threads give other bits in the reductions. The
    # bgruc1 case ends on a one-row batch, whose reversed input would reshape
    # to a negative-stride view; the backward pass copies it into a C-order
    # buffer, in-process as on the workers.
    cores(2)
    sharded = _train_and_predict(*case)[0]
    out = subprocess.run([sys.executable, "-c", _ONE_CORE, str(SRC), str(Path(__file__).parent),
                          *map(str, case)],
                         capture_output=True, text=True, timeout=TIMEOUT_S)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == sharded


def test_shard_bounds_are_contiguous_and_even():
    assert shards.shard_bounds(5, 2) == [(0, 3), (3, 5)]
    assert shards.shard_bounds(32, 2) == [(0, 16), (16, 32)]
    assert shards.shard_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]


@given(st.integers(1, 400), st.integers(1, 100))
def test_chunks_cover_the_rows_with_two_rows_or_more(rows, batch_size):
    chunks = shards.chunk_bounds(rows, batch_size)
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
    assert chunks[-1][1] == rows
    if rows >= 2:
        most = max(batch_size, 2 * shards.MIN_ROWS - 1)
        assert all(shards.MIN_ROWS <= hi - lo <= most for lo, hi in chunks)
    assert shards.chunk_bounds(rows, None) == [(0, rows)]


@pytest.mark.parametrize("arch", ["gruc1", "bgruc1"])
def test_prediction_bytes_depend_on_neither_batch_size_nor_cores(cores, arch):
    # 33 windows leave a one-row last slice at batch sizes 2, 16 and 32,
    # which must not take the matrix-vector path
    spec = build_architecture(arch)
    model = Model(spec, init_params(spec, 0))
    X, _ = _data(33, 30)
    outputs = {}
    for n_cores in (1, 2):
        cores(n_cores)
        for batch_size in (2, 3, 5, 16, 32, 64):
            outputs[n_cores, batch_size] = model.predict(X, batch_size).tobytes()
    assert [key for key, out in outputs.items() if out != outputs[2, 64]] == []


def test_a_prediction_is_one_round_cut_across_the_workers(cores, monkeypatch):
    cores(2)
    rounds = []
    run = shards.Pool.run

    def counted(pool, messages):
        rounds.append([(op, lo, hi) for op, _, lo, hi, *_ in messages])
        return run(pool, messages)

    monkeypatch.setattr(shards.Pool, "run", counted)
    spec = build_architecture("bgruc1")
    X, _ = _data(35, 20)
    Model(spec, init_params(spec, 0)).predict(X, batch_size=32)
    assert rounds == [[("forward", 0, 18), ("forward", 18, 35)]]


def _held(arena) -> int:
    """Bytes of the pages the arena's memfd holds."""
    return os.fstat(arena.fd).st_blocks * 512


def test_a_smaller_call_keeps_the_arena_pages(cores, fresh_pool):
    cores(2)
    spec = build_architecture("gruc1")
    model = Model(spec, init_params(spec, 0))
    small, _ = _data(2, 1000)
    large, _ = _data(600, 1000)
    model.predict(small, batch_size=32)
    arena = shards._shared_pool().arena
    held = _held(arena)
    model.predict(large, batch_size=32)
    assert _held(arena) > 10 * held
    held = _held(arena)
    out = model.predict(small, batch_size=32)
    assert _held(arena) >= held
    np.testing.assert_array_equal(model.predict(large, batch_size=32)[:2], out)


def _minor_faults(pid: int) -> int:
    """Minor page faults of `pid` so far (field 10 of /proc/<pid>/stat)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat[stat.rindex(")") + 2:].split()[7])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc variables")
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_workers_reuse_the_memory_of_earlier_steps(cores, fresh_pool):
    # a 32-row CNNc1 step lays out ~150 MB of arena and frees conv
    # temporaries of 13 MB and more on every worker; a step that gave its
    # pages back and faulted them in again would fault thousands of pages
    cores(2)
    spec = replace(build_architecture("cnnc1"), input_length=200)
    model = Model(spec, init_params(spec, 0))
    X, Y = _data(32, 200)
    x = X[:, :, None]
    model.mse_step(x, Y)  # warm-up: the pool starts and every page is touched once
    pids = [proc.pid for proc in shards._shared_pool().procs]

    def faults(call):
        before = sum(map(_minor_faults, pids))
        call()
        return sum(map(_minor_faults, pids)) - before

    assert faults(lambda: model.mse_step(x, Y)) < 100
    model.predict(X[:8], batch_size=8)
    assert faults(lambda: model.mse_step(x, Y)) < 100


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc")
def test_closing_the_pool_unmaps_the_arena(cores, fresh_pool):
    cores(2)
    _gru_call()()
    pool = shards._shared_pool()
    inode = str(os.fstat(pool.arena.fd).st_ino)

    def mapped():
        return any(line.split()[4] == inode and "memfd:strokedet-shards" in line
                   for line in Path("/proc/self/maps").read_text().splitlines())

    assert mapped()
    shards.close_pool()
    assert pool.closed and not mapped()


def test_same_size_training_steps_keep_their_arena_pages(cores, fresh_pool, monkeypatch):
    # the arena is sized once per call, and a step of one size frees no page
    cores(2)
    freed = []
    fit = shards.Arena.fit

    def counted(arena, size):
        freed.append(_held(arena))
        fit(arena, size)
        freed[-1] -= _held(arena)
    monkeypatch.setattr(shards.Arena, "fit", counted)
    spec = build_architecture("gruc1")
    X, Y = _data(12, 30)
    train_model(spec, list(zip(X, Y)), TrainConfig(epochs=2, batch_size=4, seed=0))
    assert len(freed) == 6 and not any(freed)


def test_worker_runs_the_callers_sources(cores, fresh_pool):
    # the pool checks each worker's sources as it starts
    cores(2)
    pool = shards._shared_pool()
    assert pool is not None and not pool.closed


def test_a_host_without_memfd_or_affinity_runs_in_process(monkeypatch):
    # as on macOS or Windows: the model runs itself, and no pool starts
    monkeypatch.setattr(shards, "_POOL", None)
    monkeypatch.delattr(os, "memfd_create")
    monkeypatch.delattr(os, "sched_getaffinity")

    def no_pool(n):
        raise AssertionError("a pool was started")
    monkeypatch.setattr(shards, "Pool", no_pool)
    spec = build_architecture("gruc1")
    model = Model(spec, init_params(spec, 0))
    X, Y = _data(5, 20)
    assert model.predict(X, batch_size=2).shape == (5, 20)
    assert np.isfinite(model.mse_step(X[:, :, None], Y))
    assert set(model.gradients()) == set(init_params(spec, 0))
    assert shards._POOL is None


def test_an_in_process_prediction_holds_no_layer_caches(monkeypatch):
    # a prediction frees each layer's cache before the next layer runs, so
    # its peak stays within a few of its widest activations; a training
    # step's caches are gone once its backward pass has used them
    monkeypatch.setattr(shards, "_shared_pool", lambda: None)
    spec = replace(build_architecture("cnnc1"), input_length=200)
    model = Model(spec, init_params(spec, 0))
    X, Y = _data(8, 200)
    activation = 8 * 200 * 512 * 8  # bytes of one (8, 200, 512) float64 array
    tracemalloc.start()
    try:
        model.predict(X, batch_size=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * activation
    assert np.isfinite(model.mse_step(X[:, :, None], Y))
    assert model.caches == []


def _workspace(root: Path) -> Path:
    tiny = ["n_athletes=4", "runs_per_athlete=1", "run_duration=7", "n_folds=2",
            "holdout_fraction=0.25", "epochs=1", "batch_size=8", "seed=0"]
    args = [a for kv in tiny for a in ("--set", kv)]
    assert main(["synth"] + args + ["--out", str(root / "raw")]) == 0
    assert main(["preprocess"] + args + ["--data", str(root / "raw"), "--out", str(root / "data")]) == 0
    return root / "data"


def test_no_process_of_a_run_outlives_it(tmp_path):
    data = _workspace(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "strokedet.cli", "train", "--data", str(data),
         "--weights", str(tmp_path / "w.bin"), "--set", "epochs=1", "--set", "batch_size=8",
         "--set", "n_folds=2"],
        env=env, start_new_session=True,
    )
    try:
        assert proc.wait(timeout=TIMEOUT_S) == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
            proc.wait(timeout=TIMEOUT_S)
    # the session's group is empty: no worker is left, not even a zombie
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_a_worker_does_not_load_scipy_optimize():
    """Only scoring needs it; each worker would carry its ~13 MB of private memory."""
    code = "import sys, strokedet.shard_worker; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    assert out.stdout.strip() == "[]"


def _inject(tmp_path, monkeypatch, body: str) -> None:
    """Workers started from now on run `body` at start-up (via sitecustomize)."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(textwrap.dedent(body))
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", str(site) + (os.pathsep + path if path else ""))


def _gru_call(batch=8, t=20):
    spec = build_architecture("gruc1")
    model = Model(spec, init_params(spec, 0))
    X, _ = _data(batch, t)
    return lambda: model.predict(X, batch_size=batch)


def test_killed_worker_fails_the_call_and_the_next_call_works(tmp_path, monkeypatch, cores, fresh_pool):
    marker = tmp_path / "killed"
    _inject(tmp_path, monkeypatch, f"""
        import os, signal
        import strokedet.architectures as ar

        forward = ar.Model.forward

        def killed_once(self, *args):
            try:
                os.close(os.open({str(marker)!r}, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return forward(self, *args)
            os.kill(os.getpid(), signal.SIGKILL)

        ar.Model.forward = killed_once
    """)
    cores(2)
    call = _gru_call()
    with ThreadPoolExecutor(1) as ex:
        with pytest.raises(StrokedetError, match="exited"):
            ex.submit(call).result(timeout=TIMEOUT_S)
        assert marker.exists()
        out = ex.submit(call).result(timeout=TIMEOUT_S)
    np.testing.assert_array_equal(out, call())


def test_numeric_error_in_worker_keeps_its_exit_code(tmp_path, monkeypatch, cores, fresh_pool):
    _inject(tmp_path, monkeypatch, """
        import strokedet.architectures as ar
        from strokedet.errors import NumericError

        def fails(self, *args):
            raise NumericError("injected")

        ar.Model.forward = fails
    """)
    cores(2)
    with pytest.raises(NumericError, match="injected") as info:
        _gru_call()()
    assert info.value.exit_code == 4


def test_a_worker_that_imports_other_sources_is_refused(tmp_path, monkeypatch, cores, fresh_pool):
    _inject(tmp_path, monkeypatch, """
        import strokedet

        strokedet.__file__ = "/elsewhere/strokedet/__init__.py"
    """)
    cores(2)
    ours = re.escape(str(Path(strokedet.__file__).resolve()))
    with pytest.raises(StrokedetError, match=f"/elsewhere/strokedet/__init__.py.*{ours}"):
        _gru_call()()


def test_concurrent_training_threads_get_the_serial_bytes(cores):
    cores(2)
    serial = _train_and_predict("gruc1", 30, 30, 8)
    with ThreadPoolExecutor(2) as ex:
        futures = [ex.submit(_train_and_predict, "gruc1", 30, 30, 8) for _ in range(2)]
        results = [f.result(timeout=TIMEOUT_S) for f in futures]
    assert results == [serial, serial]
