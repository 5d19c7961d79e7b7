"""Row-sharded model calls: bytes independent of the worker count, workers
that never outlive their caller, and errors that reach it."""

import hashlib
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import strokedet
from strokedet import architectures, shards
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
    shards; sharding is on for every spec."""
    monkeypatch.setattr(architectures, "shardable", lambda spec: True)

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


@pytest.mark.parametrize("case", [("gruc1", 25, 50, 8), ("bgruc1", 41, 30, 3)], ids=lambda c: c[0])
def test_a_single_core_host_gives_the_same_bytes(cores, case):
    # one core: no workers, and BLAS starts one thread, as each worker runs
    # with; at the gruc1 shape two BLAS threads give other bits in the
    # reductions. The bgruc1 case ends on a one-row batch, whose reversed
    # input stays a negative-stride view unless the reduction copies it.
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


def test_worker_runs_the_callers_sources(cores, fresh_pool):
    cores(2)
    pool = shards._shared_pool()
    assert pool.worker_files == [strokedet.__file__] * len(pool.procs)


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

        def killed_once(self, x):
            try:
                os.close(os.open({str(marker)!r}, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return forward(self, x)
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

        def fails(self, x):
            raise NumericError("injected")

        ar.Model.forward = fails
    """)
    cores(2)
    with pytest.raises(NumericError, match="injected") as info:
        _gru_call()()
    assert info.value.exit_code == 4


def test_concurrent_training_threads_get_the_serial_bytes(cores):
    cores(2)
    serial = _train_and_predict("gruc1", 30, 30, 8)
    with ThreadPoolExecutor(2) as ex:
        futures = [ex.submit(_train_and_predict, "gruc1", 30, 30, 8) for _ in range(2)]
        results = [f.result(timeout=TIMEOUT_S) for f in futures]
    assert results == [serial, serial]
