"""End-to-end CLI runs on a miniature synthetic dataset."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from strokedet.architectures import build_architecture, init_params
from strokedet.cli import main
from strokedet.config import load_config
from strokedet.pipeline import load_dataset
from strokedet.postprocess import extract_events
from strokedet.softed import evaluate_windowed, metrics_payload
from strokedet.weights_io import load_arrays, save_arrays

TINY = [
    "n_athletes=4", "runs_per_athlete=1", "run_duration=7",
    "stroke_rate_min=55", "stroke_rate_max=95",
    "n_folds=2", "holdout_fraction=0.25",
    "epochs=2", "batch_size=8", "seed=0",
]


def tiny_args(extra):
    args = []
    for kv in TINY:
        args.extend(["--set", kv])
    return args + extra


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    raw = root / "raw"
    data = root / "data"
    assert main(["synth"] + tiny_args(["--out", str(raw)])) == 0
    assert main(["preprocess"] + tiny_args(["--data", str(raw), "--out", str(data)])) == 0
    return root


def test_synth_writes_manifest_and_runs(workspace):
    raw = workspace / "raw"
    manifest = json.loads((raw / "manifest.json").read_text())
    assert len(manifest["files"]) == 4
    for entry in manifest["files"]:
        assert (raw / entry["run_csv"]).exists()
        assert (raw / entry["events"]).exists()
    assert manifest["digest"]


def test_synth_same_seed_same_digest(workspace, tmp_path):
    again = tmp_path / "again"
    assert main(["synth"] + tiny_args(["--out", str(again)])) == 0
    d1 = json.loads((workspace / "raw" / "manifest.json").read_text())["digest"]
    d2 = json.loads((again / "manifest.json").read_text())["digest"]
    assert d1 == d2


def test_preprocess_outputs(workspace):
    data = workspace / "data"
    assert (data / "windows.bin").exists()
    assert (data / "windows.meta.json").exists()
    split = json.loads((data / "split.json").read_text())
    assert len(split["assignments"]) == 4


def test_train_count_only(capsys):
    assert main(["train", "--arch", "cnn_dense", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "513,317,544"


def test_train_and_weights(workspace):
    data = workspace / "data"
    weights = workspace / "gruc1.bin"
    history = workspace / "history.csv"
    code = main(["train"] + tiny_args([
        "--data", str(data), "--weights", str(weights), "--history", str(history),
    ]))
    assert code == 0
    assert weights.exists()
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 3  # header + 2 epochs


def test_train_determinism(workspace, tmp_path):
    data = workspace / "data"
    w2 = tmp_path / "again.bin"
    assert main(["train"] + tiny_args(["--data", str(data), "--weights", str(w2)])) == 0
    assert w2.read_bytes() == (workspace / "gruc1.bin").read_bytes()


def test_predict_writes_detections(workspace):
    data = workspace / "data"
    out = workspace / "dets.jsonl"
    code = main(["predict"] + tiny_args([
        "--data", str(data), "--predict-from-labels", "--out", str(out),
    ]))
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert any("window" in obj for obj in lines)
    assert any("t" in obj for obj in lines)


def test_evaluate_oracle_mode(workspace, capsys):
    data = workspace / "data"
    out = workspace / "eval"
    code = main(["evaluate"] + tiny_args([
        "--data", str(data), "--predict-from-labels", "--out", str(out),
    ]))
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["f1"] >= 0.99
    assert metrics["k"] == 15 and metrics["h"] == 15
    hist_lines = (out / "histogram.csv").read_text().splitlines()
    assert hist_lines[0] == "bucket_low,bucket_high,count"
    assert len(hist_lines) == 1 + 15 + 1  # header + k buckets + exact-hit bucket
    # histogram mass = matched pairs + unmatched restricted entities
    counts = sum(int(line.split(",")[2]) for line in hist_lines[1:])
    assert counts > 0


def test_evaluate_determinism(workspace, tmp_path):
    data = workspace / "data"
    out2 = tmp_path / "eval2"
    assert main(["evaluate"] + tiny_args([
        "--data", str(data), "--predict-from-labels", "--out", str(out2),
    ])) == 0
    assert (out2 / "metrics.json").read_bytes() == (workspace / "eval" / "metrics.json").read_bytes()
    assert (out2 / "histogram.csv").read_bytes() == (workspace / "eval" / "histogram.csv").read_bytes()


def test_evaluate_with_trained_model(workspace):
    data = workspace / "data"
    out = workspace / "eval_model"
    code = main(["evaluate"] + tiny_args([
        "--data", str(data), "--weights", str(workspace / "gruc1.bin"), "--out", str(out),
    ]))
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("precision", "recall", "f1"):
        assert metrics[key] is None or 0.0 <= metrics[key] <= 1.0


def test_crossval_report(workspace):
    data = workspace / "data"
    out = workspace / "cv"
    code = main(["crossval"] + tiny_args(["--data", str(data), "--out", str(out)]))
    assert code == 0
    lines = (out / "crossval.csv").read_text().splitlines()
    assert lines[0] == "fold,architecture,precision,recall,f1,n_parameters"
    assert len(lines) == 1 + 2 + 1  # header + 2 folds + mean
    assert all(line.split(",")[5] == "37889" for line in lines[1:])
    assert (out / "crossval.txt").read_text().count("GRUc1") == 3


def test_evaluate_train_minus_val_partition(workspace, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate"] + tiny_args([
        "--data", str(workspace / "data"), "--predict-from-labels", "--out", str(out),
        "--partition", "train_minus_val",
    ])) == 0
    ds = load_dataset(workspace / "data")
    cfg = load_config(None, TINY)
    window_sets = [(ds.events[i], extract_events(ds.Y[i], cfg.extractor_config()))
                   for i in ds.partition_indices("train_minus_val", val_fold=0)]
    expected = evaluate_windowed(window_sets, ds.window_length, cfg.eval_config())
    assert 0 < expected.n_windows < len(ds.X)
    assert json.loads((out / "metrics.json").read_text()) == metrics_payload(expected)
    assert main(["evaluate"] + tiny_args([
        "--data", str(workspace / "data"), "--predict-from-labels", "--out", str(out),
        "--partition", "train_minus_val", "--set", "val_fold=2",
    ])) == 2


@pytest.mark.parametrize("command", ["train", "crossval", "predict", "evaluate"])
def test_count_only_architecture_refused(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "train":
        extra = ["--arch", "cnn_dense", "--weights", str(out / "w.bin")]
    elif command == "crossval":
        extra = ["--arch", "cnn_dense", "--out", str(out)]
    else:  # a real GRUc1 weights file, run as cnn_dense
        weights = tmp_path / "gruc1.bin"
        save_arrays(weights, init_params(build_architecture("gruc1"), 0))
        extra = ["--set", "arch=cnn_dense", "--weights", str(weights), "--out", str(out)]
    assert main([command] + tiny_args(["--data", str(workspace / "data"), *extra])) == 2
    assert "can only be counted" in capsys.readouterr().err
    assert not out.exists()


def test_arch_table(capsys):
    assert main(["arch", "gruc1"]) == 0
    out = capsys.readouterr().out
    assert "GRUc1" in out and "37,889" in out
    assert "12,864" in out and "24,960" in out and "tanh" in out


def test_arch_all(capsys):
    assert main(["arch"]) == 0
    out = capsys.readouterr().out
    assert "513,317,544" in out and "990,209" in out


def test_unknown_architecture_exit_code():
    assert main(["train", "--arch", "transformer", "--count-only"]) == 2


def test_missing_dataset_exit_code(tmp_path):
    assert main(["evaluate", "--data", str(tmp_path / "nope"), "--predict-from-labels",
                 "--out", str(tmp_path / "o")]) == 3


def test_truncated_events_line_exit_code(workspace, tmp_path):
    raw = tmp_path / "raw"
    shutil.copytree(workspace / "raw", raw)
    events = sorted(raw.glob("*.events.jsonl"))[0]
    text = events.read_text()
    events.write_text(text[:text.rindex("}")])  # cut the last record short
    assert main(["preprocess"] + tiny_args(["--data", str(raw), "--out", str(tmp_path / "d")])) == 3


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def _name_unknown_boat_type(path):
    manifest = json.loads(path.read_text())
    manifest["files"][0]["boat_type"] = "submarine"
    path.write_text(json.dumps(manifest))


def _drop_last_meta_window(path):
    meta = json.loads(path.read_text())
    meta["windows"].pop()
    path.write_text(json.dumps(meta))


def _set_first(column, value):
    def corrupt(path):
        arrays = load_arrays(path)
        arrays[column][0] = value
        save_arrays(path, arrays)
    return corrupt


def _drop_target_rows(path):
    arrays = load_arrays(path)
    arrays["Y"] = arrays["Y"][:-3]
    save_arrays(path, arrays)


def _edit_split(edit):
    def corrupt(path):
        split = json.loads(path.read_text())
        edit(split)
        path.write_text(json.dumps(split))
    return corrupt


def _relabel_first_athlete(split):
    split["assignments"][min(split["assignments"])] = "fold7"


def _drop_first_athlete(split):
    del split["assignments"][min(split["assignments"])]


def _edit_first_meta_window(edit):
    def corrupt(path):
        meta = json.loads(path.read_text())
        meta["windows"][0] = edit(meta["windows"][0])
        path.write_text(json.dumps(meta))
    return corrupt


def _without(key):
    return lambda entry: {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("stage, name, corrupt", [
    ("raw", "manifest.json", _truncate),
    ("raw", "manifest.json", _name_unknown_boat_type),
    ("data", "windows.meta.json", _truncate),
    ("data", "windows.meta.json", lambda path: path.write_text("{}")),
    ("data", "windows.meta.json", _drop_last_meta_window),
    ("data", "split.json", _truncate),
    ("data", "split.json", _edit_split(lambda split: split.update(n_folds=0))),
    ("data", "split.json", _edit_split(_relabel_first_athlete)),
    ("data", "windows.bin", _set_first("event_sign", 0.0)),
    ("data", "windows.bin", _set_first("event_t", np.nan)),
    ("data", "windows.bin", _set_first("event_t", 3.7)),
    ("data", "windows.bin", _set_first("event_t", -1.0)),
    ("data", "windows.bin", _set_first("event_t", 1000.0)),
    ("data", "windows.bin", _set_first("event_window", 0.5)),
    ("data", "windows.bin", _set_first("event_window", -1.0)),
    ("data", "windows.bin", _set_first("event_window", 1e6)),
    ("data", "windows.bin", _drop_target_rows),
    ("data", "windows.bin", _set_first("X", np.nan)),
    ("data", "windows.meta.json", _edit_first_meta_window(_without("athlete_id"))),
    ("data", "windows.meta.json", _edit_first_meta_window(lambda entry: "run01:0")),
    ("data", "windows.meta.json", _edit_first_meta_window(lambda entry: {**entry, "start": "0"})),
    ("data", "windows.meta.json", _edit_first_meta_window(lambda entry: {**entry, "athlete_id": "zz"})),
    ("data", "split.json", _edit_split(_drop_first_athlete)),
], ids=["truncated_manifest", "manifest_unknown_boat_type", "truncated_meta", "empty_meta",
        "meta_window_missing", "truncated_split",
        "split_zero_folds", "split_unknown_fold", "event_sign_zero", "event_t_nan",
        "event_t_fractional", "event_t_negative", "event_t_window_length", "event_window_fractional",
        "event_window_negative", "event_window_past_end", "targets_short", "window_nan",
        "meta_window_no_athlete", "meta_window_not_object", "meta_window_text_start",
        "meta_window_unknown_athlete", "split_athlete_missing"])
def test_malformed_dataset_file_exit_code(workspace, tmp_path, stage, name, corrupt):
    copy = tmp_path / stage
    shutil.copytree(workspace / stage, copy)
    corrupt(copy / name)
    if stage == "raw":
        args = ["preprocess"] + tiny_args(["--data", str(copy), "--out", str(tmp_path / "d")])
    else:
        args = ["evaluate"] + tiny_args(["--data", str(copy), "--predict-from-labels",
                                         "--out", str(tmp_path / "o")])
    assert main(args) == 3



def _first(pattern):
    return lambda directory: sorted(directory.glob(pattern))[0]


@pytest.mark.parametrize("stage, find", [
    ("raw", _first("*.events.jsonl")),
    ("raw", lambda directory: directory / "manifest.json"),
    ("raw", _first("run*_ath*.csv")),
    ("data", lambda directory: directory / "split.json"),
    ("data", lambda directory: directory / "windows.meta.json"),
], ids=["events", "manifest", "run_csv", "split", "meta"])
def test_unreadable_input_file_exit_code(workspace, tmp_path, capsys, stage, find):
    copy = tmp_path / stage
    shutil.copytree(workspace / stage, copy)
    path = find(copy)
    path.unlink()
    path.mkdir()  # a directory where the file should be
    if stage == "raw":
        args = ["preprocess"] + tiny_args(["--data", str(copy), "--out", str(tmp_path / "d")])
    else:
        args = ["evaluate"] + tiny_args(["--data", str(copy), "--predict-from-labels",
                                         "--out", str(tmp_path / "o")])
    assert main(args) == 3
    assert path.name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "preprocess", "train"])
def test_negative_seed_exit_code(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    extra = {
        "synth": ["--out", str(out)],
        "preprocess": ["--data", str(workspace / "raw"), "--out", str(out)],
        "train": ["--data", str(workspace / "data"), "--weights", str(out)],
    }[command]
    assert main([command] + tiny_args(extra + ["--set", "seed=-1"])) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "sg_window=4", "tolerance_k=0", "epochs=0", "stroke_rate_min=0",
    # keys of PipelineConfig itself: window, label, model and split
    "window_length=0", "window_stride=0", "n_folds=1", "holdout_fraction=2", "label_sigma=0",
    "label_kernel_window=0", "arch=transformer", "val_fold=9", "val_fold=-1",
])
def test_invalid_value_refused_when_config_loads(capsys, setting):
    # arch uses no config value, so only the load-time check can refuse these
    assert main(["arch", "gruc1", "--set", setting]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("batch_size", [0, -1])
def test_non_positive_batch_size_exit_code(workspace, tmp_path, batch_size):
    weights = tmp_path / "w.bin"
    save_arrays(weights, init_params(build_architecture("gruc1"), 0))
    assert main(["evaluate"] + tiny_args([
        "--data", str(workspace / "data"), "--weights", str(weights),
        "--out", str(tmp_path / "o"), "--set", f"batch_size={batch_size}",
    ])) == 2


@pytest.mark.parametrize("setting", ["run_duration=inf", "run_duration=nan", "learning_rate=nan"])
def test_non_finite_config_value_exit_code(tmp_path, setting):
    assert main(["synth", "--set", setting, "--out", str(tmp_path / "raw")]) == 2


def test_predict_on_empty_partition_exit_code(workspace, tmp_path):
    data = tmp_path / "data"
    assert main(["preprocess"] + tiny_args([
        "--data", str(workspace / "raw"), "--out", str(data), "--set", "holdout_fraction=0",
    ])) == 0
    weights = tmp_path / "w.bin"
    save_arrays(weights, init_params(build_architecture("gruc1"), 0))
    assert main(["predict"] + tiny_args([
        "--data", str(data), "--weights", str(weights), "--out", str(tmp_path / "d.jsonl"),
    ])) == 3


@pytest.mark.parametrize("weights", ["missing.bin", "."], ids=["missing", "directory"])
def test_unreadable_weights_exit_code(workspace, tmp_path, weights):
    assert main(["evaluate"] + tiny_args([
        "--data", str(workspace / "data"), "--weights", str(tmp_path / weights),
        "--out", str(tmp_path / "o"),
    ])) == 3


def _write_cfg(content):
    def make(path):
        path.write_bytes(content)
        return path
    return make


@pytest.mark.parametrize("make", [
    lambda path: path,
    lambda path: path.parent,
    _write_cfg(b"\xff\xfeseed = 1\n"),
], ids=["missing", "directory", "not_utf8"])
def test_unreadable_config_exit_code(tmp_path, make):
    assert main(["arch", "gruc1", "--config", str(make(tmp_path / "a.cfg"))]) == 2


def test_config_with_byte_order_mark(workspace, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + "".join(f"{kv}\n" for kv in TINY if kv != "seed=0")
                    .replace("=", " = ").encode() + b"seed = 7\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "bom")]) == 0
    args = [a for kv in TINY if kv != "seed=0" for a in ("--set", kv)]
    assert main(["synth"] + args + ["--set", "seed=7", "--out", str(tmp_path / "seed7")]) == 0

    def digest(path):
        return json.loads((path / "manifest.json").read_text())["digest"]

    assert digest(tmp_path / "bom") == digest(tmp_path / "seed7")
    assert digest(tmp_path / "bom") != digest(workspace / "raw")


def test_bad_config_key_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    assert main(["arch", "gruc1", "--config", str(cfg)]) == 2


def test_margin_inconsistency_exit_code(workspace, tmp_path):
    assert main(["evaluate"] + tiny_args([
        "--data", str(workspace / "data"), "--predict-from-labels",
        "--out", str(tmp_path / "o"), "--set", "margin_h=600",
    ])) == 2


@pytest.mark.parametrize("setting", ["margin_h=600", "sg_window=1001"])
@pytest.mark.parametrize("command", ["crossval", "predict", "evaluate"])
def test_window_keys_that_do_not_fit_the_dataset_are_refused_before_training(
        workspace, tmp_path, capsys, monkeypatch, command, setting):
    def refuse(*args, **kwargs):
        raise AssertionError("trained before the window keys were checked")

    monkeypatch.setattr("strokedet.cli.train_model", refuse)
    extra = [] if command == "crossval" else ["--predict-from-labels"]
    assert main([command] + tiny_args([
        "--data", str(workspace / "data"), "--out", str(tmp_path / "o"), "--set", setting, *extra,
    ])) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("synth", "--out"), ("preprocess", "--out"), ("train", "--weights"), ("train", "--weights-json"),
    ("train", "--history"), ("predict", "--out"), ("evaluate", "--out"), ("crossval", "--out"),
])
def test_unwritable_output_path_exit_code(workspace, tmp_path, capsys, command, option):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "x")  # under a regular file: neither a file nor a directory can be made
    data = str(workspace / ("raw" if command == "preprocess" else "data"))
    inputs = {
        "synth": [],
        "train": ["--data", data, "--weights", str(tmp_path / "w.bin")],
        "predict": ["--data", data, "--predict-from-labels"],
        "evaluate": ["--data", data, "--predict-from-labels"],
    }.get(command, ["--data", data])
    assert main([command] + tiny_args(inputs + [option, target])) == 2
    assert target in capsys.readouterr().err


def test_preprocess_refuses_run_files_the_manifest_does_not_list(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert main(["synth"] + tiny_args(["--out", str(raw), "--set", "n_athletes=5"])) == 0
    earlier = {path.name for path in raw.glob("run*_ath*.csv")}
    assert main(["synth"] + tiny_args(["--out", str(raw)])) == 0
    listed = {entry["run_csv"] for entry in json.loads((raw / "manifest.json").read_text())["files"]}
    stale = earlier - listed
    assert stale
    assert main(["preprocess"] + tiny_args(["--data", str(raw), "--out", str(tmp_path / "d")])) == 3
    err = capsys.readouterr().err
    assert all(name in err for name in stale)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code(workspace, tmp_path):
    # the dense-layer scale grows ~1e9x per SGD step at this rate; enough
    # steps overflow float64 into inf and trip the divergence guard
    assert main(["train"] + tiny_args([
        "--data", str(workspace / "data"), "--weights", str(tmp_path / "w.bin"),
        "--set", "learning_rate=1e9", "--set", "optimizer=sgd",
        "--set", "epochs=15", "--set", "batch_size=1",
    ])) == 4
