import re

import pytest

from strokedet import config
from strokedet.config import PipelineConfig, load_config
from strokedet.errors import ConfigError
from strokedet.postprocess import ExtractorConfig
from strokedet.softed import WindowEvalConfig
from strokedet.synth import SynthConfig
from strokedet.training import TrainConfig


def test_defaults():
    cfg = load_config(None)
    assert cfg.window_length == 1000 and cfg.window_stride == 100
    assert cfg.tolerance_k == 15 and cfg.margin_h == 15
    assert cfg.arch == "gruc1" and cfg.optimizer == "adam"


def test_file_values_and_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# training setup\n"
        "arch = bgruc2\n"
        "epochs = 7   # quick run\n"
        "\n"
        "label_sigma = 12.5\n"
    )
    cfg = load_config(path)
    assert cfg.arch == "bgruc2" and cfg.epochs == 7 and cfg.label_sigma == 12.5


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("windowlength = 5\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = soon\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["run_duration", "learning_rate"])
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigError):
        load_config(None, overrides=[f"{key}={value}"])


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs 5\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 3\n")
    cfg = load_config(path, overrides=["seed=9", "batch_size=8"])
    assert cfg.seed == 9 and cfg.batch_size == 8


def test_bad_override_rejected():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["seed:9"])


def test_subconfig_construction():
    cfg = PipelineConfig()
    assert cfg.train_config().batch_size == cfg.batch_size
    assert cfg.extractor_config().sg_window == cfg.sg_window
    assert cfg.eval_config().tolerance_k == 15
    synth = cfg.synth_config()
    assert (synth.stroke_rate_min, synth.stroke_rate_max) == (cfg.stroke_rate_min, cfg.stroke_rate_max)
    assert synth.seed == cfg.seed


def test_as_dict_round_trips_keys():
    cfg = PipelineConfig()
    d = cfg.as_dict()
    assert d["arch"] == "gruc1"
    assert set(d) > {"window_length", "dropout_prob", "margin_h"}


def test_defaults_are_written_once():
    # the docstring table lists every key once, with the value the code uses
    rows = re.findall(r"^    (\w+) +(\S+)", config.__doc__, re.MULTILINE)
    keys = [key for key, _ in rows]
    assert sorted(keys) == sorted(PipelineConfig().as_dict()) and len(set(keys)) == len(keys)
    cfg = PipelineConfig()
    for key, raw in rows:
        assert config._setting(key, raw) == (key, getattr(cfg, key))
    assert cfg.train_config() == TrainConfig()
    assert cfg.extractor_config() == ExtractorConfig()
    assert cfg.eval_config() == WindowEvalConfig()
    assert cfg.synth_config() == SynthConfig()


@pytest.mark.parametrize("stage, setting", [
    (WindowEvalConfig, {"tolerance_k": 7.5}), (WindowEvalConfig, {"margin_h": 2.5}),
    (WindowEvalConfig, {"margin_h": True}), (ExtractorConfig, {"sg_window": 31.0}),
    (ExtractorConfig, {"cluster_radius": 2.5}), (ExtractorConfig, {"sg_order": True}),
    (SynthConfig, {"n_athletes": 3.0}), (SynthConfig, {"runs_per_athlete": 1.5}),
    (SynthConfig, {"seed": 1.0}), (SynthConfig, {"seed": True}),
])
def test_an_int_key_refuses_a_non_integer(stage, setting):
    with pytest.raises(ConfigError, match=f"{next(iter(setting))} must be an integer"):
        stage(**setting)
