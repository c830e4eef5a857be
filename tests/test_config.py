import json

import pytest

from chunkdoc.config import PipelineConfig, load_config, parse_config
from chunkdoc.corpus import DEFAULT_HEADER_LABELS
from chunkdoc.errors import ConfigError
from helpers import FIXED_KEYS


def _minimal(tmp_path, **extra):
    data = {
        "corpus": {"root": str(tmp_path), "labels": ["a", "b"]},
        **extra,
    }
    return data


def test_defaults_applied(tmp_path):
    config = parse_config(_minimal(tmp_path))
    assert config.chunking.n_chunks == 3
    assert config.embedder.dim == 100
    assert config.aggregator.learning_rate == 0.001
    assert config.svm.C == 1.0
    assert config.classifier == "linear"
    assert config.sweep_seeds() == [config.aggregator.seed]


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config(_minimal(tmp_path, chunks=5))


def test_unknown_section_key_rejected(tmp_path):
    for key in ("windw", "workers"):
        data = _minimal(tmp_path)
        data["embedder"] = {"dim": 10, key: 3}
        with pytest.raises(ConfigError, match=key):
            parse_config(data)


def test_range_validation(tmp_path):
    data = _minimal(tmp_path)
    data["chunking"] = {"n_chunks": 0}
    with pytest.raises(ConfigError, match="n_chunks"):
        parse_config(data)
    data = _minimal(tmp_path)
    data["classifier"] = "quantum"
    with pytest.raises(ConfigError):
        parse_config(data)
    data = _minimal(tmp_path)
    data["corpus"]["labels"] = ["only-one"]
    with pytest.raises(ConfigError):
        parse_config(data)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


@pytest.mark.parametrize("damage", ["latin1", "unreadable"])
def test_load_config_unreadable(tmp_path, monkeypatch, damage):
    path = tmp_path / "cfg.json"
    # Latin-1 bytes (0xE9 for é) are not UTF-8; `unreadable` fails before any byte is read
    path.write_bytes(json.dumps(_minimal(tmp_path, run_name="café"), ensure_ascii=False)
                     .encode("latin-1"))
    if damage == "unreadable":
        def failing_read_text(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(path), "read_text", failing_read_text)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)


def test_wrong_type_of_top_level_value_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="run_name"):
        parse_config(_minimal(tmp_path, run_name=5))


@pytest.mark.parametrize("run_name", ["..", "."])
def test_run_name_outside_output_dir_is_config_error(tmp_path, run_name):
    with pytest.raises(ConfigError, match="run_name"):
        parse_config(_minimal(tmp_path, run_name=run_name))


def test_roundtrip_through_json(tmp_path):
    config = parse_config(_minimal(tmp_path, classifier="both"))
    reparsed = parse_config(json.loads(config.to_json()))
    assert reparsed == config


def test_settings_projection(tmp_path):
    data = _minimal(tmp_path)
    data["embedder"] = {"dim": 32, "per_class": 4}
    data["svm"] = {"gamma": 0.25}
    config = parse_config(data)
    settings = config.settings()
    assert settings.embedder.dim == 32
    assert settings.per_class == 4
    assert settings.svm.gamma == 0.25


def test_sweep_seeds_from_list(tmp_path):
    data = _minimal(tmp_path)
    data["aggregator"] = {"seeds": [3, 4, 5]}
    config = parse_config(data)
    assert config.sweep_seeds() == [3, 4, 5]


# Every key a config file may set, with its default: 24 values.
ALL_KEYS = {
    "corpus": {"root": "", "labels": [],
               "boilerplate_labels": sorted(DEFAULT_HEADER_LABELS)},
    "split": {"seed": 13},
    "chunking": {"n_chunks": 3},
    "embedder": {"dim": 100, "window": 5, "epochs": 40, "negative": 5, "min_count": 5,
                 "infer_steps": 5, "per_class": 30},
    "aggregator": {"hidden_size": 64, "learning_rate": 0.001, "batch_size": 32,
                   "epochs": 100, "patience": 10, "seed": 7, "seeds": []},
    "svm": {"gamma": None, "C": 1.0},
    "classifier": "linear",
    "output_dir": "runs",
    "run_name": "run",
}


def test_every_key_accepted_with_its_default(tmp_path):
    defaults = parse_config(_minimal(tmp_path)).to_dict()
    expected = json.loads(json.dumps(ALL_KEYS))
    expected["corpus"].update(root=str(tmp_path), labels=["a", "b"])
    assert defaults == expected
    assert parse_config(expected) == parse_config(_minimal(tmp_path))


@pytest.mark.parametrize("section,key,value", [
    ("svm", "gamma", 0.0), ("svm", "gamma", -1.0), ("svm", "C", 0.0),
    ("svm", "tolerance", -1e-3), ("svm", "max_passes", 0), ("chunking", "n_chunks", -2),
    ("embedder", "per_class", 0), ("aggregator", "bn_momentum", 1.0),
    ("embedder", "noise_exponent", float("nan")), ("embedder", "noise_exponent", float("inf")),
    ("embedder", "alpha", float("nan")), ("embedder", "alpha", float("inf")),
    ("embedder", "min_alpha", float("nan")), ("embedder", "min_alpha", -1e-4),
    ("embedder", "min_alpha", 0.5),
    ("embedder", "dim", "64"), ("embedder", "dim", 2.5), ("embedder", "infer_steps", 2.5),
    ("chunking", "n_chunks", 2.5), ("embedder", "window", True), ("svm", "C", "1"),
    ("svm", "gamma", True), ("aggregator", "seeds", [1, 2.0]), ("corpus", "labels", "ab"),
    ("svm", "C", float("nan")), ("svm", "gamma", float("nan")),
    ("svm", "tolerance", float("nan")), ("aggregator", "learning_rate", float("inf")),
    ("aggregator", "bn_epsilon", float("nan")), ("aggregator", "batch_size", 1),
    ("aggregator", "seed", -1), ("aggregator", "seeds", [1, -1]), ("split", "seed", -3),
    ("aggregator", "seeds", [1, 1]),
])
def test_bad_stage_value_is_config_error(tmp_path, section, key, value):
    """A row of a value that is a constant, not a key (`FIXED_KEYS`), fails as
    an unknown key whatever the value; every other row fails on its value."""
    data = _minimal(tmp_path)
    data[section] = {key: value}
    with pytest.raises(ConfigError, match=key) as raised:
        parse_config(data)
    assert ("unknown keys" in str(raised.value)) == ((section, key) in FIXED_KEYS)
