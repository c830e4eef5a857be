import numpy as np
import pytest

from chunkdoc import checkpoint
from chunkdoc.aggregator import (AggregatorModel, init_params, load_aggregator, save_aggregator,
                                 write_training_log)
from chunkdoc.chunker import Chunk
from chunkdoc.embedder import EmbedderConfig, build_vocab, load_pvdm, save_pvdm, train_pvdm
from chunkdoc.svm import load_svm


@pytest.fixture
def pvdm_file(tmp_path):
    chunks = [Chunk(f"d{i}", 1, tuple("a b c a b a".split())) for i in range(3)]
    vocab = build_vocab(chunks, min_count=1)
    model = train_pvdm(chunks, vocab, EmbedderConfig(dim=4, epochs=1, min_count=1), seed=0)
    path = tmp_path / "pvdm.bin"
    save_pvdm(model, path)
    return path


def test_roundtrip_keeps_dtype_shape_and_header(tmp_path):
    arrays = {
        "f4": np.arange(6, dtype=np.float32).reshape(2, 3),
        "odd": np.arange(3, dtype=np.uint8),  # pushes the next array off alignment
        "f8": np.linspace(0.0, 1.0, 5),
        "empty": np.zeros((0, 3)),
        "scalar": np.array(7, dtype=np.int64),
    }
    header = {"labels": ["a", "é"], "x": 0.1, "n": None}
    path = tmp_path / "c.bin"
    checkpoint.save(path, "test", header, arrays)
    got_header, got = checkpoint.load(path, "test")
    assert got_header == header
    assert list(got) == list(arrays)
    for name, a in arrays.items():
        assert got[name].dtype == a.dtype and got[name].shape == a.shape
        assert np.array_equal(got[name], a)
        assert got[name].flags.writeable and got[name].flags.aligned


def _rewrite(path, data):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("damage", ["truncated_data", "truncated_header", "bad_magic",
                                    "old_format", "version", "corrupt_header", "trailing"])
def test_unreadable_file_raises_ioerror(pvdm_file, damage):
    data = pvdm_file.read_bytes()
    damaged = {
        "truncated_data": data[:-5],
        "truncated_header": data[:20],
        "bad_magic": b"XHUNKDOC" + data[8:],
        "old_format": b"PVDM\x01\x00\x00\x00" + data[8:],
        "version": data.replace(b'"version":1', b'"version":9', 1),
        "corrupt_header": data.replace(b'"kind"', b'{kind"', 1),
        "trailing": data + b"\0",
    }[damage]
    assert damaged != data
    _rewrite(pvdm_file, damaged)
    with pytest.raises(IOError, match="pvdm.bin"):
        load_pvdm(pvdm_file)


@pytest.mark.parametrize("loader", [load_aggregator, load_svm])
def test_wrong_kind_raises_ioerror(pvdm_file, loader):
    with pytest.raises(IOError, match="'pvdm'"):
        loader(pvdm_file)


class _Unconvertible:
    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("conversion failed")


def _fail_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("failure", ["array", "replace", "text"])
def test_failed_save_keeps_previous_checkpoint(pvdm_file, monkeypatch, failure):
    before = pvdm_file.read_bytes()
    listing = sorted(p.name for p in pvdm_file.parent.iterdir())
    arrays = {"a": np.zeros(4)}
    if failure == "array":
        arrays["b"] = _Unconvertible()
    else:
        monkeypatch.setattr(checkpoint.os, "replace", _fail_replace)
    with pytest.raises((RuntimeError, OSError)):
        if failure == "text":
            write_training_log([{"epoch": 1}], pvdm_file)
        else:
            checkpoint.save(pvdm_file, "pvdm", {}, arrays)
    assert pvdm_file.read_bytes() == before
    assert sorted(p.name for p in pvdm_file.parent.iterdir()) == listing


def test_load_draws_no_initialization(pvdm_file, monkeypatch):
    params = init_params(3, 2, 2, np.random.default_rng(0))
    aggregator_file = pvdm_file.parent / "aggregator.bin"
    save_aggregator(AggregatorModel(["a", "b"], params, np.zeros(4, dtype=np.float32),
                                    np.ones(4, dtype=np.float32), 1), aggregator_file)

    def no_rng(*args, **kwargs):
        raise AssertionError("loading a checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert load_pvdm(pvdm_file).dim == 4
    loaded = load_aggregator(aggregator_file)
    assert (loaded.embedding_dim, loaded.hidden_size) == (3, 2)
