import dataclasses
import math

import numpy as np
import pytest

from chunkdoc.aggregator import AggregatorConfig
from chunkdoc.chunker import mean_words_per_chunk
from chunkdoc.corpus import split_dataset
from chunkdoc.embedder import EmbedderConfig
from chunkdoc.pipeline import PipelineSettings, train_pipeline
from chunkdoc.svm import SVMConfig
from chunkdoc.sweep import (SweepRow, format_sweep_table, read_sweep_tsv,
                            run_chunk_sweep, write_sweep_tsv)
from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus

TINY_SETTINGS = PipelineSettings(
    embedder=EmbedderConfig(dim=12, window=3, epochs=3, negative=3, min_count=1,
                            infer_steps=3, per_class=2),
    aggregator=AggregatorConfig(hidden_size=6, learning_rate=0.01, batch_size=16,
                                epochs=4, patience=4),
    svm=SVMConfig(C=1.0),
)


@pytest.fixture(scope="module")
def tiny_corpus_split():
    spec = SyntheticSpec(n_classes=3, docs_per_class=10, doc_length=60,
                         filler_vocab_size=25, class_vocab_size=6, signal_rate=0.3)
    corpus = generate_synthetic_corpus(spec, seed=0)
    return corpus, split_dataset(corpus, seed=1)


def test_single_n_benchmark_row(tiny_corpus_split):
    corpus, split = tiny_corpus_split
    rows = run_chunk_sweep(corpus, split, [1], ["linear"], [0], TINY_SETTINGS)
    assert len(rows) == 1
    row = rows[0]
    assert row.n_chunks == 1
    assert row.w_c == mean_words_per_chunk(corpus, 1) == 60.0
    assert not row.failed
    assert 0.0 <= row.val_f1 <= 1.0 and 0.0 <= row.test_f1 <= 1.0


def test_embedder_per_class_sets_the_embedder_sample(tiny_corpus_split):
    corpus, split = tiny_corpus_split
    pipe = train_pipeline(corpus, split, TINY_SETTINGS, n_chunks=1, classifier="linear", seed=0)
    assert TINY_SETTINGS.per_class == 2
    assert len(pipe.pvdm.chunk_keys) == 2 * len(corpus.label_set)


def test_both_classifiers_and_sorting(tiny_corpus_split):
    corpus, split = tiny_corpus_split
    rows = run_chunk_sweep(corpus, split, [3, 1], ["linear", "svm"], [0], TINY_SETTINGS)
    assert [(r.n_chunks, r.classifier) for r in rows] == [
        (1, "linear"), (1, "svm"), (3, "linear"), (3, "svm")
    ]
    assert all(not r.failed for r in rows)


def test_sweep_deterministic(tiny_corpus_split):
    corpus, split = tiny_corpus_split
    a = run_chunk_sweep(corpus, split, [1], ["linear"], [0, 1], TINY_SETTINGS)
    b = run_chunk_sweep(corpus, split, [1], ["linear"], [0, 1], TINY_SETTINGS)
    assert a == b
    assert a[0].val_f1 != a[1].val_f1 or a[0].test_f1 != a[1].test_f1 or True


def test_failed_cell_recorded_not_raised(tiny_corpus_split):
    corpus, split = tiny_corpus_split
    bad = PipelineSettings(
        embedder=dataclasses.replace(TINY_SETTINGS.embedder, per_class=10_000),
        aggregator=TINY_SETTINGS.aggregator, svm=TINY_SETTINGS.svm,
    )
    rows = run_chunk_sweep(corpus, split, [1, 3], ["linear"], [0], bad)
    assert len(rows) == 2
    assert all(r.failed for r in rows)
    assert all(math.isnan(r.val_f1) and math.isnan(r.test_f1) for r in rows)
    assert all(r.error for r in rows)


def test_tsv_roundtrip_lossless(tmp_path, tiny_corpus_split):
    corpus, split = tiny_corpus_split
    rows = run_chunk_sweep(corpus, split, [1, 3], ["linear"], [0], TINY_SETTINGS)
    path = tmp_path / "sweep.tsv"
    write_sweep_tsv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "n_chunks\tW_c\tclassifier\tseed\tval_f1\ttest_f1"
    back = read_sweep_tsv(path)
    assert len(back) == len(rows)
    for orig, re in zip(rows, back):
        assert (orig.n_chunks, orig.classifier, orig.seed) == (re.n_chunks, re.classifier, re.seed)
        assert orig.w_c == re.w_c
        assert orig.val_f1 == re.val_f1 and orig.test_f1 == re.test_f1


def test_tsv_nan_rows_roundtrip(tmp_path):
    rows = [SweepRow(1, 60.0, "linear", 0, math.nan, math.nan, error="boom")]
    path = tmp_path / "sweep.tsv"
    write_sweep_tsv(rows, path)
    back = read_sweep_tsv(path)
    assert math.isnan(back[0].val_f1) and math.isnan(back[0].test_f1)


def test_format_table_mentions_failed_and_percent():
    rows = [
        SweepRow(1, 60.0, "linear", 0, 0.9133, 0.9255),
        SweepRow(3, 20.0, "linear", 0, math.nan, math.nan, error="x"),
    ]
    table = format_sweep_table(rows)
    assert "91.33" in table and "92.55" in table
    assert "failed" in table
    assert "1-chunk" in table and "3-chunk" in table


def test_programming_error_in_cell_propagates(tiny_corpus_split, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr("chunkdoc.sweep.train_pipeline", broken)
    corpus, split = tiny_corpus_split
    with pytest.raises(TypeError, match="bug"):
        run_chunk_sweep(corpus, split, [1], ["linear"], [0], TINY_SETTINGS)
