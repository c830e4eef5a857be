import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkdoc.corpus import (DatasetSplit, LabelSet, corpus_stats, load_corpus,
                             split_dataset, strip_boilerplate, tokenize)
from chunkdoc.errors import ConfigError, DataError
from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus


# ---------------------------------------------------------------------------
# tokenize

def test_tokenize_punctuation_and_case():
    assert tokenize("Quarterly Reports, 2019.") == ["quarterly", "reports", "2019"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_hyphen_splits():
    assert tokenize("10-K") == ["10", "k"]


def test_tokenize_underscore_is_separator():
    assert tokenize("a_b") == ["a", "b"]


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_tokenize_idempotent(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


# ---------------------------------------------------------------------------
# strip_boilerplate

def _numbered_lines(n):
    return "\n".join(f"line {i}" for i in range(1, n + 1))


def test_strip_removes_first_six_lines_for_configured_label():
    text = _numbered_lines(8)
    assert strip_boilerplate(text, "10-K") == "line 7\nline 8"
    assert strip_boilerplate(text, "10-Q") == "line 7\nline 8"


def test_strip_noop_for_other_labels():
    text = _numbered_lines(8)
    assert strip_boilerplate(text, "EX-99.1") == text


def test_strip_exactly_six_lines_leaves_empty():
    assert strip_boilerplate(_numbered_lines(6), "10-Q") == ""


def test_strip_custom_label_set():
    text = _numbered_lines(7)
    assert strip_boilerplate(text, "memo", header_labels=frozenset({"memo"})) == "line 7"
    assert strip_boilerplate(text, "10-K", header_labels=frozenset({"memo"})) == text


# ---------------------------------------------------------------------------
# load_corpus

@pytest.fixture
def corpus_dir(tmp_path):
    for label in ("alpha", "beta"):
        d = tmp_path / label
        d.mkdir()
        for i in range(3):
            (d / f"doc{i}.txt").write_text(f"some {label} words here number {i}.", encoding="utf-8")
    return tmp_path


def test_load_counts(corpus_dir):
    corpus = load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))
    assert len(corpus) == 6
    assert {d.label for d in corpus} == {"alpha", "beta"}


def test_load_skips_whitespace_only_file(corpus_dir, capsys):
    (corpus_dir / "alpha" / "blank.txt").write_text("   \n\t  ", encoding="utf-8")
    corpus = load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))
    assert len(corpus) == 6
    err = capsys.readouterr().err
    assert err.count("skipped") == 1 and "blank.txt" in err


def test_load_skips_file_name_not_utf8(corpus_dir, capfd):
    """Its document id could not be written to chunk_embeddings.tsv."""
    bad = corpus_dir / "alpha" / os.fsdecode(b"bad\xffname.txt")
    bad.write_text("perfectly good words", encoding="utf-8")
    corpus = load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))
    assert len(corpus) == 6
    err = capfd.readouterr().err
    assert err.count("skipped") == 1 and "name.txt: file name is not UTF-8" in err


def test_load_skips_document_id_with_tab_or_line_break(corpus_dir, capfd):
    """Such an id would split its chunk_embeddings.tsv row, so no later
    `evaluate` could find the document's chunk vectors."""
    for name in ("a\tb.txt", "c\nd.txt", "e\rf.txt"):
        (corpus_dir / "alpha" / name).write_text("perfectly good words", encoding="utf-8")
    corpus = load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))
    assert len(corpus) == 6
    err = capfd.readouterr().err
    assert err.count("skipped") == 3 and len(err.splitlines()) == 3
    assert "a\\tb.txt': document id holds a tab or line break" in err


def test_load_order_is_deterministic(corpus_dir):
    labels = LabelSet(["alpha", "beta"])
    first = load_corpus(corpus_dir, labels)
    second = load_corpus(corpus_dir, labels)
    assert [d.id for d in first] == [d.id for d in second]
    assert [d.tokens for d in first] == [d.tokens for d in second]


def test_load_missing_root(tmp_path):
    with pytest.raises(ConfigError):
        load_corpus(tmp_path / "nope", LabelSet(["a", "b"]))


def test_load_unknown_label_directory(corpus_dir):
    (corpus_dir / "gamma").mkdir()
    with pytest.raises(ConfigError):
        load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))


def test_load_missing_label_directory(corpus_dir):
    with pytest.raises(ConfigError, match="gamma"):
        load_corpus(corpus_dir, LabelSet(["alpha", "beta", "gamma"]))


def test_document_tokens_reproducible_from_raw(corpus_dir):
    corpus = load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))
    for doc in corpus:
        assert doc.tokens == tuple(tokenize(strip_boilerplate(doc.raw_text, doc.label)))


# ---------------------------------------------------------------------------
# split_dataset

def _toy_corpus(per_label, n_labels=5, length=20):
    spec = SyntheticSpec(n_classes=n_labels, docs_per_class=per_label, doc_length=length,
                         filler_vocab_size=30, class_vocab_size=5)
    return generate_synthetic_corpus(spec, seed=0)


def test_split_balanced_100x5():
    corpus = _toy_corpus(100)
    split = split_dataset(corpus, seed=3)
    assert (len(split.train), len(split.validation), len(split.test)) == (350, 75, 75)


def test_split_deterministic():
    corpus = _toy_corpus(10)
    assert split_dataset(corpus, seed=5) == split_dataset(corpus, seed=5)
    assert split_dataset(corpus, seed=5) != split_dataset(corpus, seed=6)


def test_split_partition_property():
    corpus = _toy_corpus(13, n_labels=3)
    for seed in range(10):
        split = split_dataset(corpus, seed=seed)
        combined = split.train + split.validation + split.test
        assert len(combined) == len(corpus)
        assert set(combined) == {d.id for d in corpus}


def test_split_stratified_within_one_of_seventy_percent():
    corpus = _toy_corpus(17, n_labels=4)
    split = split_dataset(corpus, seed=11)
    train = set(split.train)
    for label in corpus.label_set:
        ids = [d.id for d in corpus.by_label(label)]
        n_train = sum(1 for i in ids if i in train)
        assert abs(n_train - 0.7 * len(ids)) <= 1.0


def test_split_ten_docs_single_label_rule():
    spec = SyntheticSpec(n_classes=2, docs_per_class=10, doc_length=10,
                         filler_vocab_size=10, class_vocab_size=3)
    corpus = generate_synthetic_corpus(spec, seed=1)
    split = split_dataset(corpus, seed=0)
    for label in corpus.label_set:
        ids = {d.id for d in corpus.by_label(label)}
        n_train = sum(1 for i in split.train if i in ids)
        n_val = sum(1 for i in split.validation if i in ids)
        n_test = sum(1 for i in split.test if i in ids)
        assert n_train == 7
        assert n_val >= 1 and n_test >= 1
        assert abs(n_val - n_test) <= 1


def test_split_three_docs_per_label_fills_all_splits():
    corpus = _toy_corpus(3, n_labels=2)
    split = split_dataset(corpus, seed=0)
    assert len(split.train) == 2 and len(split.validation) == 2 and len(split.test) == 2


def test_split_too_few_docs_fatal():
    corpus = _toy_corpus(2, n_labels=2)
    with pytest.raises(DataError):
        split_dataset(corpus, seed=0)


def test_manifest_roundtrip_bytes(tmp_path):
    corpus = _toy_corpus(5, n_labels=2)
    split = split_dataset(corpus, seed=9)
    path = tmp_path / "split.json"
    split.save(path)
    first = path.read_bytes()
    reloaded = DatasetSplit.load(path)
    assert reloaded == split
    reloaded.save(path)
    assert path.read_bytes() == first
    data = json.loads(first)
    assert set(data) == {"seed", "train", "validation", "test", "labels"}


# ---------------------------------------------------------------------------
# corpus_stats

def test_stats_mean_words(corpus_dir, tmp_path):
    from chunkdoc.corpus import Corpus, Document

    docs = [
        Document("x/a", "x", " ".join(["w"] * 10), tuple(["w"] * 10)),
        Document("x/b", "x", " ".join(["w"] * 20), tuple(["w"] * 20)),
        Document("y/a", "y", "one two", ("one", "two")),
    ]
    stats = corpus_stats(Corpus(docs, LabelSet(["x", "y"])))
    row = {r.label: r for r in stats.rows}
    assert row["x"].mean_words == 15.0
    assert row["x"].n_docs == 2


def test_stats_sentence_heuristic():
    from chunkdoc.corpus import Corpus, Document

    doc = Document("x/a", "x", "a. b. c.", ("a", "b", "c"))
    other = Document("y/a", "y", "no terminal punctuation", ("no", "terminal", "punctuation"))
    stats = corpus_stats(Corpus([doc, other], LabelSet(["x", "y"])))
    row = {r.label: r for r in stats.rows}
    assert row["x"].mean_sentences == 3.0
    assert row["y"].mean_sentences == 1.0


def test_stats_words_at_least_sentences():
    corpus = _toy_corpus(4, n_labels=2)
    for row in corpus_stats(corpus).rows:
        assert row.mean_words >= row.mean_sentences >= 0


def test_stats_empty_corpus():
    from chunkdoc.corpus import Corpus

    stats = corpus_stats(Corpus([], LabelSet(["x", "y"])))
    assert stats.rows == []
    assert "Type" in stats.format_table()
