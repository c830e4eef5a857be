import itertools
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkdoc.cli import main
from chunkdoc.corpus import (_SENTENCE_RE, _TOKEN_RE, DatasetSplit, LabelSet, _sentence_count,
                             corpus_stats, load_corpus, split_dataset, strip_boilerplate,
                             tokenize)
from chunkdoc.errors import ConfigError, DataError
from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus
from helpers import write_corpus_tree


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


def _alnum_runs(text):
    """The token definition, without the regex: maximal runs of `str.isalnum()`
    characters of the lowercased text."""
    return ["".join(run) for alnum, run in itertools.groupby(text.lower(), str.isalnum) if alnum]


# Characters where an ASCII fast path and the Unicode definition could part:
# ASCII punctuation, controls and `_`; non-ASCII spaces and punctuation (NBSP,
# U+2028, section sign, em dash, right quote); the Kelvin sign, which
# lowercases to ASCII "k"; dotted capital I, whose lowercase carries the
# non-alphanumeric U+0307; and non-ASCII digits.
_EDGE_CHARS = ([chr(c) for c in range(128) if not chr(c).isalnum()]
               + list("aZ09") + ["\u00a0", "\u2028", "\u00a7", "\u2014", "\u2019",
                                 "\u212a", "\u0130", "\u00b2", "\u0663", "\u0669"])


_TEXTS = st.text(max_size=200) | st.text(st.sampled_from(_EDGE_CHARS), max_size=60)


@given(_TEXTS)
@settings(max_examples=400, deadline=None)
def test_tokenize_is_the_alnum_runs_of_the_lowercased_text(text):
    assert tokenize(text) == _alnum_runs(text)


def test_tokenize_edge_characters():
    assert tokenize("\u212aelvin") == ["kelvin"]  # the Kelvin sign lowercases to ASCII k
    assert tokenize("\u0130stanbul") == ["i", "stanbul"]  # U+0307 separates
    assert tokenize("x\u00b2 \u0663\u0664 a\u00a0b \u00a7 7\u2014c\u2019d") == [
        "x\u00b2", "\u0663\u0664", "a", "b", "7", "c", "d"]
    assert tokenize("A_b\x00c\x1fd\x7fe") == ["a", "b", "c", "d", "e"]


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


def test_load_tokens_of_ascii_and_non_ascii_files(corpus_dir):
    """Both tokenizer paths in one tree: each document's tokens are the
    alphanumeric runs of its lowercased text."""
    texts = {"alpha/plain.txt": "Section 10-K: NET_INCOME rose 5%.\n",
             "alpha/unicode.txt": "Net income\u00a0rose \u00a7 5\u2014\u212aelvin caf\u00e9 \u0130\n",
             "beta/symbols.txt": "\u2028\u00b2 only\u2019s \u0663\u0664"}
    for name, text in texts.items():
        (corpus_dir / name).write_text(text, encoding="utf-8")
    corpus = load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))
    assert len(corpus) == 9
    assert corpus.get("alpha/plain").tokens == ("section", "10", "k", "net", "income", "rose", "5")
    for doc in corpus:
        assert list(doc.tokens) == _alnum_runs(doc.raw_text)


def test_document_tokens_reproducible_from_raw(corpus_dir):
    corpus = load_corpus(corpus_dir, LabelSet(["alpha", "beta"]))
    for doc in corpus:
        assert doc.tokens == tuple(tokenize(strip_boilerplate(doc.raw_text, doc.label)))


@given(st.lists(_TEXTS, max_size=9).map("\n".join))
@settings(max_examples=150, deadline=None)
def test_load_keeps_a_file_exactly_when_its_stripped_text_has_tokens(content):
    """The load-time check finds a token without tokenizing: it keeps a file
    exactly when `tokenize` of its stripped text is non-empty, on a label
    whose header lines are stripped and on one whose are not."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for label in ("10-K", "memo"):
            (root / label).mkdir()
            (root / label / "doc.txt").write_text(content, encoding="utf-8")
        raw = (root / "memo" / "doc.txt").read_text(encoding="utf-8")  # newlines as read back
        corpus = load_corpus(root, LabelSet(["10-K", "memo"]))
    expected = {f"{label}/doc": strip_boilerplate(raw, label) for label in ("10-K", "memo")}
    assert {d.id: d.text for d in corpus} == {i: t for i, t in expected.items() if tokenize(t)}
    for doc in corpus:
        assert doc.raw_text == raw
        assert (doc.text is doc.raw_text) == (doc.label == "memo")


def test_loaded_corpus_costs_its_text_plus_a_fixed_allowance_per_document(tmp_path):
    """A loaded document holds its text, not one string per token: loading 16
    documents of 20,000 tokens allocates at most their text plus 2 KB each,
    and twice the longest document for the file being read."""
    write_corpus_tree(tmp_path, SyntheticSpec(n_classes=2, docs_per_class=8, doc_length=20_000))
    tracemalloc.start()
    try:
        corpus = load_corpus(tmp_path, LabelSet(["class0", "class1"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    texts = [sys.getsizeof(d.raw_text) for d in corpus]
    assert len(texts) == 16
    assert peak <= sum(texts) + 2048 * len(texts) + 2 * max(texts)


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

    texts = {"x/a": " ".join(["w"] * 10), "x/b": " ".join(["w"] * 20), "y/a": "one two"}
    docs = [Document(doc_id, doc_id[0], text, text) for doc_id, text in texts.items()]
    stats = corpus_stats(Corpus(docs, LabelSet(["x", "y"])))
    row = {r.label: r for r in stats.rows}
    assert row["x"].mean_words == 15.0
    assert row["x"].n_docs == 2


def test_stats_sentence_heuristic():
    from chunkdoc.corpus import Corpus, Document

    doc = Document("x/a", "x", "a. b. c.", "a. b. c.")
    other = Document("y/a", "y", "no terminal punctuation", "no terminal punctuation")
    stats = corpus_stats(Corpus([doc, other], LabelSet(["x", "y"])))
    row = {r.label: r for r in stats.rows}
    assert row["x"].mean_sentences == 3.0
    assert row["y"].mean_sentences == 1.0
    for text, sentences in [("Yes! No? Maybe.", 3), ("a.", 1), ("a. b.", 2), ("a.. b", 2),
                            ("a. . b", 2), ("a.b. c", 2), ("a!\x1cb", 2), ("a?\vb", 2),
                            ("a._b", 1), ("a. _ . b", 2), ("...", 0), ("", 0)]:
        assert _sentence_count(text) == sentences, text


def _regex_sentence_count(text):
    """The sentence definition, by regex alone: the pieces between terminal
    punctuation followed by whitespace or end of text that hold a token."""
    return sum(1 for seg in _SENTENCE_RE.split(text) if _TOKEN_RE.search(seg))


# Every ASCII character, with terminal punctuation and whitespace drawn more
# often so that boundaries are common; and non-ASCII spaces (NBSP, U+0085,
# U+2028) and letters and punctuation (e acute, right quote) for the regex path.
_ASCII_CHARS = st.sampled_from([chr(c) for c in range(128)])
_BOUNDARY_CHARS = st.sampled_from(list(".!? \t\n\v\f\r\x1c\x1d\x1e\x1f"))
_MIXED_CHARS = st.sampled_from(list("a1_.!? \n\x1c\u00a0\u0085\u2028\u00e9\u2019"))


@given(st.text(st.one_of(_ASCII_CHARS, _BOUNDARY_CHARS), max_size=80)
       | st.text(_MIXED_CHARS, max_size=60))
@settings(max_examples=500, deadline=None)
def test_sentence_count_is_the_regex_definition(text):
    assert _sentence_count(text) == _regex_sentence_count(text)


def test_prepare_counts_sentences_of_ascii_and_non_ascii_files(tmp_path):
    """Both sentence-count paths in one `prepare`: each label's mean sentences
    in stats.json is the regex definition applied to its documents'
    header-stripped text, whose 10-K header lines hold punctuation of their own."""
    header = "".join(f"Header line {i}. Filed! Form 10-K?\n" for i in range(6))
    texts = {"10-K/ascii.txt": header + "Net income rose. Did it? Yes!\x1cCosts fell..\vEnd.",
             "10-K/unicode.txt": header + "Caf\u00e9 sales rose.\u00a0Margins held?\u2028Done.",
             "10-K/flat.txt": header + "no terminal punctuation here",
             "memo/ascii.txt": "One. Two! Three? Four. _ .",
             "memo/unicode.txt": "Na\u00efve. Sure.\u0085Next \u2019.",
             "memo/bare.txt": "Just words. Fine"}
    for name, text in texts.items():
        path = tmp_path / "corpus" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    config = {"corpus": {"root": str(tmp_path / "corpus"), "labels": ["10-K", "memo"]},
              "output_dir": str(tmp_path / "runs"), "run_name": "t"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 0

    stats = json.loads((tmp_path / "runs" / "t" / "stats.json").read_text(encoding="utf-8"))
    means = {row["label"]: row["mean_sentences"] for row in stats["per_label"]}
    expected = {}
    for label in ("10-K", "memo"):
        counts = [_regex_sentence_count(strip_boilerplate(text, label))
                  for name, text in texts.items() if name.startswith(label + "/")]
        expected[label] = sum(counts) / len(counts)
    assert means == expected == {"10-K": 3.0, "memo": 3.0}
    assert strip_boilerplate(texts["10-K/ascii.txt"], "10-K").isascii()
    assert not strip_boilerplate(texts["10-K/unicode.txt"], "10-K").isascii()
    assert _regex_sentence_count(texts["10-K/flat.txt"]) == 19  # the header would count


def test_stats_words_at_least_sentences():
    corpus = _toy_corpus(4, n_labels=2)
    for row in corpus_stats(corpus).rows:
        assert row.mean_words >= row.mean_sentences >= 0


def test_stats_empty_corpus():
    from chunkdoc.corpus import Corpus

    stats = corpus_stats(Corpus([], LabelSet(["x", "y"])))
    assert stats.rows == []
    assert "Type" in stats.format_table()
