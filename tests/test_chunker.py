import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkdoc.chunker import mean_words_per_chunk, split_into_chunks
from chunkdoc.corpus import Corpus, Document, LabelSet
from chunkdoc.errors import DataError


def _tokens(n):
    return [f"t{i}" for i in range(n)]


def test_even_division():
    chunks = split_into_chunks(_tokens(12), 3)
    assert [len(c.tokens) for c in chunks] == [4, 4, 4]


def test_remainder_goes_to_early_chunks():
    chunks = split_into_chunks(_tokens(10), 3)
    assert [len(c.tokens) for c in chunks] == [4, 3, 3]


def test_indices_one_based_and_ordered():
    chunks = split_into_chunks(_tokens(10), 3, doc_id="d")
    assert [c.index for c in chunks] == [1, 2, 3]
    assert all(c.doc_id == "d" for c in chunks)


def test_single_chunk_is_whole_document():
    tokens = _tokens(17)
    (chunk,) = split_into_chunks(tokens, 1)
    assert list(chunk.tokens) == tokens


def test_short_document_degrades_to_singletons():
    chunks = split_into_chunks(_tokens(4), 10)
    assert len(chunks) == 4
    assert all(len(c.tokens) == 1 for c in chunks)


def test_empty_tokens_error():
    with pytest.raises(DataError):
        split_into_chunks([], 3)


def test_paper_scale_mean_chunk_length():
    # 24,744-token document at n=3 gives 8,248-token chunks
    chunks = split_into_chunks(_tokens(24744), 3)
    assert [len(c.tokens) for c in chunks] == [8248, 8248, 8248]


@given(st.integers(1, 400), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_partition_and_balance(length, n):
    tokens = _tokens(length)
    chunks = split_into_chunks(tokens, n)
    assert len(chunks) == min(n, length)
    flat = [t for c in chunks for t in c.tokens]
    assert flat == tokens
    sizes = [len(c.tokens) for c in chunks]
    if length >= n:
        assert max(sizes) - min(sizes) <= 1
    assert min(sizes) >= 1


def test_partition_random_cases_bulk():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        length = int(rng.integers(1, 2000))
        n = int(rng.choice([1, 3, 5, 7, 10, 25, 50]))
        chunks = split_into_chunks(_tokens(length), n)
        assert len(chunks) == min(n, length)
        assert [t for c in chunks for t in c.tokens] == _tokens(length)
        sizes = [len(c.tokens) for c in chunks]
        if length >= n:
            assert max(sizes) - min(sizes) <= 1


def _corpus_of_lengths(lengths):
    texts = [" ".join(_tokens(n)) for n in lengths]
    docs = [Document(f"x/d{i}", "x" if i % 2 == 0 else "y", text, text)
            for i, text in enumerate(texts)]
    return Corpus(docs, LabelSet(["x", "y"]))


def test_mean_words_single_doc():
    assert mean_words_per_chunk(_corpus_of_lengths([100]), 5) == 20.0


def test_mean_words_n1_is_mean_document_length():
    corpus = _corpus_of_lengths([10, 30, 50])
    assert mean_words_per_chunk(corpus, 1) == 30.0


def test_mean_words_short_docs_counted_by_actual_chunks():
    # lengths 30 and 10 at n=10: 40 tokens over 20 chunks
    assert mean_words_per_chunk(_corpus_of_lengths([30, 10]), 10) == 2.0
    # a 3-token document at n=10 has 3 chunks: 33 tokens over 13 chunks
    assert mean_words_per_chunk(_corpus_of_lengths([30, 3]), 10) == 33 / 13


def test_mean_words_empty_corpus():
    with pytest.raises(DataError):
        mean_words_per_chunk(Corpus([], LabelSet(["x", "y"])), 3)
