import copy
import os
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkdoc import checkpoint, embedder
from chunkdoc.chunker import Chunk, chunk_document
from chunkdoc.corpus import Corpus, Document, LabelSet
from chunkdoc.embedder import (EmbedderConfig, Vocabulary, build_vocab,
                               embed_chunks, embed_corpus, export_chunk_embeddings,
                               infer_vector, load_chunk_embeddings, load_pvdm,
                               sample_embedding_training_docs, save_pvdm, train_pvdm)
from chunkdoc.corpus import split_dataset
from chunkdoc.errors import DataError, OOVChunkError, TrainingError
from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus


def _chunks_from_texts(texts):
    return [Chunk(f"d{i}", 1, tuple(t.split())) for i, t in enumerate(texts)]


# ---------------------------------------------------------------------------
# vocabulary

def test_vocab_min_count_filter():
    vocab = build_vocab(_chunks_from_texts(["a a a b"]), min_count=2)
    assert vocab.words == ["a"]
    assert "b" not in vocab


def test_vocab_min_count_one_keeps_everything():
    vocab = build_vocab(_chunks_from_texts(["a b c a"]), min_count=1)
    assert set(vocab.words) == {"a", "b", "c"}


def test_vocab_empty_after_filter_is_fatal():
    with pytest.raises(DataError):
        build_vocab(_chunks_from_texts(["a b"]), min_count=5)


def test_noise_distribution_powers():
    # counts 81 and 16 with exponent 0.75 give weights 27 and 8
    texts = ["a " * 81 + "b " * 16]
    vocab = build_vocab(_chunks_from_texts(texts), min_count=1)
    probs = {w: p for w, p in zip(vocab.words, vocab.noise_probs)}
    assert probs["a"] == pytest.approx(27 / 35, abs=1e-15)
    assert probs["b"] == pytest.approx(8 / 35, abs=1e-15)


def test_noise_distribution_sums_to_one():
    rng = np.random.default_rng(0)
    texts = [" ".join(f"w{rng.integers(0, 50)}" for _ in range(400))]
    vocab = build_vocab(_chunks_from_texts(texts), min_count=1)
    assert abs(vocab.noise_probs.sum() - 1.0) <= 1e-12
    assert vocab.noise_cdf[-1] == 1.0


def test_noise_sampling_deterministic():
    vocab = build_vocab(_chunks_from_texts(["a a a b b c"]), min_count=1)
    a = vocab.sample_noise(np.random.default_rng(3), (100,))
    b = vocab.sample_noise(np.random.default_rng(3), (100,))
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < len(vocab)


def _vocab_of_counts(counts, noise_exponent=0.75):
    return Vocabulary([f"w{i}" for i in range(len(counts))], counts, noise_exponent)


def _searchsorted_ids(vocab, u):
    """The sampler's oracle: the first i with u <= noise_cdf[i]."""
    return np.searchsorted(vocab.noise_cdf, u).astype(np.int64)


@pytest.mark.parametrize("noise_exponent", [200.0, float("nan"), float("inf"), -2000.0])
def test_broken_noise_distribution_is_fatal(noise_exponent):
    # 35 ** 200 overflows float64; 2 ** -2000 and 35 ** -2000 underflow to a zero sum
    with pytest.raises(DataError, match="noise_exponent"):
        _vocab_of_counts([40, 35, 2], noise_exponent)
    with pytest.raises(DataError, match="noise_exponent"):
        build_vocab(_chunks_from_texts(["a " * 40 + "b " * 35]), 1, noise_exponent)


def _edge_cases(vocab) -> np.ndarray:
    """Every bucket edge, every CDF value below 1, their float64 neighbours,
    0.0 and the largest double below 1."""
    n_buckets = len(vocab.noise_guide)
    edges = np.arange(n_buckets) / n_buckets
    points = np.concatenate((edges, vocab.noise_cdf, [0.0, np.nextafter(1.0, 0.0)]))
    u = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)))
    return u[(u >= 0.0) & (u < 1.0)]


@given(st.integers(1, 2000), st.integers(0, 2**32 - 1), st.integers(0, 6),
       st.floats(0.0, 1.5), st.sampled_from([(0,), (0, 5), (3, 0), (1,), (7, 5)]))
@settings(max_examples=60, deadline=None)
def test_noise_ids_equal_searchsorted(n_words, seed, log_max_count, noise_exponent, shape):
    rng = np.random.default_rng(seed)
    vocab = _vocab_of_counts(rng.integers(1, 10**log_max_count + 1, n_words), noise_exponent)
    assert len(vocab.noise_guide) >= 8 * n_words
    for u in (rng.random(shape), rng.random(4000), _edge_cases(vocab)):
        ids = vocab.noise_ids(u)
        assert ids.dtype == np.int64 and ids.shape == u.shape
        assert np.array_equal(ids, _searchsorted_ids(vocab, u))


def test_noise_ids_equal_searchsorted_at_every_edge():
    zipfian = (10**6 // np.arange(1, 3001)) + 1
    # 64 equal counts put every CDF value exactly on a bucket edge
    for counts, noise_exponent in [(zipfian, 0.0), (zipfian, 0.75), (zipfian, 1.0),
                                   (zipfian, 1.5), (np.full(64, 9), 0.75)]:
        vocab = _vocab_of_counts(counts, noise_exponent)
        guide = vocab.noise_guide
        assert (guide >= 0).any() and (guide < 0).any()  # both paths are exercised
        u = _edge_cases(vocab)
        assert np.array_equal(vocab.noise_ids(u), _searchsorted_ids(vocab, u))


def test_sample_noise_leaves_the_generator_where_the_oracle_does():
    vocab = _vocab_of_counts((10**4 // np.arange(1, 600)) + 1)
    rng, oracle_rng = np.random.default_rng(17), np.random.default_rng(17)
    for shape in ((667, 5), (0, 5), (3,)):
        ids = vocab.sample_noise(rng, shape)
        assert np.array_equal(ids, _searchsorted_ids(vocab, oracle_rng.random(shape)))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_encode_drops_oov_preserves_order():
    vocab = build_vocab(_chunks_from_texts(["a a b b"]), min_count=2)
    ids = vocab.encode(["b", "zzz", "a", "b"])
    assert [vocab.words[i] for i in ids] == ["b", "a", "b"]


@given(st.lists(st.sampled_from(["a", "b", "c", "zzz", "", "A", "b "]), max_size=60))
@settings(max_examples=200, deadline=None)
def test_encode_matches_the_list_comprehension(tokens):
    """The same ids as the per-token loop it replaced: same order, int64, OOV
    tokens dropped, an empty int64 array for no tokens."""
    vocab = build_vocab(_chunks_from_texts(["a a b b c"]), min_count=1)
    expected = np.array([vocab.index[t] for t in tokens if t in vocab.index], dtype=np.int64)
    for seq in (tokens, tuple(tokens)):
        ids = vocab.encode(seq)
        assert ids.dtype == np.int64 and ids.shape == expected.shape
        assert np.array_equal(ids, expected)


# ---------------------------------------------------------------------------
# sampling the embedder training documents

def test_sample_per_class_counts_and_split_containment():
    spec = SyntheticSpec(n_classes=5, docs_per_class=12, doc_length=30,
                         filler_vocab_size=20, class_vocab_size=4)
    corpus = generate_synthetic_corpus(spec, seed=0)
    split = split_dataset(corpus, seed=1)
    sample = sample_embedding_training_docs(corpus, split, per_class=3, seed=2)
    assert len(sample) == 15
    train = set(split.train)
    assert all(d.id in train for d in sample)
    per_label = {}
    for d in sample:
        per_label[d.label] = per_label.get(d.label, 0) + 1
    assert set(per_label.values()) == {3}


def test_sample_two_labels_one_each():
    spec = SyntheticSpec(n_classes=2, docs_per_class=6, doc_length=20,
                         filler_vocab_size=10, class_vocab_size=3)
    corpus = generate_synthetic_corpus(spec, seed=0)
    split = split_dataset(corpus, seed=1)
    sample = sample_embedding_training_docs(corpus, split, per_class=1, seed=5)
    assert len(sample) == 2
    assert {d.label for d in sample} == set(corpus.label_set)


def test_sample_deterministic():
    spec = SyntheticSpec(n_classes=2, docs_per_class=8, doc_length=20,
                         filler_vocab_size=10, class_vocab_size=3)
    corpus = generate_synthetic_corpus(spec, seed=0)
    split = split_dataset(corpus, seed=1)
    ids_a = [d.id for d in sample_embedding_training_docs(corpus, split, 2, seed=7)]
    ids_b = [d.id for d in sample_embedding_training_docs(corpus, split, 2, seed=7)]
    assert ids_a == ids_b


def test_sample_insufficient_documents_fatal():
    spec = SyntheticSpec(n_classes=2, docs_per_class=4, doc_length=20,
                         filler_vocab_size=10, class_vocab_size=3)
    corpus = generate_synthetic_corpus(spec, seed=0)
    split = split_dataset(corpus, seed=1)
    with pytest.raises(DataError):
        sample_embedding_training_docs(corpus, split, per_class=50, seed=0)


# ---------------------------------------------------------------------------
# the two-topic training fixture

N_PER_TOPIC = 20
CHUNK_LEN = 150


def _two_topic_chunks(seed=0, signature_rate=0.15):
    """Two disjoint 25-word topic vocabularies, 20 chunks per topic; each
    chunk also carries a few words of its own so it stays individually
    retrievable after training."""
    rng = np.random.default_rng(seed)
    chunks = []
    chunk_id = 0
    for topic in range(2):
        words = [f"topic{topic}word{j}" for j in range(25)]
        for d in range(N_PER_TOPIC):
            signature = [f"sig{chunk_id}x{j}" for j in range(3)]
            tokens = tuple(
                signature[int(rng.integers(0, 3))]
                if rng.random() < signature_rate
                else words[int(rng.integers(0, 25))]
                for _ in range(CHUNK_LEN)
            )
            chunks.append(Chunk(f"t{topic}doc{d}", 1, tokens))
            chunk_id += 1
    return chunks


# Stop while the loss is still in clear descent: near its plateau the
# per-epoch negative resampling noise would swamp the trend.
TWO_TOPIC_CONFIG = EmbedderConfig(dim=32, window=5, epochs=18, negative=5, min_count=2)


@pytest.fixture(scope="module")
def two_topic_model():
    chunks = _two_topic_chunks()
    vocab = build_vocab(chunks, TWO_TOPIC_CONFIG.min_count)
    model = train_pvdm(chunks, vocab, TWO_TOPIC_CONFIG, seed=42)
    return model, chunks


def _cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_topic_separation(two_topic_model):
    model, _ = two_topic_model
    P = model.P.astype(np.float64)
    within, across = [], []
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            same = (i < N_PER_TOPIC) == (j < N_PER_TOPIC)
            (within if same else across).append(_cosine(P[i], P[j]))
    assert np.mean(within) - np.mean(across) > 0.2


def test_epoch_loss_non_increasing_after_smoothing(two_topic_model):
    model, _ = two_topic_model
    losses = np.array(model.epoch_losses)
    assert len(losses) == TWO_TOPIC_CONFIG.epochs
    smoothed = np.convolve(losses, np.ones(3) / 3, mode="valid")
    assert np.all(np.diff(smoothed) <= 0)


def test_zero_epochs_keeps_initialization():
    chunks = _two_topic_chunks()
    vocab = build_vocab(chunks, 2)
    config = EmbedderConfig(dim=16, epochs=0, min_count=2)
    trained = train_pvdm(chunks, vocab, config, seed=9)
    rng = np.random.default_rng(9)  # W_in, W_out, then P, uniform in +-0.5/dim
    bound = 0.5 / 16
    W_in = rng.uniform(-bound, bound, (len(vocab), 16)).astype(np.float32)
    W_out = rng.uniform(-bound, bound, (len(vocab), 16)).astype(np.float32)
    P = rng.uniform(-bound, bound, (len(chunks), 16)).astype(np.float32)
    assert np.array_equal(trained.W_in, W_in)
    assert np.array_equal(trained.W_out, W_out)
    assert np.array_equal(trained.P, P)
    assert trained.epoch_losses == []


def test_training_deterministic():
    chunks = _two_topic_chunks()[:8]
    vocab = build_vocab(chunks, 2)
    config = EmbedderConfig(dim=16, epochs=3, min_count=2)
    a = train_pvdm(chunks, vocab, config, seed=5)
    b = train_pvdm(chunks, vocab, config, seed=5)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.W_in, b.W_in)
    assert np.array_equal(a.W_out, b.W_out)
    assert a.epoch_losses == b.epoch_losses


def test_training_chunk_without_vocab_tokens_fatal():
    chunks = _chunks_from_texts(["a a a a", "zz yy"])
    vocab = build_vocab(chunks[:1], min_count=1)
    with pytest.raises(DataError):
        train_pvdm(chunks, vocab, EmbedderConfig(dim=8, epochs=1, min_count=1), seed=0)


@given(
    st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=14), min_size=1, max_size=5),
    st.integers(1, 4), st.integers(0, 3), st.integers(1, 2), st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_zero_learning_rate_keeps_matrices_and_masks_padding(word_ids, window, negative,
                                                            epochs, seed):
    """With alpha = min_alpha = 0 nothing moves, and each epoch's loss is the
    loss of the initial matrices over the real positions only: padded
    positions of the shorter chunks neither update nor count."""
    chunks = [Chunk(f"d{b}", 1, tuple(f"w{j}" for j in ids)) for b, ids in enumerate(word_ids)]
    vocab = build_vocab(chunks, 1)
    config = EmbedderConfig(dim=4, window=window, epochs=epochs, negative=negative, min_count=1)
    initial = train_pvdm(chunks, vocab, replace(config, epochs=0), seed)
    with (mock.patch.object(EmbedderConfig, "alpha", 0.0),
          mock.patch.object(EmbedderConfig, "min_alpha", 0.0)):
        trained = train_pvdm(chunks, vocab, config, seed)
    assert np.array_equal(trained.W_in, initial.W_in)
    assert np.array_equal(trained.W_out, initial.W_out)
    assert np.array_equal(trained.P, initial.P)

    encoded = [vocab.encode(c.tokens) for c in chunks]
    lmax = max(len(ids) for ids in encoded)
    rng = np.random.default_rng([seed, 1])  # one (chunks, longest, negative) draw per epoch
    W_in, W_out = initial.W_in.astype(np.float64), initial.W_out.astype(np.float64)
    for loss in trained.epoch_losses:
        negs = vocab.sample_noise(rng, (len(chunks), lmax, negative))
        total, count = 0.0, 0
        for b, ids in enumerate(encoded):
            for i in range(len(ids)):
                ctx = np.concatenate((ids[max(0, i - window):i], ids[i + 1:i + window + 1]))
                l1 = (W_in[ctx].sum(axis=0) + initial.P[b]) / (ctx.size + 1)
                targets = np.concatenate(([ids[i]], negs[b, i]))
                fout = 1.0 / (1.0 + np.exp(-(W_out[targets] @ l1)))
                total += -np.log(fout[0]) - np.log1p(-fout[1:]).sum()
                count += 1
        assert loss == pytest.approx(total / count, rel=1e-5)


def _reference_lockstep_epoch(model, rows, encoded, negs, alphas, labels) -> None:
    """Lockstep SGD written as loops, the oracle for one group's epoch in
    `train_pvdm`: at position i every chunk of the group (rows of `P`) that has
    one computes its step from the matrices as they were before the step, then
    the steps land chunk by chunk. With one chunk this is the per-position
    loop that training ran before."""
    W_in, W_out, P = model.W_in, model.W_out, model.P
    window = model.window
    for i in range(max(len(ids) for ids in encoded)):
        steps = []
        for j, (b, ids) in enumerate(zip(rows, encoded)):
            if i >= len(ids):
                continue
            ctx = np.concatenate((ids[max(0, i - window):i], ids[i + 1:i + window + 1]))
            l1 = (W_in[ctx].sum(axis=0) + P[b]) / np.float32(ctx.size + 1)
            targets = np.concatenate(([ids[i]], negs[j, i]))
            l2 = W_out[targets]
            fout = 1.0 / (1.0 + np.exp(-(l2 * l1).sum(axis=1)))
            g = (labels - fout) * alphas[j, i]
            g[1:][negs[j, i] == ids[i]] = 0.0
            steps.append((b, ctx, targets, g[:, None] * l1, (g[:, None] * l2).sum(axis=0)))
        for b, ctx, targets, update, neu1e in steps:
            for t, u in zip(targets, update):
                W_out[t] += u
            for c in ctx:
                W_in[c] += neu1e
            P[b] += neu1e


@given(
    st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=25), min_size=1, max_size=5),
    st.integers(1, 4), st.integers(0, 4), st.integers(1, 2), st.integers(0, 2**16),
    st.sampled_from([1, 20, 40, 10**6]),
)
@settings(max_examples=60, deadline=None)
def test_lockstep_training_equals_the_loop_reference(word_ids, window, negative, epochs, seed,
                                                    max_cells):
    """Bit-equal to the loop oracle, in one group or split by a small budget
    (1 cell: every chunk its own group)."""
    chunks = [Chunk(f"d{b}", 1, tuple(f"w{j}" for j in ids)) for b, ids in enumerate(word_ids)]
    vocab = build_vocab(chunks, 1)
    config = EmbedderConfig(dim=8, window=window, epochs=epochs, negative=negative,
                            min_count=1)
    with mock.patch.object(embedder, "_TRAIN_BUDGET_ELEMS", max_cells * (negative + 1)):
        trained = train_pvdm(chunks, vocab, config, seed)

    expected = train_pvdm(chunks, vocab, replace(config, epochs=0), seed)
    encoded = [vocab.encode(c.tokens) for c in chunks]
    lengths = np.array([len(ids) for ids in encoded])
    groups = embedder._length_groups(lengths, max_cells)
    rng = np.random.default_rng([seed, 1])  # one (group, longest, negative) draw per group
    labels = np.zeros(negative + 1, dtype=np.float32)
    labels[0] = 1.0
    span = config.alpha - config.min_alpha
    for epoch in range(epochs):
        for rows in groups:
            glen = lengths[rows][:, None]
            positions = np.arange(glen.max())
            negs = vocab.sample_noise(rng, (len(rows), len(positions), negative))
            alphas = (config.alpha - span * (epoch * glen + positions) / (epochs * glen))
            _reference_lockstep_epoch(expected, rows, [encoded[b] for b in rows], negs,
                                      alphas.astype(np.float32), labels)
    assert np.array_equal(trained.W_in, expected.W_in)
    assert np.array_equal(trained.W_out, expected.W_out)
    assert np.array_equal(trained.P, expected.P)


@given(st.lists(st.integers(1, 60), max_size=30), st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_length_groups_partition_and_bound(lengths, max_cells):
    lengths = np.array(lengths, dtype=np.int64)
    groups = embedder._length_groups(lengths, max_cells)
    assert sorted(np.concatenate(groups + [np.array([], dtype=np.int64)])) == list(range(len(lengths)))
    for rows in groups:
        assert list(rows) == sorted(rows)
        assert len(rows) == 1 or len(rows) * lengths[rows].max() <= max_cells
    for a, b in zip(groups, groups[1:]):  # shortest first, and greedy: b's shortest did not fit in a
        assert lengths[a].max() <= lengths[b].min()
        assert (len(a) + 1) * lengths[b].min() > max_cells


def test_one_long_chunk_trains_in_a_group_of_its_own():
    """A chunk 50x longer than the rest does not pad the short ones to its
    length: with the default budget it gets its own group."""
    lengths = np.array([600] * 449 + [30_000] + [600])
    groups = embedder._length_groups(lengths, embedder._TRAIN_BUDGET_ELEMS // 6)
    assert [len(g) for g in groups] == [450, 1] and list(groups[1]) == [449]


# ---------------------------------------------------------------------------
# inference

# The long_docs benchmark workload's PV-DM shape: dim 64, 667-token chunks
# (2000-token documents in 3 chunks), 6 inference steps.
LONG_DOCS_CONFIG = EmbedderConfig(dim=64, window=5, epochs=3, negative=5, min_count=5)


@pytest.fixture(scope="module")
def long_docs_model():
    spec = SyntheticSpec(n_classes=5, docs_per_class=1, doc_length=2000, filler_vocab_size=500,
                         class_vocab_size=20, mode="global", signal_rate=0.5)
    chunks = [c for doc in generate_synthetic_corpus(spec, seed=3) for c in chunk_document(doc, 3)]
    vocab = build_vocab(chunks, LONG_DOCS_CONFIG.min_count)
    model = train_pvdm(chunks, vocab, LONG_DOCS_CONFIG, seed=5)
    return model, [vocab.encode(c.tokens) for c in chunks]


def _objective_gradient_and_hessian(model, ids, P):
    """The gradient and Hessian of a chunk's inference objective at P, as a
    plain loop over positions and targets: the oracle for the Newton solve.
    The chunk's stream, keyed on the crc32 of its ids as little-endian int64
    bytes, is replayed: its start, then one (L, k) noise set."""
    rng = np.random.default_rng(zlib.crc32(np.asarray(ids, dtype="<i8").tobytes()))
    rng.uniform(-0.5 / model.dim, 0.5 / model.dim, model.dim)
    negs = model.vocab.sample_noise(rng, (len(ids), model.negative))
    W_in, W_out = model.W_in.astype(np.float64), model.W_out.astype(np.float64)
    grad = embedder._RIDGE * P
    hess = embedder._RIDGE * np.eye(model.dim)
    window = model.window
    for i in range(len(ids)):
        ctx = np.concatenate((ids[max(0, i - window):i], ids[i + 1:i + window + 1]))
        n = ctx.size + 1
        l1 = (W_in[ctx].sum(axis=0) + P) / n
        for j, t in enumerate(np.concatenate(([ids[i]], negs[i]))):
            if j > 0 and t == ids[i]:
                continue  # a noise word equal to the center is not a negative
            s = 1.0 / (1.0 + np.exp(-(W_out[t] @ l1)))
            grad += (s - (j == 0)) * W_out[t] / n
            hess += s * (1.0 - s) * np.outer(W_out[t], W_out[t]) / n**2
    return grad, hess


def test_solve_reaches_the_gradient_tolerance(long_docs_model):
    """At the returned vector the oracle gradient is as small as rounding P
    to float32 allows: |H| * 2^-24 * |P|, doubled for slack; after two steps
    it is not yet. Ragged chunks: one token, a chunk shorter than the
    window, a 667-token chunk and a short one."""
    from chunkdoc.embedder import _infer_chunk

    model, encoded = long_docs_model
    long_ids = np.concatenate(encoded[:2])[:667]
    short = encoded[2]
    batch = [short[:1], short[:model.window - 1], long_ids, short[:2 * model.window + 3]]
    for ids in batch:
        P = _infer_chunk(model, ids, 50).astype(np.float64)
        P_early = _infer_chunk(model, ids, 2).astype(np.float64)
        grad, hess = _objective_gradient_and_hessian(model, ids, P)
        tolerance = 2.0 * np.linalg.norm(hess, 2) * 2.0**-24 * np.linalg.norm(P)
        assert np.linalg.norm(grad) <= tolerance
        grad_early, _ = _objective_gradient_and_hessian(model, ids, P_early)
        assert np.linalg.norm(grad_early) > tolerance


_INFER_IN_A_CHILD = """
import sys
import numpy as np
from chunkdoc.embedder import _infer_chunk, load_pvdm
model = load_pvdm(sys.argv[1])
with np.load(sys.argv[2]) as f:
    batch = [f[f"chunk{b}"] for b in range(len(f.files))]
vectors = np.stack([_infer_chunk(model, ids, 50) for ids in batch])
sys.stdout.write(vectors.tobytes().hex())
"""


def test_vectors_do_not_depend_on_the_blas_thread_count(long_docs_model, tmp_path):
    """The same bytes with one OpenBLAS thread and with two, and in this
    process: a threaded product must not reorder a sum."""
    from chunkdoc.embedder import _infer_chunk

    model, encoded = long_docs_model
    batch = [encoded[0], encoded[1][:3], encoded[2][:40], encoded[3]]
    save_pvdm(model, tmp_path / "pvdm.bin")
    np.savez(tmp_path / "batch.npz", **{f"chunk{b}": ids for b, ids in enumerate(batch)})
    expected = np.stack([_infer_chunk(model, ids, 50) for ids in batch])
    src = Path(embedder.__file__).resolve().parents[1]
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _INFER_IN_A_CHILD, str(tmp_path / "pvdm.bin"),
                               str(tmp_path / "batch.npz")], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected.tobytes().hex(), f"OPENBLAS_NUM_THREADS={threads}"


@given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 400), st.integers(1, 80),
                          st.text(min_size=1, max_size=12), st.integers(1, 10**6),
                          st.lists(st.integers(0, 80), max_size=8)),
                min_size=1, max_size=6),
       st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_embed_chunks_vector_is_infer_vector_of_its_words(long_docs_model, spans, steps):
    """`embed_chunks` gives each chunk `infer_vector` on its in-vocabulary
    tokens alone: under any doc id and chunk index, with out-of-vocabulary
    tokens put between the tokens, and with the chunks in order and
    reversed. Ragged chunks, some shorter than the window, at dim 64."""
    model, encoded = long_docs_model
    words = model.vocab.words
    chunks, alone = [], []
    for c, start, length, doc_id, index, oov_at in spans:
        tokens = [words[i] for i in encoded[c][start:start + length]]
        alone.append(infer_vector(model, tokens, steps))
        for k, at in enumerate(sorted(oov_at, reverse=True)):
            tokens.insert(min(at, len(tokens)), f"<unknown {k}>")
        chunks.append(Chunk(doc_id, index, tuple(tokens)))
    for order, expected in ((chunks, alone), (chunks[::-1], alone[::-1])):
        embs = embed_chunks(model, order, steps)
        assert [(e.doc_id, e.index) for e in embs] == [c.key for c in order]
        for emb, vector in zip(embs, expected, strict=True):
            assert np.array_equal(emb.vector, vector)


def test_a_window_past_the_chunk_gives_the_vector_of_the_whole_chunk(long_docs_model):
    """Every context offset of L and beyond falls outside an L-token chunk,
    so any window from L - 1 up gives the same bytes."""
    from chunkdoc.embedder import _infer_chunk

    model, encoded = long_docs_model
    ids = encoded[0][:30]
    wide = copy.copy(model)
    wide.window = len(ids) - 1
    expected = _infer_chunk(wide, ids, 50)
    wide.window = 10**5
    assert _infer_chunk(wide, ids, 50).tobytes() == expected.tobytes()


def test_inference_memory_follows_the_chunk_not_the_vocabulary():
    """Inferring one 40-token chunk at V = 50,000 allocates under a quarter of
    one float64 copy of a word matrix: only the rows the chunk reads are
    converted, by `embed_chunks` and by `infer_vector` alike."""
    rng = np.random.default_rng(5)
    V, dim = 50_000, 32
    counts = rng.integers(1, 1000, V)
    vocab = Vocabulary([f"w{i}" for i in range(V)], counts, 0.75)
    W_in, W_out = (rng.uniform(-0.5, 0.5, (V, dim)).astype(np.float32) for _ in range(2))
    model = embedder.PVDMModel(vocab, 5, 5, 50, W_in, W_out)
    tokens = tuple(vocab.words[i] for i in rng.integers(0, V, 40))
    for infer in (lambda: embed_chunks(model, [Chunk("d", 1, tokens)], 50),
                  lambda: infer_vector(model, tokens, 50)):
        tracemalloc.start()
        try:
            infer()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < V * dim * 8 / 4


def test_infer_steps_zero_returns_seeded_init(two_topic_model):
    """0 steps return the start keyed on the chunk's ids: the same tokens
    give the same start whatever `seed` is passed, other tokens another."""
    model, chunks = two_topic_model
    v1 = infer_vector(model, chunks[0].tokens, steps=0, seed=3)
    v2 = infer_vector(model, chunks[0].tokens, steps=0, seed=4)
    v3 = infer_vector(model, chunks[1].tokens, steps=0, seed=3)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)
    bound = 0.5 / model.dim
    assert np.all(np.abs(v1) <= bound)


def test_infer_deterministic(two_topic_model):
    model, chunks = two_topic_model
    a = infer_vector(model, chunks[3].tokens, steps=10)
    b = infer_vector(model, chunks[3].tokens, steps=10)
    assert np.array_equal(a, b)


def _saturated_model():
    """A hand-built model whose word weights of +-30 put the scores far past
    the range of exp, in float32 and in float64."""
    rng = np.random.default_rng(2)
    V, dim = 20, 8
    vocab = Vocabulary([f"w{i}" for i in range(V)], np.arange(V, 0, -1), 0.75)
    W_in, W_out = (rng.choice([-30.0, 30.0], (V, dim)).astype(np.float32) for _ in range(2))
    return embedder.PVDMModel(vocab, 2, 3, 5, W_in, W_out), rng.integers(0, V, 50)


def test_infer_vector_with_saturated_scores_is_finite():
    """The sigmoid saturates at 0 or 1 without an overflow warning (an error
    in this suite), and the solve still returns a finite vector."""
    model, ids = _saturated_model()
    vec = infer_vector(model, [model.vocab.words[i] for i in ids], 5)
    assert np.isfinite(vec).all()


def test_training_step_with_saturated_scores_raises_no_overflow():
    """float32 exp overflows past a score of about 88; training's sigmoid
    saturates at 0 there without a warning and the loss stays finite."""
    model, ids = _saturated_model()
    model.P = np.zeros((1, model.dim), dtype=np.float32)
    _, ids_pad, active = embedder._pad([ids])
    negs = model.vocab.sample_noise(np.random.default_rng(3), (*ids_pad.shape, model.negative))
    alphas = np.full(ids_pad.shape, 0.025, dtype=np.float32)
    loss = embedder._train_group(model, np.array([0]), ids_pad, active, negs, alphas)
    assert np.isfinite(loss)


def test_infer_oov_error(two_topic_model):
    model, _ = two_topic_model
    with pytest.raises(OOVChunkError):
        infer_vector(model, ["nothing", "known"], steps=5)


def test_infer_leaves_word_matrices_frozen(two_topic_model):
    model, chunks = two_topic_model
    before_in = model.W_in.copy()
    before_out = model.W_out.copy()
    infer_vector(model, chunks[5].tokens, steps=10)
    assert np.array_equal(model.W_in, before_in)
    assert np.array_equal(model.W_out, before_out)


def test_self_retrieval(two_topic_model):
    """Re-inferring a training chunk lands near its trained paragraph vector:
    closer to it than to at least 90% of the other chunks' vectors."""
    model, chunks = two_topic_model
    P = model.P.astype(np.float64)
    for idx in range(0, len(chunks), 4):
        vec = infer_vector(model, chunks[idx].tokens, steps=40)
        own = _cosine(vec, P[idx])
        others = [_cosine(vec, P[j]) for j in range(len(P)) if j != idx]
        beaten = sum(1 for o in others if o < own)
        assert beaten / len(others) >= 0.9


# ---------------------------------------------------------------------------
# embed_corpus

def _doc(doc_id, label, tokens):
    text = " ".join(tokens)
    return Document(doc_id, label, text, text)


def _tiny_corpus():
    docs = [
        _doc("x/a", "x", (f"topic0word{i % 25}" for i in range(40))),
        _doc("x/b", "x", (f"topic0word{(i + 3) % 25}" for i in range(10))),
        _doc("y/a", "y", (f"topic1word{i % 25}" for i in range(33))),
    ]
    return Corpus(docs, LabelSet(["x", "y"]))


def test_embed_corpus_counts(two_topic_model):
    model, _ = two_topic_model
    corpus = _tiny_corpus()
    for n in (1, 3, 50):
        embs = embed_corpus(model, corpus, n, steps=2)
        assert set(embs) == {d.id for d in corpus}
        for doc in corpus:
            expected = min(n, len(doc.tokens))
            assert [e.index for e in embs[doc.id]] == list(range(1, expected + 1))
        total = sum(len(v) for v in embs.values())
        assert total == sum(min(n, len(d.tokens)) for d in corpus)


def test_embed_corpus_peak_does_not_grow_with_the_documents():
    """Documents are chunked as the solve reaches them, so embedding 10 long
    documents peaks above embedding 2 by no more than the 8 more documents'
    output: 3 chunk vectors each, with 1 KB of objects per vector."""
    def corpus(per_class):
        spec = SyntheticSpec(n_classes=2, docs_per_class=per_class, doc_length=3000,
                             filler_vocab_size=200, class_vocab_size=10)
        return generate_synthetic_corpus(spec, seed=per_class)

    small, large = corpus(1), corpus(5)
    vocab = build_vocab([c for doc in large for c in chunk_document(doc, 1)], 1)
    rng = np.random.default_rng(0)
    dim = 16
    W_in, W_out = (rng.uniform(-0.5, 0.5, (len(vocab), dim)).astype(np.float32) for _ in range(2))
    model = embedder.PVDMModel(vocab, 3, 3, 5, W_in, W_out)
    embed_corpus(model, small, 3, steps=5)  # warm
    peaks = []
    for c in (small, large):
        tracemalloc.start()
        try:
            embed_corpus(model, c, 3, steps=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= (len(large) - len(small)) * 3 * (dim * 4 + 1024)


def test_embed_corpus_matches_single_inference(two_topic_model):
    """`embed_corpus` gives each chunk its vector inferred alone, bit for bit."""
    from chunkdoc.embedder import _infer_chunk

    model, _ = two_topic_model
    corpus = _tiny_corpus()
    embs = embed_corpus(model, corpus, 3, steps=4)
    for doc in corpus:
        for chunk in chunk_document(doc, 3):
            ids = model.vocab.encode(chunk.tokens)
            single = _infer_chunk(model, ids, 4)
            embedded = embs[doc.id][chunk.index - 1].vector
            assert np.array_equal(single, embedded)


def test_training_and_embedding_bit_equal_with_the_searchsorted_sampler():
    """The guide-table sampler changes no trained or inferred bit: the loop
    references above draw through `sample_noise` themselves, so only a run
    against the plain `searchsorted` draw can see a sampler change."""
    spec = SyntheticSpec(n_classes=2, docs_per_class=3, doc_length=300, filler_vocab_size=200,
                         class_vocab_size=10, filler_concentration=0.3)
    corpus = generate_synthetic_corpus(spec, seed=4)
    chunks = [c for doc in corpus for c in chunk_document(doc, 3)]
    config = EmbedderConfig(dim=16, window=3, epochs=2, negative=4, min_count=1)
    vocab = build_vocab(chunks, config.min_count)
    assert (vocab.noise_guide >= 0).any() and (vocab.noise_guide < 0).any()

    def run():
        model = train_pvdm(chunks, vocab, config, seed=8)
        return model, embed_corpus(model, corpus, 3, steps=3)

    def oracle(self, rng, shape):
        return _searchsorted_ids(self, rng.random(shape))

    model, embs = run()
    with mock.patch.object(Vocabulary, "sample_noise", oracle):
        expected, expected_embs = run()
    for name in ("W_in", "W_out", "P"):
        assert np.array_equal(getattr(model, name), getattr(expected, name)), name
    for doc_id, embeddings in embs.items():
        for got, want in zip(embeddings, expected_embs[doc_id], strict=True):
            assert np.array_equal(got.vector, want.vector)


def test_embed_corpus_oov_chunk_zero_vector(two_topic_model, caplog):
    model, _ = two_topic_model
    docs = [
        _doc("x/known", "x", (f"topic0word{i % 25}" for i in range(20))),
        _doc("y/alien", "y", (f"unseen{i}" for i in range(20))),
    ]
    corpus = Corpus(docs, LabelSet(["x", "y"]))
    with caplog.at_level("WARNING"):
        embs = embed_corpus(model, corpus, 2, steps=2)
    for emb in embs["y/alien"]:
        assert np.array_equal(emb.vector, np.zeros(model.dim, dtype=np.float32))
    assert any("out-of-vocabulary" in r.message for r in caplog.records)
    assert not np.allclose(embs["x/known"][0].vector, 0.0)


# ---------------------------------------------------------------------------
# serialization

def test_checkpoint_roundtrip_bit_exact(two_topic_model, tmp_path):
    """pvdm.bin holds what inference reads and nothing else: the paragraph
    rows of the training chunks stay behind."""
    model, _ = two_topic_model
    path = tmp_path / "model.bin"
    save_pvdm(model, path)
    header, arrays = checkpoint.load(path, "pvdm")
    assert list(header) == ["window", "negative", "infer_steps", "words", "noise_exponent"]
    assert list(arrays) == ["counts", "W_in", "W_out"]
    loaded = load_pvdm(path)
    assert np.array_equal(loaded.W_in, model.W_in)
    assert np.array_equal(loaded.W_out, model.W_out)
    assert model.P is not None and loaded.P is None
    assert loaded.vocab.words == model.vocab.words
    assert np.array_equal(loaded.vocab.counts, model.vocab.counts)
    assert loaded.vocab.noise_exponent == model.vocab.noise_exponent
    assert loaded.infer_steps == model.infer_steps == TWO_TOPIC_CONFIG.infer_steps
    assert ((loaded.dim, loaded.window, loaded.negative)
            == (model.dim, model.window, model.negative))
    second = tmp_path / "model2.bin"
    save_pvdm(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_check_finite_on_a_loaded_model(two_topic_model, tmp_path):
    """A loaded model has no `P`: its word matrices alone are checked."""
    model, _ = two_topic_model
    save_pvdm(model, tmp_path / "model.bin")
    loaded = load_pvdm(tmp_path / "model.bin")
    loaded.check_finite()
    loaded.W_out = loaded.W_out.copy()
    loaded.W_out[0, 0] = np.nan
    with pytest.raises(TrainingError, match="W_out"):
        loaded.check_finite()
    trained = copy.copy(model)
    trained.P = model.P.copy()
    trained.P[-1, -1] = np.inf
    with pytest.raises(TrainingError, match="P"):
        trained.check_finite()


@pytest.mark.parametrize("name,value", [("W_in", np.nan), ("W_out", -np.inf)])
def test_load_pvdm_refuses_non_finite_word_matrices(two_topic_model, tmp_path, name, value):
    model, _ = two_topic_model
    path = tmp_path / "model.bin"
    save_pvdm(model, path)
    header, arrays = checkpoint.load(path, "pvdm")
    arrays = {k: np.array(v) for k, v in arrays.items()}
    arrays[name][1, 2] = value
    checkpoint.save(path, "pvdm", header, arrays)
    with pytest.raises(ValueError, match=f"{name} holds non-finite values"):
        load_pvdm(path)


def test_checkpoint_roundtrip_preserves_inference(two_topic_model, tmp_path):
    model, chunks = two_topic_model
    path = tmp_path / "model.bin"
    save_pvdm(model, path)
    loaded = load_pvdm(path)
    a = infer_vector(model, chunks[2].tokens, steps=5)
    b = infer_vector(loaded, chunks[2].tokens, steps=5)
    assert np.array_equal(a, b)


def test_chunk_embedding_tsv_roundtrip(two_topic_model, tmp_path):
    model, _ = two_topic_model
    corpus = _tiny_corpus()
    embs = embed_corpus(model, corpus, 3, steps=2)
    path = tmp_path / "chunks.tsv"
    export_chunk_embeddings(embs, path)
    lines = path.read_text().splitlines()
    assert len(lines) == sum(len(v) for v in embs.values())
    assert lines[0].split("\t")[0] == sorted(embs)[0]
    loaded = load_chunk_embeddings(path)
    for doc_id, embeddings in embs.items():
        for orig, back in zip(embeddings, loaded[doc_id]):
            assert orig.index == back.index
            assert np.array_equal(orig.vector, back.vector)  # %.9g is f32-exact
