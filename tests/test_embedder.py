import numpy as np
import pytest

from chunkdoc.chunker import Chunk, chunk_document
from chunkdoc.corpus import Corpus, Document, LabelSet
from chunkdoc.embedder import (EmbedderConfig, Vocabulary, build_vocab,
                               embed_corpus, export_chunk_embeddings, infer_vector,
                               load_chunk_embeddings, load_pvdm,
                               sample_embedding_training_docs, save_pvdm, train_pvdm)
from chunkdoc.corpus import split_dataset
from chunkdoc.errors import DataError, OOVChunkError
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


def test_encode_drops_oov_preserves_order():
    vocab = build_vocab(_chunks_from_texts(["a a b b"]), min_count=2)
    ids = vocab.encode(["b", "zzz", "a", "b"])
    assert [vocab.words[i] for i in ids] == ["b", "a", "b"]


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
TWO_TOPIC_CONFIG = EmbedderConfig(dim=32, window=5, epochs=18, negative=5,
                                  min_count=2, alpha=0.025, min_alpha=0.0001)


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


# ---------------------------------------------------------------------------
# inference

def test_infer_steps_zero_returns_seeded_init(two_topic_model):
    model, chunks = two_topic_model
    v1 = infer_vector(model, chunks[0].tokens, steps=0, seed=3)
    v2 = infer_vector(model, chunks[0].tokens, steps=0, seed=3)
    v3 = infer_vector(model, chunks[0].tokens, steps=0, seed=4)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)
    bound = 0.5 / model.dim
    assert np.all(np.abs(v1) <= bound)


def test_infer_deterministic(two_topic_model):
    model, chunks = two_topic_model
    a = infer_vector(model, chunks[3].tokens, steps=10, seed=11)
    b = infer_vector(model, chunks[3].tokens, steps=10, seed=11)
    assert np.array_equal(a, b)


def test_infer_oov_error(two_topic_model):
    model, _ = two_topic_model
    with pytest.raises(OOVChunkError):
        infer_vector(model, ["nothing", "known"], steps=5, seed=0)


def test_infer_leaves_word_matrices_frozen(two_topic_model):
    model, chunks = two_topic_model
    before_in = model.W_in.copy()
    before_out = model.W_out.copy()
    infer_vector(model, chunks[5].tokens, steps=10, seed=0)
    assert np.array_equal(model.W_in, before_in)
    assert np.array_equal(model.W_out, before_out)


def test_self_retrieval(two_topic_model):
    """Re-inferring a training chunk lands near its trained paragraph vector:
    closer to it than to at least 90% of the other chunks' vectors."""
    model, chunks = two_topic_model
    P = model.P.astype(np.float64)
    for idx in range(0, len(chunks), 4):
        vec = infer_vector(model, chunks[idx].tokens, steps=40, seed=100 + idx)
        own = _cosine(vec, P[idx])
        others = [_cosine(vec, P[j]) for j in range(len(P)) if j != idx]
        beaten = sum(1 for o in others if o < own)
        assert beaten / len(others) >= 0.9


# ---------------------------------------------------------------------------
# embed_corpus

def _tiny_corpus():
    docs = [
        Document("x/a", "x", "", tuple(f"topic0word{i % 25}" for i in range(40))),
        Document("x/b", "x", "", tuple(f"topic0word{(i + 3) % 25}" for i in range(10))),
        Document("y/a", "y", "", tuple(f"topic1word{i % 25}" for i in range(33))),
    ]
    docs = [Document(d.id, d.label, " ".join(d.tokens), d.tokens) for d in docs]
    return Corpus(docs, LabelSet(["x", "y"]))


def test_embed_corpus_counts(two_topic_model):
    model, _ = two_topic_model
    corpus = _tiny_corpus()
    for n in (1, 3, 50):
        embs = embed_corpus(model, corpus, n, steps=2, seed=0)
        assert set(embs) == set(corpus.ids())
        for doc in corpus:
            expected = min(n, len(doc.tokens))
            assert [e.index for e in embs[doc.id]] == list(range(1, expected + 1))
        total = sum(len(v) for v in embs.values())
        assert total == sum(min(n, len(d.tokens)) for d in corpus)


def test_embed_corpus_matches_single_inference(two_topic_model):
    """Batched inference must equal chunk-at-a-time inference bit for bit."""
    from chunkdoc.embedder import _chunk_seed, _infer_batch

    model, _ = two_topic_model
    corpus = _tiny_corpus()
    embs = embed_corpus(model, corpus, 3, steps=4, seed=7)
    for doc in corpus:
        for chunk in chunk_document(doc, 3):
            ids = model.vocab.encode(chunk.tokens)
            single = _infer_batch(model, [ids], 4, [_chunk_seed(7, doc.id, chunk.index)],
                                  0.025, 0.0001)[0]
            batched = embs[doc.id][chunk.index - 1].vector
            assert np.array_equal(single, batched)


def test_embed_corpus_oov_chunk_zero_vector(two_topic_model, caplog):
    model, _ = two_topic_model
    docs = [
        Document("x/known", "x", "", tuple(f"topic0word{i % 25}" for i in range(20))),
        Document("y/alien", "y", "", tuple(f"unseen{i}" for i in range(20))),
    ]
    docs = [Document(d.id, d.label, " ".join(d.tokens), d.tokens) for d in docs]
    corpus = Corpus(docs, LabelSet(["x", "y"]))
    with caplog.at_level("WARNING"):
        embs = embed_corpus(model, corpus, 2, steps=2, seed=0)
    for emb in embs["y/alien"]:
        assert np.array_equal(emb.vector, np.zeros(model.dim, dtype=np.float32))
    assert any("out-of-vocabulary" in r.message for r in caplog.records)
    assert not np.allclose(embs["x/known"][0].vector, 0.0)


# ---------------------------------------------------------------------------
# serialization

def test_checkpoint_roundtrip_bit_exact(two_topic_model, tmp_path):
    model, _ = two_topic_model
    path = tmp_path / "model.bin"
    save_pvdm(model, path)
    loaded = load_pvdm(path)
    assert np.array_equal(loaded.W_in, model.W_in)
    assert np.array_equal(loaded.W_out, model.W_out)
    assert np.array_equal(loaded.P, model.P)
    assert loaded.vocab.words == model.vocab.words
    assert np.array_equal(loaded.vocab.counts, model.vocab.counts)
    assert loaded.vocab.total_tokens == model.vocab.total_tokens
    assert loaded.chunk_keys == model.chunk_keys
    assert (loaded.dim, loaded.window, loaded.negative) == (model.dim, model.window, model.negative)
    second = tmp_path / "model2.bin"
    save_pvdm(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_checkpoint_roundtrip_preserves_inference(two_topic_model, tmp_path):
    model, chunks = two_topic_model
    path = tmp_path / "model.bin"
    save_pvdm(model, path)
    loaded = load_pvdm(path)
    a = infer_vector(model, chunks[2].tokens, steps=5, seed=1)
    b = infer_vector(loaded, chunks[2].tokens, steps=5, seed=1)
    assert np.array_equal(a, b)


def test_chunk_embedding_tsv_roundtrip(two_topic_model, tmp_path):
    model, _ = two_topic_model
    corpus = _tiny_corpus()
    embs = embed_corpus(model, corpus, 3, steps=2, seed=0)
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
