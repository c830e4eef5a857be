"""Paragraph-vector chunk embeddings (PV-DM with negative sampling).

A small sample of documents trains the model; every chunk of every document
is then embedded by gradient steps on a fresh paragraph vector with the word
matrices frozen. Training is a faithful per-position SGD loop; inference is
vectorized across chunks, which is exact because chunks share no trainable
state at inference time.
"""

from __future__ import annotations

import logging
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .chunker import Chunk, chunk_document
from .corpus import Corpus, Document, DatasetSplit
from .errors import DataError, OOVChunkError, TrainingError

logger = logging.getLogger(__name__)

# Memory budget for one inference batch: B * (Lmax + 1) * dim f64 entries.
_INFER_BUDGET_ELEMS = 24_000_000


@dataclass
class EmbedderConfig:
    dim: int = 100
    window: int = 5
    epochs: int = 40
    negative: int = 5
    min_count: int = 5
    alpha: float = 0.025
    min_alpha: float = 0.0001
    noise_exponent: float = 0.75
    infer_steps: int = 50
    per_class: int = 30  # training-split documents per label sampled to train PV-DM


class Vocabulary:
    """Word inventory plus the unigram noise distribution for negative draws.

    `words[i]` has index i and count `counts[i]`; `total_tokens` counts every
    token seen, kept or not.
    """

    def __init__(self, words: list[str], counts, min_count: int, noise_exponent: float,
                 total_tokens: int):
        self.words = list(words)
        self.counts = np.array(counts, dtype=np.int64)
        self.index: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        self.min_count = int(min_count)
        self.noise_exponent = float(noise_exponent)
        self.total_tokens = int(total_tokens)
        weights = self.counts.astype(np.float64) ** self.noise_exponent
        self.noise_probs = weights / weights.sum()
        self.noise_cdf = np.cumsum(self.noise_probs)
        self.noise_cdf[-1] = 1.0

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word) -> bool:
        return word in self.index

    def encode(self, tokens) -> np.ndarray:
        """In-vocabulary token ids in document order; OOV tokens are dropped."""
        return np.array([self.index[t] for t in tokens if t in self.index], dtype=np.int64)

    def sample_noise(self, rng: np.random.Generator, shape) -> np.ndarray:
        return np.searchsorted(self.noise_cdf, rng.random(shape)).astype(np.int64)


def build_vocab(chunks: list[Chunk], min_count: int, noise_exponent: float = 0.75) -> Vocabulary:
    """Words seen at least `min_count` times, indexed by descending frequency
    with lexicographic tie-breaks so builds are reproducible."""
    if not chunks:
        raise DataError("cannot build a vocabulary from zero chunks")
    counts: Counter[str] = Counter()
    for chunk in chunks:
        counts.update(chunk.tokens)
    kept = sorted(((w, c) for w, c in counts.items() if c >= min_count),
                  key=lambda wc: (-wc[1], wc[0]))
    if not kept:
        raise DataError(f"vocabulary is empty after min_count={min_count} filtering")
    return Vocabulary([w for w, _ in kept], [c for _, c in kept], min_count, noise_exponent,
                      sum(counts.values()))


def sample_embedding_training_docs(
    corpus: Corpus, split: DatasetSplit, per_class: int, seed: int
) -> list[Document]:
    """Draw `per_class` training-split documents per label, deterministically."""
    train_ids = set(split.train)
    rng = np.random.default_rng(seed)
    sample: list[Document] = []
    for label in corpus.label_set:
        ids = sorted(d.id for d in corpus if d.label == label and d.id in train_ids)
        if len(ids) < per_class:
            raise DataError(
                f"label {label!r} has {len(ids)} training documents, need {per_class}"
            )
        picked = rng.permutation(len(ids))[:per_class]
        sample.extend(corpus.get(ids[i]) for i in sorted(picked))
    return sample


class PVDMModel:
    """Input/output word matrices (V, dim) plus one paragraph vector per
    training chunk: row i of `P` belongs to `chunk_keys[i]`."""

    def __init__(
        self,
        vocab: Vocabulary,
        window: int,
        negative: int,
        chunk_keys: list[tuple[str, int]],
        W_in: np.ndarray,
        W_out: np.ndarray,
        P: np.ndarray,
    ):
        if len(set(chunk_keys)) != len(chunk_keys):
            raise DataError("duplicate chunk keys for paragraph matrix")
        self.vocab = vocab
        self.window = int(window)
        self.negative = int(negative)
        self.chunk_keys = list(chunk_keys)
        self.W_in, self.W_out, self.P = W_in, W_out, P
        self.dim = W_in.shape[1]
        self.epoch_losses: list[float] = []

    def check_finite(self) -> None:
        for name, arr in (("W_in", self.W_in), ("W_out", self.W_out), ("P", self.P)):
            if not np.isfinite(arr).all():
                raise TrainingError(f"non-finite values in {name}; lower the learning rate")


def _train_chunk(model, ids, p_row, negs, alphas, labels) -> float:
    """One SGD pass over one chunk's positions; returns its summed loss.
    Mutates the model matrices."""
    W_in, W_out, P = model.W_in, model.W_out, model.P
    window = model.window
    row = P[p_row]
    loss = 0.0
    for i in range(len(ids)):
        lo = 0 if i < window else i - window
        ctx = np.concatenate((ids[lo:i], ids[i + 1 : i + window + 1]))
        if ctx.size:
            l1 = (W_in[ctx].sum(axis=0) + row) / np.float32(ctx.size + 1)
        else:
            l1 = row.copy()
        targets = np.empty(len(negs[i]) + 1, dtype=np.int64)
        targets[0] = ids[i]
        targets[1:] = negs[i]
        l2 = W_out[targets]
        scores = (l2 * l1).sum(axis=1)
        fout = 1.0 / (1.0 + np.exp(-scores))
        g = (labels - fout) * alphas[i]
        g[1:][negs[i] == ids[i]] = 0.0  # rare noise draw equal to the center word
        update = g[:, None] * l1
        for j, t in enumerate(targets):
            W_out[t] += update[j]
        neu1e = (g[:, None] * l2).sum(axis=0)
        for c in ctx:
            W_in[c] += neu1e
        row += neu1e
        probs = np.clip(fout, 1e-10, 1.0 - 1e-10)
        loss += -np.log(probs[0]) - np.log1p(-probs[1:]).sum()
    return loss


def train_pvdm(
    chunks: list[Chunk], vocab: Vocabulary, config: EmbedderConfig, seed: int
) -> PVDMModel:
    """Train PV-DM with negative sampling by per-position SGD.

    The context for each position is the mean of the window word input
    vectors and the chunk's paragraph vector; the learning rate decays
    linearly from `alpha` to `min_alpha` over all scheduled updates. The run
    is bit-reproducible for a given seed.
    """
    rng = np.random.default_rng(seed)
    bound = 0.5 / config.dim
    shape = (len(vocab), config.dim)
    W_in = rng.uniform(-bound, bound, shape).astype(np.float32)
    W_out = rng.uniform(-bound, bound, shape).astype(np.float32)
    P = rng.uniform(-bound, bound, (len(chunks), config.dim)).astype(np.float32)
    model = PVDMModel(vocab, config.window, config.negative, [c.key for c in chunks],
                      W_in, W_out, P)
    encoded = [vocab.encode(c.tokens) for c in chunks]
    for c, ids in zip(chunks, encoded):
        if ids.size == 0:
            raise DataError(f"training chunk {c.key} has no in-vocabulary tokens")
    if config.epochs <= 0:
        return model

    rng = np.random.default_rng([seed, 1])
    total_positions = sum(len(e) for e in encoded)
    total_updates = config.epochs * total_positions
    labels = np.zeros(config.negative + 1, dtype=np.float32)
    labels[0] = 1.0
    span = config.alpha - config.min_alpha

    done = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(len(chunks))
        chunk_negs = []
        chunk_alphas = []
        for ci in order:
            n_pos = len(encoded[ci])
            negs = vocab.sample_noise(rng, (n_pos, config.negative))
            progress = (done + np.arange(n_pos)) / total_updates
            chunk_alphas.append((config.alpha - span * progress).astype(np.float32))
            chunk_negs.append(negs)
            done += n_pos
        loss = sum(
            _train_chunk(model, encoded[ci], ci, chunk_negs[pos], chunk_alphas[pos], labels)
            for pos, ci in enumerate(order)
        )
        model.epoch_losses.append(float(loss / total_positions))
        model.check_finite()
    return model


def _chunk_seed(base_seed: int, doc_id: str, index: int) -> list[int]:
    return [base_seed, zlib.crc32(doc_id.encode("utf-8")), index]


def _infer_batch(
    model: PVDMModel,
    encoded_seqs: list[np.ndarray],
    steps: int,
    seeds: list,
    alpha: float,
    min_alpha: float,
) -> np.ndarray:
    """Per-position SGD on fresh paragraph vectors, vectorized across chunks.

    Chunks are independent at inference time (word matrices frozen), so
    batching across them is exact; only elementwise ops and fixed-axis
    reductions are used, making each row's result independent of how the
    batch was grouped.
    """
    B = len(encoded_seqs)
    dim, window, k = model.dim, model.window, model.negative
    lengths = np.array([len(e) for e in encoded_seqs], dtype=np.int64)
    if (lengths == 0).any():
        raise OOVChunkError("chunk has no in-vocabulary tokens")
    rngs = [np.random.default_rng(s) for s in seeds]
    bound = 0.5 / dim
    P = np.stack([rng.uniform(-bound, bound, dim) for rng in rngs])
    if steps <= 0:
        return P.astype(np.float32)

    Lmax = int(lengths.max())
    W_in = model.W_in.astype(np.float64)
    W_out = model.W_out.astype(np.float64)
    ids_pad = np.zeros((B, Lmax), dtype=np.int64)
    for b, e in enumerate(encoded_seqs):
        ids_pad[b, : len(e)] = e

    # Window sums via per-chunk cumulative sums; padded tail rows never read.
    csum = np.zeros((B, Lmax + 1, dim), dtype=np.float64)
    np.cumsum(W_in[ids_pad], axis=1, out=csum[:, 1:])
    positions = np.arange(Lmax)
    lo = np.maximum(0, positions - window)
    hi = np.minimum(lengths[:, None], positions[None, :] + window + 1)
    hi = np.maximum(hi, lo[None, :])
    inv_denom = 1.0 / np.maximum(1, hi - lo[None, :] - 1 + 1)  # ctx words + paragraph
    rows = np.arange(B)

    labels = np.zeros(k + 1, dtype=np.float64)
    labels[0] = 1.0
    span = alpha - min_alpha
    per_seq_total = (steps * lengths).astype(np.float64)
    for step in range(steps):
        negs = np.zeros((B, Lmax, k), dtype=np.int64)
        for b in range(B):
            negs[b, : lengths[b]] = model.vocab.sample_noise(rngs[b], (int(lengths[b]), k))
        alphas = alpha - span * ((step * lengths[:, None] + positions[None, :]) / per_seq_total[:, None])
        for i in range(Lmax):
            active = i < lengths
            if not active.any():
                break
            center = ids_pad[:, i]
            ctx_sum = csum[rows, hi[:, i]] - csum[:, lo[i]] - W_in[center]
            l1 = (ctx_sum + P) * inv_denom[:, i, None]
            tgt = np.concatenate((center[:, None], negs[:, i, :]), axis=1)
            Wt = W_out[tgt]
            scores = (Wt * l1[:, None, :]).sum(axis=2)
            fout = 1.0 / (1.0 + np.exp(-scores))
            g = (labels[None, :] - fout) * alphas[:, i, None]
            g[:, 1:][tgt[:, 1:] == center[:, None]] = 0.0
            g[~active] = 0.0
            P += (g[:, :, None] * Wt).sum(axis=1)
    return P.astype(np.float32)


def infer_vector(model: PVDMModel, tokens, steps: int, seed, alpha: float = 0.025,
                 min_alpha: float = 0.0001) -> np.ndarray:
    """Embed one token sequence; deterministic for a given (model, tokens, steps, seed)."""
    ids = model.vocab.encode(tokens)
    if ids.size == 0:
        raise OOVChunkError("no in-vocabulary tokens to infer from")
    return _infer_batch(model, [ids], steps, [seed], alpha, min_alpha)[0]


@dataclass(frozen=True)
class ChunkEmbedding:
    doc_id: str
    index: int
    vector: np.ndarray  # (dim,) float32


def embed_chunks(
    model: PVDMModel,
    chunks: list[Chunk],
    steps: int = 50,
    seed: int = 0,
    alpha: float = 0.025,
    min_alpha: float = 0.0001,
) -> list[ChunkEmbedding]:
    """Embed `chunks`, returning one embedding per chunk in input order.

    Chunks with no in-vocabulary tokens get the zero vector and a logged
    warning. The rest are inferred in batches; each chunk draws from its own
    seeded stream keyed on (seed, doc_id, index), so its vector does not
    depend on the other chunks or on how they were batched.
    """
    out: list[ChunkEmbedding | None] = [None] * len(chunks)
    pending: list[tuple[int, np.ndarray]] = []
    for pos, chunk in enumerate(chunks):
        ids = model.vocab.encode(chunk.tokens)
        if ids.size:
            pending.append((pos, ids))
        else:
            logger.warning("chunk (%s, %d) is fully out-of-vocabulary; using zero vector",
                           chunk.doc_id, chunk.index)
            out[pos] = ChunkEmbedding(chunk.doc_id, chunk.index,
                                      np.zeros(model.dim, dtype=np.float32))
    if len(pending) < len(chunks):
        logger.warning("%d chunks had no in-vocabulary tokens", len(chunks) - len(pending))

    start = 0
    while start < len(pending):
        batch = [pending[start]]
        lmax = len(pending[start][1])
        while start + len(batch) < len(pending):
            lmax_new = max(lmax, len(pending[start + len(batch)][1]))
            if (len(batch) + 1) * (lmax_new + 1) * model.dim > _INFER_BUDGET_ELEMS:
                break
            batch.append(pending[start + len(batch)])
            lmax = lmax_new
        keys = [chunks[pos].key for pos, _ in batch]
        seeds = [_chunk_seed(seed, doc_id, index) for doc_id, index in keys]
        vectors = _infer_batch(model, [ids for _, ids in batch], steps, seeds, alpha, min_alpha)
        for (pos, _), (doc_id, index), vec in zip(batch, keys, vectors):
            out[pos] = ChunkEmbedding(doc_id, index, vec)
        start += len(batch)
    return out


def embed_corpus(
    model: PVDMModel,
    corpus: Corpus,
    n_chunks: int,
    steps: int = 50,
    seed: int = 0,
    alpha: float = 0.025,
    min_alpha: float = 0.0001,
) -> dict[str, list[ChunkEmbedding]]:
    """Embed every chunk of every document, ordered by chunk index (see
    `embed_chunks`), so results do not depend on corpus composition."""
    chunks = [c for doc in corpus for c in chunk_document(doc, n_chunks)]
    out: dict[str, list[ChunkEmbedding]] = {doc.id: [] for doc in corpus}
    for emb in embed_chunks(model, chunks, steps, seed, alpha, min_alpha):
        out[emb.doc_id].append(emb)
    return out


def export_chunk_embeddings(embeddings: dict[str, list[ChunkEmbedding]], path) -> None:
    """TSV rows `doc_id <TAB> chunk_index <TAB> v1 ... v_dim`, 9 significant digits."""
    rows = []
    for doc_id in sorted(embeddings):
        for emb in embeddings[doc_id]:
            values = "\t".join(f"{v:.9g}" for v in emb.vector)
            rows.append(f"{doc_id}\t{emb.index}\t{values}\n")
    checkpoint.atomic_write(path, "".join(rows))


def load_chunk_embeddings(path) -> dict[str, list[ChunkEmbedding]]:
    out: dict[str, list[ChunkEmbedding]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            doc_id, index = parts[0], int(parts[1])
            vec = np.array([float(x) for x in parts[2:]], dtype=np.float32)
            out.setdefault(doc_id, []).append(ChunkEmbedding(doc_id, index, vec))
    for doc_id in out:
        out[doc_id].sort(key=lambda e: e.index)
    return out


def save_pvdm(model: PVDMModel, path) -> None:
    """Checkpoint (see `checkpoint`); load(save(m)) is bit-exact."""
    vocab = model.vocab
    header = {
        "dim": model.dim, "window": model.window, "negative": model.negative,
        "words": vocab.words, "min_count": vocab.min_count,
        "noise_exponent": vocab.noise_exponent, "total_tokens": vocab.total_tokens,
        "chunk_doc_ids": [doc_id for doc_id, _ in model.chunk_keys],
    }
    arrays = {
        "counts": vocab.counts,
        "chunk_indices": np.array([index for _, index in model.chunk_keys], dtype=np.int64),
        "W_in": model.W_in, "W_out": model.W_out, "P": model.P,
    }
    checkpoint.save(path, "pvdm", header, arrays)


def load_pvdm(path) -> PVDMModel:
    h, a = checkpoint.load(path, "pvdm")
    vocab = Vocabulary(h["words"], a["counts"], h["min_count"], h["noise_exponent"],
                       h["total_tokens"])
    chunk_keys = list(zip(h["chunk_doc_ids"], a["chunk_indices"].tolist()))
    return PVDMModel(vocab, h["window"], h["negative"], chunk_keys, a["W_in"], a["W_out"], a["P"])
