"""Paragraph-vector chunk embeddings (PV-DM with negative sampling).

A small sample of documents trains the model; every chunk of every document
is then embedded by gradient steps on a fresh paragraph vector with the word
matrices frozen. Training is lockstep SGD: every sample chunk takes its step
at position i together, the batched form of the shared-parameter SGD of Le &
Mikolov (2014) with negative sampling, each chunk on its own learning-rate
schedule. Inference is vectorized across chunks the same way, which is exact
because chunks share no trainable state at inference time.
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

# Memory budget for one inference batch, in B * (Lmax + 1) * dim f64 entries:
# the size of the one table a batch builds, the window prefix sums that become
# the context sums in place (32 MB at 4M entries).
_INFER_BUDGET_ELEMS = 4_000_000
# Memory budget for one lockstep training group, in B * Lmax * (negative + 1)
# entries: the size of each per-epoch table of the group (target ids, gates,
# sigmoid outputs; the noise ids one column fewer), about 25 bytes an entry
# over all of them, so about 50 MB at 2M entries.
_TRAIN_BUDGET_ELEMS = 2_000_000


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


def _pad(encoded_seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sequence's length, the ids padded with 0 to the longest, and the
    (sequences, longest) mask of real, not padded, positions."""
    lengths = np.array([len(e) for e in encoded_seqs], dtype=np.int64)
    ids_pad = np.zeros((len(encoded_seqs), int(lengths.max())), dtype=np.int64)
    for b, e in enumerate(encoded_seqs):
        ids_pad[b, : len(e)] = e
    return lengths, ids_pad, np.arange(ids_pad.shape[1]) < lengths[:, None]


def _targets_and_gate(ids_pad: np.ndarray, negs: np.ndarray, alphas: np.ndarray,
                      active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each position's targets, its center word then its noise words, and each
    target's learning rate: the position's alpha, zero at padded positions and
    for a noise draw equal to the center (rare)."""
    tgt = np.concatenate((ids_pad[:, :, None], negs), axis=2)
    gate = np.repeat((alphas * active)[:, :, None], negs.shape[2] + 1, axis=2)
    gate[:, :, 1:][negs == ids_pad[:, :, None]] = 0.0
    return tgt, gate


def _scatter_add(W: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """W[rows[j]] += values[j] for every j, duplicates summed in order; `np.add.at`
    on the flat view, several times faster than on the 2-D rows."""
    dim = W.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).ravel()
    np.add.at(W.reshape(-1), flat, values.ravel())


def _length_groups(lengths: np.ndarray, max_cells: int) -> list[np.ndarray]:
    """Partition sequence indices into groups, shortest sequences first, each
    group's size times its longest length at most `max_cells` (a sequence
    longer than that gets a group of its own). Indices within a group keep
    their input order. Grouping by length bounds both the padded arrays and
    the padded positions a lockstep loop runs."""
    order = np.argsort(lengths, kind="stable")
    groups, start = [], 0
    for end in range(1, len(order) + 1):
        if end == len(order) or (end - start + 1) * lengths[order[end]] > max_cells:
            groups.append(np.sort(order[start:end]))
            start = end
    return groups


def _train_group(model: PVDMModel, rows: np.ndarray, ids_pad: np.ndarray, active: np.ndarray,
                 negs: np.ndarray, alphas: np.ndarray) -> float:
    """One lockstep epoch over the chunks `rows` (rows of `P`, their padded ids
    and mask): at position i every chunk takes its SGD step together. Mutates
    the model matrices; returns the summed loss over real positions."""
    W_in, W_out = model.W_in, model.W_out
    P = model.P[rows]
    (B, Lmax), dim, window = ids_pad.shape, model.dim, model.window
    positions = np.arange(Lmax)
    labels = np.zeros(negs.shape[2] + 1, dtype=np.float32)
    labels[0] = 1.0
    tgt, gate = _targets_and_gate(ids_pad, negs, alphas, active)
    fouts = np.empty(tgt.shape, dtype=np.float32)
    for i in range(Lmax):
        lo, hi = max(0, i - window), min(Lmax, i + window + 1)
        ctx_ok = active[:, lo:hi] & (positions[lo:hi] != i)
        n_ctx = ctx_ok.sum(axis=1)
        ctx = ids_pad[:, lo:hi][ctx_ok]
        neighbours = np.zeros((B, hi - lo, dim), dtype=np.float32)
        neighbours[ctx_ok] = W_in[ctx]
        l1 = (neighbours.sum(axis=1) + P) / (n_ctx + 1).astype(np.float32)[:, None]
        t = tgt[:, i]
        Wt = W_out[t]
        fout = 1.0 / (1.0 + np.exp(-(Wt * l1[:, None, :]).sum(axis=2)))
        fouts[:, i] = fout
        g = (labels - fout) * gate[:, i]
        _scatter_add(W_out, t.ravel(), (g[:, :, None] * l1[:, None, :]).reshape(-1, dim))
        neu1e = (g[:, :, None] * Wt).sum(axis=1)
        _scatter_add(W_in, ctx, np.repeat(neu1e, n_ctx, axis=0))
        P += neu1e
    model.P[rows] = P
    probs = np.clip(fouts[active].astype(np.float64), 1e-10, 1.0 - 1e-10)
    return -np.log(probs[:, 0]).sum() - np.log1p(-probs[:, 1:]).sum()


def train_pvdm(
    chunks: list[Chunk], vocab: Vocabulary, config: EmbedderConfig, seed: int
) -> PVDMModel:
    """Train PV-DM with negative sampling by lockstep SGD.

    The context for each position is the mean of the window word input
    vectors and the chunk's paragraph vector. Chunks are grouped by length
    (`_length_groups` under `_TRAIN_BUDGET_ELEMS`; one group when they fit);
    each epoch runs the groups in turn, and within a group all chunks,
    padded to the longest, take their SGD step at position i together.
    Positions within a chunk stay sequential. The word-matrix updates of one
    step are summed with `np.add.at`, so chunks sharing a word all land, in a
    fixed order. The speed-up over one chunk at a time needs chunks of
    similar length: a padded position costs as much as a real one.
    Each chunk's learning rate decays linearly from `alpha` to `min_alpha`
    over its own epochs * L updates: `alpha - span * (epoch * L + i) /
    (epochs * L)` at position i of a chunk of L in-vocabulary tokens.
    Padded positions neither update nor count toward the epoch loss, the
    mean over real positions. The run is bit-reproducible for a given seed.
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
    k = config.negative
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    groups = _length_groups(lengths, _TRAIN_BUDGET_ELEMS // (k + 1))
    span = config.alpha - config.min_alpha
    for epoch in range(config.epochs):
        loss = 0.0
        for rows in groups:
            group_lengths, ids_pad, active = _pad([encoded[b] for b in rows])
            negs = vocab.sample_noise(rng, (*ids_pad.shape, k))
            progress = ((epoch * group_lengths[:, None] + np.arange(ids_pad.shape[1]))
                        / (config.epochs * group_lengths[:, None]))
            alphas = (config.alpha - span * progress).astype(np.float32)
            loss += _train_group(model, rows, ids_pad, active, negs, alphas)
        model.epoch_losses.append(float(loss / lengths.sum()))
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
    batch was grouped. With the word matrices frozen, each position's
    context-word sum is fixed: it is computed once per batch, and targets
    and gates once per step, so the position loop touches only `P`.
    """
    B = len(encoded_seqs)
    dim, window, k = model.dim, model.window, model.negative
    lengths, ids_pad, active = _pad(encoded_seqs)
    if (lengths == 0).any():
        raise OOVChunkError("chunk has no in-vocabulary tokens")
    rngs = [np.random.default_rng(s) for s in seeds]
    bound = 0.5 / dim
    P = np.stack([rng.uniform(-bound, bound, dim) for rng in rngs])
    if steps <= 0:
        return P.astype(np.float32)

    Lmax = ids_pad.shape[1]
    W_in = model.W_in.astype(np.float64)
    W_out = model.W_out.astype(np.float64)

    positions = np.arange(Lmax)
    lo = np.maximum(0, positions - window)
    hi = np.minimum(lengths[:, None], positions[None, :] + window + 1)
    hi = np.maximum(hi, lo[None, :])
    inv_denom = 1.0 / np.maximum(1, hi - lo[None, :] - 1 + 1)  # ctx words + paragraph
    # Context-word sums csum[hi] - csum[lo] - center from each chunk's cumulative
    # sums, written over that chunk's rows of the same table, so a batch holds
    # one (B, Lmax + 1, dim) table; padded positions never update P.
    csum = np.zeros((B, Lmax + 1, dim), dtype=np.float64)
    for b in range(B):
        words, c = W_in[ids_pad[b]], csum[b]
        np.cumsum(words, axis=0, out=c[1:])
        c[:Lmax] = c[hi[b]] - c[lo] - words
    ctx_sum = csum[:, :Lmax]

    labels = np.zeros(k + 1, dtype=np.float64)
    labels[0] = 1.0
    span = alpha - min_alpha
    per_seq_total = (steps * lengths).astype(np.float64)
    for step in range(steps):
        negs = np.zeros((B, Lmax, k), dtype=np.int64)
        for b in range(B):
            negs[b, : lengths[b]] = model.vocab.sample_noise(rngs[b], (int(lengths[b]), k))
        alphas = alpha - span * ((step * lengths[:, None] + positions[None, :]) / per_seq_total[:, None])
        tgt, gate = _targets_and_gate(ids_pad, negs, alphas, active)
        for i in range(Lmax):
            l1 = (ctx_sum[:, i] + P) * inv_denom[:, i, None]
            Wt = W_out[tgt[:, i]]
            scores = (Wt * l1[:, None, :]).sum(axis=2)
            fout = 1.0 / (1.0 + np.exp(-scores))
            g = (labels[None, :] - fout) * gate[:, i]
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
    warning. The rest are inferred in batches of similar length; each chunk
    draws from its own seeded stream keyed on (seed, doc_id, index), so its
    vector does not depend on the other chunks or on how they were batched.
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

    lengths = np.array([len(ids) for _, ids in pending], dtype=np.int64)
    for group in _length_groups(lengths + 1, _INFER_BUDGET_ELEMS // model.dim):
        batch = [pending[j] for j in group]
        keys = [chunks[pos].key for pos, _ in batch]
        seeds = [_chunk_seed(seed, doc_id, index) for doc_id, index in keys]
        vectors = _infer_batch(model, [ids for _, ids in batch], steps, seeds, alpha, min_alpha)
        for (pos, _), (doc_id, index), vec in zip(batch, keys, vectors):
            out[pos] = ChunkEmbedding(doc_id, index, vec)
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


def load_chunk_embeddings(path, doc_ids=None) -> dict[str, list[ChunkEmbedding]]:
    """Chunk vectors by document, ordered by chunk index. With `doc_ids`, rows
    of other documents are skipped unparsed."""
    wanted = None if doc_ids is None else set(doc_ids)
    out: dict[str, list[ChunkEmbedding]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            doc_id, _, rest = line.rstrip("\n").partition("\t")
            if wanted is not None and doc_id not in wanted:
                continue
            parts = rest.split("\t")
            index = int(parts[0])
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float32)
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
