"""Paragraph-vector chunk embeddings (PV-DM with negative sampling).

A small sample of documents trains the model; every chunk of every document
is then embedded by fitting a fresh paragraph vector with the word matrices
frozen. Training is lockstep SGD: every sample chunk takes its step at
position i together, the batched form of the shared-parameter SGD of Le &
Mikolov (2014) with negative sampling, each chunk on its own learning-rate
schedule. Inference minimizes the same negative-sampling loss over the
paragraph vector alone, plus a small ridge term. With the word matrices
frozen that loss is convex in the vector, so a few Newton steps solve it to
float64 precision. Chunks share no trainable state at inference time: each
chunk is solved on its own, from a random stream keyed on its in-vocabulary
ids, so its vector is a function of the model, those ids and the step count
alone: not of the other chunks, its document's name, its position or a run
seed. A solve reads only the word rows its chunk uses, so its cost and memory
follow the chunk, not the vocabulary.

`EmbedderConfig.alpha`, `min_alpha` and `noise_exponent` are constants. The
step count is a setting of the model: `train_pvdm` copies it from the config,
and `save_pvdm` writes it to the checkpoint with what inference reads (the
vocabulary and its noise distribution, the word matrices, the window and the
noise count), so a config edited after training changes no vector. The
training chunks' paragraph rows `P` are training state and are not saved.
"""

from __future__ import annotations

import itertools
import logging
import zlib
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import checkpoint
from .chunker import Chunk, chunk_document
from .corpus import Corpus, Document, DatasetSplit
from .errors import DataError, OOVChunkError, TrainingError

logger = logging.getLogger(__name__)

# Memory budget for one lockstep training group, in B * Lmax * (negative + 1)
# entries: the size of each per-epoch table of the group (target ids, gates,
# sigmoid outputs; the noise ids one column fewer), about 25 bytes an entry
# over all of them, so about 50 MB at 2M entries.
_TRAIN_BUDGET_ELEMS = 2_000_000
# Inference: the ridge weight of the objective, and the cap on Newton steps.
# Over 8-10 benchmark seeds per workload, ridge 0.1 kept every F1 at 1.0,
# while 1 lowered the predict workload's linear F1 to 0.893 on 2 of 8 seeds.
# After five steps, long_docs chunks (667 tokens, gradient norm about 27 at
# the start) and the test corpora's chunks of 1 to 700 tokens have vectors
# that more steps leave bit-identical; after four, some last bits differ.
_RIDGE = 0.1
_NEWTON_STEPS = 5


@dataclass
class EmbedderConfig:
    dim: int = 100
    window: int = 5
    epochs: int = 40
    negative: int = 5
    min_count: int = 5
    infer_steps: int = _NEWTON_STEPS  # Newton steps per chunk at inference, capped there
    per_class: int = 30  # training-split documents per label sampled to train PV-DM
    alpha: ClassVar[float] = 0.025  # Doc2Vec's usual values, not configurable
    min_alpha: ClassVar[float] = 0.0001
    noise_exponent: ClassVar[float] = 0.75


class Vocabulary:
    """Word inventory plus the unigram noise distribution for negative draws.

    `words[i]` has index i and count `counts[i]`. Noise word i has probability
    proportional to `counts[i] ** noise_exponent`; a draw maps a uniform u in
    [0, 1) to `searchsorted(noise_cdf, u)`, the first i with u <= noise_cdf[i].

    The mapping goes through a guide table (Chen & Asau, 1974): [0, 1) is cut
    into 2^b equal buckets, 2^b >= 8 * V, and `noise_guide[j]` holds the
    `searchsorted` answer shared by every u of bucket j, or -1 where a CDF
    value falls inside the bucket and the answer varies. With a power-of-two
    bucket count, u * 2^b and the edges j / 2^b are exact in float64, so
    bucket j holds exactly the u with j <= u * 2^b < j + 1, and the table
    answer equals `searchsorted`'s for every u.
    """

    def __init__(self, words: list[str], counts, noise_exponent: float):
        self.words = list(words)
        self.counts = np.array(counts, dtype=np.int64)
        self.index: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        self.noise_exponent = float(noise_exponent)
        with np.errstate(over="ignore"):  # an overflow is reported below
            weights = self.counts.astype(np.float64) ** self.noise_exponent
        total = weights.sum()
        if not (np.isfinite(total) and total > 0):
            raise DataError(f"noise_exponent={self.noise_exponent} makes the noise weights "
                            f"sum to {total}; the noise distribution is undefined")
        self.noise_probs = weights / total
        self.noise_cdf = np.cumsum(self.noise_probs)
        self.noise_cdf[-1] = 1.0
        # Edge j / 2^b has answer #{i : noise_cdf[i] < j / 2^b}, and
        # noise_cdf[i] < j / 2^b exactly when j > floor(noise_cdf[i] * 2^b).
        n_buckets = 1 << (8 * len(self.words) - 1).bit_length()
        first_above = (self.noise_cdf * n_buckets).astype(np.int64) + 1
        edges = np.cumsum(np.bincount(first_above, minlength=n_buckets + 1)[: n_buckets + 1])
        self.noise_guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word) -> bool:
        return word in self.index

    def encode(self, tokens) -> np.ndarray:
        """In-vocabulary token ids in document order, as int64; OOV tokens are dropped."""
        ids = np.fromiter(map(self.index.get, tokens, itertools.repeat(-1)), np.int64, len(tokens))
        return ids[ids >= 0]

    def noise_ids(self, u: np.ndarray) -> np.ndarray:
        """`searchsorted(noise_cdf, u)` for u in [0, 1), as int64, by the guide
        table: one lookup per u, and a `searchsorted` only for the u whose
        bucket holds a CDF value, at most V of the 2^b >= 8 * V buckets."""
        ids = self.noise_guide[(u * len(self.noise_guide)).astype(np.int64)]
        varies = ids < 0
        ids[varies] = np.searchsorted(self.noise_cdf, u[varies])
        return ids

    def sample_noise(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Noise ids of `shape` from `rng.random(shape)`: the same ids, and the
        same generator state after, as `searchsorted` on those draws."""
        return self.noise_ids(rng.random(shape))


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
    return Vocabulary([w for w, _ in kept], [c for _, c in kept], noise_exponent)


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
    """The inference model: vocabulary, input/output word matrices (V, dim),
    window, noise count and Newton step count. `P`, one paragraph vector per
    training chunk in `train_pvdm`'s input order, is training state: set on
    the model `train_pvdm` returns, None on a loaded one."""

    def __init__(self, vocab: Vocabulary, window: int, negative: int, infer_steps: int,
                 W_in: np.ndarray, W_out: np.ndarray, P: np.ndarray | None = None):
        self.vocab = vocab
        self.window = int(window)
        self.negative = int(negative)
        self.infer_steps = int(infer_steps)
        self.W_in, self.W_out, self.P = W_in, W_out, P
        self.dim = W_in.shape[1]
        self.epoch_losses: list[float] = []

    def check_finite(self) -> None:
        for name, arr in (("W_in", self.W_in), ("W_out", self.W_out), ("P", self.P)):
            if arr is not None and not np.isfinite(arr).all():
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


@np.errstate(over="ignore")  # float32 exp(-s) overflows to inf below s = -88.7: sigmoid 0
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
        # Not matmul as in _infer_chunk: in float32 it changes the trained bits.
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
    model = PVDMModel(vocab, config.window, config.negative, config.infer_steps, W_in, W_out, P)
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


@np.errstate(over="ignore")  # exp(-s) overflows to inf: sigmoid 0, exactly
def _infer_chunk(model: PVDMModel, ids: np.ndarray, steps: int) -> np.ndarray:
    """A chunk's paragraph vector by a Newton solve of the frozen PV-DM objective.

    The vector P minimizes the chunk's negative-sampling loss with the word
    matrices frozen, plus `_RIDGE / 2 * |P|^2`. The loss sums, over the
    positions i and their targets t (the center word, label 1, then k noise
    words, label 0; a noise word equal to the center is skipped), the log
    loss of `sigmoid(W_out[t] . (ctx_i + P) / n_i)`, where `ctx_i` sums the
    position's context words and `n_i` counts them plus one for the
    paragraph; it is convex in P. The chunk draws its start, uniform in
    +-0.5/dim, then one (L, k) noise set from the stream seeded with the
    crc32 of its ids as little-endian int64 bytes, and takes
    `min(steps, _NEWTON_STEPS)` Newton steps: 0 steps return the start, and
    any count from the cap up returns the converged vector. The same ids
    thus give the same vector, wherever they come from.

    Only the rows the chunk reads are converted to float64: `W_in` at its
    tokens and `W_out` at its distinct targets u. A target's score is the
    fixed `W_out[t] . ctx_i / n_i` plus `W_out[t] . P / n_i`, so the
    gradient and Hessian sum over u: `sum_u c_u W_out[u] + _RIDGE P` and
    `sum_u h_u W_out[u] W_out[u]^T + _RIDGE I`, with `c_u` and `h_u` the
    bincounts of `(sigmoid - label) / n_i` and
    `sigmoid * (1 - sigmoid) / n_i^2` over the targets equal to u. The
    Hessian only scales the step: the solve converges to where the float64
    gradient vanishes, so the Hessian is built in float32, at half the
    cost, and no converged bit changes.
    """
    rng = np.random.default_rng(zlib.crc32(ids.astype("<i8").tobytes()))
    dim, window = model.dim, model.window
    P = rng.uniform(-0.5 / dim, 0.5 / dim, dim)
    n_steps = min(steps, _NEWTON_STEPS)
    if n_steps <= 0:
        return P.astype(np.float32)

    L = len(ids)
    tgt = np.concatenate((ids[:, None], model.vocab.sample_noise(rng, (L, model.negative))),
                         axis=1)
    # The distinct targets take bins 1.. in word order, found without a
    # sort; bin 0 collects the skipped noise words.
    seen = np.zeros(len(model.vocab), dtype=bool)
    seen[tgt] = True
    unique = np.flatnonzero(seen)
    bin_of = np.zeros(len(model.vocab), dtype=np.int64)
    bin_of[unique] = np.arange(1, len(unique) + 1)
    bins = bin_of[tgt]
    rows32 = model.W_out[unique]
    rows = rows32.astype(np.float64)
    words = model.W_in[ids].astype(np.float64)
    ctx = np.zeros((L, dim))
    for o in range(1, min(window, L - 1) + 1):  # offsets of L and beyond add nothing
        ctx[o:] += words[:-o]
        ctx[:-o] += words[o:]
    i = np.arange(L)
    inv_n = 1.0 / (np.minimum(L, i + window + 1) - np.maximum(0, i - window))[:, None]
    # Every target's own row, read before the skipped noise words leave their bins.
    fixed = np.matmul(rows[bins - 1], ctx[:, :, None])[:, :, 0]
    fixed *= inv_n
    bins[:, 1:][tgt[:, 1:] == ids[:, None]] = 0
    flat = bins.ravel()
    inv_n2 = inv_n * inv_n
    label_n = np.zeros(tgt.shape)  # label / n_i: the center word's label is 1
    label_n[:, 0] = inv_n[:, 0]
    proj = np.zeros(len(unique) + 1)
    hess = np.empty((dim, dim))
    diag = hess.reshape(-1)[::dim + 1]  # a view: the ridge lands in hess
    for _ in range(n_steps):
        np.matmul(rows, P, out=proj[1:])
        sig = 1.0 / (1.0 + np.exp(-(proj[bins] * inv_n + fixed)))
        c = np.bincount(flat, (sig * inv_n - label_n).ravel())
        h = np.bincount(flat, (sig * (1.0 - sig) * inv_n2).ravel())
        G = rows32 * np.sqrt(h[1:]).astype(np.float32)[:, None]
        np.matmul(G.T, G, out=hess)  # G.T @ G runs as one syrk
        diag += _RIDGE
        P -= np.linalg.solve(hess, c[1:] @ rows + _RIDGE * P)
    return P.astype(np.float32)


def infer_vector(model: PVDMModel, tokens, steps: int, seed=None, alpha: float = 0.025,
                 min_alpha: float = 0.0001) -> np.ndarray:
    """Embed one token sequence by the Newton solve of `_infer_chunk`, keyed
    on its in-vocabulary ids: a function of (model, tokens, steps) alone.
    `seed`, `alpha` and `min_alpha` are not read; perfbench/replay.py still passes them."""
    ids = model.vocab.encode(tokens)
    if ids.size == 0:
        raise OOVChunkError("no in-vocabulary tokens to infer from")
    return _infer_chunk(model, ids, steps)


@dataclass(frozen=True)
class ChunkEmbedding:
    doc_id: str
    index: int
    vector: np.ndarray  # (dim,) float32


def embed_chunks(model: PVDMModel, chunks: Iterable[Chunk], steps: int) -> list[ChunkEmbedding]:
    """Embed `chunks`, read once, returning one embedding per chunk in input order.

    Chunks with no in-vocabulary tokens get the zero vector and a logged
    warning. The rest are solved one at a time (`_infer_chunk`), each from
    a stream keyed on its in-vocabulary ids, so a chunk's vector is
    `infer_vector` of its tokens: it depends on neither the other chunks,
    their order, nor the chunk's doc_id or index.
    """
    out, oov = [], 0
    for chunk in chunks:
        ids = model.vocab.encode(chunk.tokens)
        if ids.size:
            vector = _infer_chunk(model, ids, steps)
        else:
            logger.warning("chunk (%s, %d) is fully out-of-vocabulary; using zero vector",
                           chunk.doc_id, chunk.index)
            vector = np.zeros(model.dim, dtype=np.float32)
            oov += 1
        out.append(ChunkEmbedding(chunk.doc_id, chunk.index, vector))
    if oov:
        logger.warning("%d chunks had no in-vocabulary tokens", oov)
    return out


def embed_corpus(
    model: PVDMModel,
    corpus: Corpus,
    n_chunks: int,
    steps: int = _NEWTON_STEPS,
    seed: int = 0,
    alpha: float = 0.025,
    min_alpha: float = 0.0001,
) -> dict[str, list[ChunkEmbedding]]:
    """Embed every chunk of every document by the Newton solve, ordered by
    chunk index (see `embed_chunks`), so results do not depend on corpus
    composition. Documents are chunked as the solve reaches them, so one
    document's tokens are alive at a time.
    `seed`, `alpha` and `min_alpha` are not read; perfbench/replay.py still passes them."""
    chunks = (c for doc in corpus for c in chunk_document(doc, n_chunks))
    out: dict[str, list[ChunkEmbedding]] = {doc.id: [] for doc in corpus}
    for emb in embed_chunks(model, chunks, steps):
        out[emb.doc_id].append(emb)
    return out


def export_chunk_embeddings(embeddings: dict[str, list[ChunkEmbedding]], path) -> None:
    """TSV rows `doc_id <TAB> chunk_index <TAB> v1 ... v_dim`, 9 significant digits."""
    rows = []
    for doc_id in sorted(embeddings):
        for emb in embeddings[doc_id]:
            values = "\t".join(f"{v:.9g}" for v in emb.vector.tolist())
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
    """Checkpoint (see `checkpoint`) of what inference reads, `P` left out;
    save(load(save(m))) writes the same bytes."""
    vocab = model.vocab
    header = {"window": model.window, "negative": model.negative,
              "infer_steps": model.infer_steps, "words": vocab.words,
              "noise_exponent": vocab.noise_exponent}
    arrays = {"counts": vocab.counts, "W_in": model.W_in, "W_out": model.W_out}
    checkpoint.save(path, "pvdm", header, arrays)


def load_pvdm(path) -> PVDMModel:
    """The inference model `save_pvdm` wrote, with `P` None. A file without one
    of its fields (one written before `infer_steps` was saved, say) raises
    KeyError; a NaN or infinite value in `W_in` or `W_out` raises ValueError."""
    h, a = checkpoint.load(path, "pvdm")
    for name in ("W_in", "W_out"):
        if not np.isfinite(a[name]).all():
            raise ValueError(f"{name} holds non-finite values")
    vocab = Vocabulary(h["words"], a["counts"], h["noise_exponent"])
    return PVDMModel(vocab, h["window"], h["negative"], h["infer_steps"], a["W_in"], a["W_out"])
