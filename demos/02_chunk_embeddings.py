"""Paragraph-vector chunk embeddings on a two-topic toy corpus.

Trains the PV-DM model on forty chunks drawn from two disjoint vocabularies,
then shows that (a) training loss decreases, (b) paragraph vectors cluster by
topic, and (c) inference places unseen text near the right topic.

Run: python demos/02_chunk_embeddings.py
"""

import numpy as np

from chunkdoc.chunker import Chunk
from chunkdoc.embedder import EmbedderConfig, build_vocab, infer_vector, train_pvdm

rng = np.random.default_rng(0)
chunks = []
for topic, theme in enumerate(("market", "nature")):
    words = [f"{theme}{j}" for j in range(25)]
    for d in range(20):
        tokens = tuple(words[i] for i in rng.integers(0, 25, 150))
        chunks.append(Chunk(f"{theme}/doc{d}", 1, tokens))

vocab = build_vocab(chunks, min_count=2)
print(f"{len(chunks)} chunks, vocabulary of {len(vocab)} words")

config = EmbedderConfig(dim=32, window=5, epochs=15, negative=5, min_count=2)
model = train_pvdm(chunks, vocab, config, seed=1)

print("\nper-epoch mean loss (should head downward):")
for i, loss in enumerate(model.epoch_losses, start=1):
    bar = "#" * int((loss - 2.0) * 40)
    print(f"  epoch {i:>2}: {loss:.4f} {bar}")

P = model.P.astype(np.float64)
normed = P / np.linalg.norm(P, axis=1, keepdims=True)
sims = normed @ normed.T
same = np.zeros((40, 40), dtype=bool)
same[:20, :20] = True
same[20:, 20:] = True
off = ~np.eye(40, dtype=bool)
print(f"\nmean cosine within a topic : {sims[same & off].mean():.3f}")
print(f"mean cosine across topics  : {sims[~same & off].mean():.3f}")

print("\ninferring vectors for fresh text (word matrices frozen):")
for theme in ("market", "nature"):
    probe = [f"{theme}{j}" for j in rng.integers(0, 25, 60)]
    vec = infer_vector(model, probe, steps=30)
    vec = vec / np.linalg.norm(vec)
    to_market = float(vec @ normed[:20].mean(axis=0))
    to_nature = float(vec @ normed[20:].mean(axis=0))
    print(f"  new {theme:>6} text -> cosine to market centroid {to_market:+.3f}, "
          f"to nature centroid {to_nature:+.3f}")
