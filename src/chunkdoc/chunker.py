"""Split a document's token stream into n contiguous, near-equal chunks."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, Document
from .errors import DataError


@dataclass(frozen=True)
class Chunk:
    """A contiguous token span; `index` is 1-based position within the document."""

    doc_id: str
    index: int
    tokens: tuple[str, ...]

    @property
    def key(self) -> tuple[str, int]:
        return (self.doc_id, self.index)


@dataclass(frozen=True)
class ChunkingConfig:
    n_chunks: int = 3

    def __post_init__(self):
        if self.n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {self.n_chunks}")


def split_into_chunks(tokens, n: int, doc_id: str = "") -> list[Chunk]:
    """Partition `tokens` into min(n, len(tokens)) contiguous chunks.

    The remainder goes to the earliest chunks, so chunk lengths differ by at
    most one and the concatenation reproduces the input exactly. Documents
    shorter than n degrade to one chunk per token.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    length = len(tokens)
    if length == 0:
        raise DataError(f"cannot chunk empty token sequence (doc {doc_id!r})")
    m = min(n, length)
    base, rem = divmod(length, m)
    chunks = []
    start = 0
    for i in range(m):
        size = base + (1 if i < rem else 0)
        chunks.append(Chunk(doc_id=doc_id, index=i + 1, tokens=tuple(tokens[start : start + size])))
        start += size
    return chunks


def chunk_document(doc: Document, n: int) -> list[Chunk]:
    return split_into_chunks(doc.tokens, n, doc_id=doc.id)


def mean_words_per_chunk(corpus: Corpus, n: int) -> float:
    """Total tokens divided by total chunks across the corpus (the W_c column)."""
    if len(corpus) == 0:
        raise DataError("empty corpus")
    total_tokens = sum(len(d.tokens) for d in corpus)
    total_chunks = sum(min(n, len(d.tokens)) for d in corpus)
    return total_tokens / total_chunks
