"""Deterministic synthetic corpora for desk-scale experiments.

Two signal modes:
  * global    - every token is drawn from a class-specific mixture, so the
                class is identifiable from unigram statistics anywhere;
  * localized - class-specific tokens fill one contiguous random span
                (a fixed fraction of the document), filler tokens elsewhere.
Class vocabularies are disjoint across classes by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document, LabelSet


@dataclass
class SyntheticSpec:
    n_classes: int = 5
    docs_per_class: int = 200
    doc_length: int = 2000
    filler_vocab_size: int = 500
    class_vocab_size: int = 50
    mode: str = "global"  # "global" | "localized"
    signal_rate: float = 0.2  # global mode: probability a token is a class word
    span_fraction: float = 0.1  # localized mode: fraction of tokens in the signal span
    filler_concentration: float | None = None  # if set, each document draws its
    #   filler from its own Dirichlet(conc) unigram distribution, mimicking
    #   document-specific vocabulary (names, amounts, dates) that carries no
    #   class information; None means uniform shared filler
    label_prefix: str = "class"

    def __post_init__(self):
        if self.mode not in ("global", "localized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.filler_concentration is not None and self.filler_concentration <= 0:
            raise ValueError("filler_concentration must be positive")


def generate_synthetic_corpus(spec: SyntheticSpec, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    labels = [f"{spec.label_prefix}{k}" for k in range(spec.n_classes)]
    filler = np.array([f"f{j:04d}" for j in range(spec.filler_vocab_size)], dtype=object)
    class_words = [np.array([f"c{k}w{j:03d}" for j in range(spec.class_vocab_size)], dtype=object)
                   for k in range(spec.n_classes)]
    L = spec.doc_length
    documents = []
    for k, label in enumerate(labels):
        for d in range(spec.docs_per_class):
            if spec.filler_concentration is None:
                filler_ids = rng.integers(0, spec.filler_vocab_size, L)
            else:
                weights = rng.dirichlet(
                    np.full(spec.filler_vocab_size, spec.filler_concentration)
                )
                filler_ids = rng.choice(spec.filler_vocab_size, size=L, p=weights)
            tokens = filler[filler_ids]
            if spec.mode == "global":
                is_signal = rng.random(L) < spec.signal_rate
                signal_ids = rng.integers(0, spec.class_vocab_size, L)
                tokens[is_signal] = class_words[k][signal_ids[is_signal]]
            else:
                span = int(np.ceil(spec.span_fraction * L))
                start = int(rng.integers(0, L - span + 1))
                tokens[start:start + span] = class_words[k][rng.integers(0, spec.class_vocab_size, span)]
            text = " ".join(tokens)
            documents.append(Document(id=f"{label}/doc{d:04d}", label=label, raw_text=text, text=text))
    return Corpus(documents=documents, label_set=LabelSet(labels))
