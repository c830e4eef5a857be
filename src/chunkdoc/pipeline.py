"""End-to-end stage glue: sample -> train embedder -> embed -> train
aggregator -> (optional) SVM, plus the one labelling path: `label_documents`
gives every trained head's labels for pooled document vectors, and `evaluate`
scores a split from them.

Used by the CLI commands and the chunk-count sweep, so every entry point
runs the identical code path and a head answers the same on each.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .aggregator import AggregatorConfig, AggregatorModel, document_vectors, train_aggregator
from .chunker import chunk_document
from .corpus import Corpus, DatasetSplit, LabelSet
from .embedder import (ChunkEmbedding, EmbedderConfig, PVDMModel, build_vocab,
                       embed_corpus, sample_embedding_training_docs, train_pvdm)
from .evaluation import EvalReport, f1_report
from .svm import SVMConfig, SVMModel, train_multiclass_svm

logger = logging.getLogger(__name__)

# Each `classifier` setting and the heads it trains and scores.
HEADS = {"linear": ("linear",), "svm": ("svm",), "both": ("linear", "svm")}


@dataclass
class PipelineSettings:
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    svm: SVMConfig = field(default_factory=SVMConfig)

    @property
    def per_class(self) -> int:
        """Documents per label that train the embedder; set it on `embedder`."""
        return self.embedder.per_class


@dataclass
class TrainedPipeline:
    pvdm: PVDMModel
    embeddings: dict[str, list[ChunkEmbedding]]
    aggregator: AggregatorModel
    train_log: list[dict]
    doc_vectors: dict[str, np.ndarray]  # the pooled vectors both heads read
    svm: SVMModel | None


def train_pipeline(corpus: Corpus, split: DatasetSplit, settings: PipelineSettings,
                   n_chunks: int, classifier: str, seed: int) -> TrainedPipeline:
    """Run the full training stack at one chunk count.

    `classifier` is a key of HEADS (another is a KeyError, before any
    training); the attention aggregator is always trained (the SVM consumes
    its pooled document vectors).
    """
    heads = HEADS[classifier]
    sample = sample_embedding_training_docs(corpus, split, settings.embedder.per_class,
                                            seed=[seed, 0])
    train_chunks = [c for doc in sample for c in chunk_document(doc, n_chunks)]
    vocab = build_vocab(train_chunks, settings.embedder.min_count,
                        settings.embedder.noise_exponent)
    logger.info("embedder sample: %d documents, %d chunks, vocabulary %d",
                len(sample), len(train_chunks), len(vocab))
    pvdm = train_pvdm(train_chunks, vocab, settings.embedder, seed=[seed, 1])
    embeddings = embed_corpus(pvdm, corpus, n_chunks, steps=pvdm.infer_steps)
    aggregator, train_log = train_aggregator(
        corpus, split, embeddings, settings.aggregator, seed=seed, n_chunks=n_chunks
    )
    doc_vecs = document_vectors(aggregator, embeddings)
    svm_model = None
    if "svm" in heads:
        train_x = np.stack([doc_vecs[i] for i in split.train])
        train_y = [corpus.get(i).label for i in split.train]
        svm_model = train_multiclass_svm(train_x, train_y, list(corpus.label_set), settings.svm)
    return TrainedPipeline(
        pvdm=pvdm, embeddings=embeddings, aggregator=aggregator,
        train_log=train_log, doc_vectors=doc_vecs, svm=svm_model,
    )


def label_documents(aggregator: AggregatorModel, svm: SVMModel | None,
                    doc_vectors: np.ndarray) -> dict[str, list[str]]:
    """Each trained head's labels for the rows of `doc_vectors` (pooled document
    vectors): "linear", the argmax of `aggregator.classify`, and "svm" when
    `svm` is not None."""
    labels = {"linear": [aggregator.labels[i] for i in aggregator.classify(doc_vectors).argmax(1)]}
    if svm is not None:
        labels["svm"] = svm.predict(doc_vectors)
    return labels


def evaluate(aggregator: AggregatorModel, svm: SVMModel | None,
             doc_vectors: dict[str, np.ndarray], split: DatasetSplit,
             split_name: str) -> dict[str, EvalReport]:
    """Each trained head's F1 report on the pooled vectors of the `split_name`
    documents, scored against the labels `split` records."""
    doc_ids = getattr(split, split_name)
    gold = [split.labels[i] for i in doc_ids]
    heads = label_documents(aggregator, svm, np.stack([doc_vectors[i] for i in doc_ids]))
    return {head: f1_report(labels, gold, LabelSet(aggregator.labels), split=split_name)
            for head, labels in heads.items()}


def mean_chunk_vectors(embeddings: dict[str, list[ChunkEmbedding]]) -> dict[str, np.ndarray]:
    """Per-document mean of chunk vectors: the pre-aggregator baseline export."""
    return {
        doc_id: np.mean([e.vector for e in embs], axis=0)
        for doc_id, embs in embeddings.items()
    }
