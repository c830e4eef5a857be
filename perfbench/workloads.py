"""Benchmark workloads: a synthetic corpus shape plus the chunkdoc config.

Every workload runs the same user session through the CLI, in rounds of
prepare, train, evaluate and predict; its shape decides which layer does most
of the work.
WORKLOADS.md in this directory gives the reasons and the measured shares.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict                # SyntheticSpec fields of the training corpus
    heldout_per_class: int      # held-out documents per label, the `predict` inputs
    config: dict                # chunkdoc config sections; paths and seeds are added per run
    setup_includes_train: bool  # setup_s is prepare + train, not prepare alone
    evaluates_per_round: int    # `evaluate --split test` calls in each round, after train
    predicts_per_round: int     # predict calls in each round, after the evaluates
    min_predicts: int           # timed predict calls a run makes at least
    trace_predicts: int         # held-out documents the traced run predicts and replays

    def labels(self) -> list[str]:
        return [f"class{k}" for k in range(self.corpus["n_classes"])]

    def run_config(self, corpus_root: str, output_dir: str, seed: int) -> dict:
        """The JSON config a user would write for this workload and seed."""
        config = copy.deepcopy(self.config)
        config["corpus"] = {"root": corpus_root, "labels": self.labels()}
        config["split"] = {"seed": seed}
        config["aggregator"]["seed"] = seed
        config["classifier"] = "both"
        config["output_dir"] = output_dir
        config["run_name"] = "bench"
        return config


WORKLOADS = {
    # The paper's regime: long documents, few chunks. PV-DM training and
    # batched inference (`embed_corpus`) do nearly all of `train`.
    "long_docs": Workload(
        name="long_docs",
        corpus=dict(n_classes=5, docs_per_class=12, doc_length=2000,
                    filler_vocab_size=500, class_vocab_size=20,
                    mode="global", signal_rate=0.5),
        heldout_per_class=2,
        config={
            "chunking": {"n_chunks": 3},
            "embedder": {"dim": 64, "window": 5, "epochs": 3, "negative": 5,
                         "min_count": 5, "infer_steps": 6, "per_class": 1},
            "aggregator": {"hidden_size": 48, "learning_rate": 0.003, "batch_size": 8,
                           "epochs": 30, "patience": 10},
            "svm": {"C": 1.0},
        },
        setup_includes_train=False,
        evaluates_per_round=6,
        predicts_per_round=4,
        min_predicts=1,
        trace_predicts=2,
    ),
    # Many `chunkdoc predict <file>` calls per round: checkpoint loads plus
    # single-document inference (batch size 1) on every chunk. Training is
    # this user's set-up, so setup_s counts it.
    "predict": Workload(
        name="predict",
        corpus=dict(n_classes=5, docs_per_class=16, doc_length=600,
                    filler_vocab_size=500, class_vocab_size=20,
                    mode="global", signal_rate=0.5),
        heldout_per_class=20,
        config={
            "chunking": {"n_chunks": 3},
            "embedder": {"dim": 64, "window": 5, "epochs": 6, "negative": 5,
                         "min_count": 3, "infer_steps": 5, "per_class": 1},
            "aggregator": {"hidden_size": 48, "learning_rate": 0.003, "batch_size": 8,
                           "epochs": 30, "patience": 30},
            "svm": {"C": 10.0},
        },
        setup_includes_train=True,
        evaluates_per_round=2,
        predicts_per_round=20,
        min_predicts=100,
        trace_predicts=10,
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs in seconds, for the self-test."""
    config = copy.deepcopy(workload.config)
    config["embedder"].update(dim=8, epochs=2, infer_steps=2, min_count=1, per_class=1)
    config["aggregator"].update(hidden_size=4, epochs=3, patience=3)
    corpus = dict(workload.corpus, docs_per_class=6, doc_length=150,
                  filler_vocab_size=30, class_vocab_size=8, signal_rate=0.4)
    return replace(workload, corpus=corpus, config=config, heldout_per_class=1,
                   min_predicts=min(workload.min_predicts, 3),
                   trace_predicts=min(workload.trace_predicts, 3))
