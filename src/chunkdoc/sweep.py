"""Chunk-count sweep: train the pipeline across n values and report F1."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .checkpoint import atomic_write
from .chunker import mean_words_per_chunk
from .corpus import Corpus, DatasetSplit
from .errors import DataError, TrainingError
from .pipeline import PipelineSettings, evaluate, train_pipeline

logger = logging.getLogger(__name__)

DEFAULT_N_LIST = (1, 3, 5, 7, 10, 25, 50)
SWEEP_COLUMNS = ("n_chunks", "W_c", "classifier", "seed", "val_f1", "test_f1")


@dataclass
class SweepRow:
    n_chunks: int
    w_c: float
    classifier: str  # "linear" | "svm"
    seed: int
    val_f1: float
    test_f1: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_chunk_sweep(
    corpus: Corpus,
    split: DatasetSplit,
    n_list,
    classifiers,
    seeds,
    settings: PipelineSettings,
) -> list[SweepRow]:
    """One pipeline run per (n, seed); both heads are read off the same run.

    A cell that fails with DataError or TrainingError is recorded with NaN
    scores and an error string instead of aborting the sweep; any other
    exception is a bug and propagates. Rows come back sorted by
    (n, classifier, seed).
    """
    classifiers = list(classifiers)
    for kind in classifiers:
        if kind not in ("linear", "svm"):
            raise ValueError(f"unknown classifier kind {kind!r}")
    want_svm = "svm" in classifiers
    rows: list[SweepRow] = []
    for n in sorted(n_list):
        w_c = mean_words_per_chunk(corpus, n)
        for seed in seeds:
            try:
                pipe = train_pipeline(
                    corpus, split, settings, n_chunks=n,
                    classifier="both" if want_svm else "linear", seed=seed,
                )
                for kind in classifiers:
                    val = evaluate(pipe, split, "validation", kind)
                    test = evaluate(pipe, split, "test", kind)
                    rows.append(SweepRow(n, w_c, kind, seed, val.macro_f1, test.macro_f1))
            except (DataError, TrainingError) as exc:
                logger.error("sweep cell (n=%d, seed=%d) failed: %s", n, seed, exc)
                for kind in classifiers:
                    rows.append(SweepRow(n, w_c, kind, seed, math.nan, math.nan, error=str(exc)))
    rows.sort(key=lambda r: (r.n_chunks, r.classifier, r.seed))
    return rows


def write_sweep_tsv(rows: list[SweepRow], path) -> None:
    lines = ["\t".join(SWEEP_COLUMNS) + "\n"]
    for r in rows:
        lines.append(
            f"{r.n_chunks}\t{r.w_c!r}\t{r.classifier}\t{r.seed}\t{r.val_f1!r}\t{r.test_f1!r}\n"
        )
    atomic_write(path, "".join(lines))


def format_sweep_table(rows: list[SweepRow]) -> str:
    """Human-readable table; F1 as percentages with two decimals."""
    header = f"{'model':<12}{'W_c':>12}{'classifier':>12}{'seed':>6}{'Val.F1':>10}{'Test.F1':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        val = f"{100 * r.val_f1:.2f}" if not math.isnan(r.val_f1) else "failed"
        test = f"{100 * r.test_f1:.2f}" if not math.isnan(r.test_f1) else "failed"
        lines.append(
            f"{str(r.n_chunks) + '-chunk':<12}{r.w_c:>12.1f}{r.classifier:>12}"
            f"{r.seed:>6}{val:>10}{test:>10}"
        )
    return "\n".join(lines)
