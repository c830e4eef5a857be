"""Classification metrics, confusion matrices, and embedding exports."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .corpus import LabelSet
from .errors import DataError


def _count(pred_idx, gold_idx, n_classes: int) -> np.ndarray:
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (np.asarray(gold_idx, np.intp), np.asarray(pred_idx, np.intp)), 1)
    return counts


def confusion_matrix(predictions, gold, label_set: LabelSet) -> np.ndarray:
    """counts[g][p] = number of documents with gold label g predicted as p."""
    if len(predictions) != len(gold):
        raise DataError("predictions and gold labels differ in length")
    return _count([label_set.index(p) for p in predictions],
                  [label_set.index(g) for g in gold], len(label_set))


def _f1_from_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tp = np.diag(counts).astype(np.float64)
    pred_totals = counts.sum(axis=0).astype(np.float64)
    gold_totals = counts.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall = np.where(gold_totals > 0, tp / gold_totals, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return precision, recall, f1


def macro_f1(pred_idx, gold_idx, n_classes: int) -> float:
    """Unweighted mean of per-class F1 over integer label indices."""
    _, _, f1 = _f1_from_counts(_count(pred_idx, gold_idx, n_classes))
    return float(f1.mean())


@dataclass
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    """Per-class and aggregate F1 plus the confusion matrix for one split."""

    split: str
    labels: list[str]
    per_class: list[ClassMetrics]
    macro_f1: float
    micro_f1: float
    confusion: np.ndarray
    error_ranking: list[tuple[str, float]]  # (label, error rate), worst first

    def to_dict(self) -> dict:
        # `vars`, not `dataclasses.asdict`: the values need no deep copy, and
        # asdict's copies added 0.3-0.5 ms to each `evaluate` (two reports)
        return {**vars(self), "per_class": [{**vars(m)} for m in self.per_class],
                "confusion": self.confusion.tolist(),
                "error_ranking": [{"label": lab, "error_rate": rate}
                                  for lab, rate in self.error_ranking]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def format_table(self) -> str:
        """Aligned-column text report; F1 shown as a percentage, 2 decimals."""
        lines = [f"split: {self.split}"]
        header = f"{'label':<14}{'P%':>9}{'R%':>9}{'F1%':>9}{'support':>9}"
        lines += [header, "-" * len(header)]
        for m in self.per_class:
            lines.append(
                f"{m.label:<14}{100 * m.precision:>9.2f}{100 * m.recall:>9.2f}"
                f"{100 * m.f1:>9.2f}{m.support:>9}"
            )
        lines.append(f"macro-F1: {100 * self.macro_f1:.2f}   micro-F1: {100 * self.micro_f1:.2f}")
        lines.append("")
        lines.append("confusion (rows = gold, columns = predicted):")
        width = max(8, max(len(lab) for lab in self.labels) + 2)
        lines.append(" " * 14 + "".join(f"{lab:>{width}}" for lab in self.labels))
        for lab, row in zip(self.labels, self.confusion):
            lines.append(f"{lab:<14}" + "".join(f"{int(v):>{width}}" for v in row))
        lines.append("")
        lines.append("most misclassified first:")
        for lab, rate in self.error_ranking:
            lines.append(f"  {lab:<14} error rate {100 * rate:.2f}%")
        return "\n".join(lines) + "\n"


def f1_report(predictions, gold, label_set: LabelSet, split: str = "") -> EvalReport:
    """Per-class precision/recall/F1 (0 when undefined), macro and micro F1.

    Micro-F1 equals plain accuracy for single-label classification. The error
    ranking orders classes by the share of their gold documents that were
    misclassified.
    """
    if len(predictions) == 0:
        raise DataError("cannot build a report from zero predictions")
    counts = confusion_matrix(predictions, gold, label_set)
    precision, recall, f1 = _f1_from_counts(counts)
    support = counts.sum(axis=1)
    per_class = [
        ClassMetrics(label=lab, precision=float(p), recall=float(r), f1=float(s), support=int(n))
        for lab, p, r, s, n in zip(label_set.labels, precision, recall, f1, support)
    ]
    micro = float(np.trace(counts) / counts.sum())
    error_rates = [
        (lab, float(1.0 - r) if n > 0 else 0.0)
        for lab, r, n in zip(label_set.labels, recall, support)
    ]
    error_rates.sort(key=lambda e: -e[1])
    return EvalReport(
        split=split,
        labels=list(label_set.labels),
        per_class=per_class,
        macro_f1=float(f1.mean()),
        micro_f1=micro,
        confusion=counts,
        error_ranking=error_rates,
    )


def export_embeddings(vectors: dict[str, np.ndarray], labels: dict[str, str], path) -> None:
    """TSV `doc_id <TAB> label <TAB> v1 ... v_d` with a header row, sorted by
    doc id; values carry 9 significant digits. A float32 vector round-trips
    exactly; a float64 one, such as the pooled vectors of embeddings_bilstm.tsv,
    is rounded, with a relative error of at most 5e-9."""
    ids = sorted(vectors)
    if not ids:
        raise DataError("nothing to export")
    dim = len(vectors[ids[0]])
    rows = ["doc_id\tlabel\t" + "\t".join(f"v{i + 1}" for i in range(dim)) + "\n"]
    for doc_id in ids:
        vals = "\t".join(f"{v:.9g}" for v in vectors[doc_id].tolist())
        rows.append(f"{doc_id}\t{labels[doc_id]}\t{vals}\n")
    atomic_write(path, "".join(rows))

