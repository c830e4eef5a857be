"""Corpus loading, tokenization, header stripping, and dataset splits.

Corpus layout on disk is one subdirectory per label, each holding UTF-8
plain-text files: ``<root>/<label>/<doc_id>.txt``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .errors import ConfigError, DataError

# Filing types whose documents open with identical header lines that would
# otherwise give the label away; the first HEADER_LINES physical lines of
# those documents are dropped before tokenization.
DEFAULT_HEADER_LABELS = frozenset({"10-K", "10-Q"})
HEADER_LINES = 6

# Maximal runs of (unicode) alphanumerics; underscore and everything else
# separate tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Sentence boundary heuristic for corpus statistics only: terminal
# punctuation followed by whitespace or end of text.
_SENTENCE_RE = re.compile(r"[.!?](?=\s|$)")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def strip_boilerplate(
    raw_text: str,
    label: str,
    header_labels: frozenset[str] = DEFAULT_HEADER_LABELS,
    n_lines: int = HEADER_LINES,
) -> str:
    """Drop the first `n_lines` physical lines for labels in `header_labels`.

    Text with `n_lines` or fewer lines collapses to the empty string, which
    later fails the non-empty token check at load time.
    """
    if label not in header_labels:
        return raw_text
    lines = raw_text.split("\n")
    return "\n".join(lines[n_lines:])


def _sentence_count(text: str) -> int:
    # Count only segments that carry at least one token, so that a document
    # never has more sentences than words.
    return sum(1 for seg in _SENTENCE_RE.split(text) if _TOKEN_RE.search(seg))


@dataclass(frozen=True)
class Document:
    """One labeled text file: raw content plus its normalized token stream."""

    id: str
    label: str
    raw_text: str
    tokens: tuple[str, ...]


class LabelSet:
    """Ordered, unique class labels; index positions are stable."""

    def __init__(self, labels):
        labels = list(labels)
        if len(labels) < 2:
            raise ConfigError(f"need at least 2 labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate labels in {labels}")
        self.labels: tuple[str, ...] = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DataError(f"unknown label {label!r}") from None

    def __contains__(self, label) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSet) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"LabelSet({list(self.labels)!r})"


@dataclass
class LoadReport:
    n_loaded: int = 0
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)


@dataclass
class Corpus:
    """Immutable collection of documents plus the label inventory."""

    documents: list[Document]
    label_set: LabelSet
    load_report: LoadReport | None = None

    def __post_init__(self):
        self._by_id = {d.id: d for d in self.documents}
        if len(self._by_id) != len(self.documents):
            raise DataError("duplicate document ids in corpus")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def get(self, doc_id: str) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise DataError(f"unknown document id {doc_id!r}") from None

    def ids(self) -> list[str]:
        return [d.id for d in self.documents]

    def by_label(self, label: str) -> list[Document]:
        return [d for d in self.documents if d.label == label]


def load_corpus(
    root_dir,
    label_set: LabelSet,
    header_labels: frozenset[str] = DEFAULT_HEADER_LABELS,
    report_stream=None,
) -> Corpus:
    """Load ``<root>/<label>/*.txt`` into a Corpus.

    Documents whose token stream is empty after preprocessing are skipped;
    one line per skipped file goes to `report_stream` (stderr by default).
    A label directory outside `label_set`, or a missing directory for a
    label in the set, is fatal. File order is lexicographic by path, so the
    same tree always loads into the same document order.
    """
    if report_stream is None:
        report_stream = sys.stderr
    root = Path(root_dir)
    if not root.is_dir():
        raise ConfigError(f"corpus root does not exist: {root}")
    for sub in sorted(p.name for p in root.iterdir() if p.is_dir()):
        if sub not in label_set:
            raise ConfigError(f"directory {root / sub} is not a configured label")
    missing = [lab for lab in label_set if not (root / lab).is_dir()]
    if missing:
        raise ConfigError(f"missing label directory: {root / missing[0]}")

    documents: list[Document] = []
    report = LoadReport()
    for label in sorted(label_set):
        for path in sorted((root / label).glob("*.txt")):
            try:
                raw = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                report.skipped.append((str(path), f"unreadable: {exc}"))
                continue
            tokens = tokenize(strip_boilerplate(raw, label, header_labels))
            if not tokens:
                report.skipped.append((str(path), "no tokens after preprocessing"))
                continue
            documents.append(
                Document(id=f"{label}/{path.stem}", label=label, raw_text=raw, tokens=tuple(tokens))
            )
    documents.sort(key=lambda d: d.id)
    report.n_loaded = len(documents)
    for path, reason in report.skipped:
        print(f"skipped {path}: {reason}", file=report_stream)
    return Corpus(documents=documents, label_set=label_set, load_report=report)


@dataclass
class DatasetSplit:
    """Disjoint train/validation/test document ids covering the corpus, and
    `labels`, every document's gold label in corpus order."""

    train: list[str]
    validation: list[str]
    test: list[str]
    seed: int
    labels: dict[str, str]

    def save(self, path) -> None:
        payload = {
            "seed": self.seed,
            "train": self.train,
            "validation": self.validation,
            "test": self.test,
            "labels": self.labels,
        }
        atomic_write(path, json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "DatasetSplit":
        """A missing or unreadable manifest, or a split id without a label, is a ConfigError."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            split = cls(list(data["train"]), list(data["validation"]), list(data["test"]),
                        int(data["seed"]), dict(data["labels"]))
            for doc_id in split.train + split.validation + split.test:
                if doc_id not in split.labels:
                    raise KeyError(f"no label for {doc_id}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read split manifest {path}: {exc!r}; "
                              f"run `prepare` again") from None
        return split


def _allocate(n: int) -> tuple[int, int, int]:
    # 70% to train (round half up), the rest split evenly with validation
    # taking the odd document. Guarantee a non-empty test set for n >= 3 by
    # giving back one training document when the remainder is too small.
    n_train = int(np.floor(0.7 * n + 0.5))
    rest = n - n_train
    n_val = (rest + 1) // 2
    n_test = rest // 2
    if n_test == 0:
        n_train -= 1
        n_test += 1
    return n_train, n_val, n_test


def split_dataset(corpus: Corpus, seed: int) -> DatasetSplit:
    """Stratified 70/15/15 split, deterministic for a given (corpus, seed)."""
    if len(corpus) == 0:
        raise DataError("cannot split an empty corpus")
    rng = np.random.default_rng(seed)
    train: list[str] = []
    validation: list[str] = []
    test: list[str] = []
    for label in corpus.label_set:
        ids = sorted(d.id for d in corpus if d.label == label)
        if len(ids) < 3:
            raise DataError(
                f"label {label!r} has {len(ids)} documents; need at least 3 to fill all splits"
            )
        order = rng.permutation(len(ids))
        shuffled = [ids[i] for i in order]
        n_train, n_val, _ = _allocate(len(ids))
        train.extend(shuffled[:n_train])
        validation.extend(shuffled[n_train : n_train + n_val])
        test.extend(shuffled[n_train + n_val :])
    return DatasetSplit(train=sorted(train), validation=sorted(validation), test=sorted(test),
                        seed=seed, labels={d.id: d.label for d in corpus})


@dataclass
class LabelStats:
    label: str
    n_docs: int
    mean_words: float
    mean_sentences: float


@dataclass
class CorpusStats:
    rows: list[LabelStats]

    def format_table(self) -> str:
        header = f"{'Type':<14}{'N':>8}{'W':>12}{'S':>10}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.label:<14}{r.n_docs:>8}{r.mean_words:>12.1f}{r.mean_sentences:>10.1f}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "per_label": [
                {
                    "label": r.label,
                    "n_docs": r.n_docs,
                    "mean_words": r.mean_words,
                    "mean_sentences": r.mean_sentences,
                }
                for r in self.rows
            ]
        }


def corpus_stats(
    corpus: Corpus, header_labels: frozenset[str] = DEFAULT_HEADER_LABELS
) -> CorpusStats:
    """Per-label document count, mean words, and mean sentences.

    Sentences are counted on the same stripped text the tokens come from,
    using the terminal-punctuation heuristic; they feed reporting only.
    """
    rows = []
    for label in corpus.label_set:
        docs = corpus.by_label(label)
        if not docs:
            continue
        words = [len(d.tokens) for d in docs]
        sents = [_sentence_count(strip_boilerplate(d.raw_text, d.label, header_labels)) for d in docs]
        rows.append(
            LabelStats(
                label=label,
                n_docs=len(docs),
                mean_words=float(np.mean(words)),
                mean_sentences=float(np.mean(sents)),
            )
        )
    return CorpusStats(rows=rows)
