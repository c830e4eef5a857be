"""Corpus loading, tokenization, header stripping, and dataset splits.

Corpus layout on disk is one subdirectory per label, each holding UTF-8
plain-text files: ``<root>/<label>/<doc_id>.txt``.

A token is a maximal run of characters for which `str.isalnum()` holds, taken
from the text after `str.lower()`; `_` and every other character separate
tokens. ASCII text is split by one `str.translate` and `str.split`, other text
by a Unicode regex, with the same tokens either way. A loaded corpus holds
text, not tokens: they are made where they are used, one document at a time.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass
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
# separate tokens. `[^\W_]` matches exactly the characters for which
# `str.isalnum()` holds.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every ASCII character that is not alphanumeric becomes a space, so that
# `str.split()` yields the same runs on ASCII text as `_TOKEN_RE`.
_ASCII_SEPARATORS = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})
# Sentence boundary heuristic for corpus statistics only: terminal
# punctuation followed by whitespace or end of text.
_SENTENCE_RE = re.compile(r"[.!?](?=\s|$)")
# Every ASCII character reduced to its role in a sentence: "a" for a token
# character, "." for terminal punctuation, " " for whitespace (as `str.isspace()`
# and the regex's `\s` define it, `\v`, `\f` and `\x1c`-`\x1f` included) and
# "_" for anything else. A boundary is then the two characters ". ".
_ASCII_SENTENCE_ROLES = str.maketrans({
    ch: "a" if ch.isalnum() else "." if ch in ".!?" else " " if ch.isspace() else "_"
    for ch in map(chr, range(128))})


def tokenize(text: str) -> list[str]:
    """The maximal runs of `str.isalnum()` characters of `text.lower()`.

    Lowercased text that is all ASCII takes the faster `str.translate` path,
    which maps every ASCII non-alphanumeric character to a space and splits
    on whitespace; other text takes `_TOKEN_RE`.
    """
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(lowered)


def strip_boilerplate(
    raw_text: str,
    label: str,
    header_labels: frozenset[str] = DEFAULT_HEADER_LABELS,
) -> str:
    """Drop the first HEADER_LINES physical lines for labels in `header_labels`.

    Text with HEADER_LINES or fewer lines collapses to the empty string, which
    later fails the non-empty token check at load time.
    """
    if label not in header_labels:
        return raw_text
    lines = raw_text.split("\n")
    return "\n".join(lines[HEADER_LINES:])


def _sentence_count(text: str) -> int:
    """The number of sentences of `text`: pieces between `.`, `!` or `?`
    characters followed by whitespace or the end of the text, counted when they
    hold a token, so that a document never has more sentences than words.

    ASCII text takes the faster `str.translate` path: `_ASCII_SENTENCE_ROLES`
    maps it to roles, and the pieces between ". " holding an "a" are counted.
    A final terminal character needs no boundary there, since the piece it
    would split off is empty. Other text takes `_SENTENCE_RE` and `_TOKEN_RE`.
    """
    if text.isascii():
        return sum("a" in piece for piece in text.translate(_ASCII_SENTENCE_ROLES).split(". "))
    return sum(1 for seg in _SENTENCE_RE.split(text) if _TOKEN_RE.search(seg))


@dataclass(frozen=True)
class Document:
    """One labeled text file: `raw_text` as read, and `text`, the header-stripped
    text its `tokens` are made from on each read (the same object as `raw_text`
    when nothing was stripped)."""

    id: str
    label: str
    raw_text: str
    text: str

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(tokenize(self.text))


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
class Corpus:
    """Immutable collection of documents plus the label inventory."""

    documents: list[Document]
    label_set: LabelSet

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

    def by_label(self, label: str) -> list[Document]:
        return [d for d in self.documents if d.label == label]


def load_corpus(
    root_dir,
    label_set: LabelSet,
    header_labels: frozenset[str] = DEFAULT_HEADER_LABELS,
) -> Corpus:
    """Load ``<root>/<label>/*.txt`` into a Corpus.

    Documents whose file name is not UTF-8, whose id (``label/stem``) holds a
    tab or line break, or whose token stream is empty after preprocessing are
    skipped; one line per skipped file goes to stderr.
    A label directory outside `label_set`, or a missing directory for a
    label in the set, is fatal. File order is lexicographic by path, so the
    same tree always loads into the same document order.
    """
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
    for label in sorted(label_set):
        for path in sorted((root / label).glob("*.txt")):
            try:
                path.name.encode("utf-8")
            except UnicodeEncodeError:  # its document id could not be written
                print(f"skipped {path}: file name is not UTF-8", file=sys.stderr)
                continue
            doc_id = f"{label}/{path.stem}"
            if any(c in doc_id for c in "\t\n\r"):  # it would split its TSV rows
                print(f"skipped {str(path)!r}: document id holds a tab or line break",
                      file=sys.stderr)
                continue
            try:
                raw = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                print(f"skipped {path}: unreadable: {exc}", file=sys.stderr)
                continue
            text = strip_boilerplate(raw, label, header_labels)
            if not _TOKEN_RE.search(text.lower()):  # the same test as `not tokenize(text)`
                print(f"skipped {path}: no tokens after preprocessing", file=sys.stderr)
                continue
            documents.append(Document(id=doc_id, label=label, raw_text=raw, text=text))
    documents.sort(key=lambda d: d.id)
    return Corpus(documents=documents, label_set=label_set)


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
        """A missing or unreadable manifest, an empty split, a split id without
        a label or an id listed twice, in one split or in two, is a ConfigError."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            split = cls(list(data["train"]), list(data["validation"]), list(data["test"]),
                        int(data["seed"]), dict(data["labels"]))
            for name in ("train", "validation", "test"):
                if not getattr(split, name):
                    raise ValueError(f"the {name} split is empty")
            ids = split.train + split.validation + split.test
            for doc_id in ids:
                if doc_id not in split.labels:
                    raise KeyError(f"no label for {doc_id}")
            repeated = [i for i, k in Counter(ids).items() if k > 1]
            if repeated:
                raise ValueError(f"document id {repeated[0]} is listed twice")
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
        return {"per_label": [asdict(r) for r in self.rows]}


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Per-label document count, mean words, and mean sentences.

    Sentences are counted on `Document.text`, the text the tokens come from; they
    feed reporting only. A sentence is a piece of text between `.`, `!` or `?`
    characters that are followed by whitespace or the end of the text, counted
    when it holds a token; `_sentence_count` counts ASCII text by
    `str.translate` and other text by regex, with the same count either way.
    """
    rows = []
    for label in corpus.label_set:
        docs = corpus.by_label(label)
        if not docs:
            continue
        words = [len(tokenize(d.text)) for d in docs]
        sents = [_sentence_count(d.text) for d in docs]
        rows.append(
            LabelStats(
                label=label,
                n_docs=len(docs),
                mean_words=float(np.mean(words)),
                mean_sentences=float(np.mean(sents)),
            )
        )
    return CorpusStats(rows=rows)
