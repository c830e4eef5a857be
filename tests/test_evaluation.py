import json

import numpy as np
import pytest

from chunkdoc.corpus import LabelSet
from chunkdoc.errors import DataError
from chunkdoc.evaluation import confusion_matrix, export_embeddings, f1_report, macro_f1


def test_perfect_predictions():
    labels = LabelSet(["a", "b", "c"])
    gold = ["a", "b", "c", "a", "b"]
    report = f1_report(gold, gold, labels, split="test")
    assert report.macro_f1 == 1.0
    assert report.micro_f1 == 1.0
    assert all(m.f1 == 1.0 for m in report.per_class)
    assert np.array_equal(report.confusion, np.diag([2, 2, 1]))


def test_hand_computed_case():
    labels = LabelSet(["A", "B"])
    gold = ["A", "A", "B", "B"]
    pred = ["A", "B", "B", "B"]
    report = f1_report(pred, gold, labels)
    by_label = {m.label: m for m in report.per_class}
    assert by_label["A"].f1 == pytest.approx(2 / 3, abs=1e-12)
    assert by_label["B"].f1 == pytest.approx(4 / 5, abs=1e-12)
    assert report.macro_f1 == pytest.approx(11 / 15, abs=1e-12)
    assert report.micro_f1 == pytest.approx(3 / 4, abs=1e-12)


def test_micro_f1_is_accuracy():
    labels = LabelSet(["x", "y", "z"])
    rng = np.random.default_rng(0)
    gold = [labels.labels[i] for i in rng.integers(0, 3, 60)]
    pred = [labels.labels[i] for i in rng.integers(0, 3, 60)]
    report = f1_report(pred, gold, labels)
    accuracy = np.mean([p == g for p, g in zip(pred, gold)])
    assert report.micro_f1 == pytest.approx(accuracy, abs=1e-12)
    assert report.micro_f1 == pytest.approx(
        np.trace(report.confusion) / report.confusion.sum(), abs=1e-12
    )


def test_zero_convention_for_absent_predictions():
    labels = LabelSet(["a", "b"])
    report = f1_report(["a", "a"], ["a", "b"], labels)
    by_label = {m.label: m for m in report.per_class}
    assert by_label["b"].precision == 0.0
    assert by_label["b"].recall == 0.0
    assert by_label["b"].f1 == 0.0


def test_macro_f1_permutation_invariant():
    rng = np.random.default_rng(1)
    gold_idx = rng.integers(0, 4, 100)
    pred_idx = rng.integers(0, 4, 100)
    base = macro_f1(pred_idx, gold_idx, 4)
    perm = np.array([2, 0, 3, 1])
    assert macro_f1(perm[pred_idx], perm[gold_idx], 4) == pytest.approx(base, abs=1e-12)


def test_empty_input_fatal():
    with pytest.raises(DataError):
        f1_report([], [], LabelSet(["a", "b"]))


def test_confusion_matrix_rows_are_gold():
    labels = LabelSet(["a", "b"])
    counts = confusion_matrix(["b", "b", "a"], ["a", "b", "a"], labels)
    assert counts[0, 1] == 1  # gold a predicted b
    assert counts[0, 0] == 1
    assert counts[1, 1] == 1


def test_confusion_matrix_row_sums_are_gold_counts():
    labels = LabelSet(["a", "b", "c"])
    rng = np.random.default_rng(2)
    gold = [labels.labels[i] for i in rng.integers(0, 3, 50)]
    pred = [labels.labels[i] for i in rng.integers(0, 3, 50)]
    counts = confusion_matrix(pred, gold, labels)
    assert counts.sum() == 50
    for i, lab in enumerate(labels):
        assert counts[i].sum() == gold.count(lab)


def test_confusion_matrix_unknown_label_fatal():
    with pytest.raises(DataError):
        confusion_matrix(["mystery"], ["a"], LabelSet(["a", "b"]))


def test_error_ranking_surfaces_most_misclassified():
    labels = LabelSet(["good", "bad", "ugly"])
    gold = ["good"] * 10 + ["bad"] * 10 + ["ugly"] * 10
    pred = ["good"] * 10 + ["bad"] * 8 + ["good"] * 2 + ["good"] * 5 + ["ugly"] * 5
    report = f1_report(pred, gold, labels)
    assert report.error_ranking[0][0] == "ugly"
    assert report.error_ranking[0][1] == pytest.approx(0.5)
    assert [lab for lab, _ in report.error_ranking] == ["ugly", "bad", "good"]
    assert "ugly" in report.format_table()


def test_report_json_shape():
    labels = LabelSet(["a", "b"])
    report = f1_report(["a", "b"], ["a", "b"], labels, split="validation")
    data = json.loads(report.to_json())
    assert data["split"] == "validation"
    assert set(data) == {"split", "labels", "per_class", "macro_f1", "micro_f1",
                         "confusion", "error_ranking"}
    assert data["confusion"] == [[1, 0], [0, 1]]


def test_export_three_rows_plus_header(tmp_path):
    vectors = {f"d{i}": np.arange(4, dtype=np.float32) + i for i in range(3)}
    labels = {f"d{i}": "x" for i in range(3)}
    path = tmp_path / "emb.tsv"
    export_embeddings(vectors, labels, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "doc_id\tlabel\tv1\tv2\tv3\tv4"
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["d0", "d1", "d2"]


def test_export_roundtrip_f32_exact(tmp_path):
    rng = np.random.default_rng(3)
    vectors = {
        f"doc{i}": (rng.standard_normal(8) * 10.0 ** rng.integers(-3, 3)).astype(np.float32)
        for i in range(5)
    }
    labels = {k: f"lab{i % 2}" for i, k in enumerate(sorted(vectors))}
    path = tmp_path / "emb.tsv"
    export_embeddings(vectors, labels, path)
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == sorted(vectors)
    for doc_id, label, *values in rows:
        assert label == labels[doc_id]
        assert np.array_equal(np.array([float(v) for v in values], dtype=np.float32),
                              vectors[doc_id])


def test_export_unwritable_path_fatal(tmp_path):
    with pytest.raises(OSError):
        export_embeddings({"d": np.zeros(2)}, {"d": "x"}, tmp_path / "missing" / "emb.tsv")
