import json
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from chunkdoc.cli import main
from helpers import CLI_LABELS as LABELS
from helpers import make_cli_workspace


@pytest.fixture
def workspace(tmp_path):
    return make_cli_workspace(tmp_path)


def _run_dir(workspace):
    _, _, config = workspace
    return Path(config["output_dir"]) / config["run_name"]


def test_prepare_writes_manifest_and_stats(workspace, capsys):
    tmp_path, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    run_dir = _run_dir(workspace)
    manifest = json.loads((run_dir / "split.json").read_text())
    assert set(manifest) == {"seed", "train", "validation", "test", "labels"}
    # per label: 12 docs -> 8 train (round(8.4)), 2 validation, 2 test
    assert len(manifest["train"]) == 24
    assert len(manifest["validation"]) == 6 and len(manifest["test"]) == 6
    stats = (run_dir / "stats.txt").read_text()
    assert all(label in stats for label in LABELS)
    assert (run_dir / "resolved_config.json").is_file()
    out = capsys.readouterr().out
    assert "split sizes" in out


def test_prepare_rerun_identical_bytes(workspace):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    assert main(["prepare", "--config", str(config_path)]) == 0
    first = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
    assert main(["prepare", "--config", str(config_path)]) == 0
    second = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
    assert first == second


def test_prepare_missing_label_directory_exit_2(workspace, capsys):
    tmp_path, config_path, config = workspace
    shutil.rmtree(Path(config["corpus"]["root"]) / "class2")
    assert main(["prepare", "--config", str(config_path)]) == 2
    assert "class2" in capsys.readouterr().err


def test_train_before_prepare_exit_2(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["train", "--config", str(config_path)]) == 2
    assert "prepare" in capsys.readouterr().err


def test_unknown_config_key_exit_2(workspace, capsys):
    tmp_path, config_path, config = workspace
    config["mystery"] = 1
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 2


def test_lock_file_blocks_concurrent_use(workspace, capsys):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    run_dir.mkdir(parents=True)
    (run_dir / ".lock").write_text(str(os.getpid()))
    assert main(["prepare", "--config", str(config_path)]) == 2
    assert "locked" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["", "not a pid", "0", "-1", "99999999999999999999999"])
def test_lock_without_a_dead_pid_blocks(workspace, capsys, content):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    run_dir.mkdir(parents=True)
    (run_dir / ".lock").write_text(content)
    assert main(["prepare", "--config", str(config_path)]) == 2
    assert "locked" in capsys.readouterr().err
    assert (run_dir / ".lock").read_text() == content


def test_lock_of_a_finished_command_is_taken_over(workspace):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    run_dir.mkdir(parents=True)
    finished = subprocess.Popen(["true"])
    finished.wait()
    (run_dir / ".lock").write_text(f"{finished.pid}\n")
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert not (run_dir / ".lock").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    ws = make_cli_workspace(tmp_path_factory.mktemp("trained"))
    _, config_path, _ = ws
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--classifier", "both"]) == 0
    return ws


def test_train_writes_checkpoints_and_exports(trained):
    run_dir = _run_dir(trained)
    for name in ("pvdm.bin", "aggregator.bin", "svm.bin", "train_log.jsonl",
                 "chunk_embeddings.tsv", "embeddings_doc2vec.tsv", "embeddings_bilstm.tsv"):
        assert (run_dir / name).is_file(), name
    assert not (run_dir / "INCOMPLETE").exists()
    log_rows = [json.loads(line) for line in (run_dir / "train_log.jsonl").read_text().splitlines()]
    assert all(set(r) == {"epoch", "train_loss", "val_f1"} for r in log_rows)


def test_train_linear_only_skips_svm(workspace):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = _run_dir(workspace)
    assert (run_dir / "aggregator.bin").is_file()
    assert not (run_dir / "svm.bin").exists()


def test_evaluate_all_emits_validation_and_test(trained, capsys):
    _, config_path, _ = trained
    assert main(["evaluate", "--config", str(config_path), "--classifier", "both"]) == 0
    run_dir = _run_dir(trained)
    split = json.loads((run_dir / "split.json").read_text())
    for split_name in ("validation", "test"):
        for head in ("linear", "svm"):
            report_path = run_dir / f"eval_{split_name}_{head}.json"
            assert report_path.is_file()
            report = json.loads(report_path.read_text())
            confusion = np.array(report["confusion"])
            assert confusion.sum() == len(split[split_name])
            assert (run_dir / f"eval_{split_name}_{head}.txt").is_file()
    out = capsys.readouterr().out
    assert "[validation/linear]" in out and "[test/svm]" in out


def test_evaluate_missing_checkpoint_exit_2(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path)]) == 2


def test_predict_training_document(trained, capsys):
    tmp_path, config_path, config = trained
    corpus_root = Path(config["corpus"]["root"])
    sample = corpus_root / "class1" / "doc0000.txt"
    assert main(["predict", "--config", str(config_path), str(sample)]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert set(payload) == {"label", "probabilities"}
    assert set(payload["probabilities"]) == set(LABELS)
    assert abs(sum(payload["probabilities"].values()) - 1.0) < 1e-6
    assert payload["label"] == "class1"


def test_predict_deterministic(trained, capsys):
    tmp_path, config_path, config = trained
    sample = Path(config["corpus"]["root"]) / "class0" / "doc0001.txt"
    assert main(["predict", "--config", str(config_path), str(sample)]) == 0
    first = capsys.readouterr().out
    assert main(["predict", "--config", str(config_path), str(sample)]) == 0
    assert capsys.readouterr().out == first


def test_predict_oov_garbage_no_crash(trained, capsys):
    tmp_path, config_path, _ = trained
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("zzz qqq www eee rrr ttt yyy", encoding="utf-8")
    assert main(["predict", "--config", str(config_path), str(garbage)]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["label"] in LABELS


def test_predict_empty_document_exit_3(trained, capsys):
    tmp_path, config_path, _ = trained
    empty = tmp_path / "empty.txt"
    empty.write_text("...!!! ???", encoding="utf-8")
    assert main(["predict", "--config", str(config_path), str(empty)]) == 3


def test_sweep_two_values(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["sweep", "--config", str(config_path), "--n", "1,3"]) == 0
    run_dir = _run_dir(workspace)
    from chunkdoc.sweep import read_sweep_tsv

    rows = read_sweep_tsv(run_dir / "sweep.tsv")
    assert [(r.n_chunks, r.classifier) for r in rows] == [(1, "linear"), (3, "linear")]
    out = capsys.readouterr().out
    assert "1-chunk" in out and "3-chunk" in out


def test_sweep_bad_n_exit_2(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["sweep", "--config", str(config_path), "--n", "1,zebra"]) == 2


def test_chunks_flag_overrides_config(workspace):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--chunks", "2"]) == 0
    run_dir = _run_dir(workspace)
    resolved = json.loads((run_dir / "resolved_config.json").read_text())
    assert resolved["chunking"]["n_chunks"] == 2
    from chunkdoc.aggregator import load_aggregator

    assert load_aggregator(run_dir / "aggregator.bin").n_chunks == 2


def test_train_rerun_bit_identical(workspace):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    run_dir = _run_dir(workspace)
    assert main(["train", "--config", str(config_path)]) == 0
    names = ["pvdm.bin", "aggregator.bin", "train_log.jsonl", "chunk_embeddings.tsv",
             "embeddings_doc2vec.tsv", "embeddings_bilstm.tsv"]
    first = {n: (run_dir / n).read_bytes() for n in names}
    assert main(["train", "--config", str(config_path)]) == 0
    second = {n: (run_dir / n).read_bytes() for n in names}
    assert first == second


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("damage", ["truncated", "old_format"])
def test_unreadable_checkpoint_exit_2(trained, capsys, command, damage):
    _, config_path, config = trained
    path = _run_dir(trained) / "aggregator.bin"
    good = path.read_bytes()
    path.write_bytes(good[:-7] if damage == "truncated" else b"AGG1\x01\x00\x00\x00" + good[8:])
    args = [command, "--config", str(config_path)]
    if command == "predict":
        args.append(str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt"))
    try:
        assert main(args) == 2
    finally:
        path.write_bytes(good)
    assert str(path) in capsys.readouterr().err


def test_evaluate_reads_chunk_vectors_not_pvdm(workspace, capsys):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    (run_dir / "pvdm.bin").unlink()
    assert main(["evaluate", "--config", str(config_path)]) == 0
    tsv = run_dir / "chunk_embeddings.tsv"
    tsv.unlink()
    assert main(["evaluate", "--config", str(config_path)]) == 2
    assert str(tsv) in capsys.readouterr().err


@pytest.mark.parametrize("command,damage", [("evaluate", "half_tsv"), ("evaluate", "bad_value"),
                                            ("evaluate", "incomplete"), ("predict", "incomplete")])
def test_unfinished_run_exit_2(trained, capsys, command, damage):
    _, config_path, config = trained
    run_dir = _run_dir(trained)
    tsv = run_dir / "chunk_embeddings.tsv"
    good = tsv.read_bytes()
    if damage == "half_tsv":
        tsv.write_bytes(good[: len(good) // 2])
    elif damage == "bad_value":
        tsv.write_bytes(good.replace(b"\t", b"\tx", 3))
    else:
        (run_dir / "INCOMPLETE").write_text("training in progress\n")
    args = [command, "--config", str(config_path)]
    if command == "predict":
        args.append(str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt"))
    try:
        assert main(args) == 2
    finally:
        tsv.write_bytes(good)
        (run_dir / "INCOMPLETE").unlink(missing_ok=True)
    expected = tsv if damage != "incomplete" else run_dir / "INCOMPLETE"
    assert str(expected) in capsys.readouterr().err


def _eval_reports(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("eval_*"))}


@pytest.mark.parametrize("change", ["corpus_moved", "document_added"])
def test_evaluate_reads_no_corpus(trained, change):
    _, config_path, config = trained
    run_dir = _run_dir(trained)
    args = ["evaluate", "--config", str(config_path), "--classifier", "both"]
    assert main(args) == 0
    before = _eval_reports(run_dir)
    root = Path(config["corpus"]["root"])
    added = root / "class0" / "zz_new.txt"
    if change == "corpus_moved":
        root.rename(root.with_name("corpus_moved"))
    else:
        added.write_text("a document written after training", encoding="utf-8")
    try:
        assert main(args) == 0
    finally:
        if change == "corpus_moved":
            root.with_name("corpus_moved").rename(root)
        added.unlink(missing_ok=True)
    assert len(before) == 8 and _eval_reports(run_dir) == before


def test_evaluate_split_pools_only_its_documents(trained, capsys):
    _, config_path, _ = trained
    run_dir = _run_dir(trained)
    split = json.loads((run_dir / "split.json").read_text())
    tsv = run_dir / "chunk_embeddings.tsv"
    good = tsv.read_bytes()
    validation = {doc_id.encode() for doc_id in split["validation"]}
    tsv.write_bytes(b"".join(line for line in good.splitlines(keepends=True)
                             if line.split(b"\t")[0] not in validation))
    try:
        assert main(["evaluate", "--config", str(config_path), "--split", "test"]) == 0
        assert main(["evaluate", "--config", str(config_path), "--split", "validation"]) == 2
    finally:
        tsv.write_bytes(good)
    assert str(tsv) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("damage", ["malformed", "no_labels", "unlabeled_id"])
def test_unreadable_split_manifest_exit_2(trained, capsys, command, damage):
    _, config_path, _ = trained
    path = _run_dir(trained) / "split.json"
    good = path.read_bytes()
    manifest = json.loads(good)
    if damage == "malformed":
        path.write_bytes(good[: len(good) // 2])
    else:
        if damage == "no_labels":
            del manifest["labels"]
        else:
            del manifest["labels"][manifest["test"][0]]
        path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        assert main([command, "--config", str(config_path), "--classifier", "both"]) == 2
    finally:
        path.write_bytes(good)
    err = capsys.readouterr().err
    assert str(path) in err and "prepare" in err
