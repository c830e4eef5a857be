import argparse
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chunkdoc
from chunkdoc import checkpoint, cli
from chunkdoc.aggregator import document_vectors, load_aggregator
from chunkdoc.cli import main, run_lock
from chunkdoc.embedder import load_chunk_embeddings
from chunkdoc.errors import ConfigError
from chunkdoc.svm import load_svm, save_svm
from helpers import CLI_LABELS as LABELS
from helpers import FIXED_KEYS, make_cli_workspace


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


def test_prepare_keeps_the_split_of_a_trained_run(workspace, capsys):
    """A new split would score the model's training documents as test, so
    `prepare` refuses it while the run holds a model, and writes nothing."""
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path)]) == 0
    before = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
    reports = _eval_reports(run_dir)
    capsys.readouterr()
    assert main(["prepare", "--config", str(config_path), "--seed", "11"]) == 2
    err = capsys.readouterr().err
    assert str(run_dir) in err and "run_name" in err and "checkpoints" in err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()} == before
    assert main(["evaluate", "--config", str(config_path)]) == 0
    assert _eval_reports(run_dir) == reports
    assert main(["prepare", "--config", str(config_path)]) == 0  # the same split
    assert (run_dir / "split.json").read_bytes() == before["split.json"]


def test_prepare_beside_a_trained_model_keeps_its_resolved_config(workspace):
    """The run's resolved_config.json describes its model: a `prepare` with
    the same split but another head and seed leaves it as `train` wrote it."""
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    trained_under = (run_dir / "resolved_config.json").read_bytes()
    assert main(["prepare", "--config", str(config_path), "--classifier", "svm",
                 "--seed", "5"]) == 0  # 5 is the config's split seed: the same split
    assert (run_dir / "resolved_config.json").read_bytes() == trained_under


def test_sweep_beside_a_trained_model_keeps_its_resolved_config(workspace):
    """A `sweep` in a trained run leaves resolved_config.json as `train` wrote
    it: the record must not claim an SVM head or a seed the model lacks."""
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    trained_under = (run_dir / "resolved_config.json").read_bytes()
    assert main(["sweep", "--config", str(config_path), "--n", "1", "--classifier", "svm",
                 "--seed", "9"]) == 0
    assert (run_dir / "resolved_config.json").read_bytes() == trained_under
    assert not (run_dir / "svm.bin").exists()


def test_train_that_fails_before_training_leaves_the_run_as_it_was(workspace, capsys):
    """A `train` whose corpus is missing exits 2 before it writes anything: the
    trained run keeps its files, resolved_config.json included, and no marker."""
    tmp_path, config_path, config = workspace
    run_dir = _run_dir(workspace)
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({**config, "corpus": {**config["corpus"],
                                                       "root": str(tmp_path / "gone")}}))
    assert main(["train", "--config", str(broken), "--classifier", "svm"]) == 2
    assert "gone" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


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


@pytest.mark.parametrize("section,key", FIXED_KEYS)
def test_fixed_value_key_exit_2(workspace, capsys, section, key):
    """A value that is a constant, not a key, fails as an unknown key."""
    _, config_path, config = workspace
    config.setdefault(section, {})[key] = 1
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 2
    assert f"{section}: unknown keys ['{key}']" in capsys.readouterr().err


def test_config_value_of_the_wrong_type_exit_2(workspace, capsys):
    _, config_path, config = workspace
    config["embedder"]["dim"] = "64"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 2
    assert "embedder.dim must be of type int, got '64'" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["..", ".", "", "class0/sub", "class\0"])
def test_label_that_is_not_a_plain_directory_name_exit_2(workspace, capsys, label):
    """A label names a directory under the corpus root: `..` or the empty
    string would load the root's parent or the root itself as a class."""
    _, config_path, config = workspace
    config["corpus"]["labels"] = [*LABELS, label]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 2
    assert (f"a corpus.labels entry must be a plain directory name, got {label!r}"
            in capsys.readouterr().err)
    assert not _run_dir(workspace).exists()


def test_negative_seed_flag_exit_2(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path), "--seed", "-1"]) == 2
    assert "split.seed must be >= 0, got -1" in capsys.readouterr().err
    assert not _run_dir(workspace).exists()


@pytest.mark.parametrize("source", ["config", "flag"])
def test_prepare_output_dir_with_a_nul_exit_2(workspace, capsys, source):
    """No OS path takes a NUL: an `output_dir` holding one, from the config or
    from `--output`, is refused before any path is used."""
    tmp_path, config_path, config = workspace
    output = str(tmp_path / "runs\0x")
    args = ["prepare", "--config", str(config_path)]
    if source == "config":
        config["output_dir"] = output
        config_path.write_text(json.dumps(config), encoding="utf-8")
    else:
        args += ["--output", output]
    assert main(args) == 2
    assert f"output_dir must not hold a NUL, got {output!r}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_train_data_error_exit_3(workspace, capsys):
    _, config_path, config = workspace
    config["embedder"]["per_class"] = 9  # each label has 8 training documents
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 3
    assert "label 'class0' has 8 training documents, need 9" in capsys.readouterr().err


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_lock_file_blocks_concurrent_use(workspace, capsys):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    with run_lock(run_dir):
        for command in ("prepare", "train"):
            before = _open_fds()
            assert main([command, "--config", str(config_path)]) == 2
            assert _open_fds() == before
            assert "locked" in capsys.readouterr().err
    before = _open_fds()
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert _open_fds() == before
    assert not (run_dir / ".lock").exists()


def test_lock_of_a_finished_command_is_taken_over(workspace, capsys):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    holder = ("import sys, time\nfrom pathlib import Path\nfrom chunkdoc.cli import run_lock\n"
              "with run_lock(Path(sys.argv[1])):\n"
              "    print('held', flush=True)\n"
              "    time.sleep(60)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(chunkdoc.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-c", holder, str(run_dir)],
                          stdout=subprocess.PIPE, text=True, env=env) as child:
        try:
            assert child.stdout.readline() == "held\n"
            assert main(["prepare", "--config", str(config_path)]) == 2
            assert "locked" in capsys.readouterr().err
        finally:
            child.kill()
            child.wait()
    assert child.returncode == -signal.SIGKILL
    # the kernel released the killed holder's lock: no manual step is needed
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert not (run_dir / ".lock").exists()


def test_lock_file_of_an_older_version_is_ignored(workspace):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    run_dir.mkdir(parents=True)
    (run_dir / ".lock").write_text(f"{os.getpid()}\n")
    assert main(["prepare", "--config", str(config_path)]) == 0


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


def test_train_linear_only_skips_svm(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--classifier", "both"]) == 0
    run_dir = _run_dir(workspace)
    assert (run_dir / "svm.bin").is_file()
    # a linear-only retrain leaves no SVM of the earlier run behind
    assert main(["train", "--config", str(config_path)]) == 0
    assert (run_dir / "aggregator.bin").is_file()
    assert not (run_dir / "svm.bin").exists()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config_path), "--classifier", "svm"]) == 2
    assert "train with --classifier svm" in capsys.readouterr().err
    # ... and `predict` answers with the one head the retrain trained
    document = Path(workspace[2]["corpus"]["root"]) / "class0" / "doc0001.txt"
    assert main(["predict", "--config", str(config_path), str(document)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"label", "probabilities"}


def test_retrain_removes_reports_of_the_previous_model(workspace):
    _, config_path, _ = workspace
    run_dir = _run_dir(workspace)
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--classifier", "both"]) == 0
    assert main(["evaluate", "--config", str(config_path), "--classifier", "both"]) == 0
    assert len(list(run_dir.glob("eval_*"))) == 8
    assert main(["train", "--config", str(config_path), "--chunks", "2"]) == 0
    assert list(run_dir.glob("eval_*")) == []
    assert main(["evaluate", "--config", str(config_path)]) == 0
    assert sorted(p.name for p in run_dir.glob("eval_*")) == [
        f"eval_{split}_linear.{ext}" for split in ("test", "validation") for ext in ("json", "txt")]
    assert load_aggregator(run_dir / "aggregator.bin").n_chunks == 2


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
    assert set(payload) == {"label", "probabilities", "svm_label"}
    assert set(payload["probabilities"]) == set(LABELS)
    assert abs(sum(payload["probabilities"].values()) - 1.0) < 1e-6
    assert payload["label"] == "class1"
    assert payload["svm_label"] in LABELS


def test_predict_deterministic(trained, capsys):
    tmp_path, config_path, config = trained
    sample = Path(config["corpus"]["root"]) / "class0" / "doc0001.txt"
    assert main(["predict", "--config", str(config_path), str(sample)]) == 0
    first = capsys.readouterr().out
    assert main(["predict", "--config", str(config_path), str(sample)]) == 0
    assert capsys.readouterr().out == first


def test_predict_depends_on_neither_file_name_nor_seed(trained, tmp_path, capsys):
    _, config_path, config = trained
    document = Path(config["corpus"]["root"]) / "class2" / "doc0003.txt"
    renamed = tmp_path / "another name.txt"
    shutil.copy(document, renamed)
    outputs = []
    for path, flags in ((document, []), (renamed, []), (document, ["--seed", "99"])):
        assert main(["predict", "--config", str(config_path), *flags, str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_predict_agrees_with_evaluate_on_the_test_split(trained, capsys):
    """`predict` on a test document gives what `evaluate` scores on every head:
    the linear head's probabilities and the SVM's label, on the vectors pooled
    from chunk_embeddings.tsv."""
    _, config_path, config = trained
    run_dir = _run_dir(trained)
    test_ids = json.loads((run_dir / "split.json").read_text())["test"]
    aggregator = load_aggregator(run_dir / "aggregator.bin")
    pooled = document_vectors(aggregator, load_chunk_embeddings(run_dir / "chunk_embeddings.tsv",
                                                                test_ids))
    X = np.stack([pooled[i] for i in test_ids])
    expected = aggregator.classify(X)
    svm_labels = load_svm(run_dir / "svm.bin").predict(X)
    for doc_id, probs, svm_label in zip(test_ids, expected, svm_labels, strict=True):
        document = Path(config["corpus"]["root"]) / f"{doc_id}.txt"
        assert main(["predict", "--config", str(config_path), str(document)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == aggregator.labels[int(probs.argmax())]
        got = np.array([payload["probabilities"][label] for label in aggregator.labels])
        assert np.abs(got - probs).max() <= 1e-12, doc_id
        assert payload["svm_label"] == svm_label, doc_id


def test_predict_oov_garbage_no_crash(trained, capsys):
    tmp_path, config_path, _ = trained
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("zzz qqq www eee rrr ttt yyy", encoding="utf-8")
    assert main(["predict", "--config", str(config_path), str(garbage)]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["label"] in LABELS


def test_file_name_not_utf8_is_skipped_by_prepare_and_read_by_predict(workspace, capfd):
    """A corpus file whose name is not UTF-8 is skipped, so `train` can
    write every document id; `predict` reads such a file like any other."""
    _, config_path, config = workspace
    doc = Path(config["corpus"]["root"]) / "class1" / "doc0000.txt"
    bad = doc.parent / os.fsdecode(b"bad\xffname.txt")
    shutil.copy(doc, bad)
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert "skipped" in capfd.readouterr().err
    assert main(["train", "--config", str(config_path)]) == 0
    assert main(["predict", "--config", str(config_path), str(bad)]) == 0
    payload = json.loads(capfd.readouterr().out.strip().splitlines()[-1])
    assert set(payload["probabilities"]) == set(LABELS)


def test_predict_non_finite_pvdm_bin_exit_2(trained, capsys):
    """A pvdm.bin whose word matrix holds NaN would print NaN probabilities;
    `predict` refuses it and names the file."""
    _, config_path, config = trained
    path = _run_dir(trained) / "pvdm.bin"
    saved = path.read_bytes()
    header, arrays = checkpoint.load(path, "pvdm")
    arrays = {k: np.array(v) for k, v in arrays.items()}
    arrays["W_out"][0, 0] = np.nan
    checkpoint.save(path, "pvdm", header, arrays)
    document = Path(config["corpus"]["root"]) / "class0" / "doc0001.txt"
    capsys.readouterr()
    try:
        assert main(["predict", "--config", str(config_path), str(document)]) == 2
    finally:  # the run is shared with the other tests of this module
        path.write_bytes(saved)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "W_out holds non-finite values" in captured.err


def test_predict_empty_document_exit_3(trained, capsys):
    tmp_path, config_path, _ = trained
    empty = tmp_path / "empty.txt"
    empty.write_text("...!!! ???", encoding="utf-8")
    assert main(["predict", "--config", str(config_path), str(empty)]) == 3


@pytest.mark.parametrize("target,damage,code", [("document", "latin1", 3),
                                                 ("document", "unreadable", 2),
                                                 ("config", "latin1", 2),
                                                 ("config", "unreadable", 2)])
def test_predict_unreadable_input(trained, tmp_path, monkeypatch, capsys, target, damage, code):
    _, config_path, config = trained
    document = Path(config["corpus"]["root"]) / "class0" / "doc0001.txt"
    # Latin-1 bytes (0xE9 for é) are not UTF-8; `unreadable` fails before any byte is read
    if target == "document":
        path = document = tmp_path / "input.txt"
        path.write_bytes("café market report".encode("latin-1"))
    else:
        path = config_path = tmp_path / "config.json"
        path.write_bytes(json.dumps({**config, "run_name": "café"}, ensure_ascii=False)
                         .encode("latin-1"))
    if damage == "unreadable":
        read_text = Path.read_text

        def failing_read_text(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read_text)
    assert main(["predict", "--config", str(config_path), str(document)]) == code
    assert str(path) in capsys.readouterr().err


def test_sweep_two_values(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["sweep", "--config", str(config_path), "--n", "1,3"]) == 0
    run_dir = _run_dir(workspace)
    rows = [line.split("\t") for line in (run_dir / "sweep.tsv").read_text().splitlines()[1:]]
    assert [(n, kind) for n, _, kind, *_ in rows] == [("1", "linear"), ("3", "linear")]
    out = capsys.readouterr().out
    assert "1-chunk" in out and "3-chunk" in out


def test_sweep_bad_n_exit_2(workspace, capsys):
    _, config_path, _ = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["sweep", "--config", str(config_path), "--n", "1,zebra"]) == 2
    assert main(["sweep", "--config", str(config_path), "--n", "3,3"]) == 2


def test_chunks_flag_overrides_config(workspace, monkeypatch, capsys):
    _, config_path, config = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--chunks", "2"]) == 0
    run_dir = _run_dir(workspace)
    resolved = json.loads((run_dir / "resolved_config.json").read_text())
    assert resolved["chunking"]["n_chunks"] == 2
    from chunkdoc import cli
    from chunkdoc.aggregator import load_aggregator

    assert load_aggregator(run_dir / "aggregator.bin").n_chunks == 2
    # predict takes n from the checkpoint, not from the config (n_chunks 3) or a flag
    embedded = []
    embed_chunks = cli.embed_chunks

    def counting_embed_chunks(pvdm, chunks, *rest):
        embedded.append(len(chunks))
        return embed_chunks(pvdm, chunks, *rest)

    monkeypatch.setattr(cli, "embed_chunks", counting_embed_chunks)
    document = str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt")
    assert main(["predict", "--config", str(config_path), document]) == 0
    assert embedded == [2]
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--config", str(config_path), "--chunks", "5", document])
    assert exc.value.code == 2


def test_predict_reads_its_step_count_from_pvdm_bin(workspace, capsys):
    """The config's embedder.infer_steps sets what `train` saves in pvdm.bin;
    an edit after training changes no byte `predict` prints."""
    _, config_path, config = workspace
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    document = str(Path(config["corpus"]["root"]) / "class0" / "doc0000.txt")
    capsys.readouterr()
    assert main(["predict", "--config", str(config_path), document]) == 0
    trained_steps = capsys.readouterr().out
    config["embedder"]["infer_steps"] = 1
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["predict", "--config", str(config_path), document]) == 0
    assert capsys.readouterr().out == trained_steps
    from chunkdoc.embedder import load_pvdm

    assert load_pvdm(_run_dir(workspace) / "pvdm.bin").infer_steps == 10


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
@pytest.mark.parametrize("damage", ["truncated", "old_format", "empty_header"])
def test_unreadable_checkpoint_exit_2(trained, capsys, command, damage):
    _, config_path, config = trained
    path = _run_dir(trained) / "aggregator.bin"
    good = path.read_bytes()
    if damage == "empty_header":  # a sound container without the model's fields
        checkpoint.save(path, "aggregator", {}, {})
    else:
        path.write_bytes(good[:-7] if damage == "truncated" else b"AGG1\x01\x00\x00\x00" + good[8:])
    args = [command, "--config", str(config_path)]
    if command == "predict":
        args.append(str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt"))
    try:
        assert main(args) == 2
    finally:
        path.write_bytes(good)
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command,kind", [("predict", "pvdm"), ("evaluate", "svm")])
def test_checkpoint_without_its_fields_exit_2(trained, capsys, command, kind):
    _, config_path, config = trained
    path = _run_dir(trained) / f"{kind}.bin"
    good = path.read_bytes()
    checkpoint.save(path, kind, {}, {})
    args = [command, "--config", str(config_path)]
    args += ([str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt")]
             if command == "predict" else ["--classifier", "svm"])
    try:
        assert main(args) == 2
    finally:
        path.write_bytes(good)
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("damage", ["width", "labels"])
def test_svm_bin_of_another_aggregator_exit_2(trained, capsys, command, damage):
    """An svm.bin trained beside another aggregator.bin, one of hidden size 6
    (pooled vectors 12 wide, not 16) or one over other labels, is refused."""
    _, config_path, config = trained
    path = _run_dir(trained) / "svm.bin"
    good = path.read_bytes()
    svm = load_svm(path)
    if damage == "width":
        for machine in svm.machines:
            machine.support_vectors = machine.support_vectors[:, :12]
    else:
        svm.labels = svm.labels[::-1]
    save_svm(svm, path)
    args = [command, "--config", str(config_path)]
    args += ([str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt")]
             if command == "predict" else ["--classifier", "svm"])
    try:
        assert main(args) == 2
    finally:
        path.write_bytes(good)
    assert f"{path} does not match" in capsys.readouterr().err


def test_pvdm_bin_of_the_older_layout_exit_2(trained, capsys):
    """A pvdm.bin written before the step count was saved, with the paragraph
    rows, chunk keys and vocabulary provenance it held then, is refused by
    name: without its inference rule it cannot reproduce the model's inference."""
    _, config_path, config = trained
    path = _run_dir(trained) / "pvdm.bin"
    good = path.read_bytes()
    header, arrays = checkpoint.load(path, "pvdm")
    dim = arrays["W_out"].shape[1]
    old_header = {"dim": dim, "window": header["window"], "negative": header["negative"],
                  "words": header["words"], "min_count": 1,
                  "noise_exponent": header["noise_exponent"], "total_tokens": 100,
                  "chunk_doc_ids": ["class0/doc0000"]}
    old_arrays = {"counts": arrays["counts"], "chunk_indices": np.array([1], dtype=np.int64),
                  "W_in": arrays["W_out"], "W_out": arrays["W_out"],
                  "P": np.zeros((1, dim), dtype=np.float32)}
    checkpoint.save(path, "pvdm", old_header, old_arrays)
    document = str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt")
    try:
        assert main(["predict", "--config", str(config_path), document]) == 2
    finally:
        path.write_bytes(good)
    err = capsys.readouterr().err
    assert str(path) in err and "inference_rule" in err


def test_pvdm_bin_of_the_context_rule_exit_2(trained, capsys):
    """A pvdm.bin laid out as it was while inference read `W_in` (`W_in`
    saved, no inference rule) belongs to a run whose chunk vectors were
    inferred with the context term, so `predict` refuses it by name."""
    _, config_path, config = trained
    path = _run_dir(trained) / "pvdm.bin"
    good = path.read_bytes()
    header, arrays = checkpoint.load(path, "pvdm")
    old_header = {k: v for k, v in header.items() if k != "inference_rule"}
    old_arrays = {"counts": arrays["counts"], "W_in": arrays["W_out"], "W_out": arrays["W_out"]}
    checkpoint.save(path, "pvdm", old_header, old_arrays)
    document = str(Path(config["corpus"]["root"]) / "class0" / "doc0001.txt")
    capsys.readouterr()
    try:
        assert main(["predict", "--config", str(config_path), document]) == 2
    finally:
        path.write_bytes(good)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "'inference_rule'" in captured.err


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evaluate_refuses_a_non_finite_chunk_vector(trained, capsys, value):
    """A chunk vector of a scored document that holds NaN or an infinity is a
    damaged run, not a document to label: exit 2, naming the file and document."""
    _, config_path, _ = trained
    run_dir = _run_dir(trained)
    doc_id = json.loads((run_dir / "split.json").read_text())["test"][0]
    tsv = run_dir / "chunk_embeddings.tsv"
    good = tsv.read_text()
    rows = []
    for line in good.splitlines(keepends=True):
        fields = line.rstrip("\n").split("\t")
        if fields[0] == doc_id:
            line = "\t".join(fields[:3] + [value] + fields[4:]) + "\n"
        rows.append(line)
    tsv.write_text("".join(rows))
    try:
        assert main(["evaluate", "--config", str(config_path), "--split", "test",
                     "--classifier", "both"]) == 2
    finally:
        tsv.write_text(good)
    err = capsys.readouterr().err
    assert str(tsv) in err and doc_id in err and "run `train` again" in err


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


def test_no_flag_of_one_call_is_carried_into_the_next(trained, tmp_path, capsys):
    """The parser is built once per process, yet each `main` call starts from
    the defaults: after `--split test --classifier linear`, a plain `evaluate`
    of a config that selects both heads reports both heads on both splits."""
    _, _, config = trained
    run_dir = _run_dir(trained)
    both = tmp_path / "both.json"
    both.write_text(json.dumps({**config, "classifier": "both"}), encoding="utf-8")
    for stale in run_dir.glob("eval_*"):
        stale.unlink()
    assert main(["evaluate", "--config", str(both), "--split", "test",
                 "--classifier", "linear"]) == 0
    assert sorted(p.name for p in run_dir.glob("eval_*")) == [
        "eval_test_linear.json", "eval_test_linear.txt"]
    capsys.readouterr()
    assert main(["evaluate", "--config", str(both)]) == 0
    assert sorted(p.name for p in run_dir.glob("eval_*")) == sorted(
        f"eval_{split}_{head}.{ext}" for split in ("test", "validation")
        for head in ("linear", "svm") for ext in ("json", "txt"))
    assert [line.split("]")[0] for line in capsys.readouterr().out.splitlines()] == [
        "[validation/linear", "[validation/svm", "[test/linear", "[test/svm"]


def test_verbose_holds_for_its_own_call_only(workspace, caplog):
    """`-v` sets the `chunkdoc` loggers to INFO for the one call that gives it:
    in one process, a plain `prepare`, then `train -v`, then a plain `train`,
    only the middle call logs INFO, and the caller's level comes back."""
    _, config_path, _ = workspace
    package = logging.getLogger("chunkdoc")
    before = package.level
    infos = []
    for argv in (["prepare"], ["train", "-v"], ["train"]):
        caplog.clear()
        assert main([*argv, "--config", str(config_path)]) == 0
        infos.append(sum(r.levelno == logging.INFO and r.name.startswith("chunkdoc.")
                         for r in caplog.records))
        assert package.level == before
    assert infos[0] == 0 and infos[1] > 0 and infos[2] == 0


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("damage", ["malformed", "no_labels", "unlabeled_id", "empty_train",
                                    "empty_test", "overlap", "repeated"])
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
        elif damage == "unlabeled_id":
            del manifest["labels"][manifest["test"][0]]
        elif damage == "overlap":  # a training document scored as test
            manifest["test"].append(manifest["train"][0])
        elif damage == "repeated":  # a test document counted twice
            manifest["test"].append(manifest["test"][0])
        else:
            manifest[damage.split("_")[1]] = []
        path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        assert main([command, "--config", str(config_path), "--classifier", "both"]) == 2
    finally:
        path.write_bytes(good)
    err = capsys.readouterr().err
    assert str(path) in err and "prepare" in err


def test_evaluate_parses_only_the_rows_it_scores(trained):
    _, config_path, _ = trained
    run_dir = _run_dir(trained)
    args = ["evaluate", "--config", str(config_path), "--split", "test", "--classifier", "both"]
    assert main(args) == 0
    before = _eval_reports(run_dir)
    test_ids = set(json.loads((run_dir / "split.json").read_text())["test"])
    tsv = run_dir / "chunk_embeddings.tsv"
    good = tsv.read_text()
    rows = [line if line.split("\t")[0] in test_ids else line.replace("\t", "\tgarbage", 2)
            for line in good.splitlines(keepends=True)]
    tsv.write_text("".join(rows))
    try:
        assert main(args) == 0
    finally:
        tsv.write_text(good)
    assert _eval_reports(run_dir) == before


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, with the caller's count
    set to 2 for the test and put back after it."""
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy bundles no OpenBLAS with thread-count symbols")
    get, set_ = calls
    before = get()
    set_(2)
    try:
        assert get() == 2
        yield get
    finally:
        set_(before)


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_every_command_runs_the_cmd_function_of_its_name(workspace, monkeypatch):
    """Each subcommand of the parser maps to a callable `cmd_<name>`, found at
    call time: a replaced function is the one that runs, and a command renamed
    without its function fails here rather than when it is first run."""
    _, config_path, _ = workspace
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    names = sorted(subparsers.choices)
    assert names == ["evaluate", "predict", "prepare", "sweep", "train"]
    ran = []
    for name in names:
        assert callable(getattr(cli, f"cmd_{name}"))
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: ran.append(args.command) or 0)
    for name in names:
        argv = [name, "--config", str(config_path), *(["doc.txt"] if name == "predict" else [])]
        assert main(argv) == 0
    assert ran == names


@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "raise"])
def test_a_command_runs_at_one_blas_thread_and_restores_the_callers_count(
        workspace, monkeypatch, blas_threads, outcome):
    _, config_path, _ = workspace
    seen = []

    def command(args):
        seen.append(blas_threads())
        if outcome == "exit 2":
            raise ConfigError("a bad input")
        if outcome == "raise":
            raise RuntimeError("a programming error")
        return 0

    monkeypatch.setattr(cli, "cmd_train", command)
    argv = ["train", "--config", str(config_path)]
    if outcome == "raise":
        with pytest.raises(RuntimeError):
            main(argv)
    else:
        assert main(argv) == {"exit 0": 0, "exit 2": 2}[outcome]
    assert seen == [1]
    assert blas_threads() == 2


def test_commands_without_a_bundled_openblas_behave_as_before(workspace, monkeypatch, capsys,
                                                              blas_threads):
    """With no OpenBLAS thread-count symbol found, the thread pin does nothing:
    every command runs at the caller's two threads and prints and writes what
    it does with the pin."""
    _, config_path, config = workspace
    run_dir = _run_dir(workspace)
    document = Path(config["corpus"]["root"]) / "class2" / "doc0003.txt"
    commands = [["prepare"], ["train", "--classifier", "both"], ["predict", str(document)]]

    def run_all():
        stdout = []
        for command in commands:
            assert main([command[0], "--config", str(config_path), *command[1:]]) == 0
            stdout.append(capsys.readouterr().out)
        return stdout, {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}

    pinned = run_all()
    shutil.rmtree(run_dir)
    monkeypatch.setattr(cli, "_blas_thread_calls", lambda: None)
    assert run_all() == pinned
    assert blas_threads() == 2


_TRAIN_IN_A_CHILD = """
import sys
from pathlib import Path
from chunkdoc.aggregator import AggregatorConfig, save_aggregator
from chunkdoc.corpus import split_dataset
from chunkdoc.embedder import EmbedderConfig, export_chunk_embeddings
from chunkdoc.pipeline import PipelineSettings, train_pipeline
from chunkdoc.svm import SVMConfig, save_svm
from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus
corpus = generate_synthetic_corpus(SyntheticSpec(n_classes=3, docs_per_class=8, doc_length=600,
                                                 filler_vocab_size=200, class_vocab_size=10),
                                   seed=4)
settings = PipelineSettings(
    EmbedderConfig(dim=64, window=3, epochs=3, negative=3, min_count=1, per_class=3),
    AggregatorConfig(hidden_size=48, batch_size=8, epochs=6, patience=6), SVMConfig())
pipe = train_pipeline(corpus, split_dataset(corpus, seed=4), settings, n_chunks=2,
                      classifier="both", seed=4)
out = Path(sys.argv[1])
save_aggregator(pipe.aggregator, out / "aggregator.bin")
save_svm(pipe.svm, out / "svm.bin")
export_chunk_embeddings(pipe.embeddings, out / "chunk_embeddings.tsv")
"""


def test_trained_models_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`train_pipeline` writes the same chunk vectors, aggregator and SVM with
    one OpenBLAS thread and with two, so running the commands at one thread
    changes no answer. Each 300-token chunk at dim 64 bins up to about 230
    distinct targets, so a Newton step's syrk is large enough to be threaded."""
    src = Path(chunkdoc.__file__).resolve().parents[1]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _TRAIN_IN_A_CHILD, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(written[0]) == ["aggregator.bin", "chunk_embeddings.tsv", "svm.bin"]
    assert written[1] == written[0]
