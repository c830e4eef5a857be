"""Batch command-line interface.

Commands: prepare, train, evaluate, predict, sweep. One JSON config file
drives everything; flags override it. All artifacts land in
``<output_dir>/<run_name>/`` next to a copy of the resolved configuration;
each is written atomically. `evaluate` reads only split.json (ids and gold
labels), aggregator.bin, svm.bin and chunk_embeddings.tsv, never the corpus.
Every command but `predict` holds a kernel `flock` on the run directory, which
ends with the command, however it ends, and leaves no file.

`predict` takes its chunk count from aggregator.bin and its Newton step count
from pvdm.bin, so a config edited after `train` changes neither, and labels
one document's pooled vector with `pipeline.label_documents`, the function
`evaluate` scores with. It prints one JSON object: `label` and
`probabilities`, the linear head's answer, and, when the run holds svm.bin,
`svm_label`, the SVM head's label. `train` first removes the run's svm.bin and
eval reports, so no head or report from an earlier run outlives a retrain, and
svm.bin is there only if the last `train` trained the SVM; a `train` that
fails before training (a missing corpus or split.json) leaves the run as it
was. A chunk's vector follows from the model and the chunk's words alone, so
`predict`'s output depends on neither the file name nor `--seed`, and
`--classifier` changes none of it either. For a corpus document it is the
answer `evaluate` scores, except in the `corpus.boilerplate_labels` classes
(`10-K`/`10-Q` by default): `load_corpus` strips their first 6 lines, chosen
by gold label, and `predict`, which has no label, strips nothing.

`prepare` never rewrites the split of a run that holds a trained model, and
neither `prepare` nor `sweep` rewrites its resolved_config.json: its test
documents could be the model's training documents, and the config is the one
the model was trained under (`train` writes it).

Each command runs at one OpenBLAS thread, and logs INFO only if given `-v`;
it leaves the caller's thread count and `chunkdoc` log level as it found
them, however the command ends. Every BLAS call in the pipeline is
small (a syrk of a few hundred rows by 64 per Newton step, 64 x 64 solves,
LSTM products of a batch by the hidden size), yet after a threaded call
OpenBLAS's workers keep spinning and take a core from the Python thread: on
a two-core host that about doubled `evaluate`'s time. No output depends on
the thread count. The count is set through numpy's bundled OpenBLAS; with
another BLAS the commands run at its own setting.

The argument parser is built once per process (`build_parser` is cached):
callers that run `main` in process, back to back, such as the benchmark's
closed loop and the tests, would otherwise rebuild the same five subparsers on
every call, which took about 0.8 ms of a 5-ms `evaluate` on a two-core host.
The parser holds no function; `main` finds the command by its name when
called, so the cached parser never keeps a `cmd_*` that was since replaced.

Flags override the config file's values before it is checked, so a flag
value out of range (`--seed -1`, `--chunks 0`) fails like a file value.

Exit codes: 0 success, 2 a config or input error (ConfigError) or an argparse
usage error, 3 a data error (DataError), 4 a training failure (TrainingError).
`errors.py` lists what raises each.
"""

from __future__ import annotations

import argparse
import ctypes
import fcntl
import functools
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .aggregator import document_vectors, load_aggregator, save_aggregator, write_training_log
from .checkpoint import atomic_write
from .chunker import split_into_chunks
from .config import PipelineConfig, load_config
from .corpus import DatasetSplit, corpus_stats, load_corpus, split_dataset, tokenize
from .embedder import (embed_chunks, export_chunk_embeddings, load_chunk_embeddings,
                       load_pvdm, save_pvdm)
from .errors import ConfigError, DataError, TrainingError
from .evaluation import export_embeddings
from .pipeline import HEADS, evaluate, label_documents, mean_chunk_vectors, train_pipeline
from .svm import load_svm, save_svm
from .sweep import DEFAULT_N_LIST, format_sweep_table, run_chunk_sweep, write_sweep_tsv

logger = logging.getLogger(__name__)


@contextmanager
def run_lock(run_dir: Path):
    """Exclusive `flock` on the run directory, so two commands never write it at once.
    The kernel drops it when the descriptor closes or the process ends; no file is written."""
    run_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"run directory {run_dir} is locked by another command") from None
        yield
    finally:
        os.close(fd)


@functools.cache  # one lookup per process: the library stays loaded with numpy
def _blas_thread_calls():
    """The thread-count getter and setter of the OpenBLAS that numpy bundles, or
    None. The symbols are private to that build, so any other BLAS has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))  # numpy loaded it already: the same handle
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread, then restore the caller's count,
    however the block ends. Without numpy's bundled OpenBLAS it does nothing."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _resolved_config(args) -> PipelineConfig:
    """The config file with the command's flags applied, checked as one."""
    flags = {"output_dir": args.output, "split.seed": args.seed, "aggregator.seed": args.seed,
             "chunking.n_chunks": getattr(args, "chunks", None), "classifier": args.classifier}
    return load_config(args.config, {k: v for k, v in flags.items() if v is not None})


def _load_prepared(config: PipelineConfig):
    corpus = load_corpus(config.corpus.root, config.label_set(), config.header_labels())
    return corpus, DatasetSplit.load(config.run_dir() / "split.json")


def _write_resolved(config: PipelineConfig) -> None:
    atomic_write(config.run_dir() / "resolved_config.json", config.to_json())


def _holds_model(run_dir: Path) -> bool:
    """Whether the run holds a trained model, whose resolved_config.json only
    `train` may write."""
    return any((run_dir / name).exists() for name in ("pvdm.bin", "aggregator.bin"))


def _check_split_kept(run_dir: Path, split: DatasetSplit) -> None:
    """A run holding a trained model keeps the split it was trained on: a new
    split with other ids or labels is a ConfigError. An absent or unreadable
    split.json has nothing to keep, so `prepare` may write it."""
    try:
        old = DatasetSplit.load(run_dir / "split.json")
    except ConfigError:
        return
    if ((old.train, old.validation, old.test, old.labels)
            != (split.train, split.validation, split.test, split.labels)):
        raise ConfigError(f"run directory {run_dir} holds a model trained on another split; "
                          "use another run_name, or delete its checkpoints first")


def cmd_prepare(args) -> int:
    config = _resolved_config(args)
    run_dir = config.run_dir()
    with run_lock(run_dir):
        corpus = load_corpus(config.corpus.root, config.label_set(), config.header_labels())
        split = split_dataset(corpus, config.split.seed)
        if _holds_model(run_dir):
            _check_split_kept(run_dir, split)  # and the config the model was trained under
        else:
            _write_resolved(config)
        split.save(run_dir / "split.json")
        stats = corpus_stats(corpus)
        atomic_write(run_dir / "stats.txt", stats.format_table() + "\n")
        atomic_write(run_dir / "stats.json", json.dumps(stats.to_dict(), indent=2) + "\n")
        print(stats.format_table())
        print(f"split sizes: train={len(split.train)} validation={len(split.validation)} "
              f"test={len(split.test)} (seed {split.seed})")
    return 0


def cmd_train(args) -> int:
    config = _resolved_config(args)
    run_dir = config.run_dir()
    with run_lock(run_dir):
        corpus, split = _load_prepared(config)
        marker = run_dir / "INCOMPLETE"
        marker.write_text("training in progress\n", encoding="utf-8")
        _write_resolved(config)
        for stale in [run_dir / "svm.bin", *run_dir.glob("eval_*")]:  # no earlier head or report
            stale.unlink(missing_ok=True)
        pipe = train_pipeline(
            corpus, split, config.settings(),
            n_chunks=config.chunking.n_chunks,
            classifier=config.classifier,
            seed=config.aggregator.seed,
        )
        save_pvdm(pipe.pvdm, run_dir / "pvdm.bin")
        save_aggregator(pipe.aggregator, run_dir / "aggregator.bin")
        write_training_log(pipe.train_log, run_dir / "train_log.jsonl")
        export_chunk_embeddings(pipe.embeddings, run_dir / "chunk_embeddings.tsv")
        doc_labels = {d.id: d.label for d in corpus}
        export_embeddings(mean_chunk_vectors(pipe.embeddings), doc_labels,
                          run_dir / "embeddings_doc2vec.tsv")
        export_embeddings(pipe.doc_vectors, doc_labels, run_dir / "embeddings_bilstm.tsv")
        if pipe.svm is not None:
            save_svm(pipe.svm, run_dir / "svm.bin")
        marker.unlink()
        best = max(pipe.train_log, key=lambda r: r["val_f1"])
        print(f"trained {config.chunking.n_chunks}-chunk model: "
              f"best val macro-F1 {100 * best['val_f1']:.2f} at epoch {best['epoch']} "
              f"({len(pipe.train_log)} epochs run)")
    return 0


def _checkpoint(load, path: Path, hint: str = "run `train` first"):
    """Load one checkpoint of a finished run; a missing or unreadable file, one
    missing a field its model needs, or an INCOMPLETE marker beside it, is a
    ConfigError (exit 2)."""
    marker = path.parent / "INCOMPLETE"
    if marker.exists():
        raise ConfigError(f"{marker} exists: the last `train` did not finish; run `train` again")
    if not path.is_file():
        raise ConfigError(f"missing checkpoint {path}; {hint}")
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint: {exc}; run `train` again") from None
    except (KeyError, TypeError, ValueError) as exc:  # a sound container, a bad or missing field
        raise ConfigError(f"cannot read checkpoint {path}: bad or missing field {exc}; "
                          "run `train` again") from None


def _load_heads(run_dir: Path, with_svm: bool):
    """The run's aggregator and, if `with_svm`, its SVM (else None). An svm.bin
    with other labels than aggregator.bin, or whose support vectors are not
    the aggregator's pooled-vector width, is a ConfigError: it was trained
    beside another aggregator."""
    aggregator = _checkpoint(load_aggregator, run_dir / "aggregator.bin")
    if not with_svm:
        return aggregator, None
    path = run_dir / "svm.bin"
    svm = _checkpoint(load_svm, path, "train with --classifier svm")
    width = 2 * aggregator.hidden_size
    if (svm.labels != aggregator.labels
            or any(m.support_vectors.shape[1:] != (width,) for m in svm.machines)):
        raise ConfigError(f"{path} does not match {run_dir / 'aggregator.bin'}; "
                          "run `train` again")
    return aggregator, svm


def _load_run(run_dir: Path, doc_ids: list[str], need_svm: bool):
    """The run's aggregator, its SVM (None unless `need_svm`) and the pooled
    vectors of `doc_ids`, from chunk_embeddings.tsv, which must hold chunks 1..k
    (k <= n_chunks) of each of `doc_ids`, each finite and of the checkpoint's
    embedding_dim."""
    aggregator, svm = _load_heads(run_dir, need_svm)
    path = run_dir / "chunk_embeddings.tsv"
    try:
        embeddings = load_chunk_embeddings(path, doc_ids)
    except (OSError, ValueError) as exc:  # missing, unreadable or malformed
        raise ConfigError(f"cannot read chunk vectors {path}: {exc}; run `train` again") from None
    embeddings = {i: embeddings.get(i, []) for i in doc_ids}
    for doc_id, embs in embeddings.items():
        if (not 1 <= len(embs) <= aggregator.n_chunks
                or [e.index for e in embs] != list(range(1, len(embs) + 1))
                or any(len(e.vector) != aggregator.embedding_dim for e in embs)):
            raise ConfigError(f"{path} lacks chunk vectors of {doc_id}; run `train` again")
        if not all(np.isfinite(e.vector).all() for e in embs):
            raise ConfigError(f"{path} holds a non-finite vector of {doc_id}; run `train` again")
    return aggregator, svm, document_vectors(aggregator, embeddings)


def cmd_evaluate(args) -> int:
    config = _resolved_config(args)
    run_dir = config.run_dir()
    heads = HEADS[config.classifier]
    split_names = ["validation", "test"] if args.split == "all" else [args.split]
    with run_lock(run_dir):
        split = DatasetSplit.load(run_dir / "split.json")
        doc_ids = [i for name in split_names for i in getattr(split, name)]
        aggregator, svm, doc_vectors = _load_run(run_dir, doc_ids, need_svm="svm" in heads)
        for split_name in split_names:
            reports = evaluate(aggregator, svm, doc_vectors, split, split_name)
            for head in heads:
                report = reports[head]
                base = run_dir / f"eval_{split_name}_{head}"
                atomic_write(base.with_suffix(".json"), report.to_json())
                atomic_write(base.with_suffix(".txt"), report.format_table())
                print(f"[{split_name}/{head}] macro-F1 {100 * report.macro_f1:.2f} "
                      f"micro-F1 {100 * report.micro_f1:.2f}")
    return 0


def cmd_predict(args) -> int:
    config = _resolved_config(args)
    run_dir = config.run_dir()
    pvdm = _checkpoint(load_pvdm, run_dir / "pvdm.bin")
    # `train` deletes svm.bin unless it trains the SVM, so the file records the run's heads
    aggregator, svm = _load_heads(run_dir, with_svm=(run_dir / "svm.bin").exists())
    input_path = Path(args.input)
    if not input_path.is_file():
        raise ConfigError(f"input file not found: {input_path}")
    try:
        text = input_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"document {input_path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read input file {input_path}: {exc}") from None

    tokens = tokenize(text)
    if not tokens:
        raise DataError(f"document {input_path} is empty after preprocessing")
    chunks = split_into_chunks(tokens, aggregator.n_chunks, doc_id=input_path.stem)
    embs = embed_chunks(pvdm, chunks, pvdm.infer_steps)
    doc_vector = document_vectors(aggregator, {input_path.stem: embs})[input_path.stem][None, :]
    heads = label_documents(aggregator, svm, doc_vector)
    probs = aggregator.classify(doc_vector)[0]
    print(json.dumps({"label": heads.pop("linear")[0],
                      "probabilities": {lab: float(p) for lab, p in zip(aggregator.labels, probs)},
                      **{f"{head}_label": labels[0] for head, labels in heads.items()}}))
    return 0


def cmd_sweep(args) -> int:
    config = _resolved_config(args)
    run_dir = config.run_dir()
    if args.n is not None:
        try:
            n_list = [int(part) for part in args.n.split(",") if part]
        except ValueError:
            raise ConfigError(f"--n expects a comma-separated integer list, got {args.n!r}")
        if not n_list or min(n_list) < 1:
            raise ConfigError(f"--n values must be >= 1, got {args.n!r}")
        if len(set(n_list)) < len(n_list):
            raise ConfigError(f"--n values must be distinct, got {args.n!r}")
    else:
        n_list = list(DEFAULT_N_LIST)
    with run_lock(run_dir):
        corpus, split = _load_prepared(config)
        if not _holds_model(run_dir):
            _write_resolved(config)
        rows = run_chunk_sweep(corpus, split, n_list, config.classifier,
                               config.sweep_seeds(), config.settings())
        write_sweep_tsv(rows, run_dir / "sweep.tsv")
        print(format_sweep_table(rows))
    if all(r.failed for r in rows):
        raise TrainingError("every sweep cell failed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command. It holds no function: `main` looks each
    command up by name at call time, so a replaced `cmd_*` is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="chunkdoc",
        description="Classify long documents by chunking, chunk embeddings, and an "
                    "attention BiLSTM aggregator with linear or SVM heads.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config file")
    common.add_argument("--output", default=None, help="override output_dir")
    common.add_argument("--seed", type=int, default=None,
                        help="override the split and training seeds")
    common.add_argument("--classifier", choices=list(HEADS), default=None,
                        help="override the classifier head selection")
    common.add_argument("-v", "--verbose", action="store_true", help="info-level logging")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare", parents=[common],
                   help="load the corpus, write the split manifest and stats")
    p = sub.add_parser("train", parents=[common],
                       help="train embedder, aggregator, and optional SVM; write checkpoints")
    p.add_argument("--chunks", type=int, default=None, help="override chunking.n_chunks")
    p = sub.add_parser("evaluate", parents=[common], help="write F1 reports and confusion matrices")
    p.add_argument("--split", choices=["validation", "test", "all"], default="all")
    p = sub.add_parser("predict", parents=[common], help="label one document with every trained head")
    p.add_argument("input", help="path to a UTF-8 text file")
    p = sub.add_parser("sweep", parents=[common], help="train across chunk counts, emit a TSV")
    p.add_argument("--n", default=None, help="comma-separated chunk counts (default 1,3,5,7,10,25,50)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"prepare": cmd_prepare, "train": cmd_train, "evaluate": cmd_evaluate,
               "predict": cmd_predict, "sweep": cmd_sweep}[args.command]
    # installs the stderr handler once per process; `-v` sets the level for this call only
    logging.basicConfig(format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    package_logger = logging.getLogger("chunkdoc")
    caller_level = package_logger.level
    package_logger.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        with one_blas_thread():
            return command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4
    finally:
        package_logger.setLevel(caller_level)


if __name__ == "__main__":
    sys.exit(main())
