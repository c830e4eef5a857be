"""Batch command-line interface.

Commands: prepare, train, evaluate, predict, sweep. One JSON config file
drives everything; flags override it. All artifacts land in
``<output_dir>/<run_name>/`` next to a copy of the resolved configuration;
each is written atomically. `evaluate` reads only split.json (ids and gold
labels), aggregator.bin, svm.bin and chunk_embeddings.tsv, never the corpus.
Every command but `predict` holds a kernel `flock` on the run directory, which
ends with the command, however it ends, and leaves no file.

`predict` takes its chunk count from aggregator.bin and labels one document
through the path `evaluate` scores: pooled document vector, then the linear
head. A chunk's vector follows from the model and the chunk's words alone, so
`predict`'s answer depends on neither the file name nor `--seed`, and for a
corpus document it is the one `evaluate` scores. `train` first removes the
run's svm.bin and eval reports, so no head or report from an earlier run
outlives a retrain. `prepare` never rewrites the split of a run that holds a
trained model: its test documents could be the model's training documents.

Flags override the config file's values before it is checked, so a flag
value out of range (`--seed -1`, `--chunks 0`) fails like a file value.

Exit codes: 0 success, 2 input/config error (including a config value of the
wrong type, NaN or infinite, or out of range, such as a negative seed, an
`aggregator.batch_size` under 2, a repeated `aggregator.seeds` value or a
`run_name` of `.` or `..`; a run directory another command holds; an
unreadable config, split.json or input file; a split.json that lists a
document id twice; a `prepare` whose split differs from the split.json of a
run that holds pvdm.bin or aggregator.bin; a missing or unreadable checkpoint,
or one missing a field, or chunk_embeddings.tsv; or a run left INCOMPLETE by
an unfinished `train`), 3
data error (such as a `predict` input that is empty or not UTF-8), 4 training
failure.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .aggregator import document_vectors, load_aggregator, save_aggregator, write_training_log
from .checkpoint import atomic_write
from .chunker import split_into_chunks
from .config import PipelineConfig, load_config
from .corpus import DatasetSplit, corpus_stats, load_corpus, split_dataset, tokenize
from .embedder import (embed_chunks, export_chunk_embeddings, load_chunk_embeddings,
                       load_pvdm, save_pvdm)
from .errors import ConfigError, DataError, TrainingError
from .evaluation import export_embeddings
from .pipeline import HEADS, TrainedPipeline, evaluate, mean_chunk_vectors, train_pipeline
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


def _check_split_kept(run_dir: Path, split: DatasetSplit) -> None:
    """A run holding a trained model keeps the split it was trained on: a new
    split with other ids or labels is a ConfigError. An absent or unreadable
    split.json has nothing to keep, so `prepare` may write it."""
    if not any((run_dir / name).exists() for name in ("pvdm.bin", "aggregator.bin")):
        return
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
        _check_split_kept(run_dir, split)
        _write_resolved(config)
        split.save(run_dir / "split.json")
        stats = corpus_stats(corpus, config.header_labels())
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
        _write_resolved(config)
        corpus, split = _load_prepared(config)
        marker = run_dir / "INCOMPLETE"
        marker.write_text("training in progress\n", encoding="utf-8")
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


def _load_run(run_dir: Path, doc_ids: list[str], need_svm: bool) -> TrainedPipeline:
    """The trained pipeline in a run directory, pooled for `doc_ids`: the checkpoints
    plus chunk_embeddings.tsv, which must hold chunks 1..k (k <= n_chunks) of each
    of `doc_ids`, each of the checkpoint's embedding_dim."""
    aggregator = _checkpoint(load_aggregator, run_dir / "aggregator.bin")
    svm = (_checkpoint(load_svm, run_dir / "svm.bin", "train with --classifier svm")
           if need_svm else None)
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
    return TrainedPipeline(
        pvdm=None, embeddings=embeddings, aggregator=aggregator, train_log=[],
        doc_vectors=document_vectors(aggregator, embeddings), svm=svm,
    )


def cmd_evaluate(args) -> int:
    config = _resolved_config(args)
    run_dir = config.run_dir()
    heads = HEADS[config.classifier]
    split_names = ["validation", "test"] if args.split == "all" else [args.split]
    with run_lock(run_dir):
        split = DatasetSplit.load(run_dir / "split.json")
        doc_ids = [i for name in split_names for i in getattr(split, name)]
        pipe = _load_run(run_dir, doc_ids, need_svm="svm" in heads)
        for split_name in split_names:
            for head in heads:
                report = evaluate(pipe, split, split_name, head)
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
    aggregator = _checkpoint(load_aggregator, run_dir / "aggregator.bin")
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
    embs = embed_chunks(pvdm, chunks, config.embedder.infer_steps)
    doc_vector = document_vectors(aggregator, {input_path.stem: embs})[input_path.stem]
    probs = aggregator.classify(doc_vector[None, :])[0]
    probabilities = {lab: float(p) for lab, p in zip(aggregator.labels, probs)}
    label = aggregator.labels[int(probs.argmax())]
    print(json.dumps({"label": label, "probabilities": probabilities}))
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
        _write_resolved(config)
        corpus, split = _load_prepared(config)
        rows = run_chunk_sweep(corpus, split, n_list, HEADS[config.classifier],
                               config.sweep_seeds(), config.settings())
        write_sweep_tsv(rows, run_dir / "sweep.tsv")
        print(format_sweep_table(rows))
    if all(r.failed for r in rows):
        raise TrainingError("every sweep cell failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p = sub.add_parser("prepare", parents=[common],
                       help="load the corpus, write the split manifest and stats")
    p.set_defaults(func=cmd_prepare)
    p = sub.add_parser("train", parents=[common],
                       help="train embedder, aggregator, and optional SVM; write checkpoints")
    p.add_argument("--chunks", type=int, default=None, help="override chunking.n_chunks")
    p.set_defaults(func=cmd_train)
    p = sub.add_parser("evaluate", parents=[common], help="write F1 reports and confusion matrices")
    p.add_argument("--split", choices=["validation", "test", "all"], default="all")
    p.set_defaults(func=cmd_evaluate)
    p = sub.add_parser("predict", parents=[common], help="classify one plain-text document")
    p.add_argument("input", help="path to a UTF-8 text file")
    p.set_defaults(func=cmd_predict)
    p = sub.add_parser("sweep", parents=[common], help="train across chunk counts, emit a TSV")
    p.add_argument("--n", default=None, help="comma-separated chunk counts (default 1,3,5,7,10,25,50)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
