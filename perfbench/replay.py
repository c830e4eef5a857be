"""Traced run: the CLI session once untraced, then a replay through the layers.

The replay calls the same public functions in the order ``cmd_train``,
``cmd_evaluate`` and ``cmd_predict`` call them, each inside a span (name,
start, end, parent). Spans stay in memory and are written as JSON lines when
the run ends. A layer is the first part of a span name: corpus, chunker,
embedder, aggregator, svm, evaluation, cli. A span's self time is its
duration minus its children's.

The replay must reproduce the CLI's results bit for bit; when it does not,
``trace.replay_matches`` is 0 and a warning goes to stderr. A mismatch is
not a failed operation.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from chunkdoc.aggregator import (AdamState, adam_step, attention_backward, attention_forward,
                                 backward_batch, batchnorm_backward, batchnorm_forward,
                                 bilstm_forward, collate, document_vectors, forward_batch,
                                 load_aggregator, lstm_direction_backward, save_aggregator,
                                 train_aggregator, write_training_log)
from chunkdoc.chunker import chunk_document, split_into_chunks
from chunkdoc.config import load_config
from chunkdoc.corpus import load_corpus, split_dataset, tokenize
from chunkdoc.embedder import (ChunkEmbedding, build_vocab, embed_corpus,
                               export_chunk_embeddings, infer_vector, load_chunk_embeddings,
                               load_pvdm, sample_embedding_training_docs, save_pvdm, train_pvdm)
from chunkdoc.errors import OOVChunkError
from chunkdoc.evaluation import export_embeddings, f1_report
from chunkdoc.pipeline import mean_chunk_vectors
from chunkdoc.svm import (load_svm, rbf_kernel_matrix, save_svm, solve_binary_dual,
                          train_multiclass_svm)

PER_LAYER_UNITS = {
    "corpus.load_s": "s",
    "corpus.tokens": "count",
    "corpus.docs": "count",
    "chunker.chunk_s": "s",
    "chunker.chunks": "count",
    "embedder.share": "ratio",
    "embedder.vocab_s": "s",
    "embedder.vocab_size": "count",
    "embedder.train_s": "s",
    "embedder.train_positions": "count",
    "embedder.train_us_per_position": "us",
    "embedder.final_epoch_loss": "nats",
    "embedder.infer_s": "s",
    "embedder.infer_position_steps": "count",
    "embedder.infer_us_per_position_step": "us",
    "embedder.oov_chunks": "count",
    "embedder.infer_one_ms": "ms",
    "embedder.infer_one_us_per_position_step": "us",
    "embedder.infer_one_share": "ratio",
    "aggregator.share": "ratio",
    "aggregator.train_s": "s",
    "aggregator.epochs": "count",
    "aggregator.best_epoch": "count",
    "aggregator.s_per_epoch": "s",
    "aggregator.lstm_fwd_ms": "ms",
    "aggregator.lstm_bwd_ms": "ms",
    "aggregator.attn_fwd_ms": "ms",
    "aggregator.attn_bwd_ms": "ms",
    "aggregator.bn_fwd_ms": "ms",
    "aggregator.bn_bwd_ms": "ms",
    "aggregator.head_fwd_ms": "ms",
    "aggregator.head_bwd_ms": "ms",
    "aggregator.adam_ms": "ms",
    "aggregator.doc_vectors_s": "s",
    "aggregator.predict_ms": "ms",
    "aggregator.load_ms": "ms",
    "svm.train_s": "s",
    "svm.kernel_s": "s",
    "svm.smo_iterations": "count",
    "svm.iteration_cap_hits": "count",
    "svm.support_vectors": "count",
    "svm.decision_s": "s",
    "cli.artifacts_s": "s",
    "cli.embeddings_tsv_load_s": "s",
    "evaluation.report_s": "s",
    "trace.overhead_s": "s",
    "trace.replay_matches": "count",
}

# Files `chunkdoc train` writes that the replay writes too; byte-equal when it matches.
_ARTIFACTS = ("pvdm.bin", "aggregator.bin", "svm.bin", "chunk_embeddings.tsv",
              "embeddings_doc2vec.tsv", "embeddings_bilstm.tsv", "train_log.jsonl")
_LAYER_REPEATS = 5


class Tracer:
    """Spans kept in memory. Spans under one root share its id as `trace`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._open[-1] if self._open else None
        record = {"id": len(self.spans), "name": name,
                  "parent": parent["id"] if parent else None,
                  "trace": parent["trace"] if parent else len(self.spans),
                  "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def finish(self) -> None:
        """Add each span's duration and self time (duration minus its children's)."""
        for s in self.spans:
            s["duration"] = s["end"] - s["start"]
            s["self"] = s["duration"]
        for s in self.spans:
            if s["parent"] is not None:
                self.spans[s["parent"]]["self"] -= s["duration"]

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def total(self, name: str, root: str | None = None) -> float:
        """Summed duration of spans called `name`, optionally only under roots called `root`."""
        keep = None if root is None else {s["id"] for s in self.roots(root)}
        return sum(s["duration"] for s in self.spans
                   if s["name"] == name and (keep is None or s["trace"] in keep))

    def layer_self(self, root: str) -> dict[str, float]:
        """Self time per layer under roots called `root`; the roots' own self time is 'other'."""
        keep = {s["id"] for s in self.roots(root)}
        out: dict[str, float] = {}
        for s in self.spans:
            if s["trace"] in keep:
                layer = "other" if s["parent"] is None else s["name"].split(".")[0]
                out[layer] = out.get(layer, 0.0) + s["self"]
        return out


def _chunk_seed(seed: int, doc_id: str, index: int) -> list[int]:
    """The per-chunk inference seed `chunkdoc predict` uses for a file's stem."""
    return [seed, zlib.crc32(doc_id.encode("utf-8")), index]


def _bytes_equal(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def _predict_batches(model, embeddings, doc_ids, batch_size=512) -> list[str]:
    """Linear-head labels in the batches `chunkdoc evaluate` uses."""
    labels = []
    for start in range(0, len(doc_ids), batch_size):
        x, mask = collate([embeddings[i] for i in doc_ids[start:start + batch_size]])
        preds, _ = model.predict(x, mask)
        labels += [model.labels[i] for i in preds]
    return labels


def replay_train(tr: Tracer, config, out: Path) -> dict:
    """`prepare` + `train` + `evaluate --split test`, layer by layer."""
    settings = config.settings()
    emb_cfg = settings.embedder
    n, seed = config.chunking.n_chunks, config.aggregator.seed
    out.mkdir(parents=True, exist_ok=True)
    with tr.span("replay.train"):
        with tr.span("corpus.load_corpus"):
            corpus = load_corpus(config.corpus.root, config.label_set(), config.header_labels())
        with tr.span("corpus.split_dataset"):
            split = split_dataset(corpus, config.split.seed)
        with tr.span("embedder.sample_embedding_training_docs"):
            sample = sample_embedding_training_docs(corpus, split, settings.per_class,
                                                    seed=[seed, 0])
        with tr.span("chunker.chunk_document"):
            train_chunks = [c for doc in sample for c in chunk_document(doc, n)]
        with tr.span("embedder.build_vocab"):
            vocab = build_vocab(train_chunks, emb_cfg.min_count, emb_cfg.noise_exponent)
        with tr.span("embedder.train_pvdm"):
            pvdm = train_pvdm(train_chunks, vocab, emb_cfg, seed=[seed, 1])
        with tr.span("embedder.embed_corpus"):
            embeddings = embed_corpus(pvdm, corpus, n, steps=emb_cfg.infer_steps, seed=seed,
                                      alpha=emb_cfg.alpha, min_alpha=emb_cfg.min_alpha)
        with tr.span("aggregator.train_aggregator"):
            aggregator, train_log = train_aggregator(corpus, split, embeddings,
                                                     settings.aggregator, seed=seed, n_chunks=n)
        with tr.span("aggregator.document_vectors"):
            doc_vecs = document_vectors(aggregator, embeddings)
        with tr.span("svm.train_multiclass_svm"):
            train_x = np.stack([doc_vecs[i] for i in split.train])
            train_y = [corpus.get(i).label for i in split.train]
            svm = train_multiclass_svm(train_x, train_y, list(corpus.label_set), settings.svm,
                                       seed=seed)
        with tr.span("cli.write_artifacts"):
            with tr.span("cli.save_pvdm"):
                save_pvdm(pvdm, out / "pvdm.bin")
            with tr.span("cli.save_aggregator"):
                save_aggregator(aggregator, out / "aggregator.bin")
            with tr.span("cli.write_training_log"):
                write_training_log(train_log, out / "train_log.jsonl")
            with tr.span("cli.export_chunk_embeddings"):
                export_chunk_embeddings(embeddings, out / "chunk_embeddings.tsv")
            doc_labels = {d.id: d.label for d in corpus}
            with tr.span("cli.export_embeddings"):
                export_embeddings(mean_chunk_vectors(embeddings), doc_labels,
                                  out / "embeddings_doc2vec.tsv")
                export_embeddings(doc_vecs, doc_labels, out / "embeddings_bilstm.tsv")
            with tr.span("cli.save_svm"):
                save_svm(svm, out / "svm.bin")

    test = list(split.test)
    gold = [corpus.get(i).label for i in test]
    with tr.span("replay.evaluate"):
        with tr.span("cli.load_pvdm"):
            load_pvdm(out / "pvdm.bin")
        with tr.span("aggregator.load_aggregator"):
            loaded = load_aggregator(out / "aggregator.bin")
        with tr.span("svm.load_svm"):
            loaded_svm = load_svm(out / "svm.bin")
        with tr.span("cli.load_chunk_embeddings"):
            loaded_emb = load_chunk_embeddings(out / "chunk_embeddings.tsv")
        with tr.span("aggregator.document_vectors"):
            eval_vecs = document_vectors(loaded, loaded_emb)
        with tr.span("aggregator.predict"):
            linear = _predict_batches(loaded, loaded_emb, test)
        with tr.span("evaluation.f1_report"):
            f1_linear = f1_report(linear, gold, corpus.label_set, split="test").macro_f1
        with tr.span("svm.decision"):
            svm_labels = loaded_svm.predict(np.stack([eval_vecs[i] for i in test]))
        with tr.span("evaluation.f1_report"):
            f1_svm = f1_report(svm_labels, gold, corpus.label_set, split="test").macro_f1

    # Probes outside the replayed commands: whole-corpus chunking and the SVM's solver.
    with tr.span("chunker.chunk_corpus"):
        corpus_chunks = [chunk_document(doc, n) for doc in corpus]
    gamma = svm.gamma
    with tr.span("svm.rbf_kernel_matrix"):
        rbf_kernel_matrix(train_x, train_x, gamma)
    iterations = []
    for label in svm.labels:
        y = np.where(np.asarray(train_y) == label, 1.0, -1.0)
        with tr.span("svm.solve_binary_dual"):
            iterations.append(solve_binary_dual(train_x, y, svm.C, gamma, svm.tolerance,
                                                svm.max_passes)[2])

    infer_positions = 0
    for chunks in corpus_chunks:
        for chunk in chunks:
            infer_positions += len(pvdm.vocab.encode(chunk.tokens))
    best = max(range(len(train_log)), key=lambda i: train_log[i]["val_f1"])
    return {
        "corpus": corpus, "split": split, "embeddings": embeddings, "aggregator": aggregator,
        "settings": settings, "test_vecs": {i: eval_vecs[i] for i in test},
        "f1": {"linear": f1_linear, "svm": f1_svm},
        "counts": {
            "corpus.tokens": sum(len(d.tokens) for d in corpus),
            "corpus.docs": len(corpus),
            "chunker.chunks": sum(len(c) for c in corpus_chunks),
            "embedder.vocab_size": len(vocab),
            "embedder.train_positions":
                sum(len(vocab.encode(c.tokens)) for c in train_chunks) * emb_cfg.epochs,
            "embedder.final_epoch_loss": pvdm.epoch_losses[-1] if pvdm.epoch_losses else 0.0,
            "embedder.infer_position_steps": infer_positions * emb_cfg.infer_steps,
            "embedder.oov_chunks": sum(1 for embs in embeddings.values() for e in embs
                                       if not e.vector.any()),
            "aggregator.epochs": len(train_log),
            "aggregator.best_epoch": train_log[best]["epoch"],
            "svm.smo_iterations": sum(iterations),
            "svm.iteration_cap_hits": sum(1 for it in iterations if it >= svm.max_passes),
            "svm.support_vectors": sum(len(m.dual_coef) for m in svm.machines),
        },
    }


def replay_predict(tr: Tracer, config, out: Path, path: Path) -> dict[str, float]:
    """One `chunkdoc predict <path>`, layer by layer; returns the probabilities."""
    emb_cfg = config.embedder
    with tr.span("replay.predict"):
        with tr.span("cli.load_pvdm"):
            pvdm = load_pvdm(out / "pvdm.bin")
        with tr.span("aggregator.load_aggregator"):
            aggregator = load_aggregator(out / "aggregator.bin")
        with tr.span("corpus.tokenize"):
            tokens = tokenize(path.read_text(encoding="utf-8"))
        with tr.span("chunker.split_into_chunks"):
            chunks = split_into_chunks(tokens, aggregator.n_chunks, doc_id=path.stem)
        embs = []
        for chunk in chunks:
            positions = len(pvdm.vocab.encode(chunk.tokens))
            with tr.span("embedder.infer_vector", position_steps=positions * emb_cfg.infer_steps):
                try:
                    vec = infer_vector(pvdm, chunk.tokens, emb_cfg.infer_steps,
                                       _chunk_seed(config.aggregator.seed, path.stem, chunk.index),
                                       emb_cfg.alpha, emb_cfg.min_alpha)
                except OOVChunkError:
                    vec = np.zeros(pvdm.dim, dtype=np.float32)
            embs.append(ChunkEmbedding(path.stem, chunk.index, vec))
        with tr.span("aggregator.predict"):
            _, probs = aggregator.predict(*collate([embs]))
    return {label: float(p) for label, p in zip(aggregator.labels, probs[0])}


def _median_ms(fn, repeats: int = _LAYER_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def aggregator_layers(trained: dict) -> dict[str, float]:
    """Forward and backward time of each aggregator layer on one fixed batch
    shaped like the workload: B = batch_size, T = n_chunks, E = dim, H = hidden."""
    model, cfg = trained["aggregator"], trained["settings"].aggregator
    split, corpus = trained["split"], trained["corpus"]
    batch_ids = sorted(split.train)[:min(cfg.batch_size, len(split.train))]
    x, mask = collate([trained["embeddings"][i] for i in batch_ids])
    gold = np.array([corpus.label_set.index(corpus.get(i).label) for i in batch_ids])
    p = {k: v.astype(np.float64) for k, v in model.params.items()}
    bn = (model.bn_mean.astype(np.float64), model.bn_var.astype(np.float64))
    eps, momentum = model.bn_epsilon, model.bn_momentum
    H = model.hidden_size

    trace = forward_batch(p, *bn, eps, momentum, x, mask, True)
    h, lstm_cache = trace.hidden, trace.caches["lstm"]
    dlogits = trace.probs.copy()
    dlogits[np.arange(len(gold)), gold] -= 1.0
    dlogits /= len(gold)
    _, ddoc = batchnorm_backward(trace.caches["bn"], dlogits @ p["head.W"])
    _, dh = attention_backward(p["attn.Wa"], p["attn.uw"], trace.caches["attn"], ddoc)
    grads, _ = backward_batch(p, trace, gold)

    ms = {
        "lstm_fwd": _median_ms(lambda: bilstm_forward(p, x, mask)),
        "attn_fwd": _median_ms(lambda: attention_forward(p["attn.Wa"], p["attn.ba"],
                                                         p["attn.uw"], h, mask)),
        "bn_fwd": _median_ms(lambda: batchnorm_forward(trace.doc_vectors, p["bn.gamma"],
                                                       p["bn.beta"], *bn, eps, momentum, True)),
        "fwd": _median_ms(lambda: forward_batch(p, *bn, eps, momentum, x, mask, True)),
        "lstm_bwd": _median_ms(lambda: (lstm_direction_backward(lstm_cache["f"], dh[:, :, :H]),
                                        lstm_direction_backward(lstm_cache["b"], dh[:, :, H:]))),
        "attn_bwd": _median_ms(lambda: attention_backward(p["attn.Wa"], p["attn.uw"],
                                                          trace.caches["attn"], ddoc)),
        "bn_bwd": _median_ms(lambda: batchnorm_backward(trace.caches["bn"],
                                                        dlogits @ p["head.W"])),
        "bwd": _median_ms(lambda: backward_batch(p, trace, gold)),
    }
    params = {k: v.copy() for k, v in model.params.items()}
    state = AdamState.like(params)
    ms["adam"] = _median_ms(lambda: adam_step(params, grads, state, cfg.learning_rate,
                                              cfg.beta1, cfg.beta2, cfg.adam_epsilon))
    out = {f"aggregator.{k}_ms": ms[k] for k in
           ("lstm_fwd", "attn_fwd", "bn_fwd", "lstm_bwd", "attn_bwd", "bn_bwd", "adam")}
    out["aggregator.head_fwd_ms"] = ms["fwd"] - ms["lstm_fwd"] - ms["attn_fwd"] - ms["bn_fwd"]
    out["aggregator.head_bwd_ms"] = ms["bwd"] - ms["lstm_bwd"] - ms["attn_bwd"] - ms["bn_bwd"]
    return out


def _layer_metrics(tr: Tracer, trained: dict, cli_train_s: float) -> dict[str, float]:
    """Per-layer times of one replay; counts come from `trained`."""
    c = trained["counts"]
    m = dict(c)
    train_self = tr.layer_self("replay.train")
    train_total = tr.total("replay.train")
    m["corpus.load_s"] = tr.total("corpus.load_corpus", "replay.train")
    m["chunker.chunk_s"] = tr.total("chunker.chunk_corpus")
    m["embedder.share"] = train_self.get("embedder", 0.0) / train_total
    m["aggregator.share"] = train_self.get("aggregator", 0.0) / train_total
    m["embedder.vocab_s"] = tr.total("embedder.build_vocab")
    m["embedder.train_s"] = tr.total("embedder.train_pvdm")
    m["embedder.train_us_per_position"] = (
        1e6 * m["embedder.train_s"] / max(1, c["embedder.train_positions"]))
    m["embedder.infer_s"] = tr.total("embedder.embed_corpus")
    m["embedder.infer_us_per_position_step"] = (
        1e6 * m["embedder.infer_s"] / max(1, c["embedder.infer_position_steps"]))
    m["aggregator.train_s"] = tr.total("aggregator.train_aggregator")
    m["aggregator.s_per_epoch"] = m["aggregator.train_s"] / c["aggregator.epochs"]
    m["aggregator.doc_vectors_s"] = tr.total("aggregator.document_vectors", "replay.train")
    m["svm.train_s"] = tr.total("svm.train_multiclass_svm")
    m["svm.kernel_s"] = tr.total("svm.rbf_kernel_matrix")
    m["svm.decision_s"] = tr.total("svm.decision")
    m["cli.artifacts_s"] = tr.total("cli.write_artifacts")
    m["cli.embeddings_tsv_load_s"] = tr.total("cli.load_chunk_embeddings")
    m["evaluation.report_s"] = tr.total("evaluation.f1_report")
    m["trace.overhead_s"] = train_total - cli_train_s

    # single-document inference, per replayed `predict` call
    per_call = {"infer": [], "predict": [], "load": []}
    infer_total = steps_total = predict_total = 0.0
    for root in tr.roots("replay.predict"):
        kids = [s for s in tr.spans if s["trace"] == root["id"]]
        infer = [s for s in kids if s["name"] == "embedder.infer_vector"]
        per_call["infer"].append(sum(s["duration"] for s in infer))
        per_call["predict"].append(sum(s["duration"] for s in kids
                                       if s["name"] == "aggregator.predict"))
        per_call["load"].append(sum(s["duration"] for s in kids
                                    if s["name"] == "aggregator.load_aggregator"))
        infer_total += per_call["infer"][-1]
        steps_total += sum(s["counts"]["position_steps"] for s in infer)
        predict_total += root["duration"]
    m["embedder.infer_one_ms"] = 1000.0 * statistics.median(per_call["infer"])
    m["embedder.infer_one_us_per_position_step"] = 1e6 * infer_total / max(1.0, steps_total)
    m["embedder.infer_one_share"] = infer_total / predict_total
    m["aggregator.predict_ms"] = 1000.0 * statistics.median(per_call["predict"])
    m["aggregator.load_ms"] = 1000.0 * statistics.median(per_call["load"])
    return m


def _compare(session, trained: dict, replay_out: Path, cli_f1: dict,
             replayed: list[tuple[dict, dict]]) -> list[str]:
    """Differences between the replay and the CLI run; empty when they match."""
    problems = []
    for name in _ARTIFACTS:
        if not _bytes_equal(replay_out / name, session.run_dir / name):
            problems.append(f"{name} differs")
    if trained["f1"] != cli_f1:
        problems.append(f"F1 {trained['f1']} vs CLI {cli_f1}")
    # the CLI's own checkpoint and chunk vectors give the reference document vectors
    cli_vecs = document_vectors(load_aggregator(session.run_dir / "aggregator.bin"),
                                load_chunk_embeddings(session.run_dir / "chunk_embeddings.tsv"))
    for doc_id, vec in trained["test_vecs"].items():
        if not np.array_equal(vec, cli_vecs[doc_id]):
            problems.append(f"test document vector {doc_id} differs")
            break
    for mine, cli_answer in replayed:
        if mine != cli_answer["probabilities"]:
            problems.append(f"predict probabilities {mine} vs CLI {cli_answer['probabilities']}")
            break
    return problems


def traced(session, seconds: float, spans_path: Path):
    """Run the CLI once untraced, then replay while `seconds` last (at least once).

    Times are medians over replays; counts must repeat exactly.
    """
    w = session.workload
    start = time.perf_counter()
    session.prepare()
    cli_train_s = session.train()
    evaluated = session.evaluate()
    docs = session.heldout[:w.trace_predicts]
    answers = [session.predict(path) for path, _ in docs]
    if cli_train_s is None or evaluated is None or any(a is None for a in answers):
        raise SystemExit("perfbench: the untraced CLI session failed; nothing to replay")
    cli_f1 = evaluated[1]

    config = load_config(session.config_path)
    replay_out = session.work / "replay"
    runs, all_spans, problems = [], [], []
    while True:
        replay_start = time.perf_counter()
        tr = Tracer()
        trained = replay_train(tr, config, replay_out)
        replayed = [(replay_predict(tr, config, replay_out, path), answer[1])
                    for (path, _), answer in zip(docs, answers)]
        tr.finish()
        metrics = _layer_metrics(tr, trained, cli_train_s)
        metrics.update(aggregator_layers(trained))
        if not runs:
            problems = _compare(session, trained, replay_out, cli_f1, replayed)
        elif any(metrics[k] != runs[0][k] for k in trained["counts"]):
            problems.append("counts differ between replays")
        runs.append(metrics)
        all_spans += [dict(s, replay=len(runs) - 1) for s in tr.spans]
        now = time.perf_counter()
        if now - start + (now - replay_start) > seconds:
            break

    counts = runs[0]
    metrics = {name: (counts[name] if name in trained["counts"]
                      else statistics.median(r[name] for r in runs))
               for name in PER_LAYER_UNITS if name != "trace.replay_matches"}
    metrics["trace.replay_matches"] = 0 if problems else 1
    for problem in problems:
        print(f"perfbench: warning: replay mismatch: {problem}", file=sys.stderr)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as f:
        for s in all_spans:
            f.write(json.dumps(s) + "\n")
    notes = [
        f"{len(runs)} traced replays; times are medians, counts exact",
        f"untraced CLI train {cli_train_s:.6g} s; spans in {spans_path}",
        f"replay matches CLI: {'yes' if not problems else 'NO: ' + '; '.join(problems)}",
        f"error_rate: {session.failed / session.attempted:.6g} "
        f"({session.failed} failed of {session.attempted} operations)",
    ]
    return metrics, PER_LAYER_UNITS, notes, {"replays": runs}
