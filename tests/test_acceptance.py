"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here, not configurable. The larger end-to-end criteria use the synthetic
corpora; everything is seeded and deterministic.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from chunkdoc.aggregator import (AggregatorConfig, backward_batch, batchnorm_forward,
                                 cross_entropy, forward_batch, load_aggregator,
                                 softmax, attention_forward)
from chunkdoc.chunker import Chunk, mean_words_per_chunk, split_into_chunks
from chunkdoc.cli import main
from chunkdoc.corpus import split_dataset
from chunkdoc.embedder import (EmbedderConfig, build_vocab, load_pvdm, train_pvdm)
from chunkdoc.evaluation import f1_report
from chunkdoc.pipeline import PipelineSettings, evaluate, train_pipeline
from chunkdoc.svm import (SVMConfig, load_svm, solve_binary_dual, train_binary_svm,
                          train_multiclass_svm)
from chunkdoc.sweep import SWEEP_COLUMNS, run_chunk_sweep, write_sweep_tsv
from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus
from helpers import dual_objective, make_cli_workspace, projected_gradient_dual


def _report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. gradient keystone

def _toy_params(embedding_dim, hidden, n_classes, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    d = 2 * hidden
    params = {
        "lstm_f.Wx": scale * rng.standard_normal((4 * hidden, embedding_dim)),
        "lstm_f.Wh": scale * rng.standard_normal((4 * hidden, hidden)),
        "lstm_f.b": scale * rng.standard_normal(4 * hidden),
        "lstm_b.Wx": scale * rng.standard_normal((4 * hidden, embedding_dim)),
        "lstm_b.Wh": scale * rng.standard_normal((4 * hidden, hidden)),
        "lstm_b.b": scale * rng.standard_normal(4 * hidden),
        "attn.Wa": scale * rng.standard_normal((d, d)),
        "attn.ba": scale * rng.standard_normal(d),
        "attn.uw": scale * rng.standard_normal(d),
        "bn.gamma": 1.0 + 0.2 * rng.standard_normal(d),
        "bn.beta": 0.2 * rng.standard_normal(d),
        "head.W": scale * rng.standard_normal((n_classes, d)),
        "head.b": scale * rng.standard_normal(n_classes),
    }
    return params


def test_criterion_1_gradient_keystone():
    started = time.time()
    E, H, C, T, B = 8, 6, 3, 4, 4
    params = _toy_params(E, H, C, seed=101)
    rng = np.random.default_rng(102)
    x = rng.standard_normal((B, T, E))
    mask = np.ones((B, T), dtype=bool)
    gold = rng.integers(0, C, B)
    bn_mean = np.zeros(2 * H)
    bn_var = np.ones(2 * H)

    def loss_fn():
        trace = forward_batch(params, bn_mean, bn_var, 1e-8, 0.9, x, mask, training=True)
        return cross_entropy(trace.probs, gold)

    trace = forward_batch(params, bn_mean, bn_var, 1e-8, 0.9, x, mask, training=True)
    grads, _ = backward_batch(params, trace, gold)
    step = 1e-5
    worst = 0.0
    n_checked = 0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        analytic = grads[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_fn()
            flat[idx] = orig - step
            down = loss_fn()
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            if abs(analytic[idx] - numeric) >= 1e-8:
                worst = max(worst, abs(analytic[idx] - numeric)
                            / max(abs(analytic[idx]) + abs(numeric), 1e-8))
            n_checked += 1
    elapsed = time.time() - started
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    assert elapsed < 60.0
    _report("criterion 1", f"{n_checked} parameters, max relative error {worst:.2e}, "
                           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. equation oracles

def _scalar_attention(Wa, ba, uw, h_seq):
    T, D = len(h_seq), len(ba)
    scores, us = [], []
    for t in range(T):
        u_t = [math.tanh(float(ba[r]) + sum(float(Wa[r, k]) * float(h_seq[t][k])
                                            for k in range(D)))
               for r in range(D)]
        us.append(u_t)
        scores.append(sum(u_t[r] * float(uw[r]) for r in range(D)))
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    z = sum(exps)
    alphas = [e / z for e in exps]
    doc = [sum(alphas[t] * float(h_seq[t][k]) for t in range(T)) for k in range(D)]
    return alphas, doc


def _scalar_classify(x_rows, gamma, beta, mean, var, eps, W, b):
    out = []
    for row in x_rows:
        normed = [float(gamma[k]) * (float(row[k]) - float(mean[k]))
                  / math.sqrt(float(var[k]) + eps) + float(beta[k])
                  for k in range(len(row))]
        logits = [float(b[c]) + sum(float(W[c, k]) * normed[k] for k in range(len(normed)))
                  for c in range(W.shape[0])]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        z = sum(exps)
        out.append([e / z for e in exps])
    return out


def test_criterion_2_equation_oracles():
    rng = np.random.default_rng(201)
    worst_attn = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 6))
        d = int(rng.integers(2, 8)) * 2
        Wa, ba, uw = rng.standard_normal((d, d)), rng.standard_normal(d), rng.standard_normal(d)
        h = rng.standard_normal((1, T, d))
        alpha, doc, _ = attention_forward(Wa, ba, uw, h, np.ones((1, T), dtype=bool))
        ref_alpha, ref_doc = _scalar_attention(Wa, ba, uw, h[0])
        worst_attn = max(worst_attn,
                         float(np.abs(alpha[0] - ref_alpha).max()),
                         float(np.abs(doc[0] - ref_doc).max()))
    assert worst_attn < 1e-12

    worst_cls = 0.0
    for _ in range(100):
        d, c = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        x = rng.standard_normal((3, d))
        gamma = 1.0 + 0.3 * rng.standard_normal(d)
        beta = 0.3 * rng.standard_normal(d)
        mean = rng.standard_normal(d)
        var = rng.uniform(0.5, 2.0, d)
        W, b = rng.standard_normal((c, d)), rng.standard_normal(c)
        normed, _, _, _ = batchnorm_forward(x, gamma, beta, mean, var, 1e-8, 0.9, training=False)
        probs = softmax(normed @ W.T + b)
        ref = _scalar_classify(x, gamma, beta, mean, var, 1e-8, W, b)
        worst_cls = max(worst_cls, float(np.abs(probs - np.array(ref)).max()))
    assert worst_cls < 1e-12
    _report("criterion 2", f"attention max dev {worst_attn:.2e}, "
                           f"classifier max dev {worst_cls:.2e} over 100 cases each")


# ---------------------------------------------------------------------------
# 3. normalization invariants

def test_criterion_3_normalization_invariants():
    rng = np.random.default_rng(301)
    worst_alpha = worst_probs = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 8))
        d = 6
        h = rng.standard_normal((2, T, d)) * rng.uniform(0.1, 3.0)
        mask = np.ones((2, T), dtype=bool)
        alpha, _, _ = attention_forward(rng.standard_normal((d, d)), rng.standard_normal(d),
                                        rng.standard_normal(d), h, mask)
        worst_alpha = max(worst_alpha, float(np.abs(alpha.sum(axis=1) - 1.0).max()))
        probs = softmax(rng.standard_normal((3, 5)) * rng.uniform(0.1, 3.0))
        worst_probs = max(worst_probs, float(np.abs(probs.sum(axis=1) - 1.0).max()))
    assert worst_alpha <= 1e-9 and worst_probs <= 1e-9

    x = rng.standard_normal((64, 16)) * rng.uniform(0.5, 2.0, 16) + rng.standard_normal(16)
    y, _, _, _ = batchnorm_forward(x, np.ones(16), np.zeros(16), np.zeros(16), np.ones(16),
                                   1e-8, 0.9, training=True)
    mean_dev = float(np.abs(y.mean(axis=0)).max())
    var_dev = float(np.abs(y.var(axis=0) - 1.0).max())
    assert mean_dev <= 1e-6 and var_dev <= 1e-6
    _report("criterion 3", f"sum(alpha) dev {worst_alpha:.1e}, sum(s) dev {worst_probs:.1e}, "
                           f"BN moments dev ({mean_dev:.1e}, {var_dev:.1e})")


# ---------------------------------------------------------------------------
# 4. chunker partition

def test_criterion_4_chunker_partition():
    rng = np.random.default_rng(401)
    n_values = [1, 3, 5, 7, 10, 25, 50]
    for _ in range(1000):
        length = int(rng.integers(1, 3000))
        n = int(rng.choice(n_values))
        tokens = [f"t{i}" for i in range(length)]
        chunks = split_into_chunks(tokens, n)
        assert [t for c in chunks for t in c.tokens] == tokens
        sizes = [len(c.tokens) for c in chunks]
        if length >= n:
            assert max(sizes) - min(sizes) <= 1
        assert len(chunks) == min(n, length)

    spec = SyntheticSpec(n_classes=2, docs_per_class=10, doc_length=2000,
                         filler_vocab_size=50, class_vocab_size=5)
    corpus = generate_synthetic_corpus(spec, seed=402)
    mean_len = float(np.mean([len(d.tokens) for d in corpus]))
    for n in n_values:
        assert mean_words_per_chunk(corpus, n) == mean_len / n  # exact, all docs >= n tokens
    _report("criterion 4", "1000 random partition cases and exact W/n arithmetic "
                           f"for n in {n_values}")


# ---------------------------------------------------------------------------
# 5. embedder separation

def test_criterion_5_embedder_separation():
    started = time.time()
    rng = np.random.default_rng(501)
    chunks = []
    chunk_id = 0
    for topic in range(2):
        words = [f"topic{topic}word{j}" for j in range(25)]
        for d in range(20):
            signature = [f"sig{chunk_id}x{j}" for j in range(3)]
            tokens = tuple(
                signature[int(rng.integers(0, 3))] if rng.random() < 0.15
                else words[int(rng.integers(0, 25))]
                for _ in range(150)
            )
            chunks.append(Chunk(f"t{topic}doc{d}", 1, tokens))
            chunk_id += 1
    vocab = build_vocab(chunks, min_count=2)
    config = EmbedderConfig(dim=32, window=5, epochs=18, negative=5, min_count=2)
    model = train_pvdm(chunks, vocab, config, seed=502)

    P = model.P.astype(np.float64)
    norm = P / np.linalg.norm(P, axis=1, keepdims=True)
    sims = norm @ norm.T
    same = np.zeros((40, 40), dtype=bool)
    same[:20, :20] = True
    same[20:, 20:] = True
    off_diag = ~np.eye(40, dtype=bool)
    separation = sims[same & off_diag].mean() - sims[~same & off_diag].mean()
    assert separation > 0.2

    losses = np.array(model.epoch_losses)
    smoothed = np.convolve(losses, np.ones(3) / 3, mode="valid")
    assert np.all(np.diff(smoothed) <= 0)
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report("criterion 5", f"separation {separation:.3f} > 0.2, smoothed loss "
                           f"non-increasing over {len(losses)} epochs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. SVM correctness

def test_criterion_6_svm_correctness():
    rng = np.random.default_rng(601)
    X = np.concatenate([rng.standard_normal((20, 2)) * 0.5 + [2.0, 2.0],
                        rng.standard_normal((20, 2)) * 0.5 + [-2.0, -2.0]])
    y = np.concatenate([np.ones(20), -np.ones(20)])
    gamma, C = 0.5, 1.0
    alpha, _, _ = solve_binary_dual(X, y, C, gamma, tolerance=1e-4, max_passes=20000)
    alpha_pg = projected_gradient_dual(X, y, C, gamma)
    gap = abs(dual_objective(X, y, alpha, gamma) - dual_objective(X, y, alpha_pg, gamma))
    assert gap <= 1e-3
    assert np.all(alpha >= -1e-12) and np.all(alpha <= C + 1e-12)

    xor_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([1.0, 1.0, -1.0, -1.0])
    xor_model = train_binary_svm(xor_X, xor_y, C=10.0, gamma=1.0)
    assert np.all(np.sign(xor_model.decision(xor_X, gamma=1.0)) == xor_y)

    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    Xc, labels = [], []
    for c in range(3):
        Xc.append(rng.standard_normal((30, 2)) * 0.1 + centers[c])
        labels += [f"c{c}"] * 30
    Xc = np.concatenate(Xc)
    labels = np.array(labels)
    order = rng.permutation(len(Xc))
    n_train = int(0.7 * len(Xc))
    model = train_multiclass_svm(Xc[order[:n_train]], labels[order[:n_train]],
                                 ["c0", "c1", "c2"], SVMConfig(C=1.0))
    preds = model.predict(Xc[order[n_train:]])
    accuracy = float(np.mean(np.array(preds) == labels[order[n_train:]]))
    assert accuracy == 1.0
    for machine_alpha in (alpha,):
        assert np.all(machine_alpha >= -1e-12) and np.all(machine_alpha <= C + 1e-12)
    _report("criterion 6", f"dual objective gap {gap:.2e} <= 1e-3, XOR 100%, "
                           f"3-cluster held-out accuracy {100 * accuracy:.0f}%")


# ---------------------------------------------------------------------------
# 7. end-to-end on the global-signal corpus

def test_criterion_7_end_to_end_global_corpus():
    started = time.time()
    spec = SyntheticSpec(n_classes=5, docs_per_class=200, doc_length=2000,
                         filler_vocab_size=500, class_vocab_size=50,
                         mode="global", signal_rate=0.2)
    corpus = generate_synthetic_corpus(spec, seed=701)
    split = split_dataset(corpus, seed=702)
    settings = PipelineSettings(
        embedder=EmbedderConfig(dim=64, window=5, epochs=8, negative=5, min_count=5,
                                infer_steps=8, per_class=6),
        aggregator=AggregatorConfig(hidden_size=48, learning_rate=0.003, batch_size=32,
                                    epochs=30, patience=10),
        svm=SVMConfig(C=1.0),
    )
    pipe = train_pipeline(corpus, split, settings, n_chunks=3, classifier="both", seed=703)
    assert len(pipe.train_log) <= 30
    reports = evaluate(pipe.aggregator, pipe.svm, pipe.doc_vectors, split, "test")
    linear_f1, svm_f1 = reports["linear"].macro_f1, reports["svm"].macro_f1
    elapsed = time.time() - started
    assert linear_f1 >= 0.95
    assert svm_f1 >= 0.95
    assert elapsed < 600.0
    _report("criterion 7", f"3-chunk pipeline on 5x200x2000 corpus: linear F1 "
                           f"{linear_f1:.3f}, SVM F1 {svm_f1:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. directional chunking claim + sweep shape

def test_criterion_8_chunking_beats_whole_document():
    started = time.time()
    spec = SyntheticSpec(n_classes=5, docs_per_class=50, doc_length=600,
                         filler_vocab_size=400, class_vocab_size=25,
                         mode="localized", span_fraction=0.1,
                         filler_concentration=0.05)
    corpus = generate_synthetic_corpus(spec, seed=801)
    split = split_dataset(corpus, seed=802)
    settings = PipelineSettings(
        embedder=EmbedderConfig(dim=32, window=5, epochs=8, negative=5, min_count=3,
                                infer_steps=8, per_class=8),
        aggregator=AggregatorConfig(hidden_size=24, learning_rate=0.005, batch_size=16,
                                    epochs=25, patience=25),
        svm=SVMConfig(C=1.0),
    )
    medians = {}
    for n in (1, 3):
        f1s = []
        for seed in (0, 1, 2):
            pipe = train_pipeline(corpus, split, settings, n_chunks=n,
                                  classifier="linear", seed=seed)
            reports = evaluate(pipe.aggregator, pipe.svm, pipe.doc_vectors, split, "test")
            f1s.append(reports["linear"].macro_f1)
        medians[n] = float(np.median(f1s))
    assert medians[3] >= medians[1]
    _report("criterion 8a", f"median test F1 over 3 seeds: {medians[3]:.3f} at n=3 vs "
                            f"{medians[1]:.3f} at n=1 ({time.time() - started:.0f}s)")


def test_criterion_8_sweep_emits_full_table(tmp_path):
    spec = SyntheticSpec(n_classes=3, docs_per_class=10, doc_length=120,
                         filler_vocab_size=25, class_vocab_size=6, signal_rate=0.35)
    corpus = generate_synthetic_corpus(spec, seed=803)
    split = split_dataset(corpus, seed=804)
    settings = PipelineSettings(
        embedder=EmbedderConfig(dim=12, window=3, epochs=4, negative=3, min_count=1,
                                infer_steps=3, per_class=2),
        aggregator=AggregatorConfig(hidden_size=6, learning_rate=0.01, batch_size=8,
                                    epochs=3, patience=3),
        svm=SVMConfig(C=1.0),
    )
    n_list = [1, 3, 5, 7, 10, 25, 50]
    rows = run_chunk_sweep(corpus, split, n_list, "both", [0], settings)
    assert [r.n_chunks for r in rows if r.classifier == "linear"] == n_list
    assert [r.n_chunks for r in rows if r.classifier == "svm"] == n_list
    assert all(not r.failed for r in rows)
    path = tmp_path / "sweep.tsv"
    write_sweep_tsv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "\t".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 2 * len(n_list)
    _report("criterion 8b", f"sweep TSV has {len(lines) - 1} rows for n in {n_list} "
                            "for both classifier families")


# ---------------------------------------------------------------------------
# 9. determinism and serialization

def test_criterion_9_determinism_and_serialization(tmp_path):
    ws = make_cli_workspace(tmp_path)
    _, config_path, config = ws
    run_dir = Path(config["output_dir"]) / config["run_name"]

    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--classifier", "both"]) == 0
    assert main(["evaluate", "--config", str(config_path), "--classifier", "both"]) == 0
    artifact_names = sorted(
        p.name for p in run_dir.iterdir()
        if p.is_file() and p.suffix in (".bin", ".json", ".jsonl", ".tsv", ".txt")
    )
    first = {n: (run_dir / n).read_bytes() for n in artifact_names}

    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--classifier", "both"]) == 0
    assert main(["evaluate", "--config", str(config_path), "--classifier", "both"]) == 0
    for name in artifact_names:
        assert (run_dir / name).read_bytes() == first[name], f"{name} differs between runs"

    from chunkdoc.embedder import save_pvdm
    from chunkdoc.aggregator import save_aggregator
    from chunkdoc.svm import save_svm

    roundtrips = []
    for name, loader, saver in (("pvdm.bin", load_pvdm, save_pvdm),
                                ("aggregator.bin", load_aggregator, save_aggregator),
                                ("svm.bin", load_svm, save_svm)):
        model = loader(run_dir / name)
        copy_path = tmp_path / f"copy_{name}"
        saver(model, copy_path)
        assert copy_path.read_bytes() == (run_dir / name).read_bytes(), name
        roundtrips.append(name)
    _report("criterion 9", f"{len(artifact_names)} artifacts byte-identical across reruns; "
                           f"bit-exact round-trips: {', '.join(roundtrips)}")


# ---------------------------------------------------------------------------
# 10. reporting parity

def test_criterion_10_reporting_parity(tmp_path):
    ws = make_cli_workspace(tmp_path)
    _, config_path, config = ws
    run_dir = Path(config["output_dir"]) / config["run_name"]
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path), "--split", "all"]) == 0

    split = json.loads((run_dir / "split.json").read_text())
    seen = []
    for split_name in ("validation", "test"):
        report_path = run_dir / f"eval_{split_name}_linear.json"
        assert report_path.is_file(), f"missing {split_name} report"
        report = json.loads(report_path.read_text())
        assert "macro_f1" in report and "micro_f1" in report
        confusion = np.array(report["confusion"])
        assert confusion.sum() == len(split[split_name])
        seen.append(split_name)
    _report("criterion 10", f"evaluate emitted {seen} reports with confusion totals "
                            "matching the split sizes")
