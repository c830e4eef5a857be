"""Shared builders for the CLI and acceptance suites, the config values that
are constants, and the independent SVM oracles (scalar kernel, dual
objective, projected-gradient dual solver) that the SVM and acceptance suites
check the SMO solver against."""

import json
from pathlib import Path

import numpy as np

from chunkdoc.svm import rbf_kernel_matrix
from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus

CLI_LABELS = ["class0", "class1", "class2"]
# Values that are constants, not config keys: a config file that sets one fails.
FIXED_KEYS = [("embedder", "alpha"), ("embedder", "min_alpha"), ("embedder", "noise_exponent"),
              ("aggregator", "bn_momentum"), ("aggregator", "bn_epsilon"),
              ("svm", "tolerance"), ("svm", "max_passes")]


def write_corpus_tree(root: Path, spec: SyntheticSpec, seed: int = 0):
    corpus = generate_synthetic_corpus(spec, seed=seed)
    for doc in corpus:
        path = root / f"{doc.id}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc.raw_text, encoding="utf-8")
    return corpus


def make_cli_workspace(base: Path):
    """Small on-disk corpus plus a config tuned to train in about a second."""
    corpus_root = base / "corpus"
    spec = SyntheticSpec(n_classes=3, docs_per_class=12, doc_length=120,
                         filler_vocab_size=25, class_vocab_size=6, signal_rate=0.35)
    write_corpus_tree(corpus_root, spec)
    config = {
        "corpus": {"root": str(corpus_root), "labels": CLI_LABELS},
        "split": {"seed": 5},
        "chunking": {"n_chunks": 3},
        "embedder": {"dim": 16, "window": 3, "epochs": 15, "negative": 3,
                     "min_count": 1, "per_class": 3, "infer_steps": 10},
        "aggregator": {"hidden_size": 8, "learning_rate": 0.02, "batch_size": 8,
                       "epochs": 20, "patience": 20, "seed": 3},
        "svm": {"C": 1.0},
        "output_dir": str(base / "runs"),
        "run_name": "t",
    }
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return base, config_path, config


# ---------------------------------------------------------------------------
# SVM oracles

def rbf_kernel(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2) for one pair, from the difference vector."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-gamma * np.dot(diff, diff)))


def dual_objective(X, y, alpha, gamma: float) -> float:
    """Dual objective sum(alpha) - 0.5 * alpha' Q alpha with Q = yy' * K."""
    K = rbf_kernel_matrix(X, X, gamma)
    np.fill_diagonal(K, 1.0)
    ya = np.asarray(alpha) * np.asarray(y, dtype=np.float64)
    return float(alpha.sum() - 0.5 * ya @ K @ ya)


def project_box_hyperplane(v, y, C) -> tuple[np.ndarray, float]:
    """Euclidean projection of `v` onto {0 <= a <= C, y.a = 0} for labels
    y in {-1, +1}; returns (p, t) with p = clip(v + t*y, 0, C).

    g(t) = y.clip(v + t*y, 0, C) is non-decreasing and linear between the 2n
    breakpoints -v*y and (C - v)*y where a clip switches on or off. It is
    evaluated at all of them at once, and the root is interpolated on the
    segment where g changes sign (Kiwiel, 2008, breakpoint search for the
    continuous quadratic knapsack problem).
    """
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = np.sort(np.concatenate([-v * y, (C - v) * y]))
    g = np.clip(v[None, :] + t[:, None] * y[None, :], 0.0, C) @ y
    k = int(np.argmax(g >= 0.0))  # g ends at C * (number of +1 labels) >= 0
    if k == 0:
        root = t[0]
    else:
        root = t[k - 1] - g[k - 1] * (t[k] - t[k - 1]) / (g[k] - g[k - 1])
    return np.clip(v + root * y, 0.0, C), float(root)


def projected_gradient_dual(X, y, C, gamma, iters=30000, tol=1e-12):
    """Maximize sum(a) - 0.5 a'Qa over the feasible set; plain projected
    gradient ascent run to convergence. Independent of the SMO code path."""
    y = np.asarray(y, dtype=np.float64)
    K = rbf_kernel_matrix(X, X, gamma)
    np.fill_diagonal(K, 1.0)
    Q = np.outer(y, y) * K
    lr = 1.0 / np.linalg.eigvalsh(Q).max()
    alpha, _ = project_box_hyperplane(np.zeros(len(y)), y, C)
    for _ in range(iters):
        new_alpha, _ = project_box_hyperplane(alpha + lr * (1.0 - Q @ alpha), y, C)
        moved = float(np.abs(new_alpha - alpha).max())
        alpha = new_alpha
        if moved < tol:
            break
    return alpha
