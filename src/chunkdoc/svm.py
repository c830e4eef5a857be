"""One-vs-rest RBF-kernel SVM on pooled document vectors.

The binary solver is SMO with maximal-violating-pair working-set selection:
at each iteration the pair with the largest KKT violation gets the exact
two-variable analytic update, until the violation gap drops below the
tolerance or the iteration bound is hit. Everything is float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass
class SVMConfig:
    gamma: float | None = None  # None resolves to 1/dim at training time
    C: float = 1.0
    tolerance: float = 1e-3
    max_passes: int = 20000  # bound on pair-update iterations

    def __post_init__(self):
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.C <= 0 or self.tolerance <= 0:
            raise ValueError("C and tolerance must be positive")


def rbf_kernel(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2)."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-gamma * np.dot(diff, diff)))


def rbf_kernel_matrix(X, Y, gamma: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-gamma * sq)


def solve_binary_dual(X, y, C: float, gamma: float, tolerance: float,
                      max_passes: int) -> tuple[np.ndarray, float, int]:
    """SMO on the soft-margin dual; returns (alpha, bias, iterations).

    Selection is deterministic (argmax/argmin with lowest-index ties), so the
    solve needs no randomness. Terminates when the maximal violating pair is
    within `tolerance` or cannot move.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    K = rbf_kernel_matrix(X, X, gamma)
    np.fill_diagonal(K, 1.0)
    alpha = np.zeros(n)
    u = np.zeros(n)  # u_i = sum_j alpha_j y_j K_ij (decision values without bias)

    iterations = 0
    m_val = M_val = 0.0
    while iterations < max_passes:
        yu = y - u  # optimality scores; feasible bias lies in [M_val, m_val]
        up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y < 0) & (alpha < C - 1e-12)) | ((y > 0) & (alpha > 1e-12))
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, yu, -np.inf)))
        j = int(np.argmin(np.where(low, yu, np.inf)))
        m_val, M_val = yu[i], yu[j]
        if m_val - M_val <= tolerance:
            break
        # exact two-variable subproblem with box clipping
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            eta = 1e-12
        E_diff = (u[i] - y[i]) - (u[j] - y[j])
        aj_new = alpha[j] + y[j] * E_diff / eta
        if y[i] != y[j]:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(C, C + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - C)
            H = min(C, alpha[i] + alpha[j])
        aj_new = min(H, max(L, aj_new))
        if abs(aj_new - alpha[j]) < 1e-12:
            break  # maximal violating pair is stuck; no further progress possible
        ai_new = alpha[i] + y[i] * y[j] * (alpha[j] - aj_new)
        u += y[i] * (ai_new - alpha[i]) * K[i] + y[j] * (aj_new - alpha[j]) * K[j]
        alpha[i], alpha[j] = ai_new, aj_new
        iterations += 1

    free = (alpha > 1e-9) & (alpha < C - 1e-9)
    if free.any():
        bias = float((y - u)[free].mean())
    else:
        bias = float((m_val + M_val) / 2.0)
    return alpha, bias, iterations


def dual_objective(X, y, alpha, gamma: float) -> float:
    """Dual objective sum(alpha) - 0.5 * alpha' Q alpha with Q = yy' * K."""
    K = rbf_kernel_matrix(X, X, gamma)
    np.fill_diagonal(K, 1.0)
    ya = np.asarray(alpha) * np.asarray(y, dtype=np.float64)
    return float(alpha.sum() - 0.5 * ya @ K @ ya)


@dataclass
class BinarySVM:
    """Support vectors with their signed dual coefficients alpha_j * y_j."""

    support_vectors: np.ndarray  # (n_sv, d)
    dual_coef: np.ndarray        # (n_sv,)
    bias: float

    def decision(self, X, gamma: float) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if len(self.dual_coef) == 0:
            return np.full(len(X), self.bias)
        K = rbf_kernel_matrix(X, self.support_vectors, gamma)
        return K @ self.dual_coef + self.bias


def train_binary_svm(X, y, config: SVMConfig, seed: int = 0) -> BinarySVM:
    """Train one binary machine; labels must be in {-1, +1} with both present.

    The solver itself is deterministic, so `seed` only pins the signature's
    reproducibility contract.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if not ((y > 0).any() and (y < 0).any()):
        raise DataError("binary SVM training requires both classes present")
    gamma = config.gamma if config.gamma is not None else 1.0 / X.shape[1]
    alpha, bias, iterations = solve_binary_dual(
        X, y, config.C, gamma, config.tolerance, config.max_passes
    )
    if iterations >= config.max_passes:
        logger.warning("SMO hit the iteration bound (%d); solution may be loose", iterations)
    sv = alpha > 1e-12
    return BinarySVM(
        support_vectors=X[sv].copy(),
        dual_coef=(alpha * y)[sv],
        bias=bias,
    )


@dataclass
class SVMModel:
    """One-vs-rest multiclass model over a fixed label order."""

    labels: list[str]
    gamma: float
    C: float
    tolerance: float
    max_passes: int
    machines: list[BinarySVM]

    def decision_values(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.stack([m.decision(X, self.gamma) for m in self.machines], axis=1)

    def predict_index(self, X) -> np.ndarray:
        return self.decision_values(X).argmax(axis=1)

    def predict(self, X) -> list[str]:
        return [self.labels[i] for i in self.predict_index(X)]


def train_multiclass_svm(doc_vectors, labels, label_order, config: SVMConfig,
                         seed: int = 0) -> SVMModel:
    """Train one binary machine per class (one-vs-rest).

    Prediction takes the argmax of decision values; ties resolve to the
    lowest class index.
    """
    X = np.asarray(doc_vectors, dtype=np.float64)
    label_order = list(label_order)
    if len(label_order) < 2:
        raise DataError("need at least 2 classes")
    gamma = config.gamma if config.gamma is not None else 1.0 / X.shape[1]
    resolved = SVMConfig(gamma=gamma, C=config.C, tolerance=config.tolerance,
                         max_passes=config.max_passes)
    machines = []
    for label in label_order:
        y = np.where(np.asarray(labels) == label, 1.0, -1.0)
        machines.append(train_binary_svm(X, y, resolved, seed))
    return SVMModel(labels=label_order, gamma=gamma, C=config.C,
                    tolerance=config.tolerance, max_passes=config.max_passes,
                    machines=machines)


def predict_svm(model: SVMModel, x) -> tuple[str, np.ndarray]:
    """Predict one vector; returns (label, per-class decision values)."""
    x = np.asarray(x, dtype=np.float64)
    d = model.machines[0].support_vectors.shape[1] if len(model.machines[0].support_vectors) else x.shape[0]
    if x.shape != (d,):
        raise DataError(f"expected a vector of dimension {d}, got shape {x.shape}")
    values = model.decision_values(x[None, :])[0]
    return model.labels[int(values.argmax())], values


def save_svm(model: SVMModel, path) -> None:
    """Checkpoint (see `checkpoint`); load(save(m)) is bit-exact."""
    header = {"labels": model.labels, "gamma": model.gamma, "C": model.C,
              "tolerance": model.tolerance, "max_passes": model.max_passes}
    arrays = {"bias": np.array([m.bias for m in model.machines], dtype=np.float64)}
    for i, machine in enumerate(model.machines):
        arrays[f"support_vectors.{i}"] = machine.support_vectors
        arrays[f"dual_coef.{i}"] = machine.dual_coef
    checkpoint.save(path, "svm", header, arrays)


def load_svm(path) -> SVMModel:
    h, a = checkpoint.load(path, "svm")
    machines = [BinarySVM(support_vectors=a[f"support_vectors.{i}"],
                          dual_coef=a[f"dual_coef.{i}"], bias=float(bias))
                for i, bias in enumerate(a["bias"])]
    return SVMModel(labels=h["labels"], gamma=h["gamma"], C=h["C"], tolerance=h["tolerance"],
                    max_passes=h["max_passes"], machines=machines)
