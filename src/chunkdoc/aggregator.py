"""BiLSTM + additive attention over chunk embeddings, with a batch-norm +
linear + softmax head, trained end-to-end by Adam with analytic gradients.

Both heads read the attention-pooled document vector (`document_vectors`):
the linear head is `AggregatorModel.classify`, the RBF-SVM head is `svm`.

Parameters, Adam moments and batch-norm running statistics are float64, the
precision all the math runs in, so nothing is converted per batch and a
checkpoint round-trips bit-exactly. `load_aggregator` reads an older float32
file as float64. The pure forward/backward functions below take a flat
parameter dict so they can be driven directly by the finite-difference
gradient checks.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import checkpoint
from .corpus import Corpus, DatasetSplit
from .embedder import ChunkEmbedding
from .errors import DataError, TrainingError
from .evaluation import macro_f1

logger = logging.getLogger(__name__)

PARAM_ORDER = (
    "lstm_f.Wx", "lstm_f.Wh", "lstm_f.b",
    "lstm_b.Wx", "lstm_b.Wh", "lstm_b.b",
    "attn.Wa", "attn.ba", "attn.uw",
    "bn.gamma", "bn.beta",
    "head.W", "head.b",
)
_POOL_BATCH = 256  # documents per eval-mode forward pass in `document_vectors`
_BN_EPSILON = 1e-8  # added to the batch-norm variance; checkpoints record it


@dataclass
class AggregatorConfig:
    hidden_size: int = 64
    learning_rate: float = 0.001
    batch_size: int = 32  # 1000 reproduces the reference setup on a full corpus
    epochs: int = 100
    patience: int = 10
    seed: int = 7  # seeds every training stage, passed explicitly; inference takes no seed
    seeds: list[int] = field(default_factory=list)  # sweep seeds; empty means [seed]
    beta1: ClassVar[float] = 0.9  # Adam's usual constants, not configurable
    beta2: ClassVar[float] = 0.999
    adam_epsilon: ClassVar[float] = 1e-8


@np.errstate(over="ignore")  # exp(-x) overflows to inf: sigmoid 0, exactly
def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def init_params(embedding_dim: int, hidden_size: int, n_classes: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded initialization: uniform +-1/sqrt(h) gates with forget bias 1,
    uniform +-1/sqrt(fan-in) projections, uniform +-0.1 attention context."""
    h, e = hidden_size, embedding_dim
    d = 2 * h
    params: dict[str, np.ndarray] = {}
    gate_bound = 1.0 / np.sqrt(h)
    for direction in ("lstm_f", "lstm_b"):
        params[f"{direction}.Wx"] = rng.uniform(-gate_bound, gate_bound, (4 * h, e))
        params[f"{direction}.Wh"] = rng.uniform(-gate_bound, gate_bound, (4 * h, h))
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0  # forget gate
        params[f"{direction}.b"] = bias
    params["attn.Wa"] = rng.uniform(-1.0 / np.sqrt(d), 1.0 / np.sqrt(d), (d, d))
    params["attn.ba"] = np.zeros(d)
    params["attn.uw"] = rng.uniform(-0.1, 0.1, d)
    params["bn.gamma"] = np.ones(d)
    params["bn.beta"] = np.zeros(d)
    params["head.W"] = rng.uniform(-1.0 / np.sqrt(d), 1.0 / np.sqrt(d), (n_classes, d))
    params["head.b"] = np.zeros(n_classes)
    return params


# ---------------------------------------------------------------------------
# forward passes

def lstm_direction_forward(Wx, Wh, b, x, mask, reverse: bool = False):
    """One LSTM direction over (B, T, E) inputs with a boolean (B, T) mask.

    Masked positions carry state through unchanged and emit zero output, so
    the reverse pass effectively starts at each sequence's last real step.
    The cache holds the inputs, the weights and, in processing order, one
    record `(t, i, f, g, o, tanh_c, h_prev, c_prev)` per step in
    `cache["steps"]`: the step's gates, the tanh of its new cell state and
    the state it started from, all (B, H).
    """
    B, T, _ = x.shape
    H = Wh.shape[1]
    h_state = np.zeros((B, H))
    c_state = np.zeros((B, H))
    out = np.zeros((B, T, H))
    cache = {"x": x, "mask": mask, "Wx": Wx, "Wh": Wh, "steps": []}
    for t in range(T - 1, -1, -1) if reverse else range(T):
        m = mask[:, t][:, None]
        pre = x[:, t] @ Wx.T + h_state @ Wh.T + b
        gates = _sigmoid(pre)  # the g columns are unused: the cell input is a tanh
        i_g, f_g, o_g = gates[:, :H], gates[:, H : 2 * H], gates[:, 3 * H :]
        g_g = np.tanh(pre[:, 2 * H : 3 * H])
        c_new = f_g * c_state + i_g * g_g
        tanh_c = np.tanh(c_new)
        h_new = o_g * tanh_c
        # no copies: the states are rebound below, never written in place
        cache["steps"].append((t, i_g, f_g, g_g, o_g, tanh_c, h_state, c_state))
        h_state = np.where(m, h_new, h_state)
        c_state = np.where(m, c_new, c_state)
        out[:, t] = np.where(m, h_new, 0.0)
    return out, cache


def bilstm_forward(params: dict, x, mask):
    """Concatenated forward/backward hidden states h_it, shape (B, T, 2H)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[2] != params["lstm_f.Wx"].shape[1]:
        raise DataError(
            f"embedding dim {x.shape[2]} does not match model input {params['lstm_f.Wx'].shape[1]}"
        )
    h_f, cache_f = lstm_direction_forward(
        params["lstm_f.Wx"], params["lstm_f.Wh"], params["lstm_f.b"], x, mask, reverse=False
    )
    h_b, cache_b = lstm_direction_forward(
        params["lstm_b.Wx"], params["lstm_b.Wh"], params["lstm_b.b"], x, mask, reverse=True
    )
    return np.concatenate([h_f, h_b], axis=2), {"f": cache_f, "b": cache_b}


def attention_forward(Wa, ba, uw, h, mask):
    """Additive attention pooling: scores tanh(Wa h + ba) . uw, softmax over
    unmasked steps (max-subtracted), then the weighted sum of hidden states."""
    if not mask.any(axis=1).all():
        raise DataError("attention requires at least one unmasked position per row")
    pre_u = h @ Wa.T + ba
    u = np.tanh(pre_u)
    scores = (u * uw).sum(axis=2)
    masked_scores = np.where(mask, scores, -np.inf)
    smax = masked_scores.max(axis=1, keepdims=True)
    expd = np.where(mask, np.exp(masked_scores - smax), 0.0)
    alpha = expd / expd.sum(axis=1, keepdims=True)
    doc_vec = (alpha[:, :, None] * h).sum(axis=1)
    return alpha, doc_vec, {"u": u, "alpha": alpha, "h": h, "mask": mask}


def batchnorm_forward(x, gamma, beta, running_mean, running_var, eps, momentum, training):
    """Feature-wise standardization. Training mode uses (biased) batch moments
    and returns updated running statistics; eval mode is a pure function of
    the running statistics."""
    x = np.asarray(x, dtype=np.float64)
    if training:
        if x.shape[0] < 2:
            raise DataError("batch normalization needs batch size >= 2 in training mode")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        new_mean = momentum * running_mean + (1.0 - momentum) * mean
        new_var = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = new_mean, new_var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    y = gamma * x_hat + beta
    cache = {"x_hat": x_hat, "inv_std": inv_std, "gamma": gamma, "training": training}
    return y, cache, new_mean, new_var


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs, gold_idx):
    """Mean negative log-probability of the gold class, clamped at 1e-12."""
    p = probs[np.arange(len(gold_idx)), gold_idx]
    return float(-np.log(np.clip(p, 1e-12, None)).mean())


@dataclass
class ForwardTrace:
    """Everything the backward pass and the reports need from one batch."""

    hidden: np.ndarray        # (B, T, 2H)
    alpha: np.ndarray         # (B, T)
    doc_vectors: np.ndarray   # (B, 2H) pre-normalization pooled vectors
    probs: np.ndarray         # (B, C)
    caches: dict = field(repr=False, default_factory=dict)
    new_bn_mean: np.ndarray | None = None
    new_bn_var: np.ndarray | None = None


def forward_batch(params: dict, bn_mean, bn_var, bn_eps, bn_momentum, x, mask,
                  training: bool) -> ForwardTrace:
    h, lstm_cache = bilstm_forward(params, x, mask)
    alpha, doc_vec, attn_cache = attention_forward(
        params["attn.Wa"], params["attn.ba"], params["attn.uw"], h, mask
    )
    normed, bn_cache, new_mean, new_var = batchnorm_forward(
        doc_vec, params["bn.gamma"], params["bn.beta"], bn_mean, bn_var,
        bn_eps, bn_momentum, training,
    )
    probs = softmax(normed @ params["head.W"].T + params["head.b"])
    return ForwardTrace(
        hidden=h, alpha=alpha, doc_vectors=doc_vec, probs=probs,
        caches={"lstm": lstm_cache, "attn": attn_cache, "bn": bn_cache, "normed": normed},
        new_bn_mean=new_mean if training else None,
        new_bn_var=new_var if training else None,
    )


# ---------------------------------------------------------------------------
# backward passes

def lstm_direction_backward(cache, dout):
    """BPTT for one direction, over the step records of `cache` in reverse.
    `dout` is the gradient on the emitted outputs; masked steps pass state
    gradients straight through (the carry path)."""
    x, mask = cache["x"], cache["mask"]
    Wx, Wh = cache["Wx"], cache["Wh"]
    B, T, E = x.shape
    H = Wx.shape[0] // 4
    dWx = np.zeros_like(Wx)
    dWh = np.zeros_like(Wh)
    db = np.zeros(4 * H)
    dx = np.zeros_like(x)
    dh_carry = np.zeros((B, H))
    dc_carry = np.zeros((B, H))
    for t, i_g, f_g, g_g, o_g, tanh_c, h_prev, c_prev in reversed(cache["steps"]):
        m = mask[:, t][:, None]
        dh_hat = np.where(m, dh_carry + dout[:, t], 0.0)
        dc_hat = np.where(m, dc_carry, 0.0)
        do = dh_hat * tanh_c
        dc_full = dc_hat + dh_hat * o_g * (1.0 - tanh_c**2)
        di = dc_full * g_g
        df = dc_full * c_prev
        dg = dc_full * i_g
        dpre = np.concatenate(
            [
                di * i_g * (1.0 - i_g),
                df * f_g * (1.0 - f_g),
                dg * (1.0 - g_g**2),
                do * o_g * (1.0 - o_g),
            ],
            axis=1,
        )
        dWx += dpre.T @ x[:, t]
        dWh += dpre.T @ h_prev
        db += dpre.sum(axis=0)
        dx[:, t] = dpre @ Wx
        dh_carry = dpre @ Wh + np.where(m, 0.0, dh_carry)
        dc_carry = dc_full * f_g + np.where(m, 0.0, dc_carry)
    return {"Wx": dWx, "Wh": dWh, "b": db}, dx


def attention_backward(Wa, uw, cache, ddoc):
    u, alpha, h, mask = cache["u"], cache["alpha"], cache["h"], cache["mask"]
    dalpha = (ddoc[:, None, :] * h).sum(axis=2)
    dh = alpha[:, :, None] * ddoc[:, None, :]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dscores = np.where(mask, dscores, 0.0)
    duw = (dscores[:, :, None] * u).sum(axis=(0, 1))
    du = dscores[:, :, None] * uw
    dpre_u = du * (1.0 - u**2)
    dWa = np.einsum("btk,btd->kd", dpre_u, h)
    dba = dpre_u.sum(axis=(0, 1))
    dh += dpre_u @ Wa
    return {"Wa": dWa, "ba": dba, "uw": duw}, dh


def batchnorm_backward(cache, dy):
    x_hat, inv_std, gamma = cache["x_hat"], cache["inv_std"], cache["gamma"]
    dgamma = (dy * x_hat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx_hat = dy * gamma
    if cache["training"]:
        B = dy.shape[0]
        dx = (inv_std / B) * (
            B * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
        )
    else:
        dx = dx_hat * inv_std
    return {"gamma": dgamma, "beta": dbeta}, dx


def backward_batch(params: dict, trace: ForwardTrace, gold_idx) -> tuple[dict, np.ndarray]:
    """Analytic gradients of the mean cross-entropy loss for one batch.

    Returns (grads keyed like PARAM_ORDER, gradient on the input embeddings).
    """
    B = trace.probs.shape[0]
    dlogits = trace.probs.copy()
    dlogits[np.arange(B), np.asarray(gold_idx)] -= 1.0
    dlogits /= B

    grads: dict[str, np.ndarray] = {}
    normed = trace.caches["normed"]
    grads["head.W"] = dlogits.T @ normed
    grads["head.b"] = dlogits.sum(axis=0)
    dnormed = dlogits @ params["head.W"]

    bn_grads, ddoc = batchnorm_backward(trace.caches["bn"], dnormed)
    grads["bn.gamma"] = bn_grads["gamma"]
    grads["bn.beta"] = bn_grads["beta"]

    attn_grads, dh = attention_backward(params["attn.Wa"], params["attn.uw"],
                                        trace.caches["attn"], ddoc)
    grads["attn.Wa"] = attn_grads["Wa"]
    grads["attn.ba"] = attn_grads["ba"]
    grads["attn.uw"] = attn_grads["uw"]

    H = params["lstm_f.Wh"].shape[1]
    f_grads, dx_f = lstm_direction_backward(trace.caches["lstm"]["f"], dh[:, :, :H])
    b_grads, dx_b = lstm_direction_backward(trace.caches["lstm"]["b"], dh[:, :, H:])
    for name, g in f_grads.items():
        grads[f"lstm_f.{name}"] = g
    for name, g in b_grads.items():
        grads[f"lstm_b.{name}"] = g
    return grads, dx_f + dx_b


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()},
            v={k: np.zeros_like(v, dtype=np.float64) for k, v in params.items()},
        )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard Adam with bias correction; updates params/state in place."""
    state.t += 1
    b1c = 1.0 - beta1 ** state.t
    b2c = 1.0 - beta2 ** state.t
    for key, g in grads.items():
        m, v = state.m[key], state.v[key]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        params[key] -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)


# ---------------------------------------------------------------------------
# model wrapper

class AggregatorModel:
    """Stateful wrapper: float64 parameters (keyed like PARAM_ORDER, which fix
    the input and hidden sizes), float64 batch-norm running statistics, and
    the label inventory."""

    bn_momentum: ClassVar[float] = 0.9  # running-statistics decay in training, not configurable

    def __init__(self, labels, params: dict[str, np.ndarray], bn_mean, bn_var, n_chunks: int,
                 bn_epsilon: float = _BN_EPSILON):
        self.labels = list(labels)
        self.params = params
        self.embedding_dim = params["lstm_f.Wx"].shape[1]
        self.hidden_size = params["lstm_f.Wh"].shape[1]
        self.bn_mean, self.bn_var = bn_mean, bn_var
        self.n_chunks = int(n_chunks)
        self.bn_epsilon = float(bn_epsilon)

    def forward(self, x, mask, training: bool = False) -> ForwardTrace:
        trace = forward_batch(self.params, self.bn_mean, self.bn_var, self.bn_epsilon,
                              self.bn_momentum, x, mask, training)
        if training:
            self.bn_mean, self.bn_var = trace.new_bn_mean, trace.new_bn_var
        return trace

    def classify(self, doc_vectors) -> np.ndarray:
        """The linear head: softmax(affine(BN(d))) for pooled document vectors
        (rows of `document_vectors`), normalized with the running statistics.
        Pure; these are `predict`'s `probabilities`, and their argmax is the
        linear label `pipeline.label_documents` gives."""
        p = self.params
        normed, _, _, _ = batchnorm_forward(
            doc_vectors, p["bn.gamma"], p["bn.beta"], self.bn_mean, self.bn_var,
            self.bn_epsilon, self.bn_momentum, training=False,
        )
        return softmax(normed @ p["head.W"].T + p["head.b"])

    def predict(self, x, mask) -> tuple[np.ndarray, np.ndarray]:
        trace = self.forward(x, mask, training=False)
        return trace.probs.argmax(axis=1), trace.probs

    def snapshot(self) -> dict:
        return {
            "params": {k: v.copy() for k, v in self.params.items()},
            "bn_mean": self.bn_mean.copy(),
            "bn_var": self.bn_var.copy(),
        }

    def restore(self, snap: dict) -> None:
        self.params = {k: v.copy() for k, v in snap["params"].items()}
        self.bn_mean = snap["bn_mean"].copy()
        self.bn_var = snap["bn_var"].copy()


# ---------------------------------------------------------------------------
# batching helpers

def collate(embedding_lists: list[list[ChunkEmbedding]]):
    """Pad variable-length chunk sequences into (B, T, E) plus a mask."""
    B = len(embedding_lists)
    T = max(len(e) for e in embedding_lists)
    E = len(embedding_lists[0][0].vector)
    x = np.zeros((B, T, E), dtype=np.float64)
    mask = np.zeros((B, T), dtype=bool)
    for b, embs in enumerate(embedding_lists):
        for t, emb in enumerate(embs):
            x[b, t] = emb.vector
            mask[b, t] = True
    return x, mask


def document_vectors(model: AggregatorModel,
                     embeddings: dict[str, list[ChunkEmbedding]]) -> dict[str, np.ndarray]:
    """Eval-mode attention-pooled vector for every document (pre-head)."""
    ids = sorted(embeddings)
    out: dict[str, np.ndarray] = {}
    for start in range(0, len(ids), _POOL_BATCH):
        batch_ids = ids[start : start + _POOL_BATCH]
        x, mask = collate([embeddings[i] for i in batch_ids])
        trace = model.forward(x, mask, training=False)
        for doc_id, vec in zip(batch_ids, trace.doc_vectors):
            out[doc_id] = vec.copy()
    return out


def train_aggregator(
    corpus: Corpus,
    split: DatasetSplit,
    embeddings: dict[str, list[ChunkEmbedding]],
    config: AggregatorConfig,
    seed: int,
    n_chunks: int,
) -> tuple[AggregatorModel, list[dict]]:
    """Mini-batch Adam training with per-epoch shuffling and early stopping.

    Validation macro-F1 selects the returned parameters; the log has one
    ``{"epoch", "train_loss", "val_f1"}`` row per epoch.
    """
    label_set = corpus.label_set
    missing = [i for i in split.train + split.validation if i not in embeddings]
    if missing:
        raise DataError(f"{len(missing)} split documents lack embeddings (first: {missing[0]})")
    embedding_dim = len(next(iter(embeddings.values()))[0].vector)
    params = init_params(embedding_dim, config.hidden_size, len(label_set),
                         np.random.default_rng(seed))
    d = 2 * config.hidden_size
    model = AggregatorModel(list(label_set), params, np.zeros(d), np.ones(d), n_chunks)
    adam = AdamState.like(params)
    train_ids = list(split.train)
    gold = {i: label_set.index(corpus.get(i).label) for i in train_ids + list(split.validation)}
    val_ids = list(split.validation)
    val_embeddings = {i: embeddings[i] for i in val_ids}
    val_gold = np.array([gold[i] for i in val_ids])
    if len(train_ids) < 2:
        raise DataError("need at least 2 training documents")
    batch_size = min(config.batch_size, len(train_ids))

    rng = np.random.default_rng([seed, 17])
    log: list[dict] = []
    best = {"f1": -1.0, "snap": model.snapshot(), "epoch": 0}
    since_best = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_ids))
        starts = list(range(0, len(order), batch_size))
        # a trailing singleton cannot be batch-normalized; fold it backwards
        if len(order) - starts[-1] == 1 and len(starts) > 1:
            starts.pop()
        epoch_loss = 0.0
        n_seen = 0
        for si, start in enumerate(starts):
            end = starts[si + 1] if si + 1 < len(starts) else len(order)
            batch_ids = [train_ids[j] for j in order[start:end]]
            x, mask = collate([embeddings[i] for i in batch_ids])
            gold_idx = np.array([gold[i] for i in batch_ids])
            trace = model.forward(x, mask, training=True)
            loss = cross_entropy(trace.probs, gold_idx)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            grads, _ = backward_batch(model.params, trace, gold_idx)
            adam_step(model.params, grads, adam, config.learning_rate,
                      config.beta1, config.beta2, config.adam_epsilon)
            epoch_loss += loss * len(batch_ids)
            n_seen += len(batch_ids)
        val_vecs = document_vectors(model, val_embeddings)
        val_pred = model.classify(np.stack([val_vecs[i] for i in val_ids])).argmax(axis=1)
        val_f1 = macro_f1(val_pred, val_gold, len(label_set))
        log.append({"epoch": epoch, "train_loss": epoch_loss / n_seen, "val_f1": val_f1})
        if val_f1 > best["f1"]:
            best = {"f1": val_f1, "snap": model.snapshot(), "epoch": epoch}
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    model.restore(best["snap"])
    logger.info("kept epoch %d parameters (val macro-F1 %.4f)", best["epoch"], best["f1"])
    return model, log


def write_training_log(log: list[dict], path) -> None:
    checkpoint.atomic_write(path, "".join(json.dumps(row) + "\n" for row in log))


# ---------------------------------------------------------------------------
# checkpointing

def save_aggregator(model: AggregatorModel, path) -> None:
    """Checkpoint (see `checkpoint`) of what inference reads, the parameters fixing
    the sizes. The arrays are saved as they are, float64 for a model trained
    here; save -> load -> forward agrees bitwise."""
    header = {"labels": model.labels, "n_chunks": model.n_chunks, "bn_epsilon": model.bn_epsilon}
    arrays = {key: model.params[key] for key in PARAM_ORDER}
    arrays.update({"bn.mean": model.bn_mean, "bn.var": model.bn_var})
    checkpoint.save(path, "aggregator", header, arrays)


def load_aggregator(path) -> AggregatorModel:
    """The model `save_aggregator` wrote, as float64; an older file's other fields
    are skipped, and its float32 arrays are widened exactly."""
    h, a = checkpoint.load(path, "aggregator")
    a = {key: a[key].astype(np.float64, copy=False) for key in (*PARAM_ORDER, "bn.mean", "bn.var")}
    return AggregatorModel(h["labels"], {key: a[key] for key in PARAM_ORDER}, a["bn.mean"],
                           a["bn.var"], h["n_chunks"], h["bn_epsilon"])
