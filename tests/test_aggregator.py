import math

import numpy as np
import pytest

from chunkdoc import checkpoint
from chunkdoc.aggregator import (PARAM_ORDER, AdamState, AggregatorConfig, AggregatorModel,
                                 ForwardTrace, adam_step, attention_forward,
                                 backward_batch, batchnorm_forward, bilstm_forward,
                                 collate, cross_entropy, document_vectors,
                                 forward_batch, init_params, load_aggregator,
                                 lstm_direction_forward, save_aggregator, softmax,
                                 train_aggregator, _f64, _sigmoid)
from chunkdoc.corpus import Corpus, DatasetSplit, Document, LabelSet
from chunkdoc.embedder import ChunkEmbedding
from chunkdoc.errors import DataError


def _rand_params(embedding_dim, hidden, n_classes, seed, scale=0.4):
    """Random, moderately scaled f64 parameters for oracle tests."""
    rng = np.random.default_rng(seed)
    d = 2 * hidden
    return {
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


# ---------------------------------------------------------------------------
# independent scalar oracles (plain python loops, no shared code)

def _scalar_lstm(Wx, Wh, b, x_seq, reverse=False):
    """Step-by-step single-sequence LSTM with python-level arithmetic."""
    T = len(x_seq)
    H = Wh.shape[1]
    order = list(range(T - 1, -1, -1)) if reverse else list(range(T))
    h = [0.0] * H
    c = [0.0] * H
    outputs = [[0.0] * H for _ in range(T)]
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    for t in order:
        pre = [0.0] * (4 * H)
        for r in range(4 * H):
            acc = float(b[r])
            for e in range(len(x_seq[t])):
                acc += float(Wx[r, e]) * float(x_seq[t][e])
            for k in range(H):
                acc += float(Wh[r, k]) * h[k]
            pre[r] = acc
        new_h = [0.0] * H
        new_c = [0.0] * H
        for k in range(H):
            i_g = sig(pre[k])
            f_g = sig(pre[H + k])
            g_g = math.tanh(pre[2 * H + k])
            o_g = sig(pre[3 * H + k])
            new_c[k] = f_g * c[k] + i_g * g_g
            new_h[k] = o_g * math.tanh(new_c[k])
        h, c = new_h, new_c
        outputs[t] = list(h)
    return outputs


def _scalar_attention(Wa, ba, uw, h_seq):
    """Direct evaluation: u_t = tanh(Wa h_t + ba); softmax(u_t . uw); sum."""
    T = len(h_seq)
    D = len(ba)
    scores = []
    us = []
    for t in range(T):
        u_t = []
        for r in range(D):
            acc = float(ba[r])
            for k in range(D):
                acc += float(Wa[r, k]) * float(h_seq[t][k])
            u_t.append(math.tanh(acc))
        us.append(u_t)
        scores.append(sum(u_t[r] * float(uw[r]) for r in range(D)))
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    z = sum(exps)
    alphas = [e / z for e in exps]
    doc = [sum(alphas[t] * float(h_seq[t][k]) for t in range(T)) for k in range(D)]
    return alphas, doc


def _scalar_classify(x_rows, gamma, beta, mean, var, eps, W, b):
    """BN with given statistics, then affine, then softmax, all in loops."""
    out = []
    for row in x_rows:
        normed = [
            float(gamma[k]) * (float(row[k]) - float(mean[k])) / math.sqrt(float(var[k]) + eps)
            + float(beta[k])
            for k in range(len(row))
        ]
        logits = [
            float(b[c]) + sum(float(W[c, k]) * normed[k] for k in range(len(normed)))
            for c in range(W.shape[0])
        ]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        z = sum(exps)
        out.append([e / z for e in exps])
    return out


# ---------------------------------------------------------------------------
# BiLSTM forward

def test_lstm_all_zero_inputs_and_params():
    H, E, T = 3, 4, 5
    params = {k: np.zeros_like(v) for k, v in _rand_params(E, H, 2, 0).items()}
    x = np.zeros((2, T, E))
    mask = np.ones((2, T), dtype=bool)
    h, _ = bilstm_forward(params, x, mask)
    assert np.array_equal(h, np.zeros((2, T, 2 * H)))


def test_lstm_single_timestep_directions_see_same_input():
    params = _rand_params(4, 3, 2, seed=1)
    x = np.random.default_rng(2).standard_normal((1, 1, 4))
    mask = np.ones((1, 1), dtype=bool)
    h, _ = bilstm_forward(params, x, mask)
    fwd = _scalar_lstm(params["lstm_f.Wx"], params["lstm_f.Wh"], params["lstm_f.b"], x[0])
    bwd = _scalar_lstm(params["lstm_b.Wx"], params["lstm_b.Wh"], params["lstm_b.b"], x[0],
                       reverse=True)
    np.testing.assert_allclose(h[0, 0, :3], fwd[0], atol=1e-12)
    np.testing.assert_allclose(h[0, 0, 3:], bwd[0], atol=1e-12)


def test_lstm_matches_scalar_oracle():
    H, E, T = 3, 4, 2
    params = _rand_params(E, H, 2, seed=3)
    x = np.random.default_rng(4).standard_normal((1, T, E))
    mask = np.ones((1, T), dtype=bool)
    h, _ = bilstm_forward(params, x, mask)
    fwd = _scalar_lstm(params["lstm_f.Wx"], params["lstm_f.Wh"], params["lstm_f.b"], x[0])
    bwd = _scalar_lstm(params["lstm_b.Wx"], params["lstm_b.Wh"], params["lstm_b.b"], x[0],
                       reverse=True)
    for t in range(T):
        np.testing.assert_allclose(h[0, t, :H], fwd[t], atol=1e-12)
        np.testing.assert_allclose(h[0, t, H:], bwd[t], atol=1e-12)


def test_lstm_dimension_mismatch_fatal():
    params = _rand_params(4, 3, 2, seed=1)
    with pytest.raises(DataError):
        bilstm_forward(params, np.zeros((1, 2, 7)), np.ones((1, 2), dtype=bool))


# ---------------------------------------------------------------------------
# attention

def test_attention_single_timestep_is_identity():
    params = _rand_params(4, 3, 2, seed=5)
    h = np.random.default_rng(6).standard_normal((2, 1, 6))
    mask = np.ones((2, 1), dtype=bool)
    alpha, doc, _ = attention_forward(params["attn.Wa"], params["attn.ba"], params["attn.uw"],
                                      h, mask)
    np.testing.assert_allclose(alpha, np.ones((2, 1)), atol=1e-15)
    np.testing.assert_allclose(doc, h[:, 0, :], atol=1e-15)


def test_attention_uniform_when_scores_constant():
    d = 6
    Wa = np.zeros((d, d))
    ba = np.random.default_rng(7).standard_normal(d)
    uw = np.random.default_rng(8).standard_normal(d)
    h = np.random.default_rng(9).standard_normal((3, 5, d))
    mask = np.ones((3, 5), dtype=bool)
    alpha, doc, _ = attention_forward(Wa, ba, uw, h, mask)
    np.testing.assert_allclose(alpha, np.full((3, 5), 0.2), atol=1e-12)
    np.testing.assert_allclose(doc, h.mean(axis=1), atol=1e-12)


def test_attention_matches_scalar_oracle_100_cases():
    rng = np.random.default_rng(10)
    for case in range(100):
        T = int(rng.integers(1, 6))
        d = int(rng.integers(2, 8)) * 2
        Wa = rng.standard_normal((d, d))
        ba = rng.standard_normal(d)
        uw = rng.standard_normal(d)
        h = rng.standard_normal((1, T, d))
        mask = np.ones((1, T), dtype=bool)
        alpha, doc, _ = attention_forward(Wa, ba, uw, h, mask)
        ref_alpha, ref_doc = _scalar_attention(Wa, ba, uw, h[0])
        np.testing.assert_allclose(alpha[0], ref_alpha, atol=1e-12)
        np.testing.assert_allclose(doc[0], ref_doc, atol=1e-12)


def test_attention_all_masked_fatal():
    params = _rand_params(4, 3, 2, seed=5)
    h = np.zeros((1, 3, 6))
    mask = np.zeros((1, 3), dtype=bool)
    with pytest.raises(DataError):
        attention_forward(params["attn.Wa"], params["attn.ba"], params["attn.uw"], h, mask)


def test_attention_normalization_1000_draws():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        T = int(rng.integers(1, 8))
        d = 6
        h = rng.standard_normal((2, T, d)) * rng.uniform(0.1, 3.0)
        mask = np.ones((2, T), dtype=bool)
        mask[1, rng.integers(0, T)] = T > 1  # knock one position out sometimes
        if not mask[1].any():
            mask[1, 0] = True
        alpha, _, _ = attention_forward(rng.standard_normal((d, d)), rng.standard_normal(d),
                                        rng.standard_normal(d), h, mask)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(alpha[~mask] == 0.0)


def test_attention_uw_scaling_preserves_argmax():
    rng = np.random.default_rng(12)
    d = 8
    params = _rand_params(4, 4, 2, seed=13)
    h = rng.standard_normal((4, 6, d))
    mask = np.ones((4, 6), dtype=bool)
    alpha1, _, _ = attention_forward(params["attn.Wa"], params["attn.ba"], params["attn.uw"],
                                     h, mask)
    alpha2, _, _ = attention_forward(params["attn.Wa"], params["attn.ba"],
                                     3.7 * params["attn.uw"], h, mask)
    assert np.array_equal(alpha1.argmax(axis=1), alpha2.argmax(axis=1))


# ---------------------------------------------------------------------------
# classify / batchnorm / loss

def _seeded_model(labels=("a", "b", "c", "d", "e"), E=4, H=3, n_chunks=3, seed=0):
    """An untrained model holding the initialization `train_aggregator` draws for `seed`."""
    params = init_params(E, H, len(labels), np.random.default_rng(seed))
    return AggregatorModel(list(labels), params, np.zeros(2 * H, dtype=np.float32),
                           np.ones(2 * H, dtype=np.float32), n_chunks)


def test_classify_zero_logits_uniform():
    model = _seeded_model()
    d = 2 * model.hidden_size
    model.params["bn.gamma"] = np.ones(d, dtype=np.float32)
    model.params["bn.beta"] = np.zeros(d, dtype=np.float32)
    model.params["head.W"] = np.zeros((5, d), dtype=np.float32)
    model.params["head.b"] = np.zeros(5, dtype=np.float32)
    probs = model.classify(np.random.default_rng(0).standard_normal((3, d)))
    np.testing.assert_allclose(probs, np.full((3, 5), 0.2), atol=1e-15)


def test_classify_known_softmax():
    # identity normalization (variance 1 - eps cancels the epsilon exactly),
    # identity head: probabilities proportional to 1, 2, 3, 4
    model = _seeded_model(["a", "b", "c", "d"], 4, 2, n_chunks=1)
    d = 4
    model.params["bn.gamma"] = np.ones(d, dtype=np.float32)
    model.params["bn.beta"] = np.zeros(d, dtype=np.float32)
    model.bn_mean = np.zeros(d, dtype=np.float32)
    model.bn_var = np.full(d, 1.0 - model.bn_epsilon, dtype=np.float32)
    model.params["head.W"] = np.eye(4, dtype=np.float32)
    model.params["head.b"] = np.zeros(4, dtype=np.float32)
    logits = np.log(np.array([[1.0, 2.0, 3.0, 4.0]]))
    probs = model.classify(logits)
    np.testing.assert_allclose(probs, [[0.1, 0.2, 0.3, 0.4]], atol=1e-9)


def test_classify_matches_scalar_oracle():
    rng = np.random.default_rng(14)
    for _ in range(100):
        d, c = 6, 4
        x = rng.standard_normal((3, d))
        gamma = 1.0 + 0.3 * rng.standard_normal(d)
        beta = rng.standard_normal(d) * 0.2
        mean = rng.standard_normal(d) * 0.5
        var = rng.uniform(0.5, 2.0, d)
        W = rng.standard_normal((c, d))
        b = rng.standard_normal(c)
        eps = 1e-8
        normed, _, _, _ = batchnorm_forward(x, gamma, beta, mean, var, eps, 0.9, training=False)
        probs = softmax(normed @ W.T + b)
        ref = _scalar_classify(x, gamma, beta, mean, var, eps, W, b)
        np.testing.assert_allclose(probs, ref, atol=1e-12)


def test_batchnorm_train_moment_oracle():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((8, 12)) * rng.uniform(0.5, 2.0, 12) + rng.standard_normal(12)
    y, cache, _, _ = batchnorm_forward(x, np.ones(12), np.zeros(12),
                                       np.zeros(12), np.ones(12), 1e-8, 0.9, training=True)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-6)


def test_batchnorm_running_stats_update():
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    _, _, new_mean, new_var = batchnorm_forward(
        x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), 1e-8, 0.9, training=True
    )
    np.testing.assert_allclose(new_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 4.0]))
    np.testing.assert_allclose(new_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))


def test_batchnorm_train_batch_of_one_fatal():
    with pytest.raises(DataError):
        batchnorm_forward(np.ones((1, 3)), np.ones(3), np.zeros(3),
                          np.zeros(3), np.ones(3), 1e-8, 0.9, training=True)


def test_classify_eval_mode_is_pure():
    model = _seeded_model()
    x = np.random.default_rng(1).standard_normal((4, 2 * model.hidden_size))
    before = model.snapshot()
    p1 = model.classify(x)
    p2 = model.classify(x)
    assert np.array_equal(p1, p2)
    after = model.snapshot()
    assert np.array_equal(before["bn_mean"], after["bn_mean"])
    assert np.array_equal(before["bn_var"], after["bn_var"])
    for k in before["params"]:
        assert np.array_equal(before["params"][k], after["params"][k])


def test_loss_values():
    one_hot = np.array([[0.0, 1.0, 0.0]])
    assert cross_entropy(one_hot, [1]) == pytest.approx(0.0, abs=1e-12)
    uniform = np.full((1, 5), 0.2)
    assert cross_entropy(uniform, [2]) == pytest.approx(math.log(5), rel=1e-12)
    half = np.array([[0.5, 0.5]])
    assert cross_entropy(half, [0]) == pytest.approx(math.log(2), rel=1e-12)


def test_softmax_normalization_1000_draws():
    # scale capped so no entry rounds to exactly 0.0 or 1.0 in float64
    rng = np.random.default_rng(16)
    for _ in range(1000):
        logits = rng.standard_normal((3, 5)) * rng.uniform(0.1, 3.0)
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_softmax_stable_at_extreme_scale():
    probs = softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_sigmoid_saturates_without_an_overflow_warning():
    """exp(1000) overflows to inf, so the gate is exactly 0; the suite turns
    the overflow warning into an error, so it must not be raised."""
    assert np.array_equal(_sigmoid(np.array([-1000.0, 1000.0])), [0.0, 1.0])


# ---------------------------------------------------------------------------
# gradients (the keystone)

def _loss_for(params, bn_mean, bn_var, x, mask, gold):
    trace = forward_batch(params, bn_mean, bn_var, 1e-8, 0.9, x, mask, training=True)
    return cross_entropy(trace.probs, gold)


def _finite_difference_check(params, x, mask, gold, step=1e-5, tolerance=1e-4,
                             check_inputs=True):
    bn_mean = np.zeros(params["bn.gamma"].shape[0])
    bn_var = np.ones(params["bn.gamma"].shape[0])
    trace = forward_batch(params, bn_mean, bn_var, 1e-8, 0.9, x, mask, training=True)
    grads, dx = backward_batch(params, trace, gold)

    def rel_err(analytic, numeric):
        if abs(analytic - numeric) < 1e-8:
            return 0.0
        return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)

    worst = 0.0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = _loss_for(params, bn_mean, bn_var, x, mask, gold)
            flat[idx] = orig - step
            down = _loss_for(params, bn_mean, bn_var, x, mask, gold)
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            worst = max(worst, rel_err(grads[key].reshape(-1)[idx], numeric))
    if check_inputs:
        flat = x.reshape(-1)
        dflat = dx.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = _loss_for(params, bn_mean, bn_var, x, mask, gold)
            flat[idx] = orig - step
            down = _loss_for(params, bn_mean, bn_var, x, mask, gold)
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            worst = max(worst, rel_err(dflat[idx], numeric))
    assert worst < tolerance, f"max relative error {worst:.3e}"
    return worst


def test_gradients_match_finite_differences():
    """Keystone: analytic gradients of the whole stack vs central differences."""
    E, H, C, T, B = 8, 6, 3, 4, 4
    params = _rand_params(E, H, C, seed=20, scale=0.4)
    rng = np.random.default_rng(21)
    x = rng.standard_normal((B, T, E))
    mask = np.ones((B, T), dtype=bool)
    gold = rng.integers(0, C, B)
    _finite_difference_check(params, x, mask, gold)


def test_gradients_match_finite_differences_with_padding():
    E, H, C, T, B = 5, 4, 3, 5, 4
    params = _rand_params(E, H, C, seed=22, scale=0.4)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((B, T, E))
    mask = np.zeros((B, T), dtype=bool)
    for b, length in enumerate((5, 3, 1, 4)):
        mask[b, :length] = True
    x[~mask] = 0.0
    gold = rng.integers(0, C, B)
    _finite_difference_check(params, x, mask, gold, check_inputs=False)


def test_zero_loss_head_bias_gradient_zero():
    # all-gold probabilities pinned at 1 by a huge bias margin
    E, H, C, B = 4, 3, 3, 4
    params = _rand_params(E, H, C, seed=24, scale=0.0)
    params["head.b"] = np.array([200.0, -200.0, -200.0])
    x = np.zeros((B, 2, E))
    mask = np.ones((B, 2), dtype=bool)
    trace = forward_batch(params, np.zeros(2 * H), np.ones(2 * H), 1e-8, 0.9, x, mask,
                          training=True)
    grads, _ = backward_batch(params, trace, np.zeros(B, dtype=int))
    np.testing.assert_allclose(grads["head.b"], 0.0, atol=1e-12)


def test_uw_gradient_zero_for_single_timestep():
    E, H, C, B = 4, 3, 3, 4
    params = _rand_params(E, H, C, seed=25)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((B, 1, E))
    mask = np.ones((B, 1), dtype=bool)
    trace = forward_batch(params, np.zeros(2 * H), np.ones(2 * H), 1e-8, 0.9, x, mask,
                          training=True)
    grads, _ = backward_batch(params, trace, rng.integers(0, C, B))
    np.testing.assert_allclose(grads["attn.uw"], 0.0, atol=1e-15)


def test_masked_padding_changes_nothing():
    E, H, C, B, T = 5, 4, 3, 3, 4
    params = _rand_params(E, H, C, seed=27)
    rng = np.random.default_rng(28)
    x = rng.standard_normal((B, T, E))
    mask = np.ones((B, T), dtype=bool)
    trace = forward_batch(params, np.zeros(2 * H), np.ones(2 * H), 1e-8, 0.9, x, mask,
                          training=False)
    x_pad = np.concatenate([x, rng.standard_normal((B, 2, E))], axis=1)
    mask_pad = np.concatenate([mask, np.zeros((B, 2), dtype=bool)], axis=1)
    trace_pad = forward_batch(params, np.zeros(2 * H), np.ones(2 * H), 1e-8, 0.9,
                              x_pad, mask_pad, training=False)
    np.testing.assert_allclose(trace_pad.alpha[:, :T], trace.alpha, atol=1e-12)
    np.testing.assert_allclose(trace_pad.alpha[:, T:], 0.0, atol=0.0)
    np.testing.assert_allclose(trace_pad.doc_vectors, trace.doc_vectors, atol=1e-12)
    np.testing.assert_allclose(trace_pad.probs, trace.probs, atol=1e-12)


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.5, -2.0], dtype=np.float32)}
    state = AdamState.like(params)
    adam_step(params, {"w": np.zeros(2)}, state, lr=0.001)
    assert np.array_equal(params["w"], np.array([1.5, -2.0], dtype=np.float32))


def test_adam_first_step_magnitude():
    params = {"w": np.array([0.0])}
    state = AdamState.like(params)
    adam_step(params, {"w": np.array([1.0])}, state, lr=0.001)
    assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_bias_correction_two_steps():
    # hand-evaluated: after two unit-gradient steps the update magnitude
    # stays ~lr because bias correction cancels the moment decay
    params = {"w": np.array([0.0])}
    state = AdamState.like(params)
    adam_step(params, {"w": np.array([1.0])}, state, lr=0.001)
    adam_step(params, {"w": np.array([1.0])}, state, lr=0.001)
    assert params["w"][0] == pytest.approx(-0.002, rel=1e-5)
    assert state.t == 2


# ---------------------------------------------------------------------------
# training on separable synthetic embeddings

def _gaussian_embedded_corpus(n_per_class=30, n_chunks=3, dim=12, n_classes=3, seed=0):
    """Chunk embeddings drawn around class-specific means: separable by
    construction, exercising the aggregator end to end without the embedder."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, dim)) * 2.0
    labels = [f"k{c}" for c in range(n_classes)]
    docs = []
    embeddings = {}
    for c in range(n_classes):
        for i in range(n_per_class):
            doc_id = f"{labels[c]}/doc{i:03d}"
            text = " ".join(f"w{j}" for j in range(n_chunks))
            docs.append(Document(doc_id, labels[c], text, text))
            embeddings[doc_id] = [
                ChunkEmbedding(doc_id, t + 1,
                               (centers[c] + 0.3 * rng.standard_normal(dim)).astype(np.float32))
                for t in range(n_chunks)
            ]
    corpus = Corpus(docs, LabelSet(labels))
    from chunkdoc.corpus import split_dataset

    return corpus, split_dataset(corpus, seed=1), embeddings


def test_training_reaches_high_f1_on_separable_data():
    corpus, split, embeddings = _gaussian_embedded_corpus()
    config = AggregatorConfig(hidden_size=8, learning_rate=0.01, batch_size=16,
                              epochs=30, patience=30)
    model, log = train_aggregator(corpus, split, embeddings, config, seed=5, n_chunks=3)
    assert max(row["val_f1"] for row in log) >= 0.95
    assert len(log) <= 30
    assert all(set(row) == {"epoch", "train_loss", "val_f1"} for row in log)


def test_training_zero_learning_rate_keeps_params():
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=10)
    config = AggregatorConfig(hidden_size=6, learning_rate=0.0, batch_size=8,
                              epochs=3, patience=10)
    model, _ = train_aggregator(corpus, split, embeddings, config, seed=5, n_chunks=3)
    fresh = _seeded_model(model.labels, 12, 6, seed=5)
    for key in fresh.params:
        assert np.array_equal(model.params[key], fresh.params[key])


def test_training_zero_lr_frozen_stats_equals_untrained_baseline(monkeypatch):
    # bn_momentum=1.0 freezes the running statistics, so lr=0 training is a
    # pure no-op and every epoch scores exactly the untrained baseline
    from chunkdoc.evaluation import macro_f1

    monkeypatch.setattr(AggregatorModel, "bn_momentum", 1.0)
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=10)
    config = AggregatorConfig(hidden_size=6, learning_rate=0.0, batch_size=8,
                              epochs=3, patience=10)
    model, log = train_aggregator(corpus, split, embeddings, config, seed=5, n_chunks=3)
    baseline = _seeded_model(model.labels, 12, 6, seed=5)
    gold = np.array([corpus.label_set.index(corpus.get(i).label) for i in split.validation])
    preds, _ = baseline.predict(*collate([embeddings[i] for i in split.validation]))
    baseline_f1 = macro_f1(preds, gold, len(corpus.label_set))
    assert {row["val_f1"] for row in log} == {baseline_f1}


def test_training_batch_larger_than_train_set():
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=6)
    config = AggregatorConfig(hidden_size=6, learning_rate=0.01, batch_size=5000,
                              epochs=2, patience=10)
    model, log = train_aggregator(corpus, split, embeddings, config, seed=5, n_chunks=3)
    assert len(log) == 2


def test_training_deterministic():
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=8)
    config = AggregatorConfig(hidden_size=6, learning_rate=0.01, batch_size=8,
                              epochs=4, patience=10)
    m1, log1 = train_aggregator(corpus, split, embeddings, config, seed=9, n_chunks=3)
    m2, log2 = train_aggregator(corpus, split, embeddings, config, seed=9, n_chunks=3)
    assert log1 == log2
    for key in m1.params:
        assert np.array_equal(m1.params[key], m2.params[key])
    assert np.array_equal(m1.bn_mean, m2.bn_mean)


# ---------------------------------------------------------------------------
# document vectors

def test_document_vectors_single_chunk_equals_hidden_state():
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=4, n_chunks=1)
    model = _seeded_model(list(corpus.label_set), 12, 5, n_chunks=1, seed=3)
    vecs = document_vectors(model, embeddings)
    doc_id = corpus.documents[0].id
    x, mask = collate([embeddings[doc_id]])
    h, _ = bilstm_forward(_f64(model.params), x, mask)
    np.testing.assert_allclose(vecs[doc_id], h[0, 0], atol=1e-12)
    assert len(vecs) == len(corpus)


def test_classify_of_document_vectors_matches_predict():
    # the linear head on pooled vectors is the tail of the full forward pass
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=4)
    model = _seeded_model(list(corpus.label_set), 12, 5, seed=3)
    model.bn_mean = np.linspace(-0.2, 0.2, 10).astype(np.float32)
    model.bn_var = np.linspace(0.5, 1.5, 10).astype(np.float32)
    ids = [d.id for d in corpus]
    vecs = document_vectors(model, embeddings)
    probs = model.classify(np.stack([vecs[i] for i in ids]))
    preds, ref = model.predict(*collate([embeddings[i] for i in ids]))
    np.testing.assert_allclose(probs, ref, atol=1e-12)
    assert np.array_equal(probs.argmax(axis=1), preds)


def test_document_vectors_deterministic():
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=4)
    model = _seeded_model(list(corpus.label_set), 12, 5, seed=3)
    v1 = document_vectors(model, embeddings)
    v2 = document_vectors(model, embeddings)
    for k in v1:
        assert np.array_equal(v1[k], v2[k])


# ---------------------------------------------------------------------------
# serialization

def _small_trained_model():
    """A briefly trained model plus one collated document to forward."""
    corpus, split, embeddings = _gaussian_embedded_corpus(n_per_class=8)
    config = AggregatorConfig(hidden_size=6, learning_rate=0.01, batch_size=8,
                              epochs=3, patience=10)
    model, _ = train_aggregator(corpus, split, embeddings, config, seed=2, n_chunks=3)
    return model, collate([embeddings[corpus.documents[0].id]])


def test_checkpoint_roundtrip_bitwise_forward(tmp_path):
    model, (x, mask) = _small_trained_model()
    path = tmp_path / "agg.bin"
    save_aggregator(model, path)
    loaded = load_aggregator(path)
    for key in model.params:
        assert np.array_equal(model.params[key], loaded.params[key])
    assert np.array_equal(model.bn_mean, loaded.bn_mean)
    assert np.array_equal(model.bn_var, loaded.bn_var)
    assert loaded.labels == model.labels

    a = model.forward(x, mask, training=False)
    b = loaded.forward(x, mask, training=False)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.doc_vectors, b.doc_vectors)

    second = tmp_path / "agg2.bin"
    save_aggregator(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_checkpoint_holds_only_parameters_and_bn_statistics(tmp_path):
    """Only what inference reads: no Adam state, no sizes (the parameters fix
    them), no batch-norm momentum (only training reads it)."""
    model, _ = _small_trained_model()
    save_aggregator(model, tmp_path / "agg.bin")
    header, arrays = checkpoint.load(tmp_path / "agg.bin", "aggregator")
    assert list(arrays) == [*PARAM_ORDER, "bn.mean", "bn.var"]
    assert list(header) == ["labels", "n_chunks", "bn_epsilon"]


def test_checkpoint_with_adam_moments_still_loads(tmp_path):
    """Earlier layouts also stored the sizes, the batch-norm momentum, and
    Adam's moments and step count; such a file loads, forwards and
    classifies bit-equal."""
    model, (x, mask) = _small_trained_model()
    state = AdamState.like(model.params)
    adam_step({k: v.copy() for k, v in model.params.items()},
              {k: np.ones_like(v) for k, v in model.params.items()}, state, lr=0.01)
    header = {"labels": model.labels, "embedding_dim": model.embedding_dim,
              "hidden_size": model.hidden_size, "n_chunks": model.n_chunks,
              "bn_momentum": 0.9, "bn_epsilon": model.bn_epsilon, "adam_t": state.t}
    arrays = {key: model.params[key] for key in PARAM_ORDER}
    arrays.update({"bn.mean": model.bn_mean, "bn.var": model.bn_var})
    arrays.update({f"adam.m.{key}": state.m[key] for key in PARAM_ORDER})
    arrays.update({f"adam.v.{key}": state.v[key] for key in PARAM_ORDER})
    checkpoint.save(tmp_path / "old.bin", "aggregator", header, arrays)
    loaded = load_aggregator(tmp_path / "old.bin")
    a = model.forward(x, mask, training=False)
    b = loaded.forward(x, mask, training=False)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.doc_vectors, b.doc_vectors)
    assert np.array_equal(model.classify(a.doc_vectors), loaded.classify(b.doc_vectors))
    assert loaded.n_chunks == model.n_chunks and loaded.labels == model.labels
