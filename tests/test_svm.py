import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkdoc import checkpoint
from chunkdoc.errors import DataError
from chunkdoc.svm import (BinarySVM, SVMConfig, SVMModel, load_svm, rbf_kernel_matrix, save_svm,
                          solve_binary_dual, train_binary_svm, train_multiclass_svm)
from helpers import dual_objective, project_box_hyperplane, projected_gradient_dual, rbf_kernel


# ---------------------------------------------------------------------------
# kernel

def test_kernel_identical_points():
    x = np.array([[0.3, -1.2, 4.0]])
    assert rbf_kernel_matrix(x, x, gamma=0.7)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_kernel_hand_value():
    K = rbf_kernel_matrix(np.zeros((1, 2)), np.ones((1, 2)), gamma=0.5)
    assert K[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kernel_gamma_to_zero_limit():
    x, y = np.array([[5.0, 1.0]]), np.array([[-3.0, 2.0]])
    assert rbf_kernel_matrix(x, y, gamma=1e-14)[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_kernel_properties_1000_pairs():
    # gamma * dist^2 stays well under ~700 so exp never underflows to 0.0
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        x = rng.standard_normal((1, d)) * rng.uniform(0.1, 1.5)
        y = rng.standard_normal((1, d)) * rng.uniform(0.1, 1.5)
        gamma = float(rng.uniform(0.01, 0.5))
        k_xy = rbf_kernel_matrix(x, y, gamma)[0, 0]
        assert 0.0 < k_xy <= 1.0
        assert k_xy == rbf_kernel_matrix(y, x, gamma)[0, 0]
        assert k_xy == pytest.approx(rbf_kernel(x[0], y[0], gamma), rel=1e-12, abs=1e-15)
        assert rbf_kernel_matrix(x, x, gamma)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_kernel_matrix_matches_pairwise():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((7, 3))
    Y = rng.standard_normal((5, 3))
    K = rbf_kernel_matrix(X, Y, gamma=0.4)
    for i in range(7):
        for j in range(5):
            assert K[i, j] == pytest.approx(rbf_kernel(X[i], Y[j], 0.4), rel=1e-12)


# ---------------------------------------------------------------------------
# the oracle's projection onto {0 <= a <= C, y.a = 0}

@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
    st.floats(1e-3, 1e3))))
@settings(max_examples=200, deadline=None)
def test_projection_is_feasible_and_a_clip(case):
    v, y, C = np.array(case[0]), np.array(case[1]), case[2]
    p, t = project_box_hyperplane(v, y, C)
    assert np.all((p >= 0.0) & (p <= C))
    assert abs(float(y @ p)) <= 1e-9 * C * len(y)
    assert np.array_equal(p, np.clip(v + t * y, 0.0, C))


# ---------------------------------------------------------------------------
# binary solver

def test_two_point_symmetric_problem():
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    model = train_binary_svm(X, y, C=1000.0, gamma=1.0)
    assert len(model.dual_coef) == 2  # both points support the margin
    assert model.decision(np.array([[0.0]]), gamma=1.0)[0] == pytest.approx(0.0, abs=1e-9)
    assert model.decision(np.array([[-1.0]]), gamma=1.0)[0] < 0
    assert model.decision(np.array([[1.0]]), gamma=1.0)[0] > 0


def test_xor_fixture_separated():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = train_binary_svm(X, y, C=10.0, gamma=1.0)
    decisions = model.decision(X, gamma=1.0)
    assert np.all(np.sign(decisions) == y)


def _separable_2d(seed=0, n=40):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate([
        rng.standard_normal((half, 2)) * 0.5 + np.array([2.0, 2.0]),
        rng.standard_normal((n - half, 2)) * 0.5 + np.array([-2.0, -2.0]),
    ])
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    return X, y


def test_objective_matches_projected_gradient_oracle():
    X, y = _separable_2d(seed=3)
    gamma, C = 0.5, 1.0
    alpha, _, _ = solve_binary_dual(X, y, C=C, gamma=gamma, tolerance=1e-4, max_passes=20000)
    alpha_pg = projected_gradient_dual(X, y, C=C, gamma=gamma)
    obj_smo = dual_objective(X, y, alpha, gamma)
    obj_pg = dual_objective(X, y, alpha_pg, gamma)
    assert obj_smo == pytest.approx(obj_pg, abs=1e-3)
    assert obj_smo <= obj_pg + 1e-9  # the oracle runs to convergence


def test_objective_matches_oracle_overlapping_classes():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 2))
    y = np.where(X[:, 0] + 0.3 * rng.standard_normal(40) > 0, 1.0, -1.0)
    gamma, C = 1.0, 2.0
    alpha, _, _ = solve_binary_dual(X, y, C=C, gamma=gamma, tolerance=1e-4, max_passes=50000)
    alpha_pg = projected_gradient_dual(X, y, C=C, gamma=gamma, iters=60000)
    assert dual_objective(X, y, alpha, gamma) == pytest.approx(
        dual_objective(X, y, alpha_pg, gamma), abs=1e-3
    )


def test_dual_feasibility_and_box():
    for seed in range(5):
        X, y = _separable_2d(seed=seed)
        C = 1.5
        alpha, _, _ = solve_binary_dual(X, y, C=C, gamma=0.8, tolerance=1e-3, max_passes=20000)
        assert np.all(alpha >= -1e-12)
        assert np.all(alpha <= C + 1e-12)
        assert abs(float(y @ alpha)) <= 1e-9  # pair updates conserve the constraint


def test_margin_property_on_separable_fixture(monkeypatch):
    monkeypatch.setattr(SVMModel, "tolerance", 1e-4)
    monkeypatch.setattr(SVMModel, "max_passes", 50000)
    X, y = _separable_2d(seed=11)
    C = 1000.0
    alpha, bias, _ = solve_binary_dual(X, y, C, 0.5, 1e-4, 50000)
    model = train_binary_svm(X, y, C=C, gamma=0.5)
    decisions = model.decision(X, gamma=0.5)
    non_sv = alpha <= 1e-12
    assert non_sv.any()
    assert np.all(np.abs(decisions[non_sv]) >= 1.0 - 1e-3)
    assert np.all(np.sign(decisions) == y)


def test_single_class_input_fatal():
    X = np.zeros((4, 2))
    with pytest.raises(DataError):
        train_binary_svm(X, np.ones(4), C=1.0, gamma=1.0)


def test_solver_deterministic():
    X, y = _separable_2d(seed=2)
    a = train_binary_svm(X, y, C=2.0, gamma=0.7)
    b = train_binary_svm(X, y, C=2.0, gamma=0.7)
    assert np.array_equal(a.support_vectors, b.support_vectors)
    assert np.array_equal(a.dual_coef, b.dual_coef)
    assert a.bias == b.bias


# ---------------------------------------------------------------------------
# multiclass

def _three_clusters(seed=0, n_per=30, sigma=0.1, spread=10.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [spread, 0.0], [0.0, spread]])
    X, labels = [], []
    for c in range(3):
        X.append(rng.standard_normal((n_per, 2)) * sigma + centers[c])
        labels += [f"c{c}"] * n_per
    return np.concatenate(X), np.array(labels)


def test_three_gaussian_clusters_heldout_accuracy():
    X, labels = _three_clusters(seed=1)
    rng = np.random.default_rng(2)
    order = rng.permutation(len(X))
    n_train = int(0.7 * len(X))
    train_idx, test_idx = order[:n_train], order[n_train:]
    model = train_multiclass_svm(X[train_idx], labels[train_idx], ["c0", "c1", "c2"],
                                 SVMConfig(C=1.0))
    preds = model.predict(X[test_idx])
    assert preds == list(labels[test_idx])


def test_two_class_machines_are_negations():
    X, y = _separable_2d(seed=4)
    labels = np.where(y > 0, "pos", "neg")
    model = train_multiclass_svm(X, labels, ["neg", "pos"], SVMConfig(C=1.0))
    values = model.decision_values(X)
    np.testing.assert_allclose(values[:, 0], -values[:, 1], atol=5e-3)
    preds = model.predict(X)
    assert preds == list(labels)


def test_degenerate_identical_vectors(monkeypatch):
    monkeypatch.setattr(SVMModel, "max_passes", 500)
    X = np.ones((9, 3))
    labels = np.array(["a"] * 5 + ["b"] * 4)
    model = train_multiclass_svm(X, labels, ["a", "b"], SVMConfig(C=1.0))
    [label] = model.predict(np.ones((1, 3)))
    assert label in ("a", "b")
    assert np.isfinite(model.decision_values(np.ones((1, 3)))).all()
    assert model.predict(np.ones((1, 3))) == [label]


def test_default_gamma_is_one_over_dim():
    X, labels = _three_clusters(n_per=10)
    model = train_multiclass_svm(X, labels, ["c0", "c1", "c2"], SVMConfig())
    assert model.gamma == 0.5


def test_predict_training_points_recovers_gold():
    X, labels = _three_clusters(seed=5, n_per=15)
    model = train_multiclass_svm(X, labels, ["c0", "c1", "c2"], SVMConfig(C=10.0))
    assert model.predict(X[::7]) == list(labels[::7])


def test_predict_repeated_calls_identical():
    X, labels = _three_clusters(seed=6, n_per=10)
    model = train_multiclass_svm(X, labels, ["c0", "c1", "c2"], SVMConfig())
    x = X[3:4]
    assert model.predict(x) == model.predict(x)
    assert np.array_equal(model.decision_values(x), model.decision_values(x))


def test_zero_support_vector_machine_bias_only():
    machine = BinarySVM(support_vectors=np.zeros((0, 2)), dual_coef=np.zeros(0), bias=0.25)
    np.testing.assert_allclose(machine.decision(np.ones((3, 2)), gamma=1.0), 0.25)


# ---------------------------------------------------------------------------
# serialization

def test_checkpoint_roundtrip(tmp_path):
    X, labels = _three_clusters(seed=8, n_per=12)
    model = train_multiclass_svm(X, labels, ["c0", "c1", "c2"], SVMConfig(C=2.0))
    path = tmp_path / "svm.bin"
    save_svm(model, path)
    assert list(checkpoint.load(path, "svm")[0]) == ["labels", "gamma", "C"]
    loaded = load_svm(path)
    assert loaded.labels == model.labels
    assert (loaded.gamma, loaded.C) == (model.gamma, model.C)
    for a, b in zip(model.machines, loaded.machines):
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias
    rng = np.random.default_rng(9)
    probe = rng.standard_normal((5, 2)) * 3
    assert np.array_equal(model.decision_values(probe), loaded.decision_values(probe))
    second = tmp_path / "svm2.bin"
    save_svm(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_checkpoint_with_training_fields_still_loads(tmp_path):
    """The earlier layout also stored SMO's `tolerance` and `max_passes`; such
    a file loads and gives bit-equal decision values."""
    X, labels = _three_clusters(seed=8, n_per=12)
    model = train_multiclass_svm(X, labels, ["c0", "c1", "c2"], SVMConfig(C=2.0))
    save_svm(model, tmp_path / "svm.bin")
    header, arrays = checkpoint.load(tmp_path / "svm.bin", "svm")
    checkpoint.save(tmp_path / "old.bin", "svm",
                    {**header, "tolerance": 1e-3, "max_passes": 20000}, arrays)
    loaded = load_svm(tmp_path / "old.bin")
    probe = np.random.default_rng(9).standard_normal((5, 2)) * 3
    assert np.array_equal(model.decision_values(probe), loaded.decision_values(probe))
    assert (loaded.labels, loaded.gamma, loaded.C) == (model.labels, model.gamma, model.C)


def test_checkpoint_with_a_bias_per_other_label_count_is_refused(tmp_path):
    X, labels = _three_clusters(seed=8, n_per=12)
    model = train_multiclass_svm(X, labels, ["c0", "c1", "c2"], SVMConfig())
    save_svm(model, tmp_path / "svm.bin")
    header, arrays = checkpoint.load(tmp_path / "svm.bin", "svm")
    checkpoint.save(tmp_path / "svm.bin", "svm", {**header, "labels": ["c0", "c1"]}, arrays)
    with pytest.raises(ValueError, match="3 machines for 2 labels"):
        load_svm(tmp_path / "svm.bin")
