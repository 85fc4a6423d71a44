import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairsift import metrics
from fairsift.models import (
    LogisticConfig,
    LogisticModel,
    ReweighingError,
    loss_and_gradient,
    reweigh,
    train_logistic,
)


def finite_difference_gradient(theta, X, y, w, l2, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        lu, _ = loss_and_gradient(up, X, y, w, l2)
        ld, _ = loss_and_gradient(down, X, y, w, l2)
        grad[i] = (lu - ld) / (2 * step)
    return grad


def random_problem(rng, n_max=50, p_max=5):
    n = int(rng.integers(5, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    X = rng.normal(size=(n, p))
    y = rng.integers(0, 2, n)
    w = rng.uniform(0.1, 3.0, n)
    return X, y, w


class TestTraining:
    def test_separates_two_points(self):
        model = train_logistic(np.array([[0.0], [1.0]]), np.array([0, 1]))
        assert model.predict(np.array([[0.0], [1.0]])).tolist() == [0, 1]
        assert model.converged

    def test_all_favorable_predicts_favorable(self):
        X = np.random.default_rng(0).random((12, 2))
        model = train_logistic(X, np.ones(12))
        assert model.predict(X).tolist() == [1] * 12

    def test_weight_doubling_with_scaled_l2_is_identical(self, rng):
        X, y, w = random_problem(rng)
        a = train_logistic(X, y, w, LogisticConfig(l2_strength=1.0))
        b = train_logistic(X, y, 2 * w, LogisticConfig(l2_strength=2.0))
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-5)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-5)

    def test_weight_doubling_fixed_l2_keeps_train_predictions(self, rng):
        for _ in range(5):
            X, y, w = random_problem(rng, n_max=40)
            a = train_logistic(X, y, w)
            b = train_logistic(X, y, 2 * w)
            # decision boundary shifts slightly, but points with a clear
            # margin keep their labels
            margin = np.abs(a.decision_function(X)) > 0.2
            assert np.array_equal(a.predict(X)[margin], b.predict(X)[margin])

    def test_deterministic(self, rng):
        X, y, w = random_problem(rng)
        a = train_logistic(X, y, w)
        b = train_logistic(X, y, w)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept

    def test_converges_on_random_instances(self, rng):
        for _ in range(10):
            X, y, w = random_problem(rng)
            model = train_logistic(X, y, w)
            assert model.converged
            _, grad = loss_and_gradient(
                np.concatenate(([model.intercept], model.coefficients)),
                X, y, w, model.config.l2_strength,
            )
            assert np.linalg.norm(grad) <= model.config.tolerance

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((0, 2)), np.zeros(0))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.eye(3), np.array([0, 1, 0]), np.zeros(3))

    def test_gradient_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            X, y, w = random_problem(rng)
            theta = rng.normal(scale=0.5, size=X.shape[1] + 1)
            _, analytic = loss_and_gradient(theta, X, y, w, 1.0)
            numeric = finite_difference_gradient(theta, X, y, w, 1.0)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-4


class TestPrediction:
    def make(self, coef, intercept):
        return LogisticModel(
            coefficients=np.array(coef, dtype=float),
            intercept=float(intercept),
            config=LogisticConfig(),
            converged=True,
            n_iterations=0,
        )

    def test_boundary_rule_is_favorable(self):
        model = self.make([0.0], 0.0)
        assert model.predict(np.array([[0.3], [0.9]])).tolist() == [1, 1]

    def test_large_negative_intercept(self):
        model = self.make([0.0], -50.0)
        assert model.predict(np.array([[0.1], [0.5]])).tolist() == [0, 0]

    def test_monotone_in_positive_feature(self):
        model = self.make([2.0], -1.0)
        X = np.linspace(0, 1, 11).reshape(-1, 1)
        preds = model.predict(X)
        assert np.all(np.diff(preds) >= 0)

    def test_dimension_mismatch(self):
        model = self.make([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 3)))


class TestReweighing:
    def test_hand_example(self):
        y = np.array([1] * 4 + [0] * 2 + [1] * 1 + [0] * 3)
        s = np.array([1] * 6 + [0] * 4)
        w = reweigh(y, s).w
        assert w[(1, 1)] == pytest.approx(0.75)
        assert w[(1, 0)] == pytest.approx(1.5)
        assert w[(0, 1)] == pytest.approx(2.0)
        assert w[(0, 0)] == pytest.approx(2 / 3)

    def test_independent_data_gets_unit_weights(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([1, 1, 0, 0])
        w = reweigh(y, s).w
        assert w.shape == (2, 2)
        assert all(v == pytest.approx(1.0) for v in w.ravel())

    def test_empty_cell_raises(self):
        with pytest.raises(ReweighingError):
            reweigh(np.array([1, 1, 0]), np.array([1, 1, 0]))

    @given(st.integers(min_value=0, max_value=2**31))
    def test_exact_parity_and_mass(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 120))
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        # force all four cells non-empty
        y[:4] = [0, 0, 1, 1]
        s[:4] = [0, 1, 0, 1]
        per_row = reweigh(y, s).per_row(y, s)
        assert per_row.sum() == pytest.approx(n, abs=1e-9)
        rate_unpriv = (per_row[s == 0] * y[s == 0]).sum() / per_row[s == 0].sum()
        rate_priv = (per_row[s == 1] * y[s == 1]).sum() / per_row[s == 1].sum()
        assert rate_unpriv - rate_priv == pytest.approx(0.0, abs=1e-9)
        assert rate_unpriv / rate_priv == pytest.approx(1.0, abs=1e-9)

    def test_weighted_dataset_metrics_hit_ideal(self, rng):
        y = rng.integers(0, 2, 40)
        s = rng.integers(0, 2, 40)
        y[:4] = [0, 0, 1, 1]
        s[:4] = [0, 1, 0, 1]
        per_row = reweigh(y, s).per_row(y, s)
        out = metrics.compute_dataset_metrics(y, s, rng.random((40, 2)), per_row)
        assert out["D2"] == pytest.approx(0.0, abs=1e-9)
        assert out["D3"] == pytest.approx(1.0, abs=1e-9)
