import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairsift import models
from fairsift.datamodel import DatasetSpec, apply_minmax, encode_dataset, fit_minmax
from fairsift.harness import make_cv_plan
from fairsift.models import (
    LogisticModel,
    ReweighingError,
    loss_and_gradient,
    reweigh,
    train_logistic,
)

from conftest import rows_to_csv_text
from test_metrics import dataset


def finite_difference_gradient(theta, X, y, w, l2, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        lu = loss_and_gradient(up, X, y, w, l2)[0]
        ld = loss_and_gradient(down, X, y, w, l2)[0]
        grad[i] = (lu - ld) / (2 * step)
    return grad


def stack_of_one(*arrays):
    """Each array with a leading member axis of length 1: one fit."""
    return [np.asarray(a)[None] for a in arrays]


def random_problem(rng, n_max=50, p_max=5):
    n = int(rng.integers(5, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    X = rng.normal(size=(n, p))
    y = rng.integers(0, 2, n)
    w = rng.uniform(0.1, 3.0, n)
    return X, y, w


class TestTraining:
    def test_separates_two_points(self):
        X = np.array([[0.0], [1.0]])
        model = train_logistic(*stack_of_one(X, [0, 1]))
        assert model.predict(X).tolist() == [[0, 1]]
        assert model.converged

    def test_all_favorable_predicts_favorable(self):
        X = np.random.default_rng(0).random((12, 2))
        model = train_logistic(*stack_of_one(X, np.ones(12)))
        assert model.predict(X).tolist() == [[1] * 12]

    def test_weight_doubling_with_scaled_l2_is_identical(self, rng):
        X, y, w = random_problem(rng)
        a = train_logistic(*stack_of_one(X, y, w), l2_strength=1.0)
        b = train_logistic(*stack_of_one(X, y, 2 * w), l2_strength=2.0)
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-5)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-5)

    def test_weight_doubling_fixed_l2_keeps_train_predictions(self, rng):
        for _ in range(5):
            X, y, w = random_problem(rng, n_max=40)
            a = train_logistic(*stack_of_one(X, y, w))
            b = train_logistic(*stack_of_one(X, y, 2 * w))
            # decision boundary shifts slightly, but points with a clear
            # margin keep their labels
            margin = np.abs(a.decision_function(X)) > 0.2
            assert np.array_equal(a.predict(X)[margin], b.predict(X)[margin])

    def test_deterministic(self, rng):
        X, y, w = random_problem(rng)
        a = train_logistic(*stack_of_one(X, y, w))
        b = train_logistic(*stack_of_one(X, y, w))
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.intercept, b.intercept)

    def test_converges_on_random_instances(self, rng):
        for _ in range(10):
            X, y, w = random_problem(rng)
            model = train_logistic(*stack_of_one(X, y, w))
            assert model.converged
            _, grad, _ = loss_and_gradient(
                np.concatenate((model.intercept, model.coefficients[0])),
                X, y, w, 1.0,
            )
            assert np.linalg.norm(grad) <= 1e-6

    def test_empty_matrix_rejected(self):
        for shape in ((1, 0, 2), (0, 3, 2)):
            with pytest.raises(ValueError, match=r"^X must be a non-empty \(B, n, p\) stack"):
                train_logistic(np.zeros(shape), np.zeros(shape[:-1]))

    def test_matrix_rejected(self):
        """One ``(n, p)`` matrix is not a call shape: one fit is a stack of one."""
        with pytest.raises(ValueError, match=r"^X must be a non-empty \(B, n, p\) stack, "
                                             r"got shape \(3, 1\)$"):
            train_logistic(np.array([[0.0], [1.0], [2.0]]), [0, 1, 1])

    @pytest.mark.parametrize("y", [[0.0, 1.0, 1.0], [False, True, True]])
    def test_float_and_bool_labels_accepted(self, y):
        X = np.array([[[0.0], [1.0], [2.0]]])
        model = train_logistic(X, [y])
        assert model.predict(X).tolist() == train_logistic(X, [[0, 1, 1]]).predict(X).tolist()

    @pytest.mark.parametrize("y", [[0.0, np.nan, 1.0], [0, 2, 1], [0.5, 0.0, 1.0]])
    def test_non_binary_labels_rejected(self, y):
        with pytest.raises(ValueError, match="^member 0: y must be binary$"):
            train_logistic(np.array([[[0.0], [1.0], [2.0]]]), [y])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="^member 0: weights must be .* not all zero$"):
            train_logistic(*stack_of_one(np.eye(3), [0, 1, 0], np.zeros(3)))

    def test_gradient_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            X, y, w = random_problem(rng)
            theta = rng.normal(scale=0.5, size=X.shape[1] + 1)
            _, analytic, _ = loss_and_gradient(theta, X, y, w, 1.0)
            numeric = finite_difference_gradient(theta, X, y, w, 1.0)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-4


    def test_stops_at_float_resolution(self):
        """A fold whose full Newton step raises the loss by one ulp once the
        gradient is near the tolerance: Armijo backtracking alone used to
        spin through all 1000 iterations without moving."""
        X, y = german_style_training_fold(seed=5, repeat=1, fold=0)
        model = train_logistic(*stack_of_one(X, y))
        assert model.converged
        assert model.n_iterations < 1000

    def test_stops_at_the_iteration_limit(self, rng, monkeypatch):
        """A fit that reaches ``MAX_ITERATIONS`` short of ``TOLERANCE`` warns
        and is not converged; the limit is read at each call."""
        X, y, w = stack_of_one(*random_problem(rng))
        assert train_logistic(X, y, w).n_iterations > 1
        monkeypatch.setattr(models, "MAX_ITERATIONS", 1)
        with pytest.warns(UserWarning, match="^member 0: logistic training stopped after 1 "):
            model = train_logistic(X, y, w)
        assert not model.converged
        assert model.n_iterations == 1


def masked_sigmoid(z):
    """The boolean-mask formula ``models._sigmoid`` had: the reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_the_masked_formula(rng):
    edges = np.array([0.0, 1e-300, 700.0, 745.0])
    z = np.concatenate((edges, -edges, rng.normal(scale=20.0, size=100_000)))
    assert models._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


def random_stack(rng, n_members, n, p):
    """Members with a noisy linear label, features at scales 1 to 50 and
    log-normal weights: under a weak penalty some are nearly separable, and
    their line search backtracks while other members' does not."""
    X = rng.normal(size=(n_members, n, p)) * rng.choice([1.0, 10.0, 50.0], (n_members, 1, 1))
    coef = rng.normal(size=(n_members, p, 1)) * 3.0
    noise = rng.normal(size=(n_members, n)) * rng.choice([0.1, 1.0, 10.0], (n_members, 1))
    y = ((X @ coef)[..., 0] + noise > 0).astype(np.int64)
    w = np.exp(rng.normal(size=(n_members, n)) * rng.choice([0.1, 2.0], (n_members, 1)))
    return X, y, w


def fit_warnings(*args, **kwargs):
    """``train_logistic(*args, **kwargs)`` and the texts of the UserWarnings
    it gave, recorded rather than shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        model = train_logistic(*args, **kwargs)
    assert all(w.category is UserWarning for w in caught)
    return model, [str(w.message) for w in caught]


class TestStackedTraining:
    """A ``(B, n, p)`` stack fits each member as its own stack of one does."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([1.0, 1e-6]))
    @example(2919, 3, 1e-6)  # member 0 stops after 9 passes, short of the tolerance
    def test_members_fit_as_they_do_alone(self, seed, n_members, l2_strength):
        rng = np.random.default_rng(seed)
        X, y, w = random_stack(rng, n_members, int(rng.integers(2, 60)), int(rng.integers(1, 6)))
        stack, stack_warned = fit_warnings(X, y, w, l2_strength=l2_strength)
        alone, alone_warned = zip(*(fit_warnings(*stack_of_one(*member), l2_strength=l2_strength)
                                    for member in zip(X, y, w)))
        # a member stopped short of the tolerance warns in both, with the
        # same iteration count and gradient norm; alone, it is member 0
        assert all(text.startswith("member 0: ") for texts in alone_warned for text in texts)
        assert stack_warned == [f"member {i}: {text.removeprefix('member 0: ')}"
                                for i, texts in enumerate(alone_warned) for text in texts]
        assert stack.coefficients.tobytes() == np.concatenate(
            [m.coefficients for m in alone]).tobytes()
        assert stack.intercept.tobytes() == np.concatenate([m.intercept for m in alone]).tobytes()
        assert stack.n_iterations == sum(m.n_iterations for m in alone)
        assert stack.converged == all(m.converged for m in alone)
        assert type(stack.n_iterations) is int and type(stack.converged) is bool

    def test_padded_members_fit_as_they_do_unpadded(self, rng):
        X, y, w = random_stack(rng, 6, 80, 4)
        # odd members are one row shorter, padded with a zero-weight row
        short = np.arange(6) % 2 == 1
        X[short, -1], y[short, -1], w[short, -1] = 0.0, 0, 0.0
        X_test = rng.normal(size=(200, 4))
        stack = train_logistic(X, y, w)
        predicted = stack.predict(X_test)
        for i in range(6):
            n = 80 - short[i]
            alone = train_logistic(X[i:i + 1, :n], y[i:i + 1, :n], w[i:i + 1, :n])
            assert np.abs(stack.coefficients[i] - alone.coefficients[0]).max() <= 1e-12
            assert abs(stack.intercept[i] - alone.intercept[0]) <= 1e-12
            assert np.array_equal(predicted[i], alone.predict(X_test)[0])

    def test_float_resolution_member_stops_as_it_does_alone(self, rng):
        X, y = german_style_training_fold(seed=5, repeat=1, fold=0)
        members = [(X, y, np.ones(len(y))), (X, 1 - y, np.ones(len(y))),
                   (X, y, rng.uniform(0.5, 2.0, len(y)))]
        stack = train_logistic(*(np.stack(column) for column in zip(*members)))
        alone = [train_logistic(*stack_of_one(*member)) for member in members]
        assert alone[0].converged and alone[0].n_iterations < 1000
        assert stack.converged
        assert stack.coefficients[:1].tobytes() == alone[0].coefficients.tobytes()
        assert stack.intercept[:1].tobytes() == alone[0].intercept.tobytes()
        assert stack.n_iterations == sum(m.n_iterations for m in alone)

    def test_members_stopped_at_the_iteration_limit(self, rng, monkeypatch):
        X, y, w = random_stack(rng, 4, 50, 3)
        assert all(train_logistic(*stack_of_one(*member)).n_iterations > 1
                   for member in zip(X, y, w))
        monkeypatch.setattr(models, "MAX_ITERATIONS", 1)
        with pytest.warns(UserWarning) as caught:
            model = train_logistic(X, y, w)
        messages = [str(warning.message) for warning in caught]
        assert [m.split(" with ")[0] for m in messages] == [
            f"member {i}: logistic training stopped after 1 iterations" for i in range(4)
        ]
        assert not model.converged
        assert model.n_iterations == 4

    @pytest.mark.parametrize("field, message", [
        ("y", "member 2: y must be binary"),
        ("w", "member 2: weights must be non-negative, finite and not all zero"),
        ("nan", "member 2: weights must be non-negative, finite and not all zero"),
        ("inf", "member 2: weights must be non-negative, finite and not all zero"),
    ])
    def test_invalid_member_is_named(self, rng, field, message):
        X, y, w = random_stack(rng, 4, 20, 2)
        y = y.astype(float)
        if field == "y":
            y[2, 5] = 0.5
        elif field == "w":
            w[2] = 0.0
        else:
            w[2, 5] = float(field)
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_logistic(X, y, w)

    def test_singular_member_alone_gets_the_ridge(self, rng):
        """Without a penalty a zero column makes member 1's Hessian singular:
        it alone is solved with the ridge, the others as they are."""
        X, y, w = rng.normal(size=(3, 40, 3)), rng.integers(0, 2, (3, 40)), np.ones((3, 40))
        X[1, :, 2] = 0.0
        stack = train_logistic(X, y, w, l2_strength=0.0)
        for i, member in enumerate(zip(X, y, w)):
            alone = train_logistic(*stack_of_one(*member), l2_strength=0.0)
            assert stack.coefficients[i:i + 1].tobytes() == alone.coefficients.tobytes()
            assert stack.intercept[i:i + 1].tobytes() == alone.intercept.tobytes()

    def test_fit_stops_on_a_step_that_changes_no_bit(self):
        """At float resolution a line search can accept a step that leaves
        every parameter bit as it was; each later pass would repeat it, so
        the fit stops there and warns, its gradient norm just above
        ``TOLERANCE``, instead of running to ``MAX_ITERATIONS``."""
        rng = np.random.default_rng(287)
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        X, y, w = random_stack(rng, 1, n, p)
        with pytest.warns(UserWarning, match="^member 0: logistic training stopped after"):
            model = train_logistic(X, y, w, l2_strength=1e-6)
        assert not model.converged and model.n_iterations < 100
        theta = np.concatenate((model.intercept, model.coefficients[0]))
        grad = loss_and_gradient(theta, X[0], y[0].astype(float), w[0], 1e-6)[1]
        assert models.TOLERANCE < np.linalg.norm(grad) < 1e-5


def german_style_training_fold(seed, repeat, fold, n_rows=3000):
    """Scaled training rows of one fold of integer-valued credit data: age,
    duration, installment rate and a label-encoded telephone column, with a
    label that depends on them and on the group."""
    rng = np.random.default_rng(seed)
    male = rng.random(n_rows) < 0.69
    age = rng.integers(19, 76, n_rows)
    duration = rng.choice((6, 12, 18, 24, 36, 48), n_rows)
    rate = rng.integers(1, 5, n_rows)
    telephone = rng.random(n_rows) < 0.4
    z = (0.6 - 0.04 * (duration - 20) + 0.02 * (age - 35) - 0.25 * (rate - 2.5)
         + 0.3 * telephone + 0.6 * male)
    good = rng.random(n_rows) < 1.0 / (1.0 + np.exp(-z))
    rows = [
        ["male" if male[i] else "female", "good" if good[i] else "bad",
         str(age[i]), str(duration[i]), str(rate[i]),
         "yes" if telephone[i] else "none"]
        for i in range(n_rows)
    ]
    header = ["sex", "credit", "age", "duration", "rate", "telephone"]
    spec = DatasetSpec.from_dict({
        "name": "german_style", "label_column": "credit", "favorable_value": "good",
        "protected_column": "sex", "privileged_value": "male",
        "feature_columns": [{"name": "age", "kind": "numeric"},
                            {"name": "duration", "kind": "numeric"},
                            {"name": "rate", "kind": "numeric"},
                            {"name": "telephone", "kind": "categorical"}],
        "encoding": {"telephone": "label_encode"},
    })
    ds = encode_dataset(io.StringIO(rows_to_csv_text(header, rows)), spec)
    train = make_cv_plan(ds.row_count).assignments[repeat] != fold
    return apply_minmax(ds.X[train], *fit_minmax(ds.X[train])), ds.y[train]


class TestPrediction:
    def make(self, coef, intercept):
        """A stack of one model."""
        return LogisticModel(
            coefficients=np.array([coef], dtype=float),
            intercept=np.array([intercept], dtype=float),
            converged=True,
            n_iterations=0,
        )

    def test_boundary_rule_is_favorable(self):
        model = self.make([0.0], 0.0)
        assert model.predict(np.array([[0.3], [0.9]])).tolist() == [[1, 1]]

    def test_large_negative_intercept(self):
        model = self.make([0.0], -50.0)
        assert model.predict(np.array([[0.1], [0.5]])).tolist() == [[0, 0]]

    def test_monotone_in_positive_feature(self):
        model = self.make([2.0], -1.0)
        X = np.linspace(0, 1, 11).reshape(-1, 1)
        preds = model.predict(X)
        assert preds.shape == (1, 11) and np.all(np.diff(preds) >= 0)

    def test_dimension_mismatch(self):
        model = self.make([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 3)))


class TestReweighing:
    def test_hand_example(self):
        y = np.array([1] * 4 + [0] * 2 + [1] * 1 + [0] * 3)
        s = np.array([1] * 6 + [0] * 4)
        w = reweigh(y, s)
        assert w[(1, 1)] == pytest.approx(0.75)
        assert w[(1, 0)] == pytest.approx(1.5)
        assert w[(0, 1)] == pytest.approx(2.0)
        assert w[(0, 0)] == pytest.approx(2 / 3)

    def test_independent_data_gets_unit_weights(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([1, 1, 0, 0])
        w = reweigh(y, s)
        assert w.shape == (2, 2)
        assert all(v == pytest.approx(1.0) for v in w.ravel())

    def test_empty_cell_raises(self):
        with pytest.raises(ReweighingError):
            reweigh(np.array([1, 1, 0]), np.array([1, 1, 0]))

    def test_read_only(self):
        w = reweigh(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
        with pytest.raises(ValueError):
            w[0, 0] = 2.0

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=200))
    def test_matches_per_cell_oracle(self, pairs):
        y, s = (np.array(column) for column in zip(*pairs))
        try:
            want = reweigh_oracle(y, s)
        except ReweighingError as exc:
            with pytest.raises(ReweighingError) as caught:
                reweigh(y, s)
            assert str(caught.value) == str(exc)
            return
        got = reweigh(y, s)
        assert got.shape == (2, 2)
        assert got.tobytes() == want.tobytes()

    @given(st.integers(min_value=0, max_value=2**31))
    def test_exact_parity_and_mass(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 120))
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        # force all four cells non-empty
        y[:4] = [0, 0, 1, 1]
        s[:4] = [0, 1, 0, 1]
        per_row = reweigh(y, s)[s, y]
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
        per_row = reweigh(y, s)[s, y]
        out = dataset(y, s, rng.random((40, 2)), per_row)
        assert out["D2"] == pytest.approx(0.0, abs=1e-9)
        assert out["D3"] == pytest.approx(1.0, abs=1e-9)


def reweigh_oracle(y, s):
    """The per-cell loop: each weight the correctly rounded quotient of
    Python integers."""
    n = len(y)
    weights = np.empty((2, 2))
    for sv in (0, 1):
        for yv in (0, 1):
            cell = int(((s == sv) & (y == yv)).sum())
            if cell == 0:
                raise ReweighingError(f"cannot reweigh: cell (s={sv}, y={yv}) is empty")
            weights[sv, yv] = int((s == sv).sum()) * int((y == yv).sum()) / (n * cell)
    return weights
