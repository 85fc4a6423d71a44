"""The fold model and the mitigators that choose its training weights.

Every fold model is ``train_logistic``: a weighted logistic regression with
L2 regularization on the coefficients (intercept unpenalized), fit by
full-batch damped Newton steps.  Training is deterministic: zero
initialization, no stochasticity, converged when the gradient norm drops
to ``TOLERANCE``.  It also stops after ``MAX_ITERATIONS`` steps, or after a
full Newton step whose predicted decrease is within the loss's rounding.
The two limits are fixed: no experiment varies them, and ``manifest.json``
records them with the run's settings.

A ``Mitigator`` decides only the instance weights of a training fold.  The
base class gives every row weight 1, the baseline; ``ReweighingMitigator``
is the classic reweighing scheme: each (group, label) cell gets weight
P(group)*P(label)/P(group, label), which makes the weighted joint
distribution of group and label exactly independent.
"""

import warnings
from dataclasses import dataclass

import numpy as np

MAX_ITERATIONS = 1000
TOLERANCE = 1e-6  # on the gradient norm


@dataclass(frozen=True)
class LogisticModel:
    coefficients: np.ndarray
    intercept: float
    converged: bool
    n_iterations: int

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    def decision_function(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.coefficients):
            raise ValueError(
                f"expected {len(self.coefficients)} features, got shape {X.shape}"
            )
        return X @ self.coefficients + self.intercept

    def predict(self, X) -> np.ndarray:
        """Hard labels: 1 iff the predicted probability is >= 0.5."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_gradient(theta, X, y, w, l2_strength):
    """Weighted regularized negative log-likelihood, its gradient and
    sigmoid(z), the last for the Hessian; ``theta``, ``X``, ``y`` and ``w``
    are float arrays.

    ``theta`` packs [intercept, coefficients...].  The loss is
    sum_i w_i * (log(1 + e^{z_i}) - y_i * z_i) + (l2/2) * ||coef||^2
    with z = intercept + X @ coef; the intercept carries no penalty.
    """
    intercept, coef = theta[0], theta[1:]
    z = X @ coef + intercept
    # log(1 + e^z) computed stably for large |z|
    softplus = np.logaddexp(0.0, z)
    loss = float((w * (softplus - y * z)).sum() + 0.5 * l2_strength * (coef @ coef))
    pr = _sigmoid(z)
    resid = w * (pr - y)
    grad = np.concatenate(([resid.sum()], X.T @ resid + l2_strength * coef))
    return loss, grad, pr


def train_logistic(X, y, weights=None, *, l2_strength: float = 1.0) -> LogisticModel:
    """Fit by damped Newton: solve H step = -grad, backtrack until loss drops.

    The objective is strictly convex for l2_strength > 0, so accepted steps
    decrease the loss monotonically and the iteration converges for any data.
    It stops at ``TOLERANCE`` or after ``MAX_ITERATIONS`` steps, both read at
    call time; a model stopped short of ``TOLERANCE`` warns and has
    ``converged`` False.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D matrix")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("y must align with X rows")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("y must be binary")
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, float)
    if w.shape != (n,):
        raise ValueError("weights must align with X rows")
    if np.any(w < 0) or w.sum() == 0:
        raise ValueError("weights must be non-negative and not all zero")

    theta = np.zeros(p + 1)
    penalty = np.concatenate(([0.0], np.full(p, l2_strength)))
    diagonal = np.diag_indices(p + 1)
    loss, grad, pr = loss_and_gradient(theta, X, y, w, l2_strength)
    iterations = 0
    while np.linalg.norm(grad) > TOLERANCE and iterations < MAX_ITERATIONS:
        curvature = w * pr * (1.0 - pr)
        Xc = X * curvature[:, None]
        hess = np.empty((p + 1, p + 1))
        hess[0, 0] = curvature.sum()
        hess[0, 1:] = hess[1:, 0] = Xc.sum(axis=0)
        hess[1:, 1:] = X.T @ Xc
        hess[diagonal] += penalty
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            hess[diagonal] += 1e-8
            step = np.linalg.solve(hess, -grad)

        # Backtracking line search (Armijo), guarantees monotone loss decrease.
        # Except at float resolution: when the predicted decrease (half the
        # squared Newton decrement) is within the loss's rounding, the loss
        # cannot tell the step from no step (it may move by an ulp), so take
        # it whole and stop (Boyd & Vandenberghe, Convex Optimization, 9.5).
        slope = float(grad @ step)
        at_resolution = -slope / 2 <= np.spacing(loss)
        t = 1.0
        accepted = False
        for _ in range(60):
            new_loss, new_grad, new_pr = loss_and_gradient(
                theta + t * step, X, y, w, l2_strength
            )
            if at_resolution or new_loss <= loss + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break  # step direction unusable; stop with current iterate
        theta = theta + t * step
        loss, grad, pr = new_loss, new_grad, new_pr
        iterations += 1
        if at_resolution:
            break

    converged = bool(np.linalg.norm(grad) <= TOLERANCE)
    if not converged:
        warnings.warn(
            f"logistic training stopped after {iterations} iterations with "
            f"gradient norm {np.linalg.norm(grad):.3g}"
        )
    if not np.all(np.isfinite(theta)):
        raise ArithmeticError("logistic training produced non-finite parameters")
    return LogisticModel(
        coefficients=theta[1:].copy(),
        intercept=float(theta[0]),
        converged=converged,
        n_iterations=iterations,
    )


class ReweighingError(ValueError):
    """Raised when some (group, label) cell is empty and weights are undefined."""


def reweigh(y, s) -> np.ndarray:
    """Weights that decouple the label from the protected group: the
    read-only 2x2 array ``w[s, y] = P(s) * P(y) / P(s, y)``.

    After weighting, the weighted favorable rate is identical in both groups,
    so the weighted mean difference is exactly 0 and the weighted disparate
    impact exactly 1.  Every (s, y) cell must be populated.
    """
    y = np.asarray(y, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if y.shape != s.shape or y.ndim != 1:
        raise ValueError("y and s must be 1-D and equal length")
    n = len(y)
    if n == 0:
        raise ValueError("empty input")
    cells = np.bincount(2 * s + y, minlength=4).reshape(2, 2)
    if not cells.all():
        sv, yv = np.argwhere(cells == 0)[0]
        raise ReweighingError(f"cannot reweigh: cell (s={sv}, y={yv}) is empty")
    weights = np.outer(cells.sum(axis=1), cells.sum(axis=0)) / (n * cells)
    weights.setflags(write=False)
    return weights


class Mitigator:
    """Extension point for bias mitigation inside the experiment harness.

    A mitigator decides the instance weights of each training fold; the fold
    model is always ``train_logistic`` on those weights.  The base class
    gives every row weight 1, which is exactly the baseline.
    """

    def training_weights(self, y, s) -> np.ndarray:
        """Per-row weights used to fit the fold model."""
        return np.ones(len(y))


class ReweighingMitigator(Mitigator):
    """Pre-processing mitigation: decouple the label from the group.

    Raises ReweighingError when a (group, label) cell is empty in the
    training fold; the harness records such folds as undefined.
    """

    def training_weights(self, y, s) -> np.ndarray:
        return reweigh(y, s)[s, y]
