"""Baseline model and pre-processing mitigator.

The baseline is a weighted logistic regression with L2 regularization on the
coefficients (intercept unpenalized), fit by full-batch damped Newton steps.
Training is deterministic: zero initialization, no stochasticity, converged
when the gradient norm drops below tolerance.

The mitigator is the classic reweighing scheme: each (group, label) cell gets
weight P(group)*P(label)/P(group, label), which makes the weighted joint
distribution of group and label exactly independent.
"""

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogisticConfig:
    l2_strength: float = 1.0
    max_iterations: int = 1000
    tolerance: float = 1e-6


@dataclass(frozen=True)
class LogisticModel:
    coefficients: np.ndarray
    intercept: float
    config: LogisticConfig
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


def loss_and_gradient(theta, X, y, weights, l2_strength):
    """Weighted regularized negative log-likelihood and its gradient.

    ``theta`` packs [intercept, coefficients...].  The loss is
    sum_i w_i * (log(1 + e^{z_i}) - y_i * z_i) + (l2/2) * ||coef||^2
    with z = intercept + X @ coef; the intercept carries no penalty.
    """
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    intercept, coef = theta[0], theta[1:]
    z = X @ coef + intercept
    # log(1 + e^z) computed stably for large |z|
    softplus = np.logaddexp(0.0, z)
    loss = float((w * (softplus - y * z)).sum() + 0.5 * l2_strength * (coef @ coef))
    resid = w * (_sigmoid(z) - y)
    grad = np.concatenate(([resid.sum()], X.T @ resid + l2_strength * coef))
    return loss, grad


def train_logistic(
    X, y, weights=None, config: LogisticConfig | None = None
) -> LogisticModel:
    """Fit by damped Newton: solve H step = -grad, backtrack until loss drops.

    The objective is strictly convex for l2_strength > 0, so accepted steps
    decrease the loss monotonically and the iteration converges for any data.
    """
    config = config or LogisticConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-D matrix")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("y must align with X rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("y must be binary")
    w = np.ones(n, dtype=float) if weights is None else np.asarray(weights, float)
    if w.shape != (n,):
        raise ValueError("weights must align with X rows")
    if np.any(w < 0) or w.sum() == 0:
        raise ValueError("weights must be non-negative and not all zero")

    theta = np.zeros(p + 1)
    penalty = np.concatenate(([0.0], np.full(p, config.l2_strength)))
    loss, grad = loss_and_gradient(theta, X, y, w, config.l2_strength)
    iterations = 0
    while np.linalg.norm(grad) > config.tolerance and iterations < config.max_iterations:
        z = X @ theta[1:] + theta[0]
        pr = _sigmoid(z)
        curvature = w * pr * (1.0 - pr)
        Xc = X * curvature[:, None]
        hess = np.empty((p + 1, p + 1))
        hess[0, 0] = curvature.sum()
        hess[0, 1:] = hess[1:, 0] = Xc.sum(axis=0)
        hess[1:, 1:] = X.T @ Xc
        hess[np.diag_indices_from(hess)] += penalty
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            hess[np.diag_indices_from(hess)] += 1e-8
            step = np.linalg.solve(hess, -grad)

        # Backtracking line search (Armijo), guarantees monotone loss decrease.
        slope = float(grad @ step)
        t = 1.0
        accepted = False
        for _ in range(60):
            new_loss, new_grad = loss_and_gradient(
                theta + t * step, X, y, w, config.l2_strength
            )
            if new_loss <= loss + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break  # step direction unusable; stop with current iterate
        theta = theta + t * step
        loss, grad = new_loss, new_grad
        iterations += 1

    converged = bool(np.linalg.norm(grad) <= config.tolerance)
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
        config=config,
        converged=converged,
        n_iterations=iterations,
    )


class ReweighingError(ValueError):
    """Raised when some (group, label) cell is empty and weights are undefined."""


@dataclass(frozen=True)
class ReweighingWeights:
    """Cell weights ``w[s, y] = P(s) * P(y) / P(s, y)``, a 2x2 array."""

    w: np.ndarray

    def per_row(self, y, s) -> np.ndarray:
        return self.w[np.asarray(s, dtype=np.int64), np.asarray(y, dtype=np.int64)]


def reweigh(y, s) -> ReweighingWeights:
    """Weights that decouple the label from the protected group.

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
    weights = np.empty((2, 2))
    for sv in (0, 1):
        for yv in (0, 1):
            cell = int(((s == sv) & (y == yv)).sum())
            if cell == 0:
                raise ReweighingError(
                    f"cannot reweigh: cell (s={sv}, y={yv}) is empty"
                )
            weights[sv, yv] = (
                int((s == sv).sum()) * int((y == yv).sum()) / (n * cell)
            )
    weights.setflags(write=False)
    return ReweighingWeights(w=weights)


class Mitigator:
    """Extension point for bias mitigation inside the experiment harness.

    A mitigator can participate in each training fold at two places: it may
    reassign instance weights before fitting (pre-processing) and it may take
    over the fitting itself (in-processing).  The base class is the identity
    on both, which is exactly the plain weighted logistic baseline.
    """

    name = "baseline"

    def training_weights(self, y, s, base_weights) -> np.ndarray:
        """Pre-processing hook: per-row weights used to fit the fold model."""
        return base_weights

    def train(self, X, y, weights, config: LogisticConfig) -> LogisticModel:
        """In-processing hook: fit the fold model."""
        return train_logistic(X, y, weights, config)


class ReweighingMitigator(Mitigator):
    """Pre-processing mitigation: decouple the label from the group.

    Raises ReweighingError when a (group, label) cell is empty in the
    training fold; the harness records such folds as undefined.
    """

    name = "reweighing"

    def training_weights(self, y, s, base_weights) -> np.ndarray:
        return base_weights * reweigh(y, s).per_row(y, s)
