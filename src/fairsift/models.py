"""The fold model and the mitigators that choose its training weights.

Every fold model is ``train_logistic``: a weighted logistic regression with
L2 regularization on the coefficients (intercept unpenalized), fit by
full-batch damped Newton steps.  Training is deterministic: zero
initialization, no stochasticity, converged when the gradient norm drops
to ``TOLERANCE``.  It also stops after ``MAX_ITERATIONS`` steps, or after
a step that changes no bit or predicts a decrease within the loss's rounding.
The two limits are fixed: no experiment varies them, and ``manifest.json``
records them with the run's settings.

``train_logistic`` fits a stack of independent models in one solve: each
Newton pass runs over all members at once, which is what makes many small
fits cheap, while each member keeps its own step length, stops and
iteration count.  Every per-member product is the BLAS call a single fit
makes, so a member's parameters are bit-identical to fitting it alone.

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
    """A fitted model, or a stack of them with one entry per member:
    ``coefficients`` has shape ``(..., p)`` and ``intercept`` shape ``(...)``
    (a float for one model).  ``converged`` is True iff every member reached
    ``TOLERANCE``; ``n_iterations`` is the members' total Newton steps."""

    coefficients: np.ndarray
    intercept: float | np.ndarray
    converged: bool
    n_iterations: int

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        if isinstance(self.intercept, np.ndarray):
            self.intercept.setflags(write=False)

    def decision_function(self, X) -> np.ndarray:
        """``X`` of shape ``(..., m, p)`` gives ``(..., m)``; a model's leading
        axes broadcast against those of ``X``."""
        X = np.asarray(X, dtype=float)
        p = self.coefficients.shape[-1]
        if X.ndim < 2 or X.shape[-1] != p:
            raise ValueError(f"expected {p} features, got shape {X.shape}")
        return (X @ self.coefficients[..., None])[..., 0] + np.asarray(self.intercept)[..., None]

    def predict(self, X) -> np.ndarray:
        """Hard labels: 1 iff the predicted probability is >= 0.5."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of each member's vectors over the last axis; the product of
    a row and a column is the same BLAS dot a 1-D ``a @ b`` makes."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def loss_and_gradient(theta, X, y, w, l2_strength):
    """Weighted regularized negative log-likelihood, its gradient and
    sigmoid(z), the last for the Hessian; ``theta``, ``X``, ``y`` and ``w``
    are float arrays, of shapes ``(..., p+1)``, ``(..., n, p)``, ``(..., n)``
    and ``(..., n)``: each leading index is one member of a stack.

    ``theta`` packs [intercept, coefficients...].  The loss is
    sum_i w_i * (log(1 + e^{z_i}) - y_i * z_i) + (l2/2) * ||coef||^2
    with z = intercept + X @ coef; the intercept carries no penalty.
    """
    intercept, coef = theta[..., 0], theta[..., 1:]
    z = (X @ coef[..., None])[..., 0] + intercept[..., None]
    # log(1 + e^z) computed stably for large |z|
    softplus = np.logaddexp(0.0, z)
    loss = (w * (softplus - y * z)).sum(axis=-1) + 0.5 * l2_strength * _dot(coef, coef)
    pr = _sigmoid(z)
    resid = w * (pr - y)
    grad = np.concatenate(
        (resid.sum(axis=-1)[..., None],
         (resid[..., None, :] @ X)[..., 0, :] + l2_strength * coef),
        axis=-1,
    )
    return loss, grad, pr


def _member(i, stacked: bool) -> str:
    return f"member {i}: " if stacked else ""


def _require(ok: np.ndarray, message: str, stacked: bool) -> None:
    """Raise ``ValueError(message)`` unless every member is ok; a stack's
    message names the first member that is not."""
    if not ok.all():
        raise ValueError(_member(int(np.argmin(ok)), stacked) + message)


def _newton_step(X, w, pr, grad, penalty) -> np.ndarray:
    """Each member's Newton step: solve H step = -grad."""
    curvature = w * pr * (1.0 - pr)
    Xc = X * curvature[..., None]
    hess = np.empty(grad.shape + grad.shape[-1:])
    hess[:, 0, 0] = curvature.sum(axis=-1)
    hess[:, 0, 1:] = hess[:, 1:, 0] = Xc.sum(axis=-2)
    hess[:, 1:, 1:] = np.swapaxes(X, -1, -2) @ Xc
    diagonal = np.arange(grad.shape[-1])
    hess[:, diagonal, diagonal] += penalty
    try:
        return np.linalg.solve(hess, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # some member's Hessian is singular: solve member by member, and give
        # each singular one a tiny ridge
        step = np.empty_like(grad)
        for i, (h, g) in enumerate(zip(hess, grad)):
            try:
                step[i] = np.linalg.solve(h, -g)
            except np.linalg.LinAlgError:
                h[diagonal, diagonal] += 1e-8
                step[i] = np.linalg.solve(h, -g)
        return step


def train_logistic(X, y, weights=None, *, l2_strength: float = 1.0) -> LogisticModel:
    """Fit by damped Newton: solve H step = -grad, backtrack until loss drops.

    ``X`` is one ``(n, p)`` matrix, or a ``(B, n, p)`` stack of B independent
    fits with ``y`` and ``weights`` of shape ``(B, n)``; a 2-D call is the
    stack of one, returned as one model.  A member with fewer rows is
    padded to ``n`` with zero-weight rows by the caller.  Each member takes
    its own steps and stops on its own.

    The objective is strictly convex for l2_strength > 0, so accepted steps
    decrease the loss monotonically and the iteration converges for any data.
    It stops at ``TOLERANCE``, after ``MAX_ITERATIONS`` steps (both read at
    call time) or after a step that changes no bit; a member stopped short
    of ``TOLERANCE`` warns, and makes ``converged`` False.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    stacked = X.ndim == 3
    if X.ndim not in (2, 3) or 0 in X.shape[:-1]:
        raise ValueError("X must be a non-empty (n, p) matrix or (B, n, p) stack")
    if y.shape != X.shape[:-1]:
        raise ValueError("y must align with X rows")
    w = np.ones(y.shape) if weights is None else np.asarray(weights, float)
    if w.shape != y.shape:
        raise ValueError("weights must align with X rows")
    if not stacked:
        X, y, w = X[None], y[None], w[None]
    _require(((y == 0) | (y == 1)).all(axis=1), "y must be binary", stacked)
    _require(~(w < 0).any(axis=1) & (w.sum(axis=1) != 0),
             "weights must be non-negative and not all zero", stacked)

    n_members, _, p = X.shape
    theta = np.zeros((n_members, p + 1))
    penalty = np.concatenate(([0.0], np.full(p, l2_strength)))
    loss, grad, pr = loss_and_gradient(theta, X, y, w, l2_strength)
    iterations = np.zeros(n_members, dtype=np.int64)
    active = np.ones(n_members, dtype=bool)
    # Every member is computed on each pass and only the active ones move,
    # which keeps the stack whole: no member's arithmetic depends on another.
    while True:
        active &= (np.sqrt(_dot(grad, grad)) > TOLERANCE) & (iterations < MAX_ITERATIONS)
        if not active.any():
            break
        step = _newton_step(X, w, pr, grad, penalty)

        # Backtracking line search (Armijo), guarantees monotone loss decrease.
        # Except at float resolution: when the predicted decrease (half the
        # squared Newton decrement) is within the loss's rounding, the loss
        # cannot tell the step from no step (it may move by an ulp), so take
        # it whole and stop (Boyd & Vandenberghe, Convex Optimization, 9.5).
        slope = _dot(grad, step)
        at_resolution = -slope / 2 <= np.spacing(loss)
        t = 1.0
        searching, before = active.copy(), theta.copy()
        for _ in range(60):
            trial = theta + t * step
            new_loss, new_grad, new_pr = loss_and_gradient(trial, X, y, w, l2_strength)
            accepted = searching & (at_resolution | (new_loss <= loss + 1e-4 * t * slope))
            theta[accepted] = trial[accepted]
            loss[accepted] = new_loss[accepted]
            grad[accepted] = new_grad[accepted]
            pr[accepted] = new_pr[accepted]
            iterations[accepted] += 1
            searching &= ~accepted
            if not searching.any():
                break
            t *= 0.5
        # a member still searching has an unusable step direction, and one
        # whose step changed no bit would repeat it: both stop where they are
        active &= ~(searching | at_resolution | (theta == before).all(axis=-1))

    norm = np.sqrt(_dot(grad, grad))
    converged = norm <= TOLERANCE
    for i in np.flatnonzero(~converged):
        warnings.warn(
            f"{_member(i, stacked)}logistic training stopped after {iterations[i]} "
            f"iterations with gradient norm {norm[i]:.3g}"
        )
    if not np.all(np.isfinite(theta)):
        raise ArithmeticError("logistic training produced non-finite parameters")
    if stacked:
        coefficients, intercept = theta[:, 1:].copy(), theta[:, 0].copy()
    else:
        coefficients, intercept = theta[0, 1:].copy(), float(theta[0, 0])
    return LogisticModel(
        coefficients=coefficients,
        intercept=intercept,
        converged=bool(converged.all()),
        n_iterations=int(iterations.sum()),
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
