"""Ground-truth baseline: full-batch gradient descent on the empirical risk.

Armijo backtracking, no momentum; the claims being verified concern critical
points of the risk, not optimizer trajectories, so the simplest monotone
method keeps the message-passing comparison clean.  A fit's test error is
the solver's test-error functional at the fit's own overlaps, since a test
token reaches the metric only through its Gaussian projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecValidationError, StalledError
from .gamp import Dataset, empirical_risk_and_grad, empirical_statistics
from .gaussian import McPlan
from .model import FixedStatistics, ModelSpec, RunRecord
from .saddle import test_error


@dataclass
class TrainConfig:
    step_size: float = 1.0            # initial trial step for backtracking
    max_epochs: int = 5000
    grad_tol: float = 1e-7            # stop when ||grad||_inf falls below
    warm_start: Optional[np.ndarray] = None   # None starts from w = 0

    def violations(self) -> list[str]:
        out = []
        if self.step_size <= 0:
            out.append("TrainConfig: step size must be positive")
        if self.grad_tol <= 0:
            out.append("TrainConfig: grad_tol must be positive")
        if self.max_epochs < 1:
            out.append("TrainConfig: max_epochs must be >= 1")
        return out


@dataclass
class TrainResult(RunRecord):
    """A fit's record: residual_history[i] is the gradient sup-norm epoch
    i + 1 starts from, converged is grad_norm <= grad_tol, and no overlap
    trajectory is kept."""

    w_hat: np.ndarray
    train_loss_per_d: float           # R(w)/d including the regularizer
    grad_norm: float                  # at w_hat
    objective_history: list           # R(w) at the start and after each accepted step


def erm_train(
    data: Dataset,
    spec: ModelSpec,
    config: Optional[TrainConfig] = None,
) -> TrainResult:
    """Minimize the empirical risk by monotone full-batch gradient descent.

    Returns the iterate with ||grad||_inf <= grad_tol (converged), or the
    last one reached within max_epochs (not converged).
    The reported loss is R(w)/d, the same per-dimension normalization the
    solver uses for its training-loss output.
    """
    config = config or TrainConfig()
    bad = config.violations()
    if bad:
        raise SpecValidationError("; ".join(bad))
    d = data.d
    r = spec.dims.r

    w = np.zeros((d, r)) if config.warm_start is None else config.warm_start.copy()

    obj, grad = empirical_risk_and_grad(w, data, spec)
    history = [obj]
    residuals = []
    step = config.step_size
    stalls = 0
    for it in range(1, config.max_epochs + 1):
        gnorm = float(np.max(np.abs(grad)))
        residuals.append(gnorm)
        if gnorm <= config.grad_tol:
            break
        accepted = False
        t = step
        g2 = float(np.sum(grad * grad))
        for _ in range(60):
            w_new = w - t * grad
            obj_new, grad_new = empirical_risk_and_grad(w_new, data, spec)
            if obj_new <= obj - 1e-4 * t * g2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            stalls += 1
            if stalls >= 50:
                raise StalledError(
                    f"objective stuck at {obj:.6e} after {it} epochs "
                    f"(grad norm {gnorm:.3e})"
                )
            continue
        stalls = 0
        w, obj, grad = w_new, obj_new, grad_new
        history.append(obj)
        # gentle step growth so backtracking stays cheap
        step = min(2.0 * t, config.step_size * 16)
    gnorm = float(np.max(np.abs(grad)))
    return TrainResult(
        w_hat=w,
        train_loss_per_d=obj / d,
        grad_norm=gnorm,
        objective_history=history,
        converged=gnorm <= config.grad_tol,
        residual_history=residuals,
    )


def empirical_test_error(
    w_hat: np.ndarray,
    data: Dataset,
    spec: ModelSpec,
    n_test: int = 200_000,
    seed: int = 1,
) -> tuple[float, float]:
    """Fresh-sample Monte Carlo estimate of the test metric, with stderr.

    Test tokens come from the generator's declared population (the same
    means, covariance diagonals and teacher the train set realized), but the
    metric reads only the projections of each token onto [w_hat, teacher],
    which given the cluster are Gaussian with the overlaps of w_hat and of
    the teacher as mean and covariance.  So this is the solver's
    `test_error` at the fit's own `empirical_statistics`, against the
    teacher's realized rho and m*, with n_test draws split evenly over the
    class tuples: the law of an estimate from full d-dimensional test
    tokens, at O(n_test (r + t)) cost instead of O(n_test d).
    """
    teacher = empirical_statistics(data.teacher, 0.0, data)
    fixed = FixedStatistics(rho=teacher.q, m_star=teacher.m)
    plan = holdout_plan(spec, n_test, seed)
    return test_error(empirical_statistics(w_hat, 0.0, data), fixed, spec, plan)


def holdout_plan(spec: ModelSpec, n_test: int, seed: int) -> McPlan:
    """empirical_test_error's draws: n_test split evenly over the class
    tuples of positive probability, unpaired (a metric even in the draw,
    e.g. square loss at zero means, is equal on both draws of a pair)."""
    n_classes = sum(pc > 0.0 for pc in spec.class_law.probs)
    return McPlan(n_samples=n_test // n_classes, seed=seed, antithetic=False)
