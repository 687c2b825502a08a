"""Ground-truth baseline: full-batch gradient descent on the empirical risk.

Armijo backtracking, no momentum; the claims being verified concern critical
points of the risk, not optimizer trajectories, so the simplest monotone
method keeps the message-passing comparison clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecValidationError, StalledError
from .gamp import Dataset, empirical_risk_and_grad
from .model import ModelSpec, RunRecord


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
            out.append("TrainConfig: gradient threshold must be positive")
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
    metric reads only the L x (r + t) projections of each token onto
    W = [w_hat, teacher].  Given cluster (ell, k) those are exactly Gaussian,
    with mean means[key] @ W / sqrt(d) and covariance W^T diag(gamma) W / d,
    so they are drawn directly through an eigen root of that small
    covariance (singular when w_hat is parallel to the teacher).  The
    estimate has the law of one drawn from full d-dimensional test tokens,
    at O(n_test (r + t)) cost instead of O(n_test d).
    """
    dims = spec.dims
    d = data.d
    r = w_hat.shape[1]
    W = np.concatenate([w_hat, data.teacher], axis=1)
    m = W.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E57]))
    c = spec.class_law.sample(rng, n_test)
    proj = np.empty((n_test, dims.L, m))
    for ell in range(dims.L):
        for k in range(dims.K[ell]):
            mask = c[:, ell] == k
            if not np.any(mask):
                continue
            key = (ell, k)
            mean = data.meta.means[key] @ W / np.sqrt(d)
            cov = W.T @ (data.meta.eigenvalues[key][:, None] * W) / d
            evals, U = np.linalg.eigh(cov)
            # rounding-level eigenvalues of a rank-deficient cov are zero:
            # kept, their square roots would put ~sqrt(eps) noise between
            # projections that are exactly equal
            evals[evals <= m * np.finfo(float).eps * evals.max(initial=0.0)] = 0.0
            root = U * np.sqrt(evals)
            g = rng.standard_normal((int(mask.sum()), m))
            proj[mask, ell, :] = mean + g @ root.T
    v = w_hat.T @ w_hat / d
    vals = np.asarray(spec.loss.test_eval(proj[..., r:], proj[..., :r], v, c), dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_test))
