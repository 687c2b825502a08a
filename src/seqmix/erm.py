"""Ground-truth baseline: empirical risk minimization by limited-memory BFGS.

Each epoch steps along the two-loop L-BFGS direction built from the last
LBFGS_MEMORY (s, y) pairs (Liu & Nocedal, Math. Program. 45, 1989) and
halves the step until it passes the Armijo test.  The method is monotone up
to a roundoff allowance: once the predicted decrease of the full step falls
below the rounding of R(w), a step may also raise R by at most that rounding
if it passes the approximate Wolfe slope test (Hager & Zhang, SIAM J. Optim.
16, 2005), so a fit that is already at its minimizer to working precision is
not left rejecting every step.  The claims being verified concern critical
points of the risk, not optimizer trajectories, so any such monotone method
that reaches grad_tol keeps the message-passing comparison clean.  A fit's
test error is the solver's test-error functional at the fit's own overlaps,
since a test token reaches the metric only through its Gaussian projections;
like the solver's, it is a closed form and draws nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecValidationError, StalledError
from .gamp import Dataset, empirical_risk_and_grad, empirical_statistics
from .model import check_divergence, FixedStatistics, ModelSpec, RunRecord
from .saddle import test_error

LBFGS_MEMORY = 10       # (s, y) pairs the direction is built from
ARMIJO_C = 1e-4         # sufficient-decrease constant
MAX_HALVINGS = 60       # trial steps per epoch before the epoch stalls
MAX_STALLS = 50         # consecutive stalled epochs before StalledError


@dataclass
class TrainConfig:
    max_epochs: int = 5000
    grad_tol: float = 1e-6            # stop when ||grad||_inf falls below

    def violations(self) -> list[str]:
        out = []
        if not 0.0 < self.grad_tol < np.inf:
            out.append("TrainConfig: grad_tol must be positive and finite")
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


def _lbfgs_step(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """-H grad by the two-loop recursion over pairs (s, y, 1/(y.s)), oldest
    first, with the initial inverse Hessian (s.y / y.y) I of the newest pair."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.vdot(s, q)
        q -= a * y
        alphas.append(a)
    s, y, _ = pairs[-1]
    q *= np.vdot(s, y) / np.vdot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * np.vdot(y, q)) * s
    return -q


def erm_train(
    data: Dataset,
    spec: ModelSpec,
    config: Optional[TrainConfig] = None,
) -> TrainResult:
    """Minimize the empirical risk by L-BFGS with Armijo backtracking.

    The first trial step is -grad on the first epoch and after every reset
    (a direction that does not descend, or a stalled epoch, which also
    clears the memory), and the unit L-BFGS step otherwise.
    Returns the iterate with ||grad||_inf <= grad_tol (converged), or the
    last one reached within max_epochs (not converged); raises
    SolverDivergenceError when an accepted iterate or its gradient is not
    finite or the gradient passes `model.DIVERGENCE_LIMIT`.
    The reported loss is R(w)/d, the same per-dimension normalization the
    solver uses for its training-loss output.
    """
    config = config or TrainConfig()
    bad = config.violations()
    if bad:
        raise SpecValidationError("; ".join(bad))
    d = data.d
    w = np.zeros((d, spec.dims.r))

    obj, grad = empirical_risk_and_grad(w, data, spec)
    gnorm = float(np.max(np.abs(grad)))
    history = [obj]
    residuals = []
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    stalls = 0
    for it in range(1, config.max_epochs + 1):
        residuals.append(gnorm)
        if gnorm <= config.grad_tol:
            break
        step = _lbfgs_step(grad, pairs) if pairs else -grad
        slope = np.vdot(grad, step)
        if not slope < 0.0:         # not a descent direction: restart from -grad
            pairs.clear()
            step = -grad
            slope = np.vdot(grad, step)
        # below roundoff the Armijo decrease cannot be seen; the approximate
        # Wolfe test then accepts a step that keeps R within its rounding
        eps_f = 16.0 * np.finfo(float).eps * max(1.0, abs(obj))
        flat = -slope <= eps_f
        accepted = False
        t = 1.0
        for _ in range(MAX_HALVINGS):
            w_new = w + t * step
            obj_new, grad_new = empirical_risk_and_grad(w_new, data, spec)
            if obj_new <= obj + ARMIJO_C * t * slope or (
                flat and obj_new <= obj + eps_f
                and np.vdot(grad_new, step) <= (2.0 * ARMIJO_C - 1.0) * slope
            ):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            pairs.clear()
            stalls += 1
            if stalls >= MAX_STALLS:
                raise StalledError(
                    f"objective stuck at {obj:.6e} after {it} epochs "
                    f"(grad norm {gnorm:.3e})"
                )
            continue
        stalls = 0
        s, y = w_new - w, grad_new - grad
        ys = np.vdot(y, s)
        if ys > 0.0:
            pairs.append((s, y, 1.0 / ys))
        w, obj, grad = w_new, obj_new, grad_new
        gnorm = float(np.max(np.abs(grad)))
        history.append(obj)
        check_divergence(it, gnorm, None, w, grad,
                         loop="ERM", step="epoch", measure="gradient sup-norm")
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
    """The fit's expected test metric over fresh test tokens, with stderr.

    Test tokens come from the generator's declared population (the same
    means, covariance diagonals and teacher the train set realized), but the
    metric reads only the projections of each token onto [w_hat, teacher],
    which given the cluster are Gaussian with the overlaps of w_hat and of
    the teacher as mean and covariance.  So this is the solver's
    `test_error` at the fit's own `empirical_statistics`, against the
    teacher's realized rho and m*: the loss's closed form
    (`LossModel.test_mean`), exact, with a zero stderr, and no test token is
    drawn.  n_test and seed are not read; they stay in the signature for
    the callers that pass them.
    """
    teacher = empirical_statistics(data.teacher, 0.0, data)
    fixed = FixedStatistics(rho=teacher.q, m_star=teacher.m)
    return test_error(empirical_statistics(w_hat, 0.0, data), fixed, spec)
