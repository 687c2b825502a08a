"""Moreau envelope minimization and its anchor sensitivity, batched over samples.

The inner problem, per sample s, is

    min_X  (1/2) (X - a_s)^T P_s (X - a_s) + ell(Y_s, X, v, c_s)

with X an L x r matrix flattened to length Lr and P_s a positive-definite
precision: either one Lr x Lr matrix shared by the batch (block-diagonal per
token in the solver) or one per sample (the full blocks of message
passing).  The minimization is over X only; the v slot is a constant and the
loss's v-derivative is evaluated at the minimizer afterward.

This module is the one place that solves it.  `prox_batch` takes the loss's
specialized prox when it registers one and otherwise runs damped Newton
(Levenberg shift on the loss Hessian, Armijo backtracking), vectorized over
the batch with every sample checked on its own.  `loss_hessian` supplies
hess_X or central differences of grad_X, and `prox_gain` is the sensitivity
dX/danchor = (P + H)^-1 P shared by the solver, GAMP and rBP.
`moreau_prox` is the single-problem view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import LossBlowupError, ProxConvergenceError, SingularSystemError
from .model import LossModel

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100


@dataclass
class ProxProblem:
    anchor: np.ndarray                                   # L x r
    precision: Union[np.ndarray, Sequence[np.ndarray]]   # full Lr x Lr or per-token r x r list
    y: np.ndarray                                        # L x t, passed to the loss as-is
    v: np.ndarray                                        # r x r constant slot
    c: tuple
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def precision_full(self) -> np.ndarray:
        if isinstance(self.precision, np.ndarray) and self.precision.ndim == 2 \
                and self.precision.shape[0] == self.anchor.size:
            return self.precision
        L, r = self.anchor.shape
        P = np.zeros((L * r, L * r))
        for ell, block in enumerate(self.precision):
            P[ell * r : (ell + 1) * r, ell * r : (ell + 1) * r] = block
        return P

    def violations(self) -> list[str]:
        P = self.precision_full()
        out = []
        if np.max(np.abs(P - P.T)) > 1e-8 * (1.0 + np.max(np.abs(P))):
            out.append("ProxProblem: precision not symmetric")
        else:
            w = np.linalg.eigvalsh(0.5 * (P + P.T))
            if w.min() <= 1e-12:
                out.append("ProxProblem: precision not positive definite")
        return out


@dataclass
class ProxResult:
    x_star: np.ndarray        # L x r
    value: float              # envelope value at the minimizer
    grad_norm: float          # stationarity residual
    iterations: int = 0


def _objective(loss: LossModel, a, P, Ys, v, cs, X) -> np.ndarray:
    """Envelope objective per sample; a and X are flat (S, Lr), P (S, Lr, Lr)."""
    d = X - a
    val = 0.5 * np.einsum("si,sij,sj->s", d, P, d) + loss.eval(
        Ys, X.reshape(Ys.shape[0], -1, v.shape[0]), v, cs
    )
    bad = ~np.isfinite(val)
    if np.any(bad):
        c = tuple(int(x) for x in cs[np.flatnonzero(bad)[0]])
        raise LossBlowupError(f"non-finite envelope objective at class {c}")
    return val


def _residual(loss: LossModel, a, P, Ys, v, cs, X) -> np.ndarray:
    """Stationarity residual P (X - a) + grad ell per sample, flat (S, Lr)."""
    g = loss.grad_X(Ys, X.reshape(Ys.shape[0], -1, v.shape[0]), v, cs)
    return np.einsum("sij,sj->si", P, X - a) + np.reshape(g, X.shape)


def loss_hessian(loss: LossModel, Ys, Xs, v, cs) -> np.ndarray:
    """X-Hessians (S, Lr, Lr): hess_X when the loss has one, otherwise
    symmetrized central differences of grad_X (the problem is tiny)."""
    if loss.hess_X is not None:
        return np.asarray(loss.hess_X(Ys, Xs, v, cs), dtype=float)
    S, L, r = Xs.shape
    n = L * r
    flat = Xs.reshape(S, n)
    h = 1e-6 * (1.0 + np.max(np.abs(flat), axis=1, initial=0.0))
    H = np.empty((S, n, n))
    for j in range(n):
        E = np.zeros((S, n))
        E[:, j] = h
        gp = loss.grad_X(Ys, (flat + E).reshape(S, L, r), v, cs).reshape(S, n)
        gm = loss.grad_X(Ys, (flat - E).reshape(S, L, r), v, cs).reshape(S, n)
        H[:, :, j] = (gp - gm) / (2 * h[:, None])
    return 0.5 * (H + H.transpose(0, 2, 1))


def _newton(loss: LossModel, anchors, precisions, Ys, v, cs, tol, max_iters):
    """Damped Newton on every sample at once; returns (X, iterations).

    Each sample keeps its own Levenberg shift, Armijo step and stopping
    test ||P (X - a) + grad ell|| <= tol (1 + ||a||); a sample that has not
    met it when the iterations run out raises ProxConvergenceError.
    """
    S, L, r = anchors.shape
    n = L * r
    a = anchors.reshape(S, n)
    P = np.broadcast_to(precisions, (S, n, n))
    tols = tol * (1.0 + np.linalg.norm(a, axis=1))
    shift_floor = 1e-6 * (1.0 + np.trace(P, axis1=1, axis2=2) / n)
    eye = np.eye(n)

    def at(idx):
        return loss, a[idx], P[idx], Ys[idx], v, cs[idx]

    X = a.copy()
    everyone = np.arange(S)
    obj = _objective(*at(everyone), X)
    res = _residual(*at(everyone), X)
    mu = np.zeros(S)
    iterations = np.full(S, max_iters)
    live = np.ones(S, dtype=bool)
    for it in range(max_iters):
        done = live & (np.linalg.norm(res, axis=1) <= tols)
        iterations[done] = it
        live &= ~done
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        H = loss_hessian(loss, Ys[idx], X[idx].reshape(-1, L, r), v, cs[idx])
        M = P[idx] + H + mu[idx, None, None] * eye
        try:
            step = np.linalg.solve(M, -res[idx][..., None])[..., 0]
        except np.linalg.LinAlgError:
            mu[idx] = np.maximum(10.0 * mu[idx], 1e-6)
            continue
        # Armijo backtracking on the envelope objective, per sample.  Near
        # the optimum the decrease drops below rounding of the objective, so
        # a step within a few ulps of |obj| passes; without that slack the
        # Levenberg shift climbs until the sample gives up
        slope = np.einsum("si,si->s", res[idx], step)
        slack = 16.0 * np.finfo(float).eps * np.abs(obj[idx])
        t = np.ones(idx.size)
        accepted = np.zeros(idx.size, dtype=bool)
        trying = np.arange(idx.size)
        for _ in range(40):
            cand = X[idx[trying]] + t[trying, None] * step[trying]
            val = _objective(*at(idx[trying]), cand)
            ok = val <= obj[idx[trying]] + 1e-4 * t[trying] * slope[trying] + slack[trying]
            win = idx[trying[ok]]
            X[win] = cand[ok]
            obj[win] = val[ok]
            accepted[trying[ok]] = True
            trying = trying[~ok]
            if trying.size == 0:
                break
            t[trying] *= 0.5
        won = idx[accepted]
        res[won] = _residual(*at(won), X[won])
        mu[won] = np.where(mu[won] > 1e-12, 0.1 * mu[won], 0.0)
        # Hessian model is unreliable where no step passed: add curvature
        # and retry, giving up once the shift is huge
        lost = idx[~accepted]
        mu[lost] = np.maximum(10.0 * mu[lost], shift_floor[lost])
        live[lost[mu[lost] > 1e12]] = False
    rnorm = np.linalg.norm(_residual(*at(everyone), X), axis=1)
    failed = np.flatnonzero(rnorm > tols)
    if failed.size:
        s = failed[0]
        raise ProxConvergenceError(X[s].reshape(L, r), float(rnorm[s]), max_iters)
    return X.reshape(S, L, r), iterations


def prox_batch(
    loss: LossModel, anchors, precisions, Ys, v, cs,
    tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
) -> np.ndarray:
    """Prox minimizers (S, L, r) of a batch of anchors (S, L, r).

    precisions is one shared (Lr, Lr) matrix or per-sample (S, Lr, Lr).
    For convex losses the returned points are the global minimizers.
    """
    if loss.prox is not None:
        return loss.prox(anchors, precisions, Ys, v, cs)
    return _newton(loss, anchors, precisions, Ys, v, cs, tol, max_iters)[0]


def prox_gain(loss: LossModel, Ys, Xs, P, v, cs) -> np.ndarray:
    """Anchor sensitivity dX/danchor = (P + H)^-1 P at the minimizers Xs.

    Returns (S, Lr, Lr); P is shared (Lr, Lr) or per-sample (S, Lr, Lr).
    With a constant loss Hessian the shared case is one solve.  A singular
    P + H raises SingularSystemError.
    """
    S = Xs.shape[0]
    try:
        if loss.hess_is_constant:
            H = loss_hessian(loss, Ys[:1], Xs[:1], v, cs[:1])[0]
            J = np.linalg.solve(P + H, P)
            return np.broadcast_to(J, (S,) + J.shape[-2:]) if P.ndim == 2 else J
        H = loss_hessian(loss, Ys, Xs, v, cs)
        return np.linalg.solve(P + H, np.broadcast_to(P, H.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"prox sensitivity of loss {loss.name!r} is undefined: P + H is singular"
        ) from exc


def moreau_prox(problem: ProxProblem, loss: LossModel) -> ProxResult:
    """Minimizer, envelope value, and stationarity residual of one problem.

    For convex losses the returned point is the global minimizer; the
    residual postcondition ||P (X - anchor) + grad ell|| <= tol (1 + ||anchor||)
    holds on every return.
    """
    P = problem.precision_full()
    Ys = problem.y[None]
    cs = np.asarray([problem.c])
    if loss.prox is not None:
        X = loss.prox(problem.anchor[None], P, Ys, problem.v, cs)
        iterations = 0
    else:
        X, its = _newton(loss, problem.anchor[None], P, Ys, problem.v, cs,
                         problem.tol, problem.max_iters)
        iterations = int(its[0])
    at = (loss, problem.anchor.reshape(1, -1), P[None], Ys, problem.v, cs, X.reshape(1, -1))
    return ProxResult(
        X[0],
        float(_objective(*at)[0]),
        float(np.linalg.norm(_residual(*at))),
        iterations=iterations,
    )
