"""Moreau envelope minimization and its anchor sensitivity, batched over samples.

The inner problem, per sample s, is

    min_X  (1/2) (X - a_s)^T P_s (X - a_s) + ell(Y_s, X, v, c_s)

with X an L x r matrix flattened to length Lr and P_s a positive-definite
Lr x Lr precision, given per sample as one (S, Lr, Lr) array: the full
blocks of message passing, or in the solver a stride-0 view repeating its
block-diagonal precision.  The minimization is over X only; the v slot is
a constant and the loss's v-derivative is evaluated at the minimizer
afterward.

This module is the one place that solves it.  `prox_batch` takes the loss's
specialized prox when it registers one and otherwise runs damped Newton
(Levenberg shift on the loss's hess_X, Armijo backtracking), vectorized
over the batch with every sample checked on its own.  `prox_gain` is the
sensitivity dX/danchor = (P + H)^-1 P, H = hess_X, shared by the solver,
GAMP and rBP.  A single problem is a batch of one.  The Newton steps and
the gain are batched solves of Lr x Lr systems through `model.solve`, in
closed form when Lr <= 2.
"""

from __future__ import annotations

import numpy as np

from .errors import LossBlowupError, ProxConvergenceError, SingularSystemError
from .model import LossModel, solve

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100


def _objective(loss: LossModel, a, P, Ys, v, cs, X) -> np.ndarray:
    """Envelope objective per sample; a and X are flat (S, Lr), P (S, Lr, Lr)."""
    d = X - a
    val = 0.5 * np.einsum("si,sij,sj->s", d, P, d) + loss.eval(
        Ys, X.reshape(Ys.shape[:2] + v.shape[:1]), v, cs
    )
    bad = ~np.isfinite(val)
    if np.any(bad):
        c = tuple(int(x) for x in cs[np.flatnonzero(bad)[0]])
        raise LossBlowupError(f"non-finite envelope objective at class {c}")
    return val


def _residual(loss: LossModel, a, P, Ys, v, cs, X) -> np.ndarray:
    """Stationarity residual P (X - a) + grad ell per sample, flat (S, Lr)."""
    g = loss.grad_X(Ys, X.reshape(Ys.shape[:2] + v.shape[:1]), v, cs)
    return np.einsum("sij,sj->si", P, X - a) + np.reshape(g, X.shape)


def _newton(loss: LossModel, anchors, P, Ys, v, cs):
    """Damped Newton on every sample at once; returns the minimizers X.

    Each sample keeps its own Levenberg shift, Armijo step and stopping
    test ||P (X - a) + grad ell|| <= DEFAULT_TOL (1 + ||a||).  A sample
    whose shift passes 1e12 gives up; the loop ends after DEFAULT_MAX_ITERS
    iterations or once no sample is live, and a sample that has not met the
    test then raises ProxConvergenceError with the iterations run.
    """
    S, L, r = anchors.shape
    n = L * r
    a = anchors.reshape(S, n)
    tols = DEFAULT_TOL * (1.0 + np.linalg.norm(a, axis=1))
    shift_floor = 1e-6 * (1.0 + np.trace(P, axis1=1, axis2=2) / n)
    eye = np.eye(n)

    def at(idx):
        return loss, a[idx], P[idx], Ys[idx], v, cs[idx]

    X = a.copy()
    everyone = np.arange(S)
    obj = _objective(*at(everyone), X)
    res = _residual(*at(everyone), X)
    mu = np.zeros(S)
    live = np.ones(S, dtype=bool)
    iterations = 0
    for _ in range(DEFAULT_MAX_ITERS):
        live &= ~(np.linalg.norm(res, axis=1) <= tols)
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        iterations += 1
        H = loss.hess_X(Ys[idx], X[idx].reshape(-1, L, r), v, cs[idx])
        M = P[idx] + H + mu[idx, None, None] * eye
        try:
            step = solve(M, -res[idx][..., None], "the prox Newton system")[..., 0]
        except SingularSystemError:
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
        raise ProxConvergenceError(X[s].reshape(L, r), float(rnorm[s]), iterations)
    return X.reshape(S, L, r)


def prox_batch(loss: LossModel, anchors, precisions, Ys, v, cs) -> np.ndarray:
    """Prox minimizers (S, L, r) of a batch of anchors (S, L, r) under
    per-sample precisions (S, Lr, Lr).

    For convex losses the returned points are the global minimizers.
    """
    if loss.prox is not None:
        return loss.prox(anchors, precisions, Ys, v, cs)
    return _newton(loss, anchors, precisions, Ys, v, cs)


def prox_gain(loss: LossModel, Ys, Xs, P, v, cs) -> np.ndarray:
    """Anchor sensitivity dX/danchor = (P + H)^-1 P at the minimizers Xs.

    Returns (S, Lr, Lr) for per-sample precisions P (S, Lr, Lr).  When P
    and the loss Hessian are both stride-0 views of one matrix, as in the
    solver with a loss of constant curvature, the gain is one solve
    returned as a stride-0 view; otherwise it is one solve per sample.
    A singular P + H raises SingularSystemError.
    """
    H = loss.hess_X(Ys, Xs, v, cs)
    what = f"P + H in the prox sensitivity of loss {loss.name!r}"
    # a stride-0 view repeats one matrix over the batch
    if P.strides[0] == 0 and H.strides[0] == 0:
        return np.broadcast_to(solve(P[0] + H[0], P[0], what), P.shape)
    return solve(P + H, P, what)
