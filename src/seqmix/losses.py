"""Loss models for the shipped problem zoo.

Every loss implements the single batched interface of `model.LossModel`:
each hook takes (Ys, Xs, v, cs) with Ys the (S, L, t) label channel, Xs the
(S, L, r) student channel, v the shared r x r weight self-overlap and cs the
(S, L) class tuples, and returns one value per sample.  A single point is a
batch of one.  The hooks are module-level functions (square_energy's bind
its coupling with `functools.partial`), so a loss, and a spec or config
holding one, pickles.  Every loss states its test metric's per-class
expectation in closed form (`test_mean`), so no test error draws a node;
the pointwise metrics `squared_error` and `misclassification` stay as the
references that sampled estimates in the tests are checked against.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .model import LossModel, solve


def _logistic(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) computed stably."""
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, from one
    exp(-|z|), which never overflows.  -|z| is taken as min(z, -z), which
    keeps the sign of a NaN."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# ----------------------------------------------------------------------
# Square loss (teacher-student regression), any L, requires r == t.
# ----------------------------------------------------------------------

def squared_error(Ys, Xs, v, cs):
    return 0.5 * np.sum((Ys - Xs) ** 2, axis=(-2, -1))


def squared_error_mean(laws, c):
    """E_c[squared_error]: token ell has Y - X = (m* - m) + (mean_map - q_root) xi
    + S_root zeta on key (ell, c_ell), with independent standard cores, so the
    error is (1/2) sum_ell (||m* - m||^2 + ||mean_map - q_root||_F^2 + ||S_root||_F^2).
    Y - X needs r == t, as every square loss does."""
    total = 0.0
    for ell, k in enumerate(c):
        law = laws[(ell, k)]
        total += (np.sum((law.m_star - law.m) ** 2) + np.sum((law.mean_map - law.q_root) ** 2)
                  + np.sum(law.S_root ** 2))
    return 0.5 * float(total)


def _square_grad(Ys, Xs, v, cs):
    return Xs - Ys


def _square_hess(Ys, Xs, v, cs):
    n = Xs.shape[-2] * Xs.shape[-1]
    return np.broadcast_to(np.eye(n), (Xs.shape[0], n, n))


def _square_prox(anchors, P, Ys, v, cs):
    # stationarity: P (X - a) + (X - Y) = 0  =>  (P + I) X = P a + Y
    n, L, r = anchors.shape
    rhs = np.einsum("nij,nj->ni", P, anchors.reshape(n, -1)) + Ys.reshape(n, -1)
    X = solve(P + np.eye(L * r), rhs[..., None], "the square-loss prox system P + I")[..., 0]
    return X.reshape(n, L, r)


def square_loss() -> LossModel:
    """ell = (1/2) ||Y - X||_F^2 with the exact quadratic prox; the test
    metric is the same squared error."""
    return LossModel(
        name="square",
        strongly_convex=True,
        eval=squared_error,
        grad_X=_square_grad,
        test_mean=squared_error_mean,
        hess_X=_square_hess,
        prox=_square_prox,
    )


# ----------------------------------------------------------------------
# Binary Gaussian-mixture classification (L = 1, r = 1).  The label is the
# cluster sign, so the Y channel is never read.
# ----------------------------------------------------------------------

def _signs_of(cs: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(cs)[..., 0] == 0, 1.0, -1.0)


def misclassification(Ys, Xs, v, cs):
    s = _signs_of(cs)
    return (np.sign(Xs[..., 0, 0]) != s).astype(float)


def misclassification_mean(laws, c):
    """E_c[misclassification]: given the cluster the first token's student
    projection is X ~ N(m, var), so P(sign X != s) = erfc(s m / sqrt(2 var)) / 2
    (Mignacco et al., ICML 2020).  At var = 0 it is the indicator at X = m,
    which scores m = 0 as an error: np.sign(0) matches no class sign."""
    law = laws[(0, c[0])]
    s = float(_signs_of(c))
    m = float(law.m[0])
    var = float(law.q_root[0] @ law.q_root[0])
    if var == 0.0:
        return float(np.sign(m) != s)
    return 0.5 * math.erfc(s * m / math.sqrt(2.0 * var))


def _logistic_eval(Ys, Xs, v, cs):
    s = _signs_of(cs)
    return _logistic(-s * Xs[..., 0, 0])


def _logistic_grad(Ys, Xs, v, cs):
    s = _signs_of(cs)
    g = -s * _sigmoid(-s * Xs[..., 0, 0])
    return g[..., None, None]


def _logistic_hess(Ys, Xs, v, cs):
    p = _sigmoid(_signs_of(cs) * Xs[..., 0, 0])
    return (p * (1.0 - p))[..., None, None]


def _logistic_prox(anchors, precisions, Ys, v, cs):
    # scalar Newton on x + V s'(x) = a, vectorized over the batch
    n = anchors.shape[0]
    a = anchors.reshape(n)
    V = 1.0 / precisions.reshape(n)
    s = _signs_of(cs)
    # loop invariants; V * s * sig evaluates as (V * s) * sig
    neg_s, Vs = -s, V * s
    tol = 1e-14 * (1.0 + np.max(np.abs(a)))
    x = a.copy()
    for _ in range(80):
        sig = _sigmoid(neg_s * x)
        res = x - a - Vs * sig
        dres = 1.0 + V * sig * (1.0 - sig)
        step = res / dres
        x = x - step
        if np.abs(res).max() < tol:
            break
    return x.reshape(n, 1, 1)


def logistic_gmm_loss() -> LossModel:
    """ell = log(1 + exp(-s_c x)) with s_c = +-1 from the first token's cluster."""
    return LossModel(
        name="logistic_gmm",
        eval=_logistic_eval,
        grad_X=_logistic_grad,
        depends_on_y=False,
        test_mean=misclassification_mean,
        hess_X=_logistic_hess,
        prox=_logistic_prox,
    )


def _square_gmm_eval(Ys, Xs, v, cs):
    s = _signs_of(cs)
    return 0.5 * (s - Xs[..., 0, 0]) ** 2


def _square_gmm_grad(Ys, Xs, v, cs):
    s = _signs_of(cs)
    return (Xs[..., 0, 0] - s)[..., None, None]


def _square_gmm_hess(Ys, Xs, v, cs):
    return np.broadcast_to(1.0, (Xs.shape[0], 1, 1))


def _square_gmm_prox(anchors, precisions, Ys, v, cs):
    n = anchors.shape[0]
    a = anchors.reshape(n)
    V = 1.0 / precisions.reshape(n)
    s = _signs_of(cs)
    # (1/V)(x - a) + (x - s) = 0
    x = (a + V * s) / (1.0 + V)
    return x.reshape(n, 1, 1)


def square_gmm_loss() -> LossModel:
    """ell = (1/2)(s_c - x)^2, misclassification as the test metric."""
    return LossModel(
        name="square_gmm",
        strongly_convex=True,
        eval=_square_gmm_eval,
        grad_X=_square_gmm_grad,
        depends_on_y=False,
        test_mean=misclassification_mean,
        hess_X=_square_gmm_hess,
        prox=_square_gmm_prox,
    )


# ----------------------------------------------------------------------
# Square loss with a weight-energy term; exercises the v-dependent paths
# (d3, the C update in message passing, the extra gradient term in GD).
# ----------------------------------------------------------------------

def _energy_eval(coupling, Ys, Xs, v, cs):
    return squared_error(Ys, Xs, v, cs) + 0.5 * coupling * float(np.trace(v))


def _energy_d3(coupling, Ys, Xs, v, cs):
    return np.broadcast_to(0.5 * coupling * np.eye(v.shape[0]), (Xs.shape[0],) + v.shape)


def square_loss_with_energy(coupling: float = 0.3) -> LossModel:
    """ell = (1/2) ||Y - X||^2 + (coupling/2) Tr v."""
    return LossModel(
        name="square_energy",
        strongly_convex=True,
        eval=partial(_energy_eval, coupling),
        grad_X=_square_grad,
        d3=partial(_energy_d3, coupling),
        test_mean=squared_error_mean,
        hess_X=_square_hess,
        prox=_square_prox,
    )


def _zero_eval(Ys, Xs, v, cs):
    return np.zeros(Xs.shape[0])


def _zero_mean(laws, c):
    return 0.0


def _zero_grad(Ys, Xs, v, cs):
    return np.zeros_like(Xs)


def _zero_hess(Ys, Xs, v, cs):
    n = Xs.shape[-2] * Xs.shape[-1]
    return np.broadcast_to(0.0, (Xs.shape[0], n, n))


def _zero_prox(anchors, precisions, Ys, v, cs):
    return anchors.copy()


def zero_loss() -> LossModel:
    """Identically-zero loss and test metric; prox is the identity on the anchor."""
    return LossModel(
        name="zero",
        eval=_zero_eval,
        grad_X=_zero_grad,
        test_mean=_zero_mean,
        depends_on_y=False,
        hess_X=_zero_hess,
        prox=_zero_prox,
    )


LOSSES = {
    "square": square_loss,
    "logistic_gmm": logistic_gmm_loss,
    "square_gmm": square_gmm_loss,
    "square_energy": square_loss_with_energy,
    "zero": zero_loss,
}


def loss_by_name(name: str, **kwargs) -> LossModel:
    if name not in LOSSES:
        raise KeyError(f"unknown loss {name!r}; known: {sorted(LOSSES)}")
    return LOSSES[name](**kwargs)
