"""Anchor sensitivity of the Moreau envelope minimizer, batched over samples.

The inner problem, per sample s, is

    min_X  (1/2) (X - a_s)^T P_s (X - a_s) + ell(Y_s, X, v, c_s)

with X an L x r matrix flattened to length Lr and P_s a positive-definite
Lr x Lr precision, given per sample as one (S, Lr, Lr) array: the full
blocks of message passing, or in the solver a stride-0 view repeating its
block-diagonal precision.  The minimization is over X only; the v slot is
a constant and the loss's v-derivative is evaluated at the minimizer
afterward.

Every loss solves that problem itself, in its required `prox` hook, and
`validate_spec` checks each hook's stationarity.  This module holds what
the solver, GAMP and rBP share at the minimizer: `prox_gain`, the
sensitivity dX/danchor = (P + H)^-1 P, H = hess_X, a batched solve of
Lr x Lr systems through `model.solve`, in closed form when Lr <= 2.
"""

from __future__ import annotations

import numpy as np

from .model import LossModel, solve


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
