"""Independent references for the ridge instance.

Two routes that never touch the fixed-point solver:

1. A scalar self-consistent equation from random-matrix theory.  For the
   sample covariance W = X^T X / d of n = alpha d isotropic rows, the
   normalized resolvent trace g = (1/d) Tr (W + lam)^-1 satisfies

       g = 1 / (lam + alpha / (1 + g)),

   a quadratic in g, solved here in closed form.  The ridge estimator w = (W + lam)^-1 W w*
   then has deterministic overlaps
       theta = rho (1 - lam g),
       q     = rho (1 - 2 lam g + lam^2 g2),    g2 = -dg/dlam,
   giving test error  (1/2)(rho - 2 theta + q) = (1/2) rho lam^2 g2  and
   per-dimension training loss  (lam / 2) theta.

2. Finite-d ridge fits, averaged over seeds, sampled exactly in law
   without forming the n x d design.  A Gaussian X is rotation invariant,
   so with w* = sqrt(d) e1 it can be written X = U B V^T with V e1 = e1 and
   B upper bidiagonal with independent chi entries (Golub-Kahan
   bidiagonalization of a Gaussian matrix; Dumitriu & Edelman, "Matrix
   models for beta ensembles", J. Math. Phys. 43, 2002).  Every error of
   the fit depends on X only through the tridiagonal T = B^T B, so one fit
   is an O(d) tridiagonal solve, done in Python floats in the order of
   LAPACK's ptsv, so it gives the bits scipy.linalg.solveh_banded gives
   without loading scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError


def resolvent_trace(alpha: float, lam: float) -> float:
    """The positive root g of g = 1 / (lam + alpha / (1 + g)), that is of
    lam g^2 + b g - 1 = 0 with b = lam + alpha - 1, in the form of the
    quadratic formula that does not cancel for the sign of b."""
    if lam <= 0:
        raise SpecValidationError(f"resolvent trace requires lam > 0, got {lam}")
    b = lam + alpha - 1.0
    root = math.sqrt(b * b + 4.0 * lam)
    return 2.0 / (b + root) if b >= 0 else (root - b) / (2.0 * lam)


@dataclass
class RidgeAsymptotics:
    alpha: float
    lam: float
    rho: float
    q: float
    theta: float
    test_error: float
    train_loss: float


def ridge_asymptotics(alpha: float, lam: float, rho: float = 1.0) -> RidgeAsymptotics:
    """Deterministic ridge overlaps and errors from the resolvent trace."""
    g = resolvent_trace(alpha, lam)
    # g2 = -dg/dlam by implicit differentiation of the self-consistency
    g2 = g**2 * (1.0 + g) ** 2 / ((1.0 + g) ** 2 - alpha * g**2)
    theta = rho * (1.0 - lam * g)
    q = rho * (1.0 - 2.0 * lam * g + lam**2 * g2)
    return RidgeAsymptotics(
        alpha=alpha,
        lam=lam,
        rho=rho,
        q=q,
        theta=theta,
        test_error=0.5 * rho * lam**2 * g2,
        train_loss=0.5 * lam * theta,
    )


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x = A^-1 rhs for the symmetric positive definite tridiagonal A with
    diagonal `diag` and off-diagonal `off`, by LAPACK's own operations in
    its own order, so the bits equal scipy.linalg.solveh_banded's.

    For d >= 2 that is ptsv: pttrf's A = L D L^T (l_i = e_i / d_i, then
    d_{i+1} -= l_i e_i) fused with ptts2's forward sweep, then ptts2's back
    substitution.  For d = 1 it is pbsv's Cholesky route, two divisions by
    sqrt(A).  The caller ensures A is positive definite.
    """
    if len(diag) == 1:
        root = math.sqrt(float(diag[0]))
        return np.array([float(rhs[0]) / root / root])
    # Python floats: per-element numpy indexing would be several times slower.
    # pttrf's factorization fused with ptts2's forward sweep L y = rhs
    D, E, b = diag.tolist(), off.tolist(), rhs.tolist()
    piv, y = D[0], b[0]
    pivots, ls, ys = [piv], [], [y]
    for di, ei, bi in zip(D[1:], E, b[1:]):
        li = ei / piv
        piv = di - li * ei
        y = bi - y * li
        pivots.append(piv)
        ls.append(li)
        ys.append(y)
    # ptts2's back substitution D L^T x = y, last row first
    xi = y / piv
    x = [xi]
    for yi, di, li in zip(ys[-2::-1], pivots[-2::-1], reversed(ls)):
        xi = yi / di - xi * li
        x.append(xi)
    return np.array(x[::-1])


def _one_ridge_fit(alpha: float, lam: float, d: int, seed: int) -> tuple[float, float]:
    # X = U B V^T with V e1 = e1 and B upper bidiagonal (Dumitriu-Edelman):
    # row i of B holds a_i ~ chi_{n-i} on the diagonal and b_i ~ chi_{d-1-i}
    # right of it, for the first min(n, d) rows; when n < d the last row
    # keeps its superdiagonal entry
    n = int(round(alpha * d))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x41D6E]))
    rows = min(n, d)
    i = np.arange(rows)
    a = np.sqrt(2.0 * rng.standard_gamma((n - i) / 2.0))
    b = np.sqrt(2.0 * rng.standard_gamma((d - 1 - i) / 2.0))[: d - 1]
    # T = B^T B: T_jj = a_j^2 + b_{j-1}^2 and T_{j,j+1} = a_j b_j
    diag = np.zeros(d)
    diag[:rows] = a * a
    diag[1 : len(b) + 1] += b * b
    off = np.zeros(d - 1)
    off[: len(b)] = a[: len(b)] * b

    def T(x: np.ndarray) -> np.ndarray:
        out = diag * x
        out[:-1] += off * x[1:]
        out[1:] += off * x[:-1]
        return out

    # u = (T/d + lam)^-1 T e1 / d is w / sqrt(d) in the rotated frame
    e1 = np.zeros(d)
    e1[0] = 1.0
    u = _solve_tridiagonal(diag + lam * d, off, T(e1))
    e = u - e1
    eg = 0.5 * float(e @ e)
    et = (0.5 * float(e @ T(e)) + 0.5 * lam * d * float(u @ u)) / d
    return eg, et


def finite_d_ridge(
    alpha: float, lam: float, d: int, seeds: range | list[int]
) -> tuple[float, float, float, float]:
    """Exact-population test error and training loss of finite-d ridge fits.

    Returns (eg_mean, eg_stderr, et_mean, et_stderr) over the seeds.  The
    test error uses the population identity (1/2)||w - w*||^2 / d for
    isotropic covariance, so the only randomness is the train set.  Each
    seed's fit has the law of ridge on an n x d standard Gaussian design
    with n = round(alpha d) and ||w*||^2 = d, but is drawn through the
    bidiagonal model: with u = (T/d + lam)^-1 T e1 / d,
        eg = (1/2) ||u - e1||^2,
        et = ((1/2) (u - e1)^T T (u - e1) + (1/2) lam d ||u||^2) / d.
    d must be an integer >= 1 and alpha finite and >= 0 (alpha d rounding
    to 0 fits on no data), lam > 0 keeps every system positive definite,
    and the stderrs need at least two seeds; anything else raises
    SpecValidationError.
    """
    if not (isinstance(d, numbers.Integral) and d >= 1):
        raise SpecValidationError(f"finite-d ridge requires an integer d >= 1, got {d!r}")
    if not 0.0 <= alpha < math.inf:
        raise SpecValidationError(f"finite-d ridge requires a finite alpha >= 0, got {alpha}")
    if not lam > 0:
        raise SpecValidationError(f"finite-d ridge requires lam > 0, got {lam}")
    if len(seeds) < 2:
        raise SpecValidationError(
            f"finite-d ridge needs at least 2 seeds for its stderrs, got {len(seeds)}"
        )
    pairs = [_one_ridge_fit(alpha, lam, d, s) for s in seeds]
    egs = np.asarray([p[0] for p in pairs])
    ets = np.asarray([p[1] for p in pairs])
    k = len(egs)
    return (
        float(egs.mean()),
        float(egs.std(ddof=1) / np.sqrt(k)),
        float(ets.mean()),
        float(ets.std(ddof=1) / np.sqrt(k)),
    )
