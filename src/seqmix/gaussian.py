"""Gaussian machinery: symmetric matrix roots, the conditional measure over
(Y, Xi) entering the energetic expectations, joint (X, Y) nodes for the
test error, and the weighted reductions the solver averages them with.

Nodes come either from seeded Monte Carlo (antithetic variates, common
random numbers across solver iterations) or, for small Gaussian dimension,
from tensor Gauss-Hermite quadrature.  Samplers are pure functions of
(seed, class index, iteration), so runs are bit-reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import (
    DegenerateOverlapError,
    InconsistentOverlapsError,
    SpecValidationError,
)
from .model import FixedStatistics, OrderParameters

EIG_CLIP = 1e-12          # eigenvalues below this are treated as exactly zero
NEG_EIG_TOL = 1e-8        # more negative than this signals corrupted matrices
GH_MAX_DIM = 6            # tensor quadrature allowed up to this Gaussian dimension


# ----------------------------------------------------------------------
# Symmetric eigen-based matrix functions.  Never Cholesky: overlap blocks
# can be singular early in solver iterations.
# ----------------------------------------------------------------------

def _check_symmetric(A: np.ndarray, tol: float = 1e-10) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InconsistentOverlapsError(f"expected a square matrix, got shape {A.shape}")
    if np.max(np.abs(A - A.T)) > tol:
        raise InconsistentOverlapsError("matrix is not symmetric within tolerance")


def _clipped_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _check_symmetric(A)
    w, U = np.linalg.eigh(0.5 * (A + A.T))
    if w.min(initial=0.0) < -NEG_EIG_TOL:
        raise InconsistentOverlapsError(
            f"matrix has eigenvalue {w.min():.3e} below -{NEG_EIG_TOL:.0e}; "
            "order parameters are corrupted"
        )
    return np.clip(w, 0.0, None), U


def sym_sqrt(A: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root B with B @ B = A."""
    w, U = _clipped_eigh(A)
    B = (U * np.sqrt(w)) @ U.T
    return 0.5 * (B + B.T)


def sym_pinv_sqrt(A: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root: zero eigenvalues map to zero."""
    w, U = _clipped_eigh(A)
    inv = np.where(w > EIG_CLIP, 1.0 / np.sqrt(np.maximum(w, EIG_CLIP)), 0.0)
    B = (U * inv) @ U.T
    return 0.5 * (B + B.T)


def sym_pinv(A: np.ndarray) -> np.ndarray:
    w, U = _clipped_eigh(A)
    inv = np.where(w > EIG_CLIP, 1.0 / np.maximum(w, EIG_CLIP), 0.0)
    B = (U * inv) @ U.T
    return 0.5 * (B + B.T)


def psd_clip(A: np.ndarray, neg_tol: float = NEG_EIG_TOL) -> np.ndarray:
    """Project to the PSD cone; eigenvalues below -neg_tol raise."""
    _check_symmetric(A, tol=1e-8)
    w, U = np.linalg.eigh(0.5 * (A + A.T))
    if w.min(initial=0.0) < -neg_tol:
        raise InconsistentOverlapsError(
            f"matrix has eigenvalue {w.min():.3e}, indefinite beyond tolerance"
        )
    B = (U * np.clip(w, 0.0, None)) @ U.T
    return 0.5 * (B + B.T)


# ----------------------------------------------------------------------
# Expectation plans.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class McPlan:
    """How to evaluate Gaussian expectations.

    gh_order = 0 selects Monte Carlo with n_samples draws; gh_order > 0
    selects tensor Gauss-Hermite quadrature with that many nodes per
    Gaussian dimension (allowed while the total dimension is <= 6).
    crn reuses the same underlying normals at every solver iteration so the
    fixed-point map is deterministic.
    """

    n_samples: int = 20000
    seed: int = 0
    antithetic: bool = True
    crn: bool = True
    gh_order: int = 0

    def violations(self) -> list[str]:
        out = []
        if self.n_samples < 1:
            out.append("McPlan: n_samples must be >= 1")
        if self.antithetic and self.n_samples % 2 != 0:
            out.append("McPlan: antithetic pairing needs an even n_samples")
        if self.seed < 0:
            out.append("McPlan: seed must be nonnegative")
        if self.gh_order < 0:
            out.append("McPlan: gh_order must be nonnegative")
        return out


def standard_normals(
    plan: McPlan, c_index: int, iteration: int, shape: tuple[int, ...]
) -> np.ndarray:
    """Seeded standard normals, shape (n_samples, *shape).

    With antithetic pairing, sample 2i+1 is the negation of sample 2i.
    Under common random numbers the iteration index is ignored.
    """
    tag = 0 if plan.crn else iteration + 1
    rng = np.random.default_rng(
        np.random.SeedSequence([int(plan.seed), int(c_index), int(tag)])
    )
    n = plan.n_samples
    if plan.antithetic:
        base = rng.standard_normal((n // 2, *shape))
        out = np.empty((n, *shape))
        out[0::2] = base
        out[1::2] = -base
        return out
    return rng.standard_normal((n, *shape))


@functools.lru_cache(maxsize=None)
def gauss_hermite_nodes(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite nodes for N(0, I_dim).

    Returns (weights, points) with weights summing to 1 and points of shape
    (order**dim, dim).  Built once per (dim, order) and shared by every
    later call, so both arrays are read-only.
    """
    if dim > GH_MAX_DIM:
        raise SpecValidationError(
            f"tensor quadrature limited to {GH_MAX_DIM} Gaussian dimensions, got {dim}"
        )
    x, w = hermegauss(order)
    w = w / np.sqrt(2.0 * np.pi)
    if dim == 0:
        wts, pts = np.ones(1), np.zeros((1, 0))
    else:
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        wts = np.ones(len(pts))
        for axis in range(dim):
            wts = wts * w[np.unravel_index(np.arange(len(pts)), (order,) * dim)[axis]]
    wts.flags.writeable = False
    pts.flags.writeable = False
    return wts, pts


# ----------------------------------------------------------------------
# Conditional measures built from order parameters.
# ----------------------------------------------------------------------

@dataclass
class CondGaussianYGivenXi:
    """Per-token law of the centered label channel given the Gaussian core.

    Given class tuple c, row ell of Y has mean theta^T q^{-1/2} xi_ell and
    covariance rho - theta^T q^+ theta (clipped PSD).
    """

    mean_maps: list[np.ndarray]     # per token, t x r
    sqrt_schur: list[np.ndarray]    # per token, root of the t x t PSD covariance

    @staticmethod
    def build(
        params: OrderParameters, fixed: FixedStatistics, c: tuple
    ) -> "CondGaussianYGivenXi":
        mean_maps, roots = [], []
        for key in enumerate(c):
            q = params.q[key]
            theta = params.theta[key]
            if np.max(np.abs(theta)) == 0.0:
                # theta = 0: the xi-dependence vanishes and Y ~ N(0, rho)
                mean_maps.append(np.zeros((theta.shape[1], theta.shape[0])))
            else:
                # theta must lie in the range of q for q^{-1/2} to make sense
                residual = theta - q @ sym_pinv(q) @ theta
                if np.max(np.abs(residual)) > 1e-8 * (1.0 + np.max(np.abs(theta))):
                    raise DegenerateOverlapError(
                        "singular q with teacher overlap outside its range"
                    )
                mean_maps.append(theta.T @ sym_pinv_sqrt(q))
            roots.append(sym_sqrt(schur_complement(params, fixed, key)))
        return CondGaussianYGivenXi(mean_maps, roots)


def schur_complement(params: OrderParameters, fixed: FixedStatistics, key) -> np.ndarray:
    """rho - theta^T q^+ theta clipped PSD (rho itself when theta = 0): the
    label covariance left once the student channel is known."""
    theta = params.theta[key]
    rho = fixed.rho[key]
    if np.max(np.abs(theta)) == 0.0:
        return psd_clip(rho)
    return psd_clip(rho - theta.T @ sym_pinv(params.q[key]) @ theta)


@dataclass
class JointXYStats:
    """Per-token joint normal of (x_ell, y_ell) used for the test error."""

    means: list[np.ndarray]         # per token, (r + t,)
    factors: list[np.ndarray]       # per token, (r + t) x (r + t) PSD roots

    @staticmethod
    def build(
        params: OrderParameters, fixed: FixedStatistics, c: tuple
    ) -> "JointXYStats":
        means, factors = [], []
        for ell, k in enumerate(c):
            q = params.q[(ell, k)]
            theta = params.theta[(ell, k)]
            rho = fixed.rho[(ell, k)]
            r, t = theta.shape
            cov = np.zeros((r + t, r + t))
            cov[:r, :r] = q
            cov[:r, r:] = theta
            cov[r:, :r] = theta.T
            cov[r:, r:] = rho
            cov = psd_clip(cov)
            means.append(np.concatenate([params.m[(ell, k)], fixed.m_star[(ell, k)]]))
            factors.append(sym_sqrt(cov))
        return JointXYStats(means, factors)


# ----------------------------------------------------------------------
# Node generation for the energetic measure: (weights, Xi, Zeta, Y).
# Zeta is the standard core of the label channel: Y = mean_map xi + S^{1/2} zeta.
# ----------------------------------------------------------------------

def energetic_nodes(
    params: OrderParameters,
    fixed: FixedStatistics,
    c: tuple,
    plan: McPlan,
    iteration: int = 0,
    c_index: int = 0,
    with_y: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights and (Xi, Zeta, Y) states for one class tuple.

    Shapes: weights (S,), Xi (S, L, r), Zeta (S, L, t), Y (S, L, t); Y is the
    centered label channel (teacher means not added).
    """
    L = len(c)
    r = params.v.shape[0]
    t = fixed.m_star[(0, c[0])].shape[0]
    cond = CondGaussianYGivenXi.build(params, fixed, c)

    if plan.gh_order > 0:
        dim = L * r + (L * t if with_y else 0)
        wts, pts = gauss_hermite_nodes(dim, plan.gh_order)
        S = len(wts)
        Xi = pts[:, : L * r].reshape(S, L, r)
        if with_y:
            Zeta = pts[:, L * r :].reshape(S, L, t)
        else:
            Zeta = np.zeros((S, L, t))
    else:
        S = plan.n_samples
        wts = np.full(S, 1.0 / S)
        Xi = standard_normals(plan, c_index, iteration, (L, r))
        if with_y:
            Zeta = standard_normals(plan, c_index + 1_000_003, iteration, (L, t))
        else:
            Zeta = np.zeros((S, L, t))

    Y = np.empty((S, L, t))
    for ell in range(L):
        Y[:, ell, :] = Xi[:, ell, :] @ cond.mean_maps[ell].T
        if with_y:
            Y[:, ell, :] += Zeta[:, ell, :] @ cond.sqrt_schur[ell].T
    return wts, Xi, Zeta, Y


def joint_xy_nodes(
    params: OrderParameters,
    fixed: FixedStatistics,
    c: tuple,
    plan: McPlan,
    iteration: int = 0,
    c_index: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, X, Y) nodes of the joint law, honoring the plan's method."""
    joint = JointXYStats.build(params, fixed, c)
    L = len(c)
    r = params.v.shape[0]
    t = joint.means[0].shape[0] - r
    if plan.gh_order > 0:
        wts, pts = gauss_hermite_nodes(L * (r + t), plan.gh_order)
        S = len(pts)
        Z = pts.reshape(S, L, r + t)
    else:
        Z = standard_normals(plan, c_index + 7_000_009, iteration, (L, r + t))
        S = plan.n_samples
        wts = np.full(S, 1.0 / S)
    X = np.empty((S, L, r))
    Y = np.empty((S, L, t))
    for ell in range(L):
        zl = Z[:, ell, :] @ joint.factors[ell].T + joint.means[ell]
        X[:, ell, :] = zl[:, :r]
        Y[:, ell, :] = zl[:, r:]
    return wts, X, Y


# ----------------------------------------------------------------------
# Weighted reductions over nodes.
# ----------------------------------------------------------------------

def pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Pairwise tree reduction along axis 0, in a fixed order."""
    n = values.shape[0]
    if n == 1:
        return values[0]
    padded = values
    if n % 2 == 1:
        padded = np.concatenate([values, np.zeros_like(values[:1])], axis=0)
    return pairwise_sum(padded[0::2] + padded[1::2])


def _weighted_mean_stderr(
    wts: np.ndarray, vals: np.ndarray, antithetic: bool, quadrature: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and a standard-error estimate per output entry.

    Quadrature nodes carry no sampling error.  Under antithetic pairing the
    independent units are the pair averages.
    """
    mean = pairwise_sum(wts[:, None] * vals.reshape(len(wts), -1)).reshape(
        vals.shape[1:]
    )
    if quadrature:
        return mean, np.zeros_like(mean)
    units = vals.reshape(len(wts), -1)
    if antithetic:
        units = 0.5 * (units[0::2] + units[1::2])
    n = units.shape[0]
    if n < 2:
        return mean, np.full(mean.shape, np.inf)
    var = np.var(units, axis=0, ddof=1) / n
    return mean, np.sqrt(var).reshape(vals.shape[1:])
