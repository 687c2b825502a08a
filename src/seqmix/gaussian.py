"""Gaussian machinery: the law of a token's projections given its cluster,
the standard cores every expectation draws its nodes from, and the weighted
reductions the solver averages them with.

Given cluster k, token ell's projections onto student and teacher are
jointly normal with mean (m, m*) and covariance [[q, theta], [theta^T, rho]].
`token_laws` builds that law once per (token, cluster) key as the
triangular factor X = m + q^{1/2} xi, Y = m* + theta^T q^{+1/2} xi +
S^{1/2} zeta of standard normal cores (xi, zeta), S = rho - theta^T q^+ theta.

`standard_cores` draws the cores and holds the only choice between seeded
Monte Carlo (antithetic variates), a pure function of (seed, stream), and
tensor Gauss-Hermite quadrature for small Gaussian dimension.  Class tuple
c_index draws xi from stream c_index and zeta from c_index + ZETA_STREAM.
Monte Carlo nodes are common random numbers: the energetic cores (every
stream below TEST_STREAM) are drawn once per (plan, stream, shape) and
shared read-only by every solver sweep, the last CRN_CACHE_SIZE of them
kept.  For a loss that reads no labels (`LossModel.depends_on_y` False) no
zeta is drawn and no Y is built: its hooks receive a read-only zero label
channel, and the xi draws are unchanged.

The test error draws nothing: every shipped loss states its metric's
expectation in closed form from the laws (`LossModel.test_mean`).
`joint_xy_nodes` draws (X, Y) for a sampled estimate of a pointwise metric,
the reference a closed form is checked against, on streams shifted by
TEST_STREAM that are never kept.
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
from .model import eigh, FixedStatistics, OrderParameters

EIG_CLIP = 1e-12          # eigenvalues below this are treated as exactly zero
NEG_EIG_TOL = 1e-8        # more negative than this signals corrupted matrices
GH_MAX_DIM = 6            # tensor quadrature allowed up to this Gaussian dimension
ZETA_STREAM = 1_000_003   # offset of the zeta stream from the xi stream
TEST_STREAM = 7_000_009   # offset of joint_xy_nodes' streams from the energetic ones
CRN_CACHE_SIZE = 8        # energetic core arrays kept under common random numbers
VIEW_CACHE_SIZE = 32      # constant views kept (weights, zero labels, class tuples)


# ----------------------------------------------------------------------
# Symmetric eigen-based matrix functions.  Never Cholesky: overlap blocks
# can be singular early in solver iterations.
# ----------------------------------------------------------------------

def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def sym_roots(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{+1/2}, A^+) of a symmetric PSD A from one
    eigendecomposition.  Eigenvalues down to -NEG_EIG_TOL are clipped to
    zero, and the pseudo-inverses map zero eigenvalues to zero."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InconsistentOverlapsError(f"expected a square matrix, got shape {A.shape}")
    if np.abs(A - A.T).max() > 1e-10:
        raise InconsistentOverlapsError("matrix is not symmetric within tolerance")
    w, U = eigh(_sym(A))
    if w.min(initial=0.0) < -NEG_EIG_TOL:
        raise InconsistentOverlapsError(
            f"matrix has eigenvalue {w.min():.3e} below -{NEG_EIG_TOL:.0e}; "
            "order parameters are corrupted"
        )
    w = np.maximum(w, 0.0)
    live = w > EIG_CLIP
    spectra = (
        np.sqrt(w),
        np.where(live, 1.0 / np.sqrt(np.maximum(w, EIG_CLIP)), 0.0),
        np.where(live, 1.0 / np.maximum(w, EIG_CLIP), 0.0),
    )
    return tuple(_sym((U * f) @ U.T) for f in spectra)


# ----------------------------------------------------------------------
# Expectation plans and standard cores.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class McPlan:
    """How to evaluate Gaussian expectations.

    gh_order = 0 selects Monte Carlo with n_samples draws; gh_order > 0
    selects tensor Gauss-Hermite quadrature with that many nodes per
    Gaussian dimension (allowed while the total dimension is <= 6).
    Monte Carlo nodes are always common random numbers, the same normals at
    every solver sweep, so the fixed-point map is deterministic; crn is kept
    so that configs stating it load, and must be True.
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
        if not self.crn:
            out.append("McPlan: crn must be true; Monte Carlo nodes are always "
                       "common random numbers")
        return out


def standard_normals(plan: McPlan, c_index: int, shape: tuple[int, ...]) -> np.ndarray:
    """Seeded standard normals, shape (n_samples, *shape).

    With antithetic pairing, sample 2i+1 is the negation of sample 2i.
    """
    # the entropy's trailing 0 is part of every draw's seed: dropping it
    # would change them all
    rng = np.random.default_rng(np.random.SeedSequence([int(plan.seed), int(c_index), 0]))
    n = plan.n_samples
    if plan.antithetic:
        base = rng.standard_normal((n // 2, *shape))
        out = np.empty((n, *shape))
        out[0::2] = base
        out[1::2] = -base
        return out
    return rng.standard_normal((n, *shape))


@functools.lru_cache(maxsize=VIEW_CACHE_SIZE, typed=True)
def constant_view(value, shape: tuple[int, ...]) -> np.ndarray:
    """np.broadcast_to(value, shape), the read-only stride-0 view that
    repeats value (the Monte Carlo weights, the zero label channel, a class
    tuple per node), built once per (value, shape): every sweep asks for
    the same ones, and each holds only value itself."""
    return np.broadcast_to(value, shape)


@functools.lru_cache(maxsize=CRN_CACHE_SIZE)
def _crn_normals(plan: McPlan, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """standard_normals of an energetic stream, drawn once per (plan,
    stream, shape) and shared by every later call, so read-only."""
    out = standard_normals(plan, stream, shape)
    out.flags.writeable = False
    return out


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
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wts = np.ones(len(pts))
    for axis in range(dim):
        wts = wts * w[np.unravel_index(np.arange(len(pts)), (order,) * dim)[axis]]
    wts.flags.writeable = False
    pts.flags.writeable = False
    return wts, pts


def quadrature_dim(shape: tuple[int, int, int], with_zeta: bool) -> int:
    """Gaussian dimension of the cores for shape = (L, r, t): L r for Xi,
    plus L t for Zeta when it is drawn."""
    L, r, t = shape
    return L * r + (L * t if with_zeta else 0)


def standard_cores(
    plan: McPlan,
    shape: tuple[int, int, int],
    stream: int,
    with_zeta: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights and standard normal cores Xi (S, L, r) and Zeta (S, L, t),
    for shape = (L, r, t).

    With gh_order > 0 the cores are the tensor Gauss-Hermite nodes over
    L r (+ L t) dimensions, Xi's first; otherwise n_samples seeded draws, Xi
    from `stream` and Zeta from stream + ZETA_STREAM, with equal weights.
    Draws on an energetic stream (below TEST_STREAM) are common random
    numbers: made once per (plan, stream, shape) and returned read-only to
    every later call, for the last CRN_CACHE_SIZE keys.  The streams of
    `joint_xy_nodes` are drawn afresh on each call and never kept.  Without
    with_zeta, Zeta is not drawn: it is a read-only zero view that spans no
    quadrature dimension.  The weights are read-only too.
    """
    L, r, t = shape
    if plan.gh_order > 0:
        wts, pts = gauss_hermite_nodes(quadrature_dim(shape, with_zeta), plan.gh_order)
        S = len(wts)
        Xi = pts[:, : L * r].reshape(S, L, r)
        if with_zeta:
            return wts, Xi, pts[:, L * r :].reshape(S, L, t)
    else:
        S = plan.n_samples
        wts = constant_view(1.0 / S, (S,))
        draw = _crn_normals if stream < TEST_STREAM else standard_normals
        Xi = draw(plan, stream, (L, r))
        if with_zeta:
            return wts, Xi, draw(plan, stream + ZETA_STREAM, (L, t))
    return wts, Xi, constant_view(0.0, (S, L, t))


# ----------------------------------------------------------------------
# The per-key law and the nodes drawn through it.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TokenLaw:
    """One (token, cluster) key's law as the triangular factor of its
    covariance: X = m + q_root xi and Y = m_star + mean_map xi + S_root zeta,
    with mean_map = theta^T q^{+1/2} (t x r) and S_root = S^{1/2}.
    S_pinv_root = S^{+1/2} whitens the label channel of theta_hat."""

    m: np.ndarray
    m_star: np.ndarray
    q_root: np.ndarray
    mean_map: np.ndarray
    S_root: np.ndarray
    S_pinv_root: np.ndarray


def token_laws(params: OrderParameters, fixed: FixedStatistics) -> dict:
    """The TokenLaw of every key, from one eigendecomposition of q and one
    of the Schur complement S = rho - theta^T q^+ theta.

    It also decides whether a sweep can start from params.  A q or an S
    with an eigenvalue below -NEG_EIG_TOL raises InconsistentOverlapsError.
    theta must lie in the range of q, as it does at every overlap sweep's
    output; a singular q with theta outside its range raises
    DegenerateOverlapError.
    """
    laws = {}
    for key, q in params.q.items():
        theta, rho = params.theta[key], fixed.rho[key]
        q_root, q_pinv_root, q_pinv = sym_roots(q)
        residual = theta - q @ q_pinv @ theta
        if np.abs(residual).max() > 1e-8 * (1.0 + np.abs(theta).max()):
            raise DegenerateOverlapError(f"singular q{key} with teacher overlap outside its range")
        S_root, S_pinv_root, _ = sym_roots(_sym(rho - theta.T @ q_pinv @ theta))
        laws[key] = TokenLaw(params.m[key], fixed.m_star[key], q_root,
                             theta.T @ q_pinv_root, S_root, S_pinv_root)
    return laws


def _through_laws(
    laws: dict, c: tuple, Xi: np.ndarray, Zeta: np.ndarray, with_y: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) nodes from the cores, token ell through the law of (ell, c_ell),
    each written straight into one (S, L, .) array.  Without with_y, Y is
    the zero label channel Zeta itself.

    (A @ xi^T)^T is bit for bit xi @ A^T, and cheaper for a tall xi.
    """
    X = np.empty(Xi.shape)
    Y = np.empty(Zeta.shape) if with_y else Zeta
    for ell, k in enumerate(c):
        law = laws[(ell, k)]
        xi = Xi[:, ell, :].T
        np.add((law.q_root @ xi).T, law.m, out=X[:, ell, :])
        if with_y:
            label = law.mean_map @ xi + law.S_root @ Zeta[:, ell, :].T
            np.add(label.T, law.m_star, out=Y[:, ell, :])
    return X, Y


def _core_shape(laws: dict, c: tuple) -> tuple[int, int, int]:
    t, r = laws[(0, c[0])].mean_map.shape
    return len(c), r, t


def energetic_nodes(
    laws: dict,
    c: tuple,
    plan: McPlan,
    c_index: int = 0,
    with_y: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights, cores and (X, Y) nodes of class tuple c for the hat sweep and
    the envelope.

    Shapes: weights (S,), Xi and X (S, L, r), Zeta and Y (S, L, t).  X holds
    the student projections (the prox anchors) and Y the labels, teacher
    means included.  Without with_y, for a loss that does not read Y, no
    label noise zeta is drawn and Zeta and Y are one read-only zero view.
    """
    wts, Xi, Zeta = standard_cores(plan, _core_shape(laws, c), c_index, with_y)
    return (wts, Xi, Zeta, *_through_laws(laws, c, Xi, Zeta, with_y))


def joint_xy_nodes(
    laws: dict, c: tuple, plan: McPlan, c_index: int = 0, with_y: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, X, Y) nodes of class tuple c for a sampled estimate of a
    pointwise test metric, the reference a closed-form test error is checked
    against: the energetic nodes' law on streams of its own.  Without with_y,
    for a metric that does not read Y, no zeta is drawn and Y is a
    read-only zero view; X's draws are the same either way."""
    wts, Xi, Zeta = standard_cores(plan, _core_shape(laws, c), c_index + TEST_STREAM,
                                   with_zeta=with_y)
    return (wts, *_through_laws(laws, c, Xi, Zeta, with_y))


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
    wts: np.ndarray, vals: np.ndarray, plan: McPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and a standard-error estimate per output entry.

    Quadrature nodes carry no sampling error.  Under antithetic pairing the
    independent units are the pair averages.
    """
    mean = pairwise_sum(wts[:, None] * vals.reshape(len(wts), -1)).reshape(
        vals.shape[1:]
    )
    if plan.gh_order > 0:
        return mean, np.zeros_like(mean)
    units = vals.reshape(len(wts), -1)
    if plan.antithetic:
        units = 0.5 * (units[0::2] + units[1::2])
    n = units.shape[0]
    if n < 2:
        return mean, np.full(mean.shape, np.inf)
    var = np.var(units, axis=0, ddof=1) / n
    return mean, np.sqrt(var).reshape(vals.shape[1:])
