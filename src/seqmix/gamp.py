"""Finite-dimensional message passing on concrete datasets.

Implements the directed-message algorithm (rBP) and its single-index
simplification with Onsager memory terms (GAMP), plus the dataset generator
that realizes a discrete spectral measure at finite d and the empirical
risk gradient used to verify that message-passing fixed points are critical
points of gradient descent.  Both simulators record the empirical overlaps
of every iterate as `OrderParameters`, the type the solver records for its
sweeps, so the two trajectories compare and tabulate through one type.

Cost model.  Every data contraction is a BLAS matmul over operands fixed for
the run.  GAMP builds the squared design XX[n, p, i] = X[n, l, i] X[n, k, i]
over the token pairs p = (l, k), l <= k, once: n L (L + 1) / 2 d
single-precision floats held for the run, half of X's bytes when L = 1.
Each iteration is then four matrix products against it and X (the noise
blocks V, the Onsager blocks A, the projections omega and the
back-projection b) plus batched L r x L r algebra per sample and r x r
algebra per coordinate.  The two products against the squared design, V and
A, are float32 products on float32 operands returned as float64; they read
half the bytes of a float64 design, and everything else stays float64.  V
and A form GAMP's variance channel.  It steers the path, but it drops out at
a fixed point: lambda w = X^T f / sqrt(d) with f = -l'(X w / sqrt(d)) holds
whatever V and A are (Rangan, Schniter, Riegler, Fletcher and Cevher, IEEE
Trans. Inf. Theory 62(12), 2016), so single precision there leaves the fixed
point where float64 puts it.  rBP's cavity fixed point does depend on V, so
rBP builds a float64 squared design for its target-excluded blocks; its n d
blocks per iteration make it the loop that gains most from the closed forms
below.  The inverses of the blocks and the prox gain's solves go through
`model.inverse` / `model.solve`, which take 1 x 1 and 2 x 2 blocks (L r <= 2,
as in every zoo instance) in closed form instead of one LAPACK call per
block.  The token-pair indices are built once per L.

Range.  A squared entry beyond float32's largest value (3.4e38, an entry of
X beyond about 1.8e19, e.g. a spectral atom with gamma near 1e40) becomes
inf in GAMP's design, and the run stops with SolverDivergenceError at its
first iteration, before any product is taken.  Float64 GAMP does not converge
at such scales either (already not at gamma = 1e20).

Memory.  No design, and no scratch the size of one, passes through malloc's
heap (rBP's n d message arrays still do).  X and the squared designs live in anonymous maps of their own (`_mapped_empty`), and
the generator draws, scales and shifts each token one row block of
DRAW_BLOCK_BYTES at a time, in X itself when L = 1 and in one block buffer
copied into X otherwise.  Designs are tens of MB and short-lived.  From
malloc they come from the heap once glibc has raised its mmap threshold;
small allocations then split the holes they leave, and repeating the same
calls grows the heap, and the peak memory with it, by whole design matrices
at points that differ from process to process: a scratch of one token's
design, freed after each dataset, leaves a process that draws datasets
repeatedly one such matrix larger for good (9.6 MB for two_token at
d = 1000).  A map of its own is returned to the system when its array is
freed.

Stopping.  Both loops return a `RunRecord` (GAMP's `GampResult` extends
it) of the relative change of the estimate per iteration, converged once it
falls to tol.  Each iteration passes `model.check_divergence`, and a
singular system raises SingularSystemError.  Undamped rBP can grow without
bound where GAMP converges, when the model is not walk-summable (Malioutov,
Johnson and Willsky, JMLR 7, 2006); its relative change then stays bounded,
and it ends not converged at max_iters.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import SolverDivergenceError, SpecValidationError
from .model import (
    check_divergence,
    inverse,
    ModelSpec,
    OrderParameters,
    RunRecord,
    SpectralMeasure,
)
from .prox import prox_batch, prox_gain

MESSAGE_SLOT_GUARD = 10_000_000
# bytes of design the generator draws, scales and stores at a time
DRAW_BLOCK_BYTES = 1 << 20


# ----------------------------------------------------------------------
# Dataset generation.
# ----------------------------------------------------------------------

@dataclass
class GeneratorMetadata:
    """Population quantities the dataset was drawn from.

    Eigenbasis is canonical; eigenvalues[(ell, k)] is the d-vector of
    covariance diagonals and means[(ell, k)] the unit-scale mean vector
    (entries tau_i / sqrt(d)).
    """

    eigenvalues: dict
    means: dict


@dataclass
class Dataset:
    X: np.ndarray          # (n, L, d)
    y: np.ndarray          # (n, L, t), y = x w* / sqrt(d)
    c: np.ndarray          # (n, L) cluster indices
    teacher: np.ndarray    # (d, t)
    meta: GeneratorMetadata

    @property
    def d(self) -> int:
        return self.X.shape[2]


def _mapped_empty(shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized array of `dtype` in a private anonymous map of its
    own, unmapped when the array is freed (see the module docstring).  Every
    design, X and the squared designs, is allocated here, so a dataset with
    no samples, or a sample count that is not a positive integer, is
    rejected here."""
    if not all(isinstance(e, (int, np.integer)) and e >= 1 for e in shape):
        raise SpecValidationError(
            f"the dataset has no samples, or a sample count that is not a "
            f"positive integer (design shape {shape}); the per-seed commands "
            "draw n = round(alpha d) samples, which must be >= 1"
        )
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    block = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        # the 2 MB pages numpy asks for on its own large arrays; fresh 4 kB
        # pages fault several times slower
        block.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(block, dtype=dtype).reshape(shape)


def _atom_counts(weights: np.ndarray, d: int) -> np.ndarray:
    """Quantize atom weights to multiples of 1/d, remainder to the largest."""
    counts = np.floor(weights * d).astype(int)
    counts[counts == 0] = 1
    counts[np.argmax(weights)] += d - counts.sum()
    if counts.min() < 1 or counts.sum() != d:
        raise SpecValidationError("cannot realize the spectral measure at this d")
    return counts


def generate_dataset(
    spec: ModelSpec, nu: SpectralMeasure, d: int, n: int, seed: int
) -> Dataset:
    """Draw n sequence samples realizing the spectral measure atom-wise.

    The shared eigenbasis is the canonical basis: coordinate i carries the
    eigenvalues, sqrt(d)-scaled mean projections and teacher projections of
    its atom, so the population summary statistics of this instance match
    the measure exactly.

    Each token is drawn, scaled by its class's sqrt(eigenvalue) and shifted
    by its class's mean one row block at a time (module docstring, Memory),
    so no design-sized scratch is allocated.  Block fills in token-major,
    row order continue one normal stream, so the draws are those of one
    (n, d) fill per token, whatever the block size.
    """
    dims = spec.dims
    if d < len(nu.atoms):
        raise SpecValidationError(
            f"d = {d} is smaller than the number of atoms ({len(nu.atoms)})"
        )
    weights = np.array([a.weight for a in nu.atoms])
    counts = _atom_counts(weights, d)
    atom_of = np.repeat(np.arange(len(nu.atoms)), counts)

    eigenvalues = {}
    means = {}
    for key in dims.lk_pairs():
        eigenvalues[key] = np.array([a.gamma[key] for a in nu.atoms])[atom_of]
        means[key] = np.array([a.tau[key] for a in nu.atoms])[atom_of] / np.sqrt(d)
    teacher = np.stack([a.pi for a in nu.atoms])[atom_of]  # (d, t)

    # X first: allocation draws no numbers, and it rejects a bad n before
    # the class draw does
    X = _mapped_empty((n, dims.L, d))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    c = spec.class_law.sample(rng, n)
    step = max(1, DRAW_BLOCK_BYTES // (X.itemsize * d))
    block = X.reshape(n, d) if dims.L == 1 else np.empty((min(step, n), d))
    for ell in range(dims.L):
        scales = [np.sqrt(eigenvalues[(ell, k)]) for k in range(dims.K[ell])]
        for i0 in range(0, n, step):
            i1 = min(i0 + step, n)
            z = block[i0:i1] if dims.L == 1 else block[: i1 - i0]
            rng.standard_normal(out=z)
            for k, scale in enumerate(scales):
                rows = (c[i0:i1, ell] == k)[:, None]
                np.multiply(z, scale, out=z, where=rows)
                np.add(z, means[(ell, k)], out=z, where=rows)
            if dims.L > 1:
                X[i0:i1, ell, :] = z
    y = np.einsum("nld,dt->nlt", X, teacher) / np.sqrt(d)
    meta = GeneratorMetadata(eigenvalues=eigenvalues, means=means)
    return Dataset(X=X, y=y, c=c, teacher=teacher, meta=meta)


def empirical_statistics(w_hat: np.ndarray, c_hat: np.ndarray, data: Dataset) -> OrderParameters:
    """Overlaps of an estimate against the declared population.

    q[(ell,k)] = w^T Sigma w / d, m[(ell,k)] = mu^T w / sqrt(d),
    theta[(ell,k)] = w^T Sigma w* / d, v = w^T w / d, and the noise-variance
    statistic V[(ell,k)] = (1/d) sum_i Sigma_ii c_hat_i.  mu is the
    unit-scale mean (entries tau_i / sqrt(d)), so m, q and theta are the
    mean and covariance blocks of a cluster-(ell,k) token's projections
    x [w, w*] / sqrt(d): the overlaps on the solver's scale.  c_hat is
    (d, r, r) or broadcasts to it, e.g. 0 where no noise variance is kept.
    """
    d, r = w_hat.shape
    c_hat = np.broadcast_to(c_hat, (d, r, r))
    stats = OrderParameters(q={}, V={}, m={}, theta={}, v=w_hat.T @ w_hat / d)
    for key, gam in data.meta.eigenvalues.items():
        wg = w_hat * gam[:, None]
        stats.q[key] = wg.T @ w_hat / d
        stats.V[key] = np.einsum("i,iab->ab", gam, c_hat) / d
        stats.m[key] = data.meta.means[key] @ w_hat / np.sqrt(d)
        stats.theta[key] = wg.T @ data.teacher / d
    return stats


# ----------------------------------------------------------------------
# Data contractions shared by GAMP, rBP and the risk gradient.
# ----------------------------------------------------------------------

def _project(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """omega[n, l, a] = sum_i X[n, l, i] w[i, a] / sqrt(d), as one matmul."""
    n, L, d = X.shape
    return (X.reshape(n * L, d) @ w).reshape(n, L, w.shape[1]) / np.sqrt(d)


def _backproject(X: np.ndarray, f: np.ndarray) -> np.ndarray:
    """b[i, a] = sum_{n, l} X[n, l, i] f[n, l, a] / sqrt(d), as one matmul."""
    n, L, d = X.shape
    return X.reshape(n * L, d).T @ f.reshape(n * L, f.shape[2]) / np.sqrt(d)


@functools.lru_cache(maxsize=None)
def _token_pairs(L: int) -> tuple[np.ndarray, np.ndarray]:
    """The token pairs p = (l, k), l <= k, as the index arrays of
    triu_indices(L), built once per L and read-only."""
    ls, ks = np.triu_indices(L)
    ls.flags.writeable = ks.flags.writeable = False
    return ls, ks


def _squared_design(X: np.ndarray, dtype) -> np.ndarray:
    """XX[n, p, i] = X[n, l, i] X[n, k, i] over the token pairs (l, k),
    rounded to `dtype`: float32 for GAMP, float64 for rBP (module docstring)."""
    n, L, d = X.shape
    ls, ks = _token_pairs(L)
    XX = _mapped_empty((n, len(ls), d), dtype)
    for p, (ell, k) in enumerate(zip(ls, ks)):
        np.multiply(X[:, ell], X[:, k], out=XX[:, p])
    return XX


def _unfold_pairs(blocks: np.ndarray, L: int) -> np.ndarray:
    """(..., P, r, r) pair blocks -> (..., Lr, Lr), block (l, k) = block (k, l)."""
    r = blocks.shape[-1]
    lead = blocks.shape[:-3]
    if L == 1:
        return blocks.reshape(lead + (r, r))
    ls, ks = _token_pairs(L)
    full = np.empty(lead + (L, L, r, r))
    full[..., ls, ks, :, :] = blocks
    full[..., ks, ls, :, :] = blocks
    return full.swapaxes(-3, -2).reshape(lead + (L * r, L * r))


def _fold_pairs(g: np.ndarray, L: int) -> np.ndarray:
    """(..., Lr, Lr) -> (..., P, r, r) pair blocks g[l, k] + g[k, l] (l != k) and g[l, l].

    Contracting the result against the squared design equals contracting g
    against X[n, l, i] X[n, k, i] over every ordered token pair.
    """
    r = g.shape[-1] // L
    if L == 1:
        return g.reshape(g.shape[:-2] + (1, r, r))
    blocks = g.reshape(g.shape[:-2] + (L, r, L, r)).swapaxes(-3, -2)
    ls, ks = _token_pairs(L)
    out = blocks[..., ls, ks, :, :]
    off = ls != ks
    out[..., off, :, :] += blocks[..., ks[off], ls[off], :, :]
    return out


def _noise_blocks(XX: np.ndarray, c_hat: np.ndarray, L: int) -> np.ndarray:
    """V[n] = sum_i x_{n,i} x_{n,i}^T (x) c_hat[i] / d as float64 (n, Lr, Lr),
    the product taken in the design's precision."""
    n, P, d = XX.shape
    r = c_hat.shape[-1]
    pairs = XX.reshape(n * P, d) @ c_hat.reshape(d, r * r).astype(XX.dtype)
    return _unfold_pairs(pairs.astype(np.float64).reshape(n, P, r, r) / d, L)


def _onsager_blocks(XX: np.ndarray, g: np.ndarray, L: int) -> np.ndarray:
    """A[i] = -sum_n sum_{l,k} X[n, l, i] X[n, k, i] g[n, l, k] / d as float64
    (d, r, r), the product taken in the design's precision."""
    n, P, d = XX.shape
    r = g.shape[-1] // L
    pairs = _fold_pairs(g, L).reshape(n * P, r * r).astype(XX.dtype)
    return -(XX.reshape(n * P, d).T @ pairs).astype(np.float64).reshape(d, r, r) / d


def _excluded_noise_blocks(XX: np.ndarray, c_msg: np.ndarray, L: int) -> np.ndarray:
    """V[n, i] = sum_{j != i} x_{n,j} x_{n,j}^T (x) c_msg[n, j] / d as (n, d, Lr, Lr)."""
    n, P, d = XX.shape
    r = c_msg.shape[-1]
    c_flat = c_msg.reshape(n, d, r * r)
    total = XX @ c_flat                                        # (n, P, rr)
    own = XX.transpose(0, 2, 1)[..., None] * c_flat[:, :, None, :]
    return _unfold_pairs((total[:, None] - own).reshape(n, d, P, r, r) / d, L)


def _onsager_contributions(XX: np.ndarray, g: np.ndarray, L: int) -> np.ndarray:
    """-sum_{l,k} X[n, l, i] X[n, k, i] g[n, i, l, k] / d as (n, d, r, r)."""
    n, P, d = XX.shape
    r = g.shape[-1] // L
    pairs = _fold_pairs(g, L).reshape(n, d, P, r * r)
    return -(XX.transpose(0, 2, 1)[:, :, None, :] @ pairs).reshape(n, d, r, r) / d


def _residual(w_new: np.ndarray, w_old: np.ndarray) -> float:
    return float(
        np.max(np.linalg.norm(w_new - w_old, axis=1))
        / (1.0 + np.max(np.abs(w_old), initial=0.0))
    )


# ----------------------------------------------------------------------
# GAMP.
# ----------------------------------------------------------------------

def _output_channel(loss, omega, V, y, Gamma, c, what: str):
    """The proximal output channel (GAMP's g_out) of GAMP and rBP at anchors
    omega (m, L, r) with noise blocks V (m, Lr, Lr): with P = V^-1, z the
    prox minimizers and J their gain, f = P (z - omega) (m, L, r),
    g = P (J - I) (m, Lr, Lr), and d3 at z (m, r, r), None for a loss
    that does not read v.  `what` names V in a singular-system error."""
    m, L, r = omega.shape
    P = inverse(V, what)
    z = prox_batch(loss, omega, P, y, Gamma, c)
    f = (P @ (z - omega).reshape(m, L * r, 1)).reshape(m, L, r)
    g = P @ (prox_gain(loss, y, z, P, Gamma, c) - np.eye(L * r))
    return f, g, loss.d3(y, z, Gamma, c) if loss.depends_on_v else None


@dataclass
class GampResult(RunRecord):
    w_hat: np.ndarray                 # (d, r)
    c_hat: np.ndarray                 # (d, r, r), the last weight-system inverse


def gamp_run(
    data: Dataset,
    spec: ModelSpec,
    max_iters: int = 200,
    tol: float = 1e-8,
    damping: float = 0.3,
    onsager_omega: bool = True,
    onsager_b: bool = True,
) -> GampResult:
    """Run the single-index message-passing iteration to a fixed point.

    Records the empirical overlaps (`empirical_statistics`) after every
    weight update, so the trajectory lines up with the solver's recorded
    sweeps index for index.  Disabling either Onsager memory term is exposed
    for regression tests only.  Damping keeps a fraction of the previous
    estimate and halves its step on residual increase; use damping = 0 for
    the raw iteration.
    """
    loss = spec.loss
    dims = spec.dims
    n, L, d = data.X.shape
    r = dims.r
    lam = dims.lam
    X = data.X
    with np.errstate(over="ignore"):
        XX = _squared_design(X, np.float32)
    # |X[l] X[k]| overflows only where X[l]^2 or X[k]^2 does, so the largest
    # entry shows every overflow
    if not np.isfinite(XX.max()):
        raise SolverDivergenceError(float("nan"), [], 1, loop="GAMP", step="iteration",
                                    measure="relative change")

    w_hat = np.zeros((d, r))
    c_hat = np.broadcast_to(np.eye(r), (d, r, r)).copy()
    f = np.zeros((n, L, r))
    eye_r = np.eye(r)

    trajectory = []
    residual_history = []
    converged = False
    step = 1.0 - damping
    prev_residual = np.inf

    for _ in range(max_iters):
        Gamma = w_hat.T @ w_hat / d
        V_full = _noise_blocks(XX, c_hat, L)
        omega = _project(X, w_hat)
        if onsager_omega:
            omega = omega - (V_full @ f.reshape(n, L * r, 1)).reshape(n, L, r)

        f, g, eta = _output_channel(loss, omega, V_full, data.y, Gamma, data.c,
                                    "a GAMP noise block V")
        A = _onsager_blocks(XX, g, L)
        C = np.zeros((r, r)) if eta is None else 2.0 * np.sum(eta, axis=0) / d

        b = _backproject(X, f)
        if onsager_b:
            b = b + (A @ w_hat[..., None])[..., 0]

        c_hat = inverse(lam * eye_r + C + A, "the GAMP weight system M")
        w_new = (c_hat @ b[..., None])[..., 0]

        residual = _residual(w_new, w_hat)
        residual_history.append(residual)
        if damping > 0.0:
            if residual > prev_residual:
                step = max(0.5 * step, 0.05)
            w_hat = step * w_new + (1.0 - step) * w_hat
        else:
            w_hat = w_new
        prev_residual = residual
        check_divergence(len(residual_history), residual, trajectory, w_hat,
                         loop="GAMP", step="iteration", measure="relative change")

        trajectory.append(empirical_statistics(w_hat, c_hat, data))
        if residual <= tol:
            converged = True
            break

    return GampResult(w_hat=w_hat, c_hat=c_hat, converged=converged,
                      residual_history=residual_history, trajectory=trajectory)


# ----------------------------------------------------------------------
# rBP (directed messages with target-node exclusion).
# ----------------------------------------------------------------------

def rbp_run(
    data: Dataset,
    spec: ModelSpec,
    max_iters: int = 200,
    tol: float = 1e-8,
) -> tuple[np.ndarray, RunRecord]:
    """Full directed-message iteration; returns the final marginal means and
    the run's record, whose trajectory holds the empirical overlaps of the
    marginals after every iteration.

    Exclusion sums are exact: the full sum is computed once and the single
    excluded term subtracted.  Memory is n * d message slots, guarded.
    """
    loss = spec.loss
    dims = spec.dims
    n, L, d = data.X.shape
    r = dims.r
    lam = dims.lam
    if n * d > MESSAGE_SLOT_GUARD:
        raise SpecValidationError(
            f"rBP message storage n*d = {n * d} exceeds guard {MESSAGE_SLOT_GUARD}"
        )
    X = data.X
    XX = _squared_design(X, np.float64)
    Xt = X.transpose(0, 2, 1)                                # (n, d, L)
    sqd = np.sqrt(d)
    eye_r = np.eye(r)

    # messages indexed [mu, i]: w/c flow i -> mu, f flows mu -> i
    w_msg = np.zeros((n, d, r))
    c_msg = np.broadcast_to(np.eye(r), (n, d, r, r)).copy()
    w_marg = np.zeros((d, r))
    # the labels and classes of the n d messages, fixed for the run
    y_msg = np.repeat(data.y, d, axis=0)
    class_msg = np.repeat(data.c, d, axis=0)
    trajectory = []
    residual_history = []
    converged = False

    for _ in range(max_iters):
        V_mi = _excluded_noise_blocks(XX, c_msg, L)           # (n, d, Lr, Lr)
        omega_full = X @ w_msg / sqd                          # (n, L, r)
        omega_mi = omega_full[:, None] - Xt[..., None] * w_msg[:, :, None, :] / sqd

        Gamma_mean = (w_msg.transpose(0, 2, 1) @ w_msg).mean(axis=0) / d

        f, g, eta = _output_channel(
            loss, omega_mi.reshape(n * d, L, r), V_mi.reshape(n * d, L * r, L * r),
            y_msg, Gamma_mean, class_msg,
            "an rBP noise block V",
        )
        f_msg = f.reshape(n, d, L, r)
        g = g.reshape(n, d, L * r, L * r)
        eta = np.zeros((n, d, r, r)) if eta is None else np.reshape(eta, (n, d, r, r))

        contrib_A = _onsager_contributions(XX, g, L)
        A_all = contrib_A.sum(axis=0)                         # (d, r, r)
        A_msg = A_all[None, :] - contrib_A                    # exclude nu = mu

        contrib_C = 2.0 * eta / d
        C_all = contrib_C.sum(axis=0)
        C_msg = C_all[None, :] - contrib_C

        contrib_b = (Xt[:, :, None, :] @ f_msg)[:, :, 0, :] / sqd   # (n, d, r)
        b_all = contrib_b.sum(axis=0)
        b_msg = b_all[None, :] - contrib_b

        c_msg = inverse(lam * eye_r + C_msg + A_msg, "an rBP weight system M")
        w_msg = (c_msg @ b_msg[..., None])[..., 0]

        c_marg = inverse(lam * eye_r + C_all + A_all, "the rBP marginal system M")
        w_marg_new = (c_marg @ b_all[..., None])[..., 0]
        residual = _residual(w_marg_new, w_marg)
        residual_history.append(residual)
        w_marg = w_marg_new
        check_divergence(len(residual_history), residual, trajectory, w_marg,
                         loop="rBP", step="iteration", measure="relative change")
        trajectory.append(empirical_statistics(w_marg, c_marg, data))
        if residual <= tol:
            converged = True
            break

    return w_marg, RunRecord(
        converged=converged, residual_history=residual_history, trajectory=trajectory
    )


# ----------------------------------------------------------------------
# Empirical risk gradient (the GD bridge).
# ----------------------------------------------------------------------

def empirical_risk_and_grad(
    w: np.ndarray, data: Dataset, spec: ModelSpec
) -> tuple[float, np.ndarray]:
    """R(w) and its exact gradient, including the weight-overlap channel.

    R(w) = sum_mu ell(y_mu, x_mu w / sqrt(d), w^T w / d, c_mu)
           + (lambda / 2) ||w||^2.
    """
    loss = spec.loss
    d = data.d
    lam = spec.dims.lam
    Z = _project(data.X, w)
    Gamma = w.T @ w / d
    total = float(np.sum(loss.eval(data.y, Z, Gamma, data.c)))
    G = loss.grad_X(data.y, Z, Gamma, data.c)
    grad = _backproject(data.X, G)
    if loss.depends_on_v:
        D3 = np.sum(loss.d3(data.y, Z, Gamma, data.c), axis=0)
        grad = grad + w @ (D3 + D3.T) / d
    total += 0.5 * lam * float(np.sum(w * w))
    grad = grad + lam * w
    return total, grad


def gd_gradient_norm(w: np.ndarray, data: Dataset, spec: ModelSpec) -> float:
    """Max-abs entry of the empirical risk gradient at w."""
    _, grad = empirical_risk_and_grad(w, data, spec)
    return float(np.max(np.abs(grad)))
