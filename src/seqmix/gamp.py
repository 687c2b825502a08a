"""Finite-dimensional message passing on concrete datasets.

Implements the directed-message algorithm (rBP) and its single-index
simplification with Onsager memory terms (GAMP), plus the dataset generator
that realizes a discrete spectral measure at finite d and the empirical
risk gradient used to verify that message-passing fixed points are critical
points of gradient descent.

Cost model.  Every data contraction is a BLAS matmul over operands fixed for
the run.  GAMP builds the squared design XX[n, p, i] = X[n, l, i] X[n, k, i]
over the token pairs p = (l, k), l <= k, once: n L (L + 1) / 2 d floats held
for the run, the size of X when L = 1.  Each iteration is then four matrix
products against it and X (the noise blocks V, the Onsager blocks A, the
projections omega and the back-projection b) plus batched L r x L r algebra
per sample and r x r algebra per coordinate.  rBP uses the same squared
design for its target-excluded blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SingularSystemError, SolverDivergenceError, SpecValidationError
from .model import LossModel, ModelSpec, SpectralMeasure
from .prox import prox_batch, prox_gain

MESSAGE_SLOT_GUARD = 10_000_000


# ----------------------------------------------------------------------
# Dataset generation.
# ----------------------------------------------------------------------

@dataclass
class GeneratorMetadata:
    """Population quantities the dataset was drawn from.

    Eigenbasis is canonical; eigenvalues[(ell, k)] is the d-vector of
    covariance diagonals, means[(ell, k)] the unit-scale mean vector
    (entries tau_i / sqrt(d)), atom_of[i] the atom realized by coordinate i.
    """

    seed: int
    atom_of: np.ndarray
    eigenvalues: dict
    means: dict
    class_probs: tuple


@dataclass
class Dataset:
    X: np.ndarray          # (n, L, d)
    y: np.ndarray          # (n, L, t), y = x w* / sqrt(d)
    c: np.ndarray          # (n, L) cluster indices
    teacher: np.ndarray    # (d, t)
    meta: GeneratorMetadata

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[2]

    @property
    def L(self) -> int:
        return self.X.shape[1]


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
        eigenvalues[key] = np.array([nu.atoms[a].gamma[key] for a in atom_of])
        means[key] = np.array([nu.atoms[a].tau[key] for a in atom_of]) / np.sqrt(d)
    teacher = np.stack([nu.atoms[a].pi for a in atom_of])  # (d, t)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    c = spec.class_law.sample(rng, n)
    X = np.empty((n, dims.L, d))
    for ell in range(dims.L):
        z = rng.standard_normal((n, d))
        for k in range(dims.K[ell]):
            rows = (c[:, ell] == k)[:, None]
            key = (ell, k)
            np.multiply(z, np.sqrt(eigenvalues[key]), out=z, where=rows)
            np.add(z, means[key], out=z, where=rows)
        X[:, ell, :] = z
    y = np.einsum("nld,dt->nlt", X, teacher) / np.sqrt(d)
    meta = GeneratorMetadata(
        seed=seed,
        atom_of=atom_of,
        eigenvalues=eigenvalues,
        means=means,
        class_probs=spec.class_law.probs,
    )
    return Dataset(X=X, y=y, c=c, teacher=teacher, meta=meta)


def empirical_statistics(w_hat: np.ndarray, data: Dataset) -> dict:
    """Summary statistics of a weight matrix against the declared population.

    q[(ell,k)] = w^T Sigma w / d, m[(ell,k)] = mu^T w / sqrt(d),
    theta[(ell,k)] = w^T Sigma w* / d, v = w^T w / d.
    """
    d = data.d
    out = {"q": {}, "m": {}, "theta": {}}
    for key, gam in data.meta.eigenvalues.items():
        wg = w_hat * gam[:, None]
        out["q"][key] = wg.T @ w_hat / d
        out["theta"][key] = wg.T @ data.teacher / d
        out["m"][key] = data.meta.means[key] @ w_hat
    out["v"] = w_hat.T @ w_hat / d
    return out


def population_v_blocks(c_hat: np.ndarray, data: Dataset) -> dict:
    """V[(ell,k)] = (1/d) sum_i Sigma_ii c_hat_i, the noise-variance statistic."""
    out = {}
    for key, gam in data.meta.eigenvalues.items():
        out[key] = np.einsum("i,iab->ab", gam, c_hat) / data.d
    return out


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


def _squared_design(X: np.ndarray) -> np.ndarray:
    """XX[n, p, i] = X[n, l, i] X[n, k, i] over the pairs (l, k) of triu_indices(L)."""
    n, L, d = X.shape
    ls, ks = np.triu_indices(L)
    XX = np.empty((n, len(ls), d))
    for p, (ell, k) in enumerate(zip(ls, ks)):
        np.multiply(X[:, ell], X[:, k], out=XX[:, p])
    return XX


def _unfold_pairs(blocks: np.ndarray, L: int) -> np.ndarray:
    """(..., P, r, r) pair blocks -> (..., Lr, Lr), block (l, k) = block (k, l)."""
    r = blocks.shape[-1]
    lead = blocks.shape[:-3]
    ls, ks = np.triu_indices(L)
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
    blocks = g.reshape(g.shape[:-2] + (L, r, L, r)).swapaxes(-3, -2)
    ls, ks = np.triu_indices(L)
    out = blocks[..., ls, ks, :, :]
    off = ls != ks
    out[..., off, :, :] += blocks[..., ks[off], ls[off], :, :]
    return out


def _noise_blocks(XX: np.ndarray, c_hat: np.ndarray, L: int) -> np.ndarray:
    """V[n] = sum_i x_{n,i} x_{n,i}^T (x) c_hat[i] / d as (n, Lr, Lr)."""
    n, P, d = XX.shape
    r = c_hat.shape[-1]
    pairs = XX.reshape(n * P, d) @ c_hat.reshape(d, r * r)
    return _unfold_pairs(pairs.reshape(n, P, r, r) / d, L)


def _onsager_blocks(XX: np.ndarray, g: np.ndarray, L: int) -> np.ndarray:
    """A[i] = -sum_n sum_{l,k} X[n, l, i] X[n, k, i] g[n, l, k] / d as (d, r, r)."""
    n, P, d = XX.shape
    r = g.shape[-1] // L
    pairs = _fold_pairs(g, L).reshape(n * P, r * r)
    return -(XX.reshape(n * P, d).T @ pairs).reshape(d, r, r) / d


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


def _inverse(M: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} is singular") from exc


def _check_finite(w: np.ndarray, residual: float, trajectory: list) -> None:
    if not np.all(np.isfinite(w)):
        raise SolverDivergenceError(residual, trajectory)


def _residual(w_new: np.ndarray, w_old: np.ndarray) -> float:
    return float(
        np.max(np.linalg.norm(w_new - w_old, axis=1))
        / (1.0 + np.max(np.abs(w_old), initial=0.0))
    )


# ----------------------------------------------------------------------
# GAMP.
# ----------------------------------------------------------------------

@dataclass
class GampState:
    w_hat: np.ndarray                 # (d, r)
    c_hat: np.ndarray                 # (d, r, r)
    f: np.ndarray                     # (n, L, r)
    V: Optional[np.ndarray] = None    # (n, Lr, Lr)
    omega: Optional[np.ndarray] = None
    Gamma: Optional[np.ndarray] = None
    A: Optional[np.ndarray] = None    # (d, r, r)
    C: Optional[np.ndarray] = None    # (r, r)
    b: Optional[np.ndarray] = None    # (d, r)
    iteration: int = 0


@dataclass
class GampResult:
    state: GampState
    w_hat: np.ndarray
    trajectory: list
    converged: bool
    residual_history: list = field(default_factory=list)


def gamp_run(
    data: Dataset,
    spec: ModelSpec,
    loss: Optional[LossModel] = None,
    max_iters: int = 200,
    tol: float = 1e-8,
    damping: float = 0.3,
    onsager_omega: bool = True,
    onsager_b: bool = True,
    record: bool = True,
) -> GampResult:
    """Run the single-index message-passing iteration to a fixed point.

    Records the empirical summary statistics (q, m, theta, v and the noise
    blocks V) after every weight update so the trajectory can be joined
    against the solver's time-indexed output.  Disabling either Onsager
    memory term is exposed for regression tests only.  Damping keeps a
    fraction of the previous estimate and halves its step on residual
    increase; use damping = 0 for the raw iteration.  A singular system
    raises SingularSystemError and a non-finite estimate
    SolverDivergenceError.
    """
    loss = loss or spec.loss
    dims = spec.dims
    n, L, d = data.X.shape
    r = dims.r
    lam = dims.lam
    X = data.X
    XX = _squared_design(X)

    w_hat = np.zeros((d, r))
    c_hat = np.broadcast_to(np.eye(r), (d, r, r)).copy()
    f = np.zeros((n, L, r))
    eye_lr = np.eye(L * r)
    eye_r = np.eye(r)

    trajectory = []
    residual_history = []
    converged = False
    step = 1.0 - damping
    prev_residual = np.inf
    state = GampState(w_hat=w_hat, c_hat=c_hat, f=f)

    for t in range(max_iters):
        Gamma = w_hat.T @ w_hat / d
        if n == 0:
            V_full = np.zeros((0, L * r, L * r))
            omega = np.zeros((0, L, r))
            A = np.zeros((d, r, r))
            C = np.zeros((r, r))
            b = np.zeros((d, r))
        else:
            V_full = _noise_blocks(XX, c_hat, L)
            omega = _project(X, w_hat)
            if onsager_omega:
                omega = omega - (V_full @ f.reshape(n, L * r, 1)).reshape(n, L, r)

            precisions = _inverse(V_full, "a GAMP noise block V")
            z = prox_batch(loss, omega, precisions, data.y, Gamma, data.c)
            resid = (z - omega).reshape(n, L * r, 1)
            f = (precisions @ resid).reshape(n, L, r)

            J = prox_gain(loss, data.y, z, precisions, Gamma, data.c)
            A = _onsager_blocks(XX, precisions @ (J - eye_lr), L)

            C = np.zeros((r, r))
            if loss.depends_on_v:
                C = 2.0 * np.sum(loss.d3(data.y, z, Gamma, data.c), axis=0) / d

            b = _backproject(X, f)
            if onsager_b:
                b = b + (A @ w_hat[..., None])[..., 0]

        c_hat = _inverse(lam * eye_r + C + A, "the GAMP weight system M")
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
        _check_finite(w_hat, residual, trajectory)

        state = GampState(
            w_hat=w_hat, c_hat=c_hat, f=f, V=V_full, omega=omega, Gamma=Gamma,
            A=A, C=C, b=b, iteration=t + 1,
        )
        if record:
            stats = empirical_statistics(w_hat, data)
            stats["V"] = population_v_blocks(c_hat, data)
            stats["iteration"] = t + 1
            trajectory.append(stats)
        if residual <= tol:
            converged = True
            break

    return GampResult(
        state=state,
        w_hat=w_hat,
        trajectory=trajectory,
        converged=converged,
        residual_history=residual_history,
    )


# ----------------------------------------------------------------------
# rBP (directed messages with target-node exclusion).
# ----------------------------------------------------------------------

def rbp_run(
    data: Dataset,
    spec: ModelSpec,
    loss: Optional[LossModel] = None,
    max_iters: int = 200,
    tol: float = 1e-8,
) -> tuple[np.ndarray, list]:
    """Full directed-message iteration; returns final marginal means.

    Exclusion sums are exact: the full sum is computed once and the single
    excluded term subtracted.  Memory is n * d message slots, guarded.  A
    singular system raises SingularSystemError and a non-finite marginal
    SolverDivergenceError.
    """
    loss = loss or spec.loss
    dims = spec.dims
    n, L, d = data.X.shape
    r = dims.r
    lam = dims.lam
    if n * d > MESSAGE_SLOT_GUARD:
        raise SpecValidationError(
            f"rBP message storage n*d = {n * d} exceeds guard {MESSAGE_SLOT_GUARD}"
        )
    X = data.X
    XX = _squared_design(X)
    Xt = X.transpose(0, 2, 1)                                # (n, d, L)
    sqd = np.sqrt(d)
    eye_r = np.eye(r)
    eye_lr = np.eye(L * r)

    # messages indexed [mu, i]: w/c flow i -> mu, f flows mu -> i
    w_msg = np.zeros((n, d, r))
    c_msg = np.broadcast_to(np.eye(r), (n, d, r, r)).copy()
    w_marg = np.zeros((d, r))
    trajectory = []

    for t in range(max_iters):
        V_mi = _excluded_noise_blocks(XX, c_msg, L)           # (n, d, Lr, Lr)
        omega_full = X @ w_msg / sqd                          # (n, L, r)
        omega_mi = omega_full[:, None] - Xt[..., None] * w_msg[:, :, None, :] / sqd

        Gamma_mean = (w_msg.transpose(0, 2, 1) @ w_msg).mean(axis=0) / d

        flat_omega = omega_mi.reshape(n * d, L, r)
        flat_prec = _inverse(V_mi.reshape(n * d, L * r, L * r), "an rBP noise block V")
        flat_y = np.repeat(data.y, d, axis=0)
        flat_c = np.repeat(data.c, d, axis=0)
        z = prox_batch(loss, flat_omega, flat_prec, flat_y, Gamma_mean, flat_c)
        resid = (z - flat_omega).reshape(n * d, L * r, 1)
        f_msg = (flat_prec @ resid).reshape(n, d, L, r)

        J = prox_gain(loss, flat_y, z, flat_prec, Gamma_mean, flat_c)
        g = (flat_prec @ (J - eye_lr)).reshape(n, d, L * r, L * r)

        eta = np.zeros((n, d, r, r))
        if loss.depends_on_v:
            eta = np.reshape(loss.d3(flat_y, z, Gamma_mean, flat_c), (n, d, r, r))

        contrib_A = _onsager_contributions(XX, g, L)
        A_all = contrib_A.sum(axis=0)                         # (d, r, r)
        A_msg = A_all[None, :] - contrib_A                    # exclude nu = mu

        contrib_C = 2.0 * eta / d
        C_all = contrib_C.sum(axis=0)
        C_msg = C_all[None, :] - contrib_C

        contrib_b = (Xt[:, :, None, :] @ f_msg)[:, :, 0, :] / sqd   # (n, d, r)
        b_all = contrib_b.sum(axis=0)
        b_msg = b_all[None, :] - contrib_b

        c_msg = _inverse(lam * eye_r + C_msg + A_msg, "an rBP weight system M")
        w_msg = (c_msg @ b_msg[..., None])[..., 0]

        c_marg = _inverse(lam * eye_r + C_all + A_all, "the rBP marginal system M")
        w_marg_new = (c_marg @ b_all[..., None])[..., 0]
        residual = _residual(w_marg_new, w_marg)
        w_marg = w_marg_new
        _check_finite(w_marg, residual, trajectory)
        stats = empirical_statistics(w_marg, data)
        stats["V"] = population_v_blocks(c_marg, data)
        stats["iteration"] = t + 1
        trajectory.append(stats)
        if residual <= tol:
            break

    return w_marg, trajectory


# ----------------------------------------------------------------------
# Empirical risk gradient (the GD bridge).
# ----------------------------------------------------------------------

def empirical_risk_and_grad(
    w: np.ndarray, data: Dataset, spec: ModelSpec, loss: Optional[LossModel] = None
) -> tuple[float, np.ndarray]:
    """R(w) and its exact gradient, including the weight-overlap channel.

    R(w) = sum_mu ell(y_mu, x_mu w / sqrt(d), w^T w / d, c_mu)
           + (lambda / 2) ||w||^2.
    """
    loss = loss or spec.loss
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


def gd_gradient_norm(
    w: np.ndarray, data: Dataset, spec: ModelSpec, loss: Optional[LossModel] = None
) -> float:
    """Max-abs entry of the empirical risk gradient at w."""
    _, grad = empirical_risk_and_grad(w, data, spec, loss)
    return float(np.max(np.abs(grad)))
