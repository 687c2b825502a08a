"""Finite-dimensional message passing on concrete datasets.

Implements the directed-message algorithm (rBP) and its single-index
simplification with Onsager memory terms (GAMP), plus the dataset generator
that realizes a discrete spectral measure at finite d and the empirical
risk gradient used to verify that message-passing fixed points are critical
points of gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SpecValidationError
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
            mask = c[:, ell] == k
            if not np.any(mask):
                continue
            key = (ell, k)
            X[mask, ell, :] = means[key] + z[mask] * np.sqrt(eigenvalues[key])
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
    increase; use damping = 0 for the raw iteration.
    """
    loss = loss or spec.loss
    dims = spec.dims
    n, L, d = data.X.shape
    r = dims.r
    lam = dims.lam
    X = data.X
    sqd = np.sqrt(d)

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
            V = np.einsum("nli,nki,iab->nlkab", X, X, c_hat) / d
            V_full = V.transpose(0, 1, 3, 2, 4).reshape(n, L * r, L * r)
            omega = np.einsum("nli,ia->nla", X, w_hat) / sqd
            if onsager_omega:
                omega = omega - np.einsum("nlkab,nkb->nla", V, f)

            precisions = np.linalg.inv(V_full)
            z = prox_batch(loss, omega, precisions, data.y, Gamma, data.c)
            resid = (z - omega).reshape(n, L * r)
            f = np.einsum("nij,nj->ni", precisions, resid).reshape(n, L, r)

            J = prox_gain(loss, data.y, z, precisions, Gamma, data.c)
            g = np.einsum("nij,njk->nik", precisions, J - eye_lr)
            g_blocks = g.reshape(n, L, r, L, r).transpose(0, 1, 3, 2, 4)
            A = -np.einsum("nli,nki,nlkab->iab", X, X, g_blocks) / d

            C = np.zeros((r, r))
            if loss.depends_on_v:
                C = 2.0 * np.sum(loss.d3(data.y, z, Gamma, data.c), axis=0) / d

            b = np.einsum("nli,nla->ia", X, f) / sqd
            if onsager_b:
                b = b + np.einsum("iab,ib->ia", A, w_hat)

        M = lam * eye_r + C + A
        w_new = np.linalg.solve(M, b[..., None])[..., 0]
        c_hat = np.linalg.inv(M)

        residual = float(
            np.max(np.linalg.norm(w_new - w_hat, axis=1))
            / (1.0 + np.max(np.abs(w_hat), initial=0.0))
        )
        residual_history.append(residual)
        if damping > 0.0:
            if residual > prev_residual:
                step = max(0.5 * step, 0.05)
            w_hat = step * w_new + (1.0 - step) * w_hat
        else:
            w_hat = w_new
        prev_residual = residual

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
    excluded term subtracted.  Memory is n * d message slots, guarded.
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
    sqd = np.sqrt(d)
    eye_r = np.eye(r)
    eye_lr = np.eye(L * r)

    # messages indexed [mu, i]: w/c flow i -> mu, f flows mu -> i
    w_msg = np.zeros((n, d, r))
    c_msg = np.broadcast_to(np.eye(r), (n, d, r, r)).copy()
    w_marg = np.zeros((d, r))
    trajectory = []

    for t in range(max_iters):
        T_full = np.einsum("nli,nki,niab->nlkab", X, X, c_msg) / d
        xxc = np.einsum("nli,nki,niab->nilkab", X, X, c_msg) / d
        V_mi = T_full[:, None] - xxc                      # (n, d, L, L, r, r)
        V_mi = V_mi.transpose(0, 1, 2, 4, 3, 5).reshape(n, d, L * r, L * r)

        omega_full = np.einsum("nli,nia->nla", X, w_msg) / sqd
        omega_mi = omega_full[:, None] - (
            X.transpose(0, 2, 1)[:, :, :, None] * w_msg[:, :, None, :]
        ) / sqd                                           # (n, d, L, r)

        Gamma_full = np.einsum("nia,nib->nab", w_msg, w_msg) / d
        Gamma_mean = Gamma_full.mean(axis=0)

        flat_omega = omega_mi.reshape(n * d, L, r)
        flat_prec = np.linalg.inv(V_mi.reshape(n * d, L * r, L * r))
        flat_y = np.repeat(data.y, d, axis=0)
        flat_c = np.repeat(data.c, d, axis=0)
        z = prox_batch(loss, flat_omega, flat_prec, flat_y, Gamma_mean, flat_c)
        resid = (z - flat_omega).reshape(n * d, L * r)
        f_msg = np.einsum("nij,nj->ni", flat_prec, resid).reshape(n, d, L, r)

        J = prox_gain(loss, flat_y, z, flat_prec, Gamma_mean, flat_c)
        g = np.einsum("nij,njk->nik", flat_prec, J - eye_lr)
        g_blocks = g.reshape(n, d, L, r, L, r).transpose(0, 1, 2, 4, 3, 5)

        eta = np.zeros((n, d, r, r))
        if loss.depends_on_v:
            eta = np.reshape(loss.d3(flat_y, z, Gamma_mean, flat_c), (n, d, r, r))

        contrib_A = -np.einsum("nli,nki,nilkab->niab", X, X, g_blocks) / d
        A_all = contrib_A.sum(axis=0)                     # (d, r, r)
        A_msg = A_all[None, :] - contrib_A                # exclude nu = mu

        contrib_C = 2.0 * eta / d
        C_all = contrib_C.sum(axis=0)
        C_msg = C_all[None, :] - contrib_C

        contrib_b = np.einsum("nli,nila->nia", X, f_msg) / sqd
        b_all = contrib_b.sum(axis=0)
        b_msg = b_all[None, :] - contrib_b

        M_msg = lam * eye_r + C_msg + A_msg
        w_msg = np.linalg.solve(M_msg, b_msg[..., None])[..., 0]
        c_msg = np.linalg.inv(M_msg)

        M_all = lam * eye_r + C_all + A_all
        w_marg_new = np.linalg.solve(M_all, b_all[..., None])[..., 0]
        residual = float(
            np.max(np.linalg.norm(w_marg_new - w_marg, axis=1))
            / (1.0 + np.max(np.abs(w_marg), initial=0.0))
        )
        w_marg = w_marg_new
        stats = empirical_statistics(w_marg, data)
        stats["V"] = population_v_blocks(np.linalg.inv(M_all), data)
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
    sqd = np.sqrt(d)
    Z = np.einsum("nld,dr->nlr", data.X, w) / sqd
    Gamma = w.T @ w / d
    total = float(np.sum(loss.eval(data.y, Z, Gamma, data.c)))
    G = loss.grad_X(data.y, Z, Gamma, data.c)
    grad = np.einsum("nld,nlr->dr", data.X, G) / sqd
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
