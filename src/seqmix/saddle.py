"""Fixed-point solver for the overlap self-consistency equations.

One sweep alternates two closed blocks.  The hat update evaluates Gaussian
expectations of prox displacements over each key's law, built once per
iterate by `gaussian.token_laws`:

    q_hat = alpha E[delta V^-1 D D^T V^-1]         D = prox - q^{1/2} xi - m
    m_hat = alpha E[delta V^-1 D]
    theta_hat = alpha E[delta V^-1 D zeta^T] S^{+1/2}
    V_hat = -alpha E[delta V^-1 (dprox/danchor - I)]
    v_hat = 2 alpha E[d3(Y, prox, v, c)]

(the V_hat form above is the anchor-sensitivity one; unlike the equivalent
Stein-lemma form theta_hat theta^T q^-1 - alpha E[V^-1 D xi^T q^{-1/2}], it
stays well-posed when q is singular, e.g. at cold starts).

The overlap update is a finite sum over spectral atoms with resolvent
R = (lambda I + v_hat + sum gamma V_hat)^-1, source S = sum(m_hat tau +
gamma theta_hat pi) and kernel K = S S^T + sum gamma q_hat:

    V = int gamma R,  q = int gamma R K R,  m = int tau R S,
    theta = int gamma R S pi^T,  v = int R K R.

The theta channel is whitened by S^{+1/2}, S = rho - theta^T q^+ theta
being the label covariance the nodes draw their labels from.  The envelope
takes its nodes through the same laws, and the test error is the loss's
closed form read off them.

The solve iterates the overlaps x through the map G(x) =
update_overlaps(update_hats(x)).  With damping in (0, 1) it takes
Anderson-mixed steps of size 1 - damping (`_AndersonMixer`), which reach the
fixed point in about a fifth of the sweeps of plain damped iteration.
An extrapolated iterate is accepted only when its laws can be built, and
the next sweep draws its nodes through those laws.  With damping 0 every
step is the plain one, `mix` of G(x) toward x.  Run undamped with time
indices recorded, the sweeps are the state-evolution dynamics of the
message-passing algorithm; run to self-consistency they characterize the
trained estimator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DegenerateOverlapError, InconsistentOverlapsError,
                     SingularSystemError, SpecValidationError)
from .gaussian import (
    constant_view,
    McPlan,
    NEG_EIG_TOL,
    energetic_nodes,
    pairwise_sum,
    token_laws,
    _sym,
    _weighted_mean_stderr,
)
from .model import (
    check_divergence,
    compute_fixed_statistics,
    ConjugateParameters,
    Dimensions,
    eigh,
    FixedStatistics,
    inverse,
    LossModel,
    ModelSpec,
    OrderParameters,
    RunRecord,
    SpectralAtom,
    SpectralMeasure,
)
from .prox import prox_batch, prox_gain

# Anderson mixing combines the last ANDERSON_DEPTH changes of the iterate,
# dropping the oldest while their least-squares system is conditioned worse
# than ANDERSON_COND_LIMIT.
ANDERSON_DEPTH = 5
ANDERSON_COND_LIMIT = 1e10


@dataclass
class SolverConfig:
    """Iteration schedule for the fixed-point solve.

    damping = 0 runs the undamped map x_new = G(x), sweep for sweep.  A
    damping in (0, 1) makes 1 - damping the step of the Anderson mixing of
    the overlaps, whose first step is x_new = (1 - damping) G(x) + damping
    x.  A warm_start, when given, is the first iterate and init is not
    consulted.  record_trajectory stores the overlaps after every sweep,
    which is the state-evolution reading of the sweeps (use damping = 0
    there so the map matches the algorithm's dynamics exactly).
    """

    damping: float = 0.5
    init: str = "cold"              # cold | gamp | informed
    warm_start: Optional[OrderParameters] = None
    tol: float = 1e-8
    max_iters: int = 500
    mc_plan: McPlan = field(default_factory=McPlan)
    record_trajectory: bool = False

    def violations(self) -> list[str]:
        out = self.mc_plan.violations()
        if not (0.0 <= self.damping < 1.0):
            out.append("SolverConfig: damping must lie in [0, 1)")
        if not 0.0 < self.tol < np.inf:
            out.append("SolverConfig: tol must be positive and finite")
        if self.max_iters < 1:
            out.append("SolverConfig: max_iters must be >= 1")
        if self.init not in ("cold", "gamp", "informed"):
            out.append(f"SolverConfig: unknown init {self.init!r}")
        return out


@dataclass
class FixedPointReport(RunRecord):
    """A solve's record (its residual is the largest raw per-block relative
    change of a sweep) and the exact one-sweep image of its last iterate.
    rejected_steps counts the Anderson steps a safeguard replaced by the
    plain damped step.  The test error is exact, so test_error_stderr is
    always 0.0."""

    params: OrderParameters
    conj: ConjugateParameters
    free_entropy: float
    free_entropy_stderr: float
    test_error: float
    test_error_stderr: float
    train_loss: float
    train_loss_stderr: float
    rejected_steps: int


# ----------------------------------------------------------------------
# Hat updates.
# ----------------------------------------------------------------------

@dataclass
class NodeBatch:
    """Energetic nodes of one class tuple and the prox minimizers at them.

    wts (S,), Xi (S, L, r), Zeta (S, L, t); anchors and x_stars (S, L, r);
    y_loss (S, L, t) is the label channel with teacher means added (a zero
    view for a loss that reads no labels); cs (S, L) is a read-only view
    repeating the class tuple c; P (S, Lr, Lr) is the read-only view
    repeating per node the block-diagonal prox precision P_full, whose
    blocks are V_{ell, c_ell}^-1.
    """

    c: tuple
    pc: float
    wts: np.ndarray
    Xi: np.ndarray
    Zeta: np.ndarray
    anchors: np.ndarray
    y_loss: np.ndarray
    cs: np.ndarray
    P: np.ndarray
    x_stars: np.ndarray

    @property
    def P_full(self) -> np.ndarray:
        return self.P[0]


def _node_batches(params: OrderParameters, laws: dict, spec: ModelSpec, plan: McPlan):
    """NodeBatch for every class tuple of positive probability, in law order,
    with nodes drawn through the keys' `gaussian.token_laws`."""
    r = spec.dims.r
    V_inv = {key: inverse(V, f"the overlap V{key}") for key, V in params.V.items()}
    for c_index, (c, pc) in enumerate(zip(spec.class_law.support, spec.class_law.probs)):
        if pc == 0.0:
            continue
        wts, Xi, Zeta, anchors, y_loss = energetic_nodes(
            laws, c, plan, c_index=c_index, with_y=spec.loss.depends_on_y,
        )
        P_full = np.zeros((len(c) * r, len(c) * r))
        for ell, k in enumerate(c):
            P_full[ell * r : (ell + 1) * r, ell * r : (ell + 1) * r] = V_inv[(ell, k)]
        cs = constant_view(c, (len(wts), len(c)))
        P = np.broadcast_to(P_full, (len(wts),) + P_full.shape)
        x_stars = prox_batch(spec.loss, anchors, P, y_loss, params.v, cs)
        yield NodeBatch(c, pc, wts, Xi, Zeta, anchors, y_loss, cs, P, x_stars)


def update_hats(
    params: OrderParameters, laws: dict, spec: ModelSpec, plan: McPlan
) -> ConjugateParameters:
    """One hat sweep: class-weighted Gaussian expectations of prox statistics,
    with nodes drawn through laws = `gaussian.token_laws(params, fixed)`.

    Each key's per-node statistics [VD, VD VD^T, VD zeta^T, J block, 1] are
    reduced by one pairwise sum.
    """
    dims = spec.dims
    loss = spec.loss
    alpha = dims.alpha
    r, t = dims.r, dims.t
    out = ConjugateParameters.zeros(dims)

    vhat_acc = np.zeros((r, r))
    eye_r = np.eye(r)
    # column ranges of the statistics, in the order of the stack below
    bounds = np.cumsum([0, r, r * r, r * t, r * r, 1]).tolist()
    columns = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    for nb in _node_batches(params, laws, spec, plan):
        c, pc, wts = nb.c, nb.pc, nb.wts
        S = len(wts)
        D = nb.x_stars - nb.anchors
        J = prox_gain(loss, nb.y_loss, nb.x_stars, nb.P, params.v, nb.cs)

        for ell in range(dims.L):
            key = (ell, c[ell])
            blk = slice(ell * r, (ell + 1) * r)
            Vinv = nb.P_full[blk, blk]
            VD = D[:, ell, :] @ Vinv.T
            zeta = nb.Zeta[:, ell, :]
            stats = np.hstack([VD, (VD[:, :, None] * VD[:, None, :]).reshape(S, -1),
                               (VD[:, :, None] * zeta[:, None, :]).reshape(S, -1),
                               J[:, blk, blk].reshape(S, -1), np.ones((S, 1))])
            sums = pairwise_sum(wts[:, None] * stats)
            m_hat, q_hat, theta_hat, avg_J, mass = (sums[cols] for cols in columns)
            out.m_hat[key] += pc * m_hat
            out.q_hat[key] += pc * q_hat.reshape(r, r)
            out.theta_hat[key] += pc * theta_hat.reshape(r, t)
            out.V_hat[key] += pc * (Vinv @ (avg_J.reshape(r, r) - mass[0] * eye_r))
        if loss.depends_on_v:
            d3 = np.asarray(loss.d3(nb.y_loss, nb.x_stars, params.v, nb.cs), dtype=float)
            # einsum factors a stride-0 operand out of its sum, which rounds
            # differently, so equal Monte Carlo weights are materialized here
            vhat_acc += pc * np.einsum("s,sij->ij", np.ascontiguousarray(wts), d3)

    # scale, whiten the theta channel by S^{+1/2}, symmetrize
    for key, law in laws.items():
        out.m_hat[key] = alpha * out.m_hat[key]
        out.q_hat[key] = _sym(alpha * out.q_hat[key])
        out.theta_hat[key] = alpha * out.theta_hat[key] @ law.S_pinv_root
        out.V_hat[key] = -alpha * out.V_hat[key]
    out.v_hat = _sym(2.0 * alpha * vhat_acc) if loss.depends_on_v else np.zeros_like(out.v_hat)
    return out


# ----------------------------------------------------------------------
# Overlap updates (spectral integrals).
# ----------------------------------------------------------------------

def spectral_kernels(
    conj: ConjugateParameters,
    nu: SpectralMeasure,
    dims: Dimensions,
    lam: float,
) -> list[tuple[SpectralAtom, np.ndarray, np.ndarray, np.ndarray]]:
    """(atom, resolvent R, source S, kernel K) at every atom of the measure."""
    out = []
    eye = np.eye(dims.r)
    for a_idx, atom in enumerate(nu.atoms):
        A = lam * eye + conj.v_hat.copy()
        for key in dims.lk_pairs():
            A = A + atom.gamma[key] * conj.V_hat[key]
        # a 1 x 1 system's singular value is |A|, as LAPACK's gesdd gives it;
        # a non-finite A is not tested: its NaN overlaps reach check_divergence
        if np.isfinite(A).all():
            smin = abs(A[0, 0]) if dims.r == 1 else np.linalg.svd(A, compute_uv=False)[-1]
            if smin < 1e-12:
                raise SingularSystemError(
                    f"resolvent singular at atom {a_idx} (min singular value {smin:.3e})")
        R = inverse(A, f"the resolvent at atom {a_idx}")
        S = np.zeros(dims.r)
        K = np.zeros((dims.r, dims.r))
        for key in dims.lk_pairs():
            S = S + conj.m_hat[key] * atom.tau[key] + atom.gamma[key] * (
                conj.theta_hat[key] @ atom.pi
            )
            K = K + atom.gamma[key] * conj.q_hat[key]
        K = K + np.outer(S, S)
        out.append((atom, R, S, K))
    return out


def update_overlaps(
    conj: ConjugateParameters, nu: SpectralMeasure, spec: ModelSpec
) -> OrderParameters:
    """One overlap sweep: finite atom sums against the resolvent kernels."""
    dims = spec.dims
    out = OrderParameters.zeros(dims)
    for atom, R, S, K in spectral_kernels(conj, nu, dims, dims.lam):
        RKR = R @ K @ R
        RS = R @ S
        out.v += atom.weight * RKR
        for key in dims.lk_pairs():
            g = atom.gamma[key]
            out.V[key] += atom.weight * g * R
            out.q[key] += atom.weight * g * RKR
            out.m[key] += atom.weight * atom.tau[key] * RS
            out.theta[key] += atom.weight * g * np.outer(RS, atom.pi)
    for key in dims.lk_pairs():
        out.q[key] = _sym(out.q[key])
        out.V[key] = _sym(out.V[key])
    out.v = _sym(out.v)
    return out


# ----------------------------------------------------------------------
# Scalar functionals of a (params, conj) pair.
# ----------------------------------------------------------------------

def expected_envelope(
    params: OrderParameters,
    fixed: FixedStatistics,
    spec: ModelSpec,
    plan: McPlan,
) -> tuple[float, float]:
    """E_{c,Y,Xi} of the Moreau envelope value at the current overlaps."""
    return _envelope(params, token_laws(params, fixed), spec, plan)


def _envelope(params: OrderParameters, laws: dict, spec: ModelSpec, plan: McPlan):
    """`expected_envelope` with the keys' laws built by the caller: sum_c p_c
    E_c[envelope] and its stderr."""
    total = 0.0
    var = 0.0
    for nb in _node_batches(params, laws, spec, plan):
        D = (nb.x_stars - nb.anchors).reshape(len(nb.wts), -1)
        quad = 0.5 * np.einsum("si,ij,sj->s", D, nb.P_full, D)
        vals = quad + spec.loss.eval(nb.y_loss, nb.x_stars, params.v, nb.cs)
        mean_c, se_c = _weighted_mean_stderr(nb.wts, vals[:, None], plan)
        total += nb.pc * float(mean_c[0])
        var += (nb.pc * float(se_c[0])) ** 2
    return total, float(np.sqrt(var))


def _trace_terms(params: OrderParameters, conj: ConjugateParameters) -> float:
    total = 0.0
    for key in params.q:
        total += 0.5 * float(
            np.trace(params.q[key] @ conj.V_hat[key].T)
            - np.trace(params.V[key] @ conj.q_hat[key].T)
        )
        total -= float(np.trace(params.theta[key] @ conj.theta_hat[key].T))
        total -= float(conj.m_hat[key] @ params.m[key])
    total += 0.5 * float(np.trace(params.v @ conj.v_hat))
    return total


def _energies(
    params: OrderParameters,
    conj: ConjugateParameters,
    laws: dict,
    nu: SpectralMeasure,
    spec: ModelSpec,
    plan: McPlan,
) -> tuple[float, float, float]:
    """(free entropy, training loss, stderr) at a fixed point, from one
    kernel build and one envelope expectation over the keys' laws.

    The free entropy is the extremized low-dimensional functional, and its
    negative is the training loss: per dimension, regularizer included.
    Both carry the envelope's stderr, scaled by alpha.
    """
    dims = spec.dims
    kernels = spectral_kernels(conj, nu, dims, dims.lam)
    em, se = _envelope(params, laws, spec, plan)
    spectral = 0.5 * sum(atom.weight * float(np.trace(R @ K)) for atom, R, _, K in kernels)
    phi = _trace_terms(params, conj) + spectral - dims.alpha * em
    ridge_term = 0.5 * dims.lam * sum(
        atom.weight * float(np.trace(R @ R @ K)) for atom, R, _, K in kernels
    )
    hat_term = 0.5 * sum(
        float(np.trace(conj.q_hat[key] @ params.V[key])) for key in params.q
    )
    return phi, ridge_term + dims.alpha * em - hat_term, dims.alpha * se


def test_error(
    params: OrderParameters,
    fixed: FixedStatistics,
    spec: ModelSpec,
    plan: Optional[McPlan] = None,
) -> tuple[float, float]:
    """Class-weighted expectation of the test metric over the joint (X, Y)
    law, and its stderr.

    Every loss states its metric's per-class expectation in closed form
    (`LossModel.test_mean`), so the value is exact, the stderr is 0.0 and
    no nodes are drawn.  plan is not read; it stays in the signature for
    the callers that pass one.
    """
    return _test_error(token_laws(params, fixed), spec), 0.0


def _test_error(laws: dict, spec: ModelSpec) -> float:
    """`test_error`'s value with the keys' laws built by the caller."""
    return float(sum(pc * spec.loss.test_mean(laws, c)
                     for c, pc in zip(spec.class_law.support, spec.class_law.probs) if pc != 0.0))


# ----------------------------------------------------------------------
# The fixed-point loop.
# ----------------------------------------------------------------------

def _block_residual(new, old, skip: tuple[str, ...] = ()) -> float:
    """Largest relative change over the blocks not skipped; NaN when any
    block's is (an overflowed norm), so check_divergence sees it."""
    ob = old.blocks()
    with np.errstate(over="ignore", invalid="ignore"):
        changes = [
            np.linalg.norm(arr - ob[name]) / (1.0 + np.linalg.norm(ob[name]))
            for name, arr in new.blocks().items()
            if name not in skip
        ]
    return float(np.max(changes, initial=0.0))


def _admissible(params: OrderParameters, fixed: FixedStatistics) -> Optional[dict]:
    """The keys' laws when a sweep can start from params, else None: V must
    be positive definite, v PSD, and `gaussian.token_laws` must accept
    every key (q and S = rho - theta^T q^+ theta PSD, theta in the range of
    q)."""
    if any(eigh(V, vectors=False)[0] <= 0.0 for V in params.V.values()):
        return None
    if eigh(params.v, vectors=False)[0] < -NEG_EIG_TOL:
        return None
    try:
        return token_laws(params, fixed)
    except (InconsistentOverlapsError, DegenerateOverlapError):
        return None


class _AndersonMixer:
    """Type-II Anderson mixing of the overlaps (D. G. Anderson, J. ACM 12,
    1965; Walker and Ni, SIAM J. Numer. Anal. 49, 2011).

    From the iterate x, its residual f = G(x) - x and the differences dX,
    dF of the last ANDERSON_DEPTH + 1 iterates and residuals, the step is
    x + beta f - (dX + beta dF) gamma, beta = 1 - damping, with gamma the
    least-squares solution of dF gamma = f.  With an empty history that is
    the plain damped step `mix`; with damping 0, the state-evolution
    dynamics, the history stays empty.  The oldest differences are dropped
    while dF is conditioned worse than ANDERSON_COND_LIMIT.  `step` returns
    the next iterate and, for an extrapolated one, the laws `_admissible`
    built for it (None for a plain step).  A degenerate last difference, or an
    extrapolated iterate without laws, takes the plain step and restarts
    the history from (x, f); `rejected` counts those steps.
    """

    def __init__(self, damping: float, fixed: FixedStatistics):
        self.damping = damping
        self.fixed = fixed
        self.xs: list[np.ndarray] = []
        self.fs: list[np.ndarray] = []
        self.rejected = 0

    def step(self, params: OrderParameters, image: OrderParameters) -> tuple:
        if self.damping == 0.0:
            return self._plain(params, image)
        x = params.flat()
        f = image.flat() - x
        self.xs = self.xs[-ANDERSON_DEPTH:] + [x]
        self.fs = self.fs[-ANDERSON_DEPTH:] + [f]
        if len(self.xs) == 1:
            return self._plain(params, image)
        if not np.all(np.isfinite(f)):
            # so is the plain step, and check_divergence stops the run on it
            return self._plain(params, image)
        dX = np.diff(self.xs, axis=0).T
        dF = np.diff(self.fs, axis=0).T
        U, sv, Wt = np.linalg.svd(dF, full_matrices=False)
        while not sv[0] < ANDERSON_COND_LIMIT * sv[-1]:
            if len(sv) == 1:
                return self._restart(params, image)
            self.xs, self.fs = self.xs[1:], self.fs[1:]
            dX, dF = dX[:, 1:], dF[:, 1:]
            U, sv, Wt = np.linalg.svd(dF, full_matrices=False)
        gamma = Wt.T @ ((U.T @ f) / sv)
        beta = 1.0 - self.damping
        mixed = params.from_flat(x + beta * f - (dX + beta * dF) @ gamma)
        laws = _admissible(mixed, self.fixed)
        if laws is None:
            return self._restart(params, image)
        return mixed, laws

    def _plain(self, params: OrderParameters, image: OrderParameters) -> tuple:
        return image.mix(params, self.damping), None

    def _restart(self, params: OrderParameters, image: OrderParameters) -> tuple:
        self.xs, self.fs = self.xs[-1:], self.fs[-1:]
        self.rejected += 1
        return self._plain(params, image)


def _initial_params(spec: ModelSpec, nu: SpectralMeasure, fixed, config: SolverConfig):
    if config.warm_start is not None:
        return config.warm_start.copy()
    if config.init == "cold":
        return OrderParameters.cold(spec.dims)
    if config.init == "gamp":
        return OrderParameters.gamp_matched(spec.dims, nu)
    return OrderParameters.informed(spec.dims, fixed)


def lambda_violations(loss: LossModel, lambdas) -> list[str]:
    """The regularizers of `lambdas` that the solver rejects for `loss`.

    The resolvent is lambda I + v_hat + sum gamma V_hat; at lambda = 0
    only a strongly convex loss keeps it away from singular.
    """
    if loss.strongly_convex or 0.0 not in lambdas:
        return []
    return [f"lambda = 0 with loss {loss.name!r}, which is not strongly convex; "
            "the spectral resolvent may be singular"]


def solve_fixed_point(
    spec: ModelSpec, nu: SpectralMeasure, config: SolverConfig
) -> FixedPointReport:
    """Iterate hat and overlap sweeps to self-consistency.

    Hats go first (overlaps come from the initialization) and are never
    damped.  Convergence is declared on the raw change of a sweep, relative
    per block: the hats against the previous sweep's (none at the first
    sweep, so a solve started at its fixed point stops there), and G(x)
    against x.  The
    reported pair is the exact one-sweep image of the converged iterate, so
    identities that hold at exact fixed points hold for the report up to
    floating point.
    """
    dims = spec.dims
    bad = dims.violations() + config.violations() + lambda_violations(spec.loss, (dims.lam,))
    if bad:
        raise SpecValidationError("; ".join(bad))
    if dims.lam == 0.0:
        warnings.warn(
            "lambda = 0: resolvent invertibility rests on the loss curvature",
            stacklevel=2,
        )
    fixed = compute_fixed_statistics(nu, dims)
    plan = config.mc_plan
    skip = () if spec.loss.depends_on_v else ("v", "v_hat")

    params = _initial_params(spec, nu, fixed, config)
    laws = token_laws(params, fixed)
    mixer = _AndersonMixer(config.damping, fixed)
    conj = None
    residual_history: list[float] = []
    trajectory = [] if config.record_trajectory else None
    converged = False

    for it in range(1, config.max_iters + 1):
        conj_prev, conj = conj, update_hats(params, laws, spec, plan)
        # the first sweep's hats have no predecessor to change from
        res_hat = 0.0 if conj_prev is None else _block_residual(conj, conj_prev, skip=skip)

        image = update_overlaps(conj, nu, spec)
        res_par = _block_residual(image, params, skip=skip)
        params, laws = mixer.step(params, image)

        residual = float(np.maximum(res_hat, res_par))
        residual_history.append(residual)
        if trajectory is not None:
            trajectory.append(params)
        check_divergence(it, residual, trajectory, params.flat(),
                         loop="fixed-point iteration", step="iteration", measure="residual")
        # an accepted Anderson step comes with its laws; any other iterate
        # gets them once check_divergence has seen it
        if laws is None:
            laws = token_laws(params, fixed)
        if residual <= config.tol:
            converged = True
            break

    # exact one-sweep image: hats from the converged overlaps, overlaps from
    # those hats, undamped; the envelope and the test error share its laws
    conj = update_hats(params, laws, spec, plan)
    params = update_overlaps(conj, nu, spec)
    laws = token_laws(params, fixed)

    phi, et, energy_se = _energies(params, conj, laws, nu, spec, plan)
    eg = _test_error(laws, spec)
    return FixedPointReport(
        params=params,
        conj=conj,
        residual_history=residual_history,
        converged=converged,
        free_entropy=phi,
        free_entropy_stderr=energy_se,
        test_error=eg,
        test_error_stderr=0.0,
        train_loss=et,
        train_loss_stderr=energy_se,
        trajectory=trajectory,
        rejected_steps=mixer.rejected,
    )
