"""Cross-verification harness.

Each check exercises one of the bridges the package is built around: the
solver against an independent ridge oracle and against finite-dimensional
fits, time-indexed solver sweeps against message-passing trajectories,
message-passing fixed points against the gradient of the empirical risk,
and the training-loss / free-entropy identity.  Tolerances are pinned here
and shared by the test suite and the `verify` command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .erm import empirical_test_error, erm_train, TrainConfig
from .gamp import gamp_run, gd_gradient_norm, generate_dataset, rbp_run
from .gaussian import McPlan, sym_roots, token_laws
from .model import compute_fixed_statistics, ModelSpec
from .oracles import finite_d_ridge, ridge_asymptotics
from .saddle import (
    FixedPointReport,
    solve_fixed_point,
    SolverConfig,
    test_error,
    update_hats,
    update_overlaps,
)
from .zoo import gmm_instance, ridge_instance, two_token_instance

# Pinned acceptance tolerances.
RIDGE_ORACLE_ATOL = 1e-4
RIDGE_EMP_SIGMA = 3.0
SE_GAMP_REL_DEV = 0.05
GD_FIXEDPOINT_SCALE = 1e-4
FREE_ENERGY_FACTOR = 2.0
ERM_SIGMA = 3.0
RBP_GAMP_RMS = 5.0
PROX_STATIONARITY = 1e-10
GRAD_FD_REL = 1e-5
SYM_SQRT_TOL = 1e-9
MOMENT_SIGMA = 3.0
LINEARITY_TOL = 1e-12
RESWEEP_SWEEPS = 8

RIDGE_ALPHAS = (0.5, 1.0, 2.0)
RIDGE_LAM = 0.1
GMM_ALPHAS = (0.5, 1.0, 2.0, 4.0)
GMM_LAM = 0.05


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.detail} [{self.elapsed:.1f}s]"


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.time()
        out = fn(*args, **kwargs)
        out.elapsed = time.time() - t0
        return out

    return wrapper


def _solve(spec: ModelSpec, gh_order: int = 7, tol: float = 1e-10) -> FixedPointReport:
    cfg = SolverConfig(damping=0.3, tol=tol, max_iters=2000, mc_plan=McPlan(gh_order=gh_order))
    return solve_fixed_point(spec, spec.nu, cfg)


# ----------------------------------------------------------------------
# Criterion 1: ridge oracle equivalence.
# ----------------------------------------------------------------------

@_timed
def check_ridge_oracle() -> CheckResult:
    worst_abs = 0.0
    worst_sig = 0.0
    details = []
    for alpha in RIDGE_ALPHAS:
        spec = ridge_instance(alpha=alpha, lam=RIDGE_LAM)
        rep = _solve(spec)
        oracle = ridge_asymptotics(alpha, RIDGE_LAM)
        diff = abs(rep.test_error - oracle.test_error)
        worst_abs = max(worst_abs, diff)
        eg_emp, eg_se, _, _ = finite_d_ridge(alpha, RIDGE_LAM, 4000, range(20))
        pooled = max(np.hypot(eg_se, rep.test_error_stderr), 1e-12)
        sig = abs(rep.test_error - eg_emp) / pooled
        worst_sig = max(worst_sig, sig)
        details.append(f"a={alpha}: |solver-oracle|={diff:.2e}, emp dev={sig:.2f} sigma")
    passed = worst_abs <= RIDGE_ORACLE_ATOL and worst_sig <= RIDGE_EMP_SIGMA
    details.append(f"tol {RIDGE_ORACLE_ATOL:.0e} abs / {RIDGE_EMP_SIGMA:.0f} sigma")
    return CheckResult("ridge-oracle", passed, "; ".join(details))


# ----------------------------------------------------------------------
# Criterion 2 / 7: time-indexed sweeps track the simulator statistics.
# ----------------------------------------------------------------------

def _trajectory_deviation(
    spec: ModelSpec, d: int, n_seeds: int, iters: int = 20,
    onsager_omega: bool = True, onsager_b: bool = True,
) -> float:
    """Max relative deviation of seed-averaged GAMP overlaps from the solver
    trajectory, over the q, m, theta and v blocks and the iterations."""
    cfg = SolverConfig(
        damping=0.0, tol=1e-15, max_iters=iters, init="gamp",
        mc_plan=McPlan(gh_order=7), record_trajectory=True,
    )
    rep = solve_fixed_point(spec, spec.nu, cfg)
    n = int(round(spec.dims.alpha * d))
    trajs = []
    for seed in range(n_seeds):
        data = generate_dataset(spec, spec.nu, d=d, n=n, seed=seed)
        res = gamp_run(
            data, spec, max_iters=iters, tol=1e-15, damping=0.0,
            onsager_omega=onsager_omega, onsager_b=onsager_b,
        )
        trajs.append(res.trajectory)
    worst = 0.0
    for t in range(iters):
        emp_blocks = [tr[t].blocks() for tr in trajs]
        for name, se_val in rep.trajectory[t].blocks().items():
            if name.startswith("V_"):
                # SE_GAMP_REL_DEV was pinned on q, m, theta and v only
                continue
            emp = np.mean([blocks[name] for blocks in emp_blocks], axis=0)
            dev = np.max(np.abs(emp - se_val)) / max(float(np.max(np.abs(se_val))), 1e-2)
            worst = max(worst, float(dev))
    return worst


@_timed
def check_se_tracks_gamp() -> CheckResult:
    spec = ridge_instance(alpha=1.0, lam=RIDGE_LAM)
    d = 1000
    seeds = 5
    dev = _trajectory_deviation(spec, d=d, n_seeds=seeds)
    return CheckResult(
        "se-tracks-gamp",
        dev <= SE_GAMP_REL_DEV,
        f"max rel deviation {dev:.4f} (tol {SE_GAMP_REL_DEV}) over iters 1-20, {seeds} seeds, d={d}",
    )


@_timed
def check_onsager_mutation() -> CheckResult:
    """Removing either memory term must visibly break the tracking."""
    spec = ridge_instance(alpha=1.0, lam=RIDGE_LAM)
    base = _trajectory_deviation(spec, d=500, n_seeds=2)
    broken_omega = _trajectory_deviation(spec, d=500, n_seeds=2, onsager_omega=False)
    broken_b = _trajectory_deviation(spec, d=500, n_seeds=2, onsager_b=False)
    grew = min(broken_omega, broken_b) > 5.0 * base
    return CheckResult(
        "onsager-mutation",
        grew,
        f"baseline {base:.4f}, no-omega-term {broken_omega:.4f}, no-b-term {broken_b:.4f}",
    )


# ----------------------------------------------------------------------
# Criterion 3: message-passing fixed points are GD critical points.
# ----------------------------------------------------------------------

@_timed
def check_gamp_gd_fixed_point() -> CheckResult:
    details = []
    ok = True
    for spec, name in (
        (ridge_instance(alpha=1.0, lam=RIDGE_LAM, d=500), "ridge"),
        (gmm_instance(alpha=1.0, lam=GMM_LAM, d=500), "logistic_gmm"),
    ):
        data = generate_dataset(spec, spec.nu, d=500, n=500, seed=11)
        res = gamp_run(data, spec, max_iters=2000, tol=1e-12, damping=0.0)
        bound = GD_FIXEDPOINT_SCALE * (
            1.0 + gd_gradient_norm(np.zeros((500, spec.dims.r)), data, spec)
        )
        gnorm = gd_gradient_norm(res.w_hat, data, spec)
        ok = ok and res.converged and gnorm <= bound
        details.append(f"{name}: grad {gnorm:.2e} vs bound {bound:.2e}")
    return CheckResult("gamp-gd-fixed-point", ok, "; ".join(details))


# ----------------------------------------------------------------------
# Criterion 4: training loss equals the negative free entropy.
# ----------------------------------------------------------------------

@_timed
def check_free_energy_identity() -> CheckResult:
    details = []
    ok = True
    tol = 1e-10
    for spec in (
        ridge_instance(alpha=1.0, lam=RIDGE_LAM),
        gmm_instance(alpha=1.0, lam=GMM_LAM),
        gmm_instance(alpha=1.0, lam=GMM_LAM, loss="square"),
        two_token_instance(alpha=1.2, lam=RIDGE_LAM),
    ):
        rep = _solve(spec, gh_order=7 if spec.dims.L > 1 else 31, tol=tol)
        pooled = rep.train_loss_stderr + rep.free_entropy_stderr
        bound = FREE_ENERGY_FACTOR * (tol + pooled)
        gap = abs(rep.train_loss + rep.free_entropy)
        ok = ok and rep.converged and gap <= bound
        details.append(f"{spec.name}: |et+phi|={gap:.2e} vs {bound:.2e}")
    return CheckResult("free-energy-identity", ok, "; ".join(details))


# ----------------------------------------------------------------------
# Criterion 5: solver predicts the trained-network test error.
# ----------------------------------------------------------------------

@_timed
def check_replica_predicts_erm() -> CheckResult:
    n_seeds = 10
    d = 500
    details = []
    ok = True
    for alpha in GMM_ALPHAS:
        spec = gmm_instance(alpha=alpha, lam=GMM_LAM)
        rep = _solve(spec, gh_order=51)
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        eg_th, se_th = test_error(
            rep.params, fixed, spec, McPlan(n_samples=400_000, seed=23)
        )
        egs = []
        n = int(round(alpha * d))
        for seed in range(n_seeds):
            data = generate_dataset(spec, spec.nu, d=d, n=n, seed=seed)
            fit = erm_train(
                data, spec, config=TrainConfig(grad_tol=1e-6, max_epochs=6000)
            )
            eg, _ = empirical_test_error(
                fit.w_hat, data, spec, n_test=200_000, seed=seed + 1000
            )
            egs.append(eg)
        egs = np.asarray(egs)
        se_emp = egs.std(ddof=1) / np.sqrt(n_seeds)
        pooled = max(np.hypot(se_th, se_emp), 1e-12)
        sig = abs(eg_th - egs.mean()) / pooled
        ok = ok and rep.converged and sig <= ERM_SIGMA
        details.append(f"a={alpha}: solver {eg_th:.4f}, erm {egs.mean():.4f}, dev {sig:.2f} sigma")
    return CheckResult("replica-predicts-erm", ok, "; ".join(details))


# ----------------------------------------------------------------------
# Criterion 6: directed messages agree with the single-index iteration.
# ----------------------------------------------------------------------

@_timed
def check_rbp_gamp_equivalence() -> CheckResult:
    d, n = 40, 80
    spec = ridge_instance(alpha=n / d, lam=RIDGE_LAM, d=d)
    data = generate_dataset(spec, spec.nu, d=d, n=n, seed=7)
    res = gamp_run(data, spec, max_iters=500, tol=1e-11, damping=0.0)
    w_bp, _ = rbp_run(data, spec, max_iters=500, tol=1e-11)
    rms = float(np.sqrt(np.mean((res.w_hat - w_bp) ** 2)))
    bound = RBP_GAMP_RMS / np.sqrt(d)
    return CheckResult(
        "rbp-gamp-equivalence", rms <= bound, f"coordinate RMS {rms:.4f} vs {bound:.4f}"
    )


# ----------------------------------------------------------------------
# Criterion 7: multi-token invariants.
# ----------------------------------------------------------------------

@_timed
def check_two_token() -> CheckResult:
    spec = two_token_instance(alpha=1.2, lam=RIDGE_LAM)
    tol = 1e-10
    rep = _solve(spec, gh_order=7, tol=tol)
    notes = []
    ok = rep.converged
    notes.append(f"converged in {rep.iterations}")

    # symmetry and positive semidefiniteness of the reported blocks
    asym = rep.params.max_asymmetry()
    ok = ok and asym <= 1e-10
    psd_ok = True
    for key in spec.dims.lk_pairs():
        psd_ok &= bool(np.linalg.eigvalsh(rep.params.q[key]).min() >= -1e-10)
        psd_ok &= bool(np.linalg.eigvalsh(rep.params.V[key]).min() > 0)
    ok = ok and psd_ok
    notes.append(f"asym {asym:.1e}, PSD {psd_ok}")

    # fixed-point residual under fresh random numbers: one full sweep with
    # Monte Carlo nodes moves parameters by at most tol + 3 * (MC noise
    # scale).  Per block b, the mean of RESWEEP_SWEEPS sweeps (seeds 101 k)
    # is held to that bound around x*_b, relative to 1 + |x*_b|; one sweep's
    # noise scale sd_b is the sweeps' spread about their mean, an estimate
    # with RESWEEP_SWEEPS - 1 degrees of freedom
    fixed = compute_fixed_statistics(spec.nu, spec.dims)
    laws = token_laws(rep.params, fixed)
    sweeps = [update_overlaps(update_hats(rep.params, laws, spec,
                                          McPlan(n_samples=20000, seed=101 * k)), spec.nu, spec)
              for k in range(1, RESWEEP_SWEEPS + 1)]
    worst = (0.0, "", 0.0, 0.0)  # move / bound, block, move, bound
    for name, x_star in rep.params.blocks().items():
        draws = np.stack([s.blocks()[name] for s in sweeps])
        mean = draws.mean(axis=0)
        sd = np.sqrt(np.sum((draws - mean) ** 2) / (RESWEEP_SWEEPS - 1))
        scale = 1.0 + np.linalg.norm(x_star)
        move, bound = np.linalg.norm(mean - x_star) / scale, tol + 3.0 * sd / scale
        worst = max(worst, (move / bound, name, move, bound))
    ok = ok and worst[0] <= 1.0
    notes.append(f"re-sweep move {worst[2]:.2e} vs bound {worst[3]:.2e} "
                 f"(block {worst[1]}, {RESWEEP_SWEEPS} sweeps)")

    gap = abs(rep.train_loss + rep.free_entropy)
    identity_ok = gap <= FREE_ENERGY_FACTOR * (tol + rep.train_loss_stderr + rep.free_entropy_stderr)
    ok = ok and identity_ok
    notes.append(f"|et+phi| {gap:.1e}")

    dev = _trajectory_deviation(spec, d=1000, n_seeds=5)
    ok = ok and dev <= SE_GAMP_REL_DEV
    notes.append(f"trajectory dev {dev:.4f}")
    return CheckResult("two-token-invariants", ok, "; ".join(notes))


# ----------------------------------------------------------------------
# Criterion 8: unit-level property sweep.
# ----------------------------------------------------------------------

@_timed
def check_unit_properties() -> CheckResult:
    from .losses import logistic_gmm_loss
    from .gaussian import energetic_nodes
    from .model import (
        check_loss_gradients,
        ConjugateParameters,
        OrderParameters,
        SpectralAtom,
        SpectralMeasure,
    )

    rng = np.random.default_rng(8)
    notes = []
    ok = True

    # stationarity of the shipped logistic prox on random problems
    worst_res = 0.0
    loss = logistic_gmm_loss()
    y, v = np.zeros((1, 1, 1)), np.zeros((1, 1))
    for _ in range(50):
        anchor = rng.standard_normal((1, 1, 1))
        prec = np.full((1, 1, 1), np.exp(rng.uniform(-1.5, 1.5)))
        cs = np.array([[int(rng.integers(2))]])
        X = loss.prox(anchor, prec, y, v, cs)
        res = np.linalg.norm(prec[0] @ (X - anchor)[0, 0] + loss.grad_X(y, X, v, cs)[0, 0])
        worst_res = max(worst_res, float(res) / (1.0 + abs(float(anchor[0, 0, 0]))))
    ok = ok and worst_res <= PROX_STATIONARITY
    notes.append(f"prox residual {worst_res:.1e}")

    # loss derivatives against finite differences
    bad = []
    for spec_g in (gmm_instance(), ridge_instance()):
        bad += check_loss_gradients(
            spec_g.loss, spec_g.dims, spec_g.class_law.support, rng,
            rel_tol=GRAD_FD_REL,
        )
    ok = ok and not bad
    notes.append(f"grad FD violations {len(bad)}")

    # symmetric square root round trip
    worst = 0.0
    for _ in range(20):
        M = rng.standard_normal((3, 3))
        A = M.T @ M
        B = sym_roots(A)[0]
        worst = max(worst, float(np.linalg.norm(B @ B - A) / np.linalg.norm(A)))
    ok = ok and worst <= SYM_SQRT_TOL
    notes.append(f"sqrt round-trip {worst:.1e}")

    # sampler moments at 3 sigma
    spec3 = ridge_instance()
    fixed3 = compute_fixed_statistics(spec3.nu, spec3.dims)
    params3 = OrderParameters.informed(spec3.dims, fixed3, eps=0.2)
    plan = McPlan(n_samples=200_000, seed=3, antithetic=False)
    _, Xi, _, _, Y = energetic_nodes(token_laws(params3, fixed3), (0,), plan)
    n_draws = Xi.shape[0]
    sig = abs(float(np.mean(Xi))) / (1.0 / np.sqrt(n_draws))
    prod = Xi[:, 0, 0] * Y[:, 0, 0]
    mean_map = float(params3.theta[(0, 0)][0, 0] / np.sqrt(params3.q[(0, 0)][0, 0]))
    sig_cov = abs(float(prod.mean()) - mean_map) / float(prod.std(ddof=1) / np.sqrt(n_draws))
    moments_ok = sig <= MOMENT_SIGMA and sig_cov <= MOMENT_SIGMA
    ok = ok and moments_ok
    notes.append(f"sampler moments {sig:.2f}, {sig_cov:.2f} sigma")

    # spectral-integral linearity over a two-atom measure
    spec4 = two_token_instance()
    conj = ConjugateParameters.zeros(spec4.dims)
    for key in spec4.dims.lk_pairs():
        conj.q_hat[key] = np.array([[rng.uniform(0.1, 1.0)]])
        conj.V_hat[key] = np.array([[rng.uniform(0.1, 1.0)]])
        conj.m_hat[key] = rng.standard_normal(1)
        conj.theta_hat[key] = rng.standard_normal((1, 1))
    atoms = spec4.nu.atoms
    nu_a = SpectralMeasure((SpectralAtom(1.0, atoms[0].gamma, atoms[0].tau, atoms[0].pi),))
    nu_b = SpectralMeasure((SpectralAtom(1.0, atoms[1].gamma, atoms[1].tau, atoms[1].pi),))
    mixed = update_overlaps(conj, spec4.nu, spec4)
    part_a = update_overlaps(conj, nu_a, spec4)
    part_b = update_overlaps(conj, nu_b, spec4)
    worst_lin = 0.0
    for key in spec4.dims.lk_pairs():
        worst_lin = max(
            worst_lin,
            float(np.max(np.abs(mixed.q[key] - 0.5 * part_a.q[key] - 0.5 * part_b.q[key]))),
        )
    ok = ok and worst_lin <= LINEARITY_TOL
    notes.append(f"linearity {worst_lin:.1e}")

    return CheckResult("unit-properties", ok, "; ".join(notes))


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------

CHECKS_BY_INSTANCE = {
    "ridge": ["ridge-oracle", "se-tracks-gamp", "gamp-gd-fixed-point",
              "free-energy-identity", "rbp-gamp-equivalence", "unit-properties"],
    "logistic_gmm": ["gamp-gd-fixed-point", "free-energy-identity",
                     "replica-predicts-erm", "unit-properties"],
    "two_token": ["two-token-invariants", "free-energy-identity", "unit-properties"],
}

ALL_CHECKS = {
    "ridge-oracle": check_ridge_oracle,
    "se-tracks-gamp": check_se_tracks_gamp,
    "gamp-gd-fixed-point": check_gamp_gd_fixed_point,
    "free-energy-identity": check_free_energy_identity,
    "replica-predicts-erm": check_replica_predicts_erm,
    "rbp-gamp-equivalence": check_rbp_gamp_equivalence,
    "two-token-invariants": check_two_token,
    "unit-properties": check_unit_properties,
    "onsager-mutation": check_onsager_mutation,
}

def run_checks(instance: str = "all") -> list[CheckResult]:
    """Run the acceptance checks for one zoo instance (or all of them)."""
    names = list(ALL_CHECKS) if instance == "all" else CHECKS_BY_INSTANCE[instance]
    results = []
    for name in names:
        result = ALL_CHECKS[name]()
        results.append(result)
        print(result.line())
    return results
