"""Layer timings with pytest-benchmark.

Not part of the test suite (it sits outside `testpaths`); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

Each case times one layer on inputs built outside the timed call.
"""

import functools
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqmix
from seqmix import erm, gamp, gaussian, oracles, saddle, zoo
from seqmix.gaussian import McPlan
from seqmix.model import compute_fixed_statistics
from seqmix.prox import prox_gain
from seqmix.verify import GMM_LAM, RIDGE_LAM

SPECS = {
    "logistic_gmm": lambda d: zoo.gmm_instance(alpha=1.0, lam=GMM_LAM, d=d),
    "two_token": lambda d: zoo.two_token_instance(alpha=1.2, lam=RIDGE_LAM, d=d),
}


def test_cold_import(benchmark):
    """A fresh interpreter importing seqmix.cli, interpreter start included:
    the start-up every CLI command pays before its first computation."""
    src = str(Path(seqmix.__file__).resolve().parents[1])
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); import seqmix.cli"]
    done = benchmark(subprocess.run, cmd, check=True)
    assert done.returncode == 0


def _dataset(instance, d, seed=0):
    spec = SPECS[instance](d)
    n = int(round(spec.dims.alpha * d))
    return spec, gamp.generate_dataset(spec, spec.nu, d=d, n=n, seed=seed)


@pytest.mark.parametrize("instance", sorted(SPECS))
def test_gamp_iteration(benchmark, instance):
    """One GAMP iteration at d = 1000, squared-design build included."""
    spec, data = _dataset(instance, 1000)
    res = benchmark(gamp.gamp_run, data, spec, max_iters=1, damping=0.0)
    assert np.all(np.isfinite(res.w_hat))


def test_rbp_run(benchmark):
    """rBP to convergence on ridge at the rbp-vs-gamp size (d = 40, n = 80):
    n d target-excluded 1 x 1 blocks inverted and solved per iteration."""
    spec = zoo.ridge_instance(alpha=2.0, lam=RIDGE_LAM, d=40)
    data = gamp.generate_dataset(spec, spec.nu, d=40, n=80, seed=0)
    _, record = benchmark(gamp.rbp_run, data, spec, max_iters=500, tol=1e-11)
    assert record.converged


@pytest.mark.parametrize("instance", sorted(SPECS))
def test_squared_design(benchmark, instance):
    """GAMP's single-precision squared-design build alone at d = 1000, the
    once-per-run part of test_gamp_iteration."""
    _, data = _dataset(instance, 1000)
    XX = benchmark(gamp._squared_design, data.X, np.float32)
    n, L, d = data.X.shape
    assert XX.shape == (n, L * (L + 1) // 2, d)


VARIANCE_SIZES = {"logistic_gmm": 2000, "two_token": 1000}


@pytest.mark.parametrize("instance", sorted(VARIANCE_SIZES))
def test_variance_contractions(benchmark, instance):
    """GAMP's variance channel alone: the noise blocks V and the Onsager
    blocks A against its prebuilt single-precision squared design, at the
    gamp-sim sizes (logistic_gmm d = 2000, two_token d = 1000)."""
    spec, data = _dataset(instance, VARIANCE_SIZES[instance])
    n, L, d = data.X.shape
    r = spec.dims.r
    XX = gamp._squared_design(data.X, np.float32)
    rng = np.random.default_rng(1)
    c_hat = rng.standard_normal((d, r, r))
    g = rng.standard_normal((n, L * r, L * r))

    def channel():
        return gamp._noise_blocks(XX, c_hat, L), gamp._onsager_blocks(XX, g, L)

    V, A = benchmark(channel)
    assert V.shape == (n, L * r, L * r) and A.shape == (d, r, r)
    assert np.all(np.isfinite(V)) and np.all(np.isfinite(A))


def test_risk_and_gradient(benchmark):
    """One empirical risk and gradient evaluation at d = 500."""
    spec, data = _dataset("logistic_gmm", 500)
    w = np.random.default_rng(1).standard_normal((500, spec.dims.r))
    total, grad = benchmark(gamp.empirical_risk_and_grad, w, data, spec)
    assert np.isfinite(total) and np.all(np.isfinite(grad))


def test_empirical_test_error(benchmark):
    """The finite-d test error of a trained fit at d = 500, as the
    acceptance gate takes it for each fit: the fit's overlaps and the
    closed-form misclassification rate, with no test draws."""
    spec, data = _dataset("logistic_gmm", 500)
    fit = erm.erm_train(data, spec, config=erm.TrainConfig(grad_tol=1e-6))
    eg, se = benchmark(erm.empirical_test_error, fit.w_hat, data, spec, n_test=200_000)
    assert 0.0 < eg < 1.0 and se == 0.0


def test_holdout_nodes(benchmark):
    """The nodes of one class tuple of a sampled estimate of a pointwise
    test metric, the reference the tests check a closed form against, on
    logistic_gmm's law at its fixed point: 100,000 unpaired draws, key laws
    built outside."""
    spec, fixed, report = _logistic_fixed_point("gh51")
    laws = gaussian.token_laws(report.params, fixed)
    plan = McPlan(n_samples=100_000, seed=1, antithetic=False)
    wts, X, Y = benchmark(gaussian.joint_xy_nodes, laws, (0,), plan,
                          with_y=spec.loss.depends_on_y)
    assert X.shape == (100_000, 1, 1) and np.all(np.isfinite(X))


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_erm_fit(benchmark, alpha):
    """One ERM fit of logistic_gmm at d = 500 and the acceptance gate's
    training settings, at the two alphas of the erm-ref workload."""
    spec = zoo.gmm_instance(alpha=alpha, lam=GMM_LAM)
    data = gamp.generate_dataset(spec, spec.nu, d=500, n=int(round(alpha * 500)), seed=0)
    train = erm.TrainConfig(grad_tol=1e-6, max_epochs=6000)
    fit = benchmark(erm.erm_train, data, spec, config=train)
    assert fit.converged


def test_ridge_fit(benchmark):
    """One finite-d ridge fit at the erm-ref workload's d = 4000 (alpha = 1):
    the chi draws, the tridiagonal solve and the two errors."""
    eg, et = benchmark(oracles._one_ridge_fit, 1.0, RIDGE_LAM, 4000, 0)
    assert 0.0 < eg < 1.0 and et > 0.0


# Expectation plans of the sweep cases: the Gauss-Hermite order the sweep
# workloads use for logistic_gmm, the curve-mc Monte Carlo plan (1,000
# antithetic samples with common random numbers) and the README's default
# (20,000 of them).
SWEEP_PLANS = {"gh51": McPlan(gh_order=51), "mc1000": McPlan(n_samples=1000),
               "mc20000": McPlan(n_samples=20000)}


def _logistic_solve(plan_name):
    """logistic_gmm at alpha = 1 and the curve-mc solver settings."""
    spec = zoo.gmm_instance(alpha=1.0, lam=GMM_LAM)
    return spec, saddle.SolverConfig(damping=0.5, tol=1e-8, mc_plan=SWEEP_PLANS[plan_name])


@functools.lru_cache(maxsize=None)
def _logistic_fixed_point(plan_name):
    spec, config = _logistic_solve(plan_name)
    report = saddle.solve_fixed_point(spec, spec.nu, config)
    return spec, compute_fixed_statistics(spec.nu, spec.dims), report


@pytest.mark.parametrize("plan", sorted(SWEEP_PLANS))
def test_solve(benchmark, plan):
    """One full cold solve of logistic_gmm: the sweeps, the exact one-sweep
    image and the scalar functionals."""
    spec, config = _logistic_solve(plan)
    report = benchmark(saddle.solve_fixed_point, spec, spec.nu, config)
    assert report.converged


@pytest.mark.parametrize("plan", sorted(SWEEP_PLANS))
def test_hat_sweep(benchmark, plan):
    """One hat sweep on logistic_gmm at its fixed point, the build of its
    key laws included."""
    spec, fixed, report = _logistic_fixed_point(plan)

    def sweep():
        laws = gaussian.token_laws(report.params, fixed)
        return saddle.update_hats(report.params, laws, spec, SWEEP_PLANS[plan])

    conj = benchmark(sweep)
    assert all(np.all(np.isfinite(a)) for a in conj.blocks().values())


@pytest.mark.parametrize("plan", sorted(SWEEP_PLANS))
def test_overlap_sweep(benchmark, plan):
    """One overlap sweep on logistic_gmm from the hats of its fixed point."""
    spec, _, report = _logistic_fixed_point(plan)
    params = benchmark(saddle.update_overlaps, report.conj, spec.nu, spec)
    assert all(np.all(np.isfinite(a)) for a in params.blocks().values())


@pytest.mark.parametrize("plan", sorted(SWEEP_PLANS))
def test_node_generation(benchmark, plan):
    """Node generation on logistic_gmm at its fixed point: the key laws and
    the energetic nodes of both class tuples."""
    spec, fixed, report = _logistic_fixed_point(plan)

    def generate():
        laws = gaussian.token_laws(report.params, fixed)
        return [
            gaussian.energetic_nodes(laws, c, SWEEP_PLANS[plan], c_index=c_index,
                                     with_y=spec.loss.depends_on_y)
            for c_index, c in enumerate(spec.class_law.support)
        ]

    batches = benchmark(generate)
    assert all(np.all(np.isfinite(nodes[3])) for nodes in batches)


@pytest.mark.parametrize("plan", sorted(SWEEP_PLANS))
def test_batched_prox(benchmark, plan):
    """One batched prox and its gain over the first class tuple's nodes on
    logistic_gmm at its fixed point."""
    spec, fixed, report = _logistic_fixed_point(plan)
    params = report.params
    laws = gaussian.token_laws(params, fixed)
    nb = next(saddle._node_batches(params, laws, spec, SWEEP_PLANS[plan]))

    def prox():
        x_stars = spec.loss.prox(nb.anchors, nb.P, nb.y_loss, params.v, nb.cs)
        return x_stars, prox_gain(spec.loss, nb.y_loss, x_stars, nb.P, params.v, nb.cs)

    x_stars, gain = benchmark(prox)
    assert np.all(np.isfinite(x_stars)) and np.all(np.isfinite(gain))


FAULT_INSTANCES = {
    "ridge": lambda: zoo.ridge_instance(alpha=1.0, lam=RIDGE_LAM),
    "logistic_gmm": lambda: zoo.gmm_instance(alpha=1.0, lam=GMM_LAM),
    "two_token": lambda: zoo.two_token_instance(alpha=1.2, lam=RIDGE_LAM),
}


@functools.lru_cache(maxsize=None)
def _mc20000_fixed_point(instance):
    spec = FAULT_INSTANCES[instance]()
    config = saddle.SolverConfig(damping=0.5, tol=1e-8, mc_plan=SWEEP_PLANS["mc20000"])
    report = saddle.solve_fixed_point(spec, spec.nu, config)
    return spec, compute_fixed_statistics(spec.nu, spec.dims), report


@pytest.mark.parametrize("instance", sorted(FAULT_INSTANCES))
def test_hat_sweep_faults(benchmark, instance):
    """One README-default hat sweep (Monte Carlo, 20,000 samples) at the
    instance's fixed point, the build of its key laws included.  The minor
    page faults per sweep go to extra_info: the sweep's temporaries are
    mapped afresh when the allocator has returned their pages."""
    spec, fixed, report = _mc20000_fixed_point(instance)
    plan = SWEEP_PLANS["mc20000"]
    faults = [0, 0]

    def sweep():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        laws = gaussian.token_laws(report.params, fixed)
        conj = saddle.update_hats(report.params, laws, spec, plan)
        faults[0] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        faults[1] += 1
        return conj

    conj = benchmark(sweep)
    benchmark.extra_info["minor_faults_per_sweep"] = faults[0] / faults[1]
    assert all(np.all(np.isfinite(a)) for a in conj.blocks().values())
