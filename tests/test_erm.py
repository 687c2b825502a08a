"""ERM baseline: L-BFGS training, test error, summary statistics."""

import warnings

import numpy as np
import pytest

from seqmix import erm, gaussian, losses, saddle
from seqmix.erm import empirical_test_error, erm_train, TrainConfig
from seqmix.errors import SolverDivergenceError, SpecValidationError
from seqmix.gamp import empirical_statistics, generate_dataset
from seqmix.gaussian import McPlan
from seqmix.model import compute_fixed_statistics, ModelSpec
from seqmix.zoo import gmm_instance, ridge_instance, two_token_instance


# The pointwise metric each closed form is the expectation of.
POINTWISE = {losses.misclassification_mean: losses.misclassification,
             losses.squared_error_mean: losses.squared_error}


def dense_test_error(w_hat, data, spec, n_test, seed):
    """Reference estimator of the loss's pointwise metric: draws every test
    token in full, n_test x d normals per token, and projects onto the
    weights and the teacher."""
    dims = spec.dims
    d = data.d
    sqd = np.sqrt(d)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E57]))
    c = spec.class_law.sample(rng, n_test)
    Z = np.empty((n_test, dims.L, dims.r))
    Y = np.empty((n_test, dims.L, dims.t))
    for ell in range(dims.L):
        for k in range(dims.K[ell]):
            mask = c[:, ell] == k
            if not np.any(mask):
                continue
            key = (ell, k)
            gam = data.meta.eigenvalues[key]
            mu = data.meta.means[key]
            g = rng.standard_normal((int(mask.sum()), d))
            x = mu + g * np.sqrt(gam)
            Z[mask, ell, :] = x @ w_hat / sqd
            Y[mask, ell, :] = x @ data.teacher / sqd
    v = w_hat.T @ w_hat / d
    vals = np.asarray(POINTWISE[spec.loss.test_mean](Y, Z, v, c), dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_test))


class TestErmTrain:
    def test_matches_ridge_normal_equations(self, monkeypatch):
        evals = [0]
        risk = erm.empirical_risk_and_grad

        def counted(*args):
            evals[0] += 1
            return risk(*args)

        monkeypatch.setattr(erm, "empirical_risk_and_grad", counted)
        spec = ridge_instance(alpha=1.5, lam=0.2)
        d, n = 60, 90
        # without the roundoff clause of the step test, a fit at its
        # minimizer to working precision rejects every useful step: on
        # seed 2 it ran all 20,000 epochs and stopped unconverged
        for seed in (0, 2):
            evals[0] = 0
            data = generate_dataset(spec, spec.nu, d=d, n=n, seed=seed)
            fit = erm_train(data, spec, config=TrainConfig(grad_tol=1e-10, max_epochs=20000))
            X = data.X[:, 0, :]
            w_exact = np.linalg.solve(
                X.T @ X / d + 0.2 * np.eye(d), X.T @ data.y[:, 0, 0] / np.sqrt(d)
            )
            np.testing.assert_allclose(fit.w_hat[:, 0], w_exact, atol=1e-8)
            assert fit.converged and evals[0] <= 200

    def test_huge_regularizer_kills_weights(self):
        spec = ridge_instance(alpha=1.0, lam=1e6)
        data = generate_dataset(spec, spec.nu, d=40, n=40, seed=1)
        fit = erm_train(data, spec, config=TrainConfig(grad_tol=1e-9))
        assert float(np.max(np.abs(fit.w_hat))) < 1e-3

    def test_monotone_objective(self):
        spec = gmm_instance(alpha=1.2, lam=0.05)
        data = generate_dataset(spec, spec.nu, d=80, n=96, seed=2)
        fit = erm_train(data, spec, config=TrainConfig(grad_tol=1e-6))
        diffs = np.diff(np.asarray(fit.objective_history))
        assert np.all(diffs <= 1e-12)

    def test_gradient_at_solution_small(self):
        spec = gmm_instance(alpha=1.0, lam=0.05)
        data = generate_dataset(spec, spec.nu, d=60, n=60, seed=4)
        fit = erm_train(data, spec, config=TrainConfig(grad_tol=1e-8))
        assert fit.grad_norm <= 1e-8 and fit.converged

    def test_max_epochs_reports_not_converged(self):
        spec = ridge_instance(alpha=1.0, lam=0.1)
        data = generate_dataset(spec, spec.nu, d=60, n=60, seed=0)
        fit = erm_train(data, spec, config=TrainConfig(grad_tol=1e-6, max_epochs=1))
        assert fit.iterations == 1 and fit.grad_norm > 1e-6
        assert not fit.converged

    def test_config_violation_is_validation_error(self):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=10, n=10, seed=0)
        with pytest.raises(SpecValidationError, match="grad_tol"):
            erm_train(data, spec, config=TrainConfig(grad_tol=-1.0))

    def test_unbounded_objective_raises_divergence(self):
        # a negative energy coupling makes the risk unbounded below; the
        # fit used to run all 3,000 epochs with numpy overflow warnings to
        # |w| = 3.8e153 and return converged = False
        base = ridge_instance(alpha=1.0, lam=0.05)
        spec = ModelSpec(base.dims, base.class_law, base.nu, losses.square_loss_with_energy(-0.5))
        data = generate_dataset(spec, spec.nu, d=100, n=100, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverDivergenceError) as info:
                erm_train(data, spec, config=TrainConfig(grad_tol=1e-8, max_epochs=3000))
        assert info.value.iteration < 100
        assert str(info.value).startswith(
            f"ERM diverged at epoch {info.value.iteration} (gradient sup-norm ")

    def test_inconsistent_gradient_stalls(self):
        from seqmix.errors import StalledError
        from seqmix.losses import zero_loss
        from seqmix.model import ModelSpec

        # flat objective with a fake nonzero gradient: no step ever passes
        # the decrease test, which must surface as a stall, not a hang
        liar = zero_loss()
        liar.grad_X = lambda Y, X, v, c: np.ones_like(X)
        spec = gmm_instance(lam=0.0)
        bad = ModelSpec(spec.dims, spec.class_law, spec.nu, liar)
        data = generate_dataset(bad, bad.nu, d=20, n=20, seed=5)
        with pytest.raises(StalledError):
            erm_train(data, bad, config=TrainConfig(grad_tol=1e-12))


class TestEmpiricalTestError:
    def test_teacher_weights_zero_error(self):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=64, n=16, seed=5)
        eg, se = empirical_test_error(data.teacher, data, spec)
        assert eg == pytest.approx(0.0, abs=1e-20)

    def test_zero_weights_label_variance(self):
        # square loss at w = 0: (1/2) E ||Y||^2 = (1/2) (tr rho + ||m*||^2),
        # with the teacher's realized rho and m*
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=64, n=16, seed=7)
        eg, se = empirical_test_error(np.zeros((64, 1)), data, spec)
        teacher = empirical_statistics(data.teacher, 0.0, data)
        rho, m_star = teacher.q[(0, 0)], teacher.m[(0, 0)]
        assert eg == pytest.approx(0.5 * (np.trace(rho) + m_star @ m_star), rel=1e-12)
        assert se == 0.0

    def test_squared_error_is_exact(self):
        # ridge's squared error at any weights is (1/2) E (Y - X)^2
        # = (1/2) (q - 2 theta + rho + (m* - m)^2) of the realized overlaps,
        # with a zero stderr
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=64, n=64, seed=9)
        w = np.random.default_rng(10).standard_normal((64, 1))
        eg, se = empirical_test_error(w, data, spec)
        fit = empirical_statistics(w, 0.0, data)
        teacher = empirical_statistics(data.teacher, 0.0, data)
        q, theta, m = (float(np.ravel(x[(0, 0)])[0]) for x in (fit.q, fit.theta, fit.m))
        rho, m_star = float(teacher.q[(0, 0)][0, 0]), float(teacher.m[(0, 0)][0])
        assert eg == pytest.approx(0.5 * (q - 2.0 * theta + rho + (m_star - m) ** 2), rel=1e-12)
        assert 0.0 < eg and se == 0.0

    @pytest.mark.parametrize("loss", ["logistic", "square"])
    def test_zero_weights_misclassify_every_token(self, loss):
        # w = 0 projects every token to 0, whose sign matches no class
        spec = gmm_instance(loss=loss)
        data = generate_dataset(spec, spec.nu, d=64, n=64, seed=9)
        assert empirical_test_error(np.zeros((64, 1)), data, spec) == (1.0, 0.0)

    def test_closed_form_draws_no_normals(self, monkeypatch):
        # the test error, finite-d or asymptotic under either plan, must not
        # reach the Gaussian sampler, for misclassification or squared error
        def refuse(*args):
            raise AssertionError("the closed-form test error drew standard normals")

        for instance in (gmm_instance, two_token_instance):
            spec = instance(alpha=1.0)
            data = generate_dataset(spec, spec.nu, d=64, n=64, seed=9)
            w = np.random.default_rng(10).standard_normal((64, 1))
            params = empirical_statistics(w, 0.0, data)
            fixed = compute_fixed_statistics(spec.nu, spec.dims)
            with monkeypatch.context() as patch:
                patch.setattr(gaussian, "standard_normals", refuse)
                eg, se = empirical_test_error(w, data, spec)
                assert 0.0 < eg and se == 0.0
                for plan in (McPlan(gh_order=51), McPlan(n_samples=400_000, seed=23)):
                    eg, se = saddle.test_error(params, fixed, spec, plan)
                    assert 0.0 < eg and se == 0.0

    @pytest.mark.parametrize("instance", [gmm_instance, two_token_instance])
    def test_projection_sampler_matches_dense_tokens(self, instance):
        # the projection law's closed form against full d-dimensional test
        # tokens on trained weights
        spec = instance(alpha=1.0)
        d = 100
        data = generate_dataset(spec, spec.nu, d=d, n=d, seed=14)
        fit = erm_train(data, spec, config=TrainConfig(grad_tol=1e-6))
        eg, se = empirical_test_error(fit.w_hat, data, spec)
        eg_ref, se_ref = dense_test_error(fit.w_hat, data, spec, n_test=100_000, seed=16)
        assert 0.0 < eg and se == 0.0
        assert abs(eg - eg_ref) <= 3.0 * se_ref


class TestSummaryStatistics:
    def test_teacher_recovers_rho(self):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=100, n=10, seed=12)
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        stats = empirical_statistics(data.teacher, np.zeros((100, 1, 1)), data)
        np.testing.assert_allclose(stats.q[(0, 0)], fixed.rho[(0, 0)], atol=1e-12)
        np.testing.assert_allclose(stats.theta[(0, 0)], fixed.rho[(0, 0)], atol=1e-12)

    def test_zero_weights(self):
        spec = gmm_instance()
        data = generate_dataset(spec, spec.nu, d=100, n=10, seed=13)
        stats = empirical_statistics(np.zeros((100, 1)), np.zeros((100, 1, 1)), data)
        for key in spec.dims.lk_pairs():
            assert stats.q[key][0, 0] == 0.0
            assert stats.m[key][0] == 0.0

    def test_concentration_across_seeds(self):
        # trained statistics fluctuate at the 1/sqrt(d) scale across seeds
        spec = ridge_instance(alpha=1.0, lam=0.1)
        qs = []
        for seed in range(10):
            d = 1000
            data = generate_dataset(spec, spec.nu, d=d, n=d, seed=seed)
            X = data.X[:, 0, :]
            w = np.linalg.solve(
                X.T @ X / d + 0.1 * np.eye(d), X.T @ data.y[:, 0, 0] / np.sqrt(d)
            )
            qs.append(empirical_statistics(w[:, None], np.zeros((d, 1, 1)), data).q[(0, 0)][0, 0])
        assert float(np.std(qs)) <= 5.0 / np.sqrt(1000)
