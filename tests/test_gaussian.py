"""Gaussian machinery: matrix roots, node samplers, weighted reductions."""

import numpy as np
import pytest

from seqmix.errors import (
    DegenerateOverlapError,
    InconsistentOverlapsError,
    SpecValidationError,
)
from seqmix import gaussian
from seqmix.gaussian import (
    _weighted_mean_stderr,
    energetic_nodes,
    gauss_hermite_nodes,
    joint_xy_nodes,
    McPlan,
    standard_normals,
    sym_roots,
    token_laws,
)
from seqmix.model import compute_fixed_statistics, FixedStatistics, OrderParameters
from seqmix.zoo import ridge_instance, two_token_instance


class TestSymSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(
            sym_roots(np.diag([4.0, 9.0]))[0], np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(sym_roots(np.eye(3))[0], np.eye(3), atol=1e-12)

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            M = rng.standard_normal((3, 3))
            A = M.T @ M
            B = sym_roots(A)[0]
            assert np.linalg.norm(B @ B - A) <= 1e-9 * np.linalg.norm(A)

    def test_commutes_with_input(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4))
        A = M.T @ M
        B = sym_roots(A)[0]
        assert np.linalg.norm(A @ B - B @ A) <= 1e-9 * np.linalg.norm(A)

    def test_small_negative_clipped(self):
        A = np.diag([1.0, -0.5e-8])
        B = sym_roots(A)[0]
        np.testing.assert_allclose(B, np.diag([1.0, 0.0]), atol=1e-12)

    def test_large_negative_raises(self):
        with pytest.raises(InconsistentOverlapsError):
            sym_roots(np.diag([1.0, -1e-3]))

    def test_nonsymmetric_raises(self):
        with pytest.raises(InconsistentOverlapsError):
            sym_roots(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_pinv_sqrt_zeros_null_space(self):
        A = np.diag([4.0, 0.0])
        np.testing.assert_allclose(sym_roots(A)[1], np.diag([0.5, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("a", [0.0, -0.0, 1e-13, -5e-9, 4.0, np.inf, np.nan])
    def test_1x1_is_the_lapack_path_bit_for_bit(self, a, monkeypatch):
        # 1e-13 lies below EIG_CLIP and -5e-9 is clipped to zero
        A = np.array([[a]])
        with np.errstate(invalid="ignore"):
            ours = sym_roots(A)
            monkeypatch.setattr(gaussian, "eigh", lambda M: np.linalg.eigh(M))
            lapack = sym_roots(A)
        for x, y in zip(ours, lapack):
            assert x.tobytes() == y.tobytes()

    def test_1x1_large_negative_raises(self):
        with pytest.raises(InconsistentOverlapsError):
            sym_roots(np.array([[-1e-7]]))


class TestStandardNormals:
    def test_determinism(self):
        plan = McPlan(n_samples=64, seed=9)
        a = standard_normals(plan, 4, (2, 3))
        np.testing.assert_array_equal(a, standard_normals(plan, 4, (2, 3)))
        # the draws of seed entropy [seed, stream, 0], which every solve uses
        rng = np.random.default_rng(np.random.SeedSequence([9, 4, 0]))
        np.testing.assert_array_equal(a[0::2], rng.standard_normal((32, 2, 3)))

    def test_antithetic_pairing(self):
        plan = McPlan(n_samples=64, seed=9, antithetic=True)
        z = standard_normals(plan, 0, (3,))
        np.testing.assert_array_equal(z[1::2], -z[0::2])

    def test_odd_antithetic_rejected(self):
        assert McPlan(n_samples=7, antithetic=True).violations()


class TestCrnCores:
    """Under common random numbers the energetic cores are drawn once."""

    def _nodes(self, plan):
        spec = two_token_instance()
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        laws = token_laws(OrderParameters.informed(spec.dims, fixed), fixed)
        return energetic_nodes(laws, spec.class_law.support[0], plan)

    def test_sweeps_share_one_read_only_draw(self):
        plan = McPlan(n_samples=64, seed=31)
        _, Xi, Zeta, _, _ = self._nodes(plan)
        _, Xi2, Zeta2, _, _ = self._nodes(plan)
        assert Xi2 is Xi and Zeta2 is Zeta
        assert not Xi.flags.writeable and not Zeta.flags.writeable
        np.testing.assert_array_equal(Xi, standard_normals(plan, 0, (2, 1)))

    @pytest.mark.parametrize("instance", ["ridge", "square_gmm", "logistic_gmm", "two_token"])
    def test_zoo_fixed_points_match_fresh_cores(self, instance, monkeypatch):
        """Kept cores give the Monte Carlo solve, bit for bit, that cores
        drawn afresh at every sweep give."""
        from seqmix.saddle import solve_fixed_point, SolverConfig
        from seqmix.zoo import instance_by_name

        spec = instance_by_name(instance, alpha=1.0, lam=0.1)
        cfg = SolverConfig(damping=0.5, tol=1e-8, mc_plan=McPlan(n_samples=2000, seed=41))
        kept = solve_fixed_point(spec, spec.nu, cfg)
        monkeypatch.setattr(gaussian, "_crn_normals", standard_normals)
        fresh = solve_fixed_point(spec, spec.nu, cfg)
        for name, block in kept.params.blocks().items():
            assert block.tobytes() == fresh.params.blocks()[name].tobytes()
        for name, block in kept.conj.blocks().items():
            assert block.tobytes() == fresh.conj.blocks()[name].tobytes()
        assert kept.residual_history == fresh.residual_history
        assert kept.rejected_steps == fresh.rejected_steps
        assert (kept.test_error, kept.train_loss, kept.free_entropy) == (
            fresh.test_error, fresh.train_loss, fresh.free_entropy
        )


class TestGaussHermite:
    def test_weights_normalized(self):
        w, x = gauss_hermite_nodes(3, 5)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_quadratic_moments_exact(self):
        w, x = gauss_hermite_nodes(2, 4)
        np.testing.assert_allclose(w @ (x[:, 0] * x[:, 1]), 0.0, atol=1e-12)
        np.testing.assert_allclose(w @ (x[:, 0] ** 2), 1.0, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(SpecValidationError):
            gauss_hermite_nodes(7, 3)

    def test_memoized_read_only(self):
        w, x = gauss_hermite_nodes(2, 9)
        w2, x2 = gauss_hermite_nodes(2, 9)
        assert w2 is w and x2 is x
        assert not w.flags.writeable and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 1.0

    @pytest.mark.parametrize("name, order", [
        ("ridge", 31), ("square_gmm", 31), ("logistic_gmm", 51), ("two_token", 7),
    ])
    def test_zoo_fixed_points_match_fresh_nodes(self, name, order, monkeypatch):
        """Shared cached nodes give the fixed point, bit for bit, that
        freshly built writable nodes give on every call."""
        from seqmix import gaussian
        from seqmix.saddle import solve_fixed_point, SolverConfig
        from seqmix.zoo import instance_by_name

        spec = instance_by_name(name, alpha=1.0, lam=0.1)
        cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=2000,
                           mc_plan=McPlan(gh_order=order))
        cached = solve_fixed_point(spec, spec.nu, cfg)
        build = gauss_hermite_nodes.__wrapped__
        monkeypatch.setattr(
            gaussian, "gauss_hermite_nodes",
            lambda dim, n: tuple(a.copy() for a in build(dim, n)),
        )
        fresh = solve_fixed_point(spec, spec.nu, cfg)
        for block in ("q", "V", "m", "theta"):
            for key in spec.dims.lk_pairs():
                np.testing.assert_array_equal(
                    getattr(cached.params, block)[key], getattr(fresh.params, block)[key]
                )
        np.testing.assert_array_equal(cached.params.v, fresh.params.v)
        assert (cached.test_error, cached.train_loss, cached.free_entropy) == (
            fresh.test_error, fresh.train_loss, fresh.free_entropy
        )


def _scalar_params(q, theta, m=0.0, V=1.0, v=0.0):
    return OrderParameters(
        q={(0, 0): np.array([[q]])},
        V={(0, 0): np.array([[V]])},
        m={(0, 0): np.array([m])},
        theta={(0, 0): np.array([[theta]])},
        v=np.array([[v]]),
    )


def _joint_law(q, theta, rho):
    """The TokenLaw of one key with joint covariance [[q, theta], [theta^T, rho]]."""
    r, t = theta.shape
    key = (0, 0)
    params = OrderParameters(q={key: q}, V={key: np.eye(r)}, m={key: np.zeros(r)},
                             theta={key: theta}, v=np.eye(r))
    fixed = FixedStatistics(rho={key: rho}, m_star={key: np.zeros(t)})
    return token_laws(params, fixed)[key]


class TestTokenLaw:
    R, T = 3, 2

    def _random_joint(self, rng, case):
        """A random PSD joint covariance as G G^T, G = [[A], [B]]."""
        k = self.R + self.T + 2
        A = rng.standard_normal((self.R, k))
        B = rng.standard_normal((self.T, k))
        if case == "singular-q":
            # rank-one q; theta = A B^T lies in its range
            A = np.outer(rng.standard_normal(self.R), rng.standard_normal(k))
        q, theta, rho = A @ A.T, A @ B.T, B @ B.T
        if case == "theta-zero":
            theta = np.zeros_like(theta)
        return q, theta, rho

    @pytest.mark.parametrize("case", ["full-rank-q", "singular-q", "theta-zero"])
    def test_factor_reproduces_joint_covariance(self, case):
        # [[q^{1/2}, 0], [theta^T q^{+1/2}, S^{1/2}]] times its transpose
        rng = np.random.default_rng(12)
        for _ in range(20):
            q, theta, rho = self._random_joint(rng, case)
            law = _joint_law(q, theta, rho)
            F = np.block([[law.q_root, np.zeros((self.R, self.T))],
                          [law.mean_map, law.S_root]])
            np.testing.assert_allclose(
                F @ F.T, np.block([[q, theta], [theta.T, rho]]), rtol=0, atol=1e-12
            )

    def test_theta_outside_range_of_singular_q_raises(self):
        q = np.diag([1.0, 2.0, 0.0])
        theta = np.array([[0.1, 0.0], [0.0, 0.2], [0.5, 0.3]])
        with pytest.raises(DegenerateOverlapError):
            _joint_law(q, theta, np.eye(self.T))


class TestEnergeticSampler:
    def setup_method(self):
        spec = ridge_instance()
        self.fixed = compute_fixed_statistics(spec.nu, spec.dims)

    def test_conditional_moments_scalar(self):
        # q = 1, theta = 0.5, rho = 1: mean 0.5 xi, variance 0.75
        params = _scalar_params(q=1.0, theta=0.5)
        plan = McPlan(n_samples=400_000, seed=4)
        _, Xi, _, _, Y = energetic_nodes(token_laws(params, self.fixed), (0,), plan)
        xi = Xi[:, 0, 0]
        y = Y[:, 0, 0]
        slope = float(np.mean(xi * y) / np.mean(xi * xi))
        resid_var = float(np.var(y - 0.5 * xi))
        assert abs(slope - 0.5) < 3.0 * 2.0 / np.sqrt(len(xi))
        assert abs(resid_var - 0.75) < 3.0 * 2.0 / np.sqrt(len(xi))

    def test_theta_zero_decouples(self):
        params = _scalar_params(q=1.0, theta=0.0)
        plan = McPlan(n_samples=200_000, seed=5)
        _, Xi, _, _, Y = energetic_nodes(token_laws(params, self.fixed), (0,), plan)
        corr = float(np.mean(Xi[:, 0, 0] * Y[:, 0, 0]))
        assert abs(corr) < 3.0 / np.sqrt(Xi.shape[0])
        assert abs(float(np.var(Y)) - 1.0) < 3.0 * 2.0 / np.sqrt(Xi.shape[0])

    def test_singular_q_theta_out_of_range(self):
        params = _scalar_params(q=0.0, theta=0.5)
        with pytest.raises(DegenerateOverlapError):
            energetic_nodes(token_laws(params, self.fixed), (0,), McPlan(n_samples=8))

    def test_singular_q_theta_zero_falls_back(self):
        params = _scalar_params(q=0.0, theta=0.0)
        _, Xi, _, _, Y = energetic_nodes(
            token_laws(params, self.fixed), (0,), McPlan(n_samples=200_000, seed=6)
        )
        assert abs(float(np.var(Y)) - 1.0) < 0.02

    def test_deterministic_streams(self):
        params = _scalar_params(q=0.8, theta=0.3)
        plan = McPlan(n_samples=128, seed=11)
        a = energetic_nodes(token_laws(params, self.fixed), (0,), plan)
        b = energetic_nodes(token_laws(params, self.fixed), (0,), plan)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestJointSampler:
    def setup_method(self):
        spec = ridge_instance()
        self.fixed = compute_fixed_statistics(spec.nu, spec.dims)

    def test_uncorrelated_when_theta_zero(self):
        params = _scalar_params(q=0.7, theta=0.0)
        _, X, Y = joint_xy_nodes(
            token_laws(params, self.fixed), (0,), McPlan(n_samples=400_000, seed=7)
        )
        n = X.shape[0]
        assert abs(float(np.mean(X[:, 0, 0] * Y[:, 0, 0]))) < 3.0 / np.sqrt(n)
        assert abs(float(np.var(X)) - 0.7) < 3.0 * 1.4 / np.sqrt(n)

    def test_perfect_correlation(self):
        params = _scalar_params(q=1.0, theta=1.0)
        _, X, Y = joint_xy_nodes(
            token_laws(params, self.fixed), (0,), McPlan(n_samples=10_000, seed=8)
        )
        np.testing.assert_allclose(X, Y, atol=1e-8)

    def test_cross_covariance_matches_theta(self):
        params = _scalar_params(q=1.0, theta=0.6)
        _, X, Y = joint_xy_nodes(
            token_laws(params, self.fixed), (0,), McPlan(n_samples=400_000, seed=9)
        )
        n = X.shape[0]
        cov = float(np.mean(X[:, 0, 0] * Y[:, 0, 0]))
        assert abs(cov - 0.6) < 3.0 * 2.0 / np.sqrt(n)


def _expect(f, spec, params, fixed, plan):
    """Class-weighted mean and stderr of f(Xi, Y) over the energetic nodes,
    the reduction the solver's envelope uses."""
    total, var = 0.0, 0.0
    for c_index, (c, pc) in enumerate(zip(spec.class_law.support, spec.class_law.probs)):
        wts, Xi, _, _, Y = energetic_nodes(token_laws(params, fixed), c, plan, c_index=c_index)
        mean, se = _weighted_mean_stderr(wts, f(Xi, Y), plan)
        total, var = total + pc * mean, var + (pc * se) ** 2
    return total, np.sqrt(var)


class TestExpectation:
    def setup_method(self):
        self.spec = ridge_instance()
        self.fixed = compute_fixed_statistics(self.spec.nu, self.spec.dims)
        self.params = _scalar_params(q=1.0, theta=0.0)

    def test_constant(self):
        val, se = _expect(
            lambda Xi, Y: np.ones(len(Xi)), self.spec, self.params, self.fixed,
            McPlan(n_samples=512, seed=1),
        )
        assert val == pytest.approx(1.0)
        assert se == pytest.approx(0.0)

    def test_mean_zero_label(self):
        # antithetic pairing cancels the linear statistic exactly
        val, se = _expect(
            lambda Xi, Y: Y[:, 0, 0], self.spec, self.params, self.fixed,
            McPlan(n_samples=100_000, seed=2),
        )
        assert abs(val) <= 3.0 * se + 1e-14

    def test_second_moment(self):
        val, se = _expect(
            lambda Xi, Y: Xi[:, 0, 0] ** 2, self.spec, self.params, self.fixed,
            McPlan(n_samples=100_000, seed=3),
        )
        assert abs(val - 1.0) < 3.0 * max(se, 1e-6)

    def test_stderr_scaling(self):
        # doubling the sample count shrinks stderr by sqrt(2) within 20%
        f = lambda Xi, Y: Xi[:, 0, 0] ** 3 + Y[:, 0, 0]
        _, se1 = _expect(
            f, self.spec, self.params, self.fixed,
            McPlan(n_samples=20_000, seed=5, antithetic=False),
        )
        _, se2 = _expect(
            f, self.spec, self.params, self.fixed,
            McPlan(n_samples=40_000, seed=5, antithetic=False),
        )
        ratio = float(se1 / se2)
        assert 0.8 * np.sqrt(2.0) <= ratio <= 1.2 * np.sqrt(2.0)

    def test_multitoken_support(self):
        spec = two_token_instance()
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.cold(spec.dims, eps=0.5)
        val, _ = _expect(
            lambda Xi, Y: Xi[:, :, 0] ** 2, spec, params, fixed,
            McPlan(n_samples=50_000, seed=6),
        )
        np.testing.assert_allclose(val, [1.0, 1.0], atol=0.05)
