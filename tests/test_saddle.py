"""Fixed-point solver: sweep algebra, convergence, scalar functionals."""

from dataclasses import replace

import numpy as np
import pytest

from seqmix import gaussian
from seqmix.errors import DegenerateOverlapError, SingularSystemError, SpecValidationError
from seqmix.gaussian import (McPlan, standard_normals, sym_roots, TEST_STREAM, token_laws,
                             ZETA_STREAM)
from seqmix.model import (
    ClassLaw,
    compute_fixed_statistics,
    ConjugateParameters,
    Dimensions,
    make_atom,
    ModelSpec,
    OrderParameters,
    SpectralMeasure,
)
from seqmix.losses import (misclassification, misclassification_mean, square_loss_with_energy,
                           squared_error, squared_error_mean, zero_loss)
from seqmix.oracles import ridge_asymptotics
from seqmix.saddle import (
    _admissible,
    _block_residual,
    _energies,
    _node_batches,
    expected_envelope,
    solve_fixed_point,
    SolverConfig,
    spectral_kernels,
    update_hats,
    update_overlaps,
)
from seqmix.saddle import test_error as solver_test_error
from seqmix.zoo import gmm_instance, ridge_instance, two_token_instance, INSTANCES


GH = McPlan(gh_order=7)


def stein_vhat(params, fixed, spec, plan, theta_hat):
    """Reference V_hat by the Stein-lemma form
    theta_hat theta^T q^+ - alpha E[V^-1 D xi^T] q^{-1/2}."""
    dims = spec.dims
    r = dims.r
    acc = {key: np.zeros((r, r)) for key in dims.lk_pairs()}
    for nb in _node_batches(params, token_laws(params, fixed), spec, plan):
        for ell in range(dims.L):
            blk = slice(ell * r, (ell + 1) * r)
            VD = (nb.x_stars - nb.anchors)[:, ell, :] @ nb.P_full[blk, blk].T
            acc[(ell, nb.c[ell])] += nb.pc * np.einsum(
                "s,si,sj->ij", nb.wts, VD, nb.Xi[:, ell, :]
            )
    out = {}
    for key in acc:
        _, q_pinv_root, q_pinv = sym_roots(params.q[key])
        out[key] = (theta_hat[key] @ params.theta[key].T @ q_pinv
                    - dims.alpha * acc[key] @ q_pinv_root)
    return out


class TestUpdateHats:
    def test_zero_loss_gives_zero_hats(self):
        spec = ridge_instance()
        zspec = ModelSpec(spec.dims, spec.class_law, spec.nu, zero_loss())
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.cold(spec.dims, eps=0.3)
        conj = update_hats(params, token_laws(params, fixed), zspec, GH)
        for key in spec.dims.lk_pairs():
            np.testing.assert_allclose(conj.q_hat[key], 0.0, atol=1e-12)
            np.testing.assert_allclose(conj.m_hat[key], 0.0, atol=1e-12)
            np.testing.assert_allclose(conj.theta_hat[key], 0.0, atol=1e-12)
            np.testing.assert_allclose(conj.V_hat[key], 0.0, atol=1e-12)
        np.testing.assert_allclose(conj.v_hat, 0.0, atol=1e-12)

    def test_alpha_zero_gives_zero_hats(self):
        spec = ridge_instance(alpha=1e-300)
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.cold(spec.dims, eps=0.3)
        conj = update_hats(params, token_laws(params, fixed), spec, GH)
        for key in spec.dims.lk_pairs():
            assert abs(conj.q_hat[key][0, 0]) < 1e-290
            assert abs(conj.V_hat[key][0, 0]) < 1e-290

    def test_vhat_forms_agree_on_smooth_instance(self):
        # the anchor-sensitivity form and the Stein-lemma form are the same
        # expectation written two ways; with exact quadrature they coincide
        # (31 nodes integrate the logistic prox to rounding)
        for spec, plan in ((ridge_instance(alpha=1.3), GH),
                           (gmm_instance(alpha=1.3), McPlan(gh_order=31))):
            fixed = compute_fixed_statistics(spec.nu, spec.dims)
            params = OrderParameters.informed(spec.dims, fixed, eps=0.4)
            a = update_hats(params, token_laws(params, fixed), spec, plan)
            b = stein_vhat(params, fixed, spec, plan, a.theta_hat)
            for key in spec.dims.lk_pairs():
                np.testing.assert_allclose(a.V_hat[key], b[key], rtol=0, atol=1e-12)

    def test_hats_symmetric(self):
        spec = two_token_instance()
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.informed(spec.dims, fixed, eps=0.3)
        conj = update_hats(params, token_laws(params, fixed), spec, GH)
        for key in spec.dims.lk_pairs():
            assert np.max(np.abs(conj.q_hat[key] - conj.q_hat[key].T)) <= 1e-10
        assert np.max(np.abs(conj.v_hat - conj.v_hat.T)) <= 1e-10


class TestUpdateOverlaps:
    def test_single_atom_arithmetic(self):
        # lambda = 0.5, v_hat = 0, V_hat = 0.5, m_hat = 0, theta_hat = 0.2,
        # q_hat = 0.1 at a single unit-eigenvalue atom:
        # R = 1, S = 0.2, K = 0.14, so V = 1, q = 0.14, m = 0, theta = 0.2
        spec = ridge_instance(lam=0.5)
        conj = ConjugateParameters.zeros(spec.dims)
        conj.V_hat[(0, 0)] = np.array([[0.5]])
        conj.theta_hat[(0, 0)] = np.array([[0.2]])
        conj.q_hat[(0, 0)] = np.array([[0.1]])
        params = update_overlaps(conj, spec.nu, spec)
        assert params.V[(0, 0)][0, 0] == pytest.approx(1.0)
        assert params.q[(0, 0)][0, 0] == pytest.approx(0.14)
        assert params.m[(0, 0)][0] == pytest.approx(0.0)
        assert params.theta[(0, 0)][0, 0] == pytest.approx(0.2)
        assert params.v[0, 0] == pytest.approx(0.14)

    def test_all_hats_zero(self):
        spec = ridge_instance(lam=0.25)
        conj = ConjugateParameters.zeros(spec.dims)
        params = update_overlaps(conj, spec.nu, spec)
        assert params.q[(0, 0)][0, 0] == 0.0
        assert params.theta[(0, 0)][0, 0] == 0.0
        # V = mean eigenvalue / lambda
        assert params.V[(0, 0)][0, 0] == pytest.approx(1.0 / 0.25)

    def test_singular_resolvent_is_singular_system_error(self):
        # lambda = 0 with all hats zero leaves the resolvent lambda I + ... = 0
        spec = ridge_instance(lam=0.0)
        conj = ConjugateParameters.zeros(spec.dims)
        with pytest.raises(SingularSystemError, match="resolvent singular at atom 0"):
            update_overlaps(conj, spec.nu, spec)

    @pytest.mark.parametrize("r", [2, 3])
    def test_nan_hat_passes_through_the_resolvent(self, r):
        # a NaN hat gives NaN overlaps, which check_divergence stops, as at
        # r = 1; the singularity test's SVD raised a bare LinAlgError here
        dims = Dimensions(L=1, r=r, t=r, K=(1,), alpha=1.0, lam=0.1)
        conj = ConjugateParameters.zeros(dims)
        conj.V_hat[(0, 0)][0, 0] = np.nan
        nu = SpectralMeasure((make_atom(dims, 1.0, 1.0),))
        ((_, R, _, _),) = spectral_kernels(conj, nu, dims, dims.lam)
        assert np.isnan(R).any()

    def test_two_atom_measure_is_weighted_sum(self):
        spec = two_token_instance(lam=0.3)
        rng = np.random.default_rng(2)
        conj = ConjugateParameters.zeros(spec.dims)
        for key in spec.dims.lk_pairs():
            conj.q_hat[key] = np.array([[rng.uniform(0.1, 1.0)]])
            conj.V_hat[key] = np.array([[rng.uniform(0.1, 1.0)]])
            conj.m_hat[key] = rng.standard_normal(1)
            conj.theta_hat[key] = rng.standard_normal((1, 1))
        params = update_overlaps(conj, spec.nu, spec)

        # hand-coded per-atom closed form
        lam = spec.dims.lam
        expected_q = {key: 0.0 for key in spec.dims.lk_pairs()}
        for atom in spec.nu.atoms:
            denom = lam + sum(
                atom.gamma[key] * conj.V_hat[key][0, 0] for key in spec.dims.lk_pairs()
            )
            R = 1.0 / denom
            S = sum(
                conj.m_hat[key][0] * atom.tau[key]
                + atom.gamma[key] * conj.theta_hat[key][0, 0] * atom.pi[0]
                for key in spec.dims.lk_pairs()
            )
            K = S * S + sum(
                atom.gamma[key] * conj.q_hat[key][0, 0] for key in spec.dims.lk_pairs()
            )
            for key in spec.dims.lk_pairs():
                expected_q[key] += atom.weight * atom.gamma[key] * R * K * R
        for key in spec.dims.lk_pairs():
            assert params.q[key][0, 0] == pytest.approx(expected_q[key], abs=1e-12)


class TestSolveFixedPoint:
    def test_alpha_zero_converges_fast(self):
        spec = ridge_instance(alpha=1e-300)
        cfg = SolverConfig(damping=0.0, tol=1e-12, max_iters=10, mc_plan=GH)
        rep = solve_fixed_point(spec, spec.nu, cfg)
        assert rep.converged and rep.iterations <= 2
        assert abs(rep.conj.q_hat[(0, 0)][0, 0]) < 1e-200

    def test_ridge_matches_bisection_oracle(self):
        for alpha in (0.7, 1.5):
            spec = ridge_instance(alpha=alpha, lam=0.1)
            cfg = SolverConfig(damping=0.3, tol=1e-11, max_iters=800, mc_plan=GH)
            rep = solve_fixed_point(spec, spec.nu, cfg)
            oracle = ridge_asymptotics(alpha, 0.1)
            assert rep.converged
            assert rep.params.q[(0, 0)][0, 0] == pytest.approx(oracle.q, abs=1e-8)
            assert rep.params.theta[(0, 0)][0, 0] == pytest.approx(oracle.theta, abs=1e-8)
            assert rep.test_error == pytest.approx(oracle.test_error, abs=1e-8)

    def test_deterministic_with_crn(self):
        spec = gmm_instance(alpha=0.8)
        plan = McPlan(n_samples=2000, seed=77, crn=True)
        cfg = SolverConfig(damping=0.4, tol=1e-7, max_iters=400, mc_plan=plan)
        a = solve_fixed_point(spec, spec.nu, cfg)
        b = solve_fixed_point(spec, spec.nu, cfg)
        np.testing.assert_array_equal(a.params.q[(0, 0)], b.params.q[(0, 0)])
        assert a.residual_history == b.residual_history

    def test_symmetry_preserved(self):
        spec = two_token_instance()
        cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=500, mc_plan=GH)
        rep = solve_fixed_point(spec, spec.nu, cfg)
        assert rep.params.max_asymmetry() <= 1e-10

    def test_trajectory_recorded(self):
        spec = ridge_instance()
        cfg = SolverConfig(
            damping=0.0, tol=1e-14, max_iters=7, mc_plan=GH,
            init="gamp", record_trajectory=True,
        )
        rep = solve_fixed_point(spec, spec.nu, cfg)
        assert rep.trajectory is not None and len(rep.trajectory) == 7

    def test_converged_implies_residual_below_tol(self):
        spec = ridge_instance()
        cfg = SolverConfig(damping=0.3, tol=1e-9, max_iters=500, mc_plan=GH)
        rep = solve_fixed_point(spec, spec.nu, cfg)
        assert rep.converged and rep.residual_history[-1] <= 1e-9

    def test_warm_start_at_fixed_point_stops_at_first_sweep(self):
        # the first sweep's hats have no predecessor to change from; measured
        # against zero hats, this re-solve took a second sweep
        spec = gmm_instance(alpha=1.0)
        cfg = SolverConfig(damping=0.5, tol=1e-8, max_iters=500, mc_plan=McPlan(gh_order=51))
        rep = solve_fixed_point(spec, spec.nu, cfg)
        warm = solve_fixed_point(spec, spec.nu, replace(cfg, warm_start=rep.params))
        assert warm.converged and warm.iterations == 1

    def test_lambda_zero_gate(self):
        from seqmix.errors import SpecValidationError

        # logistic curvature vanishes in the tails: reject at lambda = 0
        spec = gmm_instance(alpha=1.0, lam=0.0)
        cfg = SolverConfig(damping=0.3, tol=1e-8, max_iters=50,
                           mc_plan=McPlan(gh_order=31))
        with pytest.raises(SpecValidationError):
            solve_fixed_point(spec, spec.nu, cfg)
        # square loss is strongly convex: allowed, with a warning
        spec2 = ridge_instance(alpha=1.6, lam=0.0)
        cfg2 = SolverConfig(damping=0.3, tol=1e-9, max_iters=500, mc_plan=GH)
        with pytest.warns(UserWarning):
            rep = solve_fixed_point(spec2, spec2.nu, cfg2)
        assert rep.converged

    def test_config_violation_is_validation_error(self):
        from seqmix.errors import SpecValidationError

        spec = ridge_instance()
        with pytest.raises(SpecValidationError, match="damping"):
            solve_fixed_point(spec, spec.nu, SolverConfig(damping=1.5, mc_plan=GH))

    @pytest.mark.parametrize("alpha, lam", [(1.0, -0.1), (1.0, np.nan), (np.inf, 0.1),
                                            (np.nan, 0.1), (-1.0, 0.1)])
    def test_dimension_violation_is_validation_error(self, alpha, lam):
        # a negative lambda solved, converged and reported a negative
        # training loss; NaN and infinite values diverged
        spec = ridge_instance(alpha=alpha, lam=lam)
        with pytest.raises(SpecValidationError, match="Dimensions"):
            solve_fixed_point(spec, spec.nu, SolverConfig(mc_plan=GH))

    @pytest.mark.parametrize("plan", [McPlan(gh_order=31), McPlan(n_samples=2000)],
                             ids=["gh31", "mc2000"])
    def test_class_tuple_of_probability_zero_changes_nothing(self, plan):
        # the hat sweep and the test error skip a tuple of probability 0
        spec = gmm_instance(alpha=1.0)
        law = spec.class_law
        padded = replace(spec, class_law=ClassLaw(law.support + ((1,),), law.probs + (0.0,)))
        cfg = SolverConfig(damping=0.5, tol=1e-8, max_iters=500, mc_plan=plan)
        a = solve_fixed_point(spec, spec.nu, cfg)
        b = solve_fixed_point(padded, padded.nu, cfg)
        assert a.converged and b.iterations == a.iterations
        assert (b.test_error, b.residual_history) == (a.test_error, a.residual_history)
        for name, block in a.params.blocks().items():
            np.testing.assert_array_equal(b.params.blocks()[name], block)

    def test_informed_init_reaches_same_point(self):
        # convex instance: one basin, so the informed start must agree
        spec = ridge_instance(alpha=1.1, lam=0.2)
        cfg = SolverConfig(damping=0.3, tol=1e-11, max_iters=800, mc_plan=GH)
        cold = solve_fixed_point(spec, spec.nu, cfg)
        informed = solve_fixed_point(
            spec, spec.nu,
            SolverConfig(damping=0.3, tol=1e-11, max_iters=800, mc_plan=GH,
                         init="informed"),
        )
        np.testing.assert_allclose(
            cold.params.q[(0, 0)], informed.params.q[(0, 0)], atol=1e-8
        )

    def test_divergence_detected(self):
        from seqmix.errors import SolverDivergenceError
        from seqmix.model import ModelSpec

        # a prox that catapults the iterate makes every sweep amplify
        spec = ridge_instance()
        runaway = zero_loss()
        runaway.prox = lambda a, P, Y, v, c: a + 1e4
        bad = ModelSpec(spec.dims, spec.class_law, spec.nu, runaway)
        cfg = SolverConfig(
            damping=0.0, tol=1e-12, max_iters=50, mc_plan=GH,
            record_trajectory=True,
        )
        with pytest.raises(SolverDivergenceError) as err:
            solve_fixed_point(bad, bad.nu, cfg)
        assert err.value.trajectory  # carries the prefix for diagnosis


class TestAndersonMixing:
    def test_cold_logistic_solve_takes_few_sweeps(self):
        # plain damped iteration takes 49 sweeps here
        spec = gmm_instance(alpha=4.0)
        plan = McPlan(gh_order=51)
        cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=500, mc_plan=plan)
        rep = solve_fixed_point(spec, spec.nu, cfg)
        assert rep.converged and rep.iterations <= 20
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        laws = token_laws(rep.params, fixed)
        image = update_overlaps(update_hats(rep.params, laws, spec, plan), spec.nu, spec)
        assert _block_residual(image, rep.params) <= 10 * cfg.tol

    def test_ridge_line_needs_the_schur_safeguard(self):
        # extrapolated iterates of this warm-started line leave the PSD cone
        # of the joint [[q, theta], [theta^T, rho]]; the safeguard takes the
        # plain step there
        rejected = 0
        for lam in (0.05, 0.1):
            warm = None
            for alpha in (0.5, 1.0, 2.0, 4.0):
                spec = ridge_instance(alpha=alpha, lam=lam)
                cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=2000,
                                   mc_plan=McPlan(gh_order=31), warm_start=warm)
                rep = solve_fixed_point(spec, spec.nu, cfg)
                warm = rep.params
                oracle = ridge_asymptotics(alpha, lam)
                assert rep.converged
                assert rep.params.q[(0, 0)][0, 0] == pytest.approx(oracle.q, abs=1e-8)
                assert rep.params.theta[(0, 0)][0, 0] == pytest.approx(oracle.theta, abs=1e-8)
                assert rep.test_error == pytest.approx(oracle.test_error, abs=1e-8)
                rejected += rep.rejected_steps
        assert rejected >= 1

    @pytest.mark.parametrize("q", [0.0, -5e-9])
    def test_safeguard_rejects_theta_outside_the_range_of_q(self, q):
        # a singular q (within the PSD tolerance) with theta = 1e-3 passes
        # every PSD test, but no law draws nodes from it; an extrapolated
        # iterate there must take the plain step rather than end the solve
        spec = ridge_instance(alpha=1.0, lam=0.1)
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.cold(spec.dims, eps=0.3)
        params.q[(0, 0)] = np.array([[q]])
        params.theta[(0, 0)] = np.array([[1e-3]])
        assert _admissible(params, fixed) is None
        with pytest.raises(DegenerateOverlapError):
            token_laws(params, fixed)

    def test_plain_map_is_unaccelerated(self):
        # damping 0 (the state-evolution dynamics) keeps the plain step, bit
        # for bit
        spec, damping, plan = two_token_instance(), 0.0, GH
        cfg = SolverConfig(damping=damping, tol=1e-15, max_iters=12, init="gamp",
                           mc_plan=plan, record_trajectory=True)
        rep = solve_fixed_point(spec, spec.nu, cfg)
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.gamp_matched(spec.dims, spec.nu)
        for recorded in rep.trajectory:
            conj = update_hats(params, token_laws(params, fixed), spec, plan)
            params = update_overlaps(conj, spec.nu, spec).mix(params, damping)
            for name, block in params.blocks().items():
                np.testing.assert_array_equal(recorded.blocks()[name], block)
        assert len(rep.trajectory) == 12 and rep.rejected_steps == 0

    def test_redrawn_nodes_rejected(self):
        # Monte Carlo nodes are always common random numbers: a plan that
        # would redraw them every sweep is refused before the first sweep
        assert McPlan().violations() == []
        (msg,) = McPlan(crn=False).violations()
        assert "crn must be true" in msg
        spec = gmm_instance(alpha=0.8)
        cfg = SolverConfig(mc_plan=McPlan(n_samples=500, crn=False))
        with pytest.raises(SpecValidationError, match="crn must be true"):
            solve_fixed_point(spec, spec.nu, cfg)


class TestScalarFunctionals:
    def test_free_entropy_zero_for_zero_loss(self):
        spec = ridge_instance()
        zspec = ModelSpec(spec.dims, spec.class_law, spec.nu, zero_loss())
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.cold(spec.dims, eps=0.0)
        # q = v = 0, theta = m = 0, hats all zero
        conj = ConjugateParameters.zeros(spec.dims)
        phi, _, _ = _energies(params, conj, token_laws(params, fixed), spec.nu, zspec, GH)
        assert phi == pytest.approx(0.0, abs=1e-14)

    def test_train_loss_zero_at_alpha_zero(self):
        spec = ridge_instance(alpha=1e-300)
        cfg = SolverConfig(damping=0.0, tol=1e-12, max_iters=10, mc_plan=GH)
        rep = solve_fixed_point(spec, spec.nu, cfg)
        assert abs(rep.train_loss) < 1e-250
        assert abs(rep.free_entropy) < 1e-250

    def test_identity_at_fixed_point(self):
        # the training loss equals the negative free entropy at fixed points
        for spec in (ridge_instance(alpha=1.4), gmm_instance(alpha=0.9)):
            gh = McPlan(gh_order=7 if spec.loss.depends_on_y else 31)
            cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=900, mc_plan=gh)
            rep = solve_fixed_point(spec, spec.nu, cfg)
            assert rep.converged
            assert abs(rep.train_loss + rep.free_entropy) <= 2.0 * (
                1e-10 + rep.train_loss_stderr + rep.free_entropy_stderr
            )

    def test_perfect_learning_test_error(self):
        # theta = q = rho, m = m*: the student channel equals the teacher
        spec = ridge_instance()
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.informed(spec.dims, fixed, eps=0.0)
        eg, se = solver_test_error(params, fixed, spec, McPlan(n_samples=20_000, seed=5))
        assert abs(eg) <= 3.0 * se + 1e-12

    def test_indicator_metric_never_quadratured(self):
        # every metric is reported in closed form under every plan: the
        # indicator, which quadrature nodes cannot integrate, and the squared
        # error.  Each matches 4,000,000 draws of its pointwise metric made
        # through the nodes within 3 sigma, and the squared error, a
        # polynomial of the nodes, matches its quadrature within 1e-12
        mc = McPlan(n_samples=20_000, seed=21)
        specs = [gmm_instance(alpha=alpha, lam=0.05, loss=loss)
                 for loss in ("logistic", "square") for alpha in (0.5, 1.0, 4.0)]
        for alpha in (0.5, 1.0, 4.0):
            ridge = ridge_instance(alpha=alpha, lam=0.05)
            specs += [ridge, two_token_instance(alpha=alpha, lam=0.05),
                      replace(ridge, loss=square_loss_with_energy(), name="square_energy")]
        for spec in specs:
            fixed = compute_fixed_statistics(spec.nu, spec.dims)
            plan = McPlan(gh_order=51 if spec.dims.L == 1 else 7)
            cfg = SolverConfig(damping=0.4, tol=1e-9, max_iters=600, mc_plan=plan)
            rep = solve_fixed_point(spec, spec.nu, cfg)
            case = (spec.name, spec.dims.alpha)
            assert rep.converged and rep.test_error_stderr == 0.0, case
            assert solver_test_error(rep.params, fixed, spec, mc) == (rep.test_error, 0.0)
            laws = token_laws(rep.params, fixed)
            draws = [McPlan(n_samples=500_000, seed=seed, antithetic=False) for seed in range(8)]
            est, se = _sampled_metric(laws, spec, rep.params.v, draws)
            assert abs(rep.test_error - est) <= 3.0 * se, case
            if spec.loss.test_mean is squared_error_mean:
                gh = McPlan(gh_order=21 if spec.dims.L == 1 else 9)
                quad, _ = _sampled_metric(laws, spec, rep.params.v, [gh])
                assert rep.test_error == pytest.approx(quad, rel=1e-12, abs=0.0), case

    def test_degenerate_law_scores_the_indicator(self):
        # q = 0, m = 0: every projection is 0, whose sign matches no class
        for instance in ("logistic_gmm", "square_gmm"):
            spec = INSTANCES[instance]()
            fixed = compute_fixed_statistics(spec.nu, spec.dims)
            params = OrderParameters.cold(spec.dims, eps=0.0)
            for plan in (GH, McPlan(n_samples=1000)):
                assert solver_test_error(params, fixed, spec, plan) == (1.0, 0.0)

    def test_constant_test_metric(self):
        # a closed form is reported as the loss states it, under every plan,
        # with a zero stderr: zero's metric is 0, and a constant one is 1
        spec = ridge_instance()
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        params = OrderParameters.cold(spec.dims)
        constant = replace(zero_loss(), test_mean=lambda laws, c: 1.0)
        for loss, value in ((zero_loss(), 0.0), (constant, 1.0)):
            cspec = replace(spec, loss=loss)
            for plan in (GH, McPlan(n_samples=512, seed=6)):
                assert solver_test_error(params, fixed, cspec, plan) == (value, 0.0)

    def test_monotone_mc_refinement(self):
        # doubling the sample count moves the envelope by a few stderr
        spec = ridge_instance(alpha=1.2)
        cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=500, mc_plan=GH)
        rep = solve_fixed_point(spec, spec.nu, cfg)
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        em1, se1 = expected_envelope(
            rep.params, fixed, spec, McPlan(n_samples=20_000, seed=3)
        )
        em2, se2 = expected_envelope(
            rep.params, fixed, spec, McPlan(n_samples=40_000, seed=3)
        )
        pooled = np.hypot(se1, se2)
        assert abs(em1 - em2) <= 3.0 * pooled


def _solved(instance):
    """A zoo instance and its overlaps at a Gauss-Hermite fixed point."""
    spec = INSTANCES[instance](alpha=1.0)
    plan = McPlan(gh_order=7 if spec.dims.L > 1 else 31)
    rep = solve_fixed_point(spec, spec.nu, SolverConfig(damping=0.3, tol=1e-8, mc_plan=plan))
    return spec, compute_fixed_statistics(spec.nu, spec.dims), rep.params


# The pointwise metric each closed form is the expectation of.
POINTWISE = {misclassification_mean: misclassification, squared_error_mean: squared_error}


def _sampled_metric(laws, spec, v, plans):
    """The class-weighted mean of the loss's pointwise metric over the
    `joint_xy_nodes` of every plan (equal sizes, unpaired draws or one
    quadrature), and its standard error; labels are built only for a loss
    that reads them."""
    metric = POINTWISE[spec.loss.test_mean]
    total, var = 0.0, 0.0
    for c_index, (c, pc) in enumerate(zip(spec.class_law.support, spec.class_law.probs)):
        means, variances = [], []
        for plan in plans:
            wts, X, Y = gaussian.joint_xy_nodes(laws, c, plan, c_index=c_index,
                                                with_y=spec.loss.depends_on_y)
            vals = metric(Y, X, v, np.tile(c, (len(wts), 1)))
            means.append(float(wts @ vals))
            variances.append(float(np.var(vals, ddof=1)) / len(vals) if plan.gh_order == 0 else 0.0)
        total += pc * float(np.mean(means))
        var += pc ** 2 * float(np.sum(variances)) / len(plans) ** 2
    return total, float(np.sqrt(var))


def _rebuilt_nodes(laws, spec, plan):
    """joint_xy_nodes by hand, per class tuple: xi from its test stream, the
    laws' m + q^{1/2} xi and, for a loss that reads labels, m* + theta^T
    q^{+1/2} xi + S^{1/2} zeta with zeta from the label stream."""
    L, r, t = spec.dims.L, spec.dims.r, spec.dims.t
    for c_index, c in enumerate(spec.class_law.support):
        Xi = standard_normals(plan, c_index + TEST_STREAM, (L, r))
        tokens = [(Xi[:, ell], laws[(ell, k)]) for ell, k in enumerate(c)]
        X = np.stack([xi @ law.q_root.T + law.m for xi, law in tokens], axis=1)
        Y = np.zeros((len(Xi), L, t))
        if spec.loss.depends_on_y:
            Zeta = standard_normals(plan, c_index + TEST_STREAM + ZETA_STREAM, (L, t))
            Y = np.stack([xi @ law.mean_map.T + Zeta[:, ell] @ law.S_root.T + law.m_star
                          for ell, (xi, law) in enumerate(tokens)], axis=1)
        yield c, X, Y


class TestHoldoutNodes:
    """The nodes of a sampled test-metric estimate, `gaussian.joint_xy_nodes`,
    the reference the closed forms are checked against: the test error
    itself draws none; the reference draws labels only for a metric that
    reads them, the same xi either way, on streams that are never kept."""

    PLAN = McPlan(n_samples=20_000, seed=3, antithetic=False)

    @staticmethod
    def _streams(monkeypatch, run):
        """The streams run() draws standard normals from."""
        streams = []

        def counted(plan, c_index, shape):
            streams.append(c_index)
            return standard_normals(plan, c_index, shape)

        monkeypatch.setattr(gaussian, "standard_normals", counted)
        run()
        return streams

    @pytest.mark.parametrize("instance, calls_per_class", [
        ("logistic_gmm", 1), ("square_gmm", 1), ("ridge", 2), ("two_token", 2)])
    def test_label_cores_drawn_only_when_read(self, monkeypatch, instance, calls_per_class):
        # the closed-form test error draws nothing; the reference draws xi
        # per class, and zeta too for a metric that reads labels
        spec, fixed, params = _solved(instance)
        laws = token_laws(params, fixed)
        assert self._streams(
            monkeypatch, lambda: solver_test_error(params, fixed, spec, self.PLAN)) == []
        streams = self._streams(monkeypatch, lambda: _sampled_metric(laws, spec, params.v,
                                                                     [self.PLAN]))
        n_classes = len(spec.class_law.support)
        assert len(streams) == calls_per_class * n_classes
        assert sorted(streams)[:n_classes] == [TEST_STREAM + i for i in range(n_classes)]

    def test_label_free_sampled_metric_draws_xi_only(self, monkeypatch):
        # without labels one xi draw per class, and the xi a labelled draw makes
        spec, fixed, params = _solved("logistic_gmm")
        laws = token_laws(params, fixed)
        classes = list(enumerate(spec.class_law.support))
        nodes = []
        streams = self._streams(monkeypatch, lambda: nodes.extend(
            gaussian.joint_xy_nodes(laws, c, self.PLAN, c_index=i, with_y=False)
            for i, c in classes))
        assert streams == [TEST_STREAM, TEST_STREAM + 1]
        for (i, c), (_, X, Y) in zip(classes, nodes):
            _, X_labelled, _ = gaussian.joint_xy_nodes(laws, c, self.PLAN, c_index=i)
            np.testing.assert_array_equal(X, X_labelled)
            assert not Y.any()

    def test_holdout_draws_are_never_kept(self):
        # neither a test error under a 400,000-draw plan, as verify asks for
        # one, nor a reference of that size may stay resident in the
        # common-random-number core cache
        spec, fixed, params = _solved("two_token")
        before = gaussian._crn_normals.cache_info()
        plan = McPlan(n_samples=400_000, seed=23)
        solver_test_error(params, fixed, spec, plan)
        gaussian.joint_xy_nodes(token_laws(params, fixed), spec.class_law.support[0], plan)
        assert gaussian._crn_normals.cache_info() == before

    @pytest.mark.parametrize("instance", ["ridge", "two_token"])
    def test_estimate_is_the_xi_stream_rebuilt(self, instance):
        spec, fixed, params = _solved(instance)
        plan = McPlan(n_samples=200_000, seed=1001, antithetic=False)
        laws = token_laws(params, fixed)
        for c_index, (c, X_ref, Y_ref) in enumerate(_rebuilt_nodes(laws, spec, plan)):
            _, X, Y = gaussian.joint_xy_nodes(laws, c, plan, c_index=c_index)
            np.testing.assert_array_equal(X, X_ref)
            np.testing.assert_array_equal(Y, Y_ref)
