"""Problem-definition types: fixed statistics, validation, invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from seqmix.errors import SingularSystemError, SpecValidationError
from seqmix.model import (
    ClassLaw,
    compute_fixed_statistics,
    ConjugateParameters,
    Dimensions,
    eigh,
    inverse,
    LossModel,
    make_atom,
    ModelSpec,
    OrderParameters,
    solve,
    SpectralAtom,
    SpectralMeasure,
    validate_spec,
)
from seqmix.losses import logistic_gmm_loss, square_loss, squared_error_mean
from seqmix.zoo import gmm_instance, ridge_instance, two_token_instance


def dims1() -> Dimensions:
    return Dimensions(L=1, r=1, t=1, K=(1,), alpha=1.0, lam=0.1)


class TestFixedStatistics:
    def test_single_atom(self):
        d = dims1()
        nu = SpectralMeasure((make_atom(d, 1.0, gamma=1.0, tau=0.0, pi=1.0),))
        fixed = compute_fixed_statistics(nu, d)
        np.testing.assert_allclose(fixed.rho[(0, 0)], [[1.0]])
        np.testing.assert_allclose(fixed.m_star[(0, 0)], [0.0])

    def test_two_symmetric_atoms(self):
        d = dims1()
        nu = SpectralMeasure(
            (
                make_atom(d, 0.5, gamma=1.0, tau=0.0, pi=1.0),
                make_atom(d, 0.5, gamma=1.0, tau=0.0, pi=-1.0),
            )
        )
        fixed = compute_fixed_statistics(nu, d)
        np.testing.assert_allclose(fixed.rho[(0, 0)], [[1.0]])
        np.testing.assert_allclose(fixed.m_star[(0, 0)], [0.0])

    def test_matches_finite_d_instance(self):
        # brute-force oracle: build a d = 200 instance with diagonal
        # covariances, compute w*^T Sigma w* / d and mu^T w* / sqrt(d)
        # directly, then compare with the atom-sum route
        rng = np.random.default_rng(42)
        d, t = 200, 2
        dims = Dimensions(L=1, r=1, t=t, K=(2,), alpha=1.0, lam=0.1)
        levels = [(0.5, 1.5), (2.0, 0.25)]  # (gamma_k0, gamma_k1) per half
        taus = [(0.8, -0.3), (-1.1, 0.6)]
        pis = rng.standard_normal((2, t))

        eig = {key: np.empty(d) for key in dims.lk_pairs()}
        mu = {key: np.empty(d) for key in dims.lk_pairs()}
        w_star = np.empty((d, t))
        half = d // 2
        for i in range(d):
            a = 0 if i < half else 1
            for k in range(2):
                eig[(0, k)][i] = levels[a][k]
                mu[(0, k)][i] = taus[a][k] / np.sqrt(d)
            w_star[i] = pis[a]

        atoms = tuple(
            make_atom(
                dims, 0.5,
                gamma={(0, 0): levels[a][0], (0, 1): levels[a][1]},
                tau={(0, 0): taus[a][0], (0, 1): taus[a][1]},
                pi=pis[a],
            )
            for a in range(2)
        )
        fixed = compute_fixed_statistics(SpectralMeasure(atoms), dims)
        for k in range(2):
            rho_direct = (w_star * eig[(0, k)][:, None]).T @ w_star / d
            m_direct = mu[(0, k)] @ w_star / np.sqrt(d)
            np.testing.assert_allclose(fixed.rho[(0, k)], rho_direct, atol=1e-10)
            np.testing.assert_allclose(fixed.m_star[(0, k)], m_direct, atol=1e-10)

    def test_linear_in_measure(self):
        d = dims1()
        nu1 = SpectralMeasure((make_atom(d, 1.0, gamma=2.0, tau=1.0, pi=0.7),))
        nu2 = SpectralMeasure((make_atom(d, 1.0, gamma=0.5, tau=-1.0, pi=1.3),))
        mixed = SpectralMeasure(tuple(
            SpectralAtom(0.5 * a.weight, a.gamma, a.tau, a.pi)
            for a in nu1.atoms + nu2.atoms
        ))
        f1 = compute_fixed_statistics(nu1, d)
        f2 = compute_fixed_statistics(nu2, d)
        fm = compute_fixed_statistics(mixed, d)
        np.testing.assert_array_equal(
            fm.rho[(0, 0)], 0.5 * f1.rho[(0, 0)] + 0.5 * f2.rho[(0, 0)]
        )
        np.testing.assert_array_equal(
            fm.m_star[(0, 0)], 0.5 * f1.m_star[(0, 0)] + 0.5 * f2.m_star[(0, 0)]
        )

    def test_mismatched_atom_raises(self):
        d = dims1()
        other = Dimensions(L=2, r=1, t=1, K=(1, 1), alpha=1.0, lam=0.1)
        atom = make_atom(other, 1.0, gamma=[1.0, 2.0], tau=0.0, pi=1.0)
        with pytest.raises(SpecValidationError):
            compute_fixed_statistics(SpectralMeasure((atom,)), d)


class TestValidateSpec:
    def test_wellformed_instances_pass(self):
        for spec in (ridge_instance(), gmm_instance(), two_token_instance()):
            assert validate_spec(spec) == []

    def test_bad_class_probs(self):
        spec = ridge_instance()
        bad = ModelSpec(
            dims=spec.dims,
            class_law=ClassLaw(((0,),), (0.9,)),
            nu=spec.nu,
            loss=spec.loss,
        )
        report = validate_spec(bad)
        assert len(report) == 1 and "ClassLaw" in report[0]

    def test_wrong_gradient_flagged(self):
        spec = ridge_instance()
        broken = square_loss()
        broken.grad_X = lambda Y, X, v, c: 2.0 * (X - Y)
        bad = ModelSpec(spec.dims, spec.class_law, spec.nu, broken)
        report = validate_spec(bad)
        assert any("grad_X" in line for line in report)

    def test_sample_axis_mixing_flagged(self):
        # hooks that answer every sample with sample 0's value
        spec = gmm_instance()
        first_grad = logistic_gmm_loss()
        good_grad = first_grad.grad_X
        first_grad.grad_X = lambda Y, X, v, c: np.broadcast_to(
            good_grad(Y, X, v, c)[:1], X.shape)
        first_hess = logistic_gmm_loss()
        good_hess = first_hess.hess_X
        first_hess.hess_X = lambda Y, X, v, c: good_hess(Y[:1], X[:1], v, c[:1])
        for loss, hook in ((first_grad, "grad_X"), (first_hess, "hess_X")):
            report = validate_spec(ModelSpec(spec.dims, spec.class_law, spec.nu, loss))
            assert any(hook in line for line in report), hook

    def test_total_lk_maps(self):
        spec = two_token_instance()
        keys = set(spec.dims.lk_pairs())
        fixed = compute_fixed_statistics(spec.nu, spec.dims)
        assert set(fixed.rho) == keys and set(fixed.m_star) == keys


class TestClassLaw:
    def test_sampling_frequencies(self):
        law = ClassLaw.uniform([(0,), (1,)])
        rng = np.random.default_rng(3)
        draws = law.sample(rng, 20000)
        frac = float(np.mean(draws[:, 0] == 0))
        assert abs(frac - 0.5) < 0.02

    def test_tuple_range_checked(self):
        d = Dimensions(L=1, r=1, t=1, K=(2,), alpha=1.0, lam=0.1)
        law = ClassLaw(((0,), (2,)), (0.5, 0.5))
        assert any("outside" in s for s in law.violations(d))


class TestKeyedBlocks:
    @pytest.mark.parametrize("cls, names", [
        (OrderParameters, ["q_0_0", "V_0_0", "m_0_0", "theta_0_0",
                           "q_1_0", "V_1_0", "m_1_0", "theta_1_0", "v"]),
        (ConjugateParameters, ["q_hat_0_0", "V_hat_0_0", "m_hat_0_0", "theta_hat_0_0",
                               "q_hat_1_0", "V_hat_1_0", "m_hat_1_0", "theta_hat_1_0",
                               "v_hat"]),
    ])
    def test_blocks_copy_and_mix_on_two_token(self, cls, names):
        dims = two_token_instance().dims
        rng = np.random.default_rng(8)
        state = cls.zeros(dims)
        blocks = state.blocks()
        for a in blocks.values():
            a[...] = rng.standard_normal(a.shape)
        assert list(blocks) == names
        assert [b.shape for b in blocks.values()] == [
            (1, 1), (1, 1), (1,), (1, 1)] * 2 + [(1, 1)]

        dup = state.copy()
        assert type(dup) is cls
        for name, a in dup.blocks().items():
            np.testing.assert_array_equal(a, blocks[name])
            assert not np.shares_memory(a, blocks[name])

        assert state.mix(dup, 0.0) is state
        assert state.mix(None, 0.5) is state
        mixed = state.mix(cls.zeros(dims), 0.25)
        for name, a in mixed.blocks().items():
            np.testing.assert_array_equal(a, 0.75 * blocks[name])


# The closed-form 2 x 2 inverse and solve may differ from LAPACK's by this
# many cond_2(M) eps in relative Frobenius norm; 200,000 random SPD and
# nonsymmetric matrices with magnitudes e^+-20 reach 1.3 (inverse) and 1.8
# (solve).
SMALL_SYSTEM_FACTOR = 4.0
EPS = np.finfo(float).eps

# magnitudes of 1e-6 to 1e6 (and zero), where LAPACK's results stay in
# range; test_2x2_out_of_determinant_range takes the extremes
_entries = st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@st.composite
def _systems(draw):
    """(A, B): a 2 x 2 matrix shared (2-D) or a stack of them (3-D), SPD or
    not, and a stack of right-hand sides (S, 2, k)."""
    S, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    shared = draw(st.booleans())
    G = draw(arrays(float, (2, 2) if shared else (S, 2, 2), elements=_entries))
    A = G @ np.swapaxes(G, -1, -2) if draw(st.booleans()) else G
    return A, draw(arrays(float, (S, 2, k), elements=_entries))


def _close_to_lapack(ours, lapack, A):
    """Every matrix of A with cond_2 below 1e13 has its result within
    SMALL_SYSTEM_FACTOR cond eps of LAPACK's; above it the bound says little."""
    with np.errstate(all="ignore"):
        cond = np.broadcast_to(np.linalg.cond(A), lapack.shape[:-2])
    well_posed = cond < 1e13
    # norms of the results over their largest entries, which stay in range
    top = np.max(np.abs(lapack), axis=(-2, -1), keepdims=True)
    top[top == 0.0] = 1.0
    scale = np.linalg.norm(lapack / top, axis=(-2, -1))
    err = np.linalg.norm((ours - lapack) / top, axis=(-2, -1))
    assert np.all(err[well_posed] <= SMALL_SYSTEM_FACTOR * cond[well_posed] * EPS * scale[well_posed])


class TestSmallSystems:
    def test_1x1_is_lapack_bit_for_bit(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2000, 1, 1)) * np.exp(rng.uniform(-20, 20, (2000, 1, 1)))
        B = rng.standard_normal((2000, 1, 1)) * np.exp(rng.uniform(-20, 20, (2000, 1, 1)))
        np.testing.assert_array_equal(inverse(A, "A"), np.linalg.inv(A))
        np.testing.assert_array_equal(solve(A, B, "A"), np.linalg.solve(A, B))
        np.testing.assert_array_equal(solve(A[0], B, "A"), np.linalg.solve(A[0], B))

    @pytest.mark.parametrize("a", [0.0, -0.0, 1e-13, -5e-9, 4.0, np.inf, np.nan])
    def test_1x1_eigh_is_lapack_bit_for_bit(self, a):
        # 1e-13 lies below gaussian.EIG_CLIP and -5e-9 is clipped there
        A = np.array([[a]])
        w, U = eigh(A)
        ref_w, ref_U = np.linalg.eigh(A)
        assert w.tobytes() == ref_w.tobytes() and U.tobytes() == ref_U.tobytes()
        assert eigh(A, vectors=False).tobytes() == np.linalg.eigvalsh(A).tobytes()

    def test_eigh_stacks_and_larger_n_are_lapack(self):
        rng = np.random.default_rng(5)
        for n in (1, 3):
            M = rng.standard_normal((20, n, n))
            A = M + np.swapaxes(M, -1, -2)
            w, U = eigh(A)
            ref_w, ref_U = np.linalg.eigh(A)
            assert w.tobytes() == ref_w.tobytes() and U.tobytes() == ref_U.tobytes()
            assert eigh(A, vectors=False).tobytes() == np.linalg.eigvalsh(A).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_systems())
    def test_2x2_within_cond_eps_of_lapack(self, system):
        A, B = system
        try:
            lapack_inv, lapack_sol = np.linalg.inv(A), np.linalg.solve(A, B)
        except np.linalg.LinAlgError:
            return
        try:
            ours_inv, ours_sol = inverse(A, "A"), solve(A, B, "A")
        except SingularSystemError:
            # only a numerically singular matrix has an exactly zero
            # scaled determinant where LAPACK's pivots are all nonzero
            assert np.max(np.linalg.cond(A)) > 1e12
            return
        assert ours_inv.shape == lapack_inv.shape and ours_sol.shape == lapack_sol.shape
        _close_to_lapack(ours_inv, lapack_inv, A)
        _close_to_lapack(ours_sol, lapack_sol, A)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_2x2_out_of_determinant_range(self, scale):
        # the raw determinant a d - b c underflows (or overflows) here
        B = np.array([[1.0], [2.0]])
        for A in (scale * np.eye(2), scale * np.array([[2.0, 1.0], [-1.0, 3.0]])):
            _close_to_lapack(inverse(A, "A"), np.linalg.inv(A), A)
            _close_to_lapack(solve(A, B, "A"), np.linalg.solve(A, B), A)

    @pytest.mark.parametrize("A", [
        np.array([[[2.0]], [[0.0]]]),
        np.array([[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]]]),
        np.zeros((2, 2)),
    ], ids=["1x1", "2x2", "2x2-zero"])
    def test_exactly_singular_raises(self, A):
        B = np.ones(A.shape[:-1] + (1,))
        with pytest.raises(SingularSystemError, match="the test system is singular"):
            inverse(A, "the test system")
        with pytest.raises(SingularSystemError, match="the test system is singular"):
            solve(A, B, "the test system")

    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_propagates(self, n):
        A = np.stack([np.eye(n), np.eye(n)])
        A[1, 0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv, sol = inverse(A, "A"), solve(A, np.ones((2, n, 1)), "A")
        np.testing.assert_array_equal(inv[0], np.eye(n))
        assert np.isnan(inv[1, 0, 0]) and np.isnan(sol[1, 0, 0])

    def test_3x3_is_lapack(self):
        rng = np.random.default_rng(4)
        A, B = rng.standard_normal((5, 3, 3)), rng.standard_normal((5, 3, 2))
        np.testing.assert_array_equal(inverse(A, "A"), np.linalg.inv(A))
        np.testing.assert_array_equal(solve(A, B, "A"), np.linalg.solve(A, B))
        with pytest.raises(SingularSystemError, match="A3 is singular"):
            solve(np.ones((3, 3)), B[0], "A3")


class TestMinimalLoss:
    """A user loss with only the required hooks: no d3 (it does not read v)
    and no prox (the generic Newton solves it)."""

    @staticmethod
    def _minimal_square(spec) -> ModelSpec:
        def ev(Ys, Xs, v, cs):
            return 0.5 * np.sum((Ys - Xs) ** 2, axis=(-2, -1))

        def hess(Ys, Xs, v, cs):
            n = Xs.shape[-2] * Xs.shape[-1]
            return np.tile(np.eye(n), (len(Xs), 1, 1))

        loss = LossModel(name="minimal_square", eval=ev, grad_X=lambda Ys, Xs, v, cs: Xs - Ys,
                         hess_X=hess, test_mean=squared_error_mean)
        return ModelSpec(spec.dims, spec.class_law, spec.nu, loss, "minimal")

    def test_runs_every_pipeline_as_the_shipped_square_loss(self):
        from seqmix.erm import erm_train, TrainConfig
        from seqmix.gamp import gamp_run, generate_dataset, rbp_run
        from seqmix.gaussian import McPlan
        from seqmix.saddle import solve_fixed_point, SolverConfig

        shipped = two_token_instance(alpha=1.5, lam=0.1)
        minimal = self._minimal_square(shipped)
        assert not minimal.loss.depends_on_v
        assert validate_spec(minimal) == []

        cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=500, mc_plan=McPlan(gh_order=7))
        a, b = (solve_fixed_point(s, s.nu, cfg) for s in (minimal, shipped))
        assert a.converged
        np.testing.assert_allclose(a.params.flat(), b.params.flat(), atol=1e-8)

        data = generate_dataset(shipped, shipped.nu, d=60, n=90, seed=3)
        a, b = (gamp_run(data, s, max_iters=300, tol=1e-10, damping=0.3)
                for s in (minimal, shipped))
        assert a.converged
        np.testing.assert_allclose(a.w_hat, b.w_hat, atol=1e-8)

        small = generate_dataset(shipped, shipped.nu, d=20, n=30, seed=4)
        (w_a, rec), (w_b, _) = (rbp_run(small, s, max_iters=300, tol=1e-11)
                                for s in (minimal, shipped))
        assert rec.converged
        np.testing.assert_allclose(w_a, w_b, atol=1e-8)

        fit = erm_train(data, minimal, config=TrainConfig(grad_tol=1e-8))
        assert fit.converged
        np.testing.assert_allclose(fit.w_hat, b.w_hat, atol=1e-6)
