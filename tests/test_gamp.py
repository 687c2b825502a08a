"""Dataset generation, message passing, and the gradient bridge."""

import dataclasses
import mmap
import tracemalloc

import numpy as np
import pytest

from seqmix.errors import SingularSystemError, SolverDivergenceError, SpecValidationError
from seqmix.gamp import (
    Dataset,
    GeneratorMetadata,
    _atom_counts,
    _backproject,
    _excluded_noise_blocks,
    _noise_blocks,
    _onsager_blocks,
    _onsager_contributions,
    _project,
    _squared_design,
    empirical_risk_and_grad,
    empirical_statistics,
    gamp_run,
    gd_gradient_norm,
    generate_dataset,
    rbp_run,
)
from seqmix.losses import square_loss_with_energy, zero_loss
from seqmix.model import make_atom, ModelSpec, SpectralMeasure
from seqmix.verify import _trajectory_deviation, GMM_LAM, SE_GAMP_REL_DEV
from seqmix.zoo import INSTANCES, gmm_instance, ridge_instance, two_token_instance


def masked_generate_dataset(spec, nu, d, n, seed):
    """Reference generator: each cluster's rows gathered, scaled and scattered."""
    dims = spec.dims
    atom_of = np.repeat(np.arange(len(nu.atoms)),
                        _atom_counts(np.array([a.weight for a in nu.atoms]), d))
    eigenvalues, means = {}, {}
    for key in dims.lk_pairs():
        eigenvalues[key] = np.array([nu.atoms[a].gamma[key] for a in atom_of])
        means[key] = np.array([nu.atoms[a].tau[key] for a in atom_of]) / np.sqrt(d)
    teacher = np.stack([nu.atoms[a].pi for a in atom_of])
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
    meta = GeneratorMetadata(eigenvalues, means)
    return Dataset(X=X, y=y, c=c, teacher=teacher, meta=meta)


def assert_close(actual, reference):
    # rtol 1e-12, with an absolute floor for entries that cancel to ~0
    scale = float(np.max(np.abs(reference)))
    np.testing.assert_allclose(actual, reference, rtol=1e-12, atol=1e-14 * scale)


def assert_single_precision(actual, reference, abs_sum, terms):
    """A sum of `terms` products taken in float32 on float64 operands.

    Each term carries three roundings to float32 (the squared-design entry,
    the small operand and their product), and the sum at most terms - 1
    more, whatever the order BLAS adds in.  So the error of an entry is at
    most gamma_(terms + 2) sum |term| with gamma_k = k u / (1 - k u) and
    u = eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Lemma 3.1 and Section 3.1); the bound below uses eps for u,
    twice the rigorous bound.  `abs_sum` is that sum of |term| per entry
    (scaled as `reference`)."""
    eps = float(np.finfo(np.float32).eps)
    np.testing.assert_array_less(np.abs(actual - reference), (terms + 2) * eps * abs_sum)


class TestGenerateDataset:
    def test_single_atom_isotropic(self):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=400, n=300, seed=0)
        norms = np.sum(data.X[:, 0, :] ** 2, axis=1) / 400
        # ||x||^2/d concentrates at the mean eigenvalue with std ~ sqrt(2/d)
        se = np.sqrt(2.0 / 400) / np.sqrt(300)
        assert abs(float(norms.mean()) - 1.0) < 4.0 * se

    def test_labels_exact(self):
        spec = two_token_instance()
        data = generate_dataset(spec, spec.nu, d=128, n=64, seed=1)
        expected = np.einsum("nld,dt->nlt", data.X, data.teacher) / np.sqrt(128)
        np.testing.assert_allclose(data.y, expected, atol=1e-12)

    def test_class_conditional_means(self):
        spec = gmm_instance()
        data = generate_dataset(spec, spec.nu, d=200, n=4000, seed=2)
        mu = data.meta.means[(0, 0)]
        for k, sign in ((0, 1.0), (1, -1.0)):
            mask = data.c[:, 0] == k
            emp = data.X[mask, 0, :].mean(axis=0)
            agg = float(emp @ mu) / float(mu @ mu)  # projection onto mu
            se = np.sqrt(0.5 / (mu @ mu) / mask.sum())
            assert abs(agg - sign) < 4.0 * se

    @pytest.mark.parametrize("instance", sorted(INSTANCES))
    def test_matches_masked_reference(self, instance, monkeypatch):
        spec = INSTANCES[instance]()
        # n = 1 leaves one cluster of the two-class mixtures empty; blocks of
        # 1, 3 and 7 rows split the draws at block edges, most of them ending
        # in a partial block, and the default block holds every row
        for block_rows in (None, 1, 3, 7):
            for seed, d, n in ((0, 64, 1), (1, 64, 3), (2, 128, 50), (3, 33, 17)):
                if block_rows is not None:
                    monkeypatch.setattr("seqmix.gamp.DRAW_BLOCK_BYTES", block_rows * 8 * d)
                got = generate_dataset(spec, spec.nu, d=d, n=n, seed=seed)
                ref = masked_generate_dataset(spec, spec.nu, d=d, n=n, seed=seed)
                for name in ("X", "y", "c", "teacher"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_draws_without_a_design_sized_scratch(self):
        # tracemalloc sees numpy's heap buffers but not the mapped X: a
        # scratch of one token's design (n d 8 bytes) would show in the peak
        spec = two_token_instance()
        d, n = 1000, 1200
        # a first call's lazy imports (about 0.8 MB) are not scratch
        generate_dataset(spec, spec.nu, d=8, n=2, seed=0)
        tracemalloc.start()
        try:
            generate_dataset(spec, spec.nu, d=d, n=n, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4

    def test_design_matrices_in_maps_of_their_own(self, monkeypatch):
        # X and the squared designs bypass malloc, so freeing them leaves no
        # hole in the heap; a design with no samples is rejected there.
        # GAMP builds a single-precision squared design, half of X's bytes
        # at L = 1, and rBP a double-precision one
        built = []

        def record(X, dtype):
            built.append(_squared_design(X, dtype))
            return built[-1]

        monkeypatch.setattr("seqmix.gamp._squared_design", record)
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=40, n=30, seed=0)
        gamp_run(data, spec, max_iters=1)
        rbp_run(data, spec, max_iters=1)
        gamp_design, rbp_design = built
        for array in (data.X, gamp_design, rbp_design):
            base = array
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base.obj, mmap.mmap)
            assert len(base.obj) == array.nbytes
        assert data.X.dtype == rbp_design.dtype == np.float64
        assert gamp_design.dtype == np.float32
        assert 2 * gamp_design.nbytes == data.X.nbytes
        for n in (0, -5, 2.5):
            with pytest.raises(SpecValidationError, match="no samples"):
                generate_dataset(spec, spec.nu, d=40, n=n, seed=0)
        with pytest.raises(SpecValidationError, match="no samples"):
            _squared_design(data.X[:0], np.float32)

    def test_d_smaller_than_atoms_rejected(self):
        spec = two_token_instance()
        with pytest.raises(SpecValidationError):
            generate_dataset(spec, spec.nu, d=1, n=4, seed=0)

    def test_statistics_of_teacher(self):
        # plugging the teacher itself into the statistics recovers rho
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=100, n=10, seed=3)
        stats = empirical_statistics(data.teacher, np.ones((100, 1, 1)), data)
        assert stats.q[(0, 0)][0, 0] == pytest.approx(1.0)
        assert stats.theta[(0, 0)][0, 0] == pytest.approx(1.0)
        # V is the eigenvalue-weighted mean of c_hat; ridge has unit eigenvalues
        assert stats.V[(0, 0)][0, 0] == pytest.approx(1.0)

    def test_zero_weights_zero_statistics(self):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=50, n=10, seed=4)
        stats = empirical_statistics(np.zeros((50, 1)), np.zeros((50, 1, 1)), data)
        assert stats.q[(0, 0)][0, 0] == 0.0
        assert stats.V[(0, 0)][0, 0] == 0.0
        assert stats.v[0, 0] == 0.0


class TestContractions:
    """The matmul forms against the einsum definitions they replace."""

    L, r = 3, 2

    def test_gamp_contractions(self):
        L, r, n, d = self.L, self.r, 37, 29
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, L, d))
        c_hat = rng.standard_normal((d, r, r))            # not symmetric
        g = rng.standard_normal((n, L * r, L * r))        # blocks not symmetric
        w = rng.standard_normal((d, r))
        f = rng.standard_normal((n, L, r))
        XX = _squared_design(X, np.float32)               # GAMP's design
        assert XX.shape == (n, L * (L + 1) // 2, d)

        X_abs = np.abs(X)
        V = np.einsum("nli,nki,iab->nlkab", X, X, c_hat) / d
        V_abs = np.einsum("nli,nki,iab->nlkab", X_abs, X_abs, np.abs(c_hat)) / d
        V_got = _noise_blocks(XX, c_hat, L)
        assert V_got.dtype == np.float64
        assert_single_precision(V_got, V.transpose(0, 1, 3, 2, 4).reshape(n, L * r, L * r),
                                V_abs.transpose(0, 1, 3, 2, 4).reshape(n, L * r, L * r), d)
        g_blocks = g.reshape(n, L, r, L, r).transpose(0, 1, 3, 2, 4)
        A = -np.einsum("nli,nki,nlkab->iab", X, X, g_blocks) / d
        A_abs = np.einsum("nli,nki,nlkab->iab", X_abs, X_abs, np.abs(g_blocks)) / d
        A_got = _onsager_blocks(XX, g, L)
        assert A_got.dtype == np.float64
        assert_single_precision(A_got, A, A_abs, n * XX.shape[1])
        assert_close(_project(X, w), np.einsum("nli,ia->nla", X, w) / np.sqrt(d))
        assert_close(_backproject(X, f), np.einsum("nli,nla->ia", X, f) / np.sqrt(d))

    def test_rbp_excluded_blocks(self):
        L, r, n, d = self.L, self.r, 7, 11
        rng = np.random.default_rng(1)
        X = rng.standard_normal((n, L, d))
        c_msg = rng.standard_normal((n, d, r, r))
        g = rng.standard_normal((n, d, L * r, L * r))
        XX = _squared_design(X, np.float64)               # rBP's design

        T_full = np.einsum("nli,nki,niab->nlkab", X, X, c_msg) / d
        own = np.einsum("nli,nki,niab->nilkab", X, X, c_msg) / d
        V_mi = (T_full[:, None] - own).transpose(0, 1, 2, 4, 3, 5)
        assert_close(_excluded_noise_blocks(XX, c_msg, L), V_mi.reshape(n, d, L * r, L * r))
        g_blocks = g.reshape(n, d, L, r, L, r).transpose(0, 1, 2, 4, 3, 5)
        assert_close(_onsager_contributions(XX, g, L),
                     -np.einsum("nli,nki,nilkab->niab", X, X, g_blocks) / d)


def nan_prox_after(spec, calls):
    """spec with a prox that returns NaN from call number `calls` on."""
    count = [0]
    prox = spec.loss.prox

    def bad(anchors, *args):
        count[0] += 1
        out = prox(anchors, *args)
        return out if count[0] <= calls else np.full_like(out, np.nan)

    return ModelSpec(spec.dims, spec.class_law, spec.nu,
                     dataclasses.replace(spec.loss, prox=bad))


class TestFailures:
    RUNS = {
        "gamp": lambda data, spec: gamp_run(data, spec, max_iters=20, damping=0.0),
        "rbp": lambda data, spec: rbp_run(data, spec, max_iters=20),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_non_finite_estimate_raises_divergence(self, run):
        spec = ridge_instance(alpha=2.0, lam=0.1)
        data = generate_dataset(spec, spec.nu, d=20, n=40, seed=16)
        with pytest.raises(SolverDivergenceError) as info:
            self.RUNS[run](data, nan_prox_after(spec, 3))
        assert np.isnan(info.value.residual)
        assert len(info.value.trajectory) == 3 and info.value.iteration == 4
        name = {"gamp": "GAMP", "rbp": "rBP"}[run]
        assert str(info.value) == f"{name} diverged at iteration 4 (relative change nan)"

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_singular_weight_system_raises(self, run):
        # a zero loss without ridge leaves M = lambda I + C + A = 0
        base = ridge_instance(lam=0.0)
        spec = ModelSpec(base.dims, base.class_law, base.nu, zero_loss())
        data = generate_dataset(spec, spec.nu, d=20, n=20, seed=17)
        with pytest.raises(SingularSystemError, match="weight system"):
            self.RUNS[run](data, spec)

    def test_squared_entries_beyond_single_precision_stop_gamp(self):
        # gamma = 1e40 puts the squared design's entries past float32's
        # 3.4e38: they become inf, and GAMP stops at its first iteration
        base = ridge_instance()
        huge = SpectralMeasure((make_atom(base.dims, 1.0, gamma=1e40, tau=0.0, pi=1.0),))
        spec = ModelSpec(base.dims, base.class_law, huge, base.loss)
        data = generate_dataset(spec, spec.nu, d=20, n=20, seed=19)
        with np.errstate(all="ignore"), pytest.raises(SolverDivergenceError) as info:
            self.RUNS["gamp"](data, spec)
        assert info.value.iteration == 1

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_singular_noise_block_raises(self, run):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=20, n=20, seed=18)
        zero = dataclasses.replace(data, X=np.zeros_like(data.X), y=np.zeros_like(data.y))
        with pytest.raises(SingularSystemError, match="noise block"):
            self.RUNS[run](zero, spec)


class TestGamp:
    def test_pure_regularizer(self):
        # a dataset of no samples, which would fit the regularizer alone,
        # is rejected before the first iteration
        spec = ridge_instance(lam=0.5)
        data = generate_dataset(spec, spec.nu, d=30, n=4, seed=5)
        empty = type(data)(
            X=data.X[:0], y=data.y[:0], c=data.c[:0],
            teacher=data.teacher, meta=data.meta,
        )
        with pytest.raises(SpecValidationError, match="no samples"):
            gamp_run(empty, spec, max_iters=1, tol=1e-12, damping=0.0)

    def test_matches_ridge_normal_equations(self):
        spec = ridge_instance(alpha=1.0, lam=0.1)
        d, n = 40, 40
        data = generate_dataset(spec, spec.nu, d=d, n=n, seed=6)
        res = gamp_run(data, spec, max_iters=600, tol=1e-12, damping=0.0)
        X = data.X[:, 0, :]
        w_exact = np.linalg.solve(
            X.T @ X / d + 0.1 * np.eye(d), X.T @ data.y[:, 0, 0] / np.sqrt(d)
        )
        assert res.converged
        np.testing.assert_allclose(res.w_hat[:, 0], w_exact, atol=1e-6)

    @pytest.mark.parametrize("instance, n", [("ridge", 200), ("two_token", 240)])
    def test_fixed_point_is_normal_equation_solution(self, instance, n):
        # the single-precision variance channel (V, A) steers the iteration
        # but drops out at a fixed point, lambda w = X^T f / sqrt(d), so the
        # converged estimate is the ridge solution to float64 accuracy
        d, lam = 200, 0.1
        spec = INSTANCES[instance](alpha=n / d, lam=lam)
        data = generate_dataset(spec, spec.nu, d=d, n=n, seed=0)
        res = gamp_run(data, spec, max_iters=1000, tol=1e-13, damping=0.0)
        X = data.X.reshape(n * spec.dims.L, d)
        w_exact = np.linalg.solve(X.T @ X / d + lam * np.eye(d),
                                  X.T @ data.y.reshape(-1) / np.sqrt(d))
        assert res.converged
        err = np.max(np.abs(res.w_hat[:, 0] - w_exact)) / np.max(np.abs(w_exact))
        assert err <= 1e-11

    def test_deterministic(self):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=60, n=60, seed=7)
        a = gamp_run(data, spec, max_iters=15, tol=1e-15, damping=0.0)
        b = gamp_run(data, spec, max_iters=15, tol=1e-15, damping=0.0)
        np.testing.assert_array_equal(a.w_hat, b.w_hat)

    def test_offdiagonal_noise_blocks_concentrate(self):
        # the per-sample noise-variance blocks are asymptotically diagonal
        # in the token indices
        spec = two_token_instance(alpha=1.0)
        rms = []
        for seed in range(10):
            data = generate_dataset(spec, spec.nu, d=1000, n=1000, seed=seed)
            res = gamp_run(data, spec, max_iters=2, tol=1e-15, damping=0.0)
            # the noise blocks of the third iteration
            V = _noise_blocks(_squared_design(data.X, np.float32), res.c_hat, 2)
            rms.append(np.sqrt(np.mean(V[:, 0, 1] ** 2)))
        assert float(np.mean(rms)) <= 5.0 / np.sqrt(1000)

    def test_fixed_point_is_gd_critical_point(self):
        spec = gmm_instance(alpha=1.5, lam=0.05)
        data = generate_dataset(spec, spec.nu, d=120, n=180, seed=8)
        res = gamp_run(data, spec, max_iters=1000, tol=1e-12, damping=0.0)
        assert res.converged
        bound = 1e-4 * (1.0 + gd_gradient_norm(np.zeros((120, 1)), data, spec))
        assert gd_gradient_norm(res.w_hat, data, spec) <= bound

    def test_v_dependent_loss_fixed_point(self):
        # the weight-energy term feeds back through the C block; the fixed
        # point must still be a critical point of the full risk
        base = ridge_instance(alpha=1.5, lam=0.2)
        spec = ModelSpec(base.dims, base.class_law, base.nu,
                         square_loss_with_energy(0.4))
        data = generate_dataset(spec, spec.nu, d=80, n=120, seed=9)
        res = gamp_run(data, spec, max_iters=2000, tol=1e-12, damping=0.3)
        assert res.converged
        bound = 1e-4 * (1.0 + gd_gradient_norm(np.zeros((80, 1)), data, spec))
        assert gd_gradient_norm(res.w_hat, data, spec) <= bound

    def test_mixture_trajectory_tracks_state_evolution(self):
        # the only trajectory bridge on nonzero cluster means, where m is
        # nonzero: a sqrt(d) slip in the simulator's m read 30.8 here
        dev = _trajectory_deviation(gmm_instance(alpha=1.0, lam=GMM_LAM), d=1000, n_seeds=5)
        assert dev <= SE_GAMP_REL_DEV


class TestRbp:
    def test_agrees_with_gamp_on_quadratic(self):
        d, n = 40, 80
        spec = ridge_instance(alpha=n / d, lam=0.1)
        data = generate_dataset(spec, spec.nu, d=d, n=n, seed=10)
        res = gamp_run(data, spec, max_iters=500, tol=1e-11, damping=0.0)
        w_bp, record = rbp_run(data, spec, max_iters=500, tol=1e-11)
        rms = float(np.sqrt(np.mean((res.w_hat - w_bp) ** 2)))
        assert rms <= 5.0 / np.sqrt(d)
        assert record.converged and len(record.trajectory) == record.iterations

    def test_duplicated_samples_get_identical_messages(self):
        d, n = 24, 8
        spec = ridge_instance(alpha=n / d, lam=0.2)
        data = generate_dataset(spec, spec.nu, d=d, n=n, seed=11)
        # duplicate sample 0 into slot 1
        data.X[1] = data.X[0]
        data.y[1] = data.y[0]
        data.c[1] = data.c[0]
        traj = rbp_run(data, spec, max_iters=8, tol=1e-15)[1].trajectory
        # identical factors receive and emit identical messages, so the
        # statistics are unchanged when the duplicates are swapped
        perm = np.arange(n)
        perm[[0, 1]] = [1, 0]
        data2 = type(data)(
            X=data.X[perm], y=data.y[perm], c=data.c[perm],
            teacher=data.teacher, meta=data.meta,
        )
        traj2 = rbp_run(data2, spec, max_iters=8, tol=1e-15)[1].trajectory
        np.testing.assert_allclose(
            traj[-1].q[(0, 0)], traj2[-1].q[(0, 0)], atol=1e-12
        )

    def test_message_guard(self):
        spec = ridge_instance()
        data = generate_dataset(spec, spec.nu, d=100, n=50, seed=12)
        fake = type(data)(
            X=np.zeros((200_000, 1, 100)), y=np.zeros((200_000, 1, 1)),
            c=np.zeros((200_000, 1), dtype=int), teacher=data.teacher,
            meta=data.meta,
        )
        with pytest.raises(SpecValidationError):
            rbp_run(fake, spec)


class TestGdGradient:
    def test_zero_weights_zero_loss(self):
        from seqmix.losses import zero_loss

        spec = ridge_instance(lam=0.0)
        zspec = ModelSpec(spec.dims, spec.class_law, spec.nu, zero_loss())
        data = generate_dataset(spec, spec.nu, d=30, n=20, seed=13)
        assert gd_gradient_norm(np.zeros((30, 1)), data, zspec) == 0.0

    def test_gradient_matches_finite_differences(self):
        base = ridge_instance(alpha=1.0, lam=0.3)
        spec = ModelSpec(base.dims, base.class_law, base.nu,
                         square_loss_with_energy(0.5))
        data = generate_dataset(spec, spec.nu, d=12, n=10, seed=14)
        rng = np.random.default_rng(15)
        w = rng.standard_normal((12, 1))
        _, grad = empirical_risk_and_grad(w, data, spec)
        h = 1e-6
        fd = np.zeros_like(w)
        for i in range(12):
            wp, wm = w.copy(), w.copy()
            wp[i, 0] += h
            wm[i, 0] -= h
            fp, _ = empirical_risk_and_grad(wp, data, spec)
            fm, _ = empirical_risk_and_grad(wm, data, spec)
            fd[i, 0] = (fp - fm) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        np.testing.assert_allclose(grad, fd, atol=1e-5 * scale)
