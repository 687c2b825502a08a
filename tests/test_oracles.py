"""Ridge references: the resolvent oracle and the finite-d fits."""

import numpy as np
import pytest
from scipy.linalg import blas, cho_solve, cholesky, solveh_banded

from seqmix import oracles
from seqmix.errors import SpecValidationError
from seqmix.oracles import _one_ridge_fit, _solve_tridiagonal, finite_d_ridge, resolvent_trace


def dense_ridge_fit(alpha: float, lam: float, d: int, seed: int) -> tuple[float, float]:
    """Reference fit on an explicit n x d Gaussian design, w* = ones.

    Single-precision normal equations with Gram matrices from symmetric
    rank-k updates, solved by Cholesky in the dual form when n <= d.
    """
    n = int(round(alpha * d))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x41D6E]))
    X = rng.standard_normal((n, d), dtype=np.float32)
    w_star = np.ones(d, dtype=np.float32)
    y = X @ w_star / np.float32(np.sqrt(d))
    if n <= d:
        # dual form: w = X^T (X X^T / d + lam I)^-1 y / sqrt(d)
        G = blas.ssyrk(1.0 / d, X, lower=1)
        G[np.diag_indices(n)] += lam
        w = X.T @ cho_solve((cholesky(G, lower=True), True), y) / np.sqrt(d)
    else:
        A = blas.ssyrk(1.0 / d, X, trans=1, lower=1)
        A[np.diag_indices(d)] += lam
        w = cho_solve((cholesky(A, lower=True), True), X.T @ y / np.sqrt(d))
    resid = (y - X @ w.astype(np.float32) / np.float32(np.sqrt(d))).astype(np.float64)
    w = w.astype(np.float64)
    eg = 0.5 * float(np.sum((w - 1.0) ** 2)) / d
    et = (0.5 * float(resid @ resid) + 0.5 * lam * float(w @ w)) / d
    return eg, et


def scipy_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The same system through scipy's banded solver (LAPACK ptsv, or pbsv
    for d = 1, where the band is the diagonal alone)."""
    band = np.vstack([np.concatenate([[0.0], off]), diag])
    return solveh_banded(band[-min(len(diag), 2):], rhs)


def _mean_and_std_sigmas(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Differences of sample means and of sample stds between two
    independent samples, in pooled standard errors.  The std's standard
    error uses the fourth central moment, so it holds for skewed laws."""

    def std_se(x):
        s = x.std(ddof=1)
        m4 = np.mean((x - x.mean()) ** 4)
        return np.sqrt(max(m4 - s**4, 0.0) / len(x)) / (2.0 * s)

    mean_sig = abs(a.mean() - b.mean()) / np.hypot(
        a.std(ddof=1) / np.sqrt(len(a)), b.std(ddof=1) / np.sqrt(len(b))
    )
    std_sig = abs(a.std(ddof=1) - b.std(ddof=1)) / np.hypot(std_se(a), std_se(b))
    return float(mean_sig), float(std_sig)


class TestResolventTrace:
    def test_self_consistency(self):
        g = resolvent_trace(1.5, 0.2)
        assert g == pytest.approx(1.0 / (0.2 + 1.5 / (1.0 + g)), rel=1e-12)

    def test_nonpositive_lambda_is_validation_error(self):
        with pytest.raises(SpecValidationError):
            resolvent_trace(1.0, 0.0)

    def test_closed_form_meets_the_equation(self):
        # a bisection stopped on an absolute width, and was off by up to
        # 2.6e-11 relative where g is small (lam = 1e4)
        eps = np.finfo(float).eps
        for alpha in np.logspace(-3, 4, 29):
            for lam in np.logspace(-8, 4, 25):
                g = resolvent_trace(float(alpha), float(lam))
                assert abs(g * (lam + alpha / (1.0 + g)) - 1.0) <= 4 * eps, (alpha, lam)


class TestSolveTridiagonal:
    @pytest.mark.parametrize("d", [1, 2, 3, 50, 4000])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_oracle_systems_match_scipy_bit_for_bit(self, monkeypatch, alpha, d):
        systems = []

        def recording(diag, off, rhs):
            x = _solve_tridiagonal(diag, off, rhs)
            systems.append((diag, off, rhs, x))
            return x

        monkeypatch.setattr(oracles, "_solve_tridiagonal", recording)
        for seed in range(4):
            _one_ridge_fit(alpha, 0.1, d, seed)
        assert len(systems) == 4
        for diag, off, rhs, x in systems:
            assert x.tobytes() == scipy_tridiagonal(diag, off, rhs).tobytes()

    def test_random_spd_systems_match_scipy_bit_for_bit(self):
        # off-diagonals of both signs and scales from 1e-3 to 1e3, made
        # positive definite by diagonal dominance
        rng = np.random.default_rng(5)
        for trial in range(300):
            d = 1 + trial % 40
            off = rng.standard_normal(d - 1) * 10.0 ** rng.uniform(-3, 3)
            pad = np.abs(np.concatenate([[0.0], off, [0.0]]))
            diag = pad[:-1] + pad[1:] + rng.exponential(1.0, d)
            rhs = rng.standard_normal(d)
            x = _solve_tridiagonal(diag, off, rhs)
            assert x.tobytes() == scipy_tridiagonal(diag, off, rhs).tobytes()


class TestFiniteDRidge:
    @pytest.mark.parametrize(
        "alpha, lam, d, seeds",
        [(0.5, 0.0, 50, range(3)), (1.0, -0.1, 50, range(3)), (1.0, 0.1, 50, range(1)),
         (-0.5, 0.1, 50, [0, 1]), (float("nan"), 0.1, 50, [0, 1]),
         (float("inf"), 0.1, 50, [0, 1]), (1.0, 0.1, 0, [0, 1]), (1.0, 0.1, -3, [0, 1]),
         (1.0, 0.1, 2.5, [0, 1])],
        ids=["lam-zero", "lam-negative", "one-seed", "alpha-negative", "alpha-nan",
             "alpha-inf", "d-zero", "d-negative", "d-fractional"],
    )
    def test_invalid_input_is_validation_error(self, alpha, lam, d, seeds):
        # before validation: a singular pivot, a negative training loss, a
        # NaN stderr, and for a bad alpha or d a bare ValueError,
        # OverflowError or TypeError
        with pytest.raises(SpecValidationError):
            finite_d_ridge(alpha, lam, d, seeds)

    @pytest.mark.parametrize("d, n_seeds", [(200, 200), (12, 4000)])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_bidiagonal_matches_dense_in_distribution(self, alpha, d, n_seeds):
        # n < d, n = d and n > d; at d = 12 an off-by-one in a chi degree,
        # or a short row n < d losing its superdiagonal entry (alpha =
        # 0.25), shifts the law by several sigma.  The dense seeds are
        # disjoint from the bidiagonal ones so the two samples are independent
        lam = 0.1
        fast = np.array([_one_ridge_fit(alpha, lam, d, s) for s in range(n_seeds)])
        dense = np.array(
            [dense_ridge_fit(alpha, lam, d, 10_000 + s) for s in range(n_seeds)]
        )
        for j, name in enumerate(("eg", "et")):
            mean_sig, std_sig = _mean_and_std_sigmas(fast[:, j], dense[:, j])
            assert mean_sig <= 3.0, f"{name} mean off by {mean_sig:.2f} sigma"
            assert std_sig <= 3.0, f"{name} std off by {std_sig:.2f} sigma"

    def test_summary_over_seeds(self):
        eg, eg_se, et, et_se = finite_d_ridge(1.0, 0.1, 50, range(5))
        fits = np.array([_one_ridge_fit(1.0, 0.1, 50, s) for s in range(5)])
        assert eg == pytest.approx(fits[:, 0].mean(), rel=1e-12)
        assert et_se == pytest.approx(fits[:, 1].std(ddof=1) / np.sqrt(5), rel=1e-12)
        assert eg_se > 0.0

    def test_tiny_sizes(self):
        # d = 1 has no superdiagonal; one row with its superdiagonal entry,
        # n = d = 2, and n = 0
        for alpha, d in ((1.0, 1), (3.0, 1), (0.5, 2), (1.0, 2), (0.01, 20)):
            eg, et = _one_ridge_fit(alpha, 0.1, d, 0)
            assert np.isfinite(eg) and np.isfinite(et) and eg >= 0.0 and et >= 0.0
        assert _one_ridge_fit(0.01, 0.1, 20, 0) == (0.5, 0.0)
