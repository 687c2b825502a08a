"""Moreau envelope minimization by each loss's prox, and its sensitivities."""

import numpy as np
import pytest

from seqmix.errors import ProxConvergenceError
from seqmix.losses import (
    _sigmoid, LOGISTIC_PROX_MAX_ITERS, LOSSES, logistic_gmm_loss, square_loss, zero_loss,
)
from seqmix.model import LossModel, solve
from seqmix.prox import prox_gain


def scalar_batch(anchor, V, y=0.0, c=0):
    """(anchors, P, Ys, v, cs) of one scalar problem with precision 1 / V."""
    return (np.full((1, 1, 1), float(anchor)), np.full((1, 1, 1), 1.0 / V),
            np.full((1, 1, 1), float(y)), np.zeros((1, 1)), np.array([[c]]))


def scalar_prox(loss: LossModel, anchor, V, y=0.0, c=0) -> float:
    return float(loss.prox(*scalar_batch(anchor, V, y, c))[0, 0, 0])


def scalar_gain(loss: LossModel, x, anchor, V, y=0.0, c=0) -> float:
    """prox_gain of one scalar problem at the point x."""
    _, P, Ys, v, cs = scalar_batch(anchor, V, y, c)
    return float(prox_gain(loss, Ys, np.full((1, 1, 1), x), P, v, cs)[0, 0, 0])


def stationarity(loss: LossModel, anchors, P, Ys, v, cs, X) -> tuple[np.ndarray, np.ndarray]:
    """|P (X - a) + grad ell| per sample, and the larger of its two terms."""
    S, n = len(X), P.shape[-1]
    pull = np.einsum("sij,sj->si", P, (X - anchors).reshape(S, n))
    grad = np.reshape(loss.grad_X(Ys, X, v, cs), (S, n))
    return (np.abs(pull + grad).max(axis=1),
            np.maximum(np.abs(pull).max(axis=1), np.abs(grad).max(axis=1)))


def logistic_problems(rng, S, log_var, anchor_scale):
    """(anchors, P, Ys, v, cs) of S scalar logistic problems with variances
    exp(U(log_var)) and anchors anchor_scale N(0, 1)."""
    anchors = anchor_scale * rng.standard_normal((S, 1, 1))
    P = np.exp(-rng.uniform(*log_var, size=S))[:, None, None]
    return anchors, P, np.zeros((S, 1, 1)), np.zeros((1, 1)), rng.integers(0, 2, size=(S, 1))


class TestMoreauProx:
    def test_zero_loss_identity(self):
        loss = zero_loss()
        x = scalar_prox(loss, anchor=1.7, V=2.0)
        assert x == pytest.approx(1.7)
        _, _, Ys, v, cs = scalar_batch(1.7, 2.0)
        value = (x - 1.7) ** 2 / 4.0 + loss.eval(Ys, np.full((1, 1, 1), x), v, cs)[0]
        assert value == pytest.approx(0.0)

    def test_scalar_square_stationarity(self):
        # V = 2, anchor = 1, y = 3: (x - 1)/2 + (x - 3) = 0 so x = 7/3
        x = scalar_prox(square_loss(), anchor=1.0, V=2.0, y=3.0)
        assert x == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_generic_newton_matches_closed_form(self):
        # on a quadratic loss one Newton step on the envelope objective, from
        # the anchor and with the loss's own grad_X and hess_X, is exact
        rng = np.random.default_rng(12)
        closed = square_loss()
        for _ in range(10):
            anchors, P, Ys, v, cs = scalar_batch(rng.standard_normal(),
                                                 np.exp(rng.uniform(-1, 1)),
                                                 y=rng.standard_normal())
            step = (closed.grad_X(Ys, anchors, v, cs)[0, 0, 0]
                    / (P[0, 0, 0] + closed.hess_X(Ys, anchors, v, cs)[0, 0, 0]))
            np.testing.assert_allclose(closed.prox(anchors, P, Ys, v, cs)[0, 0, 0],
                                       anchors[0, 0, 0] - step, atol=1e-9)

    def test_logistic_against_grid_search(self):
        rng = np.random.default_rng(5)
        loss = logistic_gmm_loss()
        for _ in range(5):
            anchor = rng.uniform(-2, 2)
            V = np.exp(rng.uniform(-1, 1))
            c = int(rng.integers(2))
            x = scalar_prox(loss, anchor, V, c=c)
            # brute-force oracle on a fine grid around the anchor
            grid = np.linspace(anchor - 4.0, anchor + 4.0, 160_001)
            s = 1.0 if c == 0 else -1.0
            objective = (grid - anchor) ** 2 / (2 * V) + np.logaddexp(0.0, -s * grid)
            x_grid = grid[np.argmin(objective)]
            assert abs(x - x_grid) < 1e-4

    def test_stationarity_postcondition(self):
        # the logistic prox ends at |P (x - a) + grad ell| <= 1e-13 (1 + |a|)
        rng = np.random.default_rng(6)
        loss = logistic_gmm_loss()
        for _ in range(20):
            problem = scalar_batch(rng.standard_normal(), np.exp(rng.uniform(-2, 2)),
                                   c=int(rng.integers(2)))
            residual, _ = stationarity(loss, *problem, loss.prox(*problem))
            assert residual[0] <= 1e-13 * (1.0 + abs(float(problem[0][0, 0, 0])))

    def test_lipschitz_in_anchor(self):
        # convex loss: ||X(a1) - X(a2)||_{V^-1} <= ||a1 - a2||_{V^-1}
        rng = np.random.default_rng(7)
        loss = logistic_gmm_loss()
        for _ in range(10):
            V = np.exp(rng.uniform(-1, 1))
            a1, a2 = rng.standard_normal(2) * 2.0
            x1 = scalar_prox(loss, a1, V)
            x2 = scalar_prox(loss, a2, V)
            assert abs(x1 - x2) <= abs(a1 - a2) + 1e-9

    def test_envelope_value_reported(self):
        # the envelope value at the minimizer, formed from the loss's eval
        loss = square_loss()
        anchors, P, Ys, v, cs = scalar_batch(1.0, 2.0, y=3.0)
        X = loss.prox(anchors, P, Ys, v, cs)
        x = float(X[0, 0, 0])
        value = 0.5 * P[0, 0, 0] * (x - 1.0) ** 2 + float(loss.eval(Ys, X, v, cs)[0])
        expected = (x - 1.0) ** 2 / 4.0 + 0.5 * (3.0 - x) ** 2
        assert value == pytest.approx(expected)

    def test_huge_variance_is_prox_convergence_error(self):
        # at V = 1e40 the root is near u = 87.6 and each Newton step from
        # u = 0 climbs about one unit, more steps than the cap allows; the
        # anchor-start Newton returned the anchor here, residual -0.99995
        problem = scalar_batch(-10.0, 1e40, c=0)
        with pytest.raises(ProxConvergenceError) as info:
            logistic_gmm_loss().prox(*problem)
        assert info.value.iterations == LOGISTIC_PROX_MAX_ITERS
        assert f"after {LOGISTIC_PROX_MAX_ITERS} iterations" in str(info.value)
        assert info.value.x_last.shape == (1, 1)
        assert 50.0 < float(info.value.x_last[0, 0]) < 87.6
        # |x - a + V ell'(x)| at the last iterate, about 5.4e4
        assert info.value.residual > 1e4

    def test_nan_passes_through(self):
        # a NaN anchor or precision is left for the calling loop's
        # divergence guard; the other samples are solved as on their own
        loss = logistic_gmm_loss()
        anchors, P, Ys, v, cs = logistic_problems(np.random.default_rng(13), 4, (-1, 1), 2.0)
        anchors[1], P[2] = np.nan, np.nan
        X = loss.prox(anchors, P, Ys, v, cs)
        assert np.isnan(X[1:3]).all()
        for i in (0, 3):
            np.testing.assert_allclose(
                X[i], loss.prox(anchors[i:i + 1], P[i:i + 1], Ys[:1], v, cs[i:i + 1])[0],
                rtol=1e-14)


class TestGampResolvent:
    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(9)
        loss = square_loss()
        L, r = 2, 1
        M = rng.standard_normal((L * r, L * r))
        P = M @ M.T + np.eye(L * r)
        anchor = rng.standard_normal((L, r))
        y = rng.standard_normal((L, r))
        got = loss.prox(anchor[None], P[None], y[None], np.zeros((r, r)),
                        np.zeros((1, L), dtype=int))[0]
        expected = np.linalg.solve(
            P + np.eye(L * r), P @ anchor.reshape(-1) + y.reshape(-1)
        ).reshape(L, r)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_nonsmooth_subgradient_certificate(self):
        # hinge loss max(0, 1 - x) with a closed-form prox; at the kink the
        # optimality condition is interval-valued
        def hinge_prox(anchors, P, Ys, v, cs):
            a = anchors[:, 0, 0]
            V = 1.0 / P[:, 0, 0]
            # flat region (gradient 0), linear region (gradient -1), kink
            x = np.where(a > 1.0, a, np.where(a < 1.0 - V, a + V, 1.0))
            return x[:, None, None]

        hinge = LossModel(
            name="hinge",
            eval=lambda Y, X, v, c: np.maximum(0.0, 1.0 - X[:, 0, 0]),
            grad_X=lambda Y, X, v, c: np.where(X < 1.0, -1.0, 0.0),
            test_mean=lambda laws, c: 0.0,
            # zero away from the kink, where the hinge has no Hessian
            hess_X=lambda Y, X, v, c: np.zeros((len(X), 1, 1)),
            depends_on_y=False,
            prox=hinge_prox,
        )
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.uniform(-1, 3)
            V = np.exp(rng.uniform(-1, 1))
            x = scalar_prox(hinge, a, V)
            # 0 must lie in (x - a)/V + [subdifferential of the hinge at x]
            quad = (x - a) / V
            if x < 1.0:
                lo = hi = quad - 1.0
            elif x > 1.0:
                lo = hi = quad
            else:
                lo, hi = quad - 1.0, quad
            assert lo <= 1e-10 and hi >= -1e-10


class TestProxJacobians:
    def test_quadratic_anchor_jacobian(self):
        V = 2.0
        loss = square_loss()
        x = scalar_prox(loss, anchor=0.3, V=V, y=1.0)
        expected = (1.0 / V) / (1.0 / V + 1.0)
        assert scalar_gain(loss, x, 0.3, V, y=1.0) == pytest.approx(expected, abs=1e-12)

    def test_zero_loss_jacobians(self):
        loss = zero_loss()
        x = scalar_prox(loss, anchor=0.3, V=2.0)
        assert scalar_gain(loss, x, 0.3, 2.0) == pytest.approx(1.0)

    def test_logistic_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        loss = logistic_gmm_loss()
        for _ in range(5):
            a, V = rng.standard_normal(), np.exp(rng.uniform(-1, 1))
            jac = scalar_gain(loss, scalar_prox(loss, a, V), a, V)
            h = 1e-6
            fd = (scalar_prox(loss, a + h, V) - scalar_prox(loss, a - h, V)) / (2 * h)
            assert abs(jac - fd) < 1e-4

    def test_singular_system_raises(self):
        from seqmix.errors import SeqmixError

        # a concave loss whose curvature cancels the precision exactly
        loss = square_loss()
        loss.hess_X = lambda Y, X, v, c: -np.ones((len(X), 1, 1))
        with pytest.raises(SeqmixError):
            scalar_gain(loss, 0.3, 0.3, 1.0)


def _spd(rng, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M @ M.T / n + 0.5 * np.eye(n)


@pytest.mark.parametrize("name", sorted(LOSSES))
def test_prox_is_stationary_and_gain_matches_differences(name):
    """Every shipped prox meets P (X - a) + grad_X = 0 to rounding, and
    prox_gain matches central differences of the prox map, with one
    precision repeated over the batch as a stride-0 view (the solver) and
    one precision per sample (message passing)."""
    rng = np.random.default_rng(sorted(LOSSES).index(name))
    loss = LOSSES[name]()
    S, L, r = 64, (1 if name.endswith("gmm") else 2), 1
    n = L * r
    anchors = 1.5 * rng.standard_normal((S, L, r))
    Ys = rng.standard_normal((S, L, r))
    cs = rng.integers(0, 2, size=(S, L))
    v = _spd(rng, r)
    shapes = {"shared": np.broadcast_to(_spd(rng, n), (S, n, n)),
              "per-sample": np.stack([_spd(rng, n) for _ in range(S)])}
    for shape, P in shapes.items():
        X = loss.prox(anchors, P, Ys, v, cs)
        residual, terms = stationarity(loss, anchors, P, Ys, v, cs, X)
        assert np.all(residual <= 1e-14 * (1.0 + terms)), shape
        h = 1e-6
        fd = np.empty((S, n, n))
        for j in range(n):
            E = np.zeros((S, n))
            E[:, j] = h
            xp = loss.prox(anchors + E.reshape(S, L, r), P, Ys, v, cs)
            xm = loss.prox(anchors - E.reshape(S, L, r), P, Ys, v, cs)
            fd[:, :, j] = (xp - xm).reshape(S, n) / (2 * h)
        np.testing.assert_allclose(
            prox_gain(loss, Ys, X, P, v, cs), fd, atol=1e-6, err_msg=shape
        )


@pytest.mark.parametrize("n", [1, 2])
def test_repeated_gain_is_the_batched_solve(n):
    """prox_gain on stride-0 P and hess_X takes one solve for the batch; it
    equals, bit for bit, the per-sample solve on materialized copies."""
    rng = np.random.default_rng(20 + n)
    S = 16
    P = np.broadcast_to(_spd(rng, n), (S, n, n))
    H = np.broadcast_to(_spd(rng, n), (S, n, n))
    loss = square_loss()
    loss.hess_X = lambda Ys, Xs, v, cs: H[: len(Xs)]
    Ys, Xs = rng.standard_normal((2, S, n, 1))
    v, cs = np.zeros((1, 1)), np.zeros((S, n), dtype=int)
    J = prox_gain(loss, Ys, Xs, P, v, cs)
    assert J.shape == (S, n, n) and J.strides[0] == 0
    batched = solve(P.copy() + H.copy(), P.copy(), "P + H")
    np.testing.assert_array_equal(J, batched)
    np.testing.assert_array_equal(prox_gain(loss, Ys, Xs, P.copy(), v, cs), batched)


@pytest.mark.parametrize("log_var, anchor_scale", [((-3.0, 3.0), 3.0), ((0.0, 14.0), 50.0)],
                         ids=["moderate-variances", "large-variances"])
def test_logistic_prox_stationary_on_random_problems(log_var, anchor_scale):
    """200,000 random logistic problems: the Newton started at the anchor
    fell into a 2-cycle on about 1% of the first grid (V > 11.5 with
    s a < -3.25), up to 10.7 from the minimizer."""
    loss = logistic_gmm_loss()
    problem = logistic_problems(np.random.default_rng(0), 200_000, log_var, anchor_scale)
    residual, _ = stationarity(loss, *problem, loss.prox(*problem))
    assert np.all(residual <= 1e-13 * (1.0 + np.abs(problem[0][:, 0, 0])))


def test_sigmoid_matches_two_branch_formula():
    # the masked two-branch form, 1 / (1 + e^-z) for z >= 0 and
    # e^z / (1 + e^z) below, bit for bit, signed zeros, infinities, NaNs of
    # either sign and overflowing exponents included
    def two_branch(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(18)
    z = np.concatenate([
        rng.standard_normal(5000), 40.0 * rng.standard_normal(5000),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
         709.8, -709.8, 745.2, -745.2, 1e-300, -1e-300],
    ])
    np.testing.assert_array_equal(_sigmoid(z).view(np.int64), two_branch(z).view(np.int64))
