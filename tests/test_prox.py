"""Moreau envelope minimization and its sensitivities."""

import numpy as np
import pytest

from seqmix.errors import LossBlowupError, ProxConvergenceError
from seqmix.losses import _sigmoid, LOSSES, logistic_gmm_loss, square_loss, zero_loss
from seqmix.model import LossModel, solve
from seqmix.prox import DEFAULT_MAX_ITERS, DEFAULT_TOL, prox_batch, prox_gain


def scalar_batch(anchor, V, y=0.0, c=0):
    """(anchors, P, Ys, v, cs) of one scalar problem with precision 1 / V."""
    return (np.full((1, 1, 1), float(anchor)), np.full((1, 1, 1), 1.0 / V),
            np.full((1, 1, 1), float(y)), np.zeros((1, 1)), np.array([[c]]))


def scalar_prox(loss: LossModel, anchor, V, y=0.0, c=0) -> float:
    return float(prox_batch(loss, *scalar_batch(anchor, V, y, c))[0, 0, 0])


def scalar_gain(loss: LossModel, x, anchor, V, y=0.0, c=0) -> float:
    """prox_gain of one scalar problem at the point x."""
    _, P, Ys, v, cs = scalar_batch(anchor, V, y, c)
    return float(prox_gain(loss, Ys, np.full((1, 1, 1), x), P, v, cs)[0, 0, 0])


def _strip_specialized(loss: LossModel) -> LossModel:
    loss.prox = None
    return loss


def _flat_loss(value: float) -> LossModel:
    """A loss with no prox whose eval is `value` and grad_X is 1 everywhere:
    the gradient promises a decrease that the objective never shows."""
    return LossModel(
        name="flat",
        eval=lambda Y, X, v, c: np.full(len(X), value),
        grad_X=lambda Y, X, v, c: np.ones_like(X),
        hess_X=lambda Y, X, v, c: np.zeros((len(X), 1, 1)),
        test_mean=lambda laws, c: 0.0,
    )


def _three_samples():
    """(anchors, P, Ys, v, cs) of three scalar problems at anchor 0, P = 1."""
    return (np.zeros((3, 1, 1)), np.ones((3, 1, 1)), np.zeros((3, 1, 1)),
            np.zeros((1, 1)), np.zeros((3, 1), dtype=int))


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
        rng = np.random.default_rng(12)
        closed = square_loss()
        generic = _strip_specialized(square_loss())
        for _ in range(10):
            problem = scalar_batch(rng.standard_normal(), np.exp(rng.uniform(-1, 1)),
                                   y=rng.standard_normal())
            np.testing.assert_allclose(prox_batch(closed, *problem),
                                       prox_batch(generic, *problem), atol=1e-9)

    def test_logistic_against_grid_search(self):
        rng = np.random.default_rng(5)
        loss = _strip_specialized(logistic_gmm_loss())
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
        # the generic Newton stops at |P (x - a) + grad ell| <= tol (1 + |a|)
        rng = np.random.default_rng(6)
        loss = _strip_specialized(logistic_gmm_loss())
        for _ in range(20):
            anchors, P, Ys, v, cs = scalar_batch(rng.standard_normal(),
                                                 np.exp(rng.uniform(-2, 2)))
            X = prox_batch(loss, anchors, P, Ys, v, cs)
            residual = P[0, 0, 0] * (X - anchors) + loss.grad_X(Ys, X, v, cs)
            bound = DEFAULT_TOL * (1.0 + abs(float(anchors[0, 0, 0])))
            assert abs(float(residual[0, 0, 0])) <= bound

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
        X = prox_batch(loss, anchors, P, Ys, v, cs)
        x = float(X[0, 0, 0])
        value = 0.5 * P[0, 0, 0] * (x - 1.0) ** 2 + float(loss.eval(Ys, X, v, cs)[0])
        expected = (x - 1.0) ** 2 / 4.0 + 0.5 * (3.0 - x) ** 2
        assert value == pytest.approx(expected)

    def test_no_accepted_step_is_prox_convergence_error(self):
        # no sample accepts a step in any iteration, so the set of samples
        # whose residual is refreshed is empty, and every sample gives up
        # once its Levenberg shift passes the cap, before the iteration limit
        loss = _flat_loss(0.0)
        calls = []
        hess_X = loss.hess_X
        loss.hess_X = lambda *args: calls.append(1) or hess_X(*args)
        with pytest.raises(ProxConvergenceError) as info:
            prox_batch(loss, *_three_samples())
        assert info.value.residual == 1.0
        assert info.value.x_last.shape == (1, 1)
        # one Hessian per Newton iteration
        assert 0 < info.value.iterations == len(calls) < DEFAULT_MAX_ITERS
        assert f"after {len(calls)} iterations" in str(info.value)

    def test_non_finite_objective_is_loss_blowup(self):
        with pytest.raises(LossBlowupError, match="non-finite envelope objective"):
            prox_batch(_flat_loss(np.inf), *_three_samples())


class TestGampResolvent:
    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(9)
        loss = square_loss()
        L, r = 2, 1
        M = rng.standard_normal((L * r, L * r))
        P = M @ M.T + np.eye(L * r)
        anchor = rng.standard_normal((L, r))
        y = rng.standard_normal((L, r))
        got = prox_batch(loss, anchor[None], P[None], y[None], np.zeros((r, r)),
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
def test_batched_prox_matches_generic_newton(name):
    """Specialized prox against the generic batched Newton, and prox_gain
    against central differences of the prox map, with one precision
    repeated over the batch as a stride-0 view (the solver) and one
    precision per sample (message passing)."""
    rng = np.random.default_rng(sorted(LOSSES).index(name))
    loss = LOSSES[name]()
    generic = _strip_specialized(LOSSES[name]())
    S, L, r = 64, (1 if name.endswith("gmm") else 2), 1
    n = L * r
    anchors = 1.5 * rng.standard_normal((S, L, r))
    Ys = rng.standard_normal((S, L, r))
    cs = rng.integers(0, 2, size=(S, L))
    v = _spd(rng, r)
    shapes = {"shared": np.broadcast_to(_spd(rng, n), (S, n, n)),
              "per-sample": np.stack([_spd(rng, n) for _ in range(S)])}
    for shape, P in shapes.items():
        X = prox_batch(loss, anchors, P, Ys, v, cs)
        np.testing.assert_allclose(
            X, prox_batch(generic, anchors, P, Ys, v, cs), atol=1e-9, err_msg=shape
        )
        h = 1e-6
        fd = np.empty((S, n, n))
        for j in range(n):
            E = np.zeros((S, n))
            E[:, j] = h
            xp = prox_batch(loss, anchors + E.reshape(S, L, r), P, Ys, v, cs)
            xm = prox_batch(loss, anchors - E.reshape(S, L, r), P, Ys, v, cs)
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


def test_generic_newton_random_logistic_sweep():
    """1,000 random logistic problems through the generic Newton: near the
    optimum the Armijo decrease falls below rounding of the objective, and
    that must not drive the Levenberg shift until the sample gives up."""
    rng = np.random.default_rng(0)
    S = 1000
    anchors = 3.0 * rng.standard_normal((S, 1, 1))
    P = np.exp(rng.uniform(-3.0, 3.0, size=S))[:, None, None]
    cs = rng.integers(0, 2, size=(S, 1))
    Ys, v = np.zeros((S, 1, 1)), np.zeros((1, 1))
    loss = _strip_specialized(logistic_gmm_loss())
    X = prox_batch(loss, anchors, P, Ys, v, cs)
    resid = P[:, 0, 0] * (X - anchors)[:, 0, 0] + loss.grad_X(Ys, X, v, cs)[:, 0, 0]
    assert np.all(np.abs(resid) <= 1e-10 * (1.0 + np.abs(anchors[:, 0, 0])))


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
