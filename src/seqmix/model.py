"""Problem definition for learning on sequences of Gaussian-mixture tokens.

A sample is a length-L sequence of d-dimensional tokens; token ell is drawn
from a K_ell-cluster Gaussian mixture, and the joint cluster assignment
c = (c_1, ..., c_L) follows an arbitrary discrete law.  All covariances share
one eigenbasis, so in the large-d limit the data is summarized by a discrete
spectral measure over (eigenvalue gamma, scaled mean projection tau, teacher
projection pi) triples.  Trained weights are described by per-(token, cluster)
overlap matrices and their conjugates, two families of one block layout
(`KeyedBlocks`: copy, zeros, named blocks, the flat vector and the damped
mix); this module holds those types, the pluggable loss interface consumed
by the solver, the message-passing simulators and the ERM baseline,
and what the four iterative loops share: the `RunRecord` each returns, the
divergence guard each iteration passes, and the one small-system path,
`inverse` and `solve`, that takes 1 x 1 and 2 x 2 systems in closed form and
maps a singular system to `SingularSystemError`.

Index convention: tokens and clusters are 0-based, maps over (ell, k) are
total, and iteration order is row-major in (ell, k).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import SingularSystemError, SolverDivergenceError, SpecValidationError

Key = tuple[int, int]

# How far class probabilities and spectral weights may sum from 1.
PROB_TOL = 1e-12
# A relative residual above this ends an iteration as diverged.
DIVERGENCE_LIMIT = 1e6
# How far `check_loss_prox` lets a prox's stationarity residual be from 0,
# relative to its terms: the shipped proxes read about 2e-14 at most.
PROX_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class Dimensions:
    """Static sizes and scalar knobs of one problem instance.

    L: sequence length, r/t: student/teacher hidden units, K: clusters per
    token, alpha: sample complexity n/d, lam: l2 regularization strength.
    d is a label for Python callers (the zoo constructors take it); no module
    reads it, and a config sets the simulated size in [data] d.
    """

    L: int
    r: int
    t: int
    K: tuple[int, ...]
    alpha: float
    lam: float
    d: Optional[int] = None

    def lk_pairs(self) -> list[Key]:
        """All (token, cluster) keys in row-major order."""
        return [(ell, k) for ell in range(self.L) for k in range(self.K[ell])]

    def violations(self) -> list[str]:
        out = []
        if self.L < 1 or self.r < 1 or self.t < 1:
            out.append("Dimensions: L, r, t must be positive")
        if len(self.K) != self.L:
            out.append("Dimensions: len(K) must equal L")
        if any(k < 1 for k in self.K):
            out.append("Dimensions: every K_ell must be >= 1")
        if not 0 < self.alpha < np.inf:
            out.append("Dimensions: alpha must be positive and finite")
        if not 0 <= self.lam < np.inf:
            out.append("Dimensions: lambda must be nonnegative and finite")
        if self.d is not None and self.d < 1:
            out.append("Dimensions: d must be positive when given")
        return out


@dataclass(frozen=True)
class ClassLaw:
    """Joint distribution of the per-token cluster assignments."""

    support: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    @staticmethod
    def single(c: tuple[int, ...]) -> "ClassLaw":
        return ClassLaw(support=(tuple(c),), probs=(1.0,))

    @staticmethod
    def uniform(support: list[tuple[int, ...]]) -> "ClassLaw":
        p = 1.0 / len(support)
        return ClassLaw(tuple(tuple(c) for c in support), tuple(p for _ in support))

    def violations(self, dims: Dimensions) -> list[str]:
        out = []
        if len(self.support) != len(self.probs):
            out.append("ClassLaw: support and probs lengths differ")
            return out
        if abs(sum(self.probs) - 1.0) > PROB_TOL:
            out.append(f"ClassLaw: probs sum to {sum(self.probs)!r}, not 1")
        if any(p < 0 for p in self.probs):
            out.append("ClassLaw: negative probability")
        for c in self.support:
            if len(c) != dims.L:
                out.append(f"ClassLaw: tuple {c} has wrong length")
            elif any(not (0 <= c[ell] < dims.K[ell]) for ell in range(dims.L)):
                out.append(f"ClassLaw: tuple {c} outside per-token cluster ranges")
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. class tuples, shape (n, L)."""
        idx = rng.choice(len(self.support), size=n, p=np.asarray(self.probs))
        return np.asarray(self.support)[idx]


@dataclass(frozen=True)
class SpectralAtom:
    """One atom of the joint spectral measure.

    gamma[(ell, k)] is a covariance eigenvalue, tau[(ell, k)] a sqrt(d)-scaled
    mean projection, pi the teacher projections on the shared eigenvector.
    """

    weight: float
    gamma: dict[Key, float]
    tau: dict[Key, float]
    pi: np.ndarray


@dataclass(frozen=True)
class SpectralMeasure:
    """Discrete joint law of (gamma, tau, pi) over the shared eigenbasis.

    A finite atom list is exact for finite-d instances and approximates any
    continuous measure by quadrature, so every spectral integral in the
    solver is a finite sum.
    """

    atoms: tuple[SpectralAtom, ...]

    def violations(self, dims: Dimensions) -> list[str]:
        out = []
        keys = set(dims.lk_pairs())
        total = sum(a.weight for a in self.atoms)
        if abs(total - 1.0) > PROB_TOL:
            out.append(f"SpectralMeasure: weights sum to {total!r}, not 1")
        for i, a in enumerate(self.atoms):
            if a.weight < 0:
                out.append(f"SpectralMeasure: atom {i} has negative weight")
            if set(a.gamma) != keys or set(a.tau) != keys:
                out.append(f"SpectralMeasure: atom {i} keys do not match dimensions")
            elif any(g < 0 for g in a.gamma.values()):
                out.append(f"SpectralMeasure: atom {i} has negative eigenvalue")
            if np.shape(a.pi) != (dims.t,):
                out.append(f"SpectralMeasure: atom {i} pi has wrong shape")
        if not out:
            # V_{ell,k} = int gamma R is then zero, and the prox precision
            # V^-1 does not exist
            for key in dims.lk_pairs():
                if sum(a.weight * a.gamma[key] for a in self.atoms) == 0.0:
                    out.append(f"SpectralMeasure: (token, cluster) key {key} has zero "
                               "eigenvalue mass sum_a w_a gamma_a")
        return out


def make_atom(
    dims: Dimensions,
    weight: float,
    gamma,
    tau=0.0,
    pi=0.0,
) -> SpectralAtom:
    """Build an atom from scalars, per-key dicts, or row-major sequences."""

    def as_map(x) -> dict[Key, float]:
        pairs = dims.lk_pairs()
        if isinstance(x, dict):
            return {k: float(x[k]) for k in pairs}
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.size == 1:
            return {k: float(arr[0]) for k in pairs}
        if arr.size != len(pairs):
            raise SpecValidationError(
                f"atom entry of size {arr.size} does not match {len(pairs)} (ell, k) keys"
            )
        return {k: float(arr[i]) for i, k in enumerate(pairs)}

    pi_vec = np.atleast_1d(np.asarray(pi, dtype=float))
    if pi_vec.size == 1 and dims.t > 1:
        pi_vec = np.full(dims.t, float(pi_vec[0]))
    if pi_vec.shape != (dims.t,):
        raise SpecValidationError(f"atom pi has shape {pi_vec.shape}, expected ({dims.t},)")
    return SpectralAtom(float(weight), as_map(gamma), as_map(tau), pi_vec)


@dataclass(frozen=True)
class FixedStatistics:
    """Teacher-side second moments: rho[(ell,k)] (t x t) and m_star[(ell,k)] (t,)."""

    rho: dict[Key, np.ndarray]
    m_star: dict[Key, np.ndarray]


def compute_fixed_statistics(nu: SpectralMeasure, dims: Dimensions) -> FixedStatistics:
    """Teacher overlaps and mean projections as atom sums over the measure.

    rho_{ell,k} = sum_a w_a gamma_a pi_a pi_a^T and
    m*_{ell,k}  = sum_a w_a tau_a pi_a; symmetry of rho holds by construction.
    """
    bad = nu.violations(dims)
    if bad:
        raise SpecValidationError("; ".join(bad))
    rho: dict[Key, np.ndarray] = {}
    m_star: dict[Key, np.ndarray] = {}
    for key in dims.lk_pairs():
        r_acc = np.zeros((dims.t, dims.t))
        m_acc = np.zeros(dims.t)
        for a in nu.atoms:
            r_acc += a.weight * a.gamma[key] * np.outer(a.pi, a.pi)
            m_acc += a.weight * a.tau[key] * a.pi
        rho[key] = r_acc
        m_star[key] = m_acc
    return FixedStatistics(rho=rho, m_star=m_star)


class KeyedBlocks:
    """Shared body of the overlaps and their conjugates.

    A subclass is a dataclass of four per-(ell, k) dicts of blocks followed
    by one global r x r block, and every method walks those fields in
    declaration order.  The two families have the same shapes field by
    field: r x r, r x r, (r,), r x t per key, then r x r.
    """

    def _map(self, fn, *others):
        """A new instance holding fn(block, *matching blocks of others)."""
        *keyed, glob = (f.name for f in fields(self))
        out = {
            name: {key: fn(a, *(getattr(o, name)[key] for o in others))
                   for key, a in getattr(self, name).items()}
            for name in keyed
        }
        out[glob] = fn(getattr(self, glob), *(getattr(o, glob) for o in others))
        return type(self)(**out)

    def copy(self):
        return self._map(lambda a: a.copy())

    def mix(self, old, eta: float):
        """(1 - eta) self + eta old, block by block.

        self itself, not a copy, when eta == 0 or there is no previous iterate.
        """
        if eta == 0.0 or old is None:
            return self
        return self._map(lambda new, prev: (1 - eta) * new + eta * prev, old)

    def flat(self) -> np.ndarray:
        """Every block raveled into one vector, in `blocks()` order."""
        return np.concatenate([a.ravel() for a in self.blocks().values()])

    def from_flat(self, vec: np.ndarray):
        """A new instance of this layout holding the entries of `vec`, the
        inverse of `flat()`."""
        out = self.copy()
        start = 0
        for a in out.blocks().values():
            a[...] = vec[start:start + a.size].reshape(a.shape)
            start += a.size
        return out

    def blocks(self) -> dict[str, np.ndarray]:
        """Named view of every block, for residuals and reports: per key in
        sorted order the keyed fields ("q_0_1", ...), then the global one."""
        *keyed, glob = (f.name for f in fields(self))
        out: dict[str, np.ndarray] = {}
        for ell, k in sorted(getattr(self, keyed[0])):
            for name in keyed:
                out[f"{name}_{ell}_{k}"] = getattr(self, name)[(ell, k)]
        out[glob] = getattr(self, glob)
        return out

    @classmethod
    def zeros(cls, dims: Dimensions):
        r, t = dims.r, dims.t
        *keyed, glob = (f.name for f in fields(cls))
        out = {
            name: {key: np.zeros(shape) for key in dims.lk_pairs()}
            for name, shape in zip(keyed, ((r, r), (r, r), (r,), (r, t)))
        }
        out[glob] = np.zeros((r, r))
        return cls(**out)


@dataclass
class OrderParameters(KeyedBlocks):
    """RS overlaps: q, V, m, theta per (ell, k), plus the global v = w^T w / d.

    theta is stored r x t (student rows against teacher columns); transposes
    at use sites are explicit.
    """

    q: dict[Key, np.ndarray]
    V: dict[Key, np.ndarray]
    m: dict[Key, np.ndarray]
    theta: dict[Key, np.ndarray]
    v: np.ndarray

    def max_asymmetry(self) -> float:
        worst = 0.0
        for blocks in (self.q, self.V):
            for a in blocks.values():
                worst = max(worst, float(np.max(np.abs(a - a.T))))
        worst = max(worst, float(np.max(np.abs(self.v - self.v.T))))
        return worst

    @staticmethod
    def cold(dims: Dimensions, eps: float = 1e-3) -> "OrderParameters":
        """Uninformed start: q = eps I, V = I, m = 0, theta = 0, v = eps I."""
        out = OrderParameters.zeros(dims)
        eye = np.eye(dims.r)
        for key in dims.lk_pairs():
            out.q[key] = eps * eye
            out.V[key] = eye.copy()
        out.v = eps * eye
        return out

    @staticmethod
    def gamp_matched(dims: Dimensions, nu: SpectralMeasure) -> "OrderParameters":
        """Start mirroring uninformed message passing: w_hat = 0, c_hat = I.

        q = m = theta = v = 0 and V_{ell,k} = (mean eigenvalue) I, which is
        what the first message-passing iteration sees before any update.
        """
        out = OrderParameters.zeros(dims)
        for key in dims.lk_pairs():
            out.V[key] = sum(a.weight * a.gamma[key] for a in nu.atoms) * np.eye(dims.r)
        return out

    @staticmethod
    def informed(dims: Dimensions, fixed: FixedStatistics, eps: float = 1e-3) -> "OrderParameters":
        """Teacher-seeded start (requires r == t): q = rho + eps I, theta = rho."""
        if dims.r != dims.t:
            raise SpecValidationError("informed init requires r == t")
        eye = np.eye(dims.r)
        return OrderParameters(
            q={key: fixed.rho[key] + eps * eye for key in dims.lk_pairs()},
            V={key: eye.copy() for key in dims.lk_pairs()},
            m={key: fixed.m_star[key].copy() for key in dims.lk_pairs()},
            theta={key: fixed.rho[key].copy() for key in dims.lk_pairs()},
            v=fixed.rho[dims.lk_pairs()[0]] + eps * eye,
        )


@dataclass
class ConjugateParameters(KeyedBlocks):
    """Hatted (dual) parameters entering the spectral resolvent."""

    q_hat: dict[Key, np.ndarray]
    V_hat: dict[Key, np.ndarray]
    m_hat: dict[Key, np.ndarray]
    theta_hat: dict[Key, np.ndarray]
    v_hat: np.ndarray


@dataclass(kw_only=True)
class RunRecord:
    """How an iterative loop stopped, shared by the solver, GAMP, rBP and ERM.

    residual_history holds one residual per iteration, so `iterations` is
    its length; converged is True when the loop met its tolerance before
    its iteration cap.  trajectory holds the overlaps of every iterate, or None when
    the loop recorded none.  A loop that fails raises instead of returning.
    """

    converged: bool
    residual_history: list[float]
    trajectory: Optional[list[OrderParameters]] = None

    @property
    def iterations(self) -> int:
        return len(self.residual_history)


def check_divergence(
    iteration: int, residual: float, trajectory, *iterates: np.ndarray,
    loop: str, step: str, measure: str,
) -> None:
    """Raise SolverDivergenceError on a NaN residual, one above
    DIVERGENCE_LIMIT, or a non-finite entry in any iterate; iteration counts
    the loop's steps from 1.  loop, step and measure name the loop, its step
    and its residual in the message (see SolverDivergenceError)."""
    if not residual <= DIVERGENCE_LIMIT or not all(np.all(np.isfinite(a)) for a in iterates):
        raise SolverDivergenceError(residual, trajectory, iteration,
                                    loop=loop, step=step, measure=measure)


# Small systems.  The message-passing blocks, prox precisions and weight
# systems are 1 x 1 or 2 x 2 whenever L r <= 2, and a batched LAPACK call
# spends more per matrix in dispatch than those sizes take in arithmetic.
# They are solved in closed form here, larger ones by LAPACK; every batched
# inverse and solve of the package goes through `inverse` or `solve`.  The
# overlap blocks are 1 x 1 whenever r = t = 1, and their symmetric
# eigendecompositions (the matrix roots, the admissibility tests) go through
# `eigh`, which takes 1 x 1 in closed form too.

def eigh(A: np.ndarray, vectors: bool = True):
    """Eigenvalues w (..., n), ascending, of the symmetric A (..., n, n), and
    with vectors its eigenvectors U (..., n, n): np.linalg.eigh's (w, U), or
    without vectors np.linalg.eigvalsh's w alone.

    n = 1 is (A[..., 0], [[1]]), the bits LAPACK's syevd returns at N = 1
    (it copies the entry and sets the vector to one), inf and NaN included.
    """
    if A.shape[-1] == 1:
        w = A[..., 0].astype(float)
        return (w, np.ones(A.shape)) if vectors else w
    return np.linalg.eigh(A) if vectors else np.linalg.eigvalsh(A)


def _singular(what: str) -> SingularSystemError:
    return SingularSystemError(f"{what} is singular")


def _scaled_2x2(A: np.ndarray, what: str):
    """Entries of each 2 x 2 matrix in A divided by its largest magnitude s,
    their determinant, and det * s.  Scaling keeps the determinant in range
    where the raw a d - b c underflows or overflows.  Only an exactly zero
    (scaled) determinant is singular, as only an exactly zero pivot is for
    LAPACK; a NaN matrix passes and yields NaN."""
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    # elementwise maxima: an axis reduction over the block costs four times more
    s = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    if np.any(s == 0.0):
        raise _singular(what)
    a, b, c, d = a / s, b / s, c / s, d / s
    det = a * d - b * c
    if np.any(det == 0.0):
        raise _singular(what)
    return a, b, c, d, det * s


def inverse(M: np.ndarray, what: str) -> np.ndarray:
    """Inverse of M (..., n, n), one matrix or a stack; SingularSystemError
    naming `what` when a matrix is singular.

    n = 1 is 1 / M, the bits of LAPACK's inverse; n = 2 is the adjugate over
    the determinant (Cramer's rule, forward stable at n = 2: Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, sec. 1.10.1),
    within a few cond(M) eps of LAPACK's; larger n is np.linalg.inv.
    """
    n = M.shape[-1]
    if n == 1:
        if np.any(M == 0.0):
            raise _singular(what)
        return 1.0 / M
    if n == 2:
        with np.errstate(all="ignore"):   # LAPACK is silent on inf and NaN too
            a, b, c, d, det = _scaled_2x2(M, what)
            adj = np.stack([d, -b, -c, a], axis=-1) / det[..., None]
        return adj.reshape(M.shape)
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise _singular(what) from exc


def solve(A: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """X with A X = B for A (..., n, n) and B (..., n, k), leading axes
    broadcast; SingularSystemError naming `what` when a matrix is singular.

    n = 1 is B / A, correctly rounded: LAPACK's bits for one column of B,
    where for more columns LAPACK takes B * (1 / A); n = 2 is Cramer's rule
    on the columns of B (see `inverse`); larger n is np.linalg.solve.
    """
    n = A.shape[-1]
    if n == 1:
        if np.any(A == 0.0):
            raise _singular(what)
        return B / A
    if n == 2:
        with np.errstate(all="ignore"):
            a, b, c, d, det = _scaled_2x2(A, what)
            a, b, c, d, det = (x[..., None] for x in (a, b, c, d, det))
            B0, B1 = B[..., 0, :], B[..., 1, :]
            return np.stack([(d * B0 - b * B1) / det, (a * B1 - c * B0) / det], axis=-2)
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise _singular(what) from exc


@dataclass
class LossModel:
    """Behavioral loss interface: ell(Y, X, v, c) with its derivatives, and
    the expectation of its test metric.

    Every hook is batched over a leading sample axis and called as
    hook(Ys, Xs, v, cs) with Ys (S, L, t) the label channel (teacher means
    included), Xs (S, L, r) the student channel, v the shared r x r weight
    self-overlap slot and cs (S, L) the class tuples; a single point is a
    batch of one.  Per sample, eval returns (S,), grad_X (S, L, r) and
    hess_X the flattened X-Hessian (S, Lr, Lr); grad_X and hess_X are the
    exact partials used by the solver.  A hook may return a read-only view,
    a stride-0 one included (a Hessian that is the same matrix at every
    sample is best returned as `np.broadcast_to` of it, which lets
    `prox.prox_gain` take one solve for the whole batch).

    test_mean(laws, c) returns the exact expectation of the metric reported
    as test error over class tuple c, from the keys' `gaussian.TokenLaw`s
    (`losses.misclassification_mean`, `losses.squared_error_mean`).  The
    test error is that closed form under every plan, with a zero stderr,
    and draws no nodes.

    prox(anchors (S, L, r), precisions (S, Lr, Lr), Ys, v, cs) returns the
    minimizers (S, L, r) of (1/2)(X - a)^T P (X - a) + ell, one precision
    per sample; it is the only solver of that problem, so `validate_spec`
    checks its stationarity P (X - a) + grad_X = 0 on a seeded batch.

    The optional d3 = d ell / dv returns (S, r, r); None means the loss
    does not read v (`depends_on_v` is False).
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    grad_X: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    hess_X: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    test_mean: Callable[[dict, tuple], float]
    prox: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    d3: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    # False for losses whose hooks never read the label channel (e.g.
    # mixture classification, where supervision comes from the class
    # tuple); the solver then freezes theta_hat at zero, and the hat sweep
    # and envelope draw no label noise and hand every hook a zero label
    # channel.
    depends_on_y: bool = True
    # strong convexity in X keeps the spectral resolvent invertible at
    # lambda = 0; losses without it require a positive regularizer
    strongly_convex: bool = False

    @property
    def depends_on_v(self) -> bool:
        """Whether the loss reads the weight self-overlap v: it has a d3."""
        return self.d3 is not None


@dataclass
class ModelSpec:
    """Complete problem instance handed to every pipeline entry point."""

    dims: Dimensions
    class_law: ClassLaw
    nu: SpectralMeasure
    loss: LossModel
    name: str = ""


def _finite_diff(f, X: np.ndarray, ndim: int) -> np.ndarray:
    """Central differences of f along every entry of the last `ndim` axes
    of X, perturbed in all samples at once; the entry axes come last."""
    h = 1e-6
    shape = X.shape[X.ndim - ndim:]
    cols = []
    for idx in np.ndindex(shape):
        E = np.zeros(shape)
        E[idx] = h
        cols.append((np.asarray(f(X + E)) - np.asarray(f(X - E))) / (2 * h))
    return np.stack(cols, axis=-1).reshape(cols[0].shape + shape)


def check_loss_gradients(
    loss: LossModel, dims: Dimensions, classes, rng: np.random.Generator,
    rel_tol: float = 1e-5,
) -> list[str]:
    """Spot-check grad_X, hess_X and d3, when the loss has one, against
    central finite differences.

    The hooks are called on a batch of at least two random points that
    cycle through `classes`, so a hook that ignores or mixes the sample
    axis is flagged here rather than at a fixed point.
    """
    out = []
    classes = np.asarray(classes)
    S = max(2, len(classes))
    cs = classes[np.arange(S) % len(classes)]
    Ys = rng.standard_normal((S, dims.L, dims.t))
    Xs = 0.5 * rng.standard_normal((S, dims.L, dims.r))
    A = rng.standard_normal((dims.r, dims.r))
    v = 0.5 * np.eye(dims.r) + 0.05 * (A + A.T)
    n = dims.L * dims.r

    def compare(name: str, got, fd: np.ndarray) -> None:
        got = np.asarray(got, dtype=float)
        if got.shape != fd.shape:
            out.append(f"LossModel {loss.name}: {name} has shape {got.shape}, expected {fd.shape}")
            return
        scale = max(1.0, float(np.max(np.abs(fd))))
        if np.max(np.abs(got - fd)) > rel_tol * scale:
            out.append(f"LossModel {loss.name}: {name} disagrees with finite differences")

    compare("grad_X", loss.grad_X(Ys, Xs, v, cs),
            _finite_diff(lambda Z: loss.eval(Ys, Z, v, cs), Xs, 2))
    H_fd = _finite_diff(lambda Z: np.reshape(loss.grad_X(Ys, Z, v, cs), (S, n)), Xs, 2)
    compare("hess_X", loss.hess_X(Ys, Xs, v, cs), H_fd.reshape(S, n, n))

    if loss.depends_on_v:
        d3_fd = _finite_diff(lambda vv: loss.eval(Ys, Xs, 0.5 * (vv + vv.T), cs), v, 2)
        compare("d3", loss.d3(Ys, Xs, v, cs), 0.5 * (d3_fd + d3_fd.transpose(0, 2, 1)))
    return out


def check_loss_prox(
    loss: LossModel, dims: Dimensions, classes, rng: np.random.Generator,
) -> list[str]:
    """Spot-check prox against the loss's own grad_X: at its minimizers X,
    P (X - a) + grad_X must vanish to PROX_CHECK_TOL times 1 plus the
    larger of the two terms, sample by sample.

    The batch of 64 cycles through `classes`; the anchors are 3 N(0, 1)
    and each precision is Q diag(exp(-u)) Q^T with Q a random rotation and
    the log-variances u drawn from [-3, 8], the first of them spread evenly
    over that range, so the variances span e^-3 to e^8.
    """
    classes = np.asarray(classes)
    S, n = 64, dims.L * dims.r
    cs = classes[np.arange(S) % len(classes)]
    Ys = rng.standard_normal((S, dims.L, dims.t))
    anchors = 3.0 * rng.standard_normal((S, dims.L, dims.r))
    log_var = rng.uniform(-3.0, 8.0, (S, n))
    log_var[:, 0] = np.linspace(-3.0, 8.0, S)
    Q = np.linalg.qr(rng.standard_normal((S, n, n)))[0]
    P = (Q * np.exp(-log_var)[:, None, :]) @ Q.transpose(0, 2, 1)
    A = rng.standard_normal((dims.r, dims.r))
    v = 0.5 * np.eye(dims.r) + 0.05 * (A + A.T)

    X = np.asarray(loss.prox(anchors, P, Ys, v, cs), dtype=float)
    if X.shape != anchors.shape:
        return [f"LossModel {loss.name}: prox has shape {X.shape}, expected {anchors.shape}"]
    pull = np.einsum("sij,sj->si", P, (X - anchors).reshape(S, n))
    grad = np.reshape(loss.grad_X(Ys, X, v, cs), (S, n))
    scale = 1.0 + np.maximum(np.abs(pull).max(axis=1), np.abs(grad).max(axis=1))
    miss = np.abs(pull + grad).max(axis=1) / scale
    if not np.all(miss <= PROX_CHECK_TOL):
        return [f"LossModel {loss.name}: prox is not stationary, P (X - a) + grad_X "
                f"reaches {np.max(miss):.3e} of its terms (tolerance {PROX_CHECK_TOL:.0e})"]
    return []


def validate_spec(spec: ModelSpec) -> list[str]:
    """Report-valued validation; the instance is runnable iff the list is empty.

    A loss hook that rejects the dimensions (the square losses need r == t,
    the mixture classification losses L = r = 1) raises SpecValidationError,
    which is reported like any other violation.
    """
    out = spec.dims.violations()
    if out:
        return out
    out += spec.class_law.violations(spec.dims)
    out += spec.nu.violations(spec.dims)
    if not out:
        rng = np.random.default_rng(20240)
        loss, classes = spec.loss, spec.class_law.support
        try:
            # the prox is checked against grad_X, so only once grad_X passes
            out += (check_loss_gradients(loss, spec.dims, classes, rng)
                    or check_loss_prox(loss, spec.dims, classes, rng))
        except SpecValidationError as exc:
            out.append(f"LossModel {loss.name}: {exc}")
    return out
