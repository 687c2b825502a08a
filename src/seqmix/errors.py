"""Exception hierarchy shared across the package."""


class SeqmixError(Exception):
    """Base class for all package-specific failures."""


class SpecValidationError(SeqmixError):
    """A problem instance violates a structural invariant."""


class DegenerateOverlapError(SeqmixError):
    """Singular self-overlap q with a teacher overlap outside its range."""


class InconsistentOverlapsError(SeqmixError):
    """Joint (X, Y) covariance block is indefinite beyond tolerance."""


class ProxConvergenceError(SeqmixError):
    """A loss's iterative prox ran out of iterations.

    Carries the first failing sample's last iterate `x_last` (L, r), its
    stationarity residual `residual` and `iterations`, the number of Newton
    iterations run.  The shipped logistic prox raises it at its cap,
    `losses.LOGISTIC_PROX_MAX_ITERS`, with the residual |x - a + V ell'(x)|
    in units of x.
    """

    def __init__(self, x_last, residual: float, iterations: int):
        self.x_last = x_last
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"prox did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class SingularSystemError(SeqmixError):
    """A linear system inside an iteration is singular, the solver's
    spectral resolvent at an atom of the measure included."""


class SolverDivergenceError(SeqmixError):
    """An iteration diverged: its residual is NaN or above
    `model.DIVERGENCE_LIMIT`, or its iterate is not finite.  Carries the
    trajectory recorded so far (`OrderParameters` per iterate; the solver's
    ends with the failing sweep, GAMP's and rBP's with the last finite
    iterate), or None when the run recorded none, and the iteration (from 1)
    at which the run stopped.  The message names the loop, its step and what
    its residual measures, e.g. "ERM diverged at epoch 11 (gradient sup-norm
    1.047e+06)"."""

    def __init__(self, residual: float, trajectory, iteration: int, *,
                 loop: str, step: str, measure: str):
        self.residual = residual
        self.trajectory = trajectory
        self.iteration = iteration
        super().__init__(
            f"{loop} diverged at {step} {iteration} ({measure} {residual:.3e})"
        )


class StalledError(SeqmixError):
    """ERM's line search failed to decrease the objective in `erm.MAX_STALLS`
    consecutive epochs."""
