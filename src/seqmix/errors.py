"""Exception hierarchy shared across the package."""


class SeqmixError(Exception):
    """Base class for all package-specific failures."""


class SpecValidationError(SeqmixError):
    """A problem instance violates a structural invariant."""


class DegenerateOverlapError(SeqmixError):
    """Singular self-overlap q with a teacher overlap outside its range."""


class InconsistentOverlapsError(SeqmixError):
    """Joint (X, Y) covariance block is indefinite beyond tolerance."""


class SingularResolventError(SeqmixError):
    """The spectral resolvent is singular at an atom of the measure."""

    def __init__(self, atom_index: int, min_singular_value: float):
        self.atom_index = atom_index
        self.min_singular_value = min_singular_value
        super().__init__(
            f"resolvent singular at atom {atom_index} "
            f"(min singular value {min_singular_value:.3e})"
        )


class ProxConvergenceError(SeqmixError):
    """Inner prox solver ran out of iterations.

    Carries the last iterate and residual so the caller can retry with
    more damping.
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
    """A linear system inside an iteration is singular."""


class LossBlowupError(SeqmixError):
    """Loss returned a non-finite value along the prox path."""


class McIntegrandError(SeqmixError):
    """An expectation integrand returned a non-finite value."""

    def __init__(self, class_tuple, sample_index: int):
        self.class_tuple = class_tuple
        self.sample_index = sample_index
        super().__init__(
            f"non-finite integrand at class {class_tuple}, sample {sample_index}"
        )


class SolverDivergenceError(SeqmixError):
    """Fixed-point iteration diverged; carries the trajectory prefix."""

    def __init__(self, residual: float, trajectory=None):
        self.residual = residual
        self.trajectory = trajectory
        super().__init__(f"fixed-point iteration diverged (residual {residual:.3e})")


class StalledError(SeqmixError):
    """Gradient descent failed to decrease the objective repeatedly."""
