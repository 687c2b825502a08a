"""Asymptotic analysis of learning on correlated Gaussian-mixture sequences.

Three coupled surfaces over one problem definition: a fixed-point solver for
the overlap self-consistency equations (also usable as time-indexed state
evolution), finite-dimensional message-passing simulators (rBP and GAMP),
and an ERM baseline, plus a harness that cross-checks all
three against each other at desk scale.
"""

from .model import (
    ClassLaw,
    compute_fixed_statistics,
    ConjugateParameters,
    Dimensions,
    FixedStatistics,
    LossModel,
    make_atom,
    ModelSpec,
    OrderParameters,
    SpectralAtom,
    SpectralMeasure,
    validate_spec,
)
from .gaussian import McPlan
from .saddle import (
    FixedPointReport,
    solve_fixed_point,
    SolverConfig,
    test_error,
    update_hats,
    update_overlaps,
)
from .gamp import (
    Dataset,
    gamp_run,
    gd_gradient_norm,
    generate_dataset,
    rbp_run,
)
from .erm import empirical_test_error, erm_train, TrainConfig
from .zoo import instance_by_name

__version__ = "0.1.0"

__all__ = [
    "ClassLaw",
    "compute_fixed_statistics",
    "ConjugateParameters",
    "Dataset",
    "Dimensions",
    "empirical_test_error",
    "erm_train",
    "FixedPointReport",
    "FixedStatistics",
    "gamp_run",
    "gd_gradient_norm",
    "generate_dataset",
    "instance_by_name",
    "LossModel",
    "make_atom",
    "McPlan",
    "ModelSpec",
    "OrderParameters",
    "rbp_run",
    "solve_fixed_point",
    "SolverConfig",
    "SpectralAtom",
    "SpectralMeasure",
    "test_error",
    "TrainConfig",
    "update_hats",
    "update_overlaps",
    "validate_spec",
]
