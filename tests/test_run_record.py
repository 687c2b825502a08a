"""How each iterative loop stops: converged, at its iteration cap, or by
raising.  The solver, GAMP, rBP and ERM all report the first two through
one `RunRecord`."""

import dataclasses

import numpy as np
import pytest

from seqmix.erm import erm_train, TrainConfig
from seqmix.errors import SolverDivergenceError, StalledError
from seqmix.gamp import gamp_run, generate_dataset, rbp_run
from seqmix.gaussian import McPlan
from seqmix.model import ModelSpec, OrderParameters, RunRecord
from seqmix.saddle import solve_fixed_point, SolverConfig
from seqmix.zoo import gmm_instance, ridge_instance

SPEC = ridge_instance(alpha=2.0, lam=0.1)


def _data(spec):
    return generate_dataset(spec, spec.nu, d=20, n=40, seed=17)


def run_solver(spec, max_iters, tol):
    cfg = SolverConfig(damping=0.0, tol=tol, max_iters=max_iters,
                       mc_plan=McPlan(gh_order=7), record_trajectory=True)
    return solve_fixed_point(spec, spec.nu, cfg)


def run_gamp(spec, max_iters, tol):
    return gamp_run(_data(spec), spec, max_iters=max_iters, tol=tol, damping=0.0)


def run_rbp(spec, max_iters, tol):
    return rbp_run(_data(spec), spec, max_iters=max_iters, tol=tol)[1]


def run_erm(spec, max_iters, tol):
    return erm_train(_data(spec), spec, config=TrainConfig(grad_tol=tol, max_epochs=max_iters))


LOOPS = {"solver": run_solver, "gamp": run_gamp, "rbp": run_rbp, "erm": run_erm}


def nan_after(spec, hook, calls):
    """spec whose loss hook `hook` returns NaN from call number calls + 1 on."""
    count = [0]
    inner = getattr(spec.loss, hook)

    def wrapped(*args):
        count[0] += 1
        out = inner(*args)
        return out if count[0] <= calls else np.full_like(out, np.nan)

    loss = dataclasses.replace(spec.loss, **{hook: wrapped})
    return ModelSpec(spec.dims, spec.class_law, spec.nu, loss), count


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_converged(loop):
    record = LOOPS[loop](SPEC, 500, 1e-7)
    assert isinstance(record, RunRecord)
    assert record.converged and record.residual_history[-1] <= 1e-7
    assert record.iterations == len(record.residual_history) > 1
    if loop == "erm":
        assert record.trajectory is None
    else:
        assert len(record.trajectory) == record.iterations


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_max_iterations(loop):
    record = LOOPS[loop](SPEC, 2, 1e-300)
    assert not record.converged
    assert record.iterations == len(record.residual_history) == 2


def test_solver_non_finite_iterate_raises_with_prefix():
    # from the 4th sweep on the prox returns NaN: q, m, theta and v turn NaN
    # while V converges (GAMP and rBP: test_gamp.py::TestFailures)
    spec, _ = nan_after(SPEC, "prox", 3)
    with pytest.raises(SolverDivergenceError) as info:
        run_solver(spec, 20, 1e-8)
    prefix = info.value.trajectory
    assert len(prefix) == 4 and all(isinstance(s, OrderParameters) for s in prefix)
    assert info.value.iteration == 4
    assert all(np.all(np.isfinite(a)) for s in prefix[:3] for a in s.blocks().values())


def test_damped_solver_non_finite_image_raises():
    # the Anderson-mixed solve meets the NaN image with a full history
    spec, _ = nan_after(SPEC, "prox", 5)
    cfg = SolverConfig(damping=0.3, tol=1e-8, max_iters=50, mc_plan=McPlan(gh_order=7))
    with pytest.raises(SolverDivergenceError) as info:
        solve_fixed_point(spec, spec.nu, cfg)
    assert info.value.iteration == 6


def test_solver_overflowed_residual_raises():
    # undamped, this solve grows geometrically with bounded relative
    # residuals until a block norm overflows; the NaN block residual of
    # that sweep must stop it, where it used to run all 500 sweeps and
    # return q = 3.7e164
    spec = gmm_instance(loss="square")
    cfg = SolverConfig(damping=0.0, init="gamp", max_iters=500, mc_plan=McPlan(gh_order=31))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverDivergenceError):
        solve_fixed_point(spec, spec.nu, cfg)


def test_erm_non_finite_objective_stalls():
    # Armijo never accepts a NaN objective: 50 stalled epochs of 60 trial
    # steps each, after the 3 finite evaluations
    spec, count = nan_after(SPEC, "eval", 3)
    with pytest.raises(StalledError):
        run_erm(spec, 5000, 1e-12)
    assert count[0] == 3 + 50 * 60
