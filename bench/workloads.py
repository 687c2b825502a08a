"""The benchmark's workloads: inputs, timed tasks and correctness checks.

A workload is a closed loop of tasks run one after another in one process.
A task is the unit that is timed; it holds one or more items (a fixed point,
a simulator run or a reference fit), and every item is checked against the
gate constants pinned in `seqmix.verify`.  The program is driven only
through public entry points: `seqmix.cli.main` for the solver workloads and
the public functions of `seqmix.gamp`, `seqmix.erm` and `seqmix.oracles` for
the finite-d ones.  Calls go through the module attribute (`gamp.gamp_run`,
not a name imported here), so the tracer's wrappers see them.

Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

# Sizes.  Changing any of them changes the benchmark; see NOTES.md.
CURVE_MC_SAMPLES = 1000
CURVE_ALPHAS = (0.5, 1.0, 2.0)
SWEEP_ALPHAS = (0.5, 1.0, 2.0, 4.0)
SWEEP_LAMBDAS = (0.05, 0.1)
SWEEP_GH_ORDERS = {"ridge": 31, "square_gmm": 31, "logistic_gmm": 51, "two_token": 7}
GAMP_RUNS = (("logistic_gmm", 2000, 2), ("two_token", 1000, 2))  # instance, d, seeds
RBP_D, RBP_N = 40, 80
ERM_D, ERM_ALPHAS, ERM_SEEDS, ERM_N_TEST = 500, (0.5, 2.0), 2, 200_000
RIDGE_D, RIDGE_SEEDS = 4000, 2


@dataclass
class Verdict:
    item: str
    ok: bool
    detail: str


@dataclass
class Task:
    name: str
    items: list[str]
    run: Callable[[], Any]
    check: Callable[[Any], list[Verdict]]


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    # LossModel instances built at set-up; the tracer counts their hooks
    losses: list = field(default_factory=list)
    # statistical comparisons against verify bounds, reported and not gated;
    # called with the first output of every task
    comparisons: Optional[Callable[[dict], list[dict]]] = None


def _dataset_seeds(seed: int, count: int) -> list[int]:
    return [1000 * seed + k for k in range(count)]


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# ----------------------------------------------------------------------
# Solver workloads, driven through the command line.
# ----------------------------------------------------------------------

def _ini(instance: str, seed: int, solver: dict, mc: dict, alphas, lambdas) -> str:
    lines = ["[model]", f"instance = {instance}", "", "[mc]", f"seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in mc.items()]
    lines += ["", "[solver]"] + [f"{k} = {v}" for k, v in solver.items()]
    lines += ["", "[sweep]",
              "alphas = " + ", ".join(repr(a) for a in alphas),
              "lambdas = " + ", ".join(repr(x) for x in lambdas), ""]
    return "\n".join(lines)


def _curve_rows(path: Path) -> list[dict]:
    from seqmix import serialize

    _, header, rows = serialize.read_table(path)
    return [dict(zip(header, row)) for row in rows]


def _free_energy_verdict(item: str, row: dict, tol: float, et_se: float, phi_se: float):
    from seqmix.verify import FREE_ENERGY_FACTOR

    et, phi = float(row["et"]), float(row["free_entropy"])
    gap = abs(et + phi)
    bound = FREE_ENERGY_FACTOR * (tol + et_se + phi_se)
    ok = row["converged"] == "True" and _finite(et, phi) and gap <= bound
    return Verdict(item, ok, f"converged={row['converged']} iters={row['iterations']} "
                             f"|et+phi|={gap:.2e} vs {bound:.2e}")


def _consume(path: Path) -> None:
    """Delete an output once read, so a later round cannot pass on it."""
    path.unlink(missing_ok=True)


def curve_mc(seed: int, work: Path) -> Workload:
    """solve-se, Monte Carlo, three warm-started alphas of logistic_gmm."""
    from seqmix import cli

    tol = 1e-8
    config = work / "curve-mc.ini"
    config.write_text(_ini(
        "logistic_gmm", seed,
        solver={"damping": 0.5, "tol": tol, "max_iters": 500},
        mc={"antithetic": "true", "crn": "true"},
        alphas=CURVE_ALPHAS, lambdas=(0.05,),
    ))
    out = work / "curve-mc"
    argv = ["solve-se", "--config", str(config), "--out", str(out),
            "--mc-samples", str(CURVE_MC_SAMPLES)]
    items = [f"alpha={a}" for a in CURVE_ALPHAS]

    def run():
        return cli.main(argv)

    def check(code) -> list[Verdict]:
        curve = out / "learning_curve.csv"
        rows = _curve_rows(curve) if curve.exists() else []
        _consume(curve)
        verdicts = []
        for item, alpha in zip(items, CURVE_ALPHAS):
            row = next((r for r in rows if float(r["alpha"]) == alpha), None)
            report = out / f"report_alpha{alpha}.json"
            if row is None or not report.exists():
                verdicts.append(Verdict(item, False, f"exit {code}: no row or report"))
                continue
            doc = json.loads(report.read_text())
            _consume(report)
            verdicts.append(_free_energy_verdict(
                item, row, tol, doc["train_loss_stderr"], doc["free_entropy_stderr"]))
        return verdicts

    return Workload("curve-mc", [Task("solve-se", items, run, check)])


def sweep_gh(seed: int, work: Path) -> Workload:
    """sweep over an alpha x lambda grid for each zoo instance, Gauss-Hermite."""
    from seqmix import cli, oracles
    from seqmix.verify import RIDGE_ORACLE_ATOL

    tol = 1e-10
    tasks = []
    for instance, order in SWEEP_GH_ORDERS.items():
        config = work / f"sweep-gh-{instance}.ini"
        config.write_text(_ini(
            instance, seed,
            solver={"damping": 0.3, "tol": tol, "max_iters": 2000},
            mc={"gh_order": order},
            alphas=SWEEP_ALPHAS, lambdas=SWEEP_LAMBDAS,
        ))
        out = work / f"sweep-gh-{instance}"
        argv = ["sweep", "--config", str(config), "--out", str(out)]
        items = [f"{instance} alpha={a} lam={x}" for x in SWEEP_LAMBDAS for a in SWEEP_ALPHAS]

        def check(code, instance=instance, out=out, items=items) -> list[Verdict]:
            table = out / "sweep.csv"
            rows = _curve_rows(table) if table.exists() else []
            _consume(table)
            if len(rows) != len(items):
                return [Verdict(item, False, f"exit {code}: {len(rows)} rows") for item in items]
            verdicts = []
            for item, row in zip(items, rows):
                # quadrature nodes carry no sampling error, so the identity
                # bound is the solver tolerance alone
                v = _free_energy_verdict(item, row, tol, 0.0, 0.0)
                if instance == "ridge":
                    oracle = oracles.ridge_asymptotics(float(row["alpha"]), float(row["lam"]))
                    diff = abs(float(row["eg"]) - oracle.test_error)
                    v.ok = v.ok and diff <= RIDGE_ORACLE_ATOL
                    v.detail += f" |eg-oracle|={diff:.2e} vs {RIDGE_ORACLE_ATOL:.0e}"
                verdicts.append(v)
            return verdicts

        tasks.append(Task(f"sweep {instance}", items, lambda argv=argv: cli.main(argv), check))
    return Workload("sweep-gh", tasks)


# ----------------------------------------------------------------------
# Finite-d workloads, driven through the library.
# ----------------------------------------------------------------------

def _gamp_task(spec, d: int, n: int, data_seed: int) -> Task:
    from seqmix import gamp
    from seqmix.verify import GD_FIXEDPOINT_SCALE
    import numpy as np

    item = f"{spec.name} d={d} seed={data_seed}"

    def run():
        data = gamp.generate_dataset(spec, spec.nu, d=d, n=n, seed=data_seed)
        return data, gamp.gamp_run(data, spec, max_iters=2000, tol=1e-12, damping=0.0)

    def check(out) -> list[Verdict]:
        data, res = out
        bound = GD_FIXEDPOINT_SCALE * (
            1.0 + gamp.gd_gradient_norm(np.zeros((d, spec.dims.r)), data, spec))
        gnorm = gamp.gd_gradient_norm(res.w_hat, data, spec)
        ok = res.converged and gnorm <= bound
        return [Verdict(item, ok, f"converged={res.converged} "
                                  f"iters={len(res.residual_history)} "
                                  f"grad {gnorm:.2e} vs {bound:.2e}")]

    return Task(f"gamp {item}", [item], run, check)


def gamp_sim(seed: int, work: Path) -> Workload:
    """GAMP to convergence at finite d, plus rBP against GAMP."""
    from seqmix import gamp, zoo
    from seqmix.verify import GMM_LAM, RBP_GAMP_RMS, RIDGE_LAM
    import numpy as np

    specs = {
        "logistic_gmm": lambda d: zoo.gmm_instance(alpha=1.0, lam=GMM_LAM, d=d),
        "two_token": lambda d: zoo.two_token_instance(alpha=1.2, lam=RIDGE_LAM, d=d),
    }
    tasks, losses = [], []
    for instance, d, n_seeds in GAMP_RUNS:
        spec = specs[instance](d)
        losses.append(spec.loss)
        n = int(round(spec.dims.alpha * d))
        tasks += [_gamp_task(spec, d, n, s) for s in _dataset_seeds(seed, n_seeds)]

    rbp_spec = zoo.ridge_instance(alpha=RBP_N / RBP_D, lam=RIDGE_LAM, d=RBP_D)
    losses.append(rbp_spec.loss)
    rbp_seed = _dataset_seeds(seed, 1)[0]
    item = f"rbp-vs-gamp ridge d={RBP_D} seed={rbp_seed}"

    def run_rbp():
        data = gamp.generate_dataset(rbp_spec, rbp_spec.nu, d=RBP_D, n=RBP_N, seed=rbp_seed)
        res = gamp.gamp_run(data, rbp_spec, max_iters=500, tol=1e-11, damping=0.0)
        w_bp, _ = gamp.rbp_run(data, rbp_spec, max_iters=500, tol=1e-11)
        return res.w_hat, w_bp

    def check_rbp(out) -> list[Verdict]:
        w_gamp, w_bp = out
        rms = float(np.sqrt(np.mean((w_gamp - w_bp) ** 2)))
        bound = RBP_GAMP_RMS / np.sqrt(RBP_D)
        return [Verdict(item, rms <= bound, f"coordinate RMS {rms:.4f} vs {bound:.4f}")]

    tasks.append(Task("rbp-vs-gamp", [item], run_rbp, check_rbp))
    return Workload("gamp-sim", tasks, losses)


def erm_ref(seed: int, work: Path) -> Workload:
    """The finite-d references behind the acceptance gate, at per-fit sizes."""
    from seqmix import erm, gamp, oracles, zoo
    from seqmix.verify import GMM_LAM, RIDGE_ALPHAS, RIDGE_LAM

    train = erm.TrainConfig(grad_tol=1e-6, max_epochs=6000)
    tasks, losses = [], []
    erm_tasks: dict[float, tuple] = {}     # alpha -> (spec, task names)
    ridge_tasks: dict[float, str] = {}     # alpha -> task name
    for alpha in ERM_ALPHAS:
        spec = zoo.gmm_instance(alpha=alpha, lam=GMM_LAM)
        losses.append(spec.loss)
        n = int(round(alpha * ERM_D))
        erm_tasks[alpha] = (spec, [])
        for data_seed in _dataset_seeds(seed, ERM_SEEDS):
            item = f"erm logistic_gmm alpha={alpha} seed={data_seed}"
            erm_tasks[alpha][1].append(item)

            def run(spec=spec, n=n, data_seed=data_seed):
                data = gamp.generate_dataset(spec, spec.nu, d=ERM_D, n=n, seed=data_seed)
                fit = erm.erm_train(data, spec, config=train)
                eg, eg_se = erm.empirical_test_error(
                    fit.w_hat, data, spec, n_test=ERM_N_TEST, seed=data_seed + 1000)
                return fit, eg, eg_se

            def check(out, item=item) -> list[Verdict]:
                fit, eg, eg_se = out
                ok = fit.grad_norm <= train.grad_tol and _finite(
                    eg, eg_se, fit.train_loss_per_d, fit.grad_norm)
                return [Verdict(item, ok, f"epochs={fit.iterations} grad {fit.grad_norm:.2e} "
                                          f"vs {train.grad_tol:.0e} eg={eg:.4f}")]

            tasks.append(Task(item, [item], run, check))

    ridge_seeds = _dataset_seeds(seed, RIDGE_SEEDS)
    for alpha in RIDGE_ALPHAS:
        item = f"finite_d_ridge d={RIDGE_D} alpha={alpha} seeds={ridge_seeds}"
        ridge_tasks[alpha] = item

        def check_ridge(out, item=item) -> list[Verdict]:
            return [Verdict(item, _finite(*out), "eg={:.5f}+-{:.5f} et={:.5f}+-{:.5f}".format(*out))]

        tasks.append(Task(
            item, [item],
            lambda alpha=alpha: oracles.finite_d_ridge(alpha, RIDGE_LAM, RIDGE_D, ridge_seeds),
            check_ridge,
        ))

    def comparisons(results: dict) -> list[dict]:
        """ERM against the solver's prediction and finite-d ridge against the
        oracle, in pooled standard errors next to the verify bounds."""
        import numpy as np
        from seqmix import model, saddle
        from seqmix.gaussian import McPlan
        from seqmix.verify import ERM_SIGMA, RIDGE_EMP_SIGMA

        out = []
        for alpha, (spec, names) in erm_tasks.items():
            egs = [results[name][1] for name in names if name in results]
            if len(egs) < 2:
                continue
            config = saddle.SolverConfig(damping=0.3, tol=1e-10, max_iters=2000,
                                         mc_plan=McPlan(gh_order=SWEEP_GH_ORDERS["logistic_gmm"]))
            rep = saddle.solve_fixed_point(spec, spec.nu, config)
            fixed = model.compute_fixed_statistics(spec.nu, spec.dims)
            eg_th, se_th = saddle.test_error(rep.params, fixed, spec,
                                             McPlan(n_samples=400_000, seed=23))
            se_emp = float(np.std(egs, ddof=1) / np.sqrt(len(egs)))
            sigma = abs(eg_th - float(np.mean(egs))) / max(math.hypot(se_th, se_emp), 1e-12)
            out.append({"name": f"erm-vs-solver alpha={alpha}", "value": sigma,
                        "bound": ERM_SIGMA, "unit": "sigma", "seeds": len(egs)})
        for alpha, name in ridge_tasks.items():
            if name not in results:
                continue
            eg, eg_se = results[name][0], results[name][1]
            oracle = oracles.ridge_asymptotics(alpha, RIDGE_LAM).test_error
            sigma = abs(oracle - eg) / max(eg_se, 1e-12)
            out.append({"name": f"ridge-vs-oracle alpha={alpha}", "value": sigma,
                        "bound": RIDGE_EMP_SIGMA, "unit": "sigma", "seeds": RIDGE_SEEDS})
        return out

    return Workload("erm-ref", tasks, losses, comparisons)


WORKLOADS = {
    "curve-mc": curve_mc,
    "sweep-gh": sweep_gh,
    "gamp-sim": gamp_sim,
    "erm-ref": erm_ref,
}
