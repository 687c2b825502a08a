"""Config-driven command line: solver sweeps, simulator and training runs,
and the cross-verification suite.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  `sweep`
solves its lambdas in a process pool whose size defaults to the
SEQMIX_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import config_hash, ExperimentConfig, load_experiment
from .erm import empirical_test_error, erm_train, TrainConfig
from .errors import SeqmixError, SpecValidationError
from .gamp import gamp_run, gd_gradient_norm, generate_dataset, rbp_run
from .model import validate_spec
from .saddle import solve_fixed_point
from .serialize import (
    CURVE_HEADER,
    curve_row,
    save_report,
    trajectory_header,
    trajectory_rows,
    write_table,
)
from .verify import run_checks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _metadata(cfg: ExperimentConfig, extra: dict | None = None) -> dict:
    meta = {
        "tool": f"seqmix {__version__}",
        "config": cfg.source_path or "<inline>",
        "config_hash": config_hash(cfg.source_path) if cfg.source_path else "",
        "model": cfg.spec.name,
        "mc_seed": cfg.solver.mc_plan.seed,
    }
    meta.update(extra or {})
    return meta


def _load_with_overrides(
    path, mc_samples: int | None, seed: int | None
) -> ExperimentConfig:
    """Load a config and apply the --mc-samples / --seed overrides."""
    cfg = load_experiment(path)
    if mc_samples is not None:
        cfg.solver.mc_plan = replace(cfg.solver.mc_plan, n_samples=mc_samples)
    if seed is not None:
        cfg.solver.mc_plan = replace(cfg.solver.mc_plan, seed=seed)
    return cfg


def _load_and_validate(args) -> ExperimentConfig:
    if not args.config or not Path(args.config).exists():
        raise SpecValidationError(f"config file not found: {args.config!r}")
    cfg = _load_with_overrides(args.config, args.mc_samples, args.seed)
    if args.out:
        cfg.out_dir = args.out
    bad = cfg.violations() + validate_spec(cfg.spec)
    if bad:
        raise SpecValidationError("; ".join(bad))
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    return cfg


# ----------------------------------------------------------------------
# solve-se / sweep
# ----------------------------------------------------------------------

def replace_spec(spec, alpha: float, lam: float):
    return replace(spec, dims=replace(spec.dims, alpha=alpha, lam=lam))


def _alpha_line(cfg: ExperimentConfig, lam: float) -> tuple[list[list], list]:
    """Solve the alpha grid at one lambda, warm-starting along it."""
    rows = []
    reports = []
    warm = None
    for alpha in cfg.alphas:
        spec = replace_spec(cfg.spec, alpha=alpha, lam=lam)
        solver = cfg.solver
        if warm is not None:
            solver = replace(solver, warm_start=warm)
        try:
            report = solve_fixed_point(spec, spec.nu, solver)
            warm = report.params
            reports.append(report)
            rows.append(
                curve_row(
                    spec.name, alpha, lam, "-", report.test_error,
                    report.test_error_stderr, report.train_loss, float("nan"),
                    report.iterations, report.converged,
                )
                + [report.free_entropy]
            )
        except SeqmixError as exc:
            reports.append(None)
            rows.append(
                curve_row(spec.name, alpha, lam, "-", float("nan"), float("nan"),
                          float("nan"), float("nan"), 0, False)
                + [float("nan")]
            )
            print(f"  alpha={alpha} lam={lam}: {exc}", file=sys.stderr)
    return rows, reports


def _alpha_line_from_path(
    path: str, lam: float, mc_samples: int | None = None, seed: int | None = None
) -> list[list]:
    """Worker entry point: reload the config so nothing unpicklable crosses
    the process boundary."""
    rows, _ = _alpha_line(_load_with_overrides(path, mc_samples, seed), lam)
    return rows


def cmd_solve_se(args) -> int:
    cfg = _load_and_validate(args)
    lam = cfg.lambdas[0]
    rows, reports = _alpha_line(cfg, lam)
    for alpha, report in zip(cfg.alphas, reports):
        if report is not None:
            save_report(report, Path(cfg.out_dir) / f"report_alpha{alpha}.json")
            if report.trajectory:
                dims = cfg.spec.dims
                write_table(
                    Path(cfg.out_dir) / f"se_trajectory_alpha{alpha}.csv",
                    trajectory_header(dims),
                    trajectory_rows(report.trajectory, report.residual_history, dims),
                    _metadata(cfg, {"alpha": alpha, "lam": lam}),
                )
    out = Path(cfg.out_dir) / "learning_curve.csv"
    write_table(out, CURVE_HEADER + ["free_entropy"], rows, _metadata(cfg))
    print(f"wrote {out}")
    return EXIT_OK if all(r[-2] for r in rows) else EXIT_NUMERICAL


def cmd_sweep(args) -> int:
    cfg = _load_and_validate(args)
    workers = args.workers or int(os.environ.get("SEQMIX_WORKERS", "1"))
    lines: list[list[list]] = []
    if workers > 1 and len(cfg.lambdas) > 1 and cfg.source_path:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _alpha_line_from_path, cfg.source_path, lam,
                    args.mc_samples, args.seed,
                )
                for lam in cfg.lambdas
            ]
            # rows are collected in grid order regardless of completion order
            lines = [f.result() for f in futures]
    else:
        lines = [_alpha_line(cfg, lam)[0] for lam in cfg.lambdas]
    rows = [row for line in lines for row in line]
    out = Path(cfg.out_dir) / "sweep.csv"
    write_table(out, CURVE_HEADER + ["free_entropy"], rows, _metadata(cfg))
    print(f"wrote {out}")
    return EXIT_OK if all(r[-2] for r in rows) else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# run-gamp / run-rbp
# ----------------------------------------------------------------------

def _simulate(args, use_rbp: bool) -> int:
    cfg = _load_and_validate(args)
    dims = cfg.spec.dims
    opts = cfg.gamp
    n = opts.n or int(round(dims.alpha * opts.d))
    ok = True
    rows = []
    for seed in opts.seeds:
        data = generate_dataset(cfg.spec, cfg.spec.nu, d=opts.d, n=n, seed=seed)
        name = "rbp" if use_rbp else "gamp"
        try:
            if use_rbp:
                w_hat, traj = rbp_run(
                    data, cfg.spec, max_iters=opts.max_iters, tol=opts.tol
                )
                residuals: list[float] = []
                converged = True
            else:
                res = gamp_run(
                    data, cfg.spec, max_iters=opts.max_iters, tol=opts.tol,
                    damping=opts.damping,
                )
                w_hat, traj = res.w_hat, res.trajectory
                residuals = res.residual_history
                converged = res.converged
                ok = ok and converged
        except SeqmixError as exc:
            print(f"  seed={seed}: {exc}", file=sys.stderr)
            ok = False
            continue
        table = Path(cfg.out_dir) / f"{name}_trajectory_seed{seed}.csv"
        write_table(
            table,
            trajectory_header(dims),
            trajectory_rows(traj, residuals, dims),
            _metadata(cfg, {"seed": seed, "d": opts.d, "n": n}),
        )
        gnorm = gd_gradient_norm(w_hat, data, cfg.spec)
        eg, eg_se = empirical_test_error(
            w_hat, data, cfg.spec, n_test=cfg.erm.n_test, seed=seed + 5000
        )
        rows.append(
            curve_row(cfg.spec.name, dims.alpha, dims.lam, seed, eg, eg_se,
                      float("nan"), gnorm, len(traj), converged)
        )
        print(f"wrote {table}")
    out = Path(cfg.out_dir) / ("rbp_final.csv" if use_rbp else "gamp_final.csv")
    write_table(out, CURVE_HEADER, rows, _metadata(cfg))
    print(f"wrote {out}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_run_gamp(args) -> int:
    return _simulate(args, use_rbp=False)


def cmd_run_rbp(args) -> int:
    return _simulate(args, use_rbp=True)


# ----------------------------------------------------------------------
# run-erm
# ----------------------------------------------------------------------

def cmd_run_erm(args) -> int:
    cfg = _load_and_validate(args)
    dims = cfg.spec.dims
    opts = cfg.erm
    n = int(round(dims.alpha * opts.d))
    rows = []
    ok = True
    for seed in opts.seeds:
        data = generate_dataset(cfg.spec, cfg.spec.nu, d=opts.d, n=n, seed=seed)
        try:
            fit = erm_train(
                data, cfg.spec,
                config=TrainConfig(grad_tol=opts.grad_tol, max_epochs=opts.max_epochs),
            )
        except SeqmixError as exc:
            print(f"  seed={seed}: {exc}", file=sys.stderr)
            ok = False
            continue
        eg, eg_se = empirical_test_error(
            fit.w_hat, data, cfg.spec, n_test=opts.n_test, seed=seed + 9000
        )
        rows.append(
            curve_row(cfg.spec.name, dims.alpha, dims.lam, seed, eg, eg_se,
                      fit.train_loss_per_d, fit.grad_norm, fit.iterations,
                      fit.converged)
        )
        ok = ok and fit.converged
    out = Path(cfg.out_dir) / "erm_curve.csv"
    write_table(out, CURVE_HEADER, rows, _metadata(cfg, {"d": opts.d, "n": n}))
    print(f"wrote {out}")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# solve-se trajectory emission + verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    try:
        results = run_checks(args.instance)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        report = Path(args.out) / "verify_report.txt"
        report.write_text("\n".join(r.line() for r in results) + "\n")
        print(f"wrote {report}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmix",
        description=(
            "Asymptotic learning curves for sequence models on correlated "
            "Gaussian mixtures: fixed-point solver, message-passing simulators, "
            "gradient-descent lab, and a cross-verification suite."
        ),
    )
    parser.add_argument("--version", action="version", version=f"seqmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file (INI)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override expectation seed")
        p.add_argument("--mc-samples", type=int, default=None,
                       help="override Monte Carlo sample count")

    p = sub.add_parser("solve-se", help="solve the alpha grid, warm-starting along it")
    common(p)
    p.set_defaults(fn=cmd_solve_se)

    p = sub.add_parser("sweep", help="solve the full alpha x lambda grid")
    common(p)
    p.add_argument("--workers", type=int, default=None,
                   help="processes solving lambdas in parallel "
                        "(default: env SEQMIX_WORKERS or 1)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("run-gamp", help="simulate message passing on generated datasets")
    common(p)
    p.set_defaults(fn=cmd_run_gamp)

    p = sub.add_parser("run-rbp", help="simulate the directed-message variant")
    common(p)
    p.set_defaults(fn=cmd_run_rbp)

    p = sub.add_parser("run-erm", help="train by gradient descent over a seed list")
    common(p)
    p.set_defaults(fn=cmd_run_erm)

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--instance", default="all",
                   help="zoo instance name (ridge | logistic_gmm | two_token) or 'all'")
    p.add_argument("--out", default=None, help="directory for the verification report")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches the contract
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SpecValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SeqmixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
