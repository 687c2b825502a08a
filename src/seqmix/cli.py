"""Config-driven command line: solver sweeps, simulator and training runs,
and the cross-verification suite.

Exit codes: 0 success, 2 validation error, 3 numerical failure, which
includes a solve or a per-seed fit that stops before converging.  A config
is read and validated once, by `config.load_experiment` with --mc-samples
and --seed set on its [mc] plan, before anything runs or is written: every
alpha and lambda of its model and of its grid, including grid values the
command does not solve.  The solver's rule on lambda = 0 covers only the
lambdas a command solves.  `sweep` solves its lambdas in a pool of
`--workers` processes (default 1), never more processes than lambdas, each
handed the config the parent validated.  The per-seed commands draw
round(alpha d) samples of dimension d for each seed of [data], and exit 2
before the first fit when that count is 0.  An output directory that cannot
be created (a path through or onto a file) exits 2 before any work.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from . import __version__
from .config import ExperimentConfig, load_experiment
from .erm import empirical_test_error, erm_train
from .errors import SeqmixError, SpecValidationError
from .gamp import gamp_run, gd_gradient_norm, generate_dataset, rbp_run
from .saddle import lambda_violations, solve_fixed_point
from .serialize import (
    CURVE_HEADER,
    curve_row,
    save_report,
    trajectory_header,
    trajectory_rows,
    write_table,
)
from .verify import CHECKS_BY_INSTANCE, run_checks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _metadata(cfg: ExperimentConfig, extra: dict | None = None) -> dict:
    meta = {
        "tool": f"seqmix {__version__}",
        "config": cfg.source_path,
        "config_hash": cfg.source_hash,
        "model": cfg.spec.name,
        "mc_seed": cfg.solver.mc_plan.seed,
    }
    meta.update(extra or {})
    return meta


def _load_and_validate(args, solved: slice = slice(0)) -> ExperimentConfig:
    """The config of args, validated, with the `solved` part of its lambda
    grid checked against the solver's rule on lambda."""
    cfg = load_experiment(args.config, args.mc_samples, args.seed)
    if args.out:
        cfg.out_dir = args.out
    bad = lambda_violations(cfg.spec.loss, cfg.lambdas[solved])
    if bad:
        raise SpecValidationError("; ".join(bad))
    _make_out_dir(cfg.out_dir)
    return cfg


def _make_out_dir(path) -> Path:
    """The output directory path, created with its parents when missing; a
    path that cannot be a directory (an existing file, or a file on the
    way) is a validation error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecValidationError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


# ----------------------------------------------------------------------
# solve-se / sweep
# ----------------------------------------------------------------------

def _alpha_line(cfg: ExperimentConfig, lam: float) -> tuple[list[list], list]:
    """Solve the alpha grid at one lambda, warm-starting along it."""
    rows = []
    reports = []
    warm = None
    for alpha in cfg.alphas:
        spec = replace(cfg.spec, dims=replace(cfg.spec.dims, alpha=alpha, lam=lam))
        solver = cfg.solver
        if warm is not None:
            solver = replace(solver, warm_start=warm)
        try:
            report = solve_fixed_point(spec, spec.nu, solver)
        except SeqmixError as exc:
            reports.append(None)
            rows.append(
                curve_row(spec.name, alpha, lam, "-", float("nan"), float("nan"),
                          float("nan"), float("nan"), getattr(exc, "iteration", 0), False)
                + [float("nan")]
            )
            print(f"  alpha={alpha} lam={lam}: {exc}", file=sys.stderr)
            continue
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
        if not report.converged:
            print(f"  alpha={alpha} lam={lam}: not converged after {report.iterations} "
                  f"sweeps (residual {report.residual_history[-1]:.3e})", file=sys.stderr)
    return rows, reports


def _alpha_rows(cfg: ExperimentConfig, lam: float) -> list[list]:
    """A pool worker's line: the rows alone, which is all the parent keeps."""
    return _alpha_line(cfg, lam)[0]


def cmd_solve_se(args) -> int:
    cfg = _load_and_validate(args, solved=slice(1))
    lam = cfg.lambdas[0]
    rows, reports = _alpha_line(cfg, lam)
    for alpha, report in zip(cfg.alphas, reports):
        if report is not None:
            save_report(report, Path(cfg.out_dir) / f"report_alpha{alpha}.json")
            if report.trajectory:
                write_table(
                    Path(cfg.out_dir) / f"se_trajectory_alpha{alpha}.csv",
                    trajectory_header(cfg.spec.dims),
                    trajectory_rows(report),
                    _metadata(cfg, {"alpha": alpha, "lam": lam}),
                )
    out = Path(cfg.out_dir) / "learning_curve.csv"
    write_table(out, CURVE_HEADER + ["free_entropy"], rows, _metadata(cfg))
    print(f"wrote {out}")
    return EXIT_OK if all(r[-2] for r in rows) else EXIT_NUMERICAL


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise SpecValidationError(f"--workers must be >= 1, got {args.workers}")
    cfg = _load_and_validate(args, solved=slice(None))
    # a fork-started pool forks all its workers at the first submit
    workers = min(args.workers, len(cfg.lambdas))
    lines: list[list[list]] = []
    if workers > 1:
        # imported here so that a serial run does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_alpha_rows, cfg, lam) for lam in cfg.lambdas]
            # rows are collected in grid order regardless of completion order
            lines = [f.result() for f in futures]
    else:
        lines = [_alpha_rows(cfg, lam) for lam in cfg.lambdas]
    rows = [row for line in lines for row in line]
    out = Path(cfg.out_dir) / "sweep.csv"
    write_table(out, CURVE_HEADER + ["free_entropy"], rows, _metadata(cfg))
    print(f"wrote {out}")
    return EXIT_OK if all(r[-2] for r in rows) else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# run-gamp / run-rbp / run-erm: one fit per dataset seed
# ----------------------------------------------------------------------

def _fit_gamp(data, cfg: ExperimentConfig):
    o = cfg.gamp
    res = gamp_run(data, cfg.spec, max_iters=o.max_iters, tol=o.tol, damping=o.damping)
    return res.w_hat, res, float("nan"), gd_gradient_norm(res.w_hat, data, cfg.spec)


def _fit_rbp(data, cfg: ExperimentConfig):
    w_hat, record = rbp_run(data, cfg.spec, max_iters=cfg.gamp.max_iters, tol=cfg.gamp.tol)
    return w_hat, record, float("nan"), gd_gradient_norm(w_hat, data, cfg.spec)


def _fit_erm(data, cfg: ExperimentConfig):
    fit = erm_train(data, cfg.spec, config=cfg.erm)
    return fit.w_hat, fit, fit.train_loss_per_d, fit.grad_norm


@dataclass(frozen=True)
class PerSeed:
    """A per-seed command: the stem of its trajectory tables, its final
    table, and the fit (data, cfg) -> (w_hat, RunRecord, training loss per
    d, gradient sup-norm)."""

    stem: str
    final: str
    fit: Callable


PER_SEED = {
    "run-gamp": PerSeed("gamp", "gamp_final.csv", _fit_gamp),
    "run-rbp": PerSeed("rbp", "rbp_final.csv", _fit_rbp),
    "run-erm": PerSeed("erm", "erm_curve.csv", _fit_erm),
}

def cmd_per_seed(args, command: PerSeed) -> int:
    """Generate each seed's dataset, fit it, write the fit's trajectory when
    it recorded one, and tabulate test error and how each fit stopped (a fit
    that raised gets a row of NaN errors); exit 3 when a fit failed or
    stopped before converging."""
    cfg = _load_and_validate(args)
    dims, d = cfg.spec.dims, cfg.data.d
    n = int(round(dims.alpha * d))
    sizes = {"d": d, "n": n}
    ok = True
    rows = []
    for seed in cfg.data.seeds:
        data = generate_dataset(cfg.spec, cfg.spec.nu, d=d, n=n, seed=seed)
        try:
            w_hat, record, et, gnorm = command.fit(data, cfg)
        except SeqmixError as exc:
            print(f"  seed={seed}: {exc}", file=sys.stderr)
            nan = float("nan")
            rows.append(curve_row(cfg.spec.name, dims.alpha, dims.lam, seed, nan, nan, nan, nan,
                                  getattr(exc, "iteration", 0), False))
            ok = False
            continue
        if record.trajectory is not None:
            table = Path(cfg.out_dir) / f"{command.stem}_trajectory_seed{seed}.csv"
            write_table(table, trajectory_header(dims), trajectory_rows(record),
                        _metadata(cfg, {"seed": seed, **sizes}))
            print(f"wrote {table}")
        eg, eg_se = empirical_test_error(w_hat, data, cfg.spec)
        rows.append(curve_row(cfg.spec.name, dims.alpha, dims.lam, seed, eg, eg_se, et, gnorm,
                              record.iterations, record.converged))
        ok = ok and record.converged
    out = Path(cfg.out_dir) / command.final
    write_table(out, CURVE_HEADER, rows, _metadata(cfg, sizes))
    print(f"wrote {out}")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    # the directory is made before the checks, so a bad --out fails at once
    out = _make_out_dir(args.out) if args.out else None
    results = run_checks(args.instance)
    if out:
        report = out / "verify_report.txt"
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
            "ERM baseline, and a cross-verification suite."
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
    p.add_argument("--workers", type=int, default=1,
                   help="processes solving lambdas in parallel, at most one "
                        "per lambda (default: 1)")
    p.set_defaults(fn=cmd_sweep)

    for name, help_text in (
        ("run-gamp", "simulate message passing on generated datasets"),
        ("run-rbp", "simulate the directed-message variant"),
        ("run-erm", "train by ERM (L-BFGS) over a seed list"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(fn=partial(cmd_per_seed, command=PER_SEED[name]))

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--instance", default="all", choices=[*CHECKS_BY_INSTANCE, "all"],
                   help="zoo instance whose checks to run, or 'all' (default)")
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
