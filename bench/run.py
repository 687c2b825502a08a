"""seqmix benchmark: one command, one workload per run.

    python3 bench/run.py --workload curve-mc --seed 0 --seconds 35 --trace 0

Runs from a source checkout (it imports `src/seqmix`, nothing installed).
The workload's tasks run round after round in this process until the next
round would end past `--seconds` (at least one round).  With `--trace 0` the
last stdout line is the JSON result with the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, taken
from traced rounds that alternate with untraced ones (the tracing overhead
is their ratio).  A full record of the run, with its context, every task time,
every item verdict, the exact-count fingerprint and the statistical
comparisons, goes to `.bench_work/results/`.  NOTES.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}

# Counts that must repeat exactly for one workload and seed.
FINGERPRINT = (
    "saddle.solve_fixed_point.sweeps",
    "gamp.gamp_run.iterations",
    "erm.erm_train.epochs",
    "gamp.empirical_risk_and_grad.calls",
    "losses.scalar_calls",
    "losses.batch_calls",
    "gaussian.gauss_hermite_nodes.calls",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time import + input build in this fresh interpreter")
    return p.parse_args(argv)


def _use_checkout_sources() -> None:
    if not (SRC / "seqmix" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no seqmix sources under {SRC}")
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Run context.
# ----------------------------------------------------------------------

def _host_steal_s() -> float:
    """Machine-wide steal time since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _blas() -> dict:
    """BLAS vendor from numpy's build config; thread count as found in the
    loaded OpenBLAS (never set here)."""
    import ctypes

    import numpy as np

    info = {"vendor": "unknown", "threads": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas:
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def run_context() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "env_threads": {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "SEQMIX_WORKERS") if k in os.environ},
    }


# ----------------------------------------------------------------------
# Set-up time.
# ----------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child mode: import seqmix and build the workload's inputs."""
    t0 = time.perf_counter()
    _use_checkout_sources()
    import workloads

    probe_dir = WORK / f"probe-{os.getpid()}"
    probe_dir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[args.workload](args.seed, probe_dir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure_setup(args) -> list[float]:
    """Median-ready set-up times, each from a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------
# Rounds.
# ----------------------------------------------------------------------

class Runner:
    """Runs a workload's tasks in rounds and keeps every time and verdict."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.task_times: dict[str, list[float]] = {t.name: [] for t in workload.tasks}
        self.round_times: list[float] = []
        self.first_outputs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.last_verdicts: list[dict] = []

    def round(self) -> float:
        if self.tracer is None:
            return self._round()
        with self.tracer.root():
            return self._round()

    def _round(self) -> float:
        verdicts = []
        total = 0.0
        for task in self.workload.tasks:
            t0 = time.perf_counter()
            try:
                out, error = task.run(), None
            except Exception:  # any failure is an item failure, not a crash
                out, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            total += dt
            self.task_times[task.name].append(dt)
            if error is None and self.workload.comparisons is not None:
                self.first_outputs.setdefault(task.name, out)
            verdicts += self._check(task, out, error)
        self.attempted += len(verdicts)
        bad = [v for v in verdicts if not v["ok"]]
        self.failed += len(bad)
        self.failures += bad
        self.last_verdicts = verdicts
        self.round_times.append(total)
        return total

    def _check(self, task, out, error) -> list[dict]:
        """Verdicts of one task's items, as dicts; checks run untraced."""
        if error is None:
            try:
                with self.tracer.paused() if self.tracer else nullcontext():
                    verdicts = task.check(out)
                return [{"item": v.item, "ok": bool(v.ok), "detail": v.detail} for v in verdicts]
            except Exception:  # a check that cannot read the output fails the items
                error = "check raised: " + traceback.format_exc(limit=3)
        return [{"item": item, "ok": False, "detail": error} for item in task.items]


def run_rounds(step, seconds: float) -> int:
    """Call `step` (one round) until the next call would end more than
    `seconds` after the first began; at least once."""
    start = time.perf_counter()
    rounds = 0
    while True:
        step()
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) / rounds > start + seconds:
            return rounds


def wall_s(runner: Runner) -> float:
    """Wall time of one round of tasks, averaged over the run's rounds.

    The mean, not the median: the host's speed changes from task to task,
    and averaging every round narrowed the spread across runs more than a
    per-task median did."""
    return sum(runner.round_times) / len(runner.round_times)


def _count_delta(after: dict, before: dict) -> dict:
    keys = set(after) | set(before)
    return {k: after.get(k, 0) - before.get(k, 0) for k in sorted(keys)}


def layer_metrics(tracer, rounds: int, untraced_round_s: float, traced_round_s: float,
                  cpu_s: float, steal_s: float) -> dict:
    from tracer import SPANNED, span_name

    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for mod, func in SPANNED:
        name = span_name(mod, func)
        put(f"{name}.calls", counts.get(f"{name}.calls", 0) / rounds, "count")
        put(f"{name}.self_s", self_s.get(name, 0.0) / rounds, "s")
    for name in ("saddle.solve_fixed_point.sweeps", "saddle.solve_fixed_point.nonconverged",
                 "gamp.gamp_run.iterations", "gamp.gamp_run.nonconverged",
                 "erm.erm_train.epochs", "losses.scalar_calls", "losses.batch_calls"):
        put(name, counts.get(name, 0) / rounds, "count")
    evals = counts.get("erm.erm_train.risk_evals", 0)
    put("erm.step_accept_ratio",
        counts.get("erm.erm_train.accepted_steps", 0) / evals if evals else 0.0, "ratio")
    put("process.cpu_s", cpu_s, "s")
    put("process.steal_s", steal_s, "s")
    put("trace_overhead", traced_round_s / untraced_round_s - 1.0, "ratio")
    return out


def untraced_run(workload, args, record: dict) -> tuple[Runner, dict]:
    setup_times = measure_setup(args)
    record["setup_s_probes"] = setup_times
    runner = Runner(workload)
    run_rounds(runner.round, args.seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s(runner),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - runner.failed / runner.attempted,
    }
    return runner, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced_run(workload, args, record: dict, span_file: Path) -> tuple[Runner, dict]:
    """Untraced and traced rounds alternate; the untraced ones are the
    baseline of the tracing overhead and count as attempted items too."""
    from tracer import Tracer

    steal0, cpu0 = _host_steal_s(), time.process_time()
    baseline = Runner(workload)
    tracer = Tracer()
    runner = Runner(workload, tracer)
    snapshots = [{}]

    def pair():
        baseline.round()
        tracer.install(workload.losses)
        try:
            runner.round()
        finally:
            tracer.uninstall()
        snapshots.append(dict(tracer.counts))

    rounds = run_rounds(pair, args.seconds)
    deltas = [_count_delta(b, a) for a, b in zip(snapshots, snapshots[1:])]
    root_s = tracer.root_seconds()
    tracer.write_spans(span_file)
    record.update({
        "fingerprint": {k: deltas[0].get(k, 0) for k in FINGERPRINT},
        "fingerprint_rounds_identical": all(d == deltas[0] for d in deltas),
        "self_sum_error": abs(sum(tracer.self_times().values()) - root_s) / root_s,
        "traced_rounds": rounds,
        "span_file": str(span_file.relative_to(ROOT)),
    })
    metrics = layer_metrics(
        tracer, rounds, untraced_round_s=statistics.median(baseline.round_times),
        traced_round_s=statistics.median(runner.round_times),
        cpu_s=time.process_time() - cpu0, steal_s=_host_steal_s() - steal0,
    )
    runner.attempted += baseline.attempted
    runner.failed += baseline.failed
    runner.failures += baseline.failures
    return runner, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    _use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds}
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        context = run_context()
        steal0, cpu0 = _host_steal_s(), time.process_time()
        if args.trace:
            runner, metrics = traced_run(workload, args, record,
                                         results_dir / f"{tag}_spans.jsonl")
        else:
            runner, metrics = untraced_run(workload, args, record)
        context["process.cpu_s"] = time.process_time() - cpu0
        context["process.steal_s"] = _host_steal_s() - steal0
        comparisons = workload.comparisons(runner.first_outputs) if workload.comparisons else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update({
        "context": context,
        "rounds": len(runner.round_times),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "task_times_s": runner.task_times,
        "failures": runner.failures,
        "last_round_verdicts": runner.last_verdicts,
        "comparisons": comparisons,
        "metrics": metrics,
    })
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {record['rounds']} rounds, "
          f"{runner.attempted} items, {runner.failed} failed")
    print(f"  fail_ratio = {record['fail_ratio']:.4f} ratio")
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for c in comparisons:
        print(f"  {c['name']}: {c['value']:.2f} {c['unit']} (verify bound {c['bound']}, "
              f"{c['seeds']} seeds; reported, not gated)")
    for f in runner.failures[:10]:
        print(f"  FAIL {f['item']}: {f['detail']}")
    print(f"  context: nproc={context['nproc']} python={context['python']} "
          f"numpy={context['numpy']} scipy={context['scipy']} blas={context['blas']} "
          f"cpu_s={context['process.cpu_s']:.2f} steal_s={context['process.steal_s']:.2f}")
    if args.trace:
        print(f"  trace_overhead = {metrics['trace_overhead']['value']:.4f}, "
              f"self-time sum error = {record['self_sum_error']:.2e}, "
              f"fingerprint {record['fingerprint']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
