"""In-memory span tracer for the benchmark.

The program is traced from the outside: each public function named in
SPANNED is replaced by a timing wrapper at every binding site, i.e. in its
defining module and in every seqmix module that imported it by name
(`saddle` imports `energetic_nodes`, `cli` imports `solve_fixed_point`, ...),
so a call lands in one span whichever name it was made through.  The loss
hooks are too many and too small for spans (about a million scalar `hess_X`
calls per Monte Carlo fixed point); they are only counted.

A span is [name, start_ns, end_ns, parent_index].  Spans stay in memory and
are written out by the caller at the end; a span's self time is its duration
minus the durations of its direct children, so the self times of all spans
under a root sum to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs that get a span per call; every one of them
# reports `.calls` and `.self_s` as a per-layer metric.
SPANNED = (
    ("cli", "main"),
    ("serialize", "write_table"),
    ("serialize", "save_report"),
    ("saddle", "solve_fixed_point"),
    ("saddle", "update_hats"),
    ("saddle", "update_overlaps"),
    ("saddle", "expected_envelope"),
    ("saddle", "test_error"),
    ("gaussian", "gauss_hermite_nodes"),
    ("gaussian", "energetic_nodes"),
    ("gaussian", "joint_xy_nodes"),
    ("gaussian", "standard_normals"),
    ("gamp", "generate_dataset"),
    ("gamp", "gamp_run"),
    ("gamp", "rbp_run"),
    ("gamp", "empirical_risk_and_grad"),
    ("erm", "erm_train"),
    ("erm", "empirical_test_error"),
    ("oracles", "finite_d_ridge"),
)

# LossModel hook fields, counted per call.
SCALAR_HOOKS = ("eval", "grad_X", "hess_X", "d3", "test_eval", "cross_XY", "prox_closed_form")
BATCH_HOOKS = ("eval_batch", "grad_X_batch", "test_eval_batch", "prox_closed_form_batch")

ROOT = "bench.round"


def span_name(module: str, func: str) -> str:
    return f"{module}.{func}"


def _outcome_counters(tracer: "Tracer", name: str, out, risk_calls_before: int) -> None:
    """Counts read off a traced call's return value."""
    c = tracer.counts
    if name == "saddle.solve_fixed_point":
        c["saddle.solve_fixed_point.sweeps"] += int(out.iterations)
        c["saddle.solve_fixed_point.nonconverged"] += int(not out.converged)
    elif name == "gamp.gamp_run":
        c["gamp.gamp_run.iterations"] += len(out.residual_history)
        c["gamp.gamp_run.nonconverged"] += int(not out.converged)
    elif name == "erm.erm_train":
        c["erm.erm_train.epochs"] += int(out.iterations)
        # the history holds the initial objective plus one entry per
        # accepted step
        c["erm.erm_train.accepted_steps"] += len(out.objective_history) - 1
        c["erm.erm_train.risk_evals"] += (
            c["gamp.empirical_risk_and_grad.calls"] - risk_calls_before)


class Tracer:
    """Spans and counters for the traced rounds of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._bindings: list[tuple[object, str, object]] = []
        self._hooked: list[tuple[object, str, object]] = []
        self._loss_init = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, losses=()) -> None:
        """Wrap every SPANNED function at all its binding sites, and the loss
        hooks of `losses` and of every LossModel built while installed."""
        import seqmix.cli  # noqa: F401  (imports every module that binds a target)
        from seqmix import model

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "seqmix" or n.startswith("seqmix."))]
        for mod_name, func in SPANNED:
            orig = getattr(importlib.import_module(f"seqmix.{mod_name}"), func)
            wrapper = self._span_wrapper(span_name(mod_name, func), orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._bindings.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for loss in losses:
            self.hook_loss(loss)

        tracer = self
        self._loss_init = model.LossModel.__init__

        @functools.wraps(self._loss_init)
        def init(obj, *args, **kwargs):
            tracer._loss_init(obj, *args, **kwargs)
            tracer.hook_loss(obj, restore=False)

        model.LossModel.__init__ = init

    def uninstall(self) -> None:
        from seqmix import model

        for mod, key, orig in reversed(self._bindings):
            setattr(mod, key, orig)
        for loss, key, orig in reversed(self._hooked):
            setattr(loss, key, orig)
        if self._loss_init is not None:
            model.LossModel.__init__ = self._loss_init
        self._bindings.clear()
        self._hooked.clear()
        self._loss_init = None

    def hook_loss(self, loss, restore: bool = True) -> None:
        for kind, names in (("losses.scalar_calls", SCALAR_HOOKS),
                            ("losses.batch_calls", BATCH_HOOKS)):
            for key in names:
                fn = getattr(loss, key, None)
                if fn is None or getattr(fn, "_bench_counted", False):
                    continue
                setattr(loss, key, self._count_wrapper(kind, fn))
                if restore:
                    self._hooked.append((loss, key, fn))

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        tracer = self

        def hook(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        hook._bench_counted = True
        return hook

    def _span_wrapper(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            risk_before = tracer.counts["gamp.empirical_risk_and_grad.calls"]
            tracer.counts[name + ".calls"] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                tracer.stack.pop()
            _outcome_counters(tracer, name, out, risk_before)
            return out

        return wrapper

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @contextmanager
    def root(self):
        """One root span around a traced round; spans are recorded inside."""
        rec = [ROOT, 0, 0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active = True
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.active = False
            self.stack.pop()

    @contextmanager
    def paused(self):
        """Calls inside run untraced (used for correctness checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return {k: v / 1e9 for k, v in out.items()}

    def root_seconds(self) -> float:
        return sum(e - s for n, s, e, p in self.spans if p < 0) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
