"""Outside-in span tracer for the statdiv layers.

The tracer wraps each layer's public functions from the benchmark's side:
`install()` replaces every module attribute under `statdiv` that binds one
of them (the home module and every `from ... import` copy) with a timing
wrapper, and `uninstall()` puts the originals back. No file under `src/`
knows it is being traced.

Each thread keeps its own span stack. A span opened on a worker thread with
an empty stack (a pair task on the divergence-matrix pool) takes the open
matrix span as its parent, so pool work is attributed to the matrix that
scheduled it. Spans stay in memory until `write_spans()`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

LAYERS = {
    "dataset": ("load_dataset", "split_gallery_probe"),
    "density": ("fit_kde", "log_density_batch", "silverman_bandwidth",
                "isotropic_silverman_bandwidth"),
    "divergence": ("divergence_matrix", "cross_divergence_matrix", "pair_divergence",
                   "hellinger_empirical", "jeffrey_empirical"),
    "kernels": ("gram", "cross_gram", "kernel_from_divergence"),
    "classify": ("kfda_fit", "kfda_project", "nn_classify", "latent_nn_classify"),
    "dimred": ("build_affinity", "learn_projection", "dr_cost", "dr_euclidean_gradient"),
    "manifold": ("cg_minimize", "retract"),
    "experiment": ("run_experiment", "emit_report"),
    "cli": ("main",),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
MATRIX_SPANS = ("divergence.divergence_matrix", "divergence.cross_divergence_matrix")
STOP_REASONS = ("grad_tol", "rel_cost_tol", "max_iters", "line_search_failed")


def _kernel_evals(args, kwargs):
    """m * n for log_density_batch(model, points): one kernel per (point, sample)."""
    model = kwargs.get("model", args[0] if args else None)
    points = kwargs.get("points", args[1] if len(args) > 1 else None)
    return len(points) * model.samples.shape[0]


def _square_pairs(args, kwargs):
    m = len(kwargs.get("sets", args[0] if args else ()))
    return m * (m - 1) // 2


def _cross_pairs(args, kwargs):
    return len(kwargs.get("sets_a", args[0])) * len(kwargs.get("sets_b", args[1]))


# Work attached to a span, computed from the call's argument shapes.
WORK = {
    "density.log_density_batch": _kernel_evals,
    "divergence.divergence_matrix": _square_pairs,
    "divergence.cross_divergence_matrix": _cross_pairs,
    "divergence.pair_divergence": lambda args, kwargs: 1,
}
PAIR_SPANS = ("divergence.divergence_matrix", "divergence.cross_divergence_matrix",
              "divergence.pair_divergence")


class Span:
    __slots__ = ("id", "parent", "op", "name", "thread", "start", "end",
                 "child_ns", "work", "pooled")

    def __init__(self, span_id, parent, op, name, thread, work, pooled):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.thread = thread
        self.work = work
        self.pooled = pooled
        self.child_ns = 0
        self.start = time.perf_counter_ns()
        self.end = 0


class Tracer:
    """Collects spans and optimizer counts while installed. Create it on
    the thread that runs the ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cg_runs: list[tuple[int, int, str]] = []  # iterations, cost evals, stop reason
        self.op = -1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_thread = threading.get_ident()
        self._open_matrices: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, work: int) -> Span:
        stack = self._stack()
        thread = threading.get_ident()
        pooled = False
        if stack:
            parent = stack[-1].id
        elif thread != self._op_thread and self._open_matrices:
            # Pool task: only the op thread opens matrix spans, and it holds
            # one open for the pool's whole lifetime, so [-1] is the owner.
            parent = self._open_matrices[-1].id
            pooled = True
        else:
            parent = -1
        span = Span(next(self._ids), parent, self.op, name, thread, work, pooled)
        stack.append(span)
        if name in MATRIX_SPANS:
            self._open_matrices.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_ns += span.end - span.start
        if span.name in MATRIX_SPANS:
            self._open_matrices.remove(span)
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, work_of(args, kwargs) if work_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_cg(self, name: str, fn):
        """cg_minimize also reports iterations, cost evaluations and stop reason."""
        timed = self._wrap(name, fn)

        @functools.wraps(fn)
        def traced(cost, *args, **kwargs):
            calls = 0

            def counted_cost(w):
                nonlocal calls
                calls += 1
                return cost(w)

            result = timed(counted_cost, *args, **kwargs)
            self.cg_runs.append((int(result.iterations), calls, str(result.stop_reason)))
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded statdiv modules."""
        wrappers = {}
        self.missing = []
        for name in TRACED:
            layer, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"statdiv.{layer}"), fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrap = self._wrap_cg if name == "manifold.cg_minimize" else self._wrap
            wrappers[id(fn)] = (fn, wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "statdiv" and not mod_name.startswith("statdiv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def coverage_problems(self) -> list[str]:
        """Self-check: traced functions absent from their module, and pool
        spans that found no parent matrix span."""
        problems = [f"{name} not found" for name in self.missing]
        orphans = sum(1 for s in self.spans if s.thread != self._op_thread and s.parent == -1)
        if orphans:
            problems.append(f"{orphans} worker-thread spans without a parent")
        return problems

    # -- results -------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op means of calls, busy and self time per traced function,
        plus the derived work and optimizer metrics."""
        calls = dict.fromkeys(TRACED, 0)
        busy = dict.fromkeys(TRACED, 0)
        self_ns = dict.fromkeys(TRACED, 0)
        kernel_evals = pairs = pool_busy = matrix_wall = 0
        for s in self.spans:
            dur = s.end - s.start
            calls[s.name] += 1
            busy[s.name] += dur
            self_ns[s.name] += dur - s.child_ns
            if s.name == "density.log_density_batch":
                kernel_evals += s.work
            elif s.name in PAIR_SPANS:
                pairs += s.work
            if s.name in MATRIX_SPANS:
                matrix_wall += dur
            if s.pooled:
                pool_busy += dur
        ops = max(ops, 1)
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.busy_s"] = busy[name] / 1e9 / ops
            out[f"{name}.self_s"] = self_ns[name] / 1e9 / ops
        ldb_busy = busy["density.log_density_batch"] / 1e9
        out["density.kernel_evals"] = kernel_evals / ops
        out["density.kernel_evals_per_busy_s"] = kernel_evals / ldb_busy if ldb_busy else 0.0
        out["divergence.pairs"] = pairs / ops
        out["divergence.pool_parallelism"] = pool_busy / matrix_wall if matrix_wall else 0.0
        iterations = sum(r[0] for r in self.cg_runs)
        cost_evals = sum(r[1] for r in self.cg_runs)
        line_search_evals = cost_evals - len(self.cg_runs)  # the first eval per run is not a probe
        out["manifold.iterations"] = iterations / ops
        out["manifold.cost_evals_per_iter"] = cost_evals / iterations if iterations else 0.0
        out["manifold.accept_ratio"] = iterations / line_search_evals if line_search_evals else 0.0
        for reason in STOP_REASONS:
            out[f"manifold.stop.{reason}"] = sum(r[2] == reason for r in self.cg_runs) / ops
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, op, name, thread, start_ns, end_ns, work."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps([s.id, s.parent, s.op, s.name, s.thread,
                                     s.start, s.end, s.work]) + "\n")
