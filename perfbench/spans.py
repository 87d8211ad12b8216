"""Span tracing of aksvd from the outside, and the per-layer metrics built on it.

The traced run wraps the public functions and methods of each aksvd module
at runtime, so the library itself carries no tracing code and the untraced
run executes no wrapper at all.  Every wrapped call records a span (name,
layer, start, end, parent span, run id) in memory, plus counts taken from
its arguments and result: Gram entries requested, sne denominator entries,
bytes read or written, solver iterations, bench trials.  The per-layer
metrics are computed from these spans after the run; a span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import re
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: int = 0
    counts: dict = field(default_factory=dict)


def _nbytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# -- count hooks: after(span, args, kwargs, result, state), where state is
# what the optional before(args) hook returned ------------------------------

def _count_file(span, args, kwargs, result, state):
    # runs after the call, so a written file has its final size
    span.counts["bytes"] = _nbytes(args[0] if args else kwargs.get("path"))


def _count_block(span, args, kwargs, result, state):
    op = args[0]
    entries = int(result.size)
    span.counts["entries"] = entries
    if hasattr(op, "x_data"):
        span.counts["flops"] = 2 * op.x_data.shape[1] * entries


def _count_x_row(span, args, kwargs, result, state):
    op = args[0]
    if op.spec.family == "sne":
        # the new row's softmax denominator runs over all of the training Z
        m, d = op.z_data.shape
        span.counts["norm_entries"] = m
        span.counts["flops"] = 2 * d * m


def _rows_not_normalized(args):
    den = args[0]._sne_den
    return int((den != den).sum())   # NaN marks a row not normalized yet


def _count_sne_denominators(span, args, kwargs, result, missing_before):
    """Denominator entries: (rows newly normalized) x M, read from the
    operator's cache before and after the call."""
    rows = missing_before - _rows_not_normalized(args)
    m, d = args[0].z_data.shape
    span.counts["norm_entries"] = rows * m
    span.counts["flops"] = 2 * d * rows * m


def _count_svd_iterations(span, args, kwargs, result, state):
    span.counts["iterations"] = int(result.iterations)


def _count_asym_nystrom(span, args, kwargs, result, state):
    rows, cols = args[0].shape
    span.counts["matrix_entries"] = rows * cols


def _count_bench(span, args, kwargs, result, state):
    span.counts["trials"] = len(result.trials)
    span.counts["useful"] = sum(1 for t in result.trials if t.success)


# (layer, module, attribute, hook).  An attribute "Class.method" wraps the
# method on the class; a plain name wraps the module function wherever an
# aksvd module holds a reference to it.  A hook is an after hook or a
# (before, after) pair.
TARGETS = [
    ("io", "io", "load_dense_csv", _count_file),
    ("io", "io", "load_edge_list", _count_file),
    ("io", "io", "load_labels", _count_file),
    ("io", "io", "load_report", _count_file),
    ("io", "io", "save_matrix_csv", _count_file),
    ("io", "io", "save_embeddings", _count_file),
    ("io", "io", "save_report", _count_file),
    ("kernels", "kernels", "auto_gamma", None),
    ("kernels", "kernels", "gram", None),
    ("kernels", "kernels", "center", None),
    ("kernels", "kernels", "kernel_vector", None),
    ("kernels", "kernels", "KernelOperator.__init__", None),
    ("kernels", "kernels", "KernelOperator.block", _count_block),
    ("kernels", "kernels", "KernelOperator.materialize", None),
    ("kernels", "kernels", "KernelOperator._sne_denominators",
     (_rows_not_normalized, _count_sne_denominators)),
    ("kernels", "kernels", "KernelOperator.x_row", _count_x_row),
    ("kernels", "kernels", "KernelOperator.z_col", None),
    ("kernels", "kernels", "KernelOperator.matmat", None),
    ("kernels", "kernels", "KernelOperator.rmatmat", None),
    ("solvers", "solvers", "MatrixOperator.block", _count_block),
    ("solvers", "solvers", "solve", None),
    ("solvers", "solvers", "dense_svd", None),
    ("solvers", "solvers", "truncated_svd", _count_svd_iterations),
    ("solvers", "solvers", "randomized_svd", None),
    ("solvers", "solvers", "sym_nystrom_eig", None),
    ("solvers", "solvers", "sym_nystrom_svd", None),
    ("solvers", "solvers", "asym_nystrom", _count_asym_nystrom),
    ("solvers", "solvers", "eta_metric", None),
    ("solvers", "solvers", "bench", _count_bench),
    ("ksvd", "ksvd", "fit", None),
    ("ksvd", "ksvd", "fit_matrix", None),
    ("ksvd", "ksvd", "residuals", None),
    ("ksvd", "ksvd", "project_x", None),
    ("ksvd", "ksvd", "project_z", None),
    ("ksvd", "ksvd", "embeddings", None),
    ("compat", "compat", "strategy_from_name", None),
    ("compat", "compat", "realize_compat", None),
    ("compat", "compat", "learn_compat", None),
    ("downstream", "downstream", "lssvm_fit", None),
    ("downstream", "downstream", "LssvmModel.decision", None),
    ("downstream", "downstream", "LssvmModel.predict", None),
    ("downstream", "downstream", "f1_scores", None),
    ("downstream", "downstream", "graph_reconstruct", None),
    ("downstream", "downstream", "recon_error", None),
    ("downstream", "downstream", "kmeans", None),
    ("downstream", "downstream", "nmi", None),
    ("downstream", "downstream", "coherence", None),
    ("downstream", "downstream", "linear_head", None),
    ("cli", "cli", "main", None),
]


class Tracer:
    """Keeps spans in memory; ``install`` wraps aksvd, ``uninstall`` restores it."""

    def __init__(self, track_memory=False):
        self.spans = []
        self.run = 0
        # tracemalloc around the outermost kernel calls; it slows small
        # allocations, so timed runs leave it off
        self.track_memory = track_memory
        self._stack = []
        self._kernel_depth = 0
        self._patched = []

    def wrap(self, name, layer, fn, hook):
        before, after = hook if isinstance(hook, tuple) else (None, hook)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        memory = self.track_memory and layer == "kernels"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.run, {})
            stack.append(len(spans))
            spans.append(span)
            outermost = memory and self._kernel_depth == 0
            if memory:
                self._kernel_depth += 1
                if outermost:
                    tracemalloc.start()
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if memory:
                    self._kernel_depth -= 1
                    if outermost:
                        span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            if after is not None:
                after(span, args, kwargs, result, state)
            return result
        return wrapper

    # -- patching -------------------------------------------------------

    def install(self, package):
        """Wrap every target in ``package`` (the imported aksvd)."""
        import importlib
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("io", "kernels", "solvers", "ksvd", "compat",
                                         "downstream", "cli")]
        replacements = {}
        for layer, mod_name, attr, hook in TARGETS:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            name = f"{layer}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patched.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(name, layer, fn, hook))
            else:
                fn = getattr(mod, attr)
                replacements[id(fn)] = (fn, self.wrap(name, layer, fn, hook))
        # replace every module-level reference, so calls made through
        # "from .kernels import auto_gamma" style imports are traced too
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, hit[1])

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "run": s.run, **s.counts}))
                f.write("\n")


# -- arithmetic on spans ---------------------------------------------------

def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(children[i]) for i, s in enumerate(spans)]


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "io.read_s": ("s", "lower"),
    "io.read_mb": ("MB", "lower"),
    "io.read_mb_per_s": ("MB/s", "higher"),
    "io.write_s": ("s", "lower"),
    "io.write_mb": ("MB", "lower"),
    "kernels.s": ("s", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.entries": ("count", "lower"),
    "kernels.norm_entries": ("count", "lower"),
    "kernels.gflops_computed": ("GFLOP/s", "higher"),
    "kernels.vec_s": ("s", "lower"),
    "kernels.vec_calls": ("count", "lower"),
    "kernels.peak_mb": ("MB", "lower"),
    "solvers.dense_s": ("s", "lower"),
    "solvers.tsvd_s": ("s", "lower"),
    "solvers.rsvd_s": ("s", "lower"),
    "solvers.symnys_s": ("s", "lower"),
    "solvers.asymnys_s": ("s", "lower"),
    "solvers.tsvd_iterations": ("count", "lower"),
    "solvers.asymnys_entry_fraction": ("ratio", "lower"),
    "solvers.bench_trials": ("count", "lower"),
    "solvers.bench_useful_ratio": ("ratio", "higher"),
    "ksvd.fit_self_s": ("s", "lower"),
    "ksvd.residuals_s": ("s", "lower"),
    "ksvd.project_self_s": ("s", "lower"),
    "compat.realize_s": ("s", "lower"),
    "compat.learn_s": ("s", "lower"),
    "compat.gram_builds": ("count", "lower"),
    "downstream.lssvm_s": ("s", "lower"),
    "downstream.reconstruct_s": ("s", "lower"),
    "downstream.f1_s": ("s", "lower"),
    "downstream.head_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = ("kernels.entries", "kernels.norm_entries", "compat.gram_builds",
                "solvers.tsvd_iterations")

# self-time metrics: metric -> span names summed
_SELF = {
    "io.read_s": ("io.load_dense_csv", "io.load_edge_list", "io.load_labels", "io.load_report"),
    "io.write_s": ("io.save_matrix_csv", "io.save_embeddings", "io.save_report"),
    "solvers.dense_s": ("solvers.dense_svd",),
    "solvers.tsvd_s": ("solvers.truncated_svd",),
    "solvers.rsvd_s": ("solvers.randomized_svd",),
    "solvers.symnys_s": ("solvers.sym_nystrom_svd", "solvers.sym_nystrom_eig"),
    "solvers.asymnys_s": ("solvers.asym_nystrom",),
    "ksvd.fit_self_s": ("ksvd.fit", "ksvd.fit_matrix"),
    "ksvd.residuals_s": ("ksvd.residuals",),
    "ksvd.project_self_s": ("ksvd.project_x", "ksvd.project_z"),
    "compat.realize_s": ("compat.realize_compat",),
    "compat.learn_s": ("compat.learn_compat",),
    "downstream.lssvm_s": ("downstream.lssvm_fit", "downstream.decision", "downstream.predict"),
    "downstream.reconstruct_s": ("downstream.graph_reconstruct", "downstream.recon_error"),
    "downstream.f1_s": ("downstream.f1_scores",),
    "downstream.head_s": ("downstream.linear_head",),
    "cli.self_s": ("cli.main",),
}


def run_metrics(spans):
    """Per-layer metrics of the spans of one run (one workload iteration)."""
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(names, key=None):
        idx = [i for n in names for i in by_name.get(n, ())]
        if key is None:
            return sum(own[i] for i in idx)
        return sum(spans[i].counts.get(key, 0) for i in idx)

    out = {m: total(names) for m, names in _SELF.items()}
    out["io.read_mb"] = total(_SELF["io.read_s"], "bytes") / 1e6
    out["io.read_mb_per_s"] = out["io.read_mb"] / out["io.read_s"] if out["io.read_s"] > 0 else 0.0
    out["io.write_mb"] = total(_SELF["io.write_s"], "bytes") / 1e6

    kern = [i for i, s in enumerate(spans) if s.layer == "kernels"]
    kernels_s = sum(own[i] for i in kern)
    flops = sum(spans[i].counts.get("flops", 0) for i in kern)
    outer = [i for i in kern if all(spans[a].layer != "kernels" for a in _ancestors(spans, i))]
    vec = by_name.get("kernels.x_row", []) + by_name.get("kernels.z_col", [])
    out["kernels.s"] = kernels_s
    out["kernels.calls"] = len(outer)
    out["kernels.entries"] = total(("kernels.block",), "entries")
    out["kernels.norm_entries"] = sum(spans[i].counts.get("norm_entries", 0) for i in kern)
    out["kernels.gflops_computed"] = flops / kernels_s / 1e9 if kernels_s > 0 else 0.0
    out["kernels.vec_s"] = sum(spans[i].end - spans[i].start for i in vec)
    out["kernels.vec_calls"] = len(vec)
    out["kernels.peak_mb"] = max((spans[i].counts.get("peak_bytes", 0) for i in outer),
                                 default=0) / 1e6

    # the transposed recursion of truncated_svd would count its steps twice
    tsvd = [i for i in by_name.get("solvers.truncated_svd", ())
            if spans[i].parent < 0 or spans[spans[i].parent].name != "solvers.truncated_svd"]
    out["solvers.tsvd_iterations"] = sum(spans[i].counts.get("iterations", 0) for i in tsvd)
    asym = by_name.get("solvers.asym_nystrom", [])
    inside = {i: 0 for i in asym}
    for i, s in enumerate(spans):
        if s.name in ("kernels.block", "solvers.block"):
            for a in _ancestors(spans, i):
                if a in inside:
                    inside[a] += s.counts.get("entries", 0)
                    break
    matrix = sum(spans[i].counts.get("matrix_entries", 0) for i in asym)
    out["solvers.asymnys_entry_fraction"] = sum(inside.values()) / matrix if matrix else 0.0
    trials = total(("solvers.bench",), "trials")
    out["solvers.bench_trials"] = trials
    out["solvers.bench_useful_ratio"] = total(("solvers.bench",), "useful") / trials if trials else 0.0

    learn = set(by_name.get("compat.learn_compat", ()))
    out["compat.gram_builds"] = sum(
        1 for i in by_name.get("kernels.materialize", ())
        if any(a in learn for a in _ancestors(spans, i)))
    return out


def split_runs(spans):
    """Group spans by run id, re-basing parent links onto each group.

    The spans of one run are contiguous, because no span stays open
    between two runs.
    """
    groups = []
    for i, s in enumerate(spans):
        if groups and spans[groups[-1][0]].run == s.run:
            groups[-1][1] = i + 1
        else:
            groups.append([i, i + 1])
    return [[Span(s.name, s.layer, s.start, s.end,
                  s.parent - start if s.parent >= 0 else -1, s.run, s.counts)
             for s in spans[start:stop]] for start, stop in groups]


def layer_metrics(spans, traced_times, untraced_times):
    """Median over runs of each per-layer metric, plus the tracing overhead.

    Returns (metrics, per_run) where per_run lists each run's own values,
    so that callers can check that exact counts repeat.
    """
    per_run = [run_metrics(group) for group in split_runs(spans)]
    metrics = {name: statistics.median(r[name] for r in per_run)
               for name in LAYER_METRICS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                   - statistics.median(untraced_times))
    return metrics, per_run
