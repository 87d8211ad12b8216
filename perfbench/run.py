"""Benchmark of aksvd: four seeded workloads, end-to-end metrics, a traced run.

Run from the repository root; it imports aksvd from ``src/``:

    python3 perfbench/run.py --workload graph-sne --seed 1 --seconds 25 --trace 0

The benchmark's own tests: ``python3 perfbench/selftest.py``.

Workloads (see workloads.py): graph-sne, nystrom-rbf, bench-spectrum,
compat-learn.  Load is a closed loop in one process: each workload
iteration starts when the previous one has returned.

A run sets up three times (generate and write inputs, then one untimed
warm-up iteration) and reports import time plus the median set-up as
``setup_s``.  It then computes the numpy references of the output checks
(outside every timed region and outside ``setup_s``) and runs iterations
until they have taken ``--seconds``, checking each iteration's outputs as
it ends.  ``run_s`` is the median iteration time; ``run_rel`` is the median
of each iteration's time over the mean time of a fixed numpy loop
(``Reference``) timed just before and just after it.  With ``--trace 1`` the first half of the time runs
untraced and the second half with every public function of aksvd wrapped
in a span (spans.py); the spans are written to
``.perfbench/spans-<workload>.jsonl`` at exit.

Standard output ends with two JSON lines: a ``record`` with every metric
(unit, direction, sample count), the workload's reason and the machine,
then the result, whose ``metrics`` hold the end-to-end metrics of
BENCHMARK.json (``--trace 0``) or the per-layer metrics (``--trace 1``).
compare.py compares two files of such output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one BLAS thread: a plain single-threaded baseline, and steadier on a
# machine whose other cores are shared
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# numpy is imported from here on, after the BLAS thread count is fixed
import numpy as np  # noqa: E402

from spans import EXACT_COUNTS, LAYER_METRICS, Tracer, layer_metrics, run_metrics  # noqa: E402
from workloads import WORKLOADS, metric  # noqa: E402

SETUP_REPEATS = 3
END_TO_END = {"setup_s": ("s", "lower"), "run_rel": ("ratio", "lower"),
              "peak_rss_mb": ("MB", "lower")}


def _git_commit():
    """The checked-out commit read from .git, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = {"name": "unknown", "version": "unknown"}
    return {"cpu_count": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": sys.version.split()[0], "commit": _git_commit()}


def _import_aksvd():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import aksvd
    import aksvd.cli  # noqa: F401  (the in-process CLI; also loads io, downstream)
    if not os.path.abspath(aksvd.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"aksvd resolved to {aksvd.__file__}, not to {src}")
    return aksvd


class Reference:
    """A fixed mix of numpy work, timed between iterations.

    On a shared machine the speed of a core drifts by 15-30% over seconds
    to minutes.  Dividing each iteration's time by the mean time of this
    loop run just before and just after it cancels part of that drift
    (measured on a 2-vCPU Xeon VM); the loop does not call aksvd, so a
    change to aksvd moves only the numerator.

    Every buffer it allocates stays below 4.2 MB, so that its memory does
    not show in any workload's ``peak_rss_mb``.
    """

    CHUNK = 32      # rows of the broadcast per step: a 4.2 MB buffer

    def __init__(self):
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((256, 256))
        self.vector = rng.standard_normal(1 << 17)
        self.small = rng.standard_normal((30, 20))
        self.wide = rng.standard_normal((256, 64))

    def seconds(self):
        t0 = time.perf_counter()
        for _ in range(8):              # BLAS
            self.square @ self.square
        for _ in range(32):             # elementwise, cache-resident
            np.exp(-self.vector * self.vector)
        for _ in range(1000):           # many tiny calls, interpreter-bound
            (self.small[:, None, :] * self.small[None, :, :]).sum(axis=2)
        for _ in range(2):              # a broadcast over 32 MB in chunks, memory-bound
            for s in range(0, len(self.wide), self.CHUNK):
                (self.wide[s:s + self.CHUNK, None, :] * self.wide[None, :, :]).sum(axis=2)
        return time.perf_counter() - t0


def _phase(workload, reference, seconds, first, tracer=None):
    """Closed-loop iterations until they and their reference loops have
    taken ``seconds``; each iteration's outputs are checked as it ends.

    Returns (times, reference times, failures, kept): per iteration its
    time, its failure messages and the numbers its check kept for the
    metrics, and the times of the reference loops run between iterations,
    one more than there are iterations, so that each iteration has one
    before and one after it.
    """
    times, refs, failures, kept = [], [], [], []
    measured = 0.0
    i = first
    while True:
        ref = reference.seconds()
        if tracer is not None:
            tracer.run = i
        t0 = time.perf_counter()
        try:
            dt, out = workload.iterate(i)
        except Exception as exc:  # counted as a failed operation, never dropped
            dt, out = time.perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}
        times.append(dt)
        refs.append(ref)
        if "error" in out:
            failures.append([out["error"]])
        else:
            msgs, keep = workload.check(out)
            failures.append(msgs)
            kept.append(keep)
        measured += ref + dt
        i += 1
        if measured >= seconds:
            refs.append(reference.seconds())
            return times, refs, failures, kept


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        aksvd = _import_aksvd()
    except ImportError as exc:
        print(f"perfbench: cannot import aksvd from the checkout: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](aksvd, args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            try:
                wl.iterate(0)
            except Exception as exc:  # the timed iterations count it
                print(f"perfbench: warm-up failed: {exc!r}", file=sys.stderr)
            setups.append(time.perf_counter() - t0)

        wl.prepare()
        reference = Reference()
        tracer = None
        if args.trace:
            times, refs, failures, kept = _phase(wl, reference, args.seconds / 2, 0)
            tracer = Tracer()
            tracer.install(aksvd)
            try:
                traced_times, _, traced_failures, traced_kept = _phase(
                    wl, reference, args.seconds / 2, len(times), tracer)
            finally:
                tracer.uninstall()
            # one more iteration, untimed, for the memory of the kernel calls
            memory = Tracer(track_memory=True)
            memory.install(aksvd)
            try:
                _, _, memory_failures, _ = _phase(wl, reference, 0, len(times) + len(traced_times),
                                                  memory)
            finally:
                memory.uninstall()
            layer, per_run = layer_metrics(tracer.spans, traced_times, times)
            layer["kernels.peak_mb"] = run_metrics(memory.spans)["kernels.peak_mb"]
            # counts that must repeat exactly within one seed, and the Gram
            # entries that the workload must request, where it states them
            entries = getattr(wl, "ENTRIES", None)
            for k, run in enumerate(per_run):
                for name in EXACT_COUNTS:
                    if run[name] != per_run[0][name]:
                        traced_failures[k].append(
                            f"{name} {run[name]} differs from the first traced run's "
                            f"{per_run[0][name]}")
                if entries is not None and run["kernels.entries"] != entries:
                    traced_failures[k].append(
                        f"kernels.entries {run['kernels.entries']} counted from outside, "
                        f"the workload requires {entries}")
            tracer.write(os.path.join(ROOT, ".perfbench", f"spans-{wl.name}.jsonl"))
            failures += traced_failures + memory_failures
            kept += traced_kept
        else:
            times, refs, failures, kept = _phase(wl, reference, args.seconds, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    # each iteration over the mean of the reference loops around it
    rel = [2 * t / (before + after) for t, before, after in zip(times, refs, refs[1:])]
    detail = {
        "setup_s": metric(import_s + statistics.median(setups), "s", "lower", SETUP_REPEATS),
        "run_s": metric(statistics.median(times), "s", "lower", len(times)),
        "run_rel": metric(statistics.median(rel), "ratio", "lower", len(rel)),
        "reference_s": metric(statistics.median(refs), "s", "lower", len(refs)),
        "peak_rss_mb": metric(peak_rss_mb, "MB", "lower", 1),
        "failed_ratio": metric(failed / attempted, "ratio", "lower", attempted),
    }
    detail.update(wl.metrics(kept))
    if tracer is not None:
        for name, (unit, better) in LAYER_METRICS.items():
            detail[name] = metric(layer[name], unit, better, len(traced_times))
        reported = LAYER_METRICS
    else:
        reported = END_TO_END
    messages = sorted({m for f in failures for m in f})
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": _environment(), "metrics": detail,
              "failures": messages}
    print(json.dumps({"record": record}))
    for m in messages:
        print(f"perfbench: check failed: {m}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": detail[k]["value"], "unit": detail[k]["unit"]}
                          for k in reported}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
