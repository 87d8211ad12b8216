"""The four workloads: seeded inputs, one timed iteration, output checks.

Each workload makes its inputs from the seed alone (``setup``) and calls
aksvd through its public API or its in-process CLI (``iterate``, which
times only the calls into aksvd).  ``prepare`` computes, once and outside
every timed region, the references that ``check`` compares each iteration's
outputs with; they are computed here with numpy, never with aksvd, and so
are the few that depend on an iteration's outputs, inside ``check``.
``check`` returns the iteration's failure messages and the few numbers that
``metrics`` summarizes, so that no iteration's full outputs are kept.

Calls into aksvd are looked up on the package at call time, so that a
traced run sees the wrappers it installed.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import json
import math
import multiprocessing
import os
import statistics
import time

import numpy as np


def _quiet(main, argv):
    """Run ``aksvd.cli.main`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().strip()


def _read_ldjson(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _sq_dists(X, Z):
    D = -2.0 * (X @ Z.T)
    D += (X * X).sum(axis=1)[:, None]
    D += (Z * Z).sum(axis=1)[None, :]
    np.maximum(D, 0.0, out=D)
    return D


def metric(value, unit, better, n):
    """A metric as the record reports it: value, unit, direction, sample count."""
    return {"value": float(value), "unit": unit, "better": better, "n": int(n)}


def _median(values):
    return statistics.median(values) if values else float("nan")


class GraphSne:
    name = "graph-sne"
    why = ("the paper's main task, in-process `aksvd graph` with the sne kernel: "
           "full sne Gram assembly is the hot path")
    NODES = 400
    COMMUNITIES = 4
    RANK = 16
    FLIPPED = 0.1     # share of labels moved to another community

    def __init__(self, aksvd, seed, workdir):
        self.ak = aksvd
        self.seed = seed
        self.edges = os.path.join(workdir, "graph.tsv")
        self.labels = os.path.join(workdir, "labels.txt")
        self.out = os.path.join(workdir, "graph")

    def setup(self):
        n, k = self.NODES, self.COMMUNITIES
        rng = np.random.default_rng(self.seed)
        comm = np.arange(n) % k
        rng.shuffle(comm)
        # a quarter of all pairs point from a community to the next one and
        # carry 85% of the edges: mean density 0.02, directional structure
        forward = (comm[:, None] + 1) % k == comm[None, :]
        A = rng.random((n, n)) < np.where(forward, 0.068, 0.004)
        labels = comm.copy()
        flip = rng.choice(n, int(self.FLIPPED * n), replace=False)
        labels[flip] = (labels[flip] + rng.integers(1, k, flip.size)) % k
        src, dst = np.nonzero(A)
        with open(self.edges, "w", encoding="utf-8") as f:
            f.write(f"# n={n}\n")
            f.writelines(f"{s}\t{d}\n" for s, d in zip(src, dst))
        with open(self.labels, "w", encoding="utf-8") as f:
            f.writelines(f"{v}\n" for v in labels)
        self.A = A.astype(np.float64)

    def iterate(self, i):
        argv = ["graph", "--input", self.edges, "--format", "edges",
                "--labels", self.labels, "--kernel", "sne", "--gamma", "auto",
                "--rank", str(self.RANK), "--solver", "dense", "--seed", "0",
                "--out", self.out]
        t0 = time.perf_counter()
        rc, err = _quiet(self.ak.cli.main, argv)
        seconds = time.perf_counter() - t0
        if rc != 0:
            return seconds, {"error": f"exit code {rc}: {err}"}
        with open(self.out + ".fit.json", encoding="utf-8") as f:
            fit = json.load(f)
        rows = {r["metric_name"]: r["value"] for r in _read_ldjson(self.out + ".metrics.json")}
        return seconds, {"lambdas": fit["lambdas"], "r1": fit["residual_r1"],
                         "r2": fit["residual_r2"], "micro_f1": rows["micro_f1"]}

    def prepare(self):
        """Top singular values of the scaled sne Gram of rows against columns."""
        A = self.A
        n = A.shape[0]
        gamma = math.sqrt(A.shape[1] * A.var())
        K = np.exp(-_sq_dists(A, A.T) / gamma ** 2)
        K /= K.sum(axis=1, keepdims=True)
        self.ref = np.linalg.svd(K / n, compute_uv=False)[: self.RANK]

    def check(self, o):
        msgs = []
        ref = self.ref
        lam = np.asarray(o["lambdas"])
        bound = 1e-6 * ref[0] ** 2
        if not (o["r1"] <= bound and o["r2"] <= bound):
            msgs.append(f"coupled residuals {o['r1']:.3g}, {o['r2']:.3g} exceed {bound:.3g}")
        if lam.shape != ref.shape or not np.allclose(lam, ref, rtol=1e-8, atol=0.0):
            msgs.append("lambdas differ from the numpy sne Gram singular values")
        if not o["micro_f1"] >= 0.8:
            msgs.append(f"micro F1 {o['micro_f1']:.4f} below 0.8")
        return msgs, {"micro_f1": o["micro_f1"]}

    def metrics(self, kept):
        f1 = [k["micro_f1"] for k in kept]
        return {"micro_f1": metric(_median(f1), "1", "higher", len(f1))}


def _rbf_reference(X, Z, gamma, r):
    """The top r singular triplets of the scaled rbf Gram of X against Z,
    by subspace iteration in float32, returned in float64."""
    N, M = len(X), len(Z)
    G = _sq_dists(X.astype(np.float32), Z.astype(np.float32))
    G *= np.float32(-1.0 / gamma ** 2)
    np.exp(G, out=G)
    G *= np.float32(1.0 / math.sqrt(N * M))
    Q = np.linalg.qr(np.random.default_rng(12345).standard_normal((M, 3 * r)))[0]
    Q = Q.astype(np.float32)
    for it in range(1, 301):
        Q = np.linalg.qr(G.T @ (G @ Q))[0]
        if it % 5 == 0:
            U, sv, Vt = np.linalg.svd(G @ Q, full_matrices=False)
            V = Q @ Vt.T
            resid = np.linalg.norm(G.T @ U[:, :r] - V[:, :r] * sv[:r], axis=0)
            if np.all(resid <= 1e-5 * sv[0]):
                return tuple(a.astype(np.float64) for a in (U[:, :r], sv[:r], V[:, :r]))
    raise RuntimeError("reference subspace iteration did not converge")


def _span_cos(ref, approx):
    """Smallest cosine of the principal angles between the span of the
    orthonormal columns ``ref`` and that of the columns ``approx``."""
    q = np.linalg.qr(approx)[0]
    return float(np.linalg.svd(ref.T @ q, compute_uv=False).min())


def _rbf_projections(Q, P, gamma, scale, B, chunk=64):
    """``k @ B`` for the rbf kernel vector k, times ``scale``, of each row
    of Q against all of P, a few rows at a time so that no buffer exceeds
    a few MB."""
    out = np.empty((len(Q), B.shape[1]))
    for s in range(0, len(Q), chunk):
        out[s:s + chunk] = (np.exp(-_sq_dists(Q[s:s + chunk], P) / gamma ** 2) * scale) @ B
    return out


class NystromRbf:
    name = "nystrom-rbf"
    why = ("library fit with AsymNystrom on the lazy block path, then single-point "
           "projections: no sne, io, compat or downstream code runs")
    SIZE = 4000        # N = M
    DIM = 16
    CLUSTERS = 4
    RANK = 16
    SUB = 200          # n = m
    QUERIES = 500      # per side
    # Gram entries the fit requests, the paper's Nystrom bound n*M + N*m - n*m
    ENTRIES = SUB * SIZE + SIZE * SUB - SUB * SUB
    # The four clusters give a reference spectrum s1 >> s2 ~ s3 ~ s4 >> a
    # flat tail, so only the top vector and the span of the top four are
    # determined.  Over 248 draws (12 seeds) 1 - cos was at most 0.0025
    # for the top vector and 0.016 for the top-4 span, and eta ranged
    # 0.031-0.064 (its maximum is 2/r = 0.125); the limits leave a margin.
    SPANS = ((1, 0.01), (4, 0.05))    # (leading vectors, limit on 1 - cos)
    MAX_ETA = 0.08

    def __init__(self, aksvd, seed, workdir):
        self.ak = aksvd
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        # fixed cluster centres keep the spectrum, and so eta, alike across seeds
        centres = 3.0 * np.eye(self.CLUSTERS, self.DIM)

        def cloud(count, shift):
            return centres[np.arange(count) % self.CLUSTERS] + shift + \
                rng.standard_normal((count, self.DIM))
        self.X, self.Z = cloud(self.SIZE, 0.0), cloud(self.SIZE, 0.5)
        self.Xq, self.Zq = cloud(self.QUERIES, 0.0), cloud(self.QUERIES, 0.5)

    def iterate(self, i):
        ak = self.ak
        q, r = self.QUERIES, self.RANK
        px, pz = np.empty((q, r)), np.empty((q, r))
        lat = []
        # a new subsample per iteration, so eta is a median over draws
        solver = ak.AsymNystrom(self.SUB, self.SUB, seed=self.seed * 1000 + i)
        t0 = time.perf_counter()
        gamma = ak.auto_gamma(self.X)
        model = ak.fit(self.X, self.Z, ak.KernelSpec.rbf(gamma), r, solver=solver)
        fit_s = time.perf_counter() - t0
        for j in range(q):
            s = time.perf_counter()
            px[j] = ak.project_x(model, self.Xq[j])
            lat.append(time.perf_counter() - s)
        for j in range(q):
            s = time.perf_counter()
            pz[j] = ak.project_z(model, self.Zq[j])
            lat.append(time.perf_counter() - s)
        seconds = time.perf_counter() - t0
        return seconds, {"gamma": gamma, "b_phi": model.b_phi, "b_psi": model.b_psi,
                         "entries": model.operator.eval_count, "px": px, "pz": pz,
                         "fit_s": fit_s, "lat": lat}

    def prepare(self):
        """The top singular triplets of the scaled rbf Gram, computed in a
        child process so that the oracle's memory never enters this
        process's peak RSS."""
        self.gamma = math.sqrt(self.DIM * self.X.var())
        fork = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as pool:
            self.ref = pool.submit(_rbf_reference, self.X, self.Z, self.gamma,
                                   self.RANK).result()

    @staticmethod
    def _eta(u, lam, v, ua, va):
        """Normalized eta: singular-value-weighted misalignment, sign-blind."""
        w = lam / lam.sum()
        cu = np.minimum(np.abs((u * ua).sum(0)) / np.linalg.norm(ua, axis=0), 1.0)
        cv = np.minimum(np.abs((v * va).sum(0)) / np.linalg.norm(va, axis=0), 1.0)
        return float((w * (1 - cu)).sum() / lam.size + (w * (1 - cv)).sum() / lam.size)

    def check(self, o):
        N, M = self.SIZE, self.SIZE
        msgs = []
        if not math.isclose(o["gamma"], self.gamma, rel_tol=1e-12):
            msgs.append(f"auto gamma {o['gamma']!r} != {self.gamma!r}")
        if o["entries"] != self.ENTRIES:
            msgs.append(f"{o['entries']} Gram entries requested, "
                        f"the Nystrom bound is {self.ENTRIES}")
        u, _, v = self.ref
        for k, limit in self.SPANS:
            gap = 1.0 - min(_span_cos(u[:, :k], o["b_phi"][:, :k]),
                            _span_cos(v[:, :k], o["b_psi"][:, :k]))
            if not gap <= limit:
                msgs.append(f"span of the top {k} singular vectors: 1 - cos {gap:.3g} "
                            f"against the numpy reference exceeds {limit}")
        eta = self._eta(*self.ref, o["b_phi"], o["b_psi"])
        if not eta <= self.MAX_ETA:
            msgs.append(f"eta {eta:.4g} against the numpy reference exceeds {self.MAX_ETA}")
        scale = 1.0 / math.sqrt(N * M)
        for got, Q, P, b, count in (("px", self.Xq, self.Z, o["b_psi"], N),
                                    ("pz", self.Zq, self.X, o["b_phi"], M)):
            want = math.sqrt(count) * _rbf_projections(Q, P, self.gamma, scale, b)
            if not np.allclose(o[got], want, rtol=1e-9, atol=1e-12 * np.abs(want).max()):
                msgs.append(f"{got} projections differ from numpy kernel vectors")
        return msgs, {"fit_s": o["fit_s"], "lat": o["lat"], "eta": eta}

    def metrics(self, kept):
        lat = sorted(t for k in kept for t in k["lat"])
        fit_s = [k["fit_s"] for k in kept]
        eta = [k["eta"] for k in kept]
        p99 = lat[min(len(lat) - 1, int(0.99 * len(lat)))] if lat else float("nan")
        return {
            "fit_s": metric(_median(fit_s), "s", "lower", len(fit_s)),
            "project_p50_ms": metric(1e3 * _median(lat), "ms", "lower", len(lat)),
            "project_p99_ms": metric(1e3 * p99, "ms", "lower", len(lat)),
            "eta": metric(_median(eta), "1", "lower", len(eta)),
        }


class BenchSpectrum:
    name = "bench-spectrum"
    why = ("in-process `aksvd bench` on a dense CSV with the linear kernel: no kernel "
           "is built, so every kernels change should leave it alone")
    SIZE = 600
    DECAY = 0.9
    RANK = 20
    EPS = 0.1
    SOLVERS = ("tsvd", "rsvd", "symnys", "asymnys")
    SCHEDULE = "25,50,100,150,500"

    def __init__(self, aksvd, seed, workdir):
        self.ak = aksvd
        self.seed = seed
        self.csv = os.path.join(workdir, "spectrum.csv")
        self.out = os.path.join(workdir, "bench")

    def setup(self):
        rng = np.random.default_rng(self.seed)
        n = self.SIZE
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = (U * self.DECAY ** np.arange(n)) @ V.T
        np.savetxt(self.csv, A, fmt="%.17g", delimiter=",")

    def iterate(self, i):
        argv = ["bench", "--input", self.csv, "--kernel", "linear",
                "--rank", str(self.RANK), "--eps", str(self.EPS),
                "--solvers", ",".join(self.SOLVERS), "--m-schedule", self.SCHEDULE,
                "--seed", str(self.seed), "--out", self.out]
        t0 = time.perf_counter()
        rc, err = _quiet(self.ak.cli.main, argv)
        seconds = time.perf_counter() - t0
        if rc != 0:
            return seconds, {"error": f"exit code {rc}: {err}"}
        with open(self.out + ".bench_summary.json", encoding="utf-8") as f:
            summary = json.load(f)["summary"]
        return seconds, {"summary": summary,
                         "trials": len(_read_ldjson(self.out + ".bench.ldjson"))}

    def prepare(self):
        pass

    def check(self, o):
        msgs = []
        summary = o["summary"]
        if sorted(summary) != sorted(self.SOLVERS):
            msgs.append(f"bench summary covers {sorted(summary)}")
        for name, s in summary.items():
            if not (s["success"] and s["eta"] <= self.EPS):
                msgs.append(f"{name} did not reach eta <= {self.EPS} (eta {s['eta']})")
        asym = summary.get("asymnys", {})
        return msgs, {"eta": asym.get("eta"), "knob": asym.get("knob")}

    def metrics(self, kept):
        eta = [k["eta"] for k in kept if k["eta"] is not None]
        knob = [k["knob"] for k in kept if k["knob"] is not None]
        return {"eta": metric(_median(eta), "1", "lower", len(eta)),
                "nys_samples": metric(_median(knob), "count", "lower", len(knob))}


class CompatLearn:
    name = "compat-learn"
    why = ("the only workload that runs compat: thousands of tiny sne Gram builds "
           "inside learn_compat, so per-call kernel overhead shows")
    ROWS, COLS = 30, 20
    RANK = 4
    STEPS, OUTER = 2, 2
    STRATEGIES = ("a0", "a1", "a2")

    def __init__(self, aksvd, seed, workdir):
        self.ak = aksvd
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        base = rng.standard_normal((self.ROWS, 3))
        self.A = base @ rng.standard_normal((3, self.COLS)) + \
            0.1 * rng.standard_normal((self.ROWS, self.COLS))
        self.y = np.tanh(base[:, 0]) + 0.5 * base[:, 1] ** 2 + \
            0.02 * rng.standard_normal(self.ROWS)

    def iterate(self, i):
        ak = self.ak
        cfg = ak.LearnableConfig(rank_r=self.RANK, steps=self.STEPS, learning_rate=2e-2,
                                 seed=self.seed, task="regression", outer_iters=self.OUTER)
        t0 = time.perf_counter()
        spec = ak.KernelSpec.sne(ak.auto_gamma(self.A))
        rmse, lambdas = [], {}
        for name in self.STRATEGIES:
            model = ak.fit_matrix(self.A, spec, self.RANK,
                                  compat=ak.strategy_from_name(name, seed=self.seed))
            head = ak.downstream.linear_head(model.gram.values @ model.b_psi, self.y,
                                             "regression", lr=0.05, steps=2000, seed=0)
            rmse.append(head.metric)
            lambdas[name] = model.lambdas
        losses = ak.learn_compat(self.A, self.y, spec, cfg).losses
        seconds = time.perf_counter() - t0
        return seconds, {"rmse": rmse, "lambdas": lambdas, "losses": list(losses)}

    def prepare(self):
        """Top singular values of the scaled sne Gram of the rows of A
        against its columns projected by each compat matrix, built here
        from the definitions: a0 the pseudo-inverse of A', a1 the right
        singular vectors of A' (largest entry of each made positive), a2
        standard normal entries from the seed."""
        A, Z = self.A, self.A.T
        gamma = math.sqrt(A.shape[1] * A.var())
        right = np.linalg.svd(Z, full_matrices=False)[2].T
        right *= np.sign(right[np.abs(right).argmax(axis=0), np.arange(right.shape[1])])
        compat = {"a0": np.linalg.pinv(Z), "a1": right,
                  "a2": np.random.default_rng(self.seed).standard_normal(Z.shape[::-1])}
        self.ref = {}
        for name in self.STRATEGIES:
            K = np.exp(-_sq_dists(A, Z @ compat[name]) / gamma ** 2)
            K /= K.sum(axis=1, keepdims=True)
            self.ref[name] = np.linalg.svd(K / math.sqrt(K.size),
                                           compute_uv=False)[: self.RANK]
        # the a3 loss before training: the head starts at zero
        self.zero_loss = float(np.mean(self.y ** 2))

    def check(self, o):
        msgs = []
        for name in self.STRATEGIES:
            if not np.allclose(o["lambdas"][name], self.ref[name], rtol=1e-8, atol=0.0):
                msgs.append(f"{name} lambdas differ from the numpy sne Gram singular values")
        losses = o["losses"]
        if not losses or not all(math.isfinite(v) for v in losses):
            msgs.append(f"a3 losses not all finite: {losses}")
        elif any(b > a for a, b in zip(losses, losses[1:])):
            msgs.append(f"a3 losses increase: {losses}")
        elif not losses[0] < self.zero_loss:
            msgs.append(f"a3 loss {losses[0]:.4g} not below {self.zero_loss:.4g}, "
                        "that of the untrained zero head")
        if not all(math.isfinite(v) and v > 0 for v in o["rmse"]):
            msgs.append(f"a0-a2 test RMSE not finite and positive: {o['rmse']}")
        return msgs, {"rmse": min(o["rmse"])}

    def metrics(self, kept):
        best = [k["rmse"] for k in kept]
        return {"test_rmse": metric(_median(best), "1", "lower", len(best))}


WORKLOADS = {w.name: w for w in (GraphSne, NystromRbf, BenchSpectrum, CompatLearn)}
