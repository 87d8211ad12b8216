"""Acceptance suite: one test per criterion, one PASS line printed each.

Run as `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
import pytest

from aksvd import solvers
from aksvd.ksvd import embeddings, fit, fit_matrix
from aksvd.cli import main as cli_main
from aksvd.compat import (
    LearnableConfig,
    PcaProjection,
    PseudoInverse,
    _c_gradient_analytic,
    _c_gradient_fd,
    _gram_values,
    _head_gradients,
    learn_compat,
    realize_compat,
)
from aksvd.downstream import graph_reconstruct, kmeans, lssvm_fit, nmi
from aksvd.io import load_edge_list, save_matrix_csv
from aksvd.kernels import GramMatrix, KernelOperator, KernelSpec, auto_gamma, center, gram
from aksvd.solvers import (
    MatrixOperator,
    asym_nystrom,
    bench,
    dense_svd,
    eta_metric,
    sym_nystrom_eig,
    truncated_svd,
)


def report(n, name):
    print(f"\n[ACCEPTANCE] criterion {n} ({name}): PASS")


def test_criterion_1_cce_svd_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    specs = [KernelSpec.linear(), KernelSpec.rbf(2.0), KernelSpec.sne(2.0)]
    for trial in range(200):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(4, 31))
        r = 3
        X = rng.standard_normal((n, 5))
        Z = rng.standard_normal((m, 5))
        spec = specs[trial % 3]
        if trial % 4 == 0:
            solver = solvers.Truncated(tol=1e-12)
        elif trial % 4 == 1:
            solver = solvers.Randomized(oversample=min(n, m) - r, power=2, seed=trial)
        else:
            solver = solvers.Dense()
        model = fit(X, Z, spec, rank=r, do_center=bool(trial % 2), solver=solver)
        G = model.gram.values
        lam1 = model.lambdas[0]
        r1 = np.linalg.norm(G.T @ (G @ model.b_psi) - (G.T @ model.b_phi) * model.lambdas)
        r2 = np.linalg.norm(G @ (G.T @ model.b_phi) - (G @ model.b_psi) * model.lambdas)
        assert r1 <= 1e-6 * lam1 ** 2 and r2 <= 1e-6 * lam1 ** 2, f"trial {trial}"
        ref = dense_svd(G, r)
        eta = eta_metric(ref.u, ref.lambdas, ref.v, model.b_phi, model.b_psi)
        assert eta <= 1e-6, f"trial {trial}: eta={eta}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(1, "CCE/SVD oracle equivalence, 200 instances")


def test_criterion_2_nystrom_full_sampling_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(50):
        n = int(rng.integers(6, 20))
        m = int(rng.integers(6, 20))
        r = 3
        A = rng.standard_normal((n, m))
        res = asym_nystrom(MatrixOperator(A), n, m, r, seed=trial)
        ref = truncated_svd(A, r, tol=1e-12)
        eta = eta_metric(ref.u, ref.lambdas, ref.v, res.u, res.v)
        assert eta <= 1e-8, f"trial {trial}: eta={eta}"
    # rank-1 recovery from a single row and column
    for trial in range(10):
        u = rng.uniform(0.5, 2.0, size=int(rng.integers(4, 12)))
        v = rng.uniform(0.5, 2.0, size=int(rng.integers(4, 12)))
        res = asym_nystrom(MatrixOperator(np.outer(u, v)), 1, 1, 1, seed=trial)
        assert np.allclose(res.u[:, 0], u / np.linalg.norm(u), atol=1e-12)
        assert np.allclose(res.v[:, 0], v / np.linalg.norm(v), atol=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(2, "asymmetric Nystrom exactness at full sampling and rank 1")


def test_criterion_3_symmetric_reduction():
    rng = np.random.default_rng(303)
    for trial in range(20):
        N = int(rng.integers(10, 25))
        B = rng.standard_normal((N, 6))
        K = B @ B.T
        n_sub = int(rng.integers(4, N))
        idx = np.sort(rng.choice(N, n_sub, replace=False))
        r = 3
        res = asym_nystrom(MatrixOperator(K), n_sub, n_sub, r, seed=0,
                           row_indices=idx, col_indices=idx)
        u_sym, lam_sym = sym_nystrom_eig(K, n_sub, r, indices=idx)
        cos = np.abs(np.sum(res.u * u_sym, axis=0))
        assert np.min(cos) >= 1 - 1e-8, f"trial {trial}: min cos={np.min(cos)}"
        # absolute in lambda_1: a relative bound per lambda fails on
        # near-deficient samples, whose small lambdas carry round-off
        assert np.max(np.abs(res.lambdas - lam_sym)) <= 1e-13 * lam_sym[0], f"trial {trial}"
    report(3, "asymmetric Nystrom reduces to symmetric Nystrom on PSD input")


def test_criterion_4_benchmark_direction():
    t0 = time.perf_counter()
    N, r = 2000, 20
    m_schedule = (64, 128, 256, 500, 1000, 2000)
    oversamples = (5, 10, 20, 40, 80, 160)
    medians = {}
    for ratio in (0.9, 0.7, 0.5):
        rng = np.random.default_rng(1234)
        u, _ = np.linalg.qr(rng.standard_normal((N, N)))
        v, _ = np.linalg.qr(rng.standard_normal((N, N)))
        s = ratio ** np.arange(N)
        G = (u * s) @ v.T
        reference = (u[:, :r], s[:r], v[:, :r])
        m_req, speedups = [], []
        for seed in range(5):
            rep = bench(G, r, 1e-1, solvers=("rsvd", "asymnys"),
                        m_schedule=m_schedule, seed=seed, reference=reference,
                        oversample_schedule=oversamples)
            asym = rep.summary["asymnys"]
            rsvd = rep.summary["rsvd"]
            assert asym["success"] and rsvd["success"]
            m_req.append(asym["knob"])
            speedups.append(rsvd["seconds"] / asym["seconds"])
        medians[ratio] = (float(np.median(m_req)), float(np.median(speedups)))
    m_05, speed_05 = medians[0.5]
    assert m_05 <= N / 4, f"ratio 0.5 needed m_sub={m_05}"
    assert speed_05 >= 1.5, f"ratio 0.5 speedup {speed_05:.2f}x"
    assert medians[0.9][0] >= medians[0.7][0] >= medians[0.5][0], medians
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(4, f"benchmark direction: m_sub={m_05:.0f}, speedup {speed_05:.1f}x, "
              f"monotone across decay ratios")


def test_criterion_5_kernel_invariants():
    rng = np.random.default_rng(505)
    # sne row-stochasticity over 10^4 rows
    X = rng.standard_normal((10_000, 4))
    Z = rng.standard_normal((40, 4))
    G = gram(KernelSpec.sne(2.0), X, Z, scaled=False)
    assert np.all(np.abs(G.values.sum(axis=1) - 1.0) <= 1e-12)
    # centering annihilates constant vectors
    V = rng.standard_normal((60, 45))
    C = center(GramMatrix(V))
    assert np.all(np.abs(C.values @ np.ones(45)) <= 1e-10)
    assert np.all(np.abs(np.ones(60) @ C.values) <= 1e-10)
    # lazy/dense agreement, exact, 10^3 sampled entries
    X = rng.standard_normal((80, 6))
    Z = rng.standard_normal((70, 6))
    for spec in (KernelSpec.linear(), KernelSpec.rbf(1.5), KernelSpec.sne(1.5)):
        dense = gram(spec, X, Z, scaled=True).values
        op = KernelOperator(X, Z, spec, scaled=True)
        idx = rng.integers(0, [80, 70], size=(1000, 2))
        for i, j in idx:
            assert op.entry(int(i), int(j)) == dense[i, j]
    report(5, "sne stochasticity, centering annihilation, lazy/dense exactness")


def test_criterion_6_downstream_sanity(tmp_path):
    # 3-block doc-term biclustering: exact document NMI in >= 90% of seeds
    wins = 0
    truth = np.repeat([0, 1, 2], 8)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        blocks = []
        for shift, scale in ((0, 2.0), (1, 2.5), (2, 3.0)):
            B = 0.02 * rng.standard_normal((8, 6))
            B[:, shift * 2: shift * 2 + 2] += scale
            blocks.append(B)
        A = np.vstack(blocks)
        model = fit_matrix(A, KernelSpec.sne(auto_gamma(A)), 3, compat=PcaProjection())
        labels = kmeans(model.b_phi, 3, seed=seed).labels
        if nmi(labels, truth) >= 1.0 - 1e-12:
            wins += 1
    assert wins >= 18, f"exact NMI in only {wins}/20 seeds"

    # linearly separable two-class set: training accuracy 1.0
    rng = np.random.default_rng(606)
    F = np.vstack([rng.standard_normal((15, 3)) + 2.5,
                   rng.standard_normal((15, 3)) - 2.5])
    y = np.array([0] * 15 + [1] * 15)
    clf = lssvm_fit(F, y, gamma_reg=1.0)
    assert np.mean(clf.predict(F) == y) == 1.0

    # hand-built 8-node digraph: full-rank SVD embeddings reconstruct
    # exactly what the brute-force nearest-neighbor oracle produces
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
             (6, 7), (7, 0), (3, 0), (5, 1), (6, 2)]
    p = tmp_path / "g8.tsv"
    p.write_text("# n=8\n" + "".join(f"{s}\t{d}\n" for s, d in edges))
    A = load_edge_list(p)
    u, s, vt = np.linalg.svd(A)
    src, tgt = u * s, vt.T  # full-rank left/right embeddings
    deg = A.sum(axis=1).astype(int)
    got = graph_reconstruct(src, tgt, deg)
    want = np.zeros((8, 8))
    for v_node in range(8):
        cand = sorted((float(np.sum((src[v_node] - tgt[u_node]) ** 2)), u_node)
                      for u_node in range(8) if u_node != v_node)
        for _, u_node in cand[: deg[v_node]]:
            want[v_node, u_node] = 1.0
    assert np.array_equal(got, want)
    report(6, "biclustering NMI, separable LSSVM, graph reconstruction oracle")


def test_criterion_7_compat_strategies():
    rng = np.random.default_rng(707)
    # a1 beats 20 random orthonormal projections
    A = rng.standard_normal((6, 11))
    C1 = realize_compat(PcaProjection(), A)
    best = np.linalg.norm(A - A @ C1 @ C1.T)
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.standard_normal((11, 6)))
        assert best <= np.linalg.norm(A - A @ Q @ Q.T) + 1e-12
    # a0 matches the pseudo-inverse oracle
    C0 = realize_compat(PseudoInverse(), A)
    assert np.max(np.abs(C0 - np.linalg.pinv(A))) <= 1e-8

    # a3 monotone training loss on a 30x12 synthetic regression
    A = rng.standard_normal((30, 12))
    w_true = rng.standard_normal(12)
    y = A @ w_true + 0.1 * rng.standard_normal(30)
    spec = KernelSpec.rbf(4.0)
    cfg = LearnableConfig(rank_r=4, steps=20, learning_rate=5e-3, seed=0,
                          task="regression", outer_iters=8)
    res = learn_compat(A, y, spec, cfg)
    assert len(res.losses) >= 2, "training made no progress"
    assert np.all(np.diff(res.losses) <= 1e-6), res.losses

    # finite-difference gradient agrees with the analytic gradient
    C = realize_compat(PcaProjection(), A)
    Y = y.reshape(-1, 1)
    G = _gram_values(A, C, spec)
    _, _, vt = np.linalg.svd(G, full_matrices=False)
    V = vt[:4].T
    W = 0.1 * rng.standard_normal((4, 1))
    b = np.array([0.1])
    _, _, dG = _head_gradients(G, V, Y, W, b)
    g_ana = _c_gradient_analytic(A, C, spec, dG, G)
    g_fd = _c_gradient_fd(A, C, spec, V, Y, W, b, h=1e-5)
    rel = np.linalg.norm(g_fd - g_ana) / np.linalg.norm(g_ana)
    assert rel <= 1e-4, f"gradient mismatch: rel={rel}"
    report(7, "compat strategies: a1 optimality, a0 oracle, a3 monotone + gradients")


def test_criterion_8_cli_reproducibility(tmp_path, capsys):
    rng = np.random.default_rng(808)
    A = rng.standard_normal((12, 12))
    inp = tmp_path / "a.csv"
    save_matrix_csv(inp, A)
    adj = (rng.random((12, 12)) < 0.3).astype(float)
    np.fill_diagonal(adj, 0.0)
    adj_path = tmp_path / "adj.csv"
    save_matrix_csv(adj_path, adj)
    labels = tmp_path / "y.txt"
    labels.write_text("".join(f"{i % 2}\n" for i in range(12)))

    runs = {
        "embed": ["embed", "--input", str(inp), "--kernel", "rbf", "--gamma", "auto",
                  "--rank", "3", "--center", "--seed", "5",
                  "--out", str(tmp_path / "e")],
        "graph": ["graph", "--input", str(adj_path), "--labels", str(labels),
                  "--kernel", "sne", "--gamma", "auto", "--rank", "2", "--seed", "5",
                  "--out", str(tmp_path / "g")],
        "bicluster": ["bicluster", "--input", str(inp), "--labels", str(labels),
                      "--kernel", "linear", "--rank", "2", "--k-rows", "2",
                      "--k-cols", "2", "--seed", "5", "--out", str(tmp_path / "b")],
    }
    for name, argv in runs.items():
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        cfg = json.loads([l for l in out.splitlines() if l.startswith("{")][0])
        prefix = cfg["out"]
        suffixes = (".left.csv", ".right.csv", ".concat.csv", ".fit.json",
                    ".metrics.json")
        import os
        files = [prefix + sfx for sfx in suffixes if os.path.exists(prefix + sfx)]
        assert files
        first = {f: open(f, "rb").read() for f in files}
        cfg_path = tmp_path / f"{name}.config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["--config", str(cfg_path)]) == 0
        capsys.readouterr()
        second = {f: open(f, "rb").read() for f in files}
        assert first == second, f"{name} outputs changed on re-run"
    report(8, "CLI runs re-executed from echoed configs are bit-identical")
