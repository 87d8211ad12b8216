import itertools

import numpy as np
import pytest

from aksvd.compat import LinearHead
from aksvd.downstream import (
    coherence,
    f1_scores,
    graph_reconstruct,
    kmeans,
    linear_head,
    lssvm_fit,
    lssvm_kkt_residual,
    nmi,
    recon_error,
)


# ---------------------------------------------------------------------------
# LSSVM
# ---------------------------------------------------------------------------

def test_lssvm_two_points():
    F = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = lssvm_fit(F, y, gamma_reg=1.0)
    assert np.array_equal(model.predict(F), y)


def test_lssvm_two_points_direct_solve_oracle():
    # solve the 3x3 system for class 1 by hand and compare decisions
    F = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    omega = F @ F.T
    A = np.block([[np.zeros((1, 1)), np.ones((1, 2))],
                  [np.ones((2, 1)), omega + np.eye(2)]])
    sol = np.linalg.solve(A, np.array([0.0, -1.0, 1.0]))  # +1 for class 1
    model = lssvm_fit(F, y)
    idx1 = list(model.classes).index(1)
    got = model.decision(F)[:, idx1]
    want = omega @ sol[1:] + sol[0]
    assert np.allclose(got, want, atol=1e-12)


def test_lssvm_single_class_error():
    with pytest.raises(ValueError):
        lssvm_fit(np.ones((3, 2)), np.zeros(3))


def test_lssvm_zero_column_invariance():
    rng = np.random.default_rng(0)
    F = rng.standard_normal((10, 3))
    y = (F[:, 0] > 0).astype(int)
    m1 = lssvm_fit(F, y)
    m2 = lssvm_fit(np.column_stack([F, np.zeros(10)]), y)
    d1 = m1.decision(F)
    d2 = m2.decision(np.column_stack([F, np.zeros(10)]))
    assert np.allclose(d1, d2, atol=1e-10)


def test_lssvm_kkt_residual():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, size=12)
    model = lssvm_fit(F, y, gamma_reg=1.0)
    assert lssvm_kkt_residual(model, y) <= 1e-8


def test_lssvm_permutation_equivariance():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((9, 3))
    y = rng.integers(0, 2, size=9)
    y[0], y[1] = 0, 1  # both classes present
    perm = rng.permutation(9)
    m1 = lssvm_fit(F, y)
    m2 = lssvm_fit(F[perm], y[perm])
    probe = rng.standard_normal((5, 3))
    assert np.allclose(m1.decision(probe), m2.decision(probe), atol=1e-8)


def test_lssvm_separable_training_accuracy():
    rng = np.random.default_rng(3)
    F = np.vstack([rng.standard_normal((10, 2)) + 3.0,
                   rng.standard_normal((10, 2)) - 3.0])
    y = np.array([0] * 10 + [1] * 10)
    model = lssvm_fit(F, y, gamma_reg=1.0)
    assert np.mean(model.predict(F) == y) == 1.0


# ---------------------------------------------------------------------------
# F1
# ---------------------------------------------------------------------------

def test_f1_perfect_and_all_wrong():
    assert f1_scores([0, 1, 0], [0, 1, 0]) == (1.0, 1.0)
    micro, macro = f1_scores([1, 0, 1], [0, 1, 0])
    assert micro == 0.0 and macro == 0.0


def test_f1_three_class_confusion_oracle():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([0, 0, 1, 2, 2, 2])
    # confusion-matrix oracle: per-class F1 = 1, 2/3, 4/5
    micro, macro = f1_scores(pred, truth)
    assert micro == pytest.approx(5 / 6)
    assert macro == pytest.approx((1.0 + 2 / 3 + 4 / 5) / 3)


def test_f1_absent_class_counts_zero():
    # class 2 never predicted and absent from truth slice: shows up only
    # through pred's class set and scores 0
    micro, macro = f1_scores([0, 2], [0, 1])
    # classes {0, 1, 2}: f1(0)=1, f1(1)=0, f1(2)=0
    assert macro == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# graph reconstruction
# ---------------------------------------------------------------------------

def brute_force_reconstruct(src, tgt, deg):
    N = src.shape[0]
    A = np.zeros((N, N))
    for v in range(N):
        cand = [(float(np.sum((src[v] - tgt[u]) ** 2)), u) for u in range(N) if u != v]
        cand.sort()
        for _, u in cand[: deg[v]]:
            A[v, u] = 1.0
    return A


def test_reconstruct_zero_degrees():
    rng = np.random.default_rng(4)
    emb = rng.standard_normal((5, 3))
    assert np.array_equal(graph_reconstruct(emb, emb, np.zeros(5, dtype=int)),
                          np.zeros((5, 5)))


def test_reconstruct_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        src = rng.standard_normal((8, 3))
        tgt = rng.standard_normal((8, 3))
        deg = rng.integers(0, 7, size=8)
        got = graph_reconstruct(src, tgt, deg)
        want = brute_force_reconstruct(src, tgt, deg)
        assert np.array_equal(got, want)


def test_reconstruct_tie_prefers_lower_index():
    src = np.array([[0.0], [5.0], [-5.0]])
    tgt = np.array([[0.0], [1.0], [-1.0]])  # nodes 1 and 2 equidistant from 0
    A = graph_reconstruct(src, tgt, [1, 0, 0])
    assert A[0, 1] == 1.0 and A[0, 2] == 0.0


def test_reconstruct_degree_bound():
    with pytest.raises(ValueError):
        graph_reconstruct(np.zeros((3, 1)), np.zeros((3, 1)), [3, 0, 0])


def test_recon_error_cases():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert recon_error(A, A) == (0.0, 0.0)
    B = A.copy()
    B[0, 1] = 0.0
    assert recon_error(A, B) == (1.0, 1.0)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((4, 4))
    Y = rng.standard_normal((4, 4))
    l1, l2 = recon_error(X, Y)
    assert l1 == pytest.approx(np.abs(X - Y).sum())
    assert l2 == pytest.approx(np.sqrt(((X - Y) ** 2).sum()))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def brute_force_two_partition(X):
    n = X.shape[0]
    best = (np.inf, None)
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        if mask.all() or not mask.any():
            continue
        inertia = 0.0
        for part in (X[mask], X[~mask]):
            c = part.mean(axis=0)
            inertia += float(((part - c) ** 2).sum())
        if inertia < best[0]:
            best = (inertia, mask)
    return best


def test_kmeans_two_clouds_optimal():
    rng = np.random.default_rng(7)
    X = np.vstack([rng.standard_normal((5, 2)) * 0.1 + [0, 0],
                   rng.standard_normal((5, 2)) * 0.1 + [10, 10]])
    res = kmeans(X, 2, seed=0)
    best_inertia, best_mask = brute_force_two_partition(X)
    assert res.inertia == pytest.approx(best_inertia, rel=1e-10)
    got = res.labels == res.labels[0]
    assert np.array_equal(got, best_mask) or np.array_equal(got, ~best_mask)


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 2))
    res = kmeans(X, 6, seed=1)
    assert res.inertia == pytest.approx(0.0, abs=1e-20)
    assert len(set(res.labels.tolist())) == 6


def test_kmeans_scale_equivariance():
    rng = np.random.default_rng(9)
    X = np.vstack([rng.standard_normal((6, 2)) + [0, 0],
                   rng.standard_normal((6, 2)) + [8, 8]])
    a = kmeans(X, 2, seed=3)
    b = kmeans(X * 10.0, 2, seed=3)
    assert nmi(a.labels, b.labels) == pytest.approx(1.0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((15, 3))
    a = kmeans(X, 3, seed=5)
    b = kmeans(X, 3, seed=5)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_kmeans_validates():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_duplicate_points_empty_cluster_repair():
    # only 2 distinct locations but k=3: the repair path must keep every
    # cluster alive and still return a valid assignment
    X = np.array([[0.0, 0.0]] * 5 + [[9.0, 9.0]] * 5)
    res = kmeans(X, 3, seed=0, restarts=3)
    assert set(res.labels.tolist()) <= {0, 1, 2}
    assert res.labels.shape == (10,)
    assert np.isfinite(res.inertia)


# ---------------------------------------------------------------------------
# NMI
# ---------------------------------------------------------------------------

def test_nmi_identical_up_to_relabeling():
    assert nmi([0, 0, 1, 1], [5, 5, 2, 2]) == pytest.approx(1.0)


def test_nmi_trivial_conventions():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0          # both trivial
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0          # one trivial, differ
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_four_point_hand_entropy():
    a = np.array([0, 0, 0, 1])
    b = np.array([0, 1, 1, 1])
    # contingency [[1, 2], [0, 1]] / 4; entropies by direct computation
    h = lambda ps: -sum(p * np.log(p) for p in ps if p > 0)
    ha = h([3 / 4, 1 / 4])
    hb = h([1 / 4, 3 / 4])
    mi = (1 / 4 * np.log((1 / 4) / (3 / 4 * 1 / 4))
          + 2 / 4 * np.log((2 / 4) / (3 / 4 * 3 / 4))
          + 1 / 4 * np.log((1 / 4) / (1 / 4 * 3 / 4)))
    assert nmi(a, b) == pytest.approx(mi / ((ha + hb) / 2), rel=1e-12)


def test_nmi_symmetric():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, 30)
    b = rng.integers(0, 4, 30)
    assert nmi(a, b) == nmi(b, a)


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def test_coherence_always_cooccurring():
    n_docs = 50
    dt = np.ones((n_docs, 2))
    got = coherence(np.array([0, 0]), dt)
    assert got == pytest.approx(np.log((n_docs + 1) / n_docs))


def test_coherence_disjoint_support_negative():
    n_docs = 40
    dt = np.zeros((n_docs, 2))
    dt[:20, 0] = 1.0
    dt[20:, 1] = 1.0
    # plug-in: D(a,b)=0, D(a)=D(b)=20 -> log(1 * 40 / 400) = log(0.1)
    got = coherence(np.array([0, 0]), dt)
    assert got == pytest.approx(np.log(40 / 400.0))
    assert got < -2.0


def test_coherence_singleton_cluster_zero():
    dt = np.ones((10, 3))
    got = coherence(np.array([0, 1, 1]), dt)
    # cluster 0 has one term (0), cluster 1 scores log(11/10)
    assert got == pytest.approx((0.0 + np.log(11 / 10)) / 2)


def test_coherence_top10_selection():
    rng = np.random.default_rng(12)
    n_docs, n_terms = 30, 15
    dt = (rng.random((n_docs, n_terms)) < 0.4).astype(float)
    labels = np.zeros(n_terms, dtype=int)
    got = coherence(labels, dt)
    # oracle: manual top-10 by document frequency, ties to lower index
    df = (dt != 0).sum(axis=0)
    order = np.lexsort((np.arange(n_terms), -df))[:10]
    pmis = []
    for i, j in itertools.combinations(sorted(order.tolist()), 2):
        co = int(np.sum((dt[:, i] != 0) & (dt[:, j] != 0)))
        pmis.append(np.log((co + 1) * n_docs / (df[i] * df[j])))
    assert got == pytest.approx(np.mean(pmis))


# ---------------------------------------------------------------------------
# linear head
# ---------------------------------------------------------------------------

def test_linear_head_exact_linear_regression():
    rng = np.random.default_rng(13)
    F = rng.standard_normal((50, 3))
    y = F @ np.array([2.0, -1.0, 0.5]) + 0.25
    # closed-form oracle confirms an exact fit exists
    coef, res_, *_ = np.linalg.lstsq(np.column_stack([F, np.ones(50)]), y, rcond=None)
    assert np.linalg.norm(np.column_stack([F, np.ones(50)]) @ coef - y) <= 1e-10
    head = linear_head(F, y, "regression", lr=0.1, steps=4000, seed=0)
    assert isinstance(head, LinearHead)  # the one head class, shared with compat
    assert head.metric_name == "rmse"
    assert head.metric <= 1e-3


def test_linear_head_constant_target():
    rng = np.random.default_rng(14)
    F = rng.standard_normal((20, 2))
    y = np.full(20, 3.7)
    head = linear_head(F, y, "regression", lr=0.1, steps=5000, seed=1)
    assert head.metric <= 1e-6
    assert np.linalg.norm(head.weights) <= 1e-4
    assert head.bias[0] == pytest.approx(3.7, abs=1e-6)


def test_linear_head_separable_classification():
    rng = np.random.default_rng(15)
    F = np.vstack([rng.standard_normal((25, 2)) + 4.0,
                   rng.standard_normal((25, 2)) - 4.0])
    y = np.array([0] * 25 + [1] * 25)
    head = linear_head(F, y, "classification", lr=0.05, steps=1000, seed=2)
    assert head.metric_name == "accuracy"
    assert head.metric == 1.0


def test_linear_head_divergence_raises():
    rng = np.random.default_rng(16)
    F = rng.standard_normal((10, 2)) * 100
    y = rng.standard_normal(10)
    with pytest.raises(Exception, match="learning rate"):
        linear_head(F, y, "regression", lr=10.0, steps=500, seed=0)
