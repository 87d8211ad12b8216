import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aksvd import downstream
from aksvd.compat import LinearHead, _encode_targets
from aksvd.errors import NumericalError
from aksvd.downstream import (
    coherence,
    f1_scores,
    graph_reconstruct,
    kmeans,
    linear_head,
    lssvm_fit,
    nmi,
    recon_error,
)
from aksvd.kernels import KernelSpec, gram
from oracles import coherence_loop, f1_scores_loop, lssvm_kkt_residual, nmi_loop


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
    assert lssvm_kkt_residual(model, F, y) <= 1e-8


def test_lssvm_one_solve_for_every_class(monkeypatch):
    rng = np.random.default_rng(4)
    F = rng.standard_normal((15, 3))
    y = rng.integers(0, 4, size=15)
    y[:4] = [0, 1, 2, 3]
    calls = []
    solve = np.linalg.solve

    def spy(a, b):
        calls.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    model = lssvm_fit(F, y)
    assert calls == [(4, 4)]
    assert model.weights.shape == (3, 4) and model.bias.shape == (4,)
    assert lssvm_kkt_residual(model, F, y) <= 1e-8


def test_lssvm_head_is_the_one_head_class():
    rng = np.random.default_rng(5)
    F = rng.standard_normal((12, 3))
    y = rng.integers(0, 3, size=12)
    y[:3] = [0, 1, 2]
    model = lssvm_fit(F, y)
    assert isinstance(model, LinearHead)  # shared with compat and linear_head
    # the same functions, bound under the names perfbench traces
    assert downstream.LssvmModel.decision is LinearHead.decision
    assert downstream.LssvmModel.predict is LinearHead.predict
    assert np.array_equal(model.decision(F), F @ model.weights + model.bias)
    assert np.array_equal(model.predict(F), model.classes[np.argmax(model.decision(F), 1)])


def test_lssvm_singular_system_is_numerical_error():
    # no ridge and a zero feature column: [F, 1] is rank-deficient
    with pytest.raises(NumericalError, match="singular"):
        lssvm_fit(np.zeros((2, 1)), np.array([0, 1]), gamma_reg=np.inf)


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


def _lssvm_cases():
    """The feature/label sets of the LSSVM tests above and of criterion 6,
    and two equal rows with conflicting labels."""
    yield np.array([[-1.0], [1.0]]), np.array([0, 1])
    F = np.random.default_rng(0).standard_normal((10, 3))
    y = (F[:, 0] > 0).astype(int)
    yield F, y
    yield np.column_stack([F, np.zeros(10)]), y
    rng = np.random.default_rng(1)
    yield rng.standard_normal((12, 4)), rng.integers(0, 3, size=12)
    rng = np.random.default_rng(4)
    F = rng.standard_normal((15, 3))
    y = rng.integers(0, 4, size=15)
    y[:4] = [0, 1, 2, 3]
    yield F, y
    rng = np.random.default_rng(2)
    F = rng.standard_normal((9, 3))
    y = rng.integers(0, 2, size=9)
    y[0], y[1] = 0, 1
    yield F, y
    perm = rng.permutation(9)
    yield F[perm], y[perm]
    rng = np.random.default_rng(3)
    yield (np.vstack([rng.standard_normal((10, 2)) + 3.0,
                      rng.standard_normal((10, 2)) - 3.0]),
           np.array([0] * 10 + [1] * 10))
    rng = np.random.default_rng(606)
    yield (np.vstack([rng.standard_normal((15, 3)) + 2.5,
                      rng.standard_normal((15, 3)) - 2.5]),
           np.array([0] * 15 + [1] * 15))
    yield np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0], [3.0, 1.0]]), np.array([0, 1, 0, 1])


@pytest.mark.parametrize("gamma_reg", [0.1, 1.0, 100.0])
def test_lssvm_primal_solves_the_dual_kkt_system(gamma_reg):
    for F, y in _lssvm_cases():
        model = lssvm_fit(F, y, gamma_reg=gamma_reg)
        assert lssvm_kkt_residual(model, F, y, gamma_reg) <= 1e-8


def test_lssvm_infinite_gamma_is_least_squares():
    rng = np.random.default_rng(6)
    F = rng.standard_normal((40, 3))
    y = rng.integers(0, 3, size=40)
    X = np.column_stack([F, np.ones(40)])
    Y = np.where(y[:, None] == np.unique(y)[None, :], 1.0, -1.0)
    theta, *_ = np.linalg.lstsq(X, Y, rcond=None)
    model = lssvm_fit(F, y, gamma_reg=np.inf)
    assert np.allclose(model.decision(F), X @ theta, rtol=0, atol=1e-12)
    # and finite gamma approaches that limit
    near = lssvm_fit(F, y, gamma_reg=1e8).decision(F)
    assert np.abs(near - X @ theta).max() <= 1e-6


def test_lssvm_rejects_non_finite_features():
    F = np.random.default_rng(7).standard_normal((8, 2))
    F[3, 1] = np.nan
    with pytest.raises(ValueError, match="features contains non-finite"):
        lssvm_fit(F, np.arange(8) % 2)


@pytest.mark.parametrize("gamma_reg", [-1.0, 0.0, np.nan, -np.inf])
def test_lssvm_rejects_bad_gamma(gamma_reg):
    F = np.random.default_rng(7).standard_normal((8, 2))
    with pytest.raises(ValueError, match="gamma_reg must be > 0"):
        lssvm_fit(F, np.arange(8) % 2, gamma_reg=gamma_reg)


def test_lssvm_rejects_label_count_mismatch():
    F = np.random.default_rng(7).standard_normal((8, 2))
    with pytest.raises(ValueError, match="need 8 labels.*got 5"):
        lssvm_fit(F, np.array([0, 1, 0, 1, 0]))


@pytest.mark.parametrize("fit", [lambda F, y: lssvm_fit(F, y),
                                 lambda F, y: linear_head(F, y, "classification", steps=5)],
                         ids=["lssvm_fit", "linear_head"])
def test_nan_class_labels_are_rejected(fit):
    # NaN matches no row, so it would be a class whose column is all -1
    F = np.random.default_rng(7).standard_normal((8, 2))
    with pytest.raises(ValueError, match="class labels contain NaN"):
        fit(F, np.array([0, 1, 0, 1, np.nan, 1, 0, np.nan]))


def test_lssvm_builds_no_n_by_n_array():
    rng = np.random.default_rng(8)
    n = 2000
    F = rng.standard_normal((n, 4))
    y = rng.integers(0, 3, size=n)
    tracemalloc.start()
    try:
        lssvm_fit(F, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 10   # an n x n float64 array is 32 MB


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


def loop_reconstruct(src, tgt, deg):
    """The per-node reconstruction loop: same distances, one lexsort per node."""
    src, tgt, deg = np.asarray(src, float), np.asarray(tgt, float), np.asarray(deg, int)
    N = src.shape[0]
    d2 = (src * src).sum(axis=1)[:, None] + (tgt * tgt).sum(axis=1)[None, :] \
        - 2.0 * gram(KernelSpec.linear(), src, tgt, scaled=False).values
    np.maximum(d2, 0.0, out=d2)
    A_hat = np.zeros((N, N))
    idx = np.arange(N)
    for v in range(N):
        dist = d2[v].copy()
        dist[v] = np.inf
        order = np.lexsort((idx, dist))
        A_hat[v, order[: deg[v]]] = 1.0
    return A_hat


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), d=st.integers(1, 5),
       levels=st.sampled_from([0, 2, 3, 1000]))
def test_reconstruct_matches_loop_property(seed, n, d, levels):
    rng = np.random.default_rng(seed)
    if levels:   # few distinct coordinates: many exact distance ties
        src = rng.integers(0, levels, size=(n, d)).astype(float)
        tgt = rng.integers(0, levels, size=(n, d)).astype(float)
    else:
        src, tgt = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    deg = rng.integers(0, n, size=n)
    assert np.array_equal(graph_reconstruct(src, tgt, deg), loop_reconstruct(src, tgt, deg))


def test_reconstruct_matches_loop_at_graph_size():
    # graph-sne's node count; integer embeddings put exact ties at most
    # rows' cut-offs, and the degrees mix 0, 1, typical values and N - 1
    rng = np.random.default_rng(7)
    N = 400
    src = rng.integers(0, 3, size=(N, 4)).astype(float)
    tgt = rng.integers(0, 3, size=(N, 4)).astype(float)
    deg = rng.integers(2, 20, size=N)
    deg[:50], deg[50:100], deg[100:110] = 0, 1, N - 1
    rng.shuffle(deg)
    assert np.array_equal(graph_reconstruct(src, tgt, deg), loop_reconstruct(src, tgt, deg))


def test_reconstruct_holds_two_n_by_n_arrays_at_most():
    # the distances and the output are its only N x N arrays alive at once
    rng = np.random.default_rng(11)
    N = 1000
    src, tgt = rng.standard_normal((N, 16)), rng.standard_normal((N, 16))
    deg = rng.integers(0, 40, size=N)
    graph_reconstruct(src[:20], tgt[:20], deg[:20] % 20)   # runs d = 16's tile self-check first
    tracemalloc.start()
    try:
        graph_reconstruct(src, tgt, deg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * N * N * 8


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
    # a fraction is no degree, never truncated; an integral real is one
    with pytest.raises(ValueError, match="out-degrees must be integers in"):
        graph_reconstruct(np.zeros((3, 1)), np.zeros((3, 1)), [1.9, 0, 0])
    emb = np.arange(3.0)[:, None]
    assert np.array_equal(graph_reconstruct(emb, emb, [2.0, 1.0, 0.0]),
                          graph_reconstruct(emb, emb, [2, 1, 0]))


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
    # counts below 1 are refused, never clamped
    for counts in ({"max_iter": 0}, {"restarts": 0}):
        with pytest.raises(ValueError, match="need max_iter >= 1 and restarts >= 1"):
            kmeans(np.eye(3), 2, **counts)


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


def test_coherence_skips_pairs_with_a_term_in_no_document():
    # terms 2 and 3 occur nowhere: cluster 0 scores its one pair (0, 1),
    # cluster 1 has no scorable pair and scores 0
    dt = np.ones((10, 4))
    dt[:, 2:] = 0.0
    got = coherence(np.array([0, 0, 0, 1]), dt)
    assert got == pytest.approx((np.log(11 / 10) + 0.0) / 2)
    assert coherence(np.array([0, 0, 1, 1]), dt) == pytest.approx(np.log(11 / 10) / 2)


@pytest.mark.parametrize("call, message", [
    (lambda: f1_scores([0, 1, 1], [0, 1]), "pred and truth lengths differ"),
    (lambda: recon_error(np.zeros((3, 3)), np.zeros((3, 2))), "adjacency shapes differ"),
    (lambda: nmi([0, 1, 1], [0, 1]), "label vectors must have equal length"),
    (lambda: coherence([0, 1], np.ones((4, 3))), "term_labels length must match"),
], ids=["f1_scores", "recon_error", "nmi", "coherence"])
def test_metrics_reject_mismatched_lengths(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
# the counting metrics against their loop oracles, compared with ==
# ---------------------------------------------------------------------------

_CLASS_SETS = st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True)


@st.composite
def _label_pairs(draw):
    """Two label vectors of one length over non-contiguous classes, of one
    class or several, the second over the first's classes or its own."""
    n = draw(st.integers(1, 60))
    classes_a = draw(_CLASS_SETS)
    classes_b = draw(st.one_of(st.just(classes_a), _CLASS_SETS))
    a = draw(st.lists(st.sampled_from(classes_a), min_size=n, max_size=n))
    b = draw(st.lists(st.sampled_from(classes_b), min_size=n, max_size=n))
    return np.array(a), np.array(b)


@settings(max_examples=300, deadline=None)
@given(_label_pairs())
def test_f1_matches_loop_property(labels):
    assert f1_scores(*labels) == f1_scores_loop(*labels)


@settings(max_examples=300, deadline=None)
@given(_label_pairs())
def test_nmi_matches_loop_property(labels):
    assert nmi(*labels) == nmi_loop(*labels)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_docs=st.integers(0, 30), n_terms=st.integers(1, 30),
       density=st.floats(0.0, 1.0), n_clusters=st.integers(1, 12), singleton=st.booleans())
def test_coherence_matches_loop_property(seed, n_docs, n_terms, density, n_clusters, singleton):
    rng = np.random.default_rng(seed)
    dt = (rng.random((n_docs, n_terms)) < density) * rng.integers(1, 4, (n_docs, n_terms))
    dt[:, rng.random(n_terms) < 0.2] = 0                     # terms in no document
    dt[:, rng.permutation(n_terms)[: n_terms // 3]] = dt[:, :1]   # tied document counts
    labels = 3 * rng.integers(0, n_clusters, n_terms) - 5
    if singleton:
        labels[rng.integers(n_terms)] = 100
    assert coherence(labels, dt) == coherence_loop(labels, dt)


@pytest.mark.parametrize("call, message", [
    (lambda: f1_scores([], []), "label vectors are empty"),
    (lambda: nmi([], []), "label vectors are empty"),
    (lambda: coherence([], np.ones((4, 0))), "term_labels is empty"),
], ids=["f1_scores", "nmi", "coherence"])
def test_metrics_reject_empty_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: f1_scores([np.nan, 1, np.nan, 2], [np.nan, 1, 2, 2]),
    lambda: f1_scores([0.0, 1, 2, 2], [0.0, 1, np.nan, 2]),
    lambda: nmi([np.nan, 0, 1, 1], [0, 0, 1, 1]),
    lambda: nmi([0, 0, 1, 1], [0.0, 0, np.nan, 1]),
], ids=["f1_scores", "f1_scores-truth", "nmi-a", "nmi-b"])
def test_label_metrics_reject_a_nan_label(call):
    # a NaN matches no class, NaN included: it was once counted as one
    with pytest.raises(ValueError, match="labels contain NaN"):
        call()


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


def _gd_linear_head(features, targets, task, lr=1e-2, steps=2000, seed=0):
    """The step-by-step gradient-descent head that ``linear_head`` replaced
    by its closed form; kept verbatim as the oracle for the iterate."""
    F = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets)
    if not np.all(np.isfinite(F)):
        raise ValueError("features contain non-finite values")
    n = F.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(0.2 * n))) if n > 1 else 0
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    Y, classes = _encode_targets(targets, task)

    Ftr, Ytr = F[train_idx], Y[train_idx]
    W = np.zeros((F.shape[1], Y.shape[1]))
    b = np.zeros(Y.shape[1])
    for _ in range(steps):
        resid = Ftr @ W + b[None, :] - Ytr
        with np.errstate(over="ignore"):
            loss = float(np.mean(resid ** 2))
        if not np.isfinite(loss):
            raise NumericalError("linear head diverged; decrease the learning rate")
        scale = 2.0 / resid.size
        W -= lr * scale * (Ftr.T @ resid)
        b -= lr * scale * resid.sum(axis=0)

    Fte, Yte = F[test_idx], targets[test_idx]
    head = LinearHead(W, b, classes)
    if task == "classification":
        acc = float(np.mean(head.predict(Fte) == Yte)) if n_test else 1.0
        head.metric_name, head.metric = "accuracy", acc
    else:
        pred = head.predict(Fte) if n_test else np.array([])
        rmse = float(np.sqrt(np.mean((pred - Yte.astype(np.float64)) ** 2))) if n_test else 0.0
        head.metric_name, head.metric = "rmse", rmse
    return head


def _stable_lr(F, targets, task, seed, rho):
    """The step size with c * lambda_max = rho on the head's training split,
    c = 2 lr / Y.size and lambda_max the top eigenvalue of [F, 1]'[F, 1]."""
    n = F.shape[0]
    n_test = max(1, int(round(0.2 * n))) if n > 1 else 0
    train = np.random.default_rng(seed).permutation(n)[n_test:]
    X = np.column_stack([F[train], np.ones(train.size)])
    k = _encode_targets(targets, task)[0].shape[1]
    return rho * train.size * k / (2.0 * np.linalg.eigvalsh(X.T @ X)[-1])


def _assert_head_matches_loop(F, y, task, lr, steps, seed=0):
    got = linear_head(F, y, task, lr=lr, steps=steps, seed=seed)
    want = _gd_linear_head(F, y, task, lr=lr, steps=steps, seed=seed)
    theta = np.vstack([want.weights, want.bias])
    err = np.max(np.abs(np.vstack([got.weights, got.bias]) - theta))
    assert err <= 1e-9 * np.max(np.abs(theta))
    assert got.metric_name == want.metric_name
    assert got.metric == pytest.approx(want.metric, rel=1e-9, abs=1e-12)


def _regression_problem(seed, n=40, d=3):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, d))
    return F, F @ rng.standard_normal(d) + 0.3 + 0.1 * rng.standard_normal(n)


@pytest.mark.parametrize("steps", [0, 1, 7, 2000])
def test_linear_head_closed_form_matches_loop_well_conditioned(steps):
    F, y = _regression_problem(20)
    _assert_head_matches_loop(F, y, "regression", lr=0.05, steps=steps)


@pytest.mark.parametrize("steps", [0, 1, 7, 2000])
def test_linear_head_closed_form_matches_loop_duplicated_column(steps):
    F, y = _regression_problem(21)
    F = np.column_stack([F, F[:, 1]])          # rank-deficient X'X
    _assert_head_matches_loop(F, y, "regression", lr=0.05, steps=steps)


@pytest.mark.parametrize("steps", [0, 1, 7, 2000])
def test_linear_head_closed_form_matches_loop_constant_column(steps):
    F, y = _regression_problem(22)
    F[:, 1] = 2.5                               # collinear with the bias
    _assert_head_matches_loop(F, y, "regression", lr=0.05, steps=steps)


@pytest.mark.parametrize("steps", [1, 7, 2000])
def test_linear_head_closed_form_matches_loop_zero_features(steps):
    # all-zero features give exactly zero eigenvalues; only the bias learns
    _, y = _regression_problem(27)
    _assert_head_matches_loop(np.zeros((40, 2)), y, "regression", lr=0.05, steps=steps)


@pytest.mark.parametrize("steps", [0, 1, 7, 2000])
def test_linear_head_closed_form_matches_loop_three_classes(steps):
    rng = np.random.default_rng(23)
    centers = np.array([[3.0, 0.0], [-3.0, 1.0], [0.0, -3.0]])
    y = np.repeat([4, 7, 9], 15)
    F = centers[np.searchsorted([4, 7, 9], y)] + rng.standard_normal((45, 2))
    _assert_head_matches_loop(F, y, "classification", lr=0.02, steps=steps)


@pytest.mark.parametrize("steps", [0, 1, 7, 2000])
def test_linear_head_closed_form_matches_loop_oscillating(steps):
    # 1 < c * lambda_max < 2: the top mode flips sign every step but decays
    F, y = _regression_problem(24)
    lr = _stable_lr(F, y, "regression", 0, 1.8)
    _assert_head_matches_loop(F, y, "regression", lr=lr, steps=steps)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 16), d=st.integers(1, 4),
       n_classes=st.sampled_from([0, 2, 3]), rho=st.floats(0.01, 1.9),
       steps=st.integers(0, 300), rank_deficient=st.booleans())
def test_linear_head_closed_form_matches_loop_property(seed, n, d, n_classes, rho, steps,
                                                       rank_deficient):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-1, 1, size=d)
    if rank_deficient and d > 1:
        F[:, -1] = F[:, 0]
    if n_classes:
        task, y = "classification", rng.integers(0, n_classes, size=n)
    else:
        task, y = "regression", rng.standard_normal(n)
    lr = _stable_lr(F, y, task, 3, rho)
    _assert_head_matches_loop(F, y, task, lr=lr, steps=steps, seed=3)


@pytest.mark.parametrize("kwargs", [{"steps": -1}, {"lr": 0.0}, {"lr": float("nan")},
                                    {"lr": -0.1}, {"lr": float("inf")},
                                    {"targets": np.zeros(39)},
                                    {"targets": np.r_[np.zeros(39), np.nan]},
                                    {"task": "ranking"}])
def test_linear_head_rejects_bad_input(kwargs):
    F, y = _regression_problem(25)
    with pytest.raises(ValueError):
        linear_head(**{"features": F, "targets": y, "task": "regression", **kwargs})
