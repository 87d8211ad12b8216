"""Downstream evaluation: LSSVM classification, graph reconstruction,
k-means biclustering metrics, and simple linear heads for general data."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NumericalError
from .compat import LinearHead, _encode_targets
from .kernels import _products, as_matrix


# ---------------------------------------------------------------------------
# least-squares SVM (one-vs-rest, linear kernel on the features)
# ---------------------------------------------------------------------------

@dataclass
class LssvmModel:
    alphas: np.ndarray      # k x n dual coefficients, one row per class
    biases: np.ndarray      # k
    classes: np.ndarray
    features: np.ndarray    # n x d training features
    gamma_reg: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        K = np.asarray(X, dtype=np.float64) @ self.features.T
        return K @ self.alphas.T + self.biases[None, :]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.decision(X), axis=1)]


def lssvm_fit(features, labels, gamma_reg: float = 1.0) -> LssvmModel:
    """Fit one-vs-rest LSSVM classifiers on linear-kernel features.

    Each class solves [[0, 1'], [1, Omega + I/gamma]] [b; alpha] = [0; y]
    with Omega = F F' and y in {-1, +1}^n; the system is the same for
    every class, so one solve takes all of them as right-hand sides.
    """
    F = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("lssvm_fit requires at least 2 classes")
    n = F.shape[0]
    omega = F @ F.T
    A = np.zeros((n + 1, n + 1))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    A[1:, 1:] = omega + np.eye(n) / gamma_reg
    rhs = np.zeros((n + 1, classes.size))
    rhs[1:] = np.where(labels[:, None] == classes[None, :], 1.0, -1.0)
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "LSSVM system is singular (duplicate feature rows with conflicting "
            "labels can cause this)"
        ) from exc
    return LssvmModel(np.ascontiguousarray(sol[1:].T), sol[0].copy(), classes, F.copy(),
                      gamma_reg)


def lssvm_kkt_residual(model: LssvmModel, labels) -> float:
    """Largest residual of the per-class KKT linear systems."""
    F = model.features
    n = F.shape[0]
    omega = F @ F.T + np.eye(n) / model.gamma_reg
    worst = 0.0
    for c, cls in enumerate(model.classes):
        y = np.where(np.asarray(labels) == cls, 1.0, -1.0)
        r1 = abs(model.alphas[c].sum())
        r2 = np.abs(model.biases[c] + omega @ model.alphas[c] - y).max()
        worst = max(worst, r1, float(r2))
    return worst


def f1_scores(pred, truth) -> Tuple[float, float]:
    """(micro, macro) F1.  Micro aggregates counts globally; macro averages
    per-class F1 with absent classes contributing 0."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth lengths differ")
    classes = np.union1d(np.unique(pred), np.unique(truth))
    tp_all = fp_all = fn_all = 0
    per_class = []
    for cls in classes:
        tp = int(np.sum((pred == cls) & (truth == cls)))
        fp = int(np.sum((pred == cls) & (truth != cls)))
        fn = int(np.sum((pred != cls) & (truth == cls)))
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom else 0.0)
    micro_denom = 2 * tp_all + fp_all + fn_all
    micro = 2 * tp_all / micro_denom if micro_denom else 0.0
    return float(micro), float(np.mean(per_class))


# ---------------------------------------------------------------------------
# directed-graph reconstruction
# ---------------------------------------------------------------------------

def graph_reconstruct(src_emb, tgt_emb, out_degrees) -> np.ndarray:
    """Rebuild a binary adjacency matrix from embeddings.

    Each node v points to the out_degrees[v] nodes u != v whose target
    embedding is nearest (Euclidean) to v's source embedding; exact
    distance ties go to the smaller node index.
    """
    src = np.asarray(src_emb, dtype=np.float64)
    tgt = np.asarray(tgt_emb, dtype=np.float64)
    deg = np.asarray(out_degrees, dtype=int)
    N = src.shape[0]
    if np.any(deg > N - 1) or np.any(deg < 0):
        raise ValueError("out-degrees must lie in [0, N-1]")
    src_sq = (src * src).sum(axis=1)
    tgt_sq = (tgt * tgt).sum(axis=1)
    d2 = src_sq[:, None] + tgt_sq[None, :] - 2.0 * _products(src, tgt)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    # a stable sort keeps equal distances in index order
    order = np.argsort(d2, axis=1, kind="stable")
    keep = np.arange(N)[None, :] < deg[:, None]
    A_hat = np.zeros((N, N))
    A_hat[np.nonzero(keep)[0], order[keep]] = 1.0
    return A_hat


def recon_error(A, A_hat) -> Tuple[float, float]:
    """(l1, l2) reconstruction error: entrywise absolute sum and Frobenius."""
    A = np.asarray(A, dtype=np.float64)
    A_hat = np.asarray(A_hat, dtype=np.float64)
    if A.shape != A_hat.shape:
        raise ValueError("adjacency shapes differ")
    diff = A - A_hat
    return float(np.abs(diff).sum()), float(np.linalg.norm(diff))


# ---------------------------------------------------------------------------
# k-means and partition metrics
# ---------------------------------------------------------------------------

@dataclass
class ClusterAssignment:
    labels: np.ndarray
    k: int
    inertia: float


def _kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[c] = X[rng.integers(n)]
            continue
        probs = d2 / total
        centers[c] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((X - centers[c]) ** 2).sum(axis=1))
    return centers


def _kmeans_single(X, k, rng, max_iter):
    n = X.shape[0]
    centers = _kmeans_pp_init(X, k, rng)
    labels = np.full(n, -1)
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        # empty cluster: reseed at the point farthest from its centroid
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(d2[np.arange(n), new_labels]))
                centers[c] = X[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = X[labels == c].mean(axis=0)
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def kmeans(X, k: int, seed: int = 0, max_iter: int = 300, restarts: int = 10) -> ClusterAssignment:
    """k-means with k-means++ init, best of ``restarts`` by inertia.

    Deterministic given the seed; restart seeds derive from the master
    seed so restarts could run independently.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or k < 1 or k > X.shape[0]:
        raise ValueError(f"need 2-D X with 1 <= k <= n, got shape {X.shape}, k={k}")
    best = None
    for rs in range(max(restarts, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rs,)))
        labels, inertia = _kmeans_single(X, k, rng, max_iter)
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return ClusterAssignment(labels=best[0], k=k, inertia=best[1])


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(labels_a, labels_b) -> float:
    """Mutual information normalized by the mean of the two entropies.

    1 for identical partitions up to relabeling; when either partition is
    trivial (one cluster) the score is 0 unless both are trivial.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    cont = np.zeros((ka, kb))
    np.add.at(cont, (ai, bi), 1.0)
    ha = _entropy(cont.sum(axis=1), n)
    hb = _entropy(cont.sum(axis=0), n)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    pij = cont / n
    pa = pij.sum(axis=1)
    pb = pij.sum(axis=0)
    mask = pij > 0
    mi = float((pij[mask] * np.log(pij[mask] / np.outer(pa, pb)[mask])).sum())
    return mi / ((ha + hb) / 2.0)


def coherence(term_labels, doc_term) -> float:
    """Mean pairwise PMI coherence of term clusters.

    Per cluster the 10 most document-frequent terms are taken and the
    mean over pairs of PMI(a,b) = log((D(a,b)+1) * n_docs / (D(a) D(b)))
    is computed, with D counting documents where the terms appear
    (nonzero entries).  Clusters with fewer than two terms contribute 0;
    the result averages over clusters.
    """
    labels = np.asarray(term_labels)
    dt = np.asarray(doc_term, dtype=np.float64)
    if labels.size != dt.shape[1]:
        raise ValueError("term_labels length must match doc_term columns")
    presence = dt != 0
    n_docs = dt.shape[0]
    df = presence.sum(axis=0)
    scores = []
    for cls in np.unique(labels):
        terms = np.flatnonzero(labels == cls)
        if terms.size < 2:
            scores.append(0.0)
            continue
        order = np.lexsort((terms, -df[terms]))
        top = terms[order][:10]
        pmis = []
        for i in range(top.size):
            for j in range(i + 1, top.size):
                a, b = top[i], top[j]
                if df[a] == 0 or df[b] == 0:
                    continue
                co = int(np.sum(presence[:, a] & presence[:, b]))
                pmis.append(np.log((co + 1.0) * n_docs / (df[a] * df[b])))
        scores.append(float(np.mean(pmis)) if pmis else 0.0)
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# linear heads for general data: gradient descent, in closed form
# ---------------------------------------------------------------------------

def linear_head(features, targets, task: str, lr: float = 1e-2,
                steps: int = 2000, seed: int = 0) -> LinearHead:
    """Train a linear model by gradient descent on a seeded 80/20 split.

    Least-squares loss; classification uses one-vs-rest +-1 encoding and
    reports test accuracy, regression reports test RMSE.  The head is the
    exact ``steps``-th iterate from zero with step ``lr``, in closed form:
    with X = [F, 1], X'X = Q diag(lam) Q' and c = 2 lr / Y.size, [W; b] =
    Q diag(f(lam)) Q' X'Y, f(lam) = c sum_{j<steps} (1 - c lam)^j.  It
    raises ``NumericalError`` when that iterate or its training loss is not
    finite: a diverging mode (c lam > 2) grows every step, so these are the
    runs whose step-by-step losses would overflow.
    """
    F = as_matrix(features, "features")
    targets = np.asarray(targets)
    T = operator.index(steps)
    if T < 0 or not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"need steps >= 0 and a finite lr > 0, got steps={steps}, lr={lr}")
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    Y, classes = _encode_targets(targets, task)
    n = F.shape[0]
    if Y.shape[0] != n or not np.all(np.isfinite(Y)):
        raise ValueError(f"need {n} finite targets, one per row of features, got {Y.shape[0]}")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(0.2 * n))) if n > 1 else 0
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    X = np.column_stack([F[train_idx], np.ones(train_idx.size)])
    Ytr = Y[train_idx]
    lam, Q = np.linalg.eigh(X.T @ X)
    c = 2.0 * lr / Ytr.size
    x = c * lam                           # a mode shrinks by 1 - x per step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # f = (1 - (1 - x)^T) / lam, through expm1/log1p where it would cancel
        f = np.where(np.abs(x) < 1.0, -np.expm1(T * np.log1p(-x)), 1.0 - (1.0 - x) ** T)
        f = np.where(x == 0.0, c * T, f / lam)
        theta = Q @ (f[:, None] * (Q.T @ (X.T @ Ytr)))
        loss = float(np.mean((X @ theta - Ytr) ** 2))
    if not (np.all(np.isfinite(theta)) and np.isfinite(loss)):
        raise NumericalError("linear head diverged; decrease the learning rate")

    head = LinearHead(theta[:-1], theta[-1], classes)
    pred, Yte = head.predict(F[test_idx]), targets[test_idx]
    if task == "classification":
        head.metric_name, head.metric = "accuracy", float(np.mean(pred == Yte)) if n_test else 1.0
    else:
        head.metric_name = "rmse"
        head.metric = float(np.sqrt(np.mean((pred - Yte.astype(np.float64)) ** 2))) if n_test else 0.0
    return head
