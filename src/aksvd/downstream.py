"""Downstream evaluation: LSSVM classification, graph reconstruction,
k-means biclustering metrics, and simple linear heads for general data."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NumericalError
from .compat import LinearHead, _encode_targets
from .kernels import _Side, as_matrix


# ---------------------------------------------------------------------------
# least-squares SVM (one-vs-rest, linear kernel on the features)
# ---------------------------------------------------------------------------

class LssvmModel(LinearHead):
    """The LSSVM head: a :class:`LinearHead` whose ``decision`` and
    ``predict`` are bound in its own class body, because perfbench traces
    ``LssvmModel.decision`` and ``predict`` by name."""

    decision = LinearHead.decision
    predict = LinearHead.predict


def lssvm_fit(features, labels, gamma_reg: float = 1.0) -> LinearHead:
    """Fit one-vs-rest LSSVM classifiers on linear-kernel features.

    Each class minimizes ||w||^2/2 + gamma/2 ||y - F w - b||^2 with
    y in {-1, +1}^n: ridge regression with an unpenalized bias.  With
    X = [F, 1] that is the (d+1) x (d+1) system

        (X'X + diag(1/gamma, ..., 1/gamma, 0)) [w; b] = X'y,

    solved once with every class as a right-hand side.  It is the primal
    of the dual [[0, 1'], [1, F F' + I/gamma]] [b; alpha] = [0; y]: the
    two share b, w = F' alpha and alpha = gamma (y - F w - b), but the dual
    costs O(n^3).  ``gamma_reg`` = inf gives the ordinary least-squares
    limit, which needs [F, 1] of full column rank.
    """
    F = as_matrix(features, "features")
    if not gamma_reg > 0:
        raise ValueError(f"gamma_reg must be > 0 (inf for least squares), got {gamma_reg}")
    Y, classes = _encode_targets(labels, "classification")
    n, d = F.shape
    if Y.shape[0] != n:
        raise ValueError(f"need {n} labels, one per row of features, got {Y.shape[0]}")
    if classes.size < 2:
        raise ValueError("lssvm_fit requires at least 2 classes")
    X = np.column_stack([F, np.ones(n)])
    ridge = np.append(np.full(d, 1.0 / gamma_reg), 0.0)
    try:
        theta = np.linalg.solve(X.T @ X + np.diag(ridge), X.T @ Y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "LSSVM system is singular: with gamma_reg = inf, [features, 1] must "
            "have full column rank"
        ) from exc
    return LssvmModel(theta[:-1], theta[-1], classes)


def _contingency(a, b) -> np.ndarray:
    """The integer table of label pairs: entry (i, j) counts the positions
    where ``a`` holds its i-th smallest class and ``b`` its j-th.  Empty
    label vectors, and a NaN label, which no class would match, are a
    ValueError."""
    if np.size(a) == 0:
        raise ValueError("label vectors are empty")
    for labels in (a, b):
        if labels.dtype.kind in "fc" and np.isnan(labels).any():
            raise ValueError("labels contain NaN")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    kb = bi.max() + 1
    return np.bincount(ai.ravel() * kb + bi.ravel(), minlength=(ai.max() + 1) * kb).reshape(-1, kb)


def f1_scores(pred, truth) -> Tuple[float, float]:
    """(micro, macro) F1 over the classes that pred or truth holds.

    A class's F1 is 2 tp / (2 tp + fp + fn), counted from one table of
    (pred, truth) and (truth, pred) pairs: over the shared class set its
    diagonal holds 2 tp and its rows 2 tp + fp + fn.  Micro F1 sums the
    counts over the classes, macro averages the per-class F1, a class
    that only one side holds scoring 0.  Empty labels are a ValueError.
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth lengths differ")
    table = _contingency(np.append(pred, truth), np.append(truth, pred))
    hits = np.diagonal(table)
    return float(hits.sum() / table.sum()), float(np.mean(hits / table.sum(axis=1)))


# ---------------------------------------------------------------------------
# directed-graph reconstruction
# ---------------------------------------------------------------------------

def graph_reconstruct(src_emb, tgt_emb, out_degrees) -> np.ndarray:
    """Rebuild a binary adjacency matrix from embeddings.

    Each node v points to the out_degrees[v] nodes u != v whose target
    embedding is nearest (Euclidean) to v's source embedding; exact
    distance ties go to the smaller node index.

    Rows are selected, not sorted: v's cut-off t is its out_degrees[v]-th
    smallest distance, read from one partition of every row at the largest
    degree; v keeps every node nearer than t and, in index order, as many
    of the nodes at exactly t as places remain.  The output array is the
    partition's scratch, so no N x N array beyond the distances is made.
    A degree is an integer in [0, N-1]; an integral real such as 2.0
    counts, a fraction is a ValueError, never truncated.
    """
    src = np.asarray(src_emb, dtype=np.float64)
    tgt = np.asarray(tgt_emb, dtype=np.float64)
    deg = np.asarray(out_degrees, dtype=np.float64)
    N = src.shape[0]
    if not np.all((deg == np.floor(deg)) & (deg >= 0) & (deg <= N - 1)):
        raise ValueError("out-degrees must be integers in [0, N-1]")
    deg = deg.astype(int)
    k = int(deg.max(initial=0))
    if k == 0:
        return np.zeros((N, N))
    d2 = _Side(tgt).sq_dists(src)
    np.fill_diagonal(d2, np.inf)
    A_hat = d2.copy()
    A_hat.partition(k - 1, axis=1)
    nearest = np.sort(A_hat[:, :k], axis=1)
    cut = np.where(deg > 0, nearest[np.arange(N), np.maximum(deg - 1, 0)], -np.inf)
    np.less_equal(d2, cut[:, None], out=A_hat)
    taken = A_hat.sum(axis=1).astype(int)
    # rows with more ties at their cut-off than places: drop the later ones
    for v in np.flatnonzero(taken > deg):
        ties = np.flatnonzero(d2[v] == cut[v])
        A_hat[v, ties[deg[v] - taken[v]:]] = 0.0
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
    seed so restarts could run independently.  ``max_iter`` and
    ``restarts`` below 1 are ValueErrors.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or k < 1 or k > X.shape[0]:
        raise ValueError(f"need 2-D X with 1 <= k <= n, got shape {X.shape}, k={k}")
    if not (max_iter >= 1 and restarts >= 1):
        raise ValueError(f"need max_iter >= 1 and restarts >= 1, got {max_iter} and {restarts}")
    best = None
    for rs in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rs,)))
        labels, inertia = _kmeans_single(X, k, rng, max_iter)
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return ClusterAssignment(labels=best[0], inertia=best[1])


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(labels_a, labels_b) -> float:
    """Mutual information normalized by the mean of the two entropies,
    with the probabilities counted in the contingency table of the labels.

    1 for identical partitions up to relabeling; when either partition is
    trivial (one cluster) the score is 0 unless both are trivial.  Empty
    labels are a ValueError.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    n = a.size
    cont = _contingency(a, b)
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

    Per cluster the 10 most document-frequent terms are taken, ties to the
    lower index, and the mean over their pairs of PMI(a,b) =
    log((D(a,b)+1) * n_docs / (D(a) D(b))) is computed.  D counts the
    documents where a term appears (nonzero entries); D(a,b), read from
    one co-occurrence product P'P of the top terms' presence columns, the
    documents where both do.  Pairs with a term in no document are
    skipped, and a cluster with no pair left (one with a single term, say)
    scores 0; the result averages over clusters.  A doc_term with no terms
    is a ValueError.
    """
    labels = np.asarray(term_labels)
    dt = np.asarray(doc_term, dtype=np.float64)
    if labels.size != dt.shape[1]:
        raise ValueError("term_labels length must match doc_term columns")
    if labels.size == 0:
        raise ValueError("term_labels is empty: coherence needs at least one term")
    presence = dt != 0
    n_docs = dt.shape[0]
    df = presence.sum(axis=0)
    scores = []
    for cls in np.unique(labels):
        terms = np.flatnonzero(labels == cls)
        top = terms[np.lexsort((terms, -df[terms]))][:10]
        top = top[df[top] > 0]      # skips each pair with a term in no document
        P = presence[:, top].astype(np.int64)
        i, j = np.triu_indices(top.size, 1)
        pmis = np.log(((P.T @ P)[i, j] + 1.0) * n_docs / (df[top[i]] * df[top[j]]))
        scores.append(float(np.mean(pmis)) if pmis.size else 0.0)
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
