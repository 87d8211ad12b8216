"""Reference computations that the tests check the library against.

Each oracle recomputes a result along a second, slower route that the
library itself does not take.
"""

import numpy as np

from aksvd.compat import _gram_values, _loss
from aksvd.downstream import _entropy


def lssvm_kkt_residual(model, features, labels, gamma_reg: float = 1.0) -> float:
    """Largest residual of the per-class dual LSSVM KKT systems.

    The dual of the primal head is [[0, 1'], [1, F F' + I/gamma]] [b; alpha]
    = [0; y] with alpha = gamma (y - F w - b).  Recovering alpha that way,
    1'alpha is the bias equation and b + (F F' + I/gamma) alpha - y =
    F (F'alpha - w) the weight equation, so both vanish only at the LSSVM
    solution.  Needs a finite ``gamma_reg``.
    """
    F = np.asarray(features, dtype=np.float64)
    omega = F @ F.T + np.eye(F.shape[0]) / gamma_reg
    worst = 0.0
    for c, cls in enumerate(model.classes):
        y = np.where(np.asarray(labels) == cls, 1.0, -1.0)
        b = model.bias[c]
        alpha = gamma_reg * (y - F @ model.weights[:, c] - b)
        r1 = abs(alpha.sum())
        r2 = np.abs(b + omega @ alpha - y).max()
        worst = max(worst, r1, float(r2))
    return worst


def c_gradient_fd(A, C, kernel, V, Y, W, b, h):
    """Central finite differences of the a3 loss over the entries of C.

    The oracle for :func:`aksvd.compat._c_gradient_analytic`: it builds the
    Gram matrix 2 |C| times.
    """
    grad = np.zeros_like(C)
    for p in range(C.shape[0]):
        for q in range(C.shape[1]):
            orig = C[p, q]
            C[p, q] = orig + h
            lp = _loss(_gram_values(A, C, kernel), V, Y, W, b)
            C[p, q] = orig - h
            lm = _loss(_gram_values(A, C, kernel), V, Y, W, b)
            C[p, q] = orig
            grad[p, q] = (lp - lm) / (2.0 * h)
    return grad


def sign_fix_pairs_loop(U, V=None):
    """Column by column, the oracle for :func:`aksvd.solvers._sign_fix_pairs`:
    flip (u_s, v_s) in place when u_s's first largest-|entry| is negative."""
    for s in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, s])))
        if U[i, s] < 0:
            U[:, s] = -U[:, s]
            if V is not None:
                V[:, s] = -V[:, s]


def f1_scores_loop(pred, truth):
    """One class at a time, the oracle for :func:`aksvd.downstream.f1_scores`:
    tp, fp and fn from three boolean masks per class of the union."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
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


def nmi_loop(labels_a, labels_b):
    """The oracle for :func:`aksvd.downstream.nmi`: its contingency table
    is accumulated one label pair at a time with ``np.add.at``."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    cont = np.zeros((ai.max() + 1, bi.max() + 1))
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


def coherence_loop(term_labels, doc_term):
    """Pair by pair, the oracle for :func:`aksvd.downstream.coherence`:
    each co-occurrence count is its own boolean AND over the documents."""
    labels = np.asarray(term_labels)
    dt = np.asarray(doc_term, dtype=np.float64)
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
