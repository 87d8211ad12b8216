"""Reference computations that the tests check the library against.

Each oracle recomputes a result along a second, slower route that the
library itself does not take.
"""

import numpy as np

from aksvd.compat import _gram_values, _loss


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
        b = model.biases[c]
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
