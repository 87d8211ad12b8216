"""Dimensionality-compatibility matrices for rectangular data.

When the rows and columns of an N x M data matrix A are treated as two
sample sets, their dimensions (M and N) differ unless A is square.  A
compatibility matrix C projects the higher-dimensional set down so that a
kernel expecting equal input dimensions applies.  For M > N a C of shape
M x N is built so that A C is N x N; for N > M the construction mirrors.

Strategies: a0 pseudo-inverse, a1 PCA projection and a2 random
projection, applied by :func:`compat_sets`; and a3, learned against
downstream targets by :func:`learn_compat`, which alternates SVD refreshes
with gradient steps on C and a linear head.  The a3 gradient with respect
to C is exact and analytic for all four kernel families (linear, poly,
rbf, sne); the test suite checks it against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .errors import NumericalError
from .kernels import KernelOperator, KernelSpec, as_matrix
from .solvers import _sign_fix_pairs


@dataclass(frozen=True)
class PseudoInverse:
    """a0: C = ((A A')^+ A)'."""


@dataclass(frozen=True)
class PcaProjection:
    """a1: C = argmin_C ||A - A C C'||_F over orthonormal C, i.e. the top
    right singular vectors of A."""


@dataclass(frozen=True)
class RandomProjection:
    """a2: i.i.d. standard normal entries, fully determined by the seed."""

    seed: int = 0


@dataclass(frozen=True)
class LearnableConfig:
    rank_r: int = 4
    steps: int = 50               # gradient steps per outer iteration
    learning_rate: float = 1e-2
    seed: int = 0
    task: str = "regression"      # or "classification"
    outer_iters: int = 10

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.rank_r < 1 or self.steps < 0 or self.outer_iters < 0:
            raise ValueError("rank_r must be >= 1, and steps and outer_iters >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


CompatStrategy = Union[PseudoInverse, PcaProjection, RandomProjection]

# the strategies by name; a3 needs targets, so it is learn_compat alone
STRATEGIES = {"a0": PseudoInverse, "a1": PcaProjection, "a2": RandomProjection}


def strategy_from_name(name: str, seed: int = 0) -> CompatStrategy:
    if name not in STRATEGIES:
        raise ValueError(f"unknown compat strategy {name!r}; expected one of {sorted(STRATEGIES)} "
                         "(the learned a3 needs targets: use learn_compat)")
    if name == "a2":
        return RandomProjection(seed=seed)
    return STRATEGIES[name]()


def realize_compat(strategy: CompatStrategy, A) -> np.ndarray:
    """Realize the compatibility matrix for the data matrix A.

    Square A returns the identity for every strategy.  For M > N the
    result C is M x N with A C square; for N > M the construction is
    mirrored through A'.  :func:`compat_sets` applies C to the side it was
    built for; the learned a3 needs targets and is :func:`learn_compat`.
    """
    A = as_matrix(A, "A")
    N, M = A.shape
    if N == M:
        return np.eye(N)
    if M < N:
        return realize_compat(strategy, np.ascontiguousarray(A.T))

    if isinstance(strategy, PseudoInverse):
        AAt = A @ A.T
        s = np.linalg.svd(AAt, compute_uv=False)
        rcond = max(AAt.shape) * np.finfo(np.float64).eps
        if s[0] <= 0.0 or s[-1] <= rcond * s[0]:
            raise NumericalError(
                "A A' is numerically singular beyond pseudo-inverse tolerance; "
                "consider the PCA projection strategy (a1) instead"
            )
        return ((np.linalg.pinv(AAt) @ A).T).copy()
    if isinstance(strategy, PcaProjection):
        _, _, vt = np.linalg.svd(A, full_matrices=False)
        C = vt[:N].T.copy()
        _sign_fix_pairs(C)
        return C
    if isinstance(strategy, RandomProjection):
        rng = np.random.default_rng(strategy.seed)
        return rng.standard_normal((M, N))
    raise ValueError(f"unknown compat strategy {strategy!r}")


# ---------------------------------------------------------------------------
# learnable C (a3)
# ---------------------------------------------------------------------------

@dataclass
class LinearHead:
    """Linear model on the projected features; least-squares loss, with
    one-vs-rest +-1 encoding for classification.  ``metric`` is the
    held-out score that :func:`aksvd.downstream.linear_head` reports
    ("accuracy" or "rmse")."""

    weights: np.ndarray   # d x k
    bias: np.ndarray      # k
    classes: Optional[np.ndarray] = None
    metric_name: str = ""
    metric: float = 0.0

    def decision(self, features) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights + self.bias[None, :]

    def predict(self, features: np.ndarray) -> np.ndarray:
        d = self.decision(features)
        if self.classes is None:
            return d[:, 0]
        return self.classes[np.argmax(d, axis=1)]


@dataclass
class LearnCompatResult:
    c: np.ndarray
    head: LinearHead
    losses: List[float]   # loss at the end of each outer iteration


def _encode_targets(targets, task):
    """Targets as a column for regression, or one-vs-rest +-1 columns and
    the sorted classes for classification; shared with
    :func:`aksvd.downstream.linear_head`."""
    targets = np.asarray(targets)
    if task == "regression":
        return targets.astype(np.float64).reshape(-1, 1), None
    classes = np.unique(targets)
    Y = np.where(targets[:, None] == classes[None, :], 1.0, -1.0)
    return Y, classes


def _effective_sets(A, C):
    """The sample sets X = rows and Z = columns of A with C applied to
    the higher-dimensional one, the side realize_compat builds C for, and
    that side: "x" when A is wide, else "z"."""
    N, M = A.shape
    if M > N:
        return A @ C, np.ascontiguousarray(A.T), "x"
    return A, np.ascontiguousarray(A.T) @ C, "z"


def compat_sets(strategy: Optional[CompatStrategy], A):
    """X, Z, C and the projected side for a fit on one data matrix A:
    C = realize_compat(strategy, A) on the side :func:`_effective_sets`
    picks, or no C (and side None) for square A or no strategy."""
    A = as_matrix(A, "A")
    if strategy is None or A.shape[0] == A.shape[1]:
        return A, np.ascontiguousarray(A.T), None, None
    C = realize_compat(strategy, A)
    X, Z, side = _effective_sets(A, C)
    return X, Z, C, side


def _gram_values(A, C, kernel):
    X_eff, Z_eff, _ = _effective_sets(A, C)
    return KernelOperator(X_eff, Z_eff, kernel, scaled=True).materialize()


def _loss(G, V, Y, W, b):
    pred = (G @ V) @ W + b[None, :]
    return float(np.mean((pred - Y) ** 2))


def _head_gradients(G, V, Y, W, b):
    F = G @ V
    resid = F @ W + b[None, :] - Y
    scale = 2.0 / resid.size
    dW = scale * (F.T @ resid)
    db = scale * resid.sum(axis=0)
    dG = scale * (resid @ W.T) @ V.T
    return dW, db, dG


def _c_gradient_analytic(A, C, kernel, dG, G):
    """Chain dL/dG through the kernel into C, reusing the Gram matrix G.

    With s the operator scale, k = 2/gamma^2, W = dG o G, r = W 1 and
    P = G/s (row-stochastic for sne), the gradients with respect to the
    effective sample sets X and Z are

        linear, poly:  H = s dG o kappa'(X Z'),  dX = H Z,  dZ = H' X
        rbf:           dX = k (W Z - diag(r) X),
                       dZ = k (W' X - diag(W' 1) Z)
        sne:           dX = k (W Z - diag(r) P Z),  and with
                       W2 = W - diag(r) P,  dZ = k (W2' X - diag(W2' 1) Z)

    where kappa' is 1 for linear and p (t + c)^(p-1) for poly.  The
    projected side is linear in C: dC = A' dX for side "x", else A dZ.
    """
    X, Z, side = _effective_sets(A, C)
    fam = kernel.family
    s = 1.0 / np.sqrt(G.size)
    if fam in ("linear", "poly"):
        H = s * dG
        if fam == "poly":
            p = kernel.degree
            H *= p * (X @ Z.T + kernel.offset) ** (p - 1)
        return A.T @ (H @ Z) if side == "x" else A @ (H.T @ X)
    k = 2.0 / kernel.gamma ** 2
    W = dG * G
    r = W.sum(axis=1)
    if side == "x":
        centre = (G / s) @ Z if fam == "sne" else X
        return A.T @ (k * (W @ Z - r[:, None] * centre))
    if fam == "sne":
        W -= r[:, None] * (G / s)
    return A @ (k * (W.T @ X - W.sum(axis=0)[:, None] * Z))


def learn_compat(A, targets, kernel: KernelSpec, cfg: LearnableConfig) -> LearnCompatResult:
    """Learn C by alternating SVD refreshes and gradient descent.

    Each outer iteration (i) recomputes V as the top-r right singular
    vectors of the current Gram matrix and freezes it, then (ii) takes
    cfg.steps joint gradient steps on C and the head against the task
    loss on features G V.  An outer iteration that fails to improve the
    loss is rolled back and training stops, so the recorded end-of-
    iteration losses are nonincreasing.

    The gradient with respect to C is exact and analytic for every kernel
    family (:func:`_c_gradient_analytic`) and reuses the Gram matrix the
    step already holds, so a gradient step builds the Gram matrix once,
    for the updated C.  The test suite checks it against central finite
    differences.
    """
    A = as_matrix(A, "A")
    N, M = A.shape
    Y, classes = _encode_targets(targets, cfg.task)
    if Y.shape[0] != N:
        raise ValueError(f"targets length {Y.shape[0]} does not match {N} rows of A")
    r = cfg.rank_r
    if r > min(N, M):
        raise ValueError(f"rank_r {r} exceeds min(N, M) = {min(N, M)}")

    C = realize_compat(PcaProjection(), A)
    G = _gram_values(A, C, kernel)        # kept equal to the Gram matrix of C
    k = Y.shape[1]
    W = np.zeros((r, k))
    b = np.zeros(k)
    losses: List[float] = []
    prev = np.inf

    for _ in range(cfg.outer_iters):
        _, _, vt = np.linalg.svd(G, full_matrices=False)
        V = vt[:r].T                      # refreshed then held fixed
        snapshot = (C.copy(), W.copy(), b.copy(), G)
        for _ in range(cfg.steps):
            dW, db, dG = _head_gradients(G, V, Y, W, b)
            dC = _c_gradient_analytic(A, C, kernel, dG, G)
            W -= cfg.learning_rate * dW
            b -= cfg.learning_rate * db
            C -= cfg.learning_rate * dC
            G = _gram_values(A, C, kernel)
        loss = _loss(G, V, Y, W, b)
        if not np.isfinite(loss):
            raise NumericalError("training loss diverged; decrease the learning rate")
        if loss > prev - 1e-12:
            C, W, b, G = snapshot         # roll back the failed iteration
            break
        losses.append(loss)
        prev = loss
        if cfg.steps == 0:
            break

    if not losses:   # no outer iterations
        _, _, vt = np.linalg.svd(G, full_matrices=False)
        losses.append(_loss(G, vt[:r].T, Y, W, b))
    head = LinearHead(weights=W, bias=b, classes=classes)
    return LearnCompatResult(c=C, head=head, losses=losses)
